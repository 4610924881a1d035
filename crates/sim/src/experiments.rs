//! Config-variant studies: the experiments that change the Table 1
//! configuration itself (serialized sync sets, a driver-managed CP, a
//! smaller table, a slower crossbar or link), so their cells are not
//! campaign-grid cells and cannot come from `results/campaign.json`.
//! Every figure built from grid cells is rendered from the campaign
//! document instead (`cpelide_bench::report`); the `studies` binary of
//! `cpelide-bench` runs what is here (see DESIGN.md §5 for the experiment
//! index).
//!
//! All fan-out goes through `chiplet_harness::fleet` — this crate never
//! spawns a thread itself, which keeps the whole simulation path
//! thread-free (the `sim-thread` lint enforces it). The fleet commits
//! results in submission order, so every study is byte-identical across
//! worker counts.

use crate::cell::run_one;
use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::metrics::{geomean, RunMetrics};
use chiplet_coherence::ProtocolKind;
use chiplet_harness::fleet;
use chiplet_workloads::Workload;

/// Maps a closure over workloads on the fleet, preserving order.
fn par_map<T: Send>(workloads: &[Workload], f: impl Fn(&Workload) -> T + Sync) -> Vec<T> {
    fleet::parallel_map_ok(workloads, fleet::workers(), f)
}

// ----------------------------------------------------- §VI scaling study

/// §VI scalability study: mimic 8-/16-chiplet systems by serializing 2/4
/// sets of boundary acquires/releases on the 4-chiplet CPElide system
/// (paper: ≈1 % and ≈2 % average slowdown).
pub fn scaling_study(workloads: &[Workload]) -> Vec<(usize, f64)> {
    let base: Vec<RunMetrics> = par_map(workloads, |w| run_one(w, ProtocolKind::CpElide, 4));
    [(8usize, 2u32), (16, 4)]
        .into_iter()
        .map(|(mimicked, replication)| {
            let slowdowns = par_map(workloads, |w| {
                let mut cfg = SimConfig::table1(4, ProtocolKind::CpElide);
                cfg.sync_replication = replication;
                Simulator::new(cfg).run(w)
            });
            let geo = geomean(
                slowdowns
                    .iter()
                    .zip(&base)
                    .map(|(s, b)| s.cycles / b.cycles),
            );
            (mimicked, geo - 1.0)
        })
        .collect()
}

// ------------------------------------------------------- sensitivity sweeps

/// One cell of a sensitivity sweep: the swept parameter value and the
/// resulting CPElide speedup over the Baseline.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub value: f64,
    /// CPElide speedup over Baseline at that value.
    pub cpelide_speedup: f64,
    /// Synchronization operations CPElide issued.
    pub sync_ops: u64,
}

/// Table-capacity sensitivity (DESIGN.md ablation): shrinking the Chiplet
/// Coherence Table below the paper's 64 entries forces conservative
/// capacity evictions; the sweep shows how small it can get before the
/// elision benefit erodes.
pub fn table_capacity_sweep(workload: &Workload, capacities: &[usize]) -> Vec<SweepPoint> {
    let base = run_one(workload, ProtocolKind::Baseline, 4);
    capacities
        .iter()
        .map(|&cap| {
            let mut cfg = SimConfig::table1(4, ProtocolKind::CpElide);
            cfg.table_capacity = cap;
            let m = Simulator::new(cfg).run(workload);
            SweepPoint {
                value: cap as f64,
                cpelide_speedup: m.speedup_over(&base),
                sync_ops: m.sync_ops,
            }
        })
        .collect()
}

/// CP-crossbar round-trip sensitivity (DESIGN.md ablation): CPElide's
/// request/ack/enable exchange sits on the launch critical path; the sweep
/// shows the benefit is robust to much slower crossbars because the
/// exchange is rare.
pub fn crossbar_latency_sweep(workload: &Workload, round_trips: &[f64]) -> Vec<SweepPoint> {
    let base = run_one(workload, ProtocolKind::Baseline, 4);
    round_trips
        .iter()
        .map(|&rt| {
            let mut cfg = SimConfig::table1(4, ProtocolKind::CpElide);
            cfg.sync.round_trip_cycles = rt;
            let m = Simulator::new(cfg).run(workload);
            SweepPoint {
                value: rt,
                cpelide_speedup: m.speedup_over(&base),
                sync_ops: m.sync_ops,
            }
        })
        .collect()
}

/// Inter-chiplet link-bandwidth sensitivity: both configurations pay the
/// link for remote traffic and flush drains; CPElide's advantage grows as
/// the link gets slower because it drains less.
pub fn link_bandwidth_sweep(workload: &Workload, bandwidths_gbs: &[f64]) -> Vec<SweepPoint> {
    bandwidths_gbs
        .iter()
        .map(|&bw| {
            let link = chiplet_noc::link::LinkConfig::from_bandwidth(bw, 1801.0, 121);
            let mut bcfg = SimConfig::table1(4, ProtocolKind::Baseline);
            bcfg.link = link;
            let base = Simulator::new(bcfg).run(workload);
            let mut ccfg = SimConfig::table1(4, ProtocolKind::CpElide);
            ccfg.link = link;
            let m = Simulator::new(ccfg).run(workload);
            SweepPoint {
                value: bw,
                cpelide_speedup: m.speedup_over(&base),
                sync_ops: m.sync_ops,
            }
        })
        .collect()
}

// ----------------------------------------- §VI driver-managed ablation

/// §VI "Managing Implicit Synchronization at Driver": the same elision
/// algorithm run by the host driver pays an exposed round trip per launch
/// to fetch the CP's scheduling decisions. Returns, per workload, the
/// CP-integrated and driver-managed speedups over the Baseline.
pub fn driver_study(workloads: &[Workload]) -> Vec<(String, f64, f64)> {
    par_map(workloads, |w| {
        let base = run_one(w, ProtocolKind::Baseline, 4);
        let cp = run_one(w, ProtocolKind::CpElide, 4);
        let mut cfg = SimConfig::table1(4, ProtocolKind::CpElide);
        cfg.driver_managed = true;
        let driver = Simulator::new(cfg).run(w);
        (
            w.name().to_owned(),
            cp.speedup_over(&base),
            driver.speedup_over(&base),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_suite() -> Vec<Workload> {
        ["square", "btree"]
            .iter()
            .map(|n| chiplet_workloads::lookup(n).unwrap_or_else(|e| panic!("{e}")))
            .collect()
    }

    #[test]
    fn scaling_study_overhead_is_small() {
        let suite = mini_suite();
        let results = scaling_study(&suite);
        assert_eq!(results.len(), 2);
        for (n, overhead) in results {
            assert!(overhead >= -0.01, "mimicked {n}-chiplet overhead negative");
            assert!(
                overhead < 0.25,
                "mimicked {n}-chiplet overhead too large: {overhead}"
            );
        }
    }
}
