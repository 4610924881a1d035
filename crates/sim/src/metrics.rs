//! Run metrics: what one (workload, protocol, chiplet-count) simulation
//! produces.

use crate::phase::PhaseProfile;
use chiplet_coherence::ProtocolKind;
use chiplet_energy::{EnergyBreakdown, EnergyCounts};
use chiplet_harness::json::Json;
use chiplet_mem::cache::CacheStats;
use chiplet_noc::link::LinkUtilization;
use chiplet_noc::traffic::FlitCounter;
use chiplet_obs::{Histogram, PromText, TransitionAuditor};
use cpelide::table::TableStats;
use std::fmt;

/// Boundary-synchronization accounting for one run: what was performed vs.
/// what CPElide (or the baseline) skipped, and what it cost the memory
/// system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncCounters {
    /// Whole-L2 flush+invalidate operations performed at kernel boundaries.
    pub acquires_performed: u64,
    /// Per-chiplet acquires skipped relative to sync-everything (CPElide).
    pub acquires_elided: u64,
    /// Whole-L2 dirty flushes performed (boundaries + final drain).
    pub releases_performed: u64,
    /// Per-chiplet releases skipped relative to sync-everything (CPElide).
    pub releases_elided: u64,
    /// L2 lines dropped by boundary acquires.
    pub invalidated_lines: u64,
    /// Dirty L2 lines drained by boundary synchronization.
    pub flushed_lines: u64,
    /// Bytes that crossed inter-chiplet links over the whole run.
    pub remote_bytes: u64,
}

impl SyncCounters {
    /// The counters as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("acquires_performed", self.acquires_performed)
            .with("acquires_elided", self.acquires_elided)
            .with("releases_performed", self.releases_performed)
            .with("releases_elided", self.releases_elided)
            .with("invalidated_lines", self.invalidated_lines)
            .with("flushed_lines", self.flushed_lines)
            .with("remote_bytes", self.remote_bytes)
    }
}

/// Log2-bucketed distributions collected over one run. Scalars such as
/// `sync_cycles` say how much was paid in total; these say how it was
/// distributed — whether boundary stalls are uniform or dominated by a few
/// heavyweight flushes, which is the difference CPElide's elision targets.
#[derive(Debug, Clone)]
pub struct RunHistograms {
    /// Per-kernel execution time in cycles (max over the chiplets each
    /// kernel packet ran on, one sample per packet).
    pub kernel_cycles: Histogram,
    /// Synchronization stall cycles per kernel boundary (one sample per
    /// round that reached the sync phase, plus the final drain).
    pub boundary_stall_cycles: Histogram,
    /// Dirty L2 lines drained per kernel boundary.
    pub boundary_flushed_lines: Histogram,
    /// L2 lines invalidated per kernel boundary.
    pub boundary_invalidated_lines: Histogram,
    /// Inter-chiplet link occupancy per boundary, in tenths of a percent
    /// of the round's duration (log2 buckets need integer samples; 1000 =
    /// fully busy).
    pub link_busy_permille: Histogram,
}

impl RunHistograms {
    /// Empty histograms with their canonical metric names.
    pub fn new() -> Self {
        RunHistograms {
            kernel_cycles: Histogram::new("kernel_cycles"),
            boundary_stall_cycles: Histogram::new("boundary_stall_cycles"),
            boundary_flushed_lines: Histogram::new("boundary_flushed_lines"),
            boundary_invalidated_lines: Histogram::new("boundary_invalidated_lines"),
            link_busy_permille: Histogram::new("link_busy_permille"),
        }
    }

    fn all(&self) -> [(&Histogram, &'static str); 5] {
        [
            (&self.kernel_cycles, "per-kernel execution cycles"),
            (
                &self.boundary_stall_cycles,
                "sync stall cycles per kernel boundary",
            ),
            (
                &self.boundary_flushed_lines,
                "dirty L2 lines drained per boundary",
            ),
            (
                &self.boundary_invalidated_lines,
                "L2 lines invalidated per boundary",
            ),
            (
                &self.link_busy_permille,
                "inter-chiplet link occupancy per boundary (1/1000)",
            ),
        ]
    }

    /// The distributions as a JSON object: one sub-object per histogram
    /// with count, mean, p50/p90/p99 and max.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        for (h, _) in self.all() {
            o.set(
                h.name(),
                Json::object()
                    .with("count", h.count())
                    .with("mean", h.mean())
                    .with("p50", h.p50())
                    .with("p90", h.p90())
                    .with("p99", h.p99())
                    .with("max", h.max()),
            );
        }
        o
    }

    /// Folds another run's distributions into this one, histogram by
    /// histogram (see [`Histogram::merge`]). The campaign runner uses this
    /// to aggregate per-cell distributions across a sweep; fold in
    /// submission order when byte-stable output matters, since `sum` is a
    /// float accumulator.
    pub fn merge(&mut self, other: &RunHistograms) {
        self.kernel_cycles.merge(&other.kernel_cycles);
        self.boundary_stall_cycles
            .merge(&other.boundary_stall_cycles);
        self.boundary_flushed_lines
            .merge(&other.boundary_flushed_lines);
        self.boundary_invalidated_lines
            .merge(&other.boundary_invalidated_lines);
        self.link_busy_permille.merge(&other.link_busy_permille);
    }

    /// Appends Prometheus text exposition for every histogram.
    pub fn prometheus_text(&self, labels: &str, out: &mut PromText) {
        for (h, help) in self.all() {
            h.prometheus_text("cpelide", labels, help, out);
        }
    }
}

impl Default for RunHistograms {
    fn default() -> Self {
        RunHistograms::new()
    }
}

/// Everything measured over one simulated run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Workload name.
    pub workload: String,
    /// Protocol simulated.
    pub protocol: ProtocolKind,
    /// Chiplet count (1 for monolithic; carries the *equivalent* count in
    /// `equivalent_chiplets`).
    pub chiplets: usize,
    /// Chiplet count the configuration is equivalent to (for monolithic).
    pub equivalent_chiplets: usize,
    /// Total simulated GPU cycles (execution + synchronization).
    pub cycles: f64,
    /// Cycles spent executing kernels.
    pub exec_cycles: f64,
    /// Cycles spent on implicit synchronization (flush/invalidate, CP).
    pub sync_cycles: f64,
    /// Dynamic kernels executed.
    pub kernels: u64,
    /// Interconnect traffic.
    pub traffic: FlitCounter,
    /// Raw energy event counts.
    pub energy_counts: EnergyCounts,
    /// Energy by component.
    pub energy: EnergyBreakdown,
    /// Aggregate L2 statistics.
    pub l2: CacheStats,
    /// LLC statistics.
    pub l3: CacheStats,
    /// HBM reads + writes.
    pub dram_accesses: u64,
    /// Coherence-table statistics (CPElide runs only).
    pub table: Option<TableStats>,
    /// Bulk releases/acquires performed at kernel boundaries.
    pub sync_ops: u64,
    /// Dirty lines drained by boundary synchronization.
    pub flushed_lines: u64,
    /// Elided-vs-performed synchronization accounting.
    pub sync: SyncCounters,
    /// Log2-bucketed distributions (kernel duration, boundary stalls,
    /// flushed/invalidated lines, link occupancy).
    pub hist: RunHistograms,
    /// Inter-chiplet link occupancy accumulated over the run.
    pub link_util: LinkUtilization,
    /// CCT transition audit (CPElide runs only).
    pub audit: Option<TransitionAuditor>,
    /// Where the run's simulated cycles went, by engine pipeline phase.
    /// Deliberately NOT part of [`Self::to_json`]: the golden snapshots
    /// pin that format. Exposed via [`Self::metrics_text`] and the
    /// campaign's `campaign.prom`.
    pub phases: PhaseProfile,
}

impl RunMetrics {
    /// Aggregate L2 hit rate over the run.
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.hit_rate()
    }

    /// Speedup of this run relative to `baseline` (same workload).
    ///
    /// # Panics
    ///
    /// Panics if the runs are for different workloads.
    pub fn speedup_over(&self, baseline: &RunMetrics) -> f64 {
        assert_eq!(
            self.workload, baseline.workload,
            "speedup must compare the same workload"
        );
        baseline.cycles / self.cycles
    }

    /// This run's energy relative to `baseline` (1.0 = equal).
    pub fn energy_ratio_to(&self, baseline: &RunMetrics) -> f64 {
        self.energy.total() / baseline.energy.total()
    }

    /// The run as a JSON object (counters, traffic, energy, histograms,
    /// audit and table stats).
    pub fn to_json(&self) -> Json {
        let mut o = Json::object()
            .with("workload", self.workload.as_str())
            .with("protocol", self.protocol.label())
            .with("chiplets", self.equivalent_chiplets)
            .with("kernels", self.kernels)
            .with("cycles", self.cycles)
            .with("exec_cycles", self.exec_cycles)
            .with("sync_cycles", self.sync_cycles)
            .with("sync_ops", self.sync_ops)
            .with("flushed_lines", self.flushed_lines)
            .with("sync", self.sync.to_json())
            .with(
                "traffic",
                Json::object()
                    .with("l1_l2_flits", self.traffic.l1_l2)
                    .with("l2_l3_flits", self.traffic.l2_l3)
                    .with("remote_flits", self.traffic.remote)
                    .with("remote_bytes", self.traffic.remote_bytes()),
            )
            .with(
                "l2",
                Json::object()
                    .with("accesses", self.l2.accesses())
                    .with("hit_rate", self.l2_hit_rate())
                    .with("flush_writebacks", self.l2.flush_writebacks)
                    .with("invalidated", self.l2.invalidated),
            )
            .with("dram_accesses", self.dram_accesses)
            .with("energy_total_uj", self.energy.total() / 1e6)
            .with("hist", self.hist.to_json())
            .with(
                "link_utilization",
                self.link_util.utilization(self.cycles.max(0.0) as u64),
            );
        if let Some(a) = &self.audit {
            o.set(
                "audit",
                Json::object()
                    .with("transitions", a.transitions())
                    .with("violations", a.violations()),
            );
        }
        if let Some(t) = &self.table {
            o.set(
                "table",
                Json::object()
                    .with("launches", t.launches)
                    .with("acquires_issued", t.acquires_issued)
                    .with("releases_issued", t.releases_issued)
                    .with("acquires_elided", t.acquires_elided)
                    .with("releases_elided", t.releases_elided)
                    .with("max_live_entries", t.max_live_entries)
                    .with("coarsenings", t.coarsenings)
                    .with("evictions", t.evictions),
            );
        }
        o
    }

    /// Renders Prometheus-style text exposition for scrape-friendly
    /// consumption by the bench binaries: scalar gauges plus the full
    /// log2-bucketed histograms, all labelled with workload and protocol.
    ///
    /// One run per exposition; to combine several runs (or several
    /// protocols) into a single valid document, append each with
    /// [`Self::metrics_text_into`] on a shared [`PromText`] so the
    /// `# HELP`/`# TYPE` headers stay once-per-family.
    pub fn metrics_text(&self) -> String {
        let mut out = PromText::new();
        self.metrics_text_into(&mut out);
        out.finish()
    }

    /// Appends this run's exposition to a shared [`PromText`] writer.
    pub fn metrics_text_into(&self, out: &mut PromText) {
        let labels = format!(
            "workload=\"{}\",protocol=\"{}\",chiplets=\"{}\"",
            self.workload,
            self.protocol.label(),
            self.equivalent_chiplets
        );
        let gauge = |out: &mut PromText, name: &str, help: &str, value: String| {
            out.gauge(&format!("cpelide_{name}"), help, &labels, value);
        };
        gauge(
            out,
            "cycles",
            "total simulated GPU cycles",
            format!("{:.0}", self.cycles),
        );
        gauge(
            out,
            "exec_cycles",
            "kernel execution cycles",
            format!("{:.0}", self.exec_cycles),
        );
        gauge(
            out,
            "sync_cycles",
            "implicit-synchronization cycles",
            format!("{:.0}", self.sync_cycles),
        );
        gauge(
            out,
            "kernels",
            "dynamic kernels executed",
            self.kernels.to_string(),
        );
        gauge(
            out,
            "sync_ops",
            "bulk L2 acquires+releases performed",
            self.sync_ops.to_string(),
        );
        gauge(
            out,
            "l2_hit_rate",
            "aggregate L2 hit rate",
            format!("{:.6}", self.l2_hit_rate()),
        );
        gauge(
            out,
            "link_utilization",
            "inter-chiplet link busy fraction",
            format!(
                "{:.6}",
                self.link_util.utilization(self.cycles.max(0.0) as u64)
            ),
        );
        gauge(
            out,
            "energy_uj",
            "memory-subsystem energy in microjoules",
            format!("{:.3}", self.energy.total() / 1e6),
        );
        if let Some(a) = &self.audit {
            gauge(
                out,
                "cct_audit_transitions",
                "CCT state transitions checked",
                a.transitions().to_string(),
            );
            gauge(
                out,
                "cct_audit_violations",
                "illegal CCT transitions observed",
                a.violations().to_string(),
            );
        }
        for (p, st) in self.phases.entries() {
            let phase_labels = format!("{labels},phase=\"{}\"", p.label());
            out.gauge(
                "cpelide_phase_cycles",
                "simulated cycles attributed to an engine pipeline phase",
                &phase_labels,
                format!("{:.0}", st.cycles),
            );
            out.gauge(
                "cpelide_phase_ops",
                "operations attributed to an engine pipeline phase",
                &phase_labels,
                st.ops.to_string(),
            );
        }
        self.hist.prometheus_text(&labels, out);
    }
}

impl fmt::Display for RunMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} x{}]: {:.0} cycles ({:.0} exec + {:.0} sync), L2 hit {:.1}%, {} flits, {:.2} uJ",
            self.workload,
            self.protocol,
            self.equivalent_chiplets,
            self.cycles,
            self.exec_cycles,
            self.sync_cycles,
            100.0 * self.l2_hit_rate(),
            self.traffic.total(),
            self.energy.total() / 1e6,
        )
    }
}

/// Geometric mean of an iterator of positive ratios.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        assert!(v > 0.0, "geomean requires positive values");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return 1.0;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(name: &str, cycles: f64) -> RunMetrics {
        RunMetrics {
            workload: name.to_owned(),
            protocol: ProtocolKind::Baseline,
            chiplets: 4,
            equivalent_chiplets: 4,
            cycles,
            exec_cycles: cycles,
            sync_cycles: 0.0,
            kernels: 1,
            traffic: FlitCounter::new(),
            energy_counts: EnergyCounts::default(),
            energy: EnergyBreakdown {
                dram: cycles,
                ..Default::default()
            },
            l2: CacheStats::default(),
            l3: CacheStats::default(),
            dram_accesses: 0,
            table: None,
            sync_ops: 0,
            flushed_lines: 0,
            sync: SyncCounters::default(),
            hist: RunHistograms::new(),
            link_util: LinkUtilization::new(),
            audit: None,
            phases: PhaseProfile::default(),
        }
    }

    #[test]
    fn speedup_is_baseline_over_self() {
        let fast = metrics("w", 50.0);
        let slow = metrics("w", 100.0);
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same workload")]
    fn speedup_rejects_mismatched_workloads() {
        let a = metrics("a", 1.0);
        let b = metrics("b", 1.0);
        let _ = a.speedup_over(&b);
    }

    #[test]
    fn energy_ratio() {
        let a = metrics("w", 50.0);
        let b = metrics("w", 100.0);
        assert!((a.energy_ratio_to(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_identities_is_one() {
        assert!((geomean([1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(std::iter::empty()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_export_is_valid_and_complete() {
        let mut m = metrics("square", 123.0);
        m.sync.acquires_elided = 7;
        m.sync.remote_bytes = 160;
        let text = m.to_json().render();
        chiplet_harness::json::parse(&text).expect("run JSON validates");
        for key in ["acquires_elided", "remote_bytes", "hit_rate"] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }

    #[test]
    fn json_reports_histogram_percentiles() {
        let mut m = metrics("square", 123.0);
        for v in [10u64, 100, 1000, 10_000] {
            m.hist.kernel_cycles.observe(v);
            m.hist.boundary_stall_cycles.observe(v / 2);
        }
        let text = m.to_json().render();
        chiplet_harness::json::parse(&text).expect("run JSON validates");
        for key in [
            "\"hist\"",
            "\"kernel_cycles\"",
            "\"boundary_stall_cycles\"",
            "\"p50\"",
            "\"p90\"",
            "\"p99\"",
            "\"link_utilization\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }

    #[test]
    fn metrics_text_is_prometheus_exposition() {
        let mut m = metrics("square", 123.0);
        m.hist.kernel_cycles.observe(500);
        m.link_util.record(6400, 40);
        let mut audit = TransitionAuditor::new();
        audit
            .record(0, 0, 0, 0b00, 0, 0b01) // NP --LocalRead--> Valid
            .expect("legal transition");
        m.audit = Some(audit);
        m.phases
            .record(crate::phase::SimPhase::AccessReplay, 80.0, 9);
        let t = m.metrics_text();
        for needle in [
            "# TYPE cpelide_cycles gauge",
            "cpelide_cycles{workload=\"square\",protocol=\"Baseline\",chiplets=\"4\"} 123",
            "# TYPE cpelide_kernel_cycles histogram",
            "cpelide_kernel_cycles_count{",
            "cpelide_cct_audit_violations{",
            "cpelide_link_utilization{",
            "cpelide_phase_cycles{workload=\"square\",protocol=\"Baseline\",chiplets=\"4\",phase=\"access_replay\"} 80",
            "cpelide_phase_ops{",
        ] {
            assert!(t.contains(needle), "missing {needle:?} in:\n{t}");
        }
        chiplet_obs::prom::parse(&t).expect("single-run exposition is valid");
    }

    #[test]
    fn metrics_text_into_shares_headers_across_runs() {
        let mut a = metrics("square", 123.0);
        a.hist.kernel_cycles.observe(500);
        let mut b = metrics("square", 99.0);
        b.protocol = ProtocolKind::CpElide;
        b.hist.kernel_cycles.observe(300);
        let mut out = PromText::new();
        a.metrics_text_into(&mut out);
        b.metrics_text_into(&mut out);
        let t = out.finish();
        assert_eq!(t.matches("# HELP cpelide_cycles ").count(), 1);
        assert_eq!(t.matches("# TYPE cpelide_kernel_cycles ").count(), 1);
        assert!(t.contains("protocol=\"Baseline\""));
        assert!(t.contains("protocol=\"CPElide\""));
        chiplet_obs::prom::parse(&t).expect("combined exposition is valid");
    }

    #[test]
    fn display_is_informative() {
        let m = metrics("square", 123.0);
        let s = format!("{m}");
        assert!(s.contains("square"));
        assert!(s.contains("Baseline"));
    }
}
