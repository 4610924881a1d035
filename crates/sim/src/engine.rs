//! The execution engine: drives each workload's kernel launch sequence
//! through the CP (synchronization phase) and the memory system (execution
//! phase), producing [`RunMetrics`].
//!
//! Timing model (DESIGN.md §3): per kernel and per chiplet the engine sums
//! Table I service latencies over the chiplet's access trace, divides by
//! the workload's memory-level parallelism, and takes the maximum of that
//! and the compute time (GPUs overlap compute with memory). Kernel time is
//! the maximum over participating chiplets; concurrent streams' kernels
//! (disjoint chiplet bindings) overlap. Synchronization costs — tag walks,
//! bandwidth-limited dirty-line drains, CP round trips — are serialized
//! with execution, exactly the overhead CPElide exists to elide.
//!
//! The engine only computes timing; everything it records goes through
//! one `emit` of a typed [`SimEvent`] (the [`crate::event`] seam).

use crate::config::SimConfig;
use crate::event::{Boundary, KernelSpan, LinkWindow, Observer, RunRecorder, SimEvent, SyncOp};
use crate::metrics::RunMetrics;
use chiplet_coherence::{MemorySystem, ProtocolKind};
use chiplet_energy::EnergyCounts;
use chiplet_gpu::dispatch::{DispatchPlan, StaticPartitionScheduler};
use chiplet_gpu::stream::{KernelPacket, SoftwareQueue};
use chiplet_gpu::trace::TraceGenerator;
use chiplet_mem::addr::ChipletId;
use chiplet_mem::cache::CacheCore;
use chiplet_mem::SetAssocCache;
use chiplet_workloads::Workload;
use cpelide::api::KernelLaunchInfo;
use cpelide::cp::GlobalCp;

/// Fixed per-launch overhead every configuration pays (packet processing,
/// WG dispatch, L1 invalidation) in microseconds — the paper's 2 µs CP
/// latency.
const LAUNCH_OVERHEAD_US: f64 = 2.0;

/// The simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator for one configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs `workload` to completion and reports metrics, on the
    /// event-driven cache core ([`SetAssocCache`]).
    pub fn run(&self, workload: &Workload) -> RunMetrics {
        self.run_with::<SetAssocCache, ()>(workload, &mut ())
    }

    /// [`Self::run`], also handing every [`SimEvent`] to `observer`
    /// (a `Vec<SimEvent>` records them all).
    pub fn run_observed<O: Observer>(&self, workload: &Workload, observer: &mut O) -> RunMetrics {
        self.run_with::<SetAssocCache, O>(workload, observer)
    }

    /// Runs `workload` to completion on an explicit cache core `C`, handing
    /// every event to `observer`. Every core produces byte-identical
    /// [`RunMetrics`]; the engine differential test holds
    /// [`SetAssocCache`] to the per-line reference
    /// [`chiplet_mem::ScanCache`] this way.
    pub fn run_with<C: CacheCore, O: Observer>(
        &self,
        workload: &Workload,
        observer: &mut O,
    ) -> RunMetrics {
        let cfg = &self.config;
        let n = cfg.num_chiplets;
        let mut mem = MemorySystem::<C>::with_core(cfg.protocol, cfg.mem);
        let mut cp = global_cp(cfg);
        let tracegen = TraceGenerator::new(cfg.seed);
        let all_chiplets: Vec<ChipletId> = ChipletId::all(n).collect();

        let mut queue = SoftwareQueue::new();
        for l in workload.launches() {
            queue.enqueue(l.stream, l.spec.clone(), l.binding.clone());
        }

        let launch_cycles = cfg.us_to_cycles(LAUNCH_OVERHEAD_US);
        let mut recorder = RunRecorder::new(launch_cycles);
        let mut emit = |event: SimEvent| {
            recorder.observe(&event);
            observer.observe(&event);
        };
        let mut exec_cycles = 0.0f64;
        let mut sync_cycles = 0.0f64;
        let mut counts = EnergyCounts::default();
        let mut kernels_run = 0u64;
        let mut round = 0u32;
        let mut first_kernel = true;

        while !queue.is_empty() {
            let plans = plan_round(&mut queue, &all_chiplets);

            // ---- Synchronization phase (kernel boundary) ----
            let t0 = exec_cycles + sync_cycles;
            let op = |chiplet, cycles| SyncOp {
                round,
                chiplet,
                at: t0,
                cycles,
            };
            let round_remote_before = mem.traffic().remote_bytes();
            let mut round_sync = 0.0f64;
            // The CP-decision share of round_sync (exposed CP processing
            // and driver round trips), split out for the phase profile.
            let mut round_cp = 0.0f64;
            let mut round_cp_ops = 0u64;
            match cfg.protocol {
                ProtocolKind::Baseline if !first_kernel => {
                    // Conservative whole-GPU implicit acquire+release.
                    let mut op_max = 0.0f64;
                    for (chiplet, cost) in ChipletId::all(n).zip(mem.bulk_sync_all()) {
                        let cycles = cfg.sync.acquire_cycles(
                            cost.flush.local_lines,
                            cost.flush.remote_lines,
                            cost.invalidated_lines,
                            &cfg.link,
                        );
                        op_max = op_max.max(cycles);
                        emit(SimEvent::BulkSync(op(chiplet, cycles), cost));
                    }
                    round_sync += op_max;
                }
                ProtocolKind::CpElide => {
                    // chiplet-check: allow(no-panic) — constructed for this protocol above
                    let cp = cp.as_mut().expect("CPElide runs carry a global CP");
                    for (packet, plan) in &plans {
                        let info = KernelLaunchInfo::from_spec(
                            &packet.spec,
                            packet.id,
                            workload.arrays(),
                            plan,
                            n,
                        );
                        let decision = cp.launch_kernel(&info);
                        round_cp_ops += 1;
                        if decision.is_elided() {
                            emit(SimEvent::Elided {
                                round,
                                kernel: packet.id,
                                at: t0,
                            });
                        }
                        if first_kernel {
                            // The 2+6 µs CP processing is exposed only for
                            // the very first kernel (paper §IV-B).
                            let cyc = cfg.us_to_cycles(decision.cp_latency_us);
                            round_sync += cyc;
                            round_cp += cyc;
                        }
                        if cfg.driver_managed {
                            // §VI ablation: the driver must synchronously
                            // fetch the CP's WG placement before deciding —
                            // an exposed host round trip on every launch.
                            let cyc = cfg.us_to_cycles(cfg.driver_round_trip_us());
                            round_sync += cyc;
                            round_cp += cyc;
                        }
                        let mut op_max = 0.0f64;
                        for &chiplet in &decision.acquires {
                            let cost = mem.acquire(chiplet);
                            let cycles = cfg.sync.acquire_cycles(
                                cost.flush.local_lines,
                                cost.flush.remote_lines,
                                cost.invalidated_lines,
                                &cfg.link,
                            );
                            op_max = op_max.max(cycles);
                            emit(SimEvent::Acquire(op(chiplet, cycles), cost));
                        }
                        for &chiplet in &decision.releases {
                            let cost = mem.release(chiplet);
                            let cycles = cfg.sync.release_cycles(
                                cost.local_lines,
                                cost.remote_lines,
                                &cfg.link,
                            );
                            op_max = op_max.max(cycles);
                            emit(SimEvent::Release(op(chiplet, cycles), cost));
                        }
                        round_sync += op_max;
                    }
                }
                // HMG keeps L2s coherent continuously; monolithic GPUs'
                // shared L2 is the ordering point: neither performs bulk
                // L2 synchronization at kernel boundaries.
                _ => {}
            }
            round_sync *= f64::from(cfg.sync_replication);
            round_cp *= f64::from(cfg.sync_replication);
            emit(SimEvent::Boundary(Boundary {
                round,
                kernels: plans.len() as u32,
                at: t0,
                sync_cycles: round_sync,
                cp_cycles: round_cp,
                cp_ops: round_cp_ops,
            }));

            // ---- Execution phase ----
            let exec_start = t0 + round_sync;
            let mut round_exec = 0.0f64;
            for (packet, plan) in &plans {
                let spec = &packet.spec;
                for chiplet in plan.chiplets() {
                    let mut lat = 0.0f64;
                    let mut l1_acc = 0.0f64;
                    let mut events = 0u64;
                    let dir_remote_invals_before = mem.dir_remote_invalidations();
                    tracegen.for_each_event(
                        spec,
                        packet.id,
                        workload.arrays(),
                        plan,
                        chiplet,
                        |ev| {
                            events += 1;
                            if ev.write {
                                lat += cfg.latency.cost(mem.write(chiplet, ev.line));
                            } else {
                                l1_acc += spec.l1_hit_rate();
                                if l1_acc >= 1.0 {
                                    l1_acc -= 1.0;
                                    lat += cfg.latency.l1_hit;
                                } else {
                                    lat += cfg.latency.cost(mem.read(chiplet, ev.line));
                                }
                            }
                        },
                    );
                    counts.l1d_accesses += events;
                    counts.l1i_accesses += events;
                    counts.lds_accesses += (events as f64 * spec.lds_per_line()) as u64;
                    // Directory evictions caused by this chiplet's accesses
                    // stall them while remote sharers are invalidated
                    // (HMG only).
                    lat += (mem.dir_remote_invalidations() - dir_remote_invals_before) as f64
                        * cfg.latency.dir_eviction_penalty;
                    let compute = events as f64 * spec.compute_per_line() / cfg.compute_scale;
                    let mem_time = lat / (spec.mlp() * cfg.compute_scale);
                    let cycles = compute.max(mem_time);
                    round_exec = round_exec.max(cycles);
                    emit(SimEvent::Kernel(KernelSpan {
                        kernel: packet.id,
                        stream: packet.stream.get(),
                        chiplet,
                        at: exec_start,
                        cycles,
                        accesses: events,
                    }));
                }
            }
            // The round's inter-chiplet transfers (boundary drains plus
            // remote accesses during execution) occupy the link for a
            // bandwidth-limited busy window.
            let bytes = mem.traffic().remote_bytes() - round_remote_before;
            emit(SimEvent::LinkBusy(LinkWindow {
                at: t0,
                bytes,
                cycles: bytes as f64 / cfg.link.bytes_per_cycle,
                window: Some(round_sync + round_exec + launch_cycles),
            }));

            exec_cycles += round_exec + launch_cycles;
            sync_cycles += round_sync;
            kernels_run += plans.len() as u64;
            round += 1;
            first_kernel = false;
        }

        // End-of-program drain: dirty data must reach memory. CPElide
        // "elides all flushes and invalidations except the final ones".
        let t_final = exec_cycles + sync_cycles;
        let final_remote_before = mem.traffic().remote_bytes();
        let mut final_max = 0.0f64;
        for chiplet in ChipletId::all(n) {
            let cost = mem.release(chiplet);
            if cost.total_lines() > 0 {
                let cycles =
                    cfg.sync
                        .release_cycles(cost.local_lines, cost.remote_lines, &cfg.link);
                final_max = final_max.max(cycles);
                let op = SyncOp {
                    round,
                    chiplet,
                    at: t_final,
                    cycles,
                };
                emit(SimEvent::FinalDrain(op, cost));
            }
        }
        sync_cycles += final_max;
        let bytes = mem.traffic().remote_bytes() - final_remote_before;
        emit(SimEvent::LinkBusy(LinkWindow {
            at: t_final,
            bytes,
            cycles: bytes as f64 / cfg.link.bytes_per_cycle,
            window: None,
        }));
        recorder.finish();

        // ---- Assemble metrics ----
        let l2 = mem.l2_stats_total();
        let l3 = mem.l3_stats();
        counts.l2_accesses = l2.accesses() + l2.flush_writebacks;
        counts.l3_accesses = l3.accesses();
        counts.dram_accesses = mem.hbm().total_accesses();
        counts.add_traffic(mem.traffic());
        let energy = cfg.energy.evaluate(&counts);

        let mut sync = recorder.sync;
        sync.remote_bytes = mem.traffic().remote_bytes();
        let audit = cp.as_ref().and_then(|cp| cp.auditor().cloned());
        let table = cp.map(|cp| cp.table_stats());
        if let Some(t) = &table {
            sync.acquires_elided = t.acquires_elided;
            sync.releases_elided = t.releases_elided;
        }

        RunMetrics {
            workload: workload.name().to_owned(),
            protocol: cfg.protocol,
            chiplets: n,
            equivalent_chiplets: (n as f64 * cfg.compute_scale).round() as usize,
            cycles: exec_cycles + sync_cycles,
            exec_cycles,
            sync_cycles,
            kernels: kernels_run,
            traffic: mem.traffic(),
            energy_counts: counts,
            energy,
            l2,
            l3,
            dram_accesses: mem.hbm().total_accesses(),
            table,
            sync_ops: recorder.sync_ops,
            flushed_lines: sync.flushed_lines,
            sync,
            hist: recorder.hist,
            phases: recorder.phases,
            link_util: recorder.link_util,
            audit,
        }
    }
}

/// The global CP a `cfg` run carries: CPElide only, and always with the
/// CCT audit (a correctness check).
pub(crate) fn global_cp(cfg: &SimConfig) -> Option<GlobalCp> {
    (cfg.protocol == ProtocolKind::CpElide).then(|| {
        let mut cp = GlobalCp::with_table_capacity(cfg.num_chiplets, cfg.table_capacity);
        cp.enable_audit(false);
        cp
    })
}

/// Takes the queue's next round and plans each launch on its clamped
/// binding ([`effective_binding`]): the schedule the engine, the
/// coherence oracle and `chiplet-check`'s elision oracle share.
pub fn plan_round(
    queue: &mut SoftwareQueue,
    all_chiplets: &[ChipletId],
) -> Vec<(KernelPacket, DispatchPlan)> {
    let scheduler = StaticPartitionScheduler::new();
    queue
        .next_round()
        .into_iter()
        .map(|p| {
            let plan = scheduler.plan(
                &p.spec,
                &effective_binding(&p, all_chiplets, all_chiplets.len()),
            );
            (p, plan)
        })
        .collect()
}

/// Clamps a packet's stream binding to the simulated system, falling
/// back to all chiplets when the binding is absent or entirely out of
/// range (e.g. a 4-chiplet multi-stream workload run on 2 chiplets).
///
/// Public so tools that replay the engine's dispatch outside
/// [`plan_round`] (the benchmark's layer replay) clamp bindings the same
/// way.
pub fn effective_binding(
    packet: &KernelPacket,
    all_chiplets: &[ChipletId],
    num_chiplets: usize,
) -> Vec<ChipletId> {
    match &packet.binding {
        None => all_chiplets.to_vec(),
        Some(b) => {
            let clamped: Vec<ChipletId> = b
                .iter()
                .copied()
                .filter(|c| c.index() < num_chiplets)
                .collect();
            if clamped.is_empty() {
                all_chiplets.to_vec()
            } else {
                clamped
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::SimPhase;

    fn run(name: &str, protocol: ProtocolKind, chiplets: usize) -> RunMetrics {
        let w = chiplet_workloads::lookup(name).unwrap_or_else(|e| panic!("{e}"));
        Simulator::new(SimConfig::table1(chiplets, protocol)).run(&w)
    }

    #[test]
    fn square_cpelide_beats_baseline() {
        let base = run("square", ProtocolKind::Baseline, 4);
        let cpe = run("square", ProtocolKind::CpElide, 4);
        assert!(
            cpe.cycles < base.cycles,
            "CPElide {} !< Baseline {}",
            cpe.cycles,
            base.cycles
        );
        assert!(cpe.l2_hit_rate() > base.l2_hit_rate());
    }

    #[test]
    fn square_cpelide_elides_all_but_final_sync() {
        let cpe = run("square", ProtocolKind::CpElide, 4);
        let table = cpe.table.expect("CPElide exposes table stats");
        assert_eq!(table.acquires_issued, 0, "no cross-chiplet dependence");
        assert_eq!(table.releases_issued, 0);
        assert!(table.releases_elided > 0);
        // Final drain only.
        assert_eq!(cpe.sync_ops, 4);
    }

    #[test]
    fn baseline_syncs_every_boundary() {
        let base = run("square", ProtocolKind::Baseline, 4);
        // 20 kernels -> 19 boundaries x 4 chiplets + final drain.
        assert!(base.sync_ops >= 19 * 4);
        assert!(base.sync_cycles > 0.0);
    }

    #[test]
    fn monolithic_is_fastest_on_reuse_workloads() {
        let base = run("square", ProtocolKind::Baseline, 4);
        let mono = run("square", ProtocolKind::Monolithic, 4);
        assert_eq!(mono.chiplets, 1);
        assert_eq!(mono.equivalent_chiplets, 4);
        assert!(mono.cycles < base.cycles);
        assert_eq!(mono.traffic.remote, 0);
    }

    #[test]
    fn hmg_generates_more_l2_l3_traffic_than_cpelide_on_streaming() {
        let hmg = run("square", ProtocolKind::Hmg, 4);
        let cpe = run("square", ProtocolKind::CpElide, 4);
        assert!(
            hmg.traffic.l2_l3 > cpe.traffic.l2_l3,
            "write-through must inflate L2-L3 traffic: HMG {} vs CPElide {}",
            hmg.traffic.l2_l3,
            cpe.traffic.l2_l3
        );
    }

    #[test]
    fn low_reuse_apps_see_no_cpelide_penalty() {
        let base = run("btree", ProtocolKind::Baseline, 4);
        let cpe = run("btree", ProtocolKind::CpElide, 4);
        let ratio = cpe.cycles / base.cycles;
        assert!(ratio < 1.05, "CPElide must not hurt btree: ratio {ratio}");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run("bfs", ProtocolKind::CpElide, 4);
        let b = run("bfs", ProtocolKind::CpElide, 4);
        assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.dram_accesses, b.dram_accesses);
    }

    #[test]
    fn multi_stream_workload_runs_on_bound_chiplets() {
        let w = chiplet_workloads::lookup("streams").unwrap_or_else(|e| panic!("{e}"));
        let m = Simulator::new(SimConfig::table1(4, ProtocolKind::CpElide)).run(&w);
        assert_eq!(m.kernels, 40);
        assert!(m.cycles > 0.0);
    }

    #[test]
    fn sync_counters_agree_with_table_stats() {
        let cpe = run("bfs", ProtocolKind::CpElide, 4);
        let table = cpe.table.expect("CPElide exposes table stats");
        assert_eq!(cpe.sync.acquires_elided, table.acquires_elided);
        assert_eq!(cpe.sync.releases_elided, table.releases_elided);
        // Every performed acquire was one the table issued; releases also
        // include the end-of-program drain.
        assert_eq!(cpe.sync.acquires_performed, table.acquires_issued);
        assert!(cpe.sync.releases_performed >= table.releases_issued);
        assert_eq!(
            cpe.sync_ops,
            cpe.sync.acquires_performed + cpe.sync.releases_performed
        );
        assert_eq!(cpe.sync.flushed_lines, cpe.flushed_lines);
        assert_eq!(cpe.sync.remote_bytes, cpe.traffic.remote_bytes());
    }

    #[test]
    fn baseline_counts_fused_sync_per_boundary() {
        let base = run("square", ProtocolKind::Baseline, 4);
        // 20 kernels -> 19 boundaries x 4 chiplets, plus the final drain
        // (releases only).
        assert_eq!(base.sync.acquires_performed, 19 * 4);
        assert!(base.sync.releases_performed >= 19 * 4);
        assert_eq!(base.sync.acquires_elided, 0);
        assert_eq!(base.sync.releases_elided, 0);
    }

    fn observed(
        name: &str,
        protocol: ProtocolKind,
        chiplets: usize,
    ) -> (RunMetrics, Vec<SimEvent>) {
        let w = chiplet_workloads::lookup(name).unwrap_or_else(|e| panic!("{e}"));
        let mut events = Vec::new();
        let m = Simulator::new(SimConfig::table1(chiplets, protocol)).run_observed(&w, &mut events);
        (m, events)
    }

    #[test]
    fn observed_events_reconcile_with_the_counters() {
        for (name, protocol) in [
            ("square", ProtocolKind::Baseline),
            ("bfs", ProtocolKind::Baseline),
            ("bfs", ProtocolKind::CpElide),
            ("bfs", ProtocolKind::Hmg),
        ] {
            let (m, events) = observed(name, protocol, 4);
            let (mut acquires, mut releases, mut bulk, mut boundaries) = (0, 0, 0, 0);
            let (mut flushed, mut invalidated) = (0, 0);
            for e in &events {
                match *e {
                    SimEvent::Acquire(_, cost) => {
                        acquires += 1;
                        flushed += cost.flush.local_lines + cost.flush.remote_lines;
                        invalidated += cost.invalidated_lines;
                    }
                    SimEvent::BulkSync(_, cost) => {
                        bulk += 1;
                        flushed += cost.flush.local_lines + cost.flush.remote_lines;
                        invalidated += cost.invalidated_lines;
                    }
                    SimEvent::Release(_, cost) | SimEvent::FinalDrain(_, cost) => {
                        releases += 1;
                        flushed += cost.local_lines + cost.remote_lines;
                    }
                    SimEvent::Boundary(_) => boundaries += 1,
                    SimEvent::Elided { .. } | SimEvent::Kernel(_) | SimEvent::LinkBusy(_) => {}
                }
            }
            let ctx = format!("{name} {protocol:?}");
            // A bulk sync is a fused release+acquire.
            assert_eq!(acquires + bulk, m.sync.acquires_performed, "{ctx}");
            assert_eq!(releases + bulk, m.sync.releases_performed, "{ctx}");
            assert_eq!(acquires + releases + bulk, m.sync_ops, "{ctx}");
            assert_eq!(flushed, m.sync.flushed_lines, "{ctx}");
            assert_eq!(flushed, m.flushed_lines, "{ctx}");
            assert_eq!(invalidated, m.sync.invalidated_lines, "{ctx}");
            if protocol == ProtocolKind::Baseline {
                assert_eq!(
                    bulk,
                    (m.kernels - 1) * 4,
                    "{ctx}: one bulk sync per chiplet per later round"
                );
            } else {
                assert_eq!(bulk, 0, "{ctx}");
            }
            if name == "square" {
                assert_eq!(
                    boundaries, m.kernels,
                    "one boundary per single-stream round"
                );
            }
        }
        // bfs under CPElide acquires, so its reconciliation is not vacuous.
        let (m, _) = observed("bfs", ProtocolKind::CpElide, 4);
        assert!(m.sync.acquires_performed > 0);
    }

    #[test]
    fn observing_a_run_does_not_change_it() {
        for protocol in [
            ProtocolKind::Baseline,
            ProtocolKind::CpElide,
            ProtocolKind::Hmg,
        ] {
            let (m, events) = observed("bfs", protocol, 4);
            let quiet = run("bfs", protocol, 4);
            assert!(!events.is_empty());
            assert_eq!(
                m.to_json().render(),
                quiet.to_json().render(),
                "{protocol:?}"
            );
            assert_eq!(m.metrics_text(), quiet.metrics_text(), "{protocol:?}");
        }
    }

    #[test]
    fn timeline_is_valid_balanced_perfetto_json() {
        for protocol in [ProtocolKind::Baseline, ProtocolKind::CpElide] {
            let w = chiplet_workloads::lookup("square").unwrap_or_else(|e| panic!("{e}"));
            let sim = Simulator::new(SimConfig::table1(4, protocol));
            let mut events = Vec::new();
            sim.run_observed(&w, &mut events);
            let trace = crate::event::timeline(&events, sim.config(), &w);
            trace.balanced().expect("B/E spans pair up");
            // Every chiplet hosts at least one event.
            for c in 0..4u32 {
                assert!(
                    trace.events().iter().any(|e| e.pid == c),
                    "no events on chiplet {c} under {protocol:?}"
                );
            }
            // Golden category set: every event belongs to one of the three
            // documented tracks, and both phases of the pipeline show up.
            let cats: std::collections::BTreeSet<&str> =
                trace.events().iter().map(|e| e.cat).collect();
            assert!(cats.contains("kernel"), "kernel spans present");
            assert!(cats.contains("sync"), "sync events present");
            assert!(
                cats.iter().all(|c| ["kernel", "sync", "noc"].contains(c)),
                "unexpected categories: {cats:?}"
            );
            let json = trace.to_chrome_json();
            chiplet_harness::json::parse(&json).expect("trace JSON validates");
            assert!(json.contains("\"process_name\""));
            assert!(json.contains("chiplet 0"));
        }
    }

    #[test]
    fn events_distinguish_sync_styles() {
        let (_, base) = observed("bfs", ProtocolKind::Baseline, 4);
        assert!(
            base.iter().any(|e| matches!(e, SimEvent::BulkSync(..))),
            "baseline pays bulk syncs"
        );
        let (_, cpe) = observed("bfs", ProtocolKind::CpElide, 4);
        assert!(
            cpe.iter().any(|e| matches!(e, SimEvent::Elided { .. })),
            "CPElide elides boundaries"
        );
        assert!(
            cpe.iter().any(|e| matches!(e, SimEvent::FinalDrain(..))),
            "the end-of-program drain is observed"
        );
        assert!(!cpe.iter().any(|e| matches!(e, SimEvent::BulkSync(..))));
    }

    #[test]
    fn cct_audit_runs_clean_on_cpelide() {
        let cpe = run("bfs", ProtocolKind::CpElide, 4);
        let audit = cpe.audit.expect("CPElide runs are always audited");
        assert!(audit.transitions() > 0, "launches drive CCT transitions");
        assert_eq!(audit.violations(), 0, "legal runs never trip the auditor");
        assert!(audit.summary_text().contains("0 violations"));

        let base = run("bfs", ProtocolKind::Baseline, 4);
        assert!(base.audit.is_none(), "no CCT to audit outside CPElide");
    }

    #[test]
    fn histograms_cover_kernels_and_boundaries() {
        let m = run("square", ProtocolKind::Baseline, 4);
        assert_eq!(m.hist.kernel_cycles.count(), m.kernels);
        // One stall sample per round plus the final drain.
        assert_eq!(m.hist.boundary_stall_cycles.count(), m.kernels + 1);
        assert!(m.hist.kernel_cycles.p50() > 0);
        assert!(
            m.hist.boundary_stall_cycles.p99() >= m.hist.boundary_stall_cycles.p50(),
            "percentiles are monotone"
        );
        // Link occupancy is sampled once per boundary either way; whether
        // the drains actually crossed the link depends on line homing.
        assert_eq!(m.hist.link_busy_permille.count(), m.kernels);

        let bfs = run("bfs", ProtocolKind::Baseline, 4);
        assert!(
            bfs.link_util.busy_cycles() > 0,
            "irregular writes leave remote-homed dirty lines to drain"
        );
        assert!(bfs.link_util.utilization(bfs.cycles as u64) > 0.0);
    }

    #[test]
    fn phase_profile_accounts_for_every_cycle() {
        for protocol in [
            ProtocolKind::Baseline,
            ProtocolKind::CpElide,
            ProtocolKind::Hmg,
        ] {
            let m = run("square", protocol, 4);
            let total = m.phases.total_cycles();
            assert!(
                (total - m.cycles).abs() <= 1e-6 * m.cycles.max(1.0),
                "{protocol:?}: phases sum to {total}, run reports {}",
                m.cycles
            );
            // Placement: one fixed overhead per round, one op per kernel.
            assert_eq!(m.phases.get(SimPhase::Placement).ops, m.kernels);
            assert!(m.phases.get(SimPhase::AccessReplay).cycles > 0.0);
            assert!(m.phases.get(SimPhase::AccessReplay).ops > 0);
        }
    }

    #[test]
    fn phase_profile_separates_protocol_costs() {
        let base = run("square", ProtocolKind::Baseline, 4);
        let cpe = run("square", ProtocolKind::CpElide, 4);
        // Only CPElide makes CP decisions; one per kernel launch.
        assert_eq!(base.phases.get(SimPhase::CpDecision).ops, 0);
        assert_eq!(cpe.phases.get(SimPhase::CpDecision).ops, cpe.kernels);
        // The baseline drains at every boundary; square's CPElide run
        // elides all of them, leaving only the final drain.
        assert!(
            base.phases.get(SimPhase::BoundaryDrain).cycles
                > cpe.phases.get(SimPhase::BoundaryDrain).cycles
        );
        assert_eq!(cpe.phases.get(SimPhase::FinalDrain).ops, 4);
        assert!(cpe.phases.get(SimPhase::FinalDrain).cycles > 0.0);
        // The boundary-drain ops counter tracks the sync-op ledger minus
        // the final drain.
        let base_boundary_ops = base.phases.get(SimPhase::BoundaryDrain).ops;
        let base_final_ops = base.phases.get(SimPhase::FinalDrain).ops;
        assert_eq!(base_boundary_ops + base_final_ops, base.sync_ops);
    }

    #[test]
    fn table_never_overflows_on_suite_member() {
        let m = run("srad_v2", ProtocolKind::CpElide, 4);
        let t = m.table.unwrap();
        assert!(t.max_live_entries <= 64);
        assert_eq!(t.evictions, 0);
    }
}
