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

use crate::config::SimConfig;
use crate::metrics::{RunHistograms, RunMetrics, SyncCounters};
use crate::phase::{PhaseProfile, SimPhase};
use chiplet_coherence::{MemorySystem, ProtocolKind};
use chiplet_energy::EnergyCounts;
use chiplet_gpu::dispatch::{DispatchPlan, StaticPartitionScheduler};
use chiplet_gpu::kernel::KernelId;
use chiplet_gpu::stream::{KernelPacket, SoftwareQueue};
use chiplet_gpu::trace::TraceGenerator;
use chiplet_harness::obs::EventLog;
use chiplet_mem::addr::ChipletId;
use chiplet_mem::cache::CacheCore;
use chiplet_mem::SetAssocCache;
use chiplet_noc::link::LinkUtilization;
use chiplet_obs::Tracer;
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
        self.run_with::<SetAssocCache>(workload)
    }

    /// Runs `workload` to completion on an explicit cache core `C`. Every
    /// core produces byte-identical [`RunMetrics`]; the engine
    /// differential test holds [`SetAssocCache`] to the per-line
    /// reference [`chiplet_mem::ScanCache`] this way.
    pub fn run_with<C: CacheCore>(&self, workload: &Workload) -> RunMetrics {
        let cfg = &self.config;
        let n = cfg.num_chiplets;
        let mut mem = MemorySystem::<C>::with_core(cfg.protocol, cfg.mem);
        if cfg.record_events {
            mem.enable_event_log();
        }
        let mut cp = (cfg.protocol == ProtocolKind::CpElide)
            .then(|| GlobalCp::with_table_capacity(n, cfg.table_capacity));
        if cfg.audit_cct {
            if let Some(cp) = cp.as_mut() {
                cp.enable_audit(false);
            }
        }
        let tracegen = TraceGenerator::new(cfg.seed);
        let scheduler = StaticPartitionScheduler::new();
        let all_chiplets: Vec<ChipletId> = ChipletId::all(n).collect();

        let mut queue = SoftwareQueue::new();
        for l in workload.launches() {
            queue.enqueue(l.stream, l.spec.clone(), l.binding.clone());
        }

        let mut exec_cycles = 0.0f64;
        let mut sync_cycles = 0.0f64;
        let mut counts = EnergyCounts::default();
        let mut kernels_run = 0u64;
        let mut sync_ops = 0u64;
        let mut flushed_lines = 0u64;
        let mut sync = SyncCounters::default();
        let mut evlog = if cfg.record_events {
            EventLog::new()
        } else {
            EventLog::disabled()
        };
        let mut round_idx = 0u64;
        let mut first_kernel = true;
        let mut hist = RunHistograms::new();
        let mut link_util = LinkUtilization::new();
        let mut phases = PhaseProfile::new();

        // Timeline tracks: one process per chiplet, plus pseudo-processes
        // for the global CP (sync decisions) and the inter-chiplet link
        // (drain busy windows). Timestamps are simulated microseconds.
        let mut tracer = if cfg.record_trace {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        let cp_pid = n as u32;
        let noc_pid = n as u32 + 1;
        if tracer.is_enabled() {
            for c in 0..n {
                tracer.name_process(c as u32, format!("chiplet {c}"));
            }
            tracer.name_process(cp_pid, "command processor");
            tracer.name_process(noc_pid, "inter-chiplet link");
            let mut streams: Vec<u32> =
                workload.launches().iter().map(|l| l.stream.get()).collect();
            streams.sort_unstable();
            streams.dedup();
            for c in 0..n as u32 {
                for &s in &streams {
                    tracer.name_thread(c, s, format!("stream {s}"));
                }
            }
        }

        while !queue.is_empty() {
            let round = queue.next_round();
            let plans: Vec<(KernelPacket, DispatchPlan)> = round
                .into_iter()
                .map(|p| {
                    let chiplets = effective_binding(&p, &all_chiplets, self.config.num_chiplets);
                    let plan = scheduler.plan(&p.spec, &chiplets);
                    (p, plan)
                })
                .collect();

            // ---- Synchronization phase (kernel boundary) ----
            let round_acq = sync.acquires_performed;
            let round_rel = sync.releases_performed;
            let round_flushed = flushed_lines;
            let round_inval = sync.invalidated_lines;
            let t0 = exec_cycles + sync_cycles;
            let round_remote_before = mem.traffic().remote_bytes();
            let round_ops = sync_ops;
            let mut round_sync = 0.0f64;
            // The CP-decision share of round_sync (exposed CP processing
            // and driver round trips), split out for the phase profile.
            let mut round_cp = 0.0f64;
            let mut round_cp_ops = 0u64;
            match cfg.protocol {
                ProtocolKind::Baseline if !first_kernel => {
                    // Conservative whole-GPU implicit acquire+release.
                    let costs = mem.bulk_sync_all();
                    sync_ops += costs.len() as u64;
                    // A bulk op is a fused release+acquire on each chiplet.
                    sync.acquires_performed += costs.len() as u64;
                    sync.releases_performed += costs.len() as u64;
                    let mut op_max = 0.0f64;
                    for (ci, a) in costs.iter().enumerate() {
                        flushed_lines += a.flush.total_lines();
                        sync.invalidated_lines += a.invalidated_lines;
                        // Per-chiplet sync op for the elision oracle's
                        // differential replay (a bulk op is a fused
                        // release+acquire on `chiplet`).
                        evlog.record(
                            "bulk_sync",
                            vec![("round", round_idx as f64), ("chiplet", ci as f64)],
                        );
                        let cyc = cfg.sync.acquire_cycles(
                            a.flush.local_lines,
                            a.flush.remote_lines,
                            a.invalidated_lines,
                            &cfg.link,
                        );
                        op_max = op_max.max(cyc);
                        tracer.complete(
                            "bulk_sync",
                            "sync",
                            cfg.cycles_to_us(t0),
                            cfg.cycles_to_us(cyc),
                            ci as u32,
                            0,
                            vec![
                                ("flushed_lines", a.flush.total_lines() as f64),
                                ("invalidated_lines", a.invalidated_lines as f64),
                            ],
                        );
                    }
                    round_sync += op_max;
                }
                ProtocolKind::CpElide => {
                    // chiplet-check: allow(no-panic) — constructed for this protocol above
                    let cp = cp.as_mut().expect("CPElide runs carry a global CP");
                    for (packet, plan) in &plans {
                        let info = KernelLaunchInfo::from_spec(
                            &packet.spec,
                            KernelId::new(packet.id.get()),
                            workload.arrays(),
                            plan,
                            n,
                        );
                        let decision = cp.launch_kernel(&info);
                        round_cp_ops += 1;
                        if decision.is_elided() {
                            tracer.instant(
                                "sync_elided",
                                "sync",
                                cfg.cycles_to_us(t0),
                                cp_pid,
                                0,
                                vec![("kernel", packet.id.get() as f64)],
                            );
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
                        for &c in &decision.acquires {
                            let a = mem.acquire(c);
                            flushed_lines += a.flush.total_lines();
                            sync.invalidated_lines += a.invalidated_lines;
                            sync.acquires_performed += 1;
                            sync_ops += 1;
                            evlog.record(
                                "acquire",
                                vec![("round", round_idx as f64), ("chiplet", c.index() as f64)],
                            );
                            let cyc = cfg.sync.acquire_cycles(
                                a.flush.local_lines,
                                a.flush.remote_lines,
                                a.invalidated_lines,
                                &cfg.link,
                            );
                            op_max = op_max.max(cyc);
                            tracer.complete(
                                "acquire",
                                "sync",
                                cfg.cycles_to_us(t0),
                                cfg.cycles_to_us(cyc),
                                c.index() as u32,
                                0,
                                vec![
                                    ("flushed_lines", a.flush.total_lines() as f64),
                                    ("invalidated_lines", a.invalidated_lines as f64),
                                ],
                            );
                        }
                        for &c in &decision.releases {
                            let r = mem.release(c);
                            flushed_lines += r.total_lines();
                            sync.releases_performed += 1;
                            sync_ops += 1;
                            evlog.record(
                                "release",
                                vec![("round", round_idx as f64), ("chiplet", c.index() as f64)],
                            );
                            let cyc =
                                cfg.sync
                                    .release_cycles(r.local_lines, r.remote_lines, &cfg.link);
                            op_max = op_max.max(cyc);
                            tracer.complete(
                                "release",
                                "sync",
                                cfg.cycles_to_us(t0),
                                cfg.cycles_to_us(cyc),
                                c.index() as u32,
                                0,
                                vec![("flushed_lines", r.total_lines() as f64)],
                            );
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
            phases.record(SimPhase::CpDecision, round_cp, round_cp_ops);
            phases.record(
                SimPhase::BoundaryDrain,
                round_sync - round_cp,
                sync_ops - round_ops,
            );
            let delta_flushed = flushed_lines - round_flushed;
            let delta_inval = sync.invalidated_lines - round_inval;
            evlog.record(
                "kernel_boundary",
                vec![
                    ("round", round_idx as f64),
                    ("kernels", plans.len() as f64),
                    ("acquires", (sync.acquires_performed - round_acq) as f64),
                    ("releases", (sync.releases_performed - round_rel) as f64),
                    ("flushed_lines", delta_flushed as f64),
                    ("invalidated_lines", delta_inval as f64),
                    ("sync_cycles", round_sync),
                ],
            );
            hist.boundary_stall_cycles.observe_f64(round_sync);
            hist.boundary_flushed_lines.observe(delta_flushed);
            hist.boundary_invalidated_lines.observe(delta_inval);
            tracer.counter(
                "boundary_lines",
                "sync",
                cfg.cycles_to_us(t0),
                cp_pid,
                vec![
                    ("flushed", delta_flushed as f64),
                    ("invalidated", delta_inval as f64),
                ],
            );

            // ---- Execution phase ----
            let exec_start = t0 + round_sync;
            let mut round_exec = 0.0f64;
            let mut round_events = 0u64;
            for (packet, plan) in &plans {
                let spec = &packet.spec;
                let mut packet_time = 0.0f64;
                for chiplet in plan.chiplets() {
                    let mut lat = 0.0f64;
                    let mut l1_acc = 0.0f64;
                    let mut events = 0u64;
                    let dir_remote_invals_before = mem.dir_remote_invalidations();
                    tracegen.for_each_event(
                        spec,
                        KernelId::new(packet.id.get()),
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
                    round_events += events;
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
                    let chiplet_time = compute.max(mem_time);
                    packet_time = packet_time.max(chiplet_time);
                    if tracer.is_enabled() {
                        let tid = packet.stream.get();
                        let pid = chiplet.index() as u32;
                        tracer.begin(
                            spec.name(),
                            "kernel",
                            cfg.cycles_to_us(exec_start),
                            pid,
                            tid,
                        );
                        tracer.end(
                            spec.name(),
                            "kernel",
                            cfg.cycles_to_us(exec_start + chiplet_time),
                            pid,
                            tid,
                        );
                    }
                }
                hist.kernel_cycles.observe_f64(packet_time);
                round_exec = round_exec.max(packet_time);
            }
            // The round's inter-chiplet transfers (boundary drains plus
            // remote accesses during execution) occupy the link for a
            // bandwidth-limited busy window.
            let round_link_bytes = mem.traffic().remote_bytes() - round_remote_before;
            let round_total = round_sync + round_exec + cfg.us_to_cycles(LAUNCH_OVERHEAD_US);
            if round_link_bytes > 0 {
                let busy = round_link_bytes as f64 / cfg.link.bytes_per_cycle;
                link_util.record(round_link_bytes, busy.round() as u64);
                tracer.complete(
                    "link_busy",
                    "noc",
                    cfg.cycles_to_us(t0),
                    cfg.cycles_to_us(busy),
                    noc_pid,
                    0,
                    vec![("bytes", round_link_bytes as f64)],
                );
                hist.link_busy_permille
                    .observe_f64(1000.0 * (busy / round_total).min(1.0));
            } else {
                hist.link_busy_permille.observe(0);
            }

            phases.record(SimPhase::AccessReplay, round_exec, round_events);
            phases.record(
                SimPhase::Placement,
                cfg.us_to_cycles(LAUNCH_OVERHEAD_US),
                plans.len() as u64,
            );
            exec_cycles += round_exec + cfg.us_to_cycles(LAUNCH_OVERHEAD_US);
            sync_cycles += round_sync;
            kernels_run += plans.len() as u64;
            round_idx += 1;
            first_kernel = false;
        }

        // End-of-program drain: dirty data must reach memory. CPElide
        // "elides all flushes and invalidations except the final ones".
        let t_final = exec_cycles + sync_cycles;
        let final_remote_before = mem.traffic().remote_bytes();
        let final_ops_before = sync_ops;
        let mut final_max = 0.0f64;
        let mut drained_lines = 0u64;
        for c in ChipletId::all(n) {
            let r = mem.release(c);
            if r.total_lines() > 0 {
                sync_ops += 1;
                sync.releases_performed += 1;
                flushed_lines += r.total_lines();
                drained_lines += r.total_lines();
                // `round` is one past the last boundary: drain releases
                // are end-of-program, not a kernel-boundary decision.
                evlog.record(
                    "release",
                    vec![("round", round_idx as f64), ("chiplet", c.index() as f64)],
                );
                let cyc = cfg
                    .sync
                    .release_cycles(r.local_lines, r.remote_lines, &cfg.link);
                final_max = final_max.max(cyc);
                tracer.complete(
                    "final_drain",
                    "sync",
                    cfg.cycles_to_us(t_final),
                    cfg.cycles_to_us(cyc),
                    c.index() as u32,
                    0,
                    vec![("flushed_lines", r.total_lines() as f64)],
                );
            }
        }
        sync_cycles += final_max;
        phases.record(SimPhase::FinalDrain, final_max, sync_ops - final_ops_before);
        hist.boundary_stall_cycles.observe_f64(final_max);
        hist.boundary_flushed_lines.observe(drained_lines);
        let final_link_bytes = mem.traffic().remote_bytes() - final_remote_before;
        if final_link_bytes > 0 {
            let busy = final_link_bytes as f64 / cfg.link.bytes_per_cycle;
            link_util.record(final_link_bytes, busy.round() as u64);
            tracer.complete(
                "link_busy",
                "noc",
                cfg.cycles_to_us(t_final),
                cfg.cycles_to_us(busy),
                noc_pid,
                0,
                vec![("bytes", final_link_bytes as f64)],
            );
        }
        evlog.record(
            "final_drain",
            vec![
                ("flushed_lines", drained_lines as f64),
                ("sync_cycles", final_max),
            ],
        );

        // ---- Assemble metrics ----
        let l2 = mem.l2_stats_total();
        let l3 = mem.l3_stats();
        counts.l2_accesses = l2.accesses() + l2.flush_writebacks;
        counts.l3_accesses = l3.accesses();
        counts.dram_accesses = mem.hbm().total_accesses();
        counts.add_traffic(mem.traffic());
        let energy = cfg.energy.evaluate(&counts);

        sync.flushed_lines = flushed_lines;
        sync.remote_bytes = mem.traffic().remote_bytes();
        let audit = cp.as_ref().and_then(|cp| cp.auditor().cloned());
        let table = cp.map(|cp| cp.table_stats());
        if let Some(t) = &table {
            sync.acquires_elided = t.acquires_elided;
            sync.releases_elided = t.releases_elided;
        }
        evlog.extend(mem.events());

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
            sync_ops,
            flushed_lines,
            sync,
            events: evlog,
            hist,
            phases,
            link_util,
            audit,
            trace: tracer,
        }
    }
}

/// Clamps a packet's stream binding to the simulated system, falling
/// back to all chiplets when the binding is absent or entirely out of
/// range (e.g. a 4-chiplet multi-stream workload run on 2 chiplets).
///
/// Public so static analysis (the elision oracle in `chiplet-check`) can
/// reconstruct the engine's dispatch decisions exactly instead of
/// maintaining a drifting mirror.
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
    use crate::config::SimConfig;

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

    #[test]
    fn record_events_yields_boundary_log() {
        let w = chiplet_workloads::lookup("square").unwrap_or_else(|e| panic!("{e}"));
        let mut cfg = SimConfig::table1(4, ProtocolKind::CpElide);
        cfg.record_events = true;
        let m = Simulator::new(cfg).run(&w);
        let boundaries = m
            .events
            .events()
            .iter()
            .filter(|e| e.label == "kernel_boundary")
            .count() as u64;
        assert_eq!(boundaries, m.kernels, "one boundary event per round");
        assert!(m.events.events().iter().any(|e| e.label == "final_drain"));
        // The memory system's per-operation log rides along.
        assert!(m.events.events().iter().any(|e| e.label == "l2_release"));
        // Per-chiplet sync ops are logged individually, and their counts
        // reconcile with the aggregate counters.
        let acq = m
            .events
            .events()
            .iter()
            .filter(|e| e.label == "acquire")
            .count() as u64;
        let rel = m
            .events
            .events()
            .iter()
            .filter(|e| e.label == "release")
            .count() as u64;
        assert_eq!(acq, m.sync.acquires_performed);
        assert_eq!(rel, m.sync.releases_performed);

        // Baseline logs one fused bulk_sync per chiplet per non-first
        // round, each carrying (round, chiplet) fields.
        let mut bcfg = SimConfig::table1(4, ProtocolKind::Baseline);
        bcfg.record_events = true;
        let b = Simulator::new(bcfg).run(&w);
        let bulk: Vec<_> = b
            .events
            .events()
            .iter()
            .filter(|e| e.label == "bulk_sync")
            .collect();
        assert_eq!(bulk.len() as u64, (b.kernels - 1) * 4);
        assert!(bulk
            .iter()
            .all(|e| e.field("round").is_some() && e.field("chiplet").is_some()));

        // Default config records nothing.
        let quiet = run("square", ProtocolKind::CpElide, 4);
        assert!(quiet.events.is_empty());
    }

    #[test]
    fn record_trace_emits_valid_balanced_perfetto_json() {
        for protocol in [ProtocolKind::Baseline, ProtocolKind::CpElide] {
            let w = chiplet_workloads::lookup("square").unwrap_or_else(|e| panic!("{e}"));
            let mut cfg = SimConfig::table1(4, protocol);
            cfg.record_trace = true;
            let m = Simulator::new(cfg).run(&w);
            assert!(m.trace.is_enabled());
            m.trace.balanced().expect("B/E spans pair up");
            // Every chiplet hosts at least one event.
            for c in 0..4u32 {
                assert!(
                    m.trace.events().iter().any(|e| e.pid == c),
                    "no events on chiplet {c} under {protocol:?}"
                );
            }
            // Golden category set: every event belongs to one of the three
            // documented tracks, and both phases of the pipeline show up.
            let cats: std::collections::BTreeSet<&str> =
                m.trace.events().iter().map(|e| e.cat).collect();
            assert!(cats.contains("kernel"), "kernel spans present");
            assert!(cats.contains("sync"), "sync events present");
            assert!(
                cats.iter().all(|c| ["kernel", "sync", "noc"].contains(c)),
                "unexpected categories: {cats:?}"
            );
            let json = m.trace.to_chrome_json();
            chiplet_harness::json::validate(&json).expect("trace JSON validates");
            assert!(json.contains("\"process_name\""));
            assert!(json.contains("chiplet 0"));
        }

        // Default config records nothing.
        let quiet = run("square", ProtocolKind::CpElide, 4);
        assert!(!quiet.trace.is_enabled());
        assert!(quiet.trace.is_empty());
    }

    #[test]
    fn trace_distinguishes_sync_styles() {
        let w = chiplet_workloads::lookup("bfs").unwrap_or_else(|e| panic!("{e}"));
        let mut cfg = SimConfig::table1(4, ProtocolKind::Baseline);
        cfg.record_trace = true;
        let base = Simulator::new(cfg).run(&w);
        assert!(
            base.trace.events().iter().any(|e| e.name == "bulk_sync"),
            "baseline pays bulk syncs"
        );

        let mut cfg = SimConfig::table1(4, ProtocolKind::CpElide);
        cfg.record_trace = true;
        let cpe = Simulator::new(cfg).run(&w);
        assert!(
            cpe.trace.events().iter().any(|e| e.name == "sync_elided"),
            "CPElide elides boundaries"
        );
        assert!(
            cpe.trace.events().iter().any(|e| e.name == "final_drain"),
            "end-of-program drain is traced"
        );
    }

    #[test]
    fn cct_audit_runs_clean_on_cpelide() {
        let cpe = run("bfs", ProtocolKind::CpElide, 4);
        let audit = cpe.audit.expect("CPElide runs are audited by default");
        assert!(audit.transitions() > 0, "launches drive CCT transitions");
        assert_eq!(audit.violations(), 0, "legal runs never trip the auditor");
        assert!(audit.summary_text().contains("0 violations"));

        let base = run("bfs", ProtocolKind::Baseline, 4);
        assert!(base.audit.is_none(), "no CCT to audit outside CPElide");

        let mut cfg = SimConfig::table1(4, ProtocolKind::CpElide);
        cfg.audit_cct = false;
        let w = chiplet_workloads::lookup("bfs").unwrap_or_else(|e| panic!("{e}"));
        let off = Simulator::new(cfg).run(&w);
        assert!(off.audit.is_none(), "auditing can be switched off");
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
        use crate::phase::SimPhase;
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
