//! The outside-in layer replay: the engine loop of
//! `chiplet_sim::engine::Simulator::run_with`, rebuilt from the same
//! public calls the engine makes, with one host timer per layer group
//! around each call (per round for the plan, per kernel for the CP, per
//! sync operation, per (kernel, chiplet) for trace generation and for the
//! memory-system access loop).
//!
//! The replay drops only what the engine records on the side (event log,
//! timeline, histograms, energy), so its simulated results must equal
//! `Simulator::run`'s exactly; [`Replay::mismatch`] checks that, and any
//! difference fails the traced run.

use chiplet_coherence::{MemorySystem, ProtocolKind};
use chiplet_gpu::dispatch::{DispatchPlan, StaticPartitionScheduler};
use chiplet_gpu::kernel::KernelId;
use chiplet_gpu::stream::{KernelPacket, SoftwareQueue};
use chiplet_gpu::trace::TraceGenerator;
use chiplet_mem::addr::ChipletId;
use chiplet_mem::cache::CacheStats;
use chiplet_sim::config::SimConfig;
use chiplet_sim::engine::effective_binding;
use chiplet_sim::metrics::RunMetrics;
use chiplet_sim::Cell;
use cpelide::api::KernelLaunchInfo;
use cpelide::cp::GlobalCp;
use std::time::{Duration, Instant};

/// The engine's fixed per-launch overhead (µs), as in the engine.
const LAUNCH_OVERHEAD_US: f64 = 2.0;

/// Host time per layer group.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `next_round`, `effective_binding`, `plan`.
    pub plan: Duration,
    /// `KernelLaunchInfo::from_spec` + `GlobalCp::launch_kernel`.
    pub cp: Duration,
    /// `bulk_sync_all`, `acquire`, `release` (boundaries and final drain).
    pub sync: Duration,
    /// `TraceGenerator::chiplet_trace`.
    pub trace: Duration,
    /// The `read`/`write` loop over each chiplet trace.
    pub mem: Duration,
}

impl LayerTimes {
    /// The sum over every group.
    pub fn total(&self) -> Duration {
        self.plan + self.cp + self.sync + self.trace + self.mem
    }
}

/// What one replay simulated and how long each layer took.
#[derive(Debug, Clone)]
pub struct Replay {
    pub times: LayerTimes,
    /// Wall time of the whole replay, timers included.
    pub wall: Duration,
    pub cycles: f64,
    pub exec_cycles: f64,
    pub sync_cycles: f64,
    pub kernels: u64,
    /// Trace events replayed (the engine's `AccessReplay` op count).
    pub accesses: u64,
    pub l2: CacheStats,
    pub l3: CacheStats,
    pub remote_bytes: u64,
    pub dram_accesses: u64,
    pub dir_evictions: u64,
    pub sync_ops: u64,
    pub flushed_lines: u64,
    pub invalidated_lines: u64,
    /// CP launches and elided/issued acquires+releases (CPElide only).
    pub cp_launches: u64,
    pub cp_elided: u64,
    pub cp_issued: u64,
}

impl Replay {
    /// The first simulated quantity in which this replay differs from the
    /// engine's run of the same cell, if any.
    pub fn mismatch(&self, m: &RunMetrics) -> Option<String> {
        let checks: [(&str, String, String); 11] = [
            (
                "cycles (f64 bits)",
                format!("{:#x}", self.cycles.to_bits()),
                format!("{:#x}", m.cycles.to_bits()),
            ),
            (
                "exec_cycles (f64 bits)",
                format!("{:#x}", self.exec_cycles.to_bits()),
                format!("{:#x}", m.exec_cycles.to_bits()),
            ),
            (
                "sync_cycles (f64 bits)",
                format!("{:#x}", self.sync_cycles.to_bits()),
                format!("{:#x}", m.sync_cycles.to_bits()),
            ),
            ("kernels", self.kernels.to_string(), m.kernels.to_string()),
            ("L2 stats", format!("{:?}", self.l2), format!("{:?}", m.l2)),
            ("L3 stats", format!("{:?}", self.l3), format!("{:?}", m.l3)),
            (
                "remote bytes",
                self.remote_bytes.to_string(),
                m.sync.remote_bytes.to_string(),
            ),
            (
                "DRAM accesses",
                self.dram_accesses.to_string(),
                m.dram_accesses.to_string(),
            ),
            (
                "sync ops",
                self.sync_ops.to_string(),
                m.sync_ops.to_string(),
            ),
            (
                "flushed lines",
                self.flushed_lines.to_string(),
                m.flushed_lines.to_string(),
            ),
            (
                "invalidated lines",
                self.invalidated_lines.to_string(),
                m.sync.invalidated_lines.to_string(),
            ),
        ];
        checks
            .into_iter()
            .find(|(_, got, want)| got != want)
            .map(|(what, got, want)| format!("{what}: replay {got}, engine {want}"))
    }
}

/// Times `f`, adding its duration to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed();
    out
}

/// Replays `cell` under its Table 1 configuration (as `Cell::run` does),
/// with the CCT audit on or off.
pub fn replay(cell: &Cell, audit: bool) -> Replay {
    let start = Instant::now();
    let cfg = SimConfig::table1(cell.chiplets, cell.protocol);
    let workload = &cell.workload;
    let n = cfg.num_chiplets;
    let mut t = LayerTimes::default();
    let mut mem = MemorySystem::new(cfg.protocol, cfg.mem);
    let mut cp = (cfg.protocol == ProtocolKind::CpElide)
        .then(|| GlobalCp::with_table_capacity(n, cfg.table_capacity));
    if audit {
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

    let (mut exec_cycles, mut sync_cycles) = (0.0f64, 0.0f64);
    let (mut kernels, mut accesses, mut sync_ops) = (0u64, 0u64, 0u64);
    let (mut flushed_lines, mut invalidated_lines) = (0u64, 0u64);
    let mut first_kernel = true;
    while !queue.is_empty() {
        let plans: Vec<(KernelPacket, DispatchPlan)> = timed(&mut t.plan, || {
            queue
                .next_round()
                .into_iter()
                .map(|p| {
                    let chiplets = effective_binding(&p, &all_chiplets, n);
                    let plan = scheduler.plan(&p.spec, &chiplets);
                    (p, plan)
                })
                .collect()
        });

        // ---- Synchronization phase ----
        let mut round_sync = 0.0f64;
        match cfg.protocol {
            ProtocolKind::Baseline if !first_kernel => {
                let costs = timed(&mut t.sync, || mem.bulk_sync_all());
                sync_ops += costs.len() as u64;
                let mut op_max = 0.0f64;
                for a in &costs {
                    flushed_lines += a.flush.total_lines();
                    invalidated_lines += a.invalidated_lines;
                    let cyc = cfg.sync.acquire_cycles(
                        a.flush.local_lines,
                        a.flush.remote_lines,
                        a.invalidated_lines,
                        &cfg.link,
                    );
                    op_max = op_max.max(cyc);
                }
                round_sync += op_max;
            }
            ProtocolKind::CpElide => {
                if let Some(cp) = cp.as_mut() {
                    for (packet, plan) in &plans {
                        let decision = timed(&mut t.cp, || {
                            let info = KernelLaunchInfo::from_spec(
                                &packet.spec,
                                KernelId::new(packet.id.get()),
                                workload.arrays(),
                                plan,
                                n,
                            );
                            cp.launch_kernel(&info)
                        });
                        if first_kernel {
                            round_sync += cfg.us_to_cycles(decision.cp_latency_us);
                        }
                        if cfg.driver_managed {
                            round_sync += cfg.us_to_cycles(cfg.driver_round_trip_us());
                        }
                        let mut op_max = 0.0f64;
                        for &c in &decision.acquires {
                            let a = timed(&mut t.sync, || mem.acquire(c));
                            flushed_lines += a.flush.total_lines();
                            invalidated_lines += a.invalidated_lines;
                            sync_ops += 1;
                            let cyc = cfg.sync.acquire_cycles(
                                a.flush.local_lines,
                                a.flush.remote_lines,
                                a.invalidated_lines,
                                &cfg.link,
                            );
                            op_max = op_max.max(cyc);
                        }
                        for &c in &decision.releases {
                            let r = timed(&mut t.sync, || mem.release(c));
                            flushed_lines += r.total_lines();
                            sync_ops += 1;
                            let cyc =
                                cfg.sync
                                    .release_cycles(r.local_lines, r.remote_lines, &cfg.link);
                            op_max = op_max.max(cyc);
                        }
                        round_sync += op_max;
                    }
                }
            }
            _ => {}
        }
        round_sync *= f64::from(cfg.sync_replication);

        // ---- Execution phase ----
        let mut round_exec = 0.0f64;
        for (packet, plan) in &plans {
            let spec = &packet.spec;
            let mut packet_time = 0.0f64;
            for chiplet in plan.chiplets() {
                let trace = timed(&mut t.trace, || {
                    tracegen.chiplet_trace(
                        spec,
                        KernelId::new(packet.id.get()),
                        workload.arrays(),
                        plan,
                        chiplet,
                    )
                });
                let events = trace.len() as u64;
                accesses += events;
                let lat = timed(&mut t.mem, || {
                    let mut lat = 0.0f64;
                    let mut l1_acc = 0.0f64;
                    let dir_before = mem.dir_remote_invalidations();
                    for ev in &trace {
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
                    }
                    lat + (mem.dir_remote_invalidations() - dir_before) as f64
                        * cfg.latency.dir_eviction_penalty
                });
                let compute = events as f64 * spec.compute_per_line() / cfg.compute_scale;
                let mem_time = lat / (spec.mlp() * cfg.compute_scale);
                packet_time = packet_time.max(compute.max(mem_time));
            }
            round_exec = round_exec.max(packet_time);
        }
        exec_cycles += round_exec + cfg.us_to_cycles(LAUNCH_OVERHEAD_US);
        sync_cycles += round_sync;
        kernels += plans.len() as u64;
        first_kernel = false;
    }

    // End-of-program drain.
    let mut final_max = 0.0f64;
    for c in ChipletId::all(n) {
        let r = timed(&mut t.sync, || mem.release(c));
        if r.total_lines() > 0 {
            sync_ops += 1;
            flushed_lines += r.total_lines();
            final_max = final_max.max(cfg.sync.release_cycles(
                r.local_lines,
                r.remote_lines,
                &cfg.link,
            ));
        }
    }
    sync_cycles += final_max;

    let table = cp.map(|cp| cp.table_stats());
    Replay {
        times: t,
        wall: start.elapsed(),
        cycles: exec_cycles + sync_cycles,
        exec_cycles,
        sync_cycles,
        kernels,
        accesses,
        l2: mem.l2_stats_total(),
        l3: mem.l3_stats(),
        remote_bytes: mem.traffic().remote_bytes(),
        dram_accesses: mem.hbm().total_accesses(),
        dir_evictions: mem.total_dir_evictions(),
        sync_ops,
        flushed_lines,
        invalidated_lines,
        cp_launches: table.as_ref().map_or(0, |t| t.launches),
        cp_elided: table
            .as_ref()
            .map_or(0, |t| t.acquires_elided + t.releases_elided),
        cp_issued: table
            .as_ref()
            .map_or(0, |t| t.acquires_issued + t.releases_issued),
    }
}
