//! The engine's one recording seam: every timing decision the engine makes
//! is emitted as a typed [`SimEvent`] to an [`Observer`].
//!
//! The built-in recorders behind [`crate::RunMetrics`] (sync counters,
//! histograms, the phase profile, link utilisation) are themselves an
//! observer, fed from the same seam as any caller's. The Perfetto timeline
//! is a function over recorded events ([`timeline`]). A run observed by
//! `()` ([`crate::Simulator::run`]) compiles the caller's half away.

use crate::config::SimConfig;
use crate::metrics::{RunHistograms, SyncCounters};
use crate::phase::{PhaseProfile, SimPhase};
use chiplet_coherence::{AcquireCost, ReleaseCost};
use chiplet_gpu::kernel::KernelId;
use chiplet_harness::json::Json;
use chiplet_mem::addr::ChipletId;
use chiplet_noc::link::LinkUtilization;
use chiplet_obs::Tracer;
use chiplet_workloads::Workload;

/// Where and when one per-chiplet sync op ran, and what it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncOp {
    /// The round whose boundary performed it; for the final drain, one
    /// past the last round.
    pub round: u32,
    /// The chiplet synchronized.
    pub chiplet: ChipletId,
    /// Start of the boundary (or of the final drain), in cycles.
    pub at: f64,
    /// The op's cost in cycles.
    pub cycles: f64,
}

/// The end of a round's sync phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boundary {
    /// The round (0-based).
    pub round: u32,
    /// Kernels launched in the round.
    pub kernels: u32,
    /// Start of the boundary, in cycles.
    pub at: f64,
    /// Serialized sync stall.
    pub sync_cycles: f64,
    /// The CP-decision share of `sync_cycles`.
    pub cp_cycles: f64,
    /// CP decisions made (one per CPElide launch).
    pub cp_ops: u64,
}

/// One chiplet's share of one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSpan {
    /// The launch.
    pub kernel: KernelId,
    /// The launch's stream.
    pub stream: u32,
    /// The chiplet.
    pub chiplet: ChipletId,
    /// Start of the round's execution phase, in cycles.
    pub at: f64,
    /// Execution time on this chiplet.
    pub cycles: f64,
    /// Accesses replayed.
    pub accesses: u64,
}

/// The inter-chiplet link's load over a round or the final drain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkWindow {
    /// Start of the round or of the final drain, in cycles.
    pub at: f64,
    /// Bytes that crossed the link (0 when none did).
    pub bytes: u64,
    /// Bandwidth-limited busy time.
    pub cycles: f64,
    /// The round's duration; `None` for the final drain.
    pub window: Option<f64>,
}

/// One thing the engine did, stamped in simulated cycles.
///
/// Per round the engine emits its sync ops (CPElide's `Elided` markers,
/// acquires and releases, or the Baseline's bulk syncs), then the
/// `Boundary` that closes the sync phase, then one `Kernel` per chiplet of
/// each kernel, then one `LinkBusy`. The run ends with the `FinalDrain`
/// releases and one last `LinkBusy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A CPElide acquire: a flush, then an invalidation.
    Acquire(SyncOp, AcquireCost),
    /// A CPElide release: a dirty-line flush.
    Release(SyncOp, ReleaseCost),
    /// The Baseline's whole-GPU boundary sync on one chiplet: a fused
    /// release and acquire.
    BulkSync(SyncOp, AcquireCost),
    /// An end-of-program release on a chiplet that still held dirty lines.
    FinalDrain(SyncOp, ReleaseCost),
    /// The CP elided every acquire and release of launch `kernel` in
    /// `round`, whose boundary starts at cycle `at`.
    Elided {
        round: u32,
        kernel: KernelId,
        at: f64,
    },
    /// The end of a round's sync phase.
    Boundary(Boundary),
    /// One chiplet's share of one kernel.
    Kernel(KernelSpan),
    /// The link's load over a round (emitted even when no byte crossed)
    /// or over the final drain.
    LinkBusy(LinkWindow),
}

impl SimEvent {
    /// The variant name, for rendering.
    fn label(&self) -> &'static str {
        match self {
            SimEvent::Acquire(..) => "Acquire",
            SimEvent::Release(..) => "Release",
            SimEvent::BulkSync(..) => "BulkSync",
            SimEvent::FinalDrain(..) => "FinalDrain",
            SimEvent::Elided { .. } => "Elided",
            SimEvent::Boundary(_) => "Boundary",
            SimEvent::Kernel(_) => "Kernel",
            SimEvent::LinkBusy(_) => "LinkBusy",
        }
    }

    /// For a sync op, the L2 lines it moved: `(flushed, invalidated)`.
    fn sync_lines(&self) -> Option<(u64, u64)> {
        match *self {
            SimEvent::Acquire(_, c) | SimEvent::BulkSync(_, c) => {
                Some((c.flush.total_lines(), c.invalidated_lines))
            }
            SimEvent::Release(_, c) | SimEvent::FinalDrain(_, c) => Some((c.total_lines(), 0)),
            SimEvent::Elided { .. }
            | SimEvent::Boundary(_)
            | SimEvent::Kernel(_)
            | SimEvent::LinkBusy(_) => None,
        }
    }

    /// The event as a JSON object: its `label` and its fields.
    pub fn to_json(&self) -> Json {
        let o = Json::object().with("label", self.label());
        let sync = |o: Json, op: SyncOp, flush: ReleaseCost| {
            o.with("round", u64::from(op.round))
                .with("chiplet", op.chiplet.index())
                .with("at", op.at)
                .with("cycles", op.cycles)
                .with("local_lines", flush.local_lines)
                .with("remote_lines", flush.remote_lines)
        };
        match *self {
            SimEvent::Acquire(op, c) | SimEvent::BulkSync(op, c) => {
                sync(o, op, c.flush).with("invalidated_lines", c.invalidated_lines)
            }
            SimEvent::Release(op, c) | SimEvent::FinalDrain(op, c) => sync(o, op, c),
            SimEvent::Elided { round, kernel, at } => o
                .with("round", u64::from(round))
                .with("kernel", kernel.get())
                .with("at", at),
            SimEvent::Boundary(b) => o
                .with("round", u64::from(b.round))
                .with("kernels", u64::from(b.kernels))
                .with("at", b.at)
                .with("sync_cycles", b.sync_cycles)
                .with("cp_cycles", b.cp_cycles)
                .with("cp_ops", b.cp_ops),
            SimEvent::Kernel(k) => o
                .with("kernel", k.kernel.get())
                .with("stream", u64::from(k.stream))
                .with("chiplet", k.chiplet.index())
                .with("at", k.at)
                .with("cycles", k.cycles)
                .with("accesses", k.accesses),
            SimEvent::LinkBusy(l) => {
                let o = o
                    .with("at", l.at)
                    .with("bytes", l.bytes)
                    .with("cycles", l.cycles);
                match l.window {
                    Some(w) => o.with("window", w),
                    None => o,
                }
            }
        }
    }
}

/// A consumer of the engine's events.
pub trait Observer {
    /// Called once per event, in emission order.
    fn observe(&mut self, event: &SimEvent);
}

/// Observes nothing; a run observed by `()` pays for no recording.
impl Observer for () {
    #[inline(always)]
    fn observe(&mut self, _: &SimEvent) {}
}

/// Records every event.
impl Observer for Vec<SimEvent> {
    fn observe(&mut self, event: &SimEvent) {
        self.push(*event);
    }
}

/// Sync ops and the L2 lines they moved since the last boundary.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    ops: u64,
    flushed: u64,
    invalidated: u64,
}

impl Tally {
    /// Counts `event` if it is a sync op and returns its lines.
    fn add(&mut self, event: &SimEvent) -> Option<(u64, u64)> {
        let (flushed, invalidated) = event.sync_lines()?;
        self.ops += 1;
        self.flushed += flushed;
        self.invalidated += invalidated;
        Some((flushed, invalidated))
    }
}

/// The built-in recorders every run carries, fed from the seam. The engine
/// reads them back after [`RunRecorder::finish`].
#[derive(Debug, Default)]
pub(crate) struct RunRecorder {
    pub(crate) sync: SyncCounters,
    pub(crate) sync_ops: u64,
    pub(crate) hist: RunHistograms,
    pub(crate) phases: PhaseProfile,
    pub(crate) link_util: LinkUtilization,
    /// Fixed launch overhead charged per round.
    launch_cycles: f64,
    tally: Tally,
    /// The open round's execution time and replayed accesses.
    exec_cycles: f64,
    accesses: u64,
    /// The open kernel and its time so far (max over its chiplets).
    kernel: Option<(KernelId, f64)>,
    drain_cycles: f64,
}

impl RunRecorder {
    pub(crate) fn new(launch_cycles: f64) -> Self {
        RunRecorder {
            launch_cycles,
            ..RunRecorder::default()
        }
    }

    fn close_kernel(&mut self) {
        if let Some((_, cycles)) = self.kernel.take() {
            self.hist.kernel_cycles.observe_f64(cycles);
        }
    }

    /// Accounts the final drain (the releases since the last boundary).
    pub(crate) fn finish(&mut self) {
        let drain = std::mem::take(&mut self.tally);
        let cycles = self.drain_cycles;
        self.phases.record(SimPhase::FinalDrain, cycles, drain.ops);
        self.hist.boundary_stall_cycles.observe_f64(cycles);
        self.hist.boundary_flushed_lines.observe(drain.flushed);
    }
}

impl Observer for RunRecorder {
    fn observe(&mut self, event: &SimEvent) {
        if let Some((flushed, invalidated)) = self.tally.add(event) {
            self.sync_ops += 1;
            self.sync.flushed_lines += flushed;
            self.sync.invalidated_lines += invalidated;
        }
        match *event {
            SimEvent::Acquire(..) => self.sync.acquires_performed += 1,
            SimEvent::Release(..) => self.sync.releases_performed += 1,
            SimEvent::BulkSync(..) => {
                self.sync.acquires_performed += 1;
                self.sync.releases_performed += 1;
            }
            SimEvent::FinalDrain(op, _) => {
                self.sync.releases_performed += 1;
                self.drain_cycles = self.drain_cycles.max(op.cycles);
            }
            SimEvent::Elided { .. } => {}
            SimEvent::Boundary(b) => {
                let tally = std::mem::take(&mut self.tally);
                let drain = b.sync_cycles - b.cp_cycles;
                self.phases
                    .record(SimPhase::CpDecision, b.cp_cycles, b.cp_ops);
                self.phases
                    .record(SimPhase::BoundaryDrain, drain, tally.ops);
                self.phases
                    .record(SimPhase::Placement, self.launch_cycles, b.kernels.into());
                self.hist.boundary_stall_cycles.observe_f64(b.sync_cycles);
                self.hist.boundary_flushed_lines.observe(tally.flushed);
                self.hist
                    .boundary_invalidated_lines
                    .observe(tally.invalidated);
            }
            SimEvent::Kernel(k) => {
                match &mut self.kernel {
                    Some((open, t)) if *open == k.kernel => *t = t.max(k.cycles),
                    _ => {
                        self.close_kernel();
                        self.kernel = Some((k.kernel, 0.0f64.max(k.cycles)));
                    }
                }
                self.exec_cycles = self.exec_cycles.max(k.cycles);
                self.accesses += k.accesses;
            }
            SimEvent::LinkBusy(l) => {
                self.link_util.record(l.bytes, l.cycles.round() as u64);
                if let Some(window) = l.window {
                    self.close_kernel();
                    let exec = std::mem::take(&mut self.exec_cycles);
                    let accesses = std::mem::take(&mut self.accesses);
                    self.phases.record(SimPhase::AccessReplay, exec, accesses);
                    self.hist
                        .link_busy_permille
                        .observe_f64(1000.0 * (l.cycles / window).min(1.0));
                }
            }
        }
    }
}

/// Renders recorded events as a Chrome/Perfetto timeline. `pid` is the
/// chiplet, with two pseudo-processes after them: the command processor
/// (elided launches, per-boundary line counters) and the inter-chiplet
/// link (busy windows). `tid` is the stream. Timestamps are simulated
/// microseconds on `cfg`'s clock; `workload` names the kernels and
/// streams.
pub fn timeline(events: &[SimEvent], cfg: &SimConfig, workload: &Workload) -> Tracer {
    let n = cfg.num_chiplets as u32;
    let (cp_pid, noc_pid) = (n, n + 1);
    let us = |cycles: f64| cfg.cycles_to_us(cycles);
    let mut t = Tracer::new();
    for c in 0..n {
        t.name_process(c, format!("chiplet {c}"));
    }
    t.name_process(cp_pid, "command processor");
    t.name_process(noc_pid, "inter-chiplet link");
    let mut streams: Vec<u32> = workload.launches().iter().map(|l| l.stream.get()).collect();
    streams.sort_unstable();
    streams.dedup();
    for c in 0..n {
        for &s in &streams {
            t.name_thread(c, s, format!("stream {s}"));
        }
    }
    // A sync op is a complete span on its chiplet's track, carrying the
    // lines it flushed and, for acquires, the lines it dropped.
    let span = |t: &mut Tracer, name, op: SyncOp, flushed: ReleaseCost, dropped: Option<u64>| {
        let mut args = vec![("flushed_lines", flushed.total_lines() as f64)];
        args.extend(dropped.map(|lines| ("invalidated_lines", lines as f64)));
        let pid = op.chiplet.index() as u32;
        t.complete(name, "sync", us(op.at), us(op.cycles), pid, 0, args);
    };
    let mut tally = Tally::default();
    for event in events {
        tally.add(event);
        match *event {
            SimEvent::Acquire(op, c) => {
                span(&mut t, "acquire", op, c.flush, Some(c.invalidated_lines))
            }
            SimEvent::Release(op, c) => span(&mut t, "release", op, c, None),
            SimEvent::BulkSync(op, c) => {
                span(&mut t, "bulk_sync", op, c.flush, Some(c.invalidated_lines))
            }
            SimEvent::FinalDrain(op, c) => span(&mut t, "final_drain", op, c, None),
            SimEvent::Elided { kernel, at, .. } => {
                let args = vec![("kernel", kernel.get() as f64)];
                t.instant("sync_elided", "sync", us(at), cp_pid, 0, args);
            }
            SimEvent::Boundary(b) => {
                let lines = std::mem::take(&mut tally);
                let args = vec![
                    ("flushed", lines.flushed as f64),
                    ("invalidated", lines.invalidated as f64),
                ];
                t.counter("boundary_lines", "sync", us(b.at), cp_pid, args);
            }
            SimEvent::Kernel(k) => {
                let name = workload.launches()[k.kernel.get() as usize].spec.name();
                let pid = k.chiplet.index() as u32;
                t.begin(name, "kernel", us(k.at), pid, k.stream);
                t.end(name, "kernel", us(k.at + k.cycles), pid, k.stream);
            }
            SimEvent::LinkBusy(l) if l.bytes > 0 => {
                let args = vec![("bytes", l.bytes as f64)];
                t.complete("link_busy", "noc", us(l.at), us(l.cycles), noc_pid, 0, args);
            }
            SimEvent::LinkBusy(_) => {}
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use chiplet_coherence::ProtocolKind;

    #[test]
    fn events_render_labelled_by_their_variant() {
        let w = chiplet_workloads::lookup("bfs").unwrap_or_else(|e| panic!("{e}"));
        for protocol in [ProtocolKind::Baseline, ProtocolKind::CpElide] {
            let mut events = Vec::new();
            Simulator::new(SimConfig::table1(4, protocol)).run_observed(&w, &mut events);
            for e in &events {
                let json = e.to_json();
                assert_eq!(json.get("label").and_then(Json::as_str), Some(e.label()));
                assert!(format!("{e:?}").starts_with(e.label()));
                chiplet_harness::json::parse(&json.render()).expect("valid JSON");
            }
        }
    }
}
