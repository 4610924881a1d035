//! The static elision oracle: spec-level dependence analysis over every
//! registered workload, cross-checked against the real engine.
//!
//! # What it proves
//!
//! CPElide's premise is that the CP can *prove* many inter-kernel
//! boundaries need no acquire/release. This module derives that proof
//! obligation independently of the runtime CCT: it abstract-interprets
//! each kernel's `AccessPattern`/`TouchKind` footprints into the
//! page-granular interval domain of [`crate::footprint`], evolves a
//! per-(array, chiplet) dirty/cached/stale state across kernel
//! boundaries, and classifies every boundary:
//!
//! - [`Verdict::MustSync`] — a *must*-level cross-chiplet dependence
//!   (RAW/WAW on definitely-unflushed pages, or a definite stale read)
//!   exists: any sound boundary-synchronizing protocol has to perform at
//!   least one acquire/release here.
//! - [`Verdict::MayElide`] — even the *may*-level footprints admit no
//!   dependence and no launching chiplet may hold stale pages: any sync
//!   performed here is provably unnecessary (quantified as headroom).
//! - [`Verdict::Unknown`] — a may-level dependence exists but widening
//!   (irregular footprints) prevents a must-level proof either way.
//!
//! Footprint exactness comes from `chiplet_gpu::trace::line_footprint`:
//! partitioned/halo/slice/shared patterns touch exactly their hint range
//! (must = may), irregular patterns are widened (must = ∅, may = hint).
//! The two set families live at different granularities, mirroring the
//! CCT: *may*-sets are page-widened (the granularity of the CCT's
//! first-touch home claims — `page_aligned()` in `cpelide`; arrays are
//! page-aligned so widening never aliases a neighbor), while *must*-sets
//! stay line-granular, because the CCT's release/acquire overlap tests
//! run on exact hint line ranges and a must-level dependence claim has
//! to denote real data flow. Page-widening the must side would turn the
//! metadata-level false sharing of a page-straddling partition boundary
//! (any array whose lines don't divide page-aligned across chiplets,
//! e.g. n=7) into a phantom `MustSync` that the engine rightly elides.
//!
//! # The two analyses
//!
//! **Static pass** ([`analyze_static`]): evolves the state under the
//! minimal demand-driven schedule — whole-GPU sync applied exactly at
//! non-`MayElide` boundaries — and reports the classification census
//! with `file:line` diagnostics pointing at kernel definition sites
//! ([`chiplet_gpu::kernel::SpecSpan`]).
//!
//! **Differential sanitizer** ([`differential`]): replays the workload
//! through the real [`chiplet_sim::Simulator`], recording its typed
//! [`SimEvent`]s, re-classifies each boundary in lockstep with the
//! engine's *observed* per-chiplet acquire/release/bulk-sync operations,
//! and asserts (a) soundness — no boundary the oracle marks `MustSync`
//! was elided — and (b) completeness — `MayElide` boundaries that were
//! nevertheless synced are reported as elision headroom. Feeding the
//! observed ops back into the abstract state is what makes the soundness
//! assertion exact: the engine's conservative whole-L2 syncs may
//! legitimately discharge a dependence early, and the oracle must not
//! call the later boundary `MustSync` once it has.
//!
//! HMG keeps L2s continuously coherent and performs no boundary
//! operations at all; its lockstep replay models that as an implicit
//! whole-GPU sync per round, so the soundness assertion holds vacuously
//! and headroom is zero by construction.

use crate::footprint::IntervalSet;
use chiplet_coherence::ProtocolKind;
use chiplet_gpu::kernel::{KernelSpec, TouchKind};
use chiplet_gpu::stream::SoftwareQueue;
use chiplet_gpu::trace::line_footprint;
use chiplet_harness::fleet;
use chiplet_harness::json::Json;
use chiplet_mem::addr::ChipletId;
use chiplet_sim::config::SimConfig;
use chiplet_sim::engine::{plan_round, Simulator};
use chiplet_sim::event::SimEvent;
use chiplet_workloads::Workload;
use std::sync::Arc;

/// The chiplet counts the oracle sweeps (the paper's 2/4 design points
/// plus the non-power-of-2 stressor that exposed the PR 3 CCT hole).
pub const CHIPLET_COUNTS: [usize; 3] = [2, 4, 7];

/// The boundary-protocol matrix of the differential sanitizer.
pub const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Baseline,
    ProtocolKind::Hmg,
    ProtocolKind::CpElide,
];

/// The kind of inter-kernel dependence behind a [`Verdict::MustSync`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Reader needs definitely-unflushed data another chiplet wrote.
    Raw,
    /// Writer overwrites pages another chiplet holds dirty.
    Waw,
    /// Launcher definitely holds stale pages it is about to read.
    StaleRead,
}

impl DepKind {
    fn label(self) -> &'static str {
        match self {
            DepKind::Raw => "RAW",
            DepKind::Waw => "WAW",
            DepKind::StaleRead => "stale-read",
        }
    }
}

/// One proved dependence: the diagnostic payload of a `MustSync`.
#[derive(Debug, Clone)]
pub struct Dep {
    /// Dependence kind.
    pub kind: DepKind,
    /// Array the dependence is on.
    pub array: String,
    /// First overlapping line range (page-widened), for the message.
    pub lines: (u64, u64),
    /// Kernel that produced the conflicting state, with its definition
    /// span (`file:line`) and the chiplet holding the state.
    pub from: String,
    /// Kernel/chiplet that needs the sync at this boundary, with span.
    pub to: String,
}

impl std::fmt::Display for Dep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on `{}` lines {}..{}: {} -> {}",
            self.kind.label(),
            self.array,
            self.lines.0,
            self.lines.1,
            self.from,
            self.to
        )
    }
}

/// The oracle's classification of one kernel boundary.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// A must-level dependence requires at least one sync op here.
    MustSync {
        /// The proved dependences (at least one).
        deps: Vec<Dep>,
    },
    /// No may-level dependence exists: sync here is provably unnecessary.
    MayElide {
        /// Human-readable proof sketch.
        proof: String,
    },
    /// May-level dependence without a must-level proof (widening loss).
    Unknown {
        /// What the widened footprints could not decide.
        reason: String,
    },
}

impl Verdict {
    /// Short tag for tables.
    pub fn tag(&self) -> &'static str {
        match self {
            Verdict::MustSync { .. } => "must-sync",
            Verdict::MayElide { .. } => "may-elide",
            Verdict::Unknown { .. } => "unknown",
        }
    }
}

/// One chiplet's footprint on one array in one round: `may` page-widened,
/// `must` line-granular (see the module docs on granularity).
#[derive(Debug, Clone)]
struct AccessFp {
    array: usize,
    touch: TouchKind,
    may: IntervalSet,
    must: IntervalSet,
}

/// One launching chiplet in one round: the kernel it runs (for
/// diagnostics) and its footprints.
#[derive(Debug, Clone)]
struct LaunchFp {
    chiplet: usize,
    kernel: Arc<KernelSpec>,
    accesses: Vec<AccessFp>,
}

/// One kernel boundary: every (kernel x chiplet) slice launched together.
#[derive(Debug, Clone)]
struct RoundFp {
    kernels: usize,
    launches: Vec<LaunchFp>,
}

/// Per-(array, chiplet) abstract state. `src` fields remember the kernel
/// (name + span) that produced the state, for diagnostics.
#[derive(Debug, Clone, Default)]
struct CellState {
    dirty_may: IntervalSet,
    dirty_must: IntervalSet,
    cached_may: IntervalSet,
    cached_must: IntervalSet,
    stale_may: IntervalSet,
    stale_must: IntervalSet,
    dirty_src: Option<String>,
    stale_src: Option<String>,
}

/// The abstract machine: `cells[array][chiplet]`.
#[derive(Debug, Clone)]
struct OracleState {
    cells: Vec<Vec<CellState>>,
}

impl OracleState {
    fn new(arrays: usize, chiplets: usize) -> Self {
        OracleState {
            cells: vec![vec![CellState::default(); chiplets]; arrays],
        }
    }

    /// Whole-L2 release of `c`: its dirty data reaches the LLC.
    fn release(&mut self, c: usize) {
        for per_array in &mut self.cells {
            let cell = &mut per_array[c];
            cell.dirty_may.clear();
            cell.dirty_must.clear();
            cell.dirty_src = None;
        }
    }

    /// Whole-L2 acquire of `c`: flush + invalidate, nothing cached or
    /// stale remains.
    fn acquire(&mut self, c: usize) {
        for per_array in &mut self.cells {
            let cell = &mut per_array[c];
            cell.dirty_may.clear();
            cell.dirty_must.clear();
            cell.cached_may.clear();
            cell.cached_must.clear();
            cell.stale_may.clear();
            cell.stale_must.clear();
            cell.dirty_src = None;
            cell.stale_src = None;
        }
    }

    /// Fused release + acquire (Baseline's bulk op, HMG's implicit
    /// continuous coherence, the static schedule's demand sync).
    fn bulk(&mut self, c: usize) {
        self.acquire(c);
    }

    /// Applies one round's execution effects: launchers cache what they
    /// touch; writes dirty their pages and stale-mark every other
    /// chiplet's overlapping cached copies. `stale_must` marking uses the
    /// pre-round `cached_must` snapshot (a copy definitely cached before
    /// this round is definitely stale after a definite overwrite;
    /// same-round read/write interleavings are racy and stay may-level).
    fn apply_round(&mut self, round: &RoundFp) {
        let pre_cached_must: Vec<Vec<IntervalSet>> = self
            .cells
            .iter()
            .map(|per_array| per_array.iter().map(|c| c.cached_must.clone()).collect())
            .collect();
        // Caching effects first.
        for l in &round.launches {
            for fp in &l.accesses {
                let cell = &mut self.cells[fp.array][l.chiplet];
                cell.cached_may.union_with(&fp.may);
                cell.cached_must.union_with(&fp.must);
            }
        }
        // Then write effects.
        for l in &round.launches {
            let src = format!("{}@{}", l.kernel.name(), l.kernel.span());
            for fp in &l.accesses {
                if !fp.touch.implied_mode().writes() {
                    continue;
                }
                for (o, pre_must) in pre_cached_must[fp.array].iter().enumerate() {
                    if o == l.chiplet {
                        let cell = &mut self.cells[fp.array][o];
                        cell.dirty_may.union_with(&fp.may);
                        cell.dirty_must.union_with(&fp.must);
                        cell.dirty_src = Some(src.clone());
                    } else {
                        let may_hit = self.cells[fp.array][o].cached_may.intersection(&fp.may);
                        let must_hit = pre_must.intersection(&fp.must);
                        let cell = &mut self.cells[fp.array][o];
                        if !may_hit.is_empty() {
                            cell.stale_may.union_with(&may_hit);
                            cell.stale_src = Some(src.clone());
                        }
                        cell.stale_must.union_with(&must_hit);
                    }
                }
            }
        }
    }
}

/// Builds the per-round footprints of `workload` on `n` chiplets from
/// the engine's own round planner ([`plan_round`]), so the oracle sees
/// exactly the engine's dispatch: its rounds, its binding clamp and its
/// zero-WG chiplet dropping.
fn build_rounds(workload: &Workload, n: usize) -> Vec<RoundFp> {
    let mut queue = SoftwareQueue::new();
    for l in workload.launches() {
        queue.enqueue(l.stream, l.spec.clone(), l.binding.clone());
    }
    let all: Vec<ChipletId> = ChipletId::all(n).collect();
    let arrays = workload.arrays();
    let index_of = |id: chiplet_mem::array::ArrayId| id.get() as usize;

    let mut rounds = Vec::new();
    while !queue.is_empty() {
        let round = plan_round(&mut queue, &all);
        let mut launches: Vec<LaunchFp> = Vec::new();
        let kernels = round.len();
        for (packet, plan) in round {
            let width = plan.width();
            for (slot, chiplet) in plan.chiplets().enumerate() {
                let mut accesses = Vec::with_capacity(packet.spec.arrays().len());
                for acc in packet.spec.arrays() {
                    let decl = arrays.get(acc.array);
                    let fp = line_footprint(&acc.pattern, decl, slot, width);
                    accesses.push(AccessFp {
                        array: index_of(acc.array),
                        touch: acc.touch,
                        // May-sets are page-widened (CCT metadata
                        // granularity: more Unknown, never unsound);
                        // must-sets stay line-granular because a must
                        // dependence claims real data flow, and the CCT's
                        // own overlap tests run on exact hint line ranges
                        // (page-widening only its *home* claims). Widening
                        // `must` would invent cross-chiplet dependences on
                        // partition boundaries that straddle a page
                        // (e.g. babelstream at n=7) which the engine
                        // correctly proves disjoint and elides.
                        may: IntervalSet::from_range(fp.may.clone()).page_widen(),
                        must: IntervalSet::from_range(fp.must()),
                    });
                }
                launches.push(LaunchFp {
                    chiplet: chiplet.index(),
                    kernel: packet.spec.clone(),
                    accesses,
                });
            }
        }
        rounds.push(RoundFp { kernels, launches });
    }
    rounds
}

/// Classifies the boundary *before* `round` executes, given the abstract
/// state left by everything prior.
fn classify(state: &OracleState, round: &RoundFp, array_names: &[String]) -> Verdict {
    let mut deps: Vec<Dep> = Vec::new();
    let mut may_reason: Option<String> = None;

    for l in &round.launches {
        let to = format!("{}@{}", l.kernel.name(), l.kernel.span());
        for fp in &l.accesses {
            let per_array = &state.cells[fp.array];
            let aname = &array_names[fp.array];
            // RAW/WAW against other chiplets' unflushed writes.
            for (i, cell) in per_array.iter().enumerate() {
                if i == l.chiplet {
                    continue;
                }
                if let Some(ov) = cell.dirty_must.first_overlap(&fp.must) {
                    deps.push(Dep {
                        kind: if fp.touch == TouchKind::Store {
                            DepKind::Waw
                        } else {
                            DepKind::Raw
                        },
                        array: aname.clone(),
                        lines: ov,
                        from: cell
                            .dirty_src
                            .clone()
                            .unwrap_or_else(|| format!("chiplet {i}")),
                        to: format!("{to} on chiplet {}", l.chiplet),
                    });
                } else if may_reason.is_none() && cell.dirty_may.intersects(&fp.may) {
                    may_reason = Some(format!(
                        "widened footprint of {to} may overlap unflushed pages of {} on \
                         `{aname}` (chiplet {i})",
                        cell.dirty_src.as_deref().unwrap_or("an earlier kernel"),
                    ));
                }
            }
            // Definite stale read by the launcher itself.
            let own = &per_array[l.chiplet];
            if fp.touch != TouchKind::Store {
                if let Some(ov) = own.stale_must.first_overlap(&fp.must) {
                    deps.push(Dep {
                        kind: DepKind::StaleRead,
                        array: aname.clone(),
                        lines: ov,
                        from: own
                            .stale_src
                            .clone()
                            .unwrap_or_else(|| "an earlier writer".to_owned()),
                        to: format!("{to} on chiplet {}", l.chiplet),
                    });
                }
            }
        }
        // Scheduled-bystander rule: a launcher holding possibly-stale
        // pages cannot be proven elidable even if this kernel does not
        // touch them (the CCT conservatively acquires it).
        if may_reason.is_none() {
            for (a, per_array) in state.cells.iter().enumerate() {
                let cell = &per_array[l.chiplet];
                if !cell.stale_may.is_empty() {
                    may_reason = Some(format!(
                        "launcher {to} (chiplet {}) may hold stale pages of `{}` written by {}",
                        l.chiplet,
                        array_names[a],
                        cell.stale_src.as_deref().unwrap_or("an earlier kernel"),
                    ));
                }
            }
        }
    }

    if !deps.is_empty() {
        Verdict::MustSync { deps }
    } else if let Some(reason) = may_reason {
        Verdict::Unknown { reason }
    } else {
        Verdict::MayElide {
            proof: "no launcher footprint overlaps another chiplet's possibly-unflushed \
                    pages and no launcher may hold stale pages"
                .to_owned(),
        }
    }
}

/// The static classification of one workload at one chiplet count.
#[derive(Debug, Clone)]
pub struct StaticCell {
    /// Chiplet count analyzed.
    pub chiplets: usize,
    /// Kernel boundaries (engine rounds) classified.
    pub boundaries: u64,
    /// Boundaries proved to need sync.
    pub must_sync: u64,
    /// Boundaries proved elidable.
    pub may_elide: u64,
    /// Boundaries the widening could not decide.
    pub unknown: u64,
    /// `file:line` diagnostics for the must-sync boundaries (one line per
    /// boundary, first dependence cited).
    pub diagnostics: Vec<String>,
}

/// Classifies every boundary of `workload` at `n` chiplets under the
/// minimal demand-driven schedule: whole-GPU sync applied exactly at
/// non-`MayElide` boundaries (a sound protocol cannot elide `Unknown`).
pub fn analyze_static(workload: &Workload, n: usize) -> StaticCell {
    let rounds = build_rounds(workload, n);
    let array_names: Vec<String> = workload
        .arrays()
        .iter()
        .map(|d| d.name().to_owned())
        .collect();
    let mut state = OracleState::new(array_names.len(), n);
    let mut cell = StaticCell {
        chiplets: n,
        boundaries: rounds.len() as u64,
        must_sync: 0,
        may_elide: 0,
        unknown: 0,
        diagnostics: Vec::new(),
    };
    for (r, round) in rounds.iter().enumerate() {
        let verdict = classify(&state, round, &array_names);
        match &verdict {
            Verdict::MustSync { deps } => {
                cell.must_sync += 1;
                cell.diagnostics.push(format!(
                    "boundary {r} must-sync: {}{}",
                    deps[0],
                    if deps.len() > 1 {
                        format!(" (+{} more)", deps.len() - 1)
                    } else {
                        String::new()
                    }
                ));
            }
            Verdict::MayElide { .. } => cell.may_elide += 1,
            Verdict::Unknown { .. } => cell.unknown += 1,
        }
        if !matches!(verdict, Verdict::MayElide { .. }) {
            for c in 0..n {
                state.bulk(c);
            }
        }
        state.apply_round(round);
    }
    cell
}

/// One differential-sanitizer run: workload x protocol x chiplet count.
#[derive(Debug, Clone)]
pub struct DiffCell {
    /// Protocol replayed.
    pub protocol: ProtocolKind,
    /// Chiplet count replayed.
    pub chiplets: usize,
    /// Kernel boundaries observed (must equal the static round count).
    pub boundaries: u64,
    /// Boundaries where the engine performed at least one sync op.
    pub synced: u64,
    /// Boundaries the engine fully elided.
    pub elided: u64,
    /// Soundness violations: oracle `MustSync`, engine elided.
    pub violations: Vec<String>,
    /// `MayElide` boundaries the engine nevertheless synced.
    pub headroom_boundaries: u64,
    /// Simulated cycles the engine spent syncing `MayElide` boundaries.
    pub headroom_sync_cycles: f64,
}

/// An abstract-state update for one engine sync op on a chiplet.
type SyncUpdate = fn(&mut OracleState, usize);

/// Replays `workload` x `protocol` x `n` through the real engine,
/// recording its events, and re-classifies every boundary in lockstep
/// with the observed per-chiplet sync operations.
pub fn differential(workload: &Workload, protocol: ProtocolKind, n: usize) -> DiffCell {
    let mut events = Vec::new();
    Simulator::new(SimConfig::table1(n, protocol)).run_observed(workload, &mut events);
    let boundaries = events
        .iter()
        .filter(|e| matches!(e, SimEvent::Boundary(_)))
        .count();

    let rounds = build_rounds(workload, n);
    let array_names: Vec<String> = workload
        .arrays()
        .iter()
        .map(|d| d.name().to_owned())
        .collect();
    let mut state = OracleState::new(array_names.len(), n);

    let mut cell = DiffCell {
        protocol,
        chiplets: n,
        boundaries: boundaries as u64,
        synced: 0,
        elided: 0,
        violations: Vec::new(),
        headroom_boundaries: 0,
        headroom_sync_cycles: 0.0,
    };

    // The mirror must reproduce the engine's round structure exactly;
    // any drift is itself a finding.
    if rounds.len() != boundaries {
        cell.violations.push(format!(
            "round-mirror drift: oracle built {} rounds, engine logged {boundaries} boundaries",
            rounds.len(),
        ));
        return cell;
    }

    // One walk: a round's sync ops arrive before the `Boundary` that
    // closes it; the final drain is end-of-program and joins no round.
    let mut ops: Vec<(SyncUpdate, usize)> = Vec::new();
    let mut r = 0;
    for e in &events {
        let b = match *e {
            SimEvent::Acquire(op, _) => {
                ops.push((OracleState::acquire, op.chiplet.index()));
                continue;
            }
            SimEvent::Release(op, _) => {
                ops.push((OracleState::release, op.chiplet.index()));
                continue;
            }
            SimEvent::BulkSync(op, _) => {
                ops.push((OracleState::bulk, op.chiplet.index()));
                continue;
            }
            SimEvent::Boundary(b) => b,
            SimEvent::FinalDrain(..)
            | SimEvent::Elided { .. }
            | SimEvent::Kernel(_)
            | SimEvent::LinkBusy(_) => continue,
        };
        let round = &rounds[r];
        if b.kernels as usize != round.kernels {
            cell.violations.push(format!(
                "round-mirror drift at boundary {r}: oracle saw {} kernel(s), engine {}",
                round.kernels, b.kernels
            ));
            return cell;
        }
        let engine_synced = !ops.is_empty();
        if engine_synced {
            cell.synced += 1;
        } else {
            cell.elided += 1;
        }

        let verdict = classify(&state, round, &array_names);
        match &verdict {
            Verdict::MustSync { deps } if !engine_synced && protocol != ProtocolKind::Hmg => {
                cell.violations.push(format!(
                    "SOUNDNESS: {} n={n} boundary {r} elided but {}",
                    protocol.label(),
                    deps[0]
                ));
            }
            Verdict::MayElide { .. } if engine_synced => {
                cell.headroom_boundaries += 1;
                cell.headroom_sync_cycles += b.sync_cycles;
            }
            _ => {}
        }

        // Lockstep state update from the engine's observed operations.
        if protocol == ProtocolKind::Hmg {
            // Continuously coherent: every dependence is discharged by
            // the hardware protocol, not at boundaries.
            for c in 0..n {
                state.bulk(c);
            }
        } else {
            for &(apply, c) in &ops {
                apply(&mut state, c);
            }
        }
        ops.clear();
        state.apply_round(round);
        r += 1;
    }
    cell
}

/// The full oracle report over every registered workload.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Per-workload results, in registry order.
    pub workloads: Vec<WorkloadReport>,
}

/// One workload's static census and differential table.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// Dynamic kernel launches.
    pub kernels: u64,
    /// Static classification per chiplet count.
    pub static_cells: Vec<StaticCell>,
    /// Differential sanitizer per protocol x chiplet count.
    pub diff_cells: Vec<DiffCell>,
}

impl OracleReport {
    /// Total soundness violations across every cell (must be zero).
    pub fn violation_count(&self) -> u64 {
        self.workloads
            .iter()
            .flat_map(|w| &w.diff_cells)
            .map(|c| c.violations.len() as u64)
            .sum()
    }

    /// Total `MayElide` boundaries the engine synced anyway.
    pub fn headroom_boundaries(&self) -> u64 {
        self.workloads
            .iter()
            .flat_map(|w| &w.diff_cells)
            .map(|c| c.headroom_boundaries)
            .sum()
    }

    /// The schema the committed `results/CHECK_oracle.json` pins.
    pub fn to_json(&self) -> Json {
        let mut workloads = Vec::new();
        for w in &self.workloads {
            let statics: Vec<Json> = w
                .static_cells
                .iter()
                .map(|s| {
                    Json::object()
                        .with("chiplets", s.chiplets as u64)
                        .with("boundaries", s.boundaries)
                        .with("must_sync", s.must_sync)
                        .with("may_elide", s.may_elide)
                        .with("unknown", s.unknown)
                })
                .collect();
            let diffs: Vec<Json> = w
                .diff_cells
                .iter()
                .map(|d| {
                    Json::object()
                        .with("protocol", d.protocol.label())
                        .with("chiplets", d.chiplets as u64)
                        .with("boundaries", d.boundaries)
                        .with("synced", d.synced)
                        .with("elided", d.elided)
                        .with("violations", d.violations.len() as u64)
                        .with("headroom_boundaries", d.headroom_boundaries)
                        .with("headroom_sync_cycles", d.headroom_sync_cycles)
                })
                .collect();
            workloads.push(
                Json::object()
                    .with("workload", w.name.as_str())
                    .with("kernels", w.kernels)
                    .with("static", statics)
                    .with("differential", diffs),
            );
        }
        Json::object()
            .with("tool", "chiplet-check")
            .with("mode", "oracle")
            .with("page_lines", chiplet_mem::addr::LINES_PER_PAGE)
            .with(
                "chiplet_counts",
                CHIPLET_COUNTS
                    .iter()
                    .map(|&n| Json::from(n as u64))
                    .collect::<Vec<Json>>(),
            )
            .with(
                "protocols",
                PROTOCOLS
                    .iter()
                    .map(|p| Json::from(p.label()))
                    .collect::<Vec<Json>>(),
            )
            .with("soundness_violations", self.violation_count())
            .with("headroom_boundaries", self.headroom_boundaries())
            .with("workloads", workloads)
    }
}

/// Runs the full oracle: static census plus differential sanitizer over
/// every registered workload x [`PROTOCOLS`] x [`CHIPLET_COUNTS`]. The
/// differential cells fan out over the fleet's workers; the ordered
/// commit keeps the report identical at every worker count.
pub fn run() -> OracleReport {
    let loaded: Vec<(String, Workload)> = chiplet_workloads::known_names()
        .into_iter()
        .map(|name| {
            // chiplet-check: allow(no-panic) — known_names() only yields registered workloads
            let w = chiplet_workloads::lookup(&name).expect("registered workload");
            (name, w)
        })
        .collect();
    let cells: Vec<(&Workload, ProtocolKind, usize)> = loaded
        .iter()
        .flat_map(|(_, w)| {
            PROTOCOLS
                .iter()
                .flat_map(move |&p| CHIPLET_COUNTS.iter().map(move |&n| (w, p, n)))
        })
        .collect();
    let mut diffs =
        fleet::parallel_map_ok(&cells, fleet::workers(), |&(w, p, n)| differential(w, p, n))
            .into_iter();
    let per_workload = PROTOCOLS.len() * CHIPLET_COUNTS.len();
    let workloads = loaded
        .iter()
        .map(|(name, w)| WorkloadReport {
            name: name.clone(),
            kernels: w.kernel_count() as u64,
            static_cells: CHIPLET_COUNTS
                .iter()
                .map(|&n| analyze_static(w, n))
                .collect(),
            diff_cells: diffs.by_ref().take(per_workload).collect(),
        })
        .collect();
    OracleReport { workloads }
}
