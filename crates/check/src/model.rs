//! Shared model-checking core for the CCT (paper Figure 6) state machine,
//! plus the exhaustive BFS engine.
//!
//! Both engines — [`Bfs`] here and [`crate::dpor::Dpor`] — drive the
//! *real* `cpelide::table::ChipletCoherenceTable` (never a
//! re-implementation) through states reachable under a bounded but
//! complete action alphabet ([`crate::alphabet`]), behind one
//! [`Explorer`] seam. States are canonicalized through the table's
//! public snapshot view (rows plus the persistent first-touch home log,
//! which outlives row residency and therefore belongs in the state key).
//!
//! On every transition (`step`) the checker asserts four safety
//! properties:
//!
//! 1. **Single un-flushed writer (write/write coherence):** a local write
//!    never overlaps dirty lines another chiplet was allowed to keep — a
//!    lost-update hazard, since the stale dirty line could later be
//!    flushed over the newer data. This is the sound statement of the
//!    paper's "one Dirty owner" at the metadata level: the naive "at most
//!    one chiplet Dirty per entry" is intentionally false for CPElide (a
//!    partitioned write leaves every chiplet Dirty on disjoint slices),
//!    and even "no two Dirty chiplets with overlapping cacheable ranges"
//!    is false, because tracked ranges are over-approximations — a
//!    flushed chiplet keeps its wide tracked range while Valid and may
//!    re-dirty only a slice of it. (Under the racy alphabet overlapping
//!    *same-launch* writers are exempt from each other — the race itself
//!    is undefined behavior at the data level — but both must still be
//!    flushed before anyone else looks, which invariant 3 enforces.)
//! 2. **Stale-needs-acquire:** a chiplet that was Stale on a structure is
//!    never granted local access to it without appearing in the launch's
//!    acquire set.
//! 3. **No unreachable dirty data:** if a chiplet holds Dirty lines and
//!    another chiplet's launch range overlaps them, the holder appears in
//!    the release set (or the acquire set — an acquire flushes before it
//!    invalidates); an elided release must mean no other chiplet can read
//!    the lines it skipped flushing.
//! 4. **Figure 6 legality, cross-validated:** every state transition the
//!    table applies is re-checked against `chiplet_obs::audit::legal`, an
//!    independent transcription of the Figure 6 relation — both through
//!    the table's attached auditor and by replaying the transition log
//!    here. A panic inside `prepare_launch` is also caught and reported
//!    as a violation.
//!
//! The [`Mutation`] seam deliberately corrupts what the invariant layer
//! sees — emulating known-bad table variants (a skipped flush edge, an
//! unconditional release elision, a dropped invalidation, an illegal
//! Figure 6 edge) — so the mutation-kill suite can prove each invariant
//! actually fires on the bug class it claims to catch.

use crate::alphabet::{build, Action, AlphabetSpec};
use chiplet_harness::json::Json;
use chiplet_mem::addr::ChipletId;
use chiplet_obs::audit::{legal, STATE_DIRTY, STATE_STALE};
use cpelide::api::ranges_overlap;
use cpelide::table::{ChipletCoherenceTable, EntrySnapshot, SyncActions};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::ops::Range;

/// Hard cap on visited states per system size: the reachable space is
/// finite (every tracked/home range lives in a small union lattice over
/// page-aligned slices), so hitting this cap means the model is wrong —
/// it is reported as a violation instead of hanging CI.
pub const STATE_LIMIT: usize = 500_000;

/// How many violation descriptions to keep verbatim (the census always
/// carries the full count).
const MAX_REPORTED: usize = 8;

/// The safety properties the checker asserts, used to classify
/// violations (and to let the mutation-kill suite assert that each
/// invariant fires on the bug class it exists for).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Invariant 1: single un-flushed writer.
    SingleWriter,
    /// Invariant 2: stale-needs-acquire.
    StaleNeedsAcquire,
    /// Invariant 3: no unreachable dirty data.
    UnreachableDirty,
    /// Invariant 4: Figure 6 legality (auditor, independent replay, or a
    /// caught panic inside `prepare_launch`).
    Fig6Legality,
    /// The exploration itself broke its finiteness argument (state cap).
    Finiteness,
}

impl Invariant {
    /// Census name of the invariant.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::SingleWriter => "single-unflushed-writer",
            Invariant::StaleNeedsAcquire => "stale-needs-acquire",
            Invariant::UnreachableDirty => "no-unreachable-dirty-data",
            Invariant::Fig6Legality => "figure6-legality-cross-validated",
            Invariant::Finiteness => "finite-state-space",
        }
    }
}

/// One invariant violation found during exploration.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which safety property failed.
    pub invariant: Invariant,
    /// Human-readable description with the acting launch and ranges.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant.name(), self.message)
    }
}

/// Checker self-test seam: a deliberate corruption of what the invariant
/// layer observes, emulating a known-bad table variant. Used by the
/// mutation-kill suite to prove the checker detects what it claims to
/// detect — the production table must never be run with one of these in
/// a census build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Drop one edge from every non-empty release set (a table that
    /// "forgets" one required flush).
    SkipFlushEdge,
    /// Clear the release set entirely (a table that elides every release
    /// unconditionally).
    ElideReleases,
    /// Clear the acquire set entirely (a table that never invalidates).
    DropInvalidations,
    /// Corrupt the first audited transition's destination state before
    /// the independent Figure 6 replay (a table whose state machine takes
    /// an illegal edge).
    CorruptTransition,
}

/// Exploration results for one engine × alphabet configuration.
#[derive(Debug, Clone)]
pub struct Census {
    /// Engine that produced this census (`"bfs"` or `"dpor"`).
    pub engine: &'static str,
    /// System size checked.
    pub chiplets: usize,
    /// Disjoint arrays in the alphabet.
    pub arrays: usize,
    /// Whether the racy two-stream actions were included.
    pub racy: bool,
    /// Action alphabet size.
    pub actions: usize,
    /// Distinct reachable states visited (including the empty initial
    /// table).
    pub states: usize,
    /// Transitions executed (`states × actions` for BFS; strictly fewer
    /// for DPOR on any shared configuration).
    pub transitions: usize,
    /// Maximum depth (boundaries from the initial table) at which a new
    /// state appeared.
    pub max_depth: usize,
    /// Maximum live table rows in any reachable state.
    pub max_live_entries: usize,
    /// Transitions requiring no synchronization at all (elisions whose
    /// safety the invariants vouch for).
    pub elided_transitions: usize,
    /// Whole-L2 acquires generated across all transitions.
    pub acquires_issued: u64,
    /// Whole-L2 releases generated across all transitions.
    pub releases_issued: u64,
    /// DPOR only: actions skipped because they were in a sleep set.
    pub sleep_skips: usize,
    /// DPOR only: node expansions skipped because the state was already
    /// explored under a sleep set subsumed by the current one.
    pub node_prunes: usize,
    /// Depth bound the exploration ran under (0 = unbounded, run to the
    /// natural closure of the reachable space).
    pub depth_cap: usize,
    /// Total invariant violations (0 for a sound table).
    pub violation_count: usize,
    /// Bitmask of [`Invariant`]s that fired at least once — unlike the
    /// samples below, never truncated, so it is order-independent across
    /// engines.
    pub fired_mask: u8,
    /// First few violations verbatim.
    pub violations: Vec<Violation>,
}

impl Census {
    pub(crate) fn new(
        engine: &'static str,
        spec: &AlphabetSpec,
        actions: usize,
        depth_cap: usize,
    ) -> Self {
        Census {
            engine,
            chiplets: spec.chiplets,
            arrays: spec.arrays,
            racy: spec.racy,
            actions,
            states: 0,
            transitions: 0,
            max_depth: 0,
            max_live_entries: 0,
            elided_transitions: 0,
            acquires_issued: 0,
            releases_issued: 0,
            sleep_skips: 0,
            node_prunes: 0,
            depth_cap,
            violation_count: 0,
            fired_mask: 0,
            violations: Vec::new(),
        }
    }

    pub(crate) fn violation(&mut self, invariant: Invariant, message: String) {
        self.fired_mask |= 1 << invariant as u8;
        if self.violations.len() < MAX_REPORTED {
            self.violations.push(Violation { invariant, message });
        }
        self.violation_count += 1;
    }

    /// True if `invariant` fired at least once during the exploration
    /// (tracked exhaustively via [`Census::fired_mask`], not just the
    /// sampled violations).
    pub fn fired(&self, invariant: Invariant) -> bool {
        self.fired_mask >> invariant as u8 & 1 == 1
    }

    /// Census names of every invariant that fired, sorted — an
    /// order-independent verdict summary two engines can be compared on.
    pub fn fired_kinds(&self) -> Vec<&'static str> {
        let mut kinds: Vec<&'static str> = [
            Invariant::SingleWriter,
            Invariant::StaleNeedsAcquire,
            Invariant::UnreachableDirty,
            Invariant::Fig6Legality,
            Invariant::Finiteness,
        ]
        .into_iter()
        .filter(|&i| self.fired(i))
        .map(Invariant::name)
        .collect();
        kinds.sort_unstable();
        kinds
    }
}

/// One engine's full exploration result: the census plus the set of
/// visited state fingerprints, for cross-engine coverage checks.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Aggregate counters and violations.
    pub census: Census,
    /// 128-bit FNV-1a fingerprints of every distinct visited state.
    pub visited: BTreeSet<u128>,
}

/// A model-checking engine: explores the CCT state space induced by an
/// alphabet spec and returns the census plus visited-state fingerprints.
/// The seam the BFS and DPOR engines share — and the one a HALCONE or
/// multi-stream table model can later plug into.
pub trait Explorer {
    /// Engine name recorded in the census (`"bfs"`, `"dpor"`).
    fn engine(&self) -> &'static str;
    /// Runs the exploration.
    fn explore(&self, spec: &AlphabetSpec) -> Exploration;
}

/// Canonical key for a table state: sorted row snapshots plus the sorted
/// home log. Excludes `last_use`/stats/audit tallies, which cannot affect
/// behavior at these bounds (capacity 64 with a handful of live rows
/// means the LRU eviction path is unreachable).
pub(crate) fn state_key(t: &ChipletCoherenceTable) -> String {
    let mut s = String::new();
    let opt = |s: &mut String, r: &Option<Range<u64>>| match r {
        Some(r) => {
            let _ = write!(s, "{}-{}", r.start, r.end);
        }
        None => s.push('_'),
    };
    for row in t.snapshot() {
        let _ = write!(s, "[{}-{} {:?}", row.span.start, row.span.end, row.mode);
        for j in 0..row.states.len() {
            let _ = write!(s, " {}:", row.states[j].encode());
            opt(&mut s, &row.ranges[j]);
            s.push('/');
            opt(&mut s, &row.home_ranges[j]);
        }
        s.push(']');
    }
    s.push('|');
    for (span, homes) in t.home_log_snapshot() {
        let _ = write!(s, "({}-{}", span.start, span.end);
        for h in &homes {
            s.push(' ');
            opt(&mut s, h);
        }
        s.push(')');
    }
    s
}

/// 128-bit FNV-1a over the canonical state key. Collisions at the
/// explored scales (≤ tens of millions of states) are vanishingly
/// unlikely (≈ n²/2¹²⁹), and a collision can only ever *merge* two
/// states — shrinking the census, never hiding a violation on an
/// executed transition.
pub(crate) fn fingerprint(t: &ChipletCoherenceTable) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
    let mut h = OFFSET;
    for b in state_key(t).as_bytes() {
        h ^= u128::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Checks invariants 1–3 for one transition; invariant 4 is checked by
/// [`step`] from the audit log. All three reason about the *pre*-launch
/// snapshot against the launch's declared ranges and the sync decision:
/// a chiplet's dirty lines survive phase 2 un-flushed exactly when it is
/// in neither the release nor the acquire set (an acquire flushes before
/// it invalidates).
fn check_invariants(
    pre: &[EntrySnapshot],
    action: &Action,
    sync: &SyncActions,
    n: usize,
    census: &mut Census,
) {
    let flushed = |k: usize| {
        let ck = ChipletId::new(k as u8);
        sync.releases.contains(&ck) || sync.acquires.contains(&ck)
    };
    // Invariant 1: single un-flushed writer. For every local write range,
    // no *other* chiplet may retain overlapping dirty lines through the
    // launch (its stale dirty copy could later flush over newer data).
    // Racy same-launch co-writers are exempt from each other: the data
    // race is undefined at the line level, but their dirty metadata is
    // still covered by invariant 3 at every later boundary.
    for (span, mode, rs) in &action.structures {
        if !mode.writes() {
            continue;
        }
        for row in pre {
            if !ranges_overlap(span, &row.span) {
                continue;
            }
            for (j, write) in rs.iter().enumerate() {
                let Some(write) = write else { continue };
                for (k, co) in rs.iter().enumerate().take(n) {
                    if k == j || row.states[k].encode() != STATE_DIRTY || flushed(k) {
                        continue;
                    }
                    if action.racy && co.is_some() {
                        continue; // racy co-writer of this same launch
                    }
                    let Some(dirty) = row.cacheable(ChipletId::new(k as u8)) else {
                        continue;
                    };
                    if ranges_overlap(write, &dirty) {
                        census.violation(
                            Invariant::SingleWriter,
                            format!(
                                "[n={n}] action {}: chiplet {j} writes {write:?} \
                                 of {:?} while chiplet {k} keeps un-flushed \
                                 dirty lines {dirty:?} (lost-update hazard)",
                                action.name, row.span
                            ),
                        );
                    }
                }
            }
        }
    }
    for row in pre {
        for j in 0..n {
            let cj = ChipletId::new(j as u8);
            let state = row.states[j].encode();
            if state == STATE_STALE {
                let touches = action
                    .structures
                    .iter()
                    .any(|(span, _, rs)| rs[j].is_some() && ranges_overlap(span, &row.span));
                if touches && !sync.acquires.contains(&cj) {
                    census.violation(
                        Invariant::StaleNeedsAcquire,
                        format!(
                            "[n={n}] action {}: chiplet {j} was Stale on \
                             {:?} but got local access without an acquire",
                            action.name, row.span
                        ),
                    );
                }
            }
            if state == STATE_DIRTY {
                let Some(dirty) = row.cacheable(cj) else {
                    continue;
                };
                let other_reads = action.structures.iter().any(|(span, _, rs)| {
                    ranges_overlap(span, &row.span)
                        && rs.iter().enumerate().any(|(k, r)| {
                            k != j && r.as_ref().is_some_and(|r| ranges_overlap(r, &dirty))
                        })
                });
                if other_reads && !flushed(j) {
                    census.violation(
                        Invariant::UnreachableDirty,
                        format!(
                            "[n={n}] action {}: chiplet {j} held dirty lines \
                             {dirty:?} of {:?} that another chiplet accesses, \
                             but its release was elided",
                            action.name, row.span
                        ),
                    );
                }
            }
        }
    }
}

/// Executes one transition of the model: clones `state`, drives the real
/// table's `prepare_launch` under a fresh per-edge auditor, replays the
/// audit log against the independent Figure 6 relation, applies the
/// optional [`Mutation`], and checks invariants 1–3 against the
/// pre-snapshot. Returns the successor table and the *real* (unmutated)
/// sync decision, or `None` when `prepare_launch` panicked (recorded as
/// a violation). Shared verbatim by both engines so their verdicts can
/// only differ in *which* transitions they execute, never in how one is
/// judged.
pub(crate) fn step(
    state: &ChipletCoherenceTable,
    action: &Action,
    n: usize,
    mutation: Option<Mutation>,
    census: &mut Census,
) -> Option<(ChipletCoherenceTable, SyncActions)> {
    census.transitions += 1;
    let info = action.launch(n);
    let pre = state.snapshot();
    let mut next = state.clone();
    // A fresh auditor per transition keeps the Figure 6 log local to this
    // edge (and bounded), instead of accumulating along the whole path.
    next.enable_audit(true);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let sync = next.prepare_launch(&info);
        (next, sync)
    }));
    let (next, mut sync) = match outcome {
        Ok(v) => v,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            census.violation(
                Invariant::Fig6Legality,
                format!(
                    "[n={n}] action {} panicked in prepare_launch: {msg}",
                    action.name
                ),
            );
            return None;
        }
    };
    // Invariant 4: the table's own auditor plus an independent replay of
    // its log against the Figure 6 relation.
    if let Some(a) = next.auditor() {
        if a.violations() != 0 {
            census.violation(
                Invariant::Fig6Legality,
                format!(
                    "[n={n}] action {}: auditor flagged {} illegal \
                     transition(s); first: {}",
                    action.name,
                    a.violations(),
                    a.first_violation()
                        .map(|e| e.to_string())
                        .unwrap_or_default()
                ),
            );
        }
        for (i, tr) in a.log().iter().enumerate() {
            let to = if i == 0 && mutation == Some(Mutation::CorruptTransition) {
                tr.to ^ 0b01 // a known-bad state machine takes a wrong edge
            } else {
                tr.to
            };
            if legal(tr.from, tr.event) != Some(to) {
                census.violation(
                    Invariant::Fig6Legality,
                    format!(
                        "[n={n}] action {}: transition disagrees with \
                         chiplet_obs::audit::legal: {tr}",
                        action.name
                    ),
                );
            }
        }
    }
    // Mutations corrupt only what the invariant layer *sees*; the edge
    // itself returns the real sync decision, because the table already
    // applied the real flushes/invalidations inside `prepare_launch` —
    // DPOR's elision-based commutation must be judged on what actually
    // happened to the cache, or mutated runs would explore unsoundly.
    let real = sync.clone();
    match mutation {
        Some(Mutation::SkipFlushEdge) => {
            sync.releases.pop();
        }
        Some(Mutation::ElideReleases) => sync.releases.clear(),
        Some(Mutation::DropInvalidations) => sync.acquires.clear(),
        Some(Mutation::CorruptTransition) | None => {}
    }
    check_invariants(&pre, action, &sync, n, census);
    if sync.is_empty() {
        census.elided_transitions += 1;
    }
    census.acquires_issued += sync.acquires.len() as u64;
    census.releases_issued += sync.releases.len() as u64;
    Some((next, real))
}

/// The exhaustive BFS engine: visits every reachable state exactly once
/// and expands the full alphabet from each — the ground-truth census the
/// DPOR engine is differentially validated against.
#[derive(Debug, Clone)]
pub struct Bfs {
    /// Visited-state cap; exceeding it records a [`Invariant::Finiteness`]
    /// violation when `overflow_is_violation` is set.
    pub state_cap: usize,
    /// Depth bound in kernel boundaries (0 = unbounded): states at the
    /// bound are counted but not expanded. Lets the differential and
    /// property suites compare both engines over identical depth-bounded
    /// spaces.
    pub depth_cap: usize,
    /// Whether hitting the cap is a violation (census runs) or just an
    /// early stop (fast partial explorations in unit tests).
    pub overflow_is_violation: bool,
    /// Checker self-test seam; `None` for every census run.
    pub mutation: Option<Mutation>,
}

impl Bfs {
    /// The exhaustive configuration census runs use.
    pub fn exhaustive() -> Self {
        Bfs {
            state_cap: STATE_LIMIT,
            depth_cap: 0,
            overflow_is_violation: true,
            mutation: None,
        }
    }

    /// A deliberately partial but fast exploration (unit tests).
    pub fn capped(state_cap: usize) -> Self {
        Bfs {
            state_cap,
            depth_cap: 0,
            overflow_is_violation: false,
            mutation: None,
        }
    }
}

impl Explorer for Bfs {
    fn engine(&self) -> &'static str {
        "bfs"
    }

    fn explore(&self, spec: &AlphabetSpec) -> Exploration {
        let n = spec.chiplets;
        let actions = build(spec);
        let mut census = Census::new(self.engine(), spec, actions.len(), self.depth_cap);

        let initial = ChipletCoherenceTable::new(n);
        let mut visited: BTreeSet<u128> = BTreeSet::new();
        visited.insert(fingerprint(&initial));
        let mut frontier: VecDeque<(ChipletCoherenceTable, usize)> = VecDeque::new();
        frontier.push_back((initial, 0));
        census.states = 1;

        'bfs: while let Some((state, depth)) = frontier.pop_front() {
            if self.depth_cap > 0 && depth >= self.depth_cap {
                continue; // frontier: state counted, not expanded
            }
            census.max_live_entries = census.max_live_entries.max(state.live_entries());
            for action in &actions {
                let Some((next, _)) = step(&state, action, n, self.mutation, &mut census) else {
                    continue;
                };
                if visited.insert(fingerprint(&next)) {
                    census.states += 1;
                    census.max_depth = census.max_depth.max(depth + 1);
                    if census.states > self.state_cap {
                        if self.overflow_is_violation {
                            census.violation(
                                Invariant::Finiteness,
                                format!(
                                    "[n={n}] state space exceeded the {}-state \
                                     cap; the finiteness argument is broken",
                                    self.state_cap
                                ),
                            );
                        }
                        break 'bfs;
                    }
                    frontier.push_back((next, depth + 1));
                }
            }
        }
        Exploration { census, visited }
    }
}

/// The census runs CI gates on: the exhaustive BFS at N ∈ {2,3,4} × 2
/// race-free arrays (the historical ground truth), the DPOR engine on
/// the same configurations (differential evidence: identical states and
/// verdicts, strictly fewer executed transitions), and the DPOR engine
/// at N = 6 chiplets × 3 arrays under the racy two-stream alphabet —
/// beyond BFS reach.
pub fn census_plan() -> Vec<(AlphabetSpec, Box<dyn Explorer>)> {
    let mut plan: Vec<(AlphabetSpec, Box<dyn Explorer>)> = Vec::new();
    for n in [2usize, 3, 4] {
        plan.push((
            AlphabetSpec::race_free(n, 2),
            Box::new(Bfs::exhaustive()) as Box<dyn Explorer>,
        ));
    }
    for n in [2usize, 3, 4] {
        plan.push((
            AlphabetSpec::race_free(n, 2),
            Box::new(crate::dpor::Dpor::exhaustive()),
        ));
    }
    plan.push((
        AlphabetSpec::racy(6, 3),
        Box::new(crate::dpor::Dpor::flagship()),
    ));
    plan
}

/// Runs the full census plan (optionally filtered to one engine name)
/// and assembles the validated census report.
pub fn run(engine_filter: Option<&str>) -> (Vec<Census>, Json) {
    let censuses: Vec<Census> = census_plan()
        .into_iter()
        .filter(|(_, e)| engine_filter.is_none_or(|f| f == e.engine()))
        .map(|(spec, e)| e.explore(&spec).census)
        .collect();
    let json = census_json(&censuses);
    (censuses, json)
}

/// The JSON census document for `results/CHECK_model.json`.
pub fn census_json(censuses: &[Census]) -> Json {
    let runs: Vec<Json> = censuses
        .iter()
        .map(|c| {
            Json::object()
                .with("engine", c.engine)
                .with("chiplets", c.chiplets as u64)
                .with("arrays", c.arrays as u64)
                .with("racy", c.racy)
                .with("actions", c.actions as u64)
                .with("states", c.states as u64)
                .with("transitions", c.transitions as u64)
                .with("max_depth", c.max_depth as u64)
                .with("max_live_entries", c.max_live_entries as u64)
                .with("elided_transitions", c.elided_transitions as u64)
                .with("acquires_issued", c.acquires_issued)
                .with("releases_issued", c.releases_issued)
                .with("sleep_set_prunes", (c.sleep_skips + c.node_prunes) as u64)
                .with("sleep_skips", c.sleep_skips as u64)
                .with("node_prunes", c.node_prunes as u64)
                .with("depth_cap", c.depth_cap as u64)
                .with("violations", c.violation_count as u64)
                .with(
                    "violation_samples",
                    c.violations
                        .iter()
                        .map(|v| Json::from(v.to_string()))
                        .collect::<Vec<Json>>(),
                )
        })
        .collect();
    Json::object()
        .with("tool", "chiplet-check")
        .with("mode", "model-check")
        .with(
            "invariants",
            vec![
                Json::from(Invariant::SingleWriter.name()),
                Json::from(Invariant::StaleNeedsAcquire.name()),
                Json::from(Invariant::UnreachableDirty.name()),
                Json::from(Invariant::Fig6Legality.name()),
            ],
        )
        .with("runs", runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_mem::addr::LINES_PER_PAGE;
    use chiplet_mem::array::AccessMode;
    use cpelide::api::KernelLaunchInfo;

    #[test]
    fn two_chiplet_space_prefix_is_clean_and_nontrivial() {
        // A capped exploration keeps the debug-mode test fast; the
        // exhaustive run (39k/137k states per bound, zero violations)
        // is CI's release-mode `--model-check` step.
        let x = Bfs::capped(2_000).explore(&AlphabetSpec::race_free(2, 2));
        let c = x.census;
        assert_eq!(c.violation_count, 0, "{:?}", c.violations);
        assert!(c.states > 2_000, "suspiciously small space: {}", c.states);
        assert!(c.elided_transitions > 0, "no elisions ever proven safe");
        assert!(c.max_live_entries == 2, "both arrays must go live");
        assert_eq!(x.visited.len(), c.states, "census counts visited keys");
    }

    #[test]
    fn racy_alphabet_prefix_is_clean() {
        // The racy two-stream actions must not let the production table
        // elide its way into a lost update (nor panic).
        let c = Bfs::capped(2_000).explore(&AlphabetSpec::racy(2, 2)).census;
        assert_eq!(c.violation_count, 0, "{:?}", c.violations);
        assert!(c.racy);
    }

    #[test]
    fn census_json_validates() {
        let c = Bfs::capped(500)
            .explore(&AlphabetSpec::race_free(2, 2))
            .census;
        let text = census_json(&[c]).render();
        chiplet_harness::json::parse(&text).unwrap();
    }

    #[test]
    fn state_key_distinguishes_home_log() {
        // Two tables with identical rows but different home logs must not
        // merge: homes outlive residency and change future elisions.
        let t1 = ChipletCoherenceTable::new(2);
        let mut t2 = ChipletCoherenceTable::new(2);
        let info = KernelLaunchInfo::builder(0, [ChipletId::new(0)])
            .structure(
                0,
                2 * LINES_PER_PAGE,
                AccessMode::ReadOnly,
                [Some(0..2 * LINES_PER_PAGE), None],
            )
            .build();
        t2.prepare_launch(&info);
        assert_ne!(state_key(&t1), state_key(&t2));
        assert_ne!(fingerprint(&t1), fingerprint(&t2));
        assert!(!t2.home_log_snapshot().is_empty());
    }

    #[test]
    fn racy_read_write_pair_is_detected_not_ignored() {
        // A genuinely racy *read/write* pair — the same array labeled
        // twice in one launch, stream 0 writing while stream 1 reads —
        // is beyond the CCT's contract (the reader observes mid-launch
        // staleness). The checker must surface that as a Figure 6
        // violation (caught panic on the Stale local access), never
        // explore past it silently. This is why the census alphabet's
        // racy actions are write/write: those the table must (and does)
        // handle conservatively.
        let n = 2;
        let span = 0..n as u64 * LINES_PER_PAGE;
        let mut census = Census::new("test", &AlphabetSpec::racy(n, 1), 1, 0);
        let mut table = ChipletCoherenceTable::new(n);
        // Prime chiplet 1 with a Valid copy so the racy write stales it.
        let prime = KernelLaunchInfo::builder(0, [ChipletId::new(1)])
            .structure(
                span.start,
                span.end,
                AccessMode::ReadOnly,
                [None, Some(span.clone())],
            )
            .build();
        table.prepare_launch(&prime);
        let racy_pair = Action {
            name: "racy-rw-pair".into(),
            structures: vec![
                (
                    span.clone(),
                    AccessMode::ReadWrite,
                    vec![Some(span.clone()), None],
                ),
                (
                    span.clone(),
                    AccessMode::ReadOnly,
                    vec![None, Some(span.clone())],
                ),
            ],
            arrays_touched: 1,
            racy: true,
        };
        let out = step(&table, &racy_pair, n, None, &mut census);
        assert!(
            out.is_none(),
            "the racy read/write pair must not be absorbed"
        );
        assert!(
            census.fired(Invariant::Fig6Legality),
            "expected a Figure 6 violation, got {:?}",
            census.violations
        );
    }
}
