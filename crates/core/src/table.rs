//! The Chiplet Coherence Table and CPElide's lazy acquire/release algorithm
//! (paper §III).
//!
//! The table lives in the global CP's private memory. Each row tracks one
//! data structure: its base address (identity), the last touched address
//! range per chiplet, its access mode, and a 2-bit state per chiplet
//! ([`EntryState`]). At every kernel launch [`ChipletCoherenceTable::prepare_launch`]
//! inspects the kernel's labeled structures **once** and decides which
//! chiplets' L2s must be invalidated (acquires) and/or flushed (releases)
//! before the kernel may issue memory accesses; everything else is elided.
//!
//! Because the CP can only operate on whole L2 caches (paper §VI,
//! "Fine-grained Hardware Range Based Flush"), a generated acquire or
//! release affects *every* structure cached on that chiplet; the table
//! applies those whole-cache side effects to all rows.

use crate::api::{range_union, ranges_overlap, KernelLaunchInfo, StructureAccess};
use crate::coarsen::coarsen_structures;
use crate::state::{EntryState, StateEvent};
use crate::{MAX_STRUCTURES_PER_KERNEL, TABLE_CAPACITY};
use chiplet_mem::addr::{ChipletId, LINES_PER_PAGE};
use chiplet_mem::array::AccessMode;
use chiplet_obs::TransitionAuditor;
use std::fmt;
use std::ops::Range;

/// One first-touch placement record: a structure span plus the per-chiplet
/// home ranges fixed for it at dispatch time.
pub type HomeRecord = (Range<u64>, Vec<Option<Range<u64>>>);

/// One table row.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TableEntry {
    /// Stable identity for the audit trail: survives row motion within
    /// `entries`, but a structure that is removed and later re-tracked
    /// gets a fresh id (it is a new residency episode).
    id: u32,
    base_line: u64,
    end_line: u64,
    mode: AccessMode,
    /// Last touched range per chiplet (union over launches while resident).
    ranges: Vec<Option<Range<u64>>>,
    /// First-touch proxy: the range each chiplet covered when the structure
    /// was first dispatched. Under first-touch placement those pages are
    /// homed at that chiplet, and a chiplet's L2 can only cache lines homed
    /// there — so staleness and dirtiness checks are confined to this
    /// range. The global CP knows it because it performed the dispatch.
    home_ranges: Vec<Option<Range<u64>>>,
    states: Vec<EntryState>,
    last_use: u64,
}

impl TableEntry {
    fn new(id: u32, s: &StructureAccess, n: usize, kernel: u64) -> Self {
        TableEntry {
            id,
            base_line: s.base_line,
            end_line: s.end_line,
            mode: s.mode,
            ranges: vec![None; n],
            home_ranges: s
                .ranges
                .iter()
                .map(|o| o.as_ref().map(page_aligned))
                .collect(),
            states: vec![EntryState::NotPresent; n],
            last_use: kernel,
        }
    }

    fn span(&self) -> Range<u64> {
        self.base_line..self.end_line
    }

    fn all_not_present(&self) -> bool {
        self.states.iter().all(|&s| s == EntryState::NotPresent)
    }

    /// The lines chiplet `j` may actually hold in its L2 for this
    /// structure: what it touched, intersected with what is homed there.
    fn cacheable(&self, j: ChipletId) -> Option<Range<u64>> {
        let tracked = self.ranges[j.index()].as_ref()?;
        let home = self.home_ranges[j.index()].as_ref()?;
        let r = tracked.start.max(home.start)..tracked.end.min(home.end);
        (r.start < r.end).then_some(r)
    }
}

/// Widens a line range to page boundaries.
///
/// First-touch placement is page-granular: when a partition boundary cuts
/// through a page, the single chiplet that touched the page first homes
/// *all* of its lines — including lines past the boundary that the
/// line-granular hint attributes to the neighbour. Home claims must
/// therefore be tracked at page granularity, or a chiplet's dirty/stale
/// lines in a boundary-straddling page escape the [`TableEntry::cacheable`]
/// bound and the CP elides a release/acquire it actually needed (observable
/// as stale reads whenever an array's lines don't divide page-aligned
/// across the chiplets, e.g. 8192 lines on 3 chiplets). Widening a home
/// claim only ever produces extra synchronization, never less.
fn page_aligned(r: &Range<u64>) -> Range<u64> {
    let start = r.start - r.start % LINES_PER_PAGE;
    let end = r.end.div_ceil(LINES_PER_PAGE) * LINES_PER_PAGE;
    start..end
}

/// True if `range` lies entirely within the merged union of the chiplets'
/// home ranges (i.e. every page it can touch already has a home).
///
/// Runs on the CCT lookup path for every local access classification, so it
/// advances a cover frontier over the (at most chiplet-count) intervals in
/// place rather than collecting and sorting them.
fn covered_by_homes(homes: &[Option<Range<u64>>], range: &Range<u64>) -> bool {
    let mut cursor = range.start;
    loop {
        // Furthest the cover extends using intervals that reach `cursor`.
        let mut best = cursor;
        for iv in homes.iter().flatten() {
            if iv.start <= cursor {
                best = best.max(iv.end.min(range.end));
            }
        }
        if best >= range.end {
            return true;
        }
        if best == cursor {
            return false; // gap at `cursor`: no interval extends the cover
        }
        cursor = best;
    }
}

/// The per-chiplet synchronization operations one kernel launch requires.
///
/// Acquires are whole-L2 **flush-then-invalidate** operations (dirty lines
/// must not be lost); releases are whole-L2 dirty flushes that retain clean
/// copies. Per the paper's lazy ordering, the consumer performs acquires and
/// releases after the previous kernel completes but before the new kernel's
/// first memory access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncActions {
    /// Chiplets whose L2 must be invalidated (acquire).
    pub acquires: Vec<ChipletId>,
    /// Chiplets whose L2 dirty data must be written back (release).
    pub releases: Vec<ChipletId>,
}

impl SyncActions {
    /// True if the launch needs no synchronization at all — the fully
    /// elided fast path.
    pub fn is_empty(&self) -> bool {
        self.acquires.is_empty() && self.releases.is_empty()
    }
}

/// Cumulative table statistics for the evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Kernel launches processed.
    pub launches: u64,
    /// Whole-L2 acquires generated.
    pub acquires_issued: u64,
    /// Whole-L2 releases generated.
    pub releases_issued: u64,
    /// Per-chiplet acquires the baseline would have performed but CPElide
    /// skipped (`launches * chiplets - issued`).
    pub acquires_elided: u64,
    /// Per-chiplet releases the baseline would have performed but skipped.
    pub releases_elided: u64,
    /// High-water mark of live entries (paper: ≤ 11 across all workloads).
    pub max_live_entries: usize,
    /// Launches whose structure list had to be coarsened (> 8 structures).
    pub coarsenings: u64,
    /// Entries evicted for capacity (paper: never happens; kept for safety).
    pub evictions: u64,
}

/// The Chiplet Coherence Table (paper Figure 5).
///
/// # Example
///
/// ```
/// use cpelide::table::ChipletCoherenceTable;
/// use cpelide::api::KernelLaunchInfo;
/// use cpelide::state::EntryState;
/// use chiplet_mem::array::AccessMode;
/// use chiplet_mem::addr::ChipletId;
///
/// let mut t = ChipletCoherenceTable::new(2);
/// let k = KernelLaunchInfo::builder(0, ChipletId::all(2))
///     .structure(0, 100, AccessMode::ReadWrite, [Some(0..50), Some(50..100)])
///     .build();
/// assert!(t.prepare_launch(&k).is_empty());
/// assert_eq!(t.state_of(0, ChipletId::new(0)), EntryState::Dirty);
/// ```
#[derive(Debug, Clone)]
pub struct ChipletCoherenceTable {
    num_chiplets: usize,
    capacity: usize,
    entries: Vec<TableEntry>,
    /// First-touch placement record per structure span. Page homes are
    /// fixed at dispatch time and outlive table residency, so this log
    /// survives row removal: a recreated row must not re-infer narrower
    /// homes from the new launch alone, or a chiplet's dirty/stale lines
    /// could escape the [`TableEntry::cacheable`] bound (unsound elision).
    /// The CP can always re-derive this because it performed every
    /// dispatch.
    home_log: Vec<HomeRecord>,
    stats: TableStats,
    next_entry_id: u32,
    /// Optional transition audit trail (see `chiplet-obs`). When enabled,
    /// every state transition applied by [`ChipletCoherenceTable::prepare_launch`]
    /// is re-validated against the Figure 6 relation; an illegal transition
    /// panics in debug/test builds and is counted in release builds.
    audit: Option<TransitionAuditor>,
}

/// Applies one state event to `states[chiplet]`, recording it into the
/// auditor when one is attached. A free function so callers can borrow
/// `entries` and `audit` disjointly.
fn apply_event(
    audit: &mut Option<TransitionAuditor>,
    entry_id: u32,
    chiplet: usize,
    kernel: u64,
    state: &mut EntryState,
    ev: StateEvent,
) {
    let from = *state;
    let to = from.on_event(ev);
    if let Some(a) = audit {
        let res = a.record(
            entry_id,
            chiplet as u32,
            kernel,
            from.encode(),
            ev.encode(),
            to.encode(),
        );
        if cfg!(debug_assertions) {
            if let Err(e) = res {
                panic!("{e}");
            }
        }
    }
    *state = to;
}

impl ChipletCoherenceTable {
    /// Creates a table for an `n`-chiplet system with the paper's 64-entry
    /// capacity.
    pub fn new(num_chiplets: usize) -> Self {
        Self::with_capacity(num_chiplets, TABLE_CAPACITY)
    }

    /// Creates a table with a custom capacity (CPs are programmable, so the
    /// size can be raised at the cost of CP memory; paper §III-A).
    ///
    /// # Panics
    ///
    /// Panics if `num_chiplets` is 0 or exceeds 16, or `capacity` is 0.
    pub fn with_capacity(num_chiplets: usize, capacity: usize) -> Self {
        assert!(
            (1..=16).contains(&num_chiplets),
            "1..=16 chiplets supported"
        );
        assert!(capacity > 0, "table must hold at least one entry");
        ChipletCoherenceTable {
            num_chiplets,
            capacity,
            entries: Vec::new(),
            home_log: Vec::new(),
            stats: TableStats::default(),
            next_entry_id: 0,
            audit: None,
        }
    }

    /// Attaches a [`TransitionAuditor`]: every subsequent state transition
    /// is validated against the Figure 6 relation and tallied into
    /// per-structure residency counts. `keep_log` additionally retains the
    /// full transition sequence (use for short runs only).
    pub fn enable_audit(&mut self, keep_log: bool) {
        let mut a = TransitionAuditor::new();
        a.keep_log(keep_log);
        self.audit = Some(a);
    }

    /// The attached auditor, if [`enable_audit`] was called.
    ///
    /// [`enable_audit`]: ChipletCoherenceTable::enable_audit
    pub fn auditor(&self) -> Option<&TransitionAuditor> {
        self.audit.as_ref()
    }

    /// Merged home ranges of every `home_log` record overlapping `span`,
    /// or `None` if the span has never been dispatched.
    fn homes_on_record(&self, span: &Range<u64>) -> Option<Vec<Option<Range<u64>>>> {
        let mut found: Option<Vec<Option<Range<u64>>>> = None;
        for (r, hs) in &self.home_log {
            if !ranges_overlap(r, span) {
                continue;
            }
            let homes = found.get_or_insert_with(|| vec![None; self.num_chiplets]);
            for (h, old) in homes.iter_mut().zip(hs) {
                if let Some(o) = old {
                    *h = Some(match h.take() {
                        Some(cur) => range_union(&cur, o),
                        None => o.clone(),
                    });
                }
            }
        }
        found
    }

    /// Records (and coalesces) the first-touch homes for `span`. Widening
    /// a home only ever produces extra synchronization, so merging by
    /// union is always safe.
    fn record_homes(&mut self, mut span: Range<u64>, mut homes: Vec<Option<Range<u64>>>) {
        while let Some(pos) = self
            .home_log
            .iter()
            .position(|(r, _)| ranges_overlap(r, &span))
        {
            let (r, hs) = self.home_log.swap_remove(pos);
            span = span.start.min(r.start)..span.end.max(r.end);
            for (h, old) in homes.iter_mut().zip(hs) {
                if let Some(o) = old {
                    *h = Some(match h.take() {
                        Some(cur) => range_union(&cur, &o),
                        None => o,
                    });
                }
            }
        }
        self.home_log.push((span, homes));
    }

    /// The system's chiplet count.
    pub fn num_chiplets(&self) -> usize {
        self.num_chiplets
    }

    /// Live (resident) entries.
    pub fn live_entries(&self) -> usize {
        self.entries.len()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// The tracked state of the structure whose span contains `line` on
    /// `chiplet` ([`EntryState::NotPresent`] if untracked).
    pub fn state_of(&self, line: u64, chiplet: ChipletId) -> EntryState {
        self.entries
            .iter()
            .find(|e| e.span().contains(&line))
            .map(|e| e.states[chiplet.index()])
            .unwrap_or(EntryState::NotPresent)
    }

    fn find_entry(&self, s: &StructureAccess) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| ranges_overlap(&e.span(), &s.span()))
    }

    /// The heart of CPElide: processes one kernel launch, returning the
    /// acquires and releases that must be performed before the kernel's
    /// first memory access. All table state transitions happen here, at
    /// launch time (paper §III-B: "the table's state transitions occur at
    /// kernel launches").
    pub fn prepare_launch(&mut self, info: &KernelLaunchInfo) -> SyncActions {
        self.stats.launches += 1;
        assert_eq!(
            info.num_chiplets, self.num_chiplets,
            "launch info sized for a different system"
        );

        // Coarsen if the kernel accesses more structures than the per-kernel
        // budget (paper §III-B "Coarsening Data Structure Labels").
        let coarsened;
        let budget = MAX_STRUCTURES_PER_KERNEL.min(self.capacity);
        let structures: &[StructureAccess] = if info.structures.len() > budget {
            self.stats.coarsenings += 1;
            coarsened = coarsen_structures(&info.structures, budget);
            &coarsened
        } else {
            &info.structures
        };

        let mut acquires: Vec<ChipletId> = Vec::new();
        let mut releases: Vec<ChipletId> = Vec::new();
        let push_unique = |v: &mut Vec<ChipletId>, c: ChipletId| {
            if !v.contains(&c) {
                v.push(c);
            }
        };

        // Phase 1: decide required synchronization by scanning the launch's
        // structures against the table.
        for s in structures {
            let Some(idx) = self.find_entry(s) else {
                continue;
            };
            let entry = &self.entries[idx];
            for j in ChipletId::all(self.num_chiplets) {
                let state = entry.states[j.index()];
                // Release rule (§III-C "Generating Release Requests"):
                // flush chiplet j's dirty data only if some *other* chiplet
                // is about to access a range overlapping what j dirtied.
                if state.needs_release() {
                    if let Some(dirty_range) = entry.cacheable(j) {
                        if s.any_other_overlaps(j, &dirty_range) {
                            push_unique(&mut releases, j);
                        }
                    }
                }
                // Acquire rule (§III-C "Generating Acquire Requests"):
                // invalidate chiplet j only if it is about to access a
                // structure that is Stale there.
                if state.needs_acquire() && s.range_for(j).is_some() {
                    push_unique(&mut acquires, j);
                }
                // Scheduled-bystander rule: chiplet j participates in this
                // kernel while *another* chiplet's labeled range overlaps
                // what j may still hold cached (Valid or Dirty) — if the
                // kernel writes the structure, j's copies of the overlap
                // would go stale mid-kernel. j must be acquired (flush +
                // invalidate) before launch. Disjoint per-chiplet labels
                // (the common partitioned case) never trigger this.
                if s.mode.writes()
                    && s.range_for(j).is_some()
                    && matches!(state, EntryState::Valid | EntryState::Dirty)
                {
                    if let Some(cacheable) = entry.cacheable(j) {
                        if s.any_other_overlaps(j, &cacheable) {
                            push_unique(&mut acquires, j);
                        }
                    }
                }
            }
        }

        // Capacity handling: make room for new structures by conservatively
        // synchronizing away the least-recently-used entries (never observed
        // in the paper's workloads, but required for safety).
        let new_structures = structures
            .iter()
            .filter(|s| self.find_entry(s).is_none())
            .count();
        while self.entries.len() + new_structures > self.capacity && !self.entries.is_empty() {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                // chiplet-check: allow(no-panic) — loop guard proves non-empty
                .expect("capacity > 0 and entries over capacity");
            let victim = self.entries.remove(lru);
            self.stats.evictions += 1;
            for j in ChipletId::all(self.num_chiplets) {
                match victim.states[j.index()] {
                    EntryState::Dirty => push_unique(&mut releases, j),
                    EntryState::Stale | EntryState::Valid => push_unique(&mut acquires, j),
                    EntryState::NotPresent => {}
                }
            }
        }

        // Phase 2: apply whole-cache side effects of the generated
        // operations to *every* entry (an L2 flush/invalidate is not
        // range-scoped; paper §VI).
        for &j in &releases {
            for e in &mut self.entries {
                apply_event(
                    &mut self.audit,
                    e.id,
                    j.index(),
                    info.kernel,
                    &mut e.states[j.index()],
                    StateEvent::CacheFlushed,
                );
            }
        }
        for &j in &acquires {
            for e in &mut self.entries {
                // An acquire flushes dirty lines before dropping the cache,
                // so no data is lost.
                for ev in [StateEvent::CacheFlushed, StateEvent::CacheInvalidated] {
                    apply_event(
                        &mut self.audit,
                        e.id,
                        j.index(),
                        info.kernel,
                        &mut e.states[j.index()],
                        ev,
                    );
                }
            }
        }

        // Phase 3: apply the launch's own accesses — local events for the
        // scheduled chiplets, remote events for bystanders whose cached
        // ranges overlap what is being accessed.
        for s in structures {
            let idx = match self.find_entry(s) {
                Some(i) => i,
                None => {
                    let id = self.next_entry_id;
                    self.next_entry_id += 1;
                    let mut e = TableEntry::new(id, s, self.num_chiplets, info.kernel);
                    if let Some(homes) = self.homes_on_record(&e.span()) {
                        e.home_ranges = homes;
                    }
                    self.entries.push(e);
                    self.entries.len() - 1
                }
            };
            let audit = &mut self.audit;
            let entry = &mut self.entries[idx];
            entry.last_use = info.kernel;
            entry.mode = s.mode;
            // Grow the tracked span if a coarsened structure widened it.
            entry.base_line = entry.base_line.min(s.base_line);
            entry.end_line = entry.end_line.max(s.end_line);

            // Remote events first, evaluated against pre-launch ranges.
            for j in ChipletId::all(self.num_chiplets) {
                if s.range_for(j).is_some() {
                    continue; // local accessor, handled below
                }
                let Some(cached) = entry.cacheable(j) else {
                    continue;
                };
                let overlapping_writer_or_reader = s.ranges.iter().enumerate().any(|(k, r)| {
                    k != j.index() && r.as_ref().is_some_and(|r| ranges_overlap(r, &cached))
                });
                if overlapping_writer_or_reader {
                    let ev = if s.mode.writes() {
                        StateEvent::RemoteWrite
                    } else {
                        StateEvent::RemoteRead
                    };
                    apply_event(
                        audit,
                        entry.id,
                        j.index(),
                        info.kernel,
                        &mut entry.states[j.index()],
                        ev,
                    );
                }
            }

            // Local events: the scheduled chiplets will hold the structure
            // Valid (reads) or Dirty (writes) once the kernel runs.
            for j in ChipletId::all(self.num_chiplets) {
                let Some(new_range) = s.range_for(j).cloned() else {
                    continue;
                };
                debug_assert!(
                    entry.states[j.index()] != EntryState::Stale,
                    "stale chiplet must have been acquired before local access"
                );
                let ev = if s.mode.writes() {
                    StateEvent::LocalWrite
                } else {
                    StateEvent::LocalRead
                };
                apply_event(
                    audit,
                    entry.id,
                    j.index(),
                    info.kernel,
                    &mut entry.states[j.index()],
                    ev,
                );
                // First-touch home tracking: if this access may reach pages
                // no chiplet has claimed yet, chiplet j becomes their home
                // (conservatively widening j's home range — widening only
                // ever produces *extra* synchronization, never less).
                let home_claim = page_aligned(&new_range);
                let claimed = covered_by_homes(&entry.home_ranges, &home_claim);
                match (&entry.home_ranges[j.index()], claimed) {
                    (None, _) => entry.home_ranges[j.index()] = Some(home_claim),
                    (Some(old), false) => {
                        entry.home_ranges[j.index()] = Some(range_union(old, &home_claim));
                    }
                    _ => {}
                }
                entry.ranges[j.index()] = Some(match &entry.ranges[j.index()] {
                    Some(old) => range_union(old, &new_range),
                    None => new_range,
                });
            }

            // Persist the (possibly widened) homes beyond this row's
            // residency in the table.
            let (span, homes) = (entry.span(), entry.home_ranges.clone());
            self.record_homes(span, homes);
        }

        // Phase 4: drop rows whose chiplet vector is all Not-Present
        // (§III-C "Removing Entries") and clear ranges of Not-Present
        // chiplets on surviving rows.
        for e in &mut self.entries {
            for j in 0..self.num_chiplets {
                if e.states[j] == EntryState::NotPresent {
                    e.ranges[j] = None;
                }
            }
        }
        self.entries.retain(|e| !e.all_not_present());

        // Bookkeeping for the evaluation.
        self.stats.max_live_entries = self.stats.max_live_entries.max(self.entries.len());
        self.stats.acquires_issued += acquires.len() as u64;
        self.stats.releases_issued += releases.len() as u64;
        self.stats.acquires_elided += (self.num_chiplets - acquires.len()) as u64;
        self.stats.releases_elided += (self.num_chiplets - releases.len()) as u64;

        SyncActions { acquires, releases }
    }
}

/// A read-only copy of one table row, exposed for external analysis. The
/// `chiplet-check` model checker canonicalizes reachable CCT states through
/// this view and re-derives the elision rules against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntrySnapshot {
    /// The structure's tracked line span.
    pub span: Range<u64>,
    /// Current access-mode label.
    pub mode: AccessMode,
    /// Per-chiplet Figure 6 state.
    pub states: Vec<EntryState>,
    /// Per-chiplet tracked (touched) line ranges.
    pub ranges: Vec<Option<Range<u64>>>,
    /// Per-chiplet first-touch home ranges.
    pub home_ranges: Vec<Option<Range<u64>>>,
}

impl EntrySnapshot {
    /// The lines chiplet `j` may actually hold in its L2 for this row —
    /// the same tracked ∩ home bound [`ChipletCoherenceTable::prepare_launch`]
    /// reasons with.
    pub fn cacheable(&self, j: ChipletId) -> Option<Range<u64>> {
        let tracked = self.ranges[j.index()].as_ref()?;
        let home = self.home_ranges[j.index()].as_ref()?;
        let r = tracked.start.max(home.start)..tracked.end.min(home.end);
        (r.start < r.end).then_some(r)
    }
}

impl ChipletCoherenceTable {
    /// Read-only snapshots of the live rows, sorted by span start (row
    /// order inside the table is an implementation detail).
    pub fn snapshot(&self) -> Vec<EntrySnapshot> {
        let mut rows: Vec<EntrySnapshot> = self
            .entries
            .iter()
            .map(|e| EntrySnapshot {
                span: e.span(),
                mode: e.mode,
                states: e.states.clone(),
                ranges: e.ranges.clone(),
                home_ranges: e.home_ranges.clone(),
            })
            .collect();
        rows.sort_by_key(|r| (r.span.start, r.span.end));
        rows
    }

    /// The persistent first-touch home log (span → per-chiplet homes),
    /// sorted by span start. Homes outlive row residency, so this is part
    /// of the table's behavioral state alongside [`snapshot`].
    ///
    /// [`snapshot`]: ChipletCoherenceTable::snapshot
    pub fn home_log_snapshot(&self) -> Vec<HomeRecord> {
        let mut log = self.home_log.clone();
        log.sort_by_key(|(r, _)| (r.start, r.end));
        log
    }
}

impl fmt::Display for ChipletCoherenceTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ChipletCoherenceTable ({} chiplets, {}/{} entries)",
            self.num_chiplets,
            self.entries.len(),
            self.capacity
        )?;
        for e in &self.entries {
            write!(f, "  [{:#x}..{:#x}) {}:", e.base_line, e.end_line, e.mode)?;
            for (j, st) in e.states.iter().enumerate() {
                write!(f, " c{j}={st}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::KernelLaunchInfo;

    fn c(i: u8) -> ChipletId {
        ChipletId::new(i)
    }

    /// Kernel touching one structure, partitioned over both chiplets.
    fn partitioned(kernel: u64, mode: AccessMode) -> KernelLaunchInfo {
        KernelLaunchInfo::builder(kernel, ChipletId::all(2))
            .structure(0, 100, mode, [Some(0..50), Some(50..100)])
            .build()
    }

    #[test]
    fn first_launch_needs_no_sync() {
        let mut t = ChipletCoherenceTable::new(2);
        let a = t.prepare_launch(&partitioned(0, AccessMode::ReadWrite));
        assert!(a.is_empty());
        assert_eq!(t.live_entries(), 1);
        assert_eq!(t.state_of(10, c(0)), EntryState::Dirty);
        assert_eq!(t.state_of(60, c(1)), EntryState::Dirty);
    }

    #[test]
    fn same_partition_rewrite_elides_everything() {
        let mut t = ChipletCoherenceTable::new(2);
        t.prepare_launch(&partitioned(0, AccessMode::ReadWrite));
        let a = t.prepare_launch(&partitioned(1, AccessMode::ReadWrite));
        assert!(a.is_empty(), "stay-in-Dirty elision failed: {a:?}");
        assert_eq!(t.stats().releases_issued, 0);
        assert_eq!(t.stats().releases_elided, 4);
    }

    #[test]
    fn read_only_sharing_stays_valid_everywhere() {
        let mut t = ChipletCoherenceTable::new(2);
        // Both chiplets read the whole structure, twice.
        let shared = |k| {
            KernelLaunchInfo::builder(k, ChipletId::all(2))
                .structure(0, 100, AccessMode::ReadOnly, [Some(0..100), Some(0..100)])
                .build()
        };
        assert!(t.prepare_launch(&shared(0)).is_empty());
        assert!(t.prepare_launch(&shared(1)).is_empty());
        assert_eq!(t.state_of(0, c(0)), EntryState::Valid);
        assert_eq!(t.state_of(0, c(1)), EntryState::Valid);
    }

    #[test]
    fn producer_consumer_across_chiplets_releases_then_acquires() {
        let mut t = ChipletCoherenceTable::new(2);
        // Kernel 0: chiplet 0 writes lines 0..100.
        let k0 = KernelLaunchInfo::builder(0, [c(0)])
            .structure(0, 100, AccessMode::ReadWrite, [Some(0..100), None])
            .build();
        assert!(t.prepare_launch(&k0).is_empty());
        // Kernel 1: chiplet 1 reads the same lines -> release chiplet 0.
        let k1 = KernelLaunchInfo::builder(1, [c(1)])
            .structure(0, 100, AccessMode::ReadOnly, [None, Some(0..100)])
            .build();
        let a1 = t.prepare_launch(&k1);
        assert_eq!(a1.releases, vec![c(0)]);
        assert!(a1.acquires.is_empty());
        // Chiplet 0 retains a clean, still-valid copy after the flush.
        assert_eq!(t.state_of(0, c(0)), EntryState::Valid);
        assert_eq!(t.state_of(0, c(1)), EntryState::Valid);
    }

    #[test]
    fn remote_writer_makes_reader_stale_then_acquire_on_return() {
        let mut t = ChipletCoherenceTable::new(2);
        // Kernel 0: chiplet 0 reads lines 0..100 (Valid on 0).
        let k0 = KernelLaunchInfo::builder(0, [c(0)])
            .structure(0, 100, AccessMode::ReadOnly, [Some(0..100), None])
            .build();
        t.prepare_launch(&k0);
        // Kernel 1: chiplet 1 writes the same lines -> chiplet 0 Stale.
        let k1 = KernelLaunchInfo::builder(1, [c(1)])
            .structure(0, 100, AccessMode::ReadWrite, [None, Some(0..100)])
            .build();
        let a1 = t.prepare_launch(&k1);
        assert!(a1.is_empty(), "clean reader needs no flush: {a1:?}");
        assert_eq!(t.state_of(0, c(0)), EntryState::Stale);
        // Kernel 2: chiplet 0 reads again -> acquire chiplet 0, release 1.
        let k2 = KernelLaunchInfo::builder(2, [c(0)])
            .structure(0, 100, AccessMode::ReadOnly, [Some(0..100), None])
            .build();
        let a2 = t.prepare_launch(&k2);
        assert_eq!(a2.acquires, vec![c(0)]);
        assert_eq!(a2.releases, vec![c(1)]);
        assert_eq!(t.state_of(0, c(0)), EntryState::Valid);
    }

    #[test]
    fn disjoint_ranges_on_other_chiplets_elide_release() {
        let mut t = ChipletCoherenceTable::new(2);
        // Chiplet 0 dirties 0..50; chiplet 1 dirties 50..100.
        t.prepare_launch(&partitioned(0, AccessMode::ReadWrite));
        // New kernel: chiplet 1 reads only its own half -> no overlap with
        // chiplet 0's dirty range -> nothing to do.
        let k1 = KernelLaunchInfo::builder(1, [c(1)])
            .structure(0, 100, AccessMode::ReadOnly, [None, Some(50..100)])
            .build();
        let a = t.prepare_launch(&k1);
        assert!(a.is_empty(), "{a:?}");
        assert_eq!(t.state_of(0, c(0)), EntryState::Dirty, "0 stays dirty");
    }

    #[test]
    fn whole_cache_release_side_effect_cleans_other_structures() {
        let mut t = ChipletCoherenceTable::new(2);
        // Chiplet 0 dirties structure A (lines 0..100) and B (200..300).
        let k0 = KernelLaunchInfo::builder(0, [c(0)])
            .structure(0, 100, AccessMode::ReadWrite, [Some(0..100), None])
            .structure(200, 300, AccessMode::ReadWrite, [Some(200..300), None])
            .build();
        t.prepare_launch(&k0);
        // Chiplet 1 reads structure A -> release chiplet 0; the whole-L2
        // flush also writes B's dirty data back (B becomes Valid on 0).
        let k1 = KernelLaunchInfo::builder(1, [c(1)])
            .structure(0, 100, AccessMode::ReadOnly, [None, Some(0..100)])
            .build();
        let a = t.prepare_launch(&k1);
        assert_eq!(a.releases, vec![c(0)]);
        assert_eq!(t.state_of(250, c(0)), EntryState::Valid);
        // A later cross-chiplet read of B needs no further release.
        let k2 = KernelLaunchInfo::builder(2, [c(1)])
            .structure(200, 300, AccessMode::ReadOnly, [None, Some(200..300)])
            .build();
        assert!(t.prepare_launch(&k2).is_empty());
    }

    #[test]
    fn write_after_stale_acquires_and_re_stales_bystander() {
        let mut t = ChipletCoherenceTable::new(2);
        let k0 = KernelLaunchInfo::builder(0, [c(0)])
            .structure(0, 100, AccessMode::ReadOnly, [Some(0..100), None])
            .build();
        t.prepare_launch(&k0);
        assert_eq!(t.live_entries(), 1);
        // Chiplet 1 writes it (0 goes Stale); then chiplet 0 writes it back:
        // acquire chiplet 0, release chiplet 1, and chiplet 1's fresh clean
        // copy immediately goes Stale again because 0 is the new writer.
        let k1 = KernelLaunchInfo::builder(1, [c(1)])
            .structure(0, 100, AccessMode::ReadWrite, [None, Some(0..100)])
            .build();
        t.prepare_launch(&k1);
        let k2 = KernelLaunchInfo::builder(2, [c(0)])
            .structure(0, 100, AccessMode::ReadWrite, [Some(0..100), None])
            .build();
        let a2 = t.prepare_launch(&k2);
        assert_eq!(a2.acquires, vec![c(0)]);
        assert_eq!(a2.releases, vec![c(1)]);
        assert_eq!(t.state_of(0, c(0)), EntryState::Dirty);
        assert_eq!(t.state_of(0, c(1)), EntryState::Stale);
    }

    #[test]
    fn entry_removed_when_all_not_present() {
        let mut t = ChipletCoherenceTable::new(2);
        // Structure A: Valid on chiplet 0 only.
        let k0 = KernelLaunchInfo::builder(0, [c(0)])
            .structure(0, 100, AccessMode::ReadOnly, [Some(0..100), None])
            .build();
        t.prepare_launch(&k0);
        // Structure B: read by 0, then written by 1 -> B Stale on 0.
        let k1 = KernelLaunchInfo::builder(1, [c(0)])
            .structure(200, 300, AccessMode::ReadOnly, [Some(200..300), None])
            .build();
        t.prepare_launch(&k1);
        let k2 = KernelLaunchInfo::builder(2, [c(1)])
            .structure(200, 300, AccessMode::ReadWrite, [None, Some(200..300)])
            .build();
        t.prepare_launch(&k2);
        assert_eq!(t.live_entries(), 2);
        // Chiplet 0 re-reads B -> acquire on 0 invalidates its whole L2,
        // so structure A (Valid only on 0) becomes all-Not-Present and its
        // row is removed.
        let k3 = KernelLaunchInfo::builder(3, [c(0)])
            .structure(200, 300, AccessMode::ReadOnly, [Some(200..300), None])
            .build();
        let a3 = t.prepare_launch(&k3);
        assert_eq!(a3.acquires, vec![c(0)]);
        assert_eq!(t.live_entries(), 1, "structure A's row must be dropped");
        assert_eq!(t.state_of(0, c(0)), EntryState::NotPresent);
    }

    #[test]
    fn capacity_eviction_synchronizes_conservatively() {
        let mut t = ChipletCoherenceTable::with_capacity(2, 2);
        for k in 0..2u64 {
            let base = k * 1000;
            let info = KernelLaunchInfo::builder(k, [c(0)])
                .structure(
                    base,
                    base + 100,
                    AccessMode::ReadWrite,
                    [Some(base..base + 100), None],
                )
                .build();
            assert!(t.prepare_launch(&info).is_empty());
        }
        assert_eq!(t.live_entries(), 2);
        // A third structure forces the LRU entry out; its dirty chiplet must
        // be released.
        let info = KernelLaunchInfo::builder(2, [c(0)])
            .structure(5000, 5100, AccessMode::ReadWrite, [Some(5000..5100), None])
            .build();
        let a = t.prepare_launch(&info);
        assert_eq!(a.releases, vec![c(0)]);
        assert_eq!(t.stats().evictions, 1);
        assert!(t.live_entries() <= 2);
    }

    #[test]
    fn coarsening_kicks_in_above_eight_structures() {
        let mut t = ChipletCoherenceTable::new(2);
        let mut b = KernelLaunchInfo::builder(0, [c(0)]);
        for i in 0..10u64 {
            let base = i * 100; // contiguous structures
            b = b.structure(
                base,
                base + 100,
                AccessMode::ReadWrite,
                [Some(base..base + 100), None],
            );
        }
        let a = t.prepare_launch(&b.build());
        assert!(a.is_empty());
        assert_eq!(t.stats().coarsenings, 1);
        assert!(t.live_entries() <= 8);
        // All lines remain tracked despite the merge.
        assert_eq!(t.state_of(950, c(0)), EntryState::Dirty);
    }

    #[test]
    fn stats_track_max_entries() {
        let mut t = ChipletCoherenceTable::new(4);
        for i in 0..5u64 {
            let base = i * 1000;
            let info = KernelLaunchInfo::builder(i, [c(0)])
                .structure(
                    base,
                    base + 10,
                    AccessMode::ReadOnly,
                    [Some(base..base + 10), None, None, None],
                )
                .build();
            t.prepare_launch(&info);
        }
        assert_eq!(t.stats().max_live_entries, 5);
        assert_eq!(t.stats().launches, 5);
    }

    #[test]
    #[should_panic(expected = "different system")]
    fn mismatched_system_size_rejected() {
        let mut t = ChipletCoherenceTable::new(4);
        let info = partitioned(0, AccessMode::ReadOnly); // built for 2
        t.prepare_launch(&info);
    }

    #[test]
    fn audit_trail_records_legal_run_without_violations() {
        let mut t = ChipletCoherenceTable::new(2);
        t.enable_audit(true);
        // Producer on chiplet 0, consumer on chiplet 1, then the producer
        // returns: exercises local writes, releases, remote staleness and
        // an acquire — every class of Figure 6 edge.
        let k0 = KernelLaunchInfo::builder(0, [c(0)])
            .structure(0, 100, AccessMode::ReadWrite, [Some(0..100), None])
            .build();
        t.prepare_launch(&k0);
        let k1 = KernelLaunchInfo::builder(1, [c(1)])
            .structure(0, 100, AccessMode::ReadWrite, [None, Some(0..100)])
            .build();
        t.prepare_launch(&k1);
        let k2 = KernelLaunchInfo::builder(2, [c(0)])
            .structure(0, 100, AccessMode::ReadOnly, [Some(0..100), None])
            .build();
        t.prepare_launch(&k2);

        let a = t.auditor().expect("audit enabled");
        assert_eq!(a.violations(), 0);
        assert!(a.transitions() >= 5, "got {}", a.transitions());
        assert_eq!(a.log().len() as u64, a.transitions());
        assert!(a.residency()[0].total() > 0);
        assert!(a.summary_text().contains("0 violations"));
    }

    #[test]
    fn audit_random_legal_launch_sequences_never_trip_the_auditor() {
        use chiplet_harness::prop::{check, PropConfig};
        use chiplet_harness::prop_assert;
        use chiplet_harness::rng::Xoshiro256;

        /// A random but *well-formed* kernel launch sequence: arbitrary
        /// chiplet subsets, modes and subranges over a small structure
        /// pool. The table itself only ever applies legal Figure 6 events
        /// for such inputs, so the auditor must stay silent.
        fn gen_launches(rng: &mut Xoshiro256, size: usize) -> (usize, Vec<KernelLaunchInfo>) {
            let nc = 1 + rng.next_below(4) as usize;
            let launches = (1 + rng.next_below(size.max(1) as u64)) as usize;
            let infos = (0..launches as u64)
                .map(|k| {
                    let nstruct = 1 + rng.next_below(2);
                    let mut b = KernelLaunchInfo::builder(k, ChipletId::all(nc));
                    // Each data structure carries one label per kernel, so
                    // the bases within a launch must be distinct.
                    let mut bases: Vec<u64> = Vec::new();
                    for _ in 0..nstruct {
                        let base = loop {
                            let cand = rng.next_below(4) * 1000;
                            if !bases.contains(&cand) {
                                break cand;
                            }
                        };
                        bases.push(base);
                        let mode = if rng.next_bool() {
                            AccessMode::ReadWrite
                        } else {
                            AccessMode::ReadOnly
                        };
                        let mut ranges: Vec<Option<std::ops::Range<u64>>> = (0..nc)
                            .map(|_| {
                                rng.next_bool().then(|| {
                                    let start = base + rng.next_below(90);
                                    let len = 1 + rng.next_below(100 - (start - base));
                                    start..start + len
                                })
                            })
                            .collect();
                        if ranges.iter().all(Option::is_none) {
                            ranges[0] = Some(base..base + 100);
                        }
                        b = b.structure(base, base + 100, mode, ranges);
                    }
                    b.build()
                })
                .collect();
            (nc, infos)
        }

        check(
            "cct_audit_accepts_legal_sequences",
            &PropConfig::with_cases(64),
            gen_launches,
            |(nc, infos)| {
                let mut t = ChipletCoherenceTable::new(*nc);
                t.enable_audit(false);
                for info in infos {
                    t.prepare_launch(info);
                }
                let a = t.auditor().expect("audit enabled");
                prop_assert!(
                    a.violations() == 0,
                    "auditor tripped on a legal sequence: {}",
                    a.summary_text()
                );
                Ok(())
            },
        );
    }
}
