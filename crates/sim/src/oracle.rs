//! Coherence correctness oracle: verifies that a protocol's
//! synchronization decisions never allow a chiplet to observe stale data.
//!
//! The oracle replays a workload's exact access traces, on the engine's
//! own schedule (the same round planning, the same CP with its audit,
//! every decision of a round applied before any of its launches replays),
//! through a *shadow memory* that tracks, per cache line, the dynamic
//! kernel id of the last write (its **version**):
//!
//! * a per-chiplet shadow L2 holds `(version, dirty)` entries following the
//!   VIPER datapath (local stores dirty the shadow, remote stores write
//!   through to global, local reads fill clean copies);
//! * *release* publishes a chiplet's dirty versions to global memory
//!   (newest wins, mirroring last-writer-correct DRF semantics);
//! * *acquire* publishes and then drops the chiplet's shadow entries.
//!
//! HMG configurations have no boundary decisions to audit — they keep
//! coherence per access — so their replay instead follows the HMG datapath:
//! every store writes through to global and invalidates remote shadow
//! copies, exactly what the coarse directory's invalidation messages do.
//!
//! The default shadow L2 is **unbounded** — deliberately adversarial:
//! capacity evictions in a real cache only push data *down* (making it
//! globally visible sooner), so an elision that is safe against an infinite
//! cache is safe against any smaller one. That claim is itself checkable:
//! [`ShadowKind::Bounded`] replays through a set-associative shadow whose
//! evictions publish dirty versions, and must never observe a violation the
//! unbounded shadow misses. Every read is checked against the ground truth
//! (the last kernel, in launch order, that wrote the line); a mismatch is a
//! coherence violation and means the protocol elided a synchronization
//! operation it actually needed.
//!
//! # Storage
//!
//! The datapath rules above are written once, over a per-chiplet shadow-L2
//! store that is the only thing a [`ShadowKind`] chooses: an unbounded
//! epoch-versioned slab whose clear is a single generation bump, or a
//! bounded set-associative store whose evictions publish dirty versions.
//! A bounded and an unbounded replay therefore differ in storage alone.
//! Replay visits millions of lines, so the rest of the shadow state lives
//! in flat dense-index storage ([`chiplet_mem::flat`]): version and truth
//! maps are [`FlatMap`]s, and first-touch homes reuse the same
//! [`FirstTouchPlacement`] the timing model uses. The unit tests keep the
//! original `HashMap`-backed shadow as a reference and require
//! byte-identical reports from it.

use crate::config::SimConfig;
use crate::engine::{global_cp, plan_round};
use chiplet_coherence::ProtocolKind;
use chiplet_gpu::stream::SoftwareQueue;
use chiplet_gpu::trace::TraceGenerator;
use chiplet_mem::addr::{ChipletId, LineAddr};
use chiplet_mem::flat::{EpochSlab, FlatMap};
use chiplet_mem::page::FirstTouchPlacement;
use chiplet_workloads::Workload;
use cpelide::api::KernelLaunchInfo;

/// One observed coherence violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Dynamic kernel that performed the stale read.
    pub kernel: u64,
    /// Chiplet that read.
    pub chiplet: ChipletId,
    /// Line read.
    pub line: LineAddr,
    /// Version (writer kernel id) observed.
    pub observed: u64,
    /// Version that should have been observed.
    pub expected: u64,
}

/// Result of an oracle run.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Reads checked.
    pub reads_checked: u64,
    /// Writes recorded.
    pub writes_recorded: u64,
    /// Pages assigned a first-touch home during the replay.
    pub pages_placed: u64,
    /// Violations found (empty = the protocol is coherent on this trace).
    pub violations: Vec<Violation>,
}

impl OracleReport {
    /// True if no stale read was observed.
    pub fn is_coherent(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Which shadow-memory implementation replays the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowKind {
    /// Flat dense-index storage with epoch-versioned shadow L2s — the
    /// default and the fast path.
    Flat,
    /// A *bounded* set-associative shadow L2 whose capacity evictions
    /// publish dirty versions down to global memory. Used to test the
    /// eviction-monotonicity claim: bounding the cache can only make data
    /// globally visible sooner, never hide a violation the unbounded
    /// shadow would catch... nor invent one it wouldn't.
    Bounded {
        /// Cache sets per chiplet shadow.
        sets: usize,
        /// Ways per set.
        ways: usize,
    },
}

#[derive(Debug, Clone, Copy, Default)]
struct ShadowEntry {
    version: u64,
    dirty: bool,
}

/// Advances a line's ground truth for a write by `kernel`: the stored pair
/// is (last writer version, version before that kernel). A same-kernel
/// rewrite keeps the original pre-kernel version; version 0 means "initial
/// memory" and is never a real kernel.
#[inline]
fn advance_truth(t: &mut (u64, u64), kernel: u64) {
    let prev = if t.0 == kernel { t.1 } else { t.0 };
    *t = (kernel, prev);
}

/// Merges `version` into `line`'s globally visible version. Newest wins
/// (DRF last-writer semantics).
#[inline]
fn publish_version(global: &mut FlatMap<LineAddr, u64>, line: LineAddr, version: u64) {
    let g = global.get_mut(line);
    *g = (*g).max(version);
}

/// The shadow-memory operations the replay loop drives. [`Shadow`]
/// implements them once over either [`ShadowL2`] store; the unit tests'
/// hash reference implements them again, and all must agree on observable
/// behaviour.
trait ShadowMem {
    /// Publish chiplet `c`'s dirty versions to global memory.
    fn release(&mut self, c: ChipletId);
    /// Publish, then drop chiplet `c`'s shadow entries.
    fn acquire(&mut self, c: ChipletId);
    /// VIPER-datapath store.
    fn write(&mut self, c: ChipletId, line: LineAddr, kernel: u64);
    /// VIPER-datapath load; returns the observed version.
    fn read(&mut self, c: ChipletId, line: LineAddr) -> u64;
    /// HMG-datapath store: write through + invalidate remote copies.
    fn write_through(&mut self, c: ChipletId, line: LineAddr, kernel: u64);
    /// HMG-datapath load: local copies are legal on every chiplet.
    fn read_shared(&mut self, c: ChipletId, line: LineAddr) -> u64;
    /// Ground truth for `line`: (expected version, pre-kernel version).
    fn truth_of(&self, line: LineAddr) -> (u64, u64);
    /// Pages assigned a first-touch home so far.
    fn pages_placed(&self) -> u64;
}

// ---------------------------------------------------------------------------
// Per-chiplet shadow L2 stores.
// ---------------------------------------------------------------------------

/// One chiplet's shadow L2: the only part of the shadow that differs
/// between [`ShadowKind`]s. A store that evicts pushes a dirty victim's
/// version down into `global`, as a real cache's write-back does.
trait ShadowL2 {
    /// The version held for `line`, if resident.
    fn get(&mut self, line: LineAddr) -> Option<u64>;
    /// Installs or overwrites `line`'s entry.
    fn put(&mut self, line: LineAddr, entry: ShadowEntry, global: &mut FlatMap<LineAddr, u64>);
    /// Drops `line`'s entry, dirty or not.
    fn remove(&mut self, line: LineAddr);
    /// Publishes every dirty version to `global`; the entries stay, clean.
    fn publish(&mut self, global: &mut FlatMap<LineAddr, u64>);
    /// Drops every entry.
    fn clear(&mut self);
}

/// The unbounded store ([`ShadowKind::Flat`]): an epoch-versioned slab, so
/// a clear is one generation bump, plus the lines dirtied since the last
/// publish, so a release visits only those.
#[derive(Debug, Default)]
struct FlatL2 {
    slab: EpochSlab<LineAddr, ShadowEntry>,
    /// Lines possibly dirty in the current generation; drained on publish.
    dirty: Vec<LineAddr>,
}

impl ShadowL2 for FlatL2 {
    fn get(&mut self, line: LineAddr) -> Option<u64> {
        self.slab.get(line).map(|e| e.version)
    }

    fn put(&mut self, line: LineAddr, entry: ShadowEntry, _: &mut FlatMap<LineAddr, u64>) {
        if entry.dirty && !self.slab.get(line).is_some_and(|e| e.dirty) {
            self.dirty.push(line);
        }
        self.slab.insert(line, entry);
    }

    fn remove(&mut self, line: LineAddr) {
        self.slab.remove(line);
    }

    fn publish(&mut self, global: &mut FlatMap<LineAddr, u64>) {
        for line in self.dirty.drain(..) {
            if let Some(e) = self.slab.get_mut(line) {
                if e.dirty {
                    publish_version(global, line, e.version);
                    e.dirty = false;
                }
            }
        }
    }

    fn clear(&mut self) {
        self.slab.clear();
    }
}

#[derive(Debug, Clone, Copy)]
struct BoundedWay {
    line: LineAddr,
    entry: ShadowEntry,
    lru: u64,
    valid: bool,
}

/// The set-associative store ([`ShadowKind::Bounded`]): LRU replacement
/// with a first-minimal tie-break; evicted dirty versions are published,
/// which is exactly the monotonicity the unbounded store relies on.
#[derive(Debug)]
struct BoundedL2 {
    sets: usize,
    ways: usize,
    tick: u64,
    slots: Vec<BoundedWay>,
}

impl BoundedL2 {
    fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "bounded shadow needs a real geometry");
        BoundedL2 {
            sets,
            ways,
            tick: 0,
            slots: vec![
                BoundedWay {
                    line: LineAddr::new(0),
                    entry: ShadowEntry::default(),
                    lru: 0,
                    valid: false,
                };
                sets * ways
            ],
        }
    }

    #[inline]
    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let s = (line.get() % self.sets as u64) as usize * self.ways;
        s..s + self.ways
    }
}

impl ShadowL2 for BoundedL2 {
    fn get(&mut self, line: LineAddr) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let r = self.set_range(line);
        let w = self.slots[r]
            .iter_mut()
            .find(|w| w.valid && w.line == line)?;
        w.lru = tick;
        Some(w.entry.version)
    }

    fn put(&mut self, line: LineAddr, entry: ShadowEntry, global: &mut FlatMap<LineAddr, u64>) {
        self.tick += 1;
        let tick = self.tick;
        let r = self.set_range(line);
        let slots = &mut self.slots[r];
        let mut victim = 0usize;
        let mut best = u64::MAX;
        for (i, w) in slots.iter_mut().enumerate() {
            if w.valid && w.line == line {
                w.entry = entry;
                w.lru = tick;
                return;
            }
            let score = if w.valid { w.lru } else { 0 };
            if score < best {
                best = score;
                victim = i;
            }
        }
        let w = &mut slots[victim];
        if w.valid && w.entry.dirty {
            publish_version(global, w.line, w.entry.version);
        }
        *w = BoundedWay {
            line,
            entry,
            lru: tick,
            valid: true,
        };
    }

    fn remove(&mut self, line: LineAddr) {
        let r = self.set_range(line);
        for w in &mut self.slots[r] {
            if w.valid && w.line == line {
                w.valid = false;
            }
        }
    }

    fn publish(&mut self, global: &mut FlatMap<LineAddr, u64>) {
        for w in &mut self.slots {
            if w.valid && w.entry.dirty {
                publish_version(global, w.line, w.entry.version);
                w.entry.dirty = false;
            }
        }
    }

    fn clear(&mut self) {
        for w in &mut self.slots {
            w.valid = false;
        }
    }
}

// ---------------------------------------------------------------------------
// The shadow datapath, over either store.
// ---------------------------------------------------------------------------

/// The shadow memory. `global` and `truth` are total maps whose default
/// value encodes "initial memory"; `l2` holds one store per chiplet.
#[derive(Debug)]
struct Shadow<L> {
    /// Versions visible at the shared level (L3/HBM). Default = initial (0).
    global: FlatMap<LineAddr, u64>,
    /// Per-chiplet shadow L2s.
    l2: Vec<L>,
    /// Ground truth per line: (last writer kernel version, previous version
    /// before this kernel). Intra-kernel accesses from different WGs are
    /// unordered on a real GPU, so a read racing with a same-kernel write
    /// may legally observe either value.
    truth: FlatMap<LineAddr, (u64, u64)>,
    /// First-touch homes — the same page table the timing model uses.
    homes: FirstTouchPlacement,
}

impl<L: ShadowL2> Shadow<L> {
    fn new(chiplets: usize, store: impl FnMut() -> L) -> Self {
        Shadow {
            global: FlatMap::new(0),
            l2: std::iter::repeat_with(store).take(chiplets).collect(),
            truth: FlatMap::new((0, 0)),
            homes: FirstTouchPlacement::new(),
        }
    }

    /// A load through chiplet `c`'s L2: the resident version, or else a
    /// clean fill from global.
    fn load(&mut self, c: ChipletId, line: LineAddr) -> u64 {
        let l2 = &mut self.l2[c.index()];
        if let Some(v) = l2.get(line) {
            return v;
        }
        let v = self.global.get(line);
        let clean = ShadowEntry {
            version: v,
            dirty: false,
        };
        l2.put(line, clean, &mut self.global);
        v
    }
}

impl<L: ShadowL2> ShadowMem for Shadow<L> {
    fn release(&mut self, c: ChipletId) {
        self.l2[c.index()].publish(&mut self.global);
    }

    fn acquire(&mut self, c: ChipletId) {
        self.release(c);
        self.l2[c.index()].clear();
    }

    fn write(&mut self, c: ChipletId, line: LineAddr, kernel: u64) {
        advance_truth(self.truth.get_mut(line), kernel);
        if self.homes.home_of(line.page(), c) == c {
            // Local store: dirty in the shadow L2 (write-back).
            let dirty = ShadowEntry {
                version: kernel,
                dirty: true,
            };
            self.l2[c.index()].put(line, dirty, &mut self.global);
        } else {
            // Remote store: written through, no local copy.
            publish_version(&mut self.global, line, kernel);
        }
    }

    fn read(&mut self, c: ChipletId, line: LineAddr) -> u64 {
        if self.homes.home_of(line.page(), c) == c {
            self.load(c, line)
        } else {
            // Remote reads are forwarded to the home's LLC bank (never
            // cached locally in the VIPER datapath).
            self.global.get(line)
        }
    }

    fn write_through(&mut self, c: ChipletId, line: LineAddr, kernel: u64) {
        advance_truth(self.truth.get_mut(line), kernel);
        publish_version(&mut self.global, line, kernel);
        // The coarse directory invalidates every remote copy; the writer
        // keeps a clean up-to-date copy.
        // chiplet-check: allow(hash-iter) — iterates the outer per-chiplet Vec, in index order
        for (i, l2) in self.l2.iter_mut().enumerate() {
            if i == c.index() {
                let clean = ShadowEntry {
                    version: kernel,
                    dirty: false,
                };
                l2.put(line, clean, &mut self.global);
            } else {
                l2.remove(line);
            }
        }
    }

    fn read_shared(&mut self, c: ChipletId, line: LineAddr) -> u64 {
        self.load(c, line)
    }

    fn truth_of(&self, line: LineAddr) -> (u64, u64) {
        self.truth.get(line)
    }

    fn pages_placed(&self) -> u64 {
        self.homes.placed_pages() as u64
    }
}

// ---------------------------------------------------------------------------
// Replay loop.
// ---------------------------------------------------------------------------

/// Replays `workload` with **no synchronization at all** — a deliberately
/// broken protocol used to validate that the oracle actually detects stale
/// reads on workloads with cross-chiplet dependences.
pub fn check_never_sync(workload: &Workload, chiplets: usize, sample: usize) -> OracleReport {
    check_never_sync_with(workload, chiplets, sample, ShadowKind::Flat)
}

/// [`check_never_sync`] through an explicitly chosen shadow implementation.
pub fn check_never_sync_with(
    workload: &Workload,
    chiplets: usize,
    sample: usize,
    kind: ShadowKind,
) -> OracleReport {
    dispatch(
        workload,
        ProtocolKind::CpElide,
        chiplets,
        sample,
        false,
        kind,
    )
}

/// Replays `workload` under `protocol`'s synchronization decisions and
/// checks every `sample`-th read against ground truth.
///
/// The VIPER-datapath configurations ([`ProtocolKind::Baseline`],
/// [`ProtocolKind::CpElide`], [`ProtocolKind::Monolithic`]) are audited at
/// kernel boundaries — exactly where implicit synchronization can be
/// elided. HMG configurations are replayed through the per-access HMG
/// datapath (write-through + remote invalidation) and must be coherent by
/// construction.
pub fn check_coherence(
    workload: &Workload,
    protocol: ProtocolKind,
    chiplets: usize,
    sample: usize,
) -> OracleReport {
    check_coherence_with(workload, protocol, chiplets, sample, ShadowKind::Flat)
}

/// [`check_coherence`] through an explicitly chosen shadow implementation.
pub fn check_coherence_with(
    workload: &Workload,
    protocol: ProtocolKind,
    chiplets: usize,
    sample: usize,
    kind: ShadowKind,
) -> OracleReport {
    dispatch(workload, protocol, chiplets, sample, true, kind)
}

fn dispatch(
    workload: &Workload,
    protocol: ProtocolKind,
    chiplets: usize,
    sample: usize,
    apply_sync: bool,
    kind: ShadowKind,
) -> OracleReport {
    let cfg = SimConfig::table1(chiplets, protocol);
    let n = cfg.num_chiplets;
    match kind {
        ShadowKind::Flat => {
            let mut shadow = Shadow::new(n, FlatL2::default);
            check_inner(&mut shadow, workload, &cfg, sample, apply_sync)
        }
        ShadowKind::Bounded { sets, ways } => {
            let mut shadow = Shadow::new(n, || BoundedL2::new(sets, ways));
            check_inner(&mut shadow, workload, &cfg, sample, apply_sync)
        }
    }
}

/// Replays `workload` on the engine's schedule: each round is planned by
/// [`plan_round`], its boundary synchronization is applied to the shadow
/// in full, and only then do its launches replay, in round order.
fn check_inner<S: ShadowMem>(
    shadow: &mut S,
    workload: &Workload,
    cfg: &SimConfig,
    sample: usize,
    apply_sync: bool,
) -> OracleReport {
    let n = cfg.num_chiplets;
    let sample = sample.max(1);
    let hmg = cfg.protocol.is_hmg();

    // Never-sync mode applies no decisions, so it runs no CP.
    let mut cp = if apply_sync { global_cp(cfg) } else { None };
    let tracegen = TraceGenerator::new(cfg.seed);
    let all_chiplets: Vec<ChipletId> = ChipletId::all(n).collect();

    let mut queue = SoftwareQueue::new();
    for l in workload.launches() {
        queue.enqueue(l.stream, l.spec.clone(), l.binding.clone());
    }

    let mut report = OracleReport::default();
    let mut first_round = true;
    while !queue.is_empty() {
        let plans = plan_round(&mut queue, &all_chiplets);

        // Boundary synchronization per protocol. HMG keeps coherence per
        // access and performs nothing at boundaries.
        match cfg.protocol {
            _ if !apply_sync => {}
            ProtocolKind::Baseline if !first_round => {
                for c in ChipletId::all(n) {
                    shadow.acquire(c);
                }
            }
            ProtocolKind::CpElide => {
                // chiplet-check: allow(no-panic) — global_cp builds one for this protocol
                let cp = cp.as_mut().expect("CPElide oracle carries a CP");
                for (packet, plan) in &plans {
                    let info = KernelLaunchInfo::from_spec(
                        &packet.spec,
                        packet.id,
                        workload.arrays(),
                        plan,
                        n,
                    );
                    let decision = cp.launch_kernel(&info);
                    for &c in &decision.acquires {
                        shadow.acquire(c);
                    }
                    for &c in &decision.releases {
                        shadow.release(c);
                    }
                }
            }
            _ => {}
        }
        first_round = false;

        // Kernel bodies: the version of every read must match truth.
        // The dynamic kernel id is offset by 1 so that version 0 means
        // "initial memory".
        for (packet, plan) in &plans {
            let kernel = packet.id.get();
            let version = kernel + 1;
            for chiplet in plan.chiplets() {
                let mut i = 0usize;
                tracegen.for_each_event(
                    &packet.spec,
                    packet.id,
                    workload.arrays(),
                    plan,
                    chiplet,
                    |ev| {
                        if ev.write {
                            if hmg {
                                shadow.write_through(chiplet, ev.line, version);
                            } else {
                                shadow.write(chiplet, ev.line, version);
                            }
                            report.writes_recorded += 1;
                        } else if i.is_multiple_of(sample) {
                            let observed = if hmg {
                                shadow.read_shared(chiplet, ev.line)
                            } else {
                                shadow.read(chiplet, ev.line)
                            };
                            let (expected, prev) = shadow.truth_of(ev.line);
                            report.reads_checked += 1;
                            // A read racing a same-kernel write may see
                            // either the new value or the pre-kernel one.
                            let ok =
                                observed == expected || (expected == version && observed == prev);
                            if !ok {
                                report.violations.push(Violation {
                                    kernel,
                                    chiplet,
                                    line: ev.line,
                                    observed,
                                    expected,
                                });
                            }
                        }
                        i += 1;
                    },
                );
            }
        }
    }
    report.pages_placed = shadow.pages_placed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_mem::addr::PageAddr;
    use std::collections::HashMap;

    /// The original `HashMap`-backed shadow, kept verbatim as the reference
    /// the flat shadow must match report for report.
    #[derive(Debug, Default)]
    struct HashShadow {
        global: HashMap<LineAddr, u64>,
        l2: Vec<HashMap<LineAddr, ShadowEntry>>,
        truth: HashMap<LineAddr, (u64, u64)>,
        homes: HashMap<PageAddr, ChipletId>,
    }

    impl HashShadow {
        fn new(chiplets: usize) -> Self {
            HashShadow {
                l2: (0..chiplets).map(|_| HashMap::new()).collect(),
                ..Default::default()
            }
        }

        fn home_of(&mut self, line: LineAddr, toucher: ChipletId) -> ChipletId {
            *self.homes.entry(line.page()).or_insert(toucher)
        }
    }

    impl ShadowMem for HashShadow {
        fn release(&mut self, c: ChipletId) {
            // chiplet-check: allow(hash-iter) — frozen reference shadow; the flush is a
            // commutative max-merge, so hash order cannot reach any observable output
            for (line, e) in self.l2[c.index()].iter_mut() {
                if e.dirty {
                    let g = self.global.entry(*line).or_insert(0);
                    *g = (*g).max(e.version);
                    e.dirty = false;
                }
            }
        }

        fn acquire(&mut self, c: ChipletId) {
            self.release(c);
            self.l2[c.index()].clear();
        }

        fn write(&mut self, c: ChipletId, line: LineAddr, kernel: u64) {
            let prev = match self.truth.get(&line) {
                Some(&(v, p)) if v == kernel => p, // same-kernel rewrite
                Some(&(v, _)) => v,
                None => 0,
            };
            self.truth.insert(line, (kernel, prev));
            let home = self.home_of(line, c);
            if home == c {
                self.l2[c.index()].insert(
                    line,
                    ShadowEntry {
                        version: kernel,
                        dirty: true,
                    },
                );
            } else {
                let g = self.global.entry(line).or_insert(0);
                *g = (*g).max(kernel);
            }
        }

        fn read(&mut self, c: ChipletId, line: LineAddr) -> u64 {
            let home = self.home_of(line, c);
            if home == c {
                if let Some(e) = self.l2[c.index()].get(&line) {
                    return e.version;
                }
                let v = self.global.get(&line).copied().unwrap_or(0);
                self.l2[c.index()].insert(
                    line,
                    ShadowEntry {
                        version: v,
                        dirty: false,
                    },
                );
                v
            } else {
                self.global.get(&line).copied().unwrap_or(0)
            }
        }

        fn write_through(&mut self, c: ChipletId, line: LineAddr, kernel: u64) {
            let prev = match self.truth.get(&line) {
                Some(&(v, p)) if v == kernel => p,
                Some(&(v, _)) => v,
                None => 0,
            };
            self.truth.insert(line, (kernel, prev));
            let g = self.global.entry(line).or_insert(0);
            *g = (*g).max(kernel);
            // chiplet-check: allow(hash-iter) — iterates the outer per-chiplet Vec, in index order
            for (i, l2) in self.l2.iter_mut().enumerate() {
                if i == c.index() {
                    l2.insert(
                        line,
                        ShadowEntry {
                            version: kernel,
                            dirty: false,
                        },
                    );
                } else {
                    l2.remove(&line);
                }
            }
        }

        fn read_shared(&mut self, c: ChipletId, line: LineAddr) -> u64 {
            if let Some(e) = self.l2[c.index()].get(&line) {
                return e.version;
            }
            let v = self.global.get(&line).copied().unwrap_or(0);
            self.l2[c.index()].insert(
                line,
                ShadowEntry {
                    version: v,
                    dirty: false,
                },
            );
            v
        }

        fn truth_of(&self, line: LineAddr) -> (u64, u64) {
            self.truth.get(&line).copied().unwrap_or((0, 0))
        }

        fn pages_placed(&self) -> u64 {
            self.homes.len() as u64
        }
    }

    #[test]
    fn cpelide_is_coherent_on_streaming_reuse() {
        let w = chiplet_workloads::by_name("square").unwrap();
        let r = check_coherence(&w, ProtocolKind::CpElide, 4, 7);
        assert!(r.reads_checked > 1000);
        assert!(
            r.is_coherent(),
            "violations: {:?}",
            &r.violations[..r.violations.len().min(3)]
        );
    }

    #[test]
    fn baseline_is_coherent_by_construction() {
        let w = chiplet_workloads::by_name("hotspot3d").unwrap();
        let r = check_coherence(&w, ProtocolKind::Baseline, 4, 31);
        assert!(r.is_coherent());
    }

    #[test]
    fn cpelide_is_coherent_on_ping_pong_stencils() {
        // Hotspot3D's halo reads cross partition boundaries every kernel —
        // the sharpest test of the lazy release/acquire rules.
        let w = chiplet_workloads::by_name("hotspot3d").unwrap();
        let r = check_coherence(&w, ProtocolKind::CpElide, 4, 31);
        assert!(
            r.is_coherent(),
            "violations: {:?}",
            &r.violations[..r.violations.len().min(3)]
        );
    }

    #[test]
    fn never_syncing_is_caught_by_the_oracle() {
        // An (incorrect) protocol that never synchronizes must be flagged:
        // sssp's cross-chiplet gathers of owner-updated distances read
        // stale values if the producers' releases are dropped.
        let w = chiplet_workloads::by_name("sssp").unwrap();
        let broken = check_never_sync(&w, 4, 7);
        assert!(
            !broken.is_coherent(),
            "oracle must detect stale reads when synchronization is dropped"
        );
        // ...and CPElide's decisions fix exactly those reads.
        let ok = check_coherence(&w, ProtocolKind::CpElide, 4, 7);
        assert!(
            ok.is_coherent(),
            "violations: {:?}",
            &ok.violations[..ok.violations.len().min(3)]
        );
    }

    #[test]
    fn hmg_is_coherent_per_access() {
        // HMG has no boundary decisions; the per-access write-through +
        // invalidation datapath must replay clean on a cross-chiplet
        // producer/consumer workload.
        let w = chiplet_workloads::by_name("sssp").unwrap();
        for p in [ProtocolKind::Hmg, ProtocolKind::HmgWriteBack] {
            let r = check_coherence(&w, p, 4, 7);
            assert!(r.reads_checked > 0);
            assert!(r.is_coherent(), "{p}: {:?}", r.violations.first());
        }
    }

    #[test]
    fn flat_and_hash_reference_shadows_agree_exactly() {
        // The flat rework must be behaviourally invisible: identical
        // counters and identical violation lists, on coherent replays and
        // a deliberately broken one. fw relaunches one kernel over the
        // same pages dozens of times; sssp's gathers touch pages other
        // chiplets placed, so their page counts test first-touch homing.
        for (name, sample, sync) in [
            ("hotspot3d", 13, true),
            ("hotspot3d", 13, false),
            ("fw", 29, true),
            ("sssp", 29, true),
        ] {
            let w = chiplet_workloads::by_name(name).unwrap();
            let flat = if sync {
                check_coherence(&w, ProtocolKind::CpElide, 4, sample)
            } else {
                check_never_sync(&w, 4, sample)
            };
            let cfg = SimConfig::table1(4, ProtocolKind::CpElide);
            let mut shadow = HashShadow::new(cfg.num_chiplets);
            let hash = check_inner(&mut shadow, &w, &cfg, sample, sync);
            assert!(flat.pages_placed > 0, "{name}: no pages placed");
            assert_eq!(flat.reads_checked, hash.reads_checked, "{name}");
            assert_eq!(flat.writes_recorded, hash.writes_recorded, "{name}");
            assert_eq!(flat.pages_placed, hash.pages_placed, "{name}");
            assert_eq!(flat.violations, hash.violations, "{name} sync={sync}");
        }
    }

    #[test]
    fn bounded_shadow_that_cannot_evict_reproduces_the_flat_report() {
        // 8192 sets of 8 ways hold every line gaussian and hotspot touch,
        // so the bounded store never evicts and the two replays differ in
        // storage alone, on the VIPER and the HMG datapath both.
        let roomy = ShadowKind::Bounded {
            sets: 8192,
            ways: 8,
        };
        let replay = |w: &Workload, p: Option<ProtocolKind>, kind| match p {
            Some(p) => check_coherence_with(w, p, 4, 7, kind),
            None => check_never_sync_with(w, 4, 7, kind),
        };
        for name in ["gaussian", "hotspot"] {
            let w = chiplet_workloads::by_name(name).unwrap();
            for p in [
                Some(ProtocolKind::CpElide),
                Some(ProtocolKind::Baseline),
                Some(ProtocolKind::Hmg),
                Some(ProtocolKind::HmgWriteBack),
                None,
            ] {
                let flat = replay(&w, p, ShadowKind::Flat);
                let bounded = replay(&w, p, roomy);
                assert!(flat.reads_checked > 0, "{name} {p:?}");
                assert_eq!(p.is_none(), !flat.is_coherent(), "{name} {p:?}");
                assert_eq!(flat.reads_checked, bounded.reads_checked, "{name} {p:?}");
                assert_eq!(
                    flat.writes_recorded, bounded.writes_recorded,
                    "{name} {p:?}"
                );
                assert_eq!(flat.pages_placed, bounded.pages_placed, "{name} {p:?}");
                assert_eq!(flat.violations, bounded.violations, "{name} {p:?}");
            }
        }
    }

    #[test]
    fn bounded_shadow_matches_on_a_coherent_replay() {
        let w = chiplet_workloads::by_name("square").unwrap();
        let r = check_coherence_with(
            &w,
            ProtocolKind::CpElide,
            4,
            7,
            ShadowKind::Bounded { sets: 64, ways: 4 },
        );
        assert!(r.is_coherent(), "{:?}", r.violations.first());
    }
}
