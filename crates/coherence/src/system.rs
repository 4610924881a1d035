//! The multi-chiplet memory system: per-chiplet L2s, the banked shared LLC,
//! first-touch page placement, HBM, the HMG directory, and the per-protocol
//! access datapaths.
//!
//! The model is functional (exact hit/miss/eviction/invalidation behaviour)
//! with cost *classification*: every access returns a [`CostClass`] that the
//! simulator maps to Table I latencies, while flit traffic, cache events and
//! HBM accesses are accumulated here for the traffic (Figure 10) and energy
//! (Figure 9) evaluations.

use crate::config::{MemConfig, ProtocolKind};
use chiplet_mem::addr::{ChipletId, LineAddr};
use chiplet_mem::cache::{AccessOutcome, CacheCore, CacheGeometry, CacheStats, WritePolicy};
use chiplet_mem::directory::CoarseDirectory;
use chiplet_mem::hbm::Hbm;
use chiplet_mem::line_state::LineStateTable;
use chiplet_mem::page::FirstTouchPlacement;
use chiplet_mem::{SetAssocCache, LINE_BYTES};
use chiplet_noc::traffic::{FlitCounter, TrafficClass};

/// The service point of one access, mapped to latency by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// Served by the chiplet's own L2.
    L2Hit,
    /// Served by a *remote* chiplet's L2 (HMG caches remote accesses at
    /// their home node; Table I's 390-cycle remote L2 latency).
    L2RemoteHit,
    /// Served by an LLC bank (`remote` = the bank lives on another chiplet).
    L3 {
        /// Crossed an inter-chiplet link.
        remote: bool,
    },
    /// Served by HBM behind an LLC bank.
    Mem {
        /// Crossed an inter-chiplet link.
        remote: bool,
    },
    /// A store absorbed by the local write-back L2.
    StoreLocal,
    /// A store written through to its home node's LLC bank.
    StoreThrough {
        /// Crossed an inter-chiplet link.
        remote: bool,
    },
    /// A write-back store that first obtained exclusive ownership from the
    /// home directory (write-back HMG variant: precise tracking makes
    /// every store a directory transaction — the cost the paper cites for
    /// this variant being ~13 % slower).
    StoreOwned {
        /// Crossed an inter-chiplet link.
        remote: bool,
    },
    /// A read serviced by forwarding from another chiplet's dirty L2 copy
    /// (write-back HMG variant only).
    OwnerForward,
}

/// Cost summary of a release (whole-L2 dirty flush).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReleaseCost {
    /// Dirty lines written back to LLC banks on the same chiplet.
    pub local_lines: u64,
    /// Dirty lines written back across an inter-chiplet link.
    pub remote_lines: u64,
}

impl ReleaseCost {
    /// Total lines written back.
    pub fn total_lines(&self) -> u64 {
        self.local_lines + self.remote_lines
    }
}

/// Cost summary of an acquire (whole-L2 flush + invalidate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcquireCost {
    /// The embedded flush (dirty lines must not be lost).
    pub flush: ReleaseCost,
    /// Valid lines dropped by the invalidation.
    pub invalidated_lines: u64,
}

/// The simulated memory system for one protocol configuration.
///
/// Generic over the cache implementation so identical traces can be run
/// through the event-driven [`SetAssocCache`] (the default) and the
/// reference [`chiplet_mem::ScanCache`] and compared bit-for-bit; the one
/// parameter serves both the L2s and the L3, and each [`SetAssocCache`]
/// sizes its set blocks to its own geometry. [`read`](Self::read) and
/// [`write`](Self::write) are force-inlined through the per-protocol
/// paths, the L2/L3 accesses and the writeback routing, so the engine's
/// access loop reaches the cache's set block without a call on the hit
/// or fill path.
#[derive(Debug, Clone)]
pub struct MemorySystem<C: CacheCore = SetAssocCache> {
    kind: ProtocolKind,
    config: MemConfig,
    l2: Vec<C>,
    l3: C,
    placement: FirstTouchPlacement,
    hbm: Hbm,
    dirs: Vec<CoarseDirectory>,
    /// Superset dirty-owner masks per line, built only for
    /// [`ProtocolKind::HmgWriteBack`], the one protocol that asks "who
    /// holds this line dirty?". Lets its owner probe iterate candidate
    /// chiplets by popcount instead of probing every L2.
    dirty_owners: Option<LineStateTable>,
    traffic: FlitCounter,
    dir_remote_invalidations: u64,
}

impl MemorySystem {
    /// Builds the memory system for `kind` with geometry `config`, using
    /// the default event-driven cache core.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent, or if `kind` is
    /// [`ProtocolKind::Monolithic`] with more than one chiplet.
    pub fn new(kind: ProtocolKind, config: MemConfig) -> Self {
        MemorySystem::with_core(kind, config)
    }
}

impl<C: CacheCore> MemorySystem<C> {
    /// Builds the memory system for `kind` with geometry `config` on an
    /// explicit cache core `C`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent, or if `kind` is
    /// [`ProtocolKind::Monolithic`] with more than one chiplet.
    pub fn with_core(kind: ProtocolKind, config: MemConfig) -> Self {
        if kind == ProtocolKind::Monolithic {
            assert_eq!(
                config.num_chiplets, 1,
                "monolithic systems have a single aggregated die; use \
                 MemConfig::monolithic_equivalent"
            );
        }
        let l2_policy = match kind {
            ProtocolKind::Hmg => WritePolicy::WriteThrough,
            _ => WritePolicy::WriteBack,
        };
        let l2_geom = CacheGeometry::new(config.l2_bytes, LINE_BYTES, config.l2_ways)
            .expect("L2 geometry from Table I is valid"); // chiplet-check: allow(no-panic) — config invariant
        let l3_geom = CacheGeometry::new(config.l3_bytes, LINE_BYTES, config.l3_ways)
            .expect("L3 geometry from Table I is valid"); // chiplet-check: allow(no-panic) — config invariant
        let dirs = if kind.is_hmg() {
            (0..config.num_chiplets)
                .map(|_| {
                    CoarseDirectory::new(
                        config.dir_entries,
                        config.dir_ways,
                        config.dir_region_lines,
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        MemorySystem {
            kind,
            config,
            l2: (0..config.num_chiplets)
                .map(|_| C::new(l2_geom, l2_policy))
                .collect(),
            l3: C::new(l3_geom, WritePolicy::WriteBack),
            placement: FirstTouchPlacement::new(),
            hbm: Hbm::new(config.num_chiplets),
            dirs,
            dirty_owners: (kind == ProtocolKind::HmgWriteBack).then(LineStateTable::new),
            traffic: FlitCounter::new(),
            dir_remote_invalidations: 0,
        }
    }

    /// The protocol this system simulates.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// The geometry in use.
    pub fn config(&self) -> MemConfig {
        self.config
    }

    /// Cumulative flit traffic.
    pub fn traffic(&self) -> FlitCounter {
        self.traffic
    }

    /// Aggregate L2 event counters across chiplets.
    pub fn l2_stats_total(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for l2 in &self.l2 {
            total += l2.stats();
        }
        total
    }

    /// Event counters of the LLC.
    pub fn l3_stats(&self) -> CacheStats {
        self.l3.stats()
    }

    /// HBM access counters.
    pub fn hbm(&self) -> &Hbm {
        &self.hbm
    }

    /// Total directory evictions across all home directories (0 for
    /// non-HMG protocols).
    pub fn total_dir_evictions(&self) -> u64 {
        self.dirs.iter().map(|d| d.stats().evictions).sum()
    }

    /// Directory-eviction invalidation messages that crossed an
    /// inter-chiplet link. These stall the evicting access while the remote
    /// sharer acknowledges; the simulator charges that occupancy.
    pub fn dir_remote_invalidations(&self) -> u64 {
        self.dir_remote_invalidations
    }

    /// Number of valid lines currently in `c`'s L2 (diagnostics/tests).
    pub fn l2_valid_lines(&self, c: ChipletId) -> u64 {
        self.l2[c.index()].valid_lines()
    }

    /// Number of dirty lines currently in `c`'s L2 (diagnostics/tests).
    pub fn l2_dirty_lines(&self, c: ChipletId) -> u64 {
        self.l2[c.index()].dirty_lines()
    }

    /// The home chiplet of `line`, assigning it by first touch.
    #[inline(always)]
    pub fn home_of(&mut self, line: LineAddr, toucher: ChipletId) -> ChipletId {
        if self.config.num_chiplets == 1 {
            return ChipletId::new(0);
        }
        self.placement.home_of(line.page(), toucher)
    }

    fn home_of_resident(&self, line: LineAddr) -> ChipletId {
        self.placement
            .home_if_placed(line.page())
            .unwrap_or(ChipletId::new(0))
    }

    /// L3 read; returns true on hit. Fills on miss and charges HBM.
    #[inline(always)]
    fn l3_read(&mut self, line: LineAddr, home: ChipletId) -> bool {
        let out = self.l3.read(line);
        if !out.hit {
            self.hbm.record_read(home);
            if let Some(victim) = out.writeback {
                let victim_home = self.home_of_resident(victim);
                self.hbm.record_write(victim_home);
            }
        }
        out.hit
    }

    /// L3 write (from a write-through store or an L2 writeback).
    #[inline(always)]
    fn l3_write(&mut self, line: LineAddr, _home: ChipletId) {
        let out = self.l3.write(line);
        if let Some(victim) = out.writeback {
            let victim_home = self.home_of_resident(victim);
            self.hbm.record_write(victim_home);
        }
    }

    /// Routes one L2 writeback (capacity eviction or flush) downstream.
    #[inline(always)]
    fn writeback_line(&mut self, from: ChipletId, line: LineAddr) -> bool {
        let home = self.home_of_resident(line);
        let remote = home != from;
        self.traffic.record_write_transaction(TrafficClass::L2ToL3);
        if remote {
            self.traffic.record_write_transaction(TrafficClass::Remote);
        }
        self.l3_write(line, home);
        remote
    }

    /// Clears `c`'s dirty-owner bit for `line` (write-back HMG only): the
    /// line left `c`'s L2 or was written back.
    #[inline]
    fn note_clean(&mut self, c: ChipletId, line: LineAddr) {
        if let Some(t) = &mut self.dirty_owners {
            t.clear_dirty(line, c);
        }
    }

    /// Clears `c`'s dirty-owner bit for an access's evicted victim.
    #[inline]
    fn note_eviction(&mut self, c: ChipletId, out: AccessOutcome) {
        if let Some(v) = out.writeback.or(out.clean_eviction) {
            self.note_clean(c, v);
        }
    }

    /// L2 access for the HMG family: performs the read and keeps the
    /// dirty-owner masks a superset of true dirtiness.
    #[inline(always)]
    fn l2_read(&mut self, c: ChipletId, line: LineAddr) -> AccessOutcome {
        let out = self.l2[c.index()].read(line);
        self.note_eviction(c, out);
        out
    }

    /// L2 store for the HMG family; under write-back the line's dirty-owner
    /// bit is set so later owner probes can find it without a full scan.
    #[inline(always)]
    fn l2_write(&mut self, c: ChipletId, line: LineAddr) -> AccessOutcome {
        let out = self.l2[c.index()].write(line);
        self.note_eviction(c, out);
        if let Some(t) = &mut self.dirty_owners {
            t.mark_dirty(line, c);
        }
        out
    }

    /// Targeted L2 invalidation for the HMG family, with mask maintenance.
    fn l2_invalidate_line(&mut self, c: ChipletId, line: LineAddr) -> Option<bool> {
        let r = self.l2[c.index()].invalidate_line(line);
        if r.is_some() {
            self.note_clean(c, line);
        }
        r
    }

    /// Targeted L2 writeback for the HMG family, with mask maintenance.
    fn l2_flush_line(&mut self, c: ChipletId, line: LineAddr) -> bool {
        let r = self.l2[c.index()].flush_line(line);
        if r {
            self.note_clean(c, line);
        }
        r
    }

    /// Registers `sharer` in `home`'s directory, invalidating displaced
    /// regions at their sharers (HMG only). Home-local fills are served
    /// under the home's own bank and are not tracked; directory capacity is
    /// consumed by *remote* sharers — whose coarse 4-lines-per-entry
    /// tracking is exactly where HMG hurts (paper §V-B). A capacity
    /// eviction drops every covered line from every sharer's L2 —
    /// destroying reuse — and each cross-link invalidation additionally
    /// stalls the evicting access (counted in `dir_remote_invalidations`).
    fn dir_record(&mut self, home: ChipletId, line: LineAddr, sharer: ChipletId) {
        if sharer == home {
            return;
        }
        let update = self.dirs[home.index()].record_sharer(line, sharer);
        if let Some(ev) = update.evicted {
            let writeback = self.kind == ProtocolKind::HmgWriteBack;
            for s in ev.sharers.iter() {
                // One invalidation message per sharer per region.
                if s == home {
                    self.traffic.record_control(TrafficClass::L2ToL3);
                } else {
                    self.traffic.record_control(TrafficClass::Remote);
                    self.dir_remote_invalidations += 1;
                }
                for i in 0..ev.lines {
                    let l = ev.first_line.step(i);
                    if let Some(was_dirty) = self.l2_invalidate_line(s, l) {
                        if was_dirty && writeback {
                            self.writeback_line(s, l);
                        }
                    }
                }
            }
        }
    }

    /// Performs one read that missed the L1. Returns its cost class.
    #[inline(always)]
    pub fn read(&mut self, c: ChipletId, line: LineAddr) -> CostClass {
        self.traffic.record_read_transaction(TrafficClass::L1ToL2);
        match self.kind {
            ProtocolKind::Baseline | ProtocolKind::CpElide | ProtocolKind::Monolithic => {
                self.read_viper(c, line)
            }
            ProtocolKind::Hmg => self.read_hmg(c, line),
            ProtocolKind::HmgWriteBack => self.read_hmg_wb(c, line),
        }
    }

    #[inline(always)]
    fn read_viper(&mut self, c: ChipletId, line: LineAddr) -> CostClass {
        let home = self.home_of(line, c);
        if home != c {
            // Remote requests are forwarded to the home node's LLC bank and
            // are NOT cached in the requester's L2 (paper §IV-C: "Baseline
            // forwards remote requests to the home node"; §V-B: "CPElide
            // does not cache remote reads").
            self.traffic.record_read_transaction(TrafficClass::L2ToL3);
            self.traffic.record_read_transaction(TrafficClass::Remote);
            return if self.l3_read(line, home) {
                CostClass::L3 { remote: true }
            } else {
                CostClass::Mem { remote: true }
            };
        }
        let out = self.l2[c.index()].read(line);
        if out.hit {
            return CostClass::L2Hit;
        }
        if let Some(victim) = out.writeback {
            self.writeback_line(c, victim);
        }
        self.traffic.record_read_transaction(TrafficClass::L2ToL3);
        if self.l3_read(line, home) {
            CostClass::L3 { remote: false }
        } else {
            CostClass::Mem { remote: false }
        }
    }

    #[inline(always)]
    fn read_hmg(&mut self, c: ChipletId, line: LineAddr) -> CostClass {
        let out = self.l2_read(c, line);
        let home = self.home_of(line, c);
        if out.hit {
            return CostClass::L2Hit;
        }
        // Write-through L2 never has dirty victims.
        let remote = home != c;
        self.traffic.record_read_transaction(TrafficClass::L2ToL3);
        if !remote {
            return if self.l3_read(line, home) {
                CostClass::L3 { remote: false }
            } else {
                CostClass::Mem { remote: false }
            };
        }
        // Remote request: HMG caches remote accesses at their home node
        // (paper SV-B), so the home's L2 is probed before its LLC bank and
        // filled on the way back - contending with the home's local data.
        self.traffic.record_read_transaction(TrafficClass::Remote);
        self.dir_record(home, line, c);
        if self.l2_read(home, line).hit {
            return CostClass::L2RemoteHit;
        }
        if self.l3_read(line, home) {
            CostClass::L3 { remote: true }
        } else {
            CostClass::Mem { remote: true }
        }
    }

    fn read_hmg_wb(&mut self, c: ChipletId, line: LineAddr) -> CostClass {
        let out = self.l2_read(c, line);
        let home = self.home_of(line, c);
        if out.hit {
            return CostClass::L2Hit;
        }
        if let Some(victim) = out.writeback {
            self.writeback_line(c, victim);
        }
        let remote = home != c;
        self.traffic.record_read_transaction(TrafficClass::L2ToL3);
        if remote {
            self.traffic.record_read_transaction(TrafficClass::Remote);
        }
        // Another chiplet may own the line dirty: forward from the owner,
        // flushing its copy to the LLC on the way (3-hop transaction). The
        // dirty-owner mask narrows the probe to candidate chiplets in
        // ascending order (a superset, so each candidate is verified with a
        // real probe — same outcome as scanning every L2).
        let owner = self.dirty_owners.as_ref().and_then(|t| {
            t.dirty_candidates(line)
                .find(|&o| o != c && self.l2[o.index()].probe_dirty(line))
        });
        self.dir_record(home, line, c);
        if let Some(o) = owner {
            self.l2_flush_line(o, line);
            self.writeback_line(o, line);
            self.l3.read(line); // now present and clean downstream
            return CostClass::OwnerForward;
        }
        if self.l3_read(line, home) {
            CostClass::L3 { remote }
        } else {
            CostClass::Mem { remote }
        }
    }

    /// Performs one store (GPU L1s are write-through, so every store
    /// reaches the L2 level). Returns its cost class.
    #[inline(always)]
    pub fn write(&mut self, c: ChipletId, line: LineAddr) -> CostClass {
        self.traffic.record_write_transaction(TrafficClass::L1ToL2);
        match self.kind {
            ProtocolKind::Baseline | ProtocolKind::CpElide | ProtocolKind::Monolithic => {
                self.write_viper(c, line)
            }
            ProtocolKind::Hmg => self.write_hmg(c, line),
            ProtocolKind::HmgWriteBack => self.write_hmg_wb(c, line),
        }
    }

    #[inline(always)]
    fn write_viper(&mut self, c: ChipletId, line: LineAddr) -> CostClass {
        let home = self.home_of(line, c);
        if home == c {
            // Local stores write back: allocate dirty in the local L2.
            let out = self.l2[c.index()].write(line);
            if let Some(victim) = out.writeback {
                self.writeback_line(c, victim);
            }
            CostClass::StoreLocal
        } else {
            // Remote stores write through to the home node without a local
            // allocation (no remote-store reuse in the baseline protocol).
            self.traffic.record_write_transaction(TrafficClass::L2ToL3);
            self.traffic.record_write_transaction(TrafficClass::Remote);
            self.l3_write(line, home);
            CostClass::StoreThrough { remote: true }
        }
    }

    #[inline(always)]
    fn write_hmg(&mut self, c: ChipletId, line: LineAddr) -> CostClass {
        let home = self.home_of(line, c);
        let remote = home != c;
        // Write-through: keep a clean local copy, push the store to the
        // home node's LLC bank.
        self.l2_write(c, line);
        self.traffic.record_write_transaction(TrafficClass::L2ToL3);
        if remote {
            self.traffic.record_write_transaction(TrafficClass::Remote);
        }
        self.l3_write(line, home);
        self.invalidate_other_sharers(home, line, c);
        // The home chiplet's own (untracked) copy must not go stale.
        if remote {
            self.l2_invalidate_line(home, line);
        }
        self.dir_record(home, line, c);
        CostClass::StoreThrough { remote }
    }

    fn write_hmg_wb(&mut self, c: ChipletId, line: LineAddr) -> CostClass {
        let home = self.home_of(line, c);
        // Write-back everywhere, but the home directory must grant
        // exclusive ownership before the line may be dirtied locally (a
        // remote round trip when the home is another chiplet).
        let remote = home != c;
        if remote {
            self.traffic.record_control(TrafficClass::Remote);
        }
        let out = self.l2_write(c, line);
        if let Some(victim) = out.writeback {
            self.writeback_line(c, victim);
        }
        self.invalidate_other_sharers(home, line, c);
        if remote {
            self.l2_invalidate_line(home, line);
        }
        self.dir_record(home, line, c);
        CostClass::StoreOwned { remote }
    }

    /// Directory-precise invalidation of every sharer of `line` except the
    /// writer (HMG keeps L2s coherent on stores).
    fn invalidate_other_sharers(&mut self, home: ChipletId, line: LineAddr, writer: ChipletId) {
        let sharers = self.dirs[home.index()].sharers_of(line);
        for s in sharers.iter() {
            if s == writer {
                continue;
            }
            if s == home {
                self.traffic.record_control(TrafficClass::L2ToL3);
            } else {
                self.traffic.record_control(TrafficClass::Remote);
                self.dir_remote_invalidations += 1;
            }
            if let Some(was_dirty) = self.l2_invalidate_line(s, line) {
                if was_dirty && self.kind == ProtocolKind::HmgWriteBack {
                    self.writeback_line(s, line);
                }
            }
            self.dirs[home.index()].remove_sharer(line, s);
        }
    }

    /// An implicit *release* on `c`: writes back every dirty L2 line,
    /// retaining clean copies. Writebacks are routed to each line's home.
    pub fn release(&mut self, c: ChipletId) -> ReleaseCost {
        let lines = self.l2[c.index()].flush_dirty_lines();
        let mut cost = ReleaseCost::default();
        for line in lines {
            self.note_clean(c, line);
            if self.writeback_line(c, line) {
                cost.remote_lines += 1;
            } else {
                cost.local_lines += 1;
            }
        }
        cost
    }

    /// An implicit *acquire* on `c`: flushes dirty data (so nothing is
    /// lost), then drops every line.
    pub fn acquire(&mut self, c: ChipletId) -> AcquireCost {
        let flush = self.release(c);
        let inv = self.l2[c.index()].invalidate_all();
        if let Some(t) = &mut self.dirty_owners {
            t.clear_chiplet(c);
        }
        debug_assert_eq!(inv.dirty_dropped, 0, "flush must precede invalidate");
        AcquireCost {
            flush,
            invalidated_lines: inv.lines_invalidated,
        }
    }

    /// The conservative whole-GPU kernel-boundary synchronization the
    /// Baseline performs: acquire (flush+invalidate) on every chiplet.
    pub fn bulk_sync_all(&mut self) -> Vec<AcquireCost> {
        (0..self.config.num_chiplets)
            .map(|i| self.acquire(ChipletId::new(i as u8)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(n: usize) -> MemConfig {
        MemConfig {
            num_chiplets: n,
            l2_bytes: 64 * 64, // 64 lines
            l2_ways: 4,
            l3_bytes: 64 * 256,
            l3_ways: 8,
            dir_entries: 32,
            dir_ways: 4,
            dir_region_lines: 4,
        }
    }

    fn c(i: u8) -> ChipletId {
        ChipletId::new(i)
    }

    fn l(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn viper_read_miss_then_hit() {
        let mut m = MemorySystem::new(ProtocolKind::Baseline, small_config(2));
        let first = m.read(c(0), l(0));
        assert_eq!(first, CostClass::Mem { remote: false });
        let second = m.read(c(0), l(0));
        assert_eq!(second, CostClass::L2Hit);
    }

    #[test]
    fn first_touch_makes_later_chiplet_remote() {
        let mut m = MemorySystem::new(ProtocolKind::Baseline, small_config(2));
        m.read(c(0), l(0)); // chiplet 0 becomes home of page 0
        let r = m.read(c(1), l(1)); // same page, chiplet 1 -> remote, L3 hit
        assert!(matches!(
            r,
            CostClass::L3 { remote: true } | CostClass::Mem { remote: true }
        ));
    }

    #[test]
    fn viper_local_store_is_dirty_until_release() {
        let mut m = MemorySystem::new(ProtocolKind::Baseline, small_config(2));
        assert_eq!(m.write(c(0), l(0)), CostClass::StoreLocal);
        assert_eq!(m.l2_dirty_lines(c(0)), 1);
        let rel = m.release(c(0));
        assert_eq!(rel.total_lines(), 1);
        assert_eq!(rel.local_lines, 1, "home is local by first touch");
        assert_eq!(m.l2_dirty_lines(c(0)), 0);
        assert_eq!(m.l2_valid_lines(c(0)), 1, "clean copy retained");
    }

    #[test]
    fn viper_remote_store_writes_through_without_local_copy() {
        let mut m = MemorySystem::new(ProtocolKind::Baseline, small_config(2));
        m.read(c(0), l(0)); // home page 0 at chiplet 0
        let w = m.write(c(1), l(0));
        assert_eq!(w, CostClass::StoreThrough { remote: true });
        assert_eq!(m.l2_valid_lines(c(1)), 0);
        assert!(m.traffic().remote > 0);
    }

    #[test]
    fn acquire_empties_l2_and_preserves_dirty_data() {
        let mut m = MemorySystem::new(ProtocolKind::Baseline, small_config(2));
        m.write(c(0), l(0));
        m.read(c(0), l(1));
        let a = m.acquire(c(0));
        assert_eq!(a.flush.total_lines(), 1);
        assert_eq!(a.invalidated_lines, 2);
        assert_eq!(m.l2_valid_lines(c(0)), 0);
        // The flushed value is now in the LLC: a re-read hits L3.
        assert_eq!(m.read(c(0), l(0)), CostClass::L3 { remote: false });
    }

    #[test]
    fn bulk_sync_covers_all_chiplets() {
        let mut m = MemorySystem::new(ProtocolKind::Baseline, small_config(4));
        for i in 0..4u8 {
            m.write(c(i), l(u64::from(i) * 1000));
        }
        let costs = m.bulk_sync_all();
        assert_eq!(costs.len(), 4);
        for (i, a) in costs.iter().enumerate() {
            assert_eq!(a.flush.total_lines(), 1, "chiplet {i}");
        }
    }

    #[test]
    fn hmg_store_is_never_dirty_and_generates_l2_l3_traffic() {
        let mut m = MemorySystem::new(ProtocolKind::Hmg, small_config(2));
        let before = m.traffic().l2_l3;
        assert_eq!(
            m.write(c(0), l(0)),
            CostClass::StoreThrough { remote: false }
        );
        assert_eq!(m.l2_dirty_lines(c(0)), 0);
        assert!(m.traffic().l2_l3 > before, "write-through traffic");
        // The local clean copy serves later reads.
        assert_eq!(m.read(c(0), l(0)), CostClass::L2Hit);
    }

    #[test]
    fn hmg_remote_read_is_cached_for_reuse() {
        let mut m = MemorySystem::new(ProtocolKind::Hmg, small_config(2));
        m.read(c(0), l(0)); // home at 0, cached in 0's L2
                            // Remote read is served by the home node's L2 (Table I: 390 cyc).
        let first = m.read(c(1), l(0));
        assert_eq!(first, CostClass::L2RemoteHit);
        // HMG also caches the remote read locally: the next access hits.
        assert_eq!(m.read(c(1), l(0)), CostClass::L2Hit);
    }

    #[test]
    fn hmg_remote_miss_fills_home_node() {
        let mut m = MemorySystem::new(ProtocolKind::Hmg, small_config(2));
        m.read(c(0), l(64)); // establish chiplet 0 as home of page 1
        m.read(c(1), l(65)); // remote miss: home L2 miss -> LLC -> fills home
        assert!(m.l2_valid_lines(c(0)) >= 2, "home caches the remote access");
    }

    #[test]
    fn hmg_write_invalidates_other_sharers() {
        let mut m = MemorySystem::new(ProtocolKind::Hmg, small_config(2));
        m.read(c(0), l(0));
        m.read(c(1), l(0)); // both share the line
        assert_eq!(m.l2_valid_lines(c(1)), 1);
        m.write(c(0), l(0));
        assert_eq!(m.l2_valid_lines(c(1)), 0, "sharer invalidated precisely");
        // Coherent without any kernel-boundary bulk operation: the re-read
        // is served by the home (writer's) L2.
        assert_eq!(m.read(c(1), l(0)), CostClass::L2RemoteHit);
        assert!(m.dir_remote_invalidations() > 0);
    }

    #[test]
    fn hmg_directory_eviction_invalidates_cached_regions() {
        let mut cfg = small_config(2);
        cfg.dir_entries = 4; // tiny directory to force evictions
        cfg.dir_ways = 4;
        let mut m = MemorySystem::new(ProtocolKind::Hmg, cfg);
        m.read(c(0), l(0)); // chiplet 0 becomes home of page 0
                            // Chiplet 1 caches remote lines, each tracked at chiplet 0's
                            // directory. Five distinct regions overflow the 4-entry directory.
        for r in 0..=4u64 {
            m.read(c(1), l(r * 4));
        }
        assert!(m.total_dir_evictions() > 0);
        assert_eq!(
            m.dirs[1].stats().evictions,
            0,
            "all at chiplet 0's directory"
        );
        // Region 0's line was invalidated in chiplet 1's L2 by the eviction.
        let again = m.read(c(1), l(0));
        assert_ne!(again, CostClass::L2Hit, "reuse destroyed by dir eviction");
    }

    #[test]
    fn hmg_local_fills_are_not_tracked() {
        let mut cfg = small_config(2);
        cfg.dir_entries = 4;
        cfg.dir_ways = 4;
        let mut m = MemorySystem::new(ProtocolKind::Hmg, cfg);
        // Home-local reads consume no directory capacity: the home bank
        // keeps its own lines coherent without sharer tracking.
        for r in 0..100u64 {
            m.read(c(0), l(r * 4));
        }
        assert_eq!(m.total_dir_evictions(), 0);
        assert_eq!(m.dir_remote_invalidations(), 0);
    }

    #[test]
    fn hmg_remote_write_invalidates_home_copy() {
        let mut m = MemorySystem::new(ProtocolKind::Hmg, small_config(2));
        m.read(c(0), l(0)); // home 0 caches its own line
        assert_eq!(m.l2_valid_lines(c(0)), 1);
        m.write(c(1), l(0)); // remote write-through
        assert_eq!(m.l2_valid_lines(c(0)), 0, "home copy must not go stale");
    }

    #[test]
    fn hmg_wb_forwards_from_dirty_owner() {
        let mut m = MemorySystem::new(ProtocolKind::HmgWriteBack, small_config(2));
        m.read(c(0), l(0)); // home at 0
        m.write(c(1), l(0)); // chiplet 1 holds it dirty (write-back)
        assert_eq!(m.l2_dirty_lines(c(1)), 1);
        // Writer invalidated chiplet 0's copy; 0 re-reads -> owner forward.
        let r = m.read(c(0), l(0));
        assert_eq!(r, CostClass::OwnerForward);
        assert_eq!(m.l2_dirty_lines(c(1)), 0, "owner flushed on forward");
    }

    #[test]
    fn monolithic_has_no_remote_accesses() {
        let mut m = MemorySystem::new(
            ProtocolKind::Monolithic,
            MemConfig {
                num_chiplets: 1,
                ..small_config(1)
            },
        );
        for i in 0..100u64 {
            let r = m.read(c(0), l(i * 17));
            assert!(matches!(
                r,
                CostClass::L2Hit
                    | CostClass::L3 { remote: false }
                    | CostClass::Mem { remote: false }
            ));
        }
        assert_eq!(m.traffic().remote, 0);
    }

    #[test]
    #[should_panic(expected = "single aggregated die")]
    fn monolithic_rejects_multi_chiplet() {
        let _ = MemorySystem::new(ProtocolKind::Monolithic, small_config(2));
    }

    #[test]
    fn l3_miss_charges_hbm_and_eviction_writes_back() {
        let mut m = MemorySystem::new(ProtocolKind::Baseline, small_config(1));
        // Write enough distinct lines to overflow L2 (64 lines) and L3
        // (256 lines): dirty L2 victims flow to L3; L3 victims reach HBM.
        for i in 0..1000u64 {
            m.write(c(0), l(i));
        }
        // Reads of fresh lines must come from memory.
        let r = m.read(c(0), l(5000));
        assert_eq!(r, CostClass::Mem { remote: false });
        assert!(m.hbm().total_writes() > 0, "L3 evictions reach HBM");
        assert!(m.hbm().total_reads() > 0);
    }

    #[test]
    fn traffic_categories_accumulate() {
        let mut m = MemorySystem::new(ProtocolKind::Baseline, small_config(2));
        m.read(c(0), l(0));
        let t = m.traffic();
        assert!(t.l1_l2 > 0);
        assert!(t.l2_l3 > 0);
        assert_eq!(t.remote, 0, "local miss crosses no link");
    }
}
