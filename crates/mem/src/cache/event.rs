//! The event-driven set-block cache core.
//!
//! [`SetAssocCache`] is behaviourally identical to [`ScanCache`] (same
//! hits, same LRU victims, same writeback order, same stats) but it keeps
//! a few bytes per way slot and its bulk release/acquire operations cost
//! O(touched lines), not O(capacity):
//!
//! * **One geometry-sized block per set** — each set owns one
//!   cache-line-aligned [`SetBlock`] holding its set-relative tags
//!   (`line / sets`), its exact LRU ranks (a `u8` per way, 0 = MRU), its
//!   valid-way mask and its epoch. The block is as wide as the geometry
//!   needs: 16 ways for associativities up to 16, else 32, and its tags
//!   are `u16` while every tag the cache has filled fits 16 bits. A
//!   narrow 16-way block (the L3) is one 64 B host line and a narrow
//!   32-way block (the L2) two. A lookup is a fixed-width compare of
//!   every tag in the block (a plain loop LLVM vectorises) masked by the
//!   live ways, so one access touches one set's block and nothing
//!   footprint-sized. A hit ages the ways ranked below it, a fill ages
//!   every way, and a targeted invalidation closes the rank gap, so a
//!   full set's LRU victim is the way ranked `ways - 1`. A non-full set
//!   fills its first invalid way — the reference scan's first-minimal
//!   tie-break.
//! * **Widening once, in place** — the first fill whose tag outgrows
//!   16 bits (few sets and high lines) converts every block to `u32`
//!   tags, copying tags, ranks, masks and epochs as they are, so no tag
//!   ever aliases. A tag beyond `u32` still panics.
//! * **Epoch-tagged validity** — a block's valid mask is meaningful only
//!   while its epoch equals the cache's. `invalidate_all` (an acquire)
//!   bumps the cache epoch: every line is dropped in O(1), and a set
//!   lazily re-stamps itself on its next access.
//! * **Dirty-word bitmaps with a pending queue** — dirtiness is one bit
//!   per way slot (`set * ways + way`), packed 64 slots to a `u64` word;
//!   each word carries its own epoch tag so acquires also clear dirtiness
//!   in O(1). The first time a bit is set in a word after a drain, the
//!   word index is pushed onto `pending` (`queued_gen` guards against
//!   duplicates). A boundary drain then visits only pending words —
//!   sorted ascending and walked with `trailing_zeros`, which reproduces
//!   the reference scan's ascending way-index writeback order
//!   bit-for-bit.
//!
//! The read/write path is force-inlined from the public entry points down
//! to the block, so a caller generic over [`CacheCore`] (the memory
//! system) compiles each access into straight-line code.
//!
//! [`ScanCache`]: super::ScanCache

use super::{
    AccessOutcome, CacheCore, CacheGeometry, CacheStats, FlushOutcome, InvalidateOutcome,
    WritePolicy,
};
use crate::addr::LineAddr;
use std::fmt::Debug;

/// The widest associativity a [`SetBlock`] holds. Every Table I geometry
/// is 32-way (L2) or 16-way (L3); use [`ScanCache`](super::ScanCache) for
/// wider experiments.
const MAX_WAYS: usize = 32;

/// A set-relative tag lane: `u16` in a narrow block, `u32` in a wide one.
trait Tag: Copy + Eq + Debug {
    const ZERO: Self;
    /// The lane holding `tag`, which the caller has checked fits.
    fn lane(tag: u32) -> Self;
    /// The tag this lane holds.
    fn get(self) -> u32;
}

impl Tag for u16 {
    const ZERO: Self = 0;
    #[inline(always)]
    fn lane(tag: u32) -> Self {
        debug_assert!(tag <= u32::from(u16::MAX), "tag {tag} needs a wide block");
        tag as u16
    }
    #[inline(always)]
    fn get(self) -> u32 {
        u32::from(self)
    }
}

impl Tag for u32 {
    const ZERO: Self = 0;
    #[inline(always)]
    fn lane(tag: u32) -> Self {
        tag
    }
    #[inline(always)]
    fn get(self) -> u32 {
        self
    }
}

/// One set's state, laid out contiguously so an access touches one block.
/// Ways at or beyond the cache's associativity are never valid; their
/// tags and ranks are ignored, as are those of invalid ways.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct SetBlock<T, const W: usize> {
    /// Set-relative tag per way: the line is `tag * sets + set`.
    tag: [T; W],
    /// Exact LRU rank per valid way: 0 is the most recently used, and the
    /// `n` valid ways hold ranks `0..n`.
    rank: [u8; W],
    /// Valid bit per way; meaningful iff `epoch` is the cache's epoch.
    valid: u32,
    epoch: u32,
}

/// Where one access landed in its set.
struct Slot {
    way: usize,
    hit: bool,
    /// The evicted way's tag, when a full set missed.
    evicted: Option<u32>,
}

impl<T: Tag, const W: usize> SetBlock<T, W> {
    const EMPTY: Self = SetBlock {
        tag: [T::ZERO; W],
        rank: [0; W],
        valid: 0,
        epoch: 0,
    };

    /// Bit `w` set iff way `w`'s tag equals `tag` (validity not checked).
    #[inline(always)]
    fn tag_matches(&self, tag: T) -> u32 {
        let mut m = 0u32;
        for (w, &t) in self.tag.iter().enumerate() {
            m |= u32::from(t == tag) << w;
        }
        m
    }

    /// Bit `w` set iff way `w`'s rank equals `rank` (validity not checked).
    #[inline(always)]
    fn rank_matches(&self, rank: u8) -> u32 {
        let mut m = 0u32;
        for (w, &r) in self.rank.iter().enumerate() {
            m |= u32::from(r == rank) << w;
        }
        m
    }

    /// The valid-way mask, reading a stale-epoch block as empty.
    #[inline(always)]
    fn live(&self, epoch: u32) -> u32 {
        if self.epoch == epoch {
            self.valid
        } else {
            0
        }
    }

    /// Makes way `w` the most recently used; the ways ranked more recent
    /// than it age by one.
    #[inline(always)]
    fn promote(&mut self, w: usize) {
        let r = self.rank[w];
        for x in &mut self.rank {
            *x += u8::from(*x < r);
        }
        self.rank[w] = 0;
    }

    /// Installs `tag` in way `w` as the most recently used; every other
    /// way ages by one.
    #[inline(always)]
    fn fill(&mut self, w: usize, tag: T) {
        for x in &mut self.rank {
            *x = x.wrapping_add(1);
        }
        self.rank[w] = 0;
        self.tag[w] = tag;
        self.valid |= 1 << w;
    }

    /// Drops way `w`, closing its gap in the rank order.
    #[inline(always)]
    fn remove(&mut self, w: usize) {
        let r = self.rank[w];
        for x in &mut self.rank {
            *x -= u8::from(*x > r);
        }
        self.valid &= !(1 << w);
    }

    /// Looks `tag` up in this set, re-stamping a stale block into `epoch`
    /// first, and on a miss fills it: into the first invalid way, or over
    /// the least recently used way when the set is `full`.
    #[inline(always)]
    fn access(&mut self, tag: T, epoch: u32, full: u32, ways: usize) -> Slot {
        if self.epoch != epoch {
            self.epoch = epoch;
            self.valid = 0;
        }
        let hits = self.tag_matches(tag) & self.valid;
        if hits != 0 {
            let way = hits.trailing_zeros() as usize;
            self.promote(way);
            return Slot {
                way,
                hit: true,
                evicted: None,
            };
        }
        let victim_full = self.valid == full;
        let way = if victim_full {
            (self.rank_matches((ways - 1) as u8) & self.valid).trailing_zeros() as usize
        } else {
            (!self.valid).trailing_zeros() as usize
        };
        let evicted = victim_full.then(|| self.tag[way].get());
        self.fill(way, tag);
        Slot {
            way,
            hit: false,
            evicted,
        }
    }
}

impl<const W: usize> SetBlock<u16, W> {
    /// The same set with `u32` tag lanes.
    fn widen(&self) -> SetBlock<u32, W> {
        SetBlock {
            tag: self.tag.map(u32::from),
            rank: self.rank,
            valid: self.valid,
            epoch: self.epoch,
        }
    }
}

/// The cache's set blocks, in the narrowest layout its geometry and tags
/// allow.
#[derive(Debug, Clone)]
enum Blocks {
    Narrow16(Vec<SetBlock<u16, 16>>),
    Narrow32(Vec<SetBlock<u16, 32>>),
    Wide16(Vec<SetBlock<u32, 16>>),
    Wide32(Vec<SetBlock<u32, 32>>),
}

/// Evaluates `$body` with `$b` bound to the block vector of `$blocks`,
/// whatever its layout; each arm is compiled for its own block type.
macro_rules! with_blocks {
    ($blocks:expr, $b:ident => $body:expr) => {
        match $blocks {
            Blocks::Narrow16($b) => $body,
            Blocks::Narrow32($b) => $body,
            Blocks::Wide16($b) => $body,
            Blocks::Wide32($b) => $body,
        }
    };
}

#[cold]
#[inline(never)]
fn tag_overflow(line: LineAddr, sets: u64) -> ! {
    panic!(
        "line {} has a set-relative tag beyond u32 with {sets} sets",
        line.get()
    )
}

/// The event-driven set-associative cache with LRU replacement (the
/// default core used by the simulator).
///
/// # Example
///
/// ```
/// use chiplet_mem::cache::{CacheCore, CacheGeometry, SetAssocCache, WritePolicy};
/// use chiplet_mem::addr::LineAddr;
///
/// let geom = CacheGeometry::new(4096, 64, 2)?; // 32 sets x 2 ways
/// let mut c = SetAssocCache::new(geom, WritePolicy::WriteBack);
/// assert!(!c.read(LineAddr::new(7)).hit); // cold miss fills
/// assert!(c.read(LineAddr::new(7)).hit);  // now hits
/// # Ok::<(), chiplet_mem::cache::GeometryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geom: CacheGeometry,
    policy: WritePolicy,
    /// `sets - 1` when the set count is a power of two (every Table I
    /// geometry), letting the hot path mask and shift instead of divide;
    /// `u64::MAX` flags the division fallback.
    set_mask: u64,
    /// `log2(sets)` when `set_mask` is live.
    set_shift: u32,
    ways: usize,
    /// Valid mask of a full set.
    full: u32,
    /// The largest tag the blocks hold: `u16::MAX` while narrow, then
    /// `u32::MAX`.
    tag_limit: u32,
    sets: Blocks,
    /// Dirty bits, 64 way slots per word. A word's contents are meaningful
    /// iff `dirty_word_epoch[w] == epoch`; otherwise the word is stale and
    /// reads as all-clean.
    dirty_words: Vec<u64>,
    dirty_word_epoch: Vec<u32>,
    /// Word indices with at least one dirty bit set since the last drain,
    /// in first-dirtied order (sorted at drain time).
    pending: Vec<u32>,
    /// A word is already on `pending` iff `queued_gen[w] == drain_gen`.
    queued_gen: Vec<u32>,
    epoch: u32,
    drain_gen: u32,
    valid_count: u64,
    dirty_count: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// The line's set and set-relative tag.
    ///
    /// # Panics
    ///
    /// Panics if the tag does not fit a `u32`: aliasing it would silently
    /// merge distinct lines.
    #[inline(always)]
    fn locate(&self, line: LineAddr) -> (usize, u32) {
        let l = line.get();
        let (set, tag) = if self.set_mask != u64::MAX {
            (l & self.set_mask, l >> self.set_shift)
        } else {
            (l % self.geom.sets(), l / self.geom.sets())
        };
        match u32::try_from(tag) {
            Ok(tag) => (set as usize, tag),
            Err(_) => tag_overflow(line, self.geom.sets()),
        }
    }

    /// Converts every block to `u32` tags, keeping its contents: the
    /// cache is about to fill a tag beyond 16 bits.
    #[cold]
    #[inline(never)]
    fn widen(&mut self) {
        let blocks = std::mem::replace(&mut self.sets, Blocks::Wide16(Vec::new()));
        self.sets = match blocks {
            Blocks::Narrow16(b) => Blocks::Wide16(b.iter().map(SetBlock::widen).collect()),
            Blocks::Narrow32(b) => Blocks::Wide32(b.iter().map(SetBlock::widen).collect()),
            wide => wide,
        };
        self.tag_limit = u32::MAX;
    }

    #[inline(always)]
    fn dirty_bit(&self, i: usize) -> bool {
        let w = i / 64;
        self.dirty_word_epoch[w] == self.epoch && (self.dirty_words[w] >> (i % 64)) & 1 == 1
    }

    /// Sets the dirty bit for a way slot (which must currently read clean)
    /// and queues its word for the next drain. Does not touch
    /// `dirty_count` — callers keep the counter to mirror the reference
    /// control flow exactly.
    #[inline(always)]
    fn set_dirty_bit(&mut self, i: usize) {
        let w = i / 64;
        if self.dirty_word_epoch[w] != self.epoch {
            // Stale word from a pre-acquire epoch: its bits are garbage.
            self.dirty_words[w] = 0;
            self.dirty_word_epoch[w] = self.epoch;
        }
        self.dirty_words[w] |= 1u64 << (i % 64);
        if self.queued_gen[w] != self.drain_gen {
            self.queued_gen[w] = self.drain_gen;
            self.pending.push(w as u32);
        }
    }

    #[inline]
    fn clear_dirty_bit(&mut self, i: usize) {
        let w = i / 64;
        if self.dirty_word_epoch[w] == self.epoch {
            self.dirty_words[w] &= !(1u64 << (i % 64));
        }
    }

    /// Starts a fresh drain generation: the pending queue is empty and
    /// every word may be queued again.
    fn bump_drain_gen(&mut self) {
        self.pending.clear();
        if self.drain_gen == u32::MAX {
            self.queued_gen.fill(0);
            self.drain_gen = 1;
        } else {
            self.drain_gen += 1;
        }
    }

    /// Way slot holding `line`, if resident.
    #[inline]
    fn find_way(&self, line: LineAddr) -> Option<usize> {
        let (s, tag) = self.locate(line);
        if tag > self.tag_limit {
            // Narrow blocks hold no tag this wide.
            return None;
        }
        let epoch = self.epoch;
        let hits =
            with_blocks!(&self.sets, b => b[s].tag_matches(Tag::lane(tag)) & b[s].live(epoch));
        (hits != 0).then(|| s * self.ways + hits.trailing_zeros() as usize)
    }

    #[inline(always)]
    fn touch(&mut self, line: LineAddr, write: bool) -> AccessOutcome {
        let make_dirty = write && self.policy == WritePolicy::WriteBack;
        let (s, tag) = self.locate(line);
        if tag > self.tag_limit {
            self.widen();
        }
        let (epoch, full, ways) = (self.epoch, self.full, self.ways);
        // Both policies write-allocate (Table I).
        let slot =
            with_blocks!(&mut self.sets, b => b[s].access(Tag::lane(tag), epoch, full, ways));
        let i = s * ways + slot.way;

        if slot.hit {
            if make_dirty && !self.dirty_bit(i) {
                self.set_dirty_bit(i);
                self.dirty_count += 1;
            }
            return AccessOutcome {
                hit: true,
                writeback: None,
                clean_eviction: None,
            };
        }

        let evicted = slot
            .evicted
            .map(|t| LineAddr::new(u64::from(t) * self.geom.sets() + s as u64));
        let mut writeback = None;
        let mut clean_eviction = None;
        if let Some(evicted) = evicted {
            if self.dirty_bit(i) {
                writeback = Some(evicted);
                self.clear_dirty_bit(i);
                self.dirty_count -= 1;
                self.stats.capacity_writebacks += 1;
            } else {
                clean_eviction = Some(evicted);
            }
            self.stats.evictions += 1;
            self.valid_count -= 1;
        }
        self.valid_count += 1;
        if make_dirty {
            self.set_dirty_bit(i);
            self.dirty_count += 1;
        }
        self.stats.fills += 1;

        AccessOutcome {
            hit: false,
            writeback,
            clean_eviction,
        }
    }
}

impl CacheCore for SetAssocCache {
    /// Creates an empty cache whose set blocks are 16 ways wide for up to
    /// 16 ways and 32 otherwise, with `u16` tags until a fill needs more.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's associativity exceeds 32, the width of the
    /// widest set block. Every Table I geometry is 32-way (L2) or 16-way (L3);
    /// use [`ScanCache`](super::ScanCache) for wider experiments.
    fn new(geom: CacheGeometry, policy: WritePolicy) -> Self {
        let ways = geom.ways() as usize;
        assert!(
            ways <= MAX_WAYS,
            "SetAssocCache supports at most {MAX_WAYS} ways; got {ways}"
        );
        let slots = geom.total_lines() as usize;
        let words = slots.div_ceil(64);
        let sets = geom.sets();
        let pow2 = sets.is_power_of_two();
        let n = sets as usize;
        let blocks = if ways <= 16 {
            Blocks::Narrow16(vec![SetBlock::EMPTY; n])
        } else {
            Blocks::Narrow32(vec![SetBlock::EMPTY; n])
        };
        SetAssocCache {
            geom,
            policy,
            set_mask: if pow2 { sets - 1 } else { u64::MAX },
            set_shift: if pow2 { sets.trailing_zeros() } else { 0 },
            ways,
            full: if ways == MAX_WAYS {
                u32::MAX
            } else {
                (1 << ways) - 1
            },
            tag_limit: u32::from(u16::MAX),
            sets: blocks,
            dirty_words: vec![0; words],
            dirty_word_epoch: vec![0; words],
            pending: Vec::new(),
            queued_gen: vec![0; words],
            epoch: 1,
            drain_gen: 1,
            valid_count: 0,
            dirty_count: 0,
            stats: CacheStats::default(),
        }
    }

    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn valid_lines(&self) -> u64 {
        self.valid_count
    }

    fn dirty_lines(&self) -> u64 {
        self.dirty_count
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn probe(&self, line: LineAddr) -> bool {
        self.find_way(line).is_some()
    }

    fn probe_dirty(&self, line: LineAddr) -> bool {
        self.find_way(line).is_some_and(|i| self.dirty_bit(i))
    }

    #[inline(always)]
    fn read(&mut self, line: LineAddr) -> AccessOutcome {
        self.stats.reads += 1;
        let out = self.touch(line, false);
        if out.hit {
            self.stats.read_hits += 1;
        }
        out
    }

    #[inline(always)]
    fn write(&mut self, line: LineAddr) -> AccessOutcome {
        self.stats.writes += 1;
        let out = self.touch(line, true);
        if out.hit {
            self.stats.write_hits += 1;
        }
        out
    }

    /// Visits only the words dirtied since the last drain.
    fn flush_dirty(&mut self) -> FlushOutcome {
        let flushed = self.dirty_count;
        for k in 0..self.pending.len() {
            let w = self.pending[k] as usize;
            if self.dirty_word_epoch[w] == self.epoch {
                self.dirty_words[w] = 0;
            }
        }
        self.bump_drain_gen();
        self.dirty_count = 0;
        self.stats.flush_writebacks += flushed;
        self.stats.bulk_flushes += 1;
        FlushOutcome {
            lines_written_back: flushed,
        }
    }

    /// Drops every line in O(1) via an epoch bump.
    fn invalidate_all(&mut self) -> InvalidateOutcome {
        let invalidated = self.valid_count;
        let dirty = self.dirty_count;
        if self.epoch == u32::MAX {
            with_blocks!(&mut self.sets, b => b.iter_mut().for_each(|x| x.epoch = 0));
            self.dirty_word_epoch.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.bump_drain_gen();
        self.valid_count = 0;
        self.dirty_count = 0;
        self.stats.invalidated += invalidated;
        self.stats.bulk_invalidates += 1;
        InvalidateOutcome {
            lines_invalidated: invalidated,
            dirty_dropped: dirty,
        }
    }

    /// Pending words are sorted and their bits walked with
    /// `trailing_zeros`, so lines come out in ascending way-index order —
    /// byte-identical to the reference scan's order.
    fn flush_dirty_lines(&mut self) -> Vec<LineAddr> {
        let mut lines = Vec::with_capacity(self.dirty_count as usize);
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable();
        let (ways, sets) = (self.ways, self.geom.sets());
        let (words, word_epoch, epoch) =
            (&mut self.dirty_words, &self.dirty_word_epoch, self.epoch);
        with_blocks!(&self.sets, blocks => {
            for &word in &pending {
                let w = word as usize;
                if word_epoch[w] != epoch {
                    continue;
                }
                let mut bits = words[w];
                while bits != 0 {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    let (s, way) = (i / ways, i % ways);
                    let tag = u64::from(blocks[s].tag[way].get());
                    lines.push(LineAddr::new(tag * sets + s as u64));
                    bits &= bits - 1;
                }
                words[w] = 0;
            }
        });
        self.pending = pending;
        self.bump_drain_gen();
        debug_assert_eq!(lines.len() as u64, self.dirty_count);
        self.dirty_count = 0;
        self.stats.flush_writebacks += lines.len() as u64;
        self.stats.bulk_flushes += 1;
        lines
    }

    fn invalidate_line(&mut self, line: LineAddr) -> Option<bool> {
        let i = self.find_way(line)?;
        let was_dirty = self.dirty_bit(i);
        // A found way implies its set is stamped into the current epoch.
        let (s, w) = (i / self.ways, i % self.ways);
        with_blocks!(&mut self.sets, b => b[s].remove(w));
        self.valid_count -= 1;
        if was_dirty {
            self.clear_dirty_bit(i);
            self.dirty_count -= 1;
        }
        self.stats.invalidated += 1;
        Some(was_dirty)
    }

    fn flush_line(&mut self, line: LineAddr) -> bool {
        match self.find_way(line) {
            Some(i) if self.dirty_bit(i) => {
                self.clear_dirty_bit(i);
                self.dirty_count -= 1;
                self.stats.flush_writebacks += 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::ScanCache;
    use super::*;

    fn small(policy: WritePolicy) -> SetAssocCache {
        // 2 sets x 2 ways, 64 B lines.
        SetAssocCache::new(CacheGeometry::new(256, 64, 2).unwrap(), policy)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(WritePolicy::WriteBack);
        assert!(!c.read(LineAddr::new(0)).hit);
        assert!(c.read(LineAddr::new(0)).hit);
        assert_eq!(c.stats().reads, 2);
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small(WritePolicy::WriteBack);
        c.read(LineAddr::new(0));
        c.read(LineAddr::new(2));
        c.read(LineAddr::new(0)); // 0 is now MRU
        let out = c.read(LineAddr::new(4)); // evicts 2
        assert_eq!(out.clean_eviction, Some(LineAddr::new(2)));
        assert!(c.probe(LineAddr::new(0)));
        assert!(!c.probe(LineAddr::new(2)));
    }

    #[test]
    fn drain_preserves_reference_order() {
        // Dirty lines queued out of way order must still drain in ascending
        // way-index order (the scan order the goldens depend on).
        let geom = CacheGeometry::new(4096, 64, 4).unwrap(); // 16 sets x 4 ways
        let mut ev = SetAssocCache::new(geom, WritePolicy::WriteBack);
        let mut sc = ScanCache::new(geom, WritePolicy::WriteBack);
        // Touch sets high-to-low, several ways per set.
        for line in [49u64, 17, 33, 1, 50, 2, 18, 15, 47, 31, 63] {
            ev.write(LineAddr::new(line));
            sc.write(LineAddr::new(line));
        }
        assert_eq!(ev.flush_dirty_lines(), sc.flush_dirty_lines());
    }

    #[test]
    fn invalidate_all_is_epoch_bump() {
        let mut c = small(WritePolicy::WriteBack);
        c.write(LineAddr::new(0));
        c.read(LineAddr::new(1));
        let out = c.invalidate_all();
        assert_eq!(out.lines_invalidated, 2);
        assert_eq!(out.dirty_dropped, 1);
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.probe(LineAddr::new(0)));
        // The slot is reusable and the stale dirty bit must not leak into
        // the new epoch.
        c.read(LineAddr::new(0));
        assert_eq!(c.dirty_lines(), 0);
        assert!(c.flush_dirty_lines().is_empty());
    }

    #[test]
    fn stale_dirty_word_does_not_leak_across_epochs() {
        let mut c = small(WritePolicy::WriteBack);
        c.write(LineAddr::new(0)); // dirty bit in word 0
        c.invalidate_all();
        c.read(LineAddr::new(0)); // same slot refilled clean
        assert!(!c.probe_dirty(LineAddr::new(0)));
        assert_eq!(c.flush_dirty(), FlushOutcome::default());
    }

    #[test]
    fn requeue_after_drain_generations() {
        let mut c = small(WritePolicy::WriteBack);
        c.write(LineAddr::new(0));
        assert_eq!(c.flush_dirty_lines(), vec![LineAddr::new(0)]);
        // Same word must be queueable again in the next generation.
        c.write(LineAddr::new(0));
        assert_eq!(c.flush_dirty_lines(), vec![LineAddr::new(0)]);
        assert!(c.flush_dirty_lines().is_empty());
    }

    #[test]
    fn flush_line_and_invalidate_line_update_queue_state() {
        let mut c = small(WritePolicy::WriteBack);
        c.write(LineAddr::new(0));
        c.write(LineAddr::new(1));
        assert!(c.flush_line(LineAddr::new(0)));
        assert_eq!(c.invalidate_line(LineAddr::new(1)), Some(true));
        // Both dirty bits are gone; drain sees an empty (but queued) word.
        assert!(c.flush_dirty_lines().is_empty());
    }

    /// Replays `ops` seeded mixed operations through both cores and
    /// demands every observable match: outcomes, probes, counts and drain
    /// order. Each line is drawn from one of `lines`, picked uniformly.
    /// `mix` is the per-mille share of (`flush_line`, `invalidate_line`,
    /// `flush_dirty_lines`, `flush_dirty`, `invalidate_all`); the rest
    /// splits between reads, writes and probes.
    fn replay(
        ev: &mut SetAssocCache,
        sc: &mut ScanCache,
        seed: u64,
        lines: &[std::ops::Range<u64>],
        mix: [u64; 5],
        ops: usize,
    ) {
        let mut x = seed;
        let mut rng = move || {
            // xorshift64* — deterministic, dependency-free.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545f4914f6cdd1d)
        };
        let ranges = lines.len() as u64;
        let mut bounds = [0u64; 5];
        let mut acc = 0;
        for (b, m) in bounds.iter_mut().zip(mix) {
            acc += m;
            *b = acc;
        }
        let rest = 1000 - acc;
        for _ in 0..ops {
            let r = rng();
            let pick = &lines[((r >> 32) % ranges) as usize];
            let span = pick.end - pick.start;
            let line = LineAddr::new(pick.start + (r >> 32) / ranges % span);
            match r % 1000 {
                k if k < bounds[0] => assert_eq!(ev.flush_line(line), sc.flush_line(line)),
                k if k < bounds[1] => {
                    assert_eq!(ev.invalidate_line(line), sc.invalidate_line(line))
                }
                k if k < bounds[2] => assert_eq!(ev.flush_dirty_lines(), sc.flush_dirty_lines()),
                k if k < bounds[3] => assert_eq!(ev.flush_dirty(), sc.flush_dirty()),
                k if k < bounds[4] => assert_eq!(ev.invalidate_all(), sc.invalidate_all()),
                k if k < acc + rest * 45 / 100 => assert_eq!(ev.read(line), sc.read(line)),
                k if k < acc + rest * 90 / 100 => assert_eq!(ev.write(line), sc.write(line)),
                _ => {
                    assert_eq!(ev.probe(line), sc.probe(line));
                    assert_eq!(ev.probe_dirty(line), sc.probe_dirty(line));
                }
            }
            assert_eq!(ev.valid_lines(), sc.valid_lines());
            assert_eq!(ev.dirty_lines(), sc.dirty_lines());
        }
        assert_eq!(ev.stats(), sc.stats());
    }

    /// [`replay`] of 20,000 operations on fresh cores over one line range,
    /// ending with a final drain that must also match. Returns the
    /// reference core's final stats.
    fn differential(
        geom: CacheGeometry,
        policy: WritePolicy,
        seed: u64,
        lines: std::ops::Range<u64>,
        mix: [u64; 5],
    ) -> CacheStats {
        let mut ev = SetAssocCache::new(geom, policy);
        let mut sc = ScanCache::new(geom, policy);
        replay(&mut ev, &mut sc, seed, &[lines], mix, 20_000);
        assert_eq!(ev.flush_dirty_lines(), sc.flush_dirty_lines());
        sc.stats()
    }

    /// Differential fuzz against the reference scan implementation on a
    /// small 4-way geometry with frequent bulk and line operations.
    #[test]
    fn matches_scan_cache_on_random_op_stream() {
        for (seed, policy) in [
            (0x9e3779b97f4a7c15u64, WritePolicy::WriteBack),
            (0xdeadbeefcafef00du64, WritePolicy::WriteBack),
            (0x0123456789abcdefu64, WritePolicy::WriteThrough),
        ] {
            let geom = CacheGeometry::new(8192, 64, 4).unwrap(); // 32 sets x 4 ways
            differential(geom, policy, seed, 0..512, [40, 40, 30, 20, 10]);
        }
    }

    /// The same differential at the Table I associativities (32-way L2,
    /// 16-way L3) and at 8 ways, on power-of-two and other set counts,
    /// with bulk operations rare enough that sets fill and evict by LRU
    /// rank between acquires. Line numbers span tags that stay within
    /// 16 bits (narrow blocks) and tags beyond them (widened blocks).
    #[test]
    fn matches_scan_cache_at_full_associativity() {
        let geometries = [
            (CacheGeometry::new(8 * 32 * 64, 64, 32).unwrap(), 1u64 << 20), // 8 sets
            (CacheGeometry::new(16 * 16 * 64, 64, 16).unwrap(), 1 << 24),   // 16 sets
            (CacheGeometry::new(6 * 32 * 64, 64, 32).unwrap(), 12_345),     // 6 sets
            (CacheGeometry::new(12 * 16 * 64, 64, 16).unwrap(), 0),         // 12 sets
            (CacheGeometry::new(64 * 16 * 64, 64, 16).unwrap(), 1 << 21),   // 64 sets
            (CacheGeometry::new(32 * 8 * 64, 64, 8).unwrap(), 1 << 12),     // 32 sets
            (CacheGeometry::new(24 * 8 * 64, 64, 8).unwrap(), 1 << 23),     // 24 sets
        ];
        for (geom, base) in geometries {
            assert!(geom.ways() >= 8);
            let footprint = 2 * geom.total_lines();
            for (seed, policy) in [
                (0x9e3779b97f4a7c15u64, WritePolicy::WriteBack),
                (0x0123456789abcdefu64, WritePolicy::WriteThrough),
            ] {
                let stats = differential(
                    geom,
                    policy,
                    seed ^ geom.sets(),
                    base..base + footprint,
                    [40, 40, 4, 3, 1],
                );
                assert!(
                    stats.evictions > 1000,
                    "{geom:?}: only {} LRU evictions exercised",
                    stats.evictions
                );
                assert!(stats.invalidated > 0 && stats.bulk_invalidates > 0);
            }
        }
    }

    /// Whether the cache still holds `u16` tags.
    fn is_narrow(c: &SetAssocCache) -> bool {
        matches!(c.sets, Blocks::Narrow16(_) | Blocks::Narrow32(_))
    }

    /// A stream whose tags cross 16 bits mid-run: 32 sets, first over low
    /// lines (narrow blocks), then over those lines and lines from
    /// 0x400000 (tag 2^17), where the first such fill widens the blocks
    /// in place. Every observable matches the reference before and after
    /// the widening, and lines resident across it keep hitting.
    #[test]
    fn matches_scan_cache_across_tag_widening() {
        for (ways, policy, seed) in [
            (16u32, WritePolicy::WriteBack, 0x9e3779b97f4a7c15u64),
            (32, WritePolicy::WriteBack, 0xdeadbeefcafef00d),
            (8, WritePolicy::WriteThrough, 0x0123456789abcdef),
        ] {
            let geom = CacheGeometry::new(32 * u64::from(ways) * 64, 64, ways).unwrap();
            let mut ev = SetAssocCache::new(geom, policy);
            let mut sc = ScanCache::new(geom, policy);
            let footprint = 2 * geom.total_lines();
            let (low, high) = (0..footprint, 0x40_0000..0x40_0000 + footprint);
            let mix = [40, 40, 4, 3, 1];
            replay(
                &mut ev,
                &mut sc,
                seed,
                std::slice::from_ref(&low),
                mix,
                10_000,
            );
            assert!(is_narrow(&ev), "{ways}-way: widened before any wide tag");
            assert!(ev.valid_lines() > 0);
            let before = sc.stats();
            replay(&mut ev, &mut sc, seed ^ 1, &[low, high], mix, 10_000);
            assert!(!is_narrow(&ev), "{ways}-way: never widened");
            assert!(
                sc.stats().read_hits + sc.stats().write_hits > before.read_hits + before.write_hits
            );
            assert_eq!(ev.flush_dirty_lines(), sc.flush_dirty_lines());
            assert_eq!(ev.stats(), sc.stats());
        }
    }

    /// Block layouts are pinned: a narrow 16-way block is one 64 B host
    /// line and a narrow 32-way block two, so a field that spills a host
    /// line fails here instead of silently costing speed.
    #[test]
    fn set_blocks_fill_whole_host_lines() {
        use std::mem::{align_of, size_of};
        assert_eq!(size_of::<SetBlock<u16, 16>>(), 64);
        assert_eq!(size_of::<SetBlock<u16, 32>>(), 128);
        assert_eq!(size_of::<SetBlock<u32, 16>>(), 128);
        assert_eq!(size_of::<SetBlock<u32, 32>>(), 192);
        assert_eq!(align_of::<SetBlock<u16, 16>>(), 64);
        assert_eq!(align_of::<SetBlock<u16, 32>>(), 64);
        let layout = |ways| {
            let geom = CacheGeometry::new(64 * 64 * u64::from(ways), 64, ways).unwrap();
            match SetAssocCache::new(geom, WritePolicy::WriteBack).sets {
                Blocks::Narrow16(_) => 16,
                Blocks::Narrow32(_) => 32,
                Blocks::Wide16(_) | Blocks::Wide32(_) => 0,
            }
        };
        assert_eq!(
            [layout(1), layout(8), layout(16), layout(17), layout(32)],
            [16, 16, 16, 32, 32]
        );
    }

    /// A full set evicts its true least-recently-used way after hits and
    /// targeted invalidations have reshuffled the rank order, checked
    /// against a recency list at 4 and 32 ways.
    #[test]
    fn full_set_evicts_true_lru_after_hits_and_invalidations() {
        for ways in [4u32, 32] {
            // One set, so every line competes for the same ways.
            let geom = CacheGeometry::new(64 * u64::from(ways), 64, ways).unwrap();
            let mut c = SetAssocCache::new(geom, WritePolicy::WriteBack);
            // Most recently used first.
            let mut recency: Vec<u64> = Vec::new();
            let touch = |c: &mut SetAssocCache, recency: &mut Vec<u64>, line: u64| {
                let out = c.read(LineAddr::new(line));
                let want_victim = if let Some(p) = recency.iter().position(|&l| l == line) {
                    recency.remove(p);
                    None
                } else if recency.len() == ways as usize {
                    recency.pop()
                } else {
                    None
                };
                recency.insert(0, line);
                assert_eq!(out.clean_eviction.map(LineAddr::get), want_victim);
            };
            let n = u64::from(ways);
            for l in 0..n {
                touch(&mut c, &mut recency, l);
            }
            // Hits in a scrambled order, then punch holes.
            for l in (0..n).rev().step_by(3).chain((0..n).step_by(2)) {
                touch(&mut c, &mut recency, l);
            }
            for l in [1, n - 1, n / 2] {
                assert_eq!(c.invalidate_line(LineAddr::new(l)), Some(false));
                recency.retain(|&x| x != l);
            }
            // Refill the holes, hit again, then overflow the set twice.
            for l in n..n + 3 {
                touch(&mut c, &mut recency, l);
            }
            touch(&mut c, &mut recency, n / 2 + 1);
            for l in n + 3..n + 3 + 2 * n {
                touch(&mut c, &mut recency, l);
            }
            assert_eq!(c.valid_lines(), n);
        }
    }

    #[test]
    #[should_panic(expected = "beyond u32")]
    fn a_tag_beyond_u32_fails_loudly() {
        let mut c = small(WritePolicy::WriteBack); // 2 sets
        c.read(LineAddr::new(1 << 40));
    }

    #[test]
    #[should_panic(expected = "at most 32 ways")]
    fn wider_than_a_set_block_is_rejected() {
        SetAssocCache::new(
            CacheGeometry::new(64 * 64, 64, 64).unwrap(),
            WritePolicy::WriteBack,
        );
    }
}
