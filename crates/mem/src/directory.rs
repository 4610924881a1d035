//! Coarse-grained L2 coherence directory, as used by the HMG comparison
//! protocol.
//!
//! HMG tracks sharers hierarchically with a per-chiplet directory in which
//! **one entry covers four consecutive cache lines** (paper §IV-C: "a L2
//! coherence directory with 12K entries for each GPU chiplet, with each entry
//! covering four cache lines"). When a directory entry is evicted, every
//! covered line must be invalidated at every sharer — this is the mechanism
//! behind HMG's extra invalidation traffic on low-locality workloads
//! (paper §V-B: "HMG binding four cache lines to one directory entry causes
//! many directory evictions ... generating many remote invalidations").

use crate::addr::{ChipletId, LineAddr};
use std::fmt;

/// A set of chiplets sharing a region, stored as a bitmask word (up to 64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SharerSet(u64);

impl SharerSet {
    /// The empty set.
    pub const EMPTY: SharerSet = SharerSet(0);

    /// Set containing a single chiplet.
    pub fn only(c: ChipletId) -> Self {
        SharerSet(1 << c.index())
    }

    /// Adds a chiplet.
    pub fn insert(&mut self, c: ChipletId) {
        self.0 |= 1 << c.index();
    }

    /// Removes a chiplet.
    pub fn remove(&mut self, c: ChipletId) {
        self.0 &= !(1 << c.index());
    }

    /// True if `c` is a member.
    pub fn contains(self, c: ChipletId) -> bool {
        self.0 & (1 << c.index()) != 0
    }

    /// Number of members.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// True if no members.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over members in ascending chiplet order. Popcount-driven:
    /// each step isolates the lowest set bit with `trailing_zeros`, so the
    /// cost is proportional to the member count, not the mask width.
    pub fn iter(self) -> impl Iterator<Item = ChipletId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as u8;
            bits &= bits - 1;
            Some(ChipletId::new(i))
        })
    }
}

impl fmt::Display for SharerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", c.index())?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<ChipletId> for SharerSet {
    fn from_iter<T: IntoIterator<Item = ChipletId>>(iter: T) -> Self {
        let mut s = SharerSet::EMPTY;
        for c in iter {
            s.insert(c);
        }
        s
    }
}

/// Event counters for one directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// Sharer registrations processed.
    pub accesses: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Invalidation messages implied by evictions
    /// (`sharers * lines_per_entry` per eviction).
    pub invalidation_messages: u64,
}

/// A region entry evicted from the directory. The protocol must invalidate
/// `lines` consecutive lines starting at `first_line` in every sharer's L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedRegion {
    /// First covered line.
    pub first_line: LineAddr,
    /// Number of covered lines (the directory's coarsening factor).
    pub lines: u64,
    /// Chiplets that held the region.
    pub sharers: SharerSet,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    region: u64,
    sharers: SharerSet,
    valid: bool,
    lru: u64,
}

const EMPTY_ENTRY: Entry = Entry {
    region: 0,
    sharers: SharerSet::EMPTY,
    valid: false,
    lru: 0,
};

/// Set-associative coarse directory: `entries` total entries, each covering
/// `lines_per_entry` consecutive cache lines.
///
/// # Example
///
/// ```
/// use chiplet_mem::directory::CoarseDirectory;
/// use chiplet_mem::addr::{ChipletId, LineAddr};
///
/// let mut dir = CoarseDirectory::new(12 * 1024, 8, 4);
/// let up = dir.record_sharer(LineAddr::new(100), ChipletId::new(1));
/// assert!(up.evicted.is_none());
/// assert!(dir.sharers_of(LineAddr::new(101)).contains(ChipletId::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct CoarseDirectory {
    entries: Vec<Entry>,
    sets: u64,
    ways: u32,
    lines_per_entry: u64,
    tick: u64,
    live: u64,
    stats: DirectoryStats,
}

/// Result of registering a sharer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryUpdate {
    /// Region displaced to make room, if any.
    pub evicted: Option<EvictedRegion>,
}

impl CoarseDirectory {
    /// Creates a directory with `entries` total entries organised as
    /// `entries / ways` sets, each entry covering `lines_per_entry` lines.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways`, or any argument is 0.
    pub fn new(entries: u64, ways: u32, lines_per_entry: u64) -> Self {
        assert!(entries > 0 && ways > 0 && lines_per_entry > 0);
        assert!(
            entries.is_multiple_of(u64::from(ways)),
            "entries must be a multiple of ways"
        );
        CoarseDirectory {
            entries: vec![EMPTY_ENTRY; entries as usize],
            sets: entries / u64::from(ways),
            ways,
            lines_per_entry,
            tick: 0,
            live: 0,
            stats: DirectoryStats::default(),
        }
    }

    /// Currently live entries.
    pub fn live_entries(&self) -> u64 {
        self.live
    }

    /// Event counters.
    pub fn stats(&self) -> DirectoryStats {
        self.stats
    }

    fn region_of(&self, line: LineAddr) -> u64 {
        line.get() / self.lines_per_entry
    }

    fn set_slice(&self, region: u64) -> std::ops::Range<usize> {
        let set = (region % self.sets) as usize;
        let w = self.ways as usize;
        set * w..(set + 1) * w
    }

    /// Registers `chiplet` as a sharer of the region containing `line`,
    /// allocating (and possibly evicting) a directory entry.
    pub fn record_sharer(&mut self, line: LineAddr, chiplet: ChipletId) -> DirectoryUpdate {
        self.stats.accesses += 1;
        self.tick += 1;
        let tick = self.tick;
        let region = self.region_of(line);
        let lines_per_entry = self.lines_per_entry;
        let range = self.set_slice(region);

        if let Some(e) = self.entries[range.clone()]
            .iter_mut()
            .find(|e| e.valid && e.region == region)
        {
            e.sharers.insert(chiplet);
            e.lru = tick;
            return DirectoryUpdate { evicted: None };
        }

        let victim = self.entries[range]
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru + 1 } else { 0 })
            .expect("directory sets are never empty"); // chiplet-check: allow(no-panic) — geometry invariant

        let mut evicted = None;
        if victim.valid {
            let region_lines = lines_per_entry;
            evicted = Some(EvictedRegion {
                first_line: LineAddr::new(victim.region * region_lines),
                lines: region_lines,
                sharers: victim.sharers,
            });
            self.stats.evictions += 1;
            self.stats.invalidation_messages += u64::from(victim.sharers.len()) * region_lines;
            self.live -= 1;
        }
        victim.region = region;
        victim.sharers = SharerSet::only(chiplet);
        victim.valid = true;
        victim.lru = tick;
        self.live += 1;
        DirectoryUpdate { evicted }
    }

    /// Current sharers of the region containing `line` (empty if untracked).
    pub fn sharers_of(&self, line: LineAddr) -> SharerSet {
        let region = self.region_of(line);
        self.entries[self.set_slice(region)]
            .iter()
            .find(|e| e.valid && e.region == region)
            .map(|e| e.sharers)
            .unwrap_or(SharerSet::EMPTY)
    }

    /// Removes `chiplet` from the region containing `line`; drops the entry
    /// if it becomes sharerless. Returns true if the chiplet was a sharer.
    pub fn remove_sharer(&mut self, line: LineAddr, chiplet: ChipletId) -> bool {
        let region = self.region_of(line);
        let range = self.set_slice(region);
        let Some(e) = self.entries[range]
            .iter_mut()
            .find(|e| e.valid && e.region == region)
        else {
            return false;
        };
        if !e.sharers.contains(chiplet) {
            return false;
        }
        e.sharers.remove(chiplet);
        if e.sharers.is_empty() {
            e.valid = false;
            self.live -= 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u8) -> ChipletId {
        ChipletId::new(i)
    }

    #[test]
    fn sharer_set_basics() {
        let mut s = SharerSet::EMPTY;
        assert!(s.is_empty());
        s.insert(c(0));
        s.insert(c(3));
        assert_eq!(s.len(), 2);
        assert!(s.contains(c(0)));
        assert!(!s.contains(c(1)));
        s.remove(c(0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![c(3)]);
        assert_eq!(format!("{}", SharerSet::from_iter([c(1), c(2)])), "{1,2}");
    }

    #[test]
    fn lines_in_same_region_share_entry() {
        let mut d = CoarseDirectory::new(16, 4, 4);
        d.record_sharer(LineAddr::new(0), c(0));
        d.record_sharer(LineAddr::new(3), c(1));
        assert_eq!(d.live_entries(), 1);
        let s = d.sharers_of(LineAddr::new(2));
        assert!(s.contains(c(0)) && s.contains(c(1)));
        // Line 4 is the next region.
        assert!(d.sharers_of(LineAddr::new(4)).is_empty());
    }

    #[test]
    fn eviction_reports_region_and_sharers() {
        // 1 set x 2 ways: third distinct region evicts the LRU one.
        let mut d = CoarseDirectory::new(2, 2, 4);
        d.record_sharer(LineAddr::new(0), c(0)); // region 0
        d.record_sharer(LineAddr::new(4), c(1)); // region 1
        d.record_sharer(LineAddr::new(0), c(2)); // region 0 now MRU
        let up = d.record_sharer(LineAddr::new(8), c(0)); // evicts region 1
        let ev = up.evicted.expect("must evict");
        assert_eq!(ev.first_line, LineAddr::new(4));
        assert_eq!(ev.lines, 4);
        assert!(ev.sharers.contains(c(1)));
        assert_eq!(d.stats().evictions, 1);
        assert_eq!(d.stats().invalidation_messages, 4);
    }

    #[test]
    fn remove_sharer_drops_empty_entries() {
        let mut d = CoarseDirectory::new(16, 4, 4);
        d.record_sharer(LineAddr::new(0), c(0));
        assert!(d.remove_sharer(LineAddr::new(1), c(0)));
        assert_eq!(d.live_entries(), 0);
        assert!(!d.remove_sharer(LineAddr::new(1), c(0)));
    }

    #[test]
    fn capacity_is_bounded() {
        let mut d = CoarseDirectory::new(64, 8, 4);
        for i in 0..10_000u64 {
            d.record_sharer(LineAddr::new(i * 4), c((i % 4) as u8));
            assert!(d.live_entries() <= 64);
        }
        assert!(d.stats().evictions > 0);
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_shape_rejected() {
        let _ = CoarseDirectory::new(10, 4, 4);
    }
}
