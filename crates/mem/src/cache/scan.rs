//! The frozen per-line *scan* cache: the pre-rework reference
//! implementation of [`CacheCore`].
//!
//! Every bulk operation here walks the full way array — `flush_dirty`,
//! `flush_dirty_lines` and `invalidate_all` are O(total lines) regardless
//! of how many lines are actually dirty or valid. That made Baseline's
//! per-boundary `bulk_sync_all` the simulation wall-clock bottleneck and
//! is exactly what the event-driven [`SetAssocCache`] replaces. The scan
//! implementation stays because it *is* the specification: differential
//! tests replay identical traces through both cores and demand
//! byte-identical metrics.
//!
//! [`SetAssocCache`]: super::SetAssocCache

use super::{
    AccessOutcome, CacheCore, CacheGeometry, CacheStats, FlushOutcome, InvalidateOutcome,
    WritePolicy,
};
use crate::addr::LineAddr;

#[derive(Debug, Clone, Copy)]
struct Way {
    /// Full line index; the set is implied by position.
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Larger is more recently used.
    lru: u64,
}

const EMPTY_WAY: Way = Way {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

/// A functional set-associative cache with LRU replacement whose bulk
/// operations scan every way (the behavioural reference).
///
/// # Example
///
/// ```
/// use chiplet_mem::cache::{CacheCore, CacheGeometry, ScanCache, WritePolicy};
/// use chiplet_mem::addr::LineAddr;
///
/// let geom = CacheGeometry::new(4096, 64, 2)?; // 32 sets x 2 ways
/// let mut c = ScanCache::new(geom, WritePolicy::WriteBack);
/// assert!(!c.read(LineAddr::new(7)).hit); // cold miss fills
/// assert!(c.read(LineAddr::new(7)).hit);  // now hits
/// # Ok::<(), chiplet_mem::cache::GeometryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScanCache {
    geom: CacheGeometry,
    policy: WritePolicy,
    ways: Vec<Way>,
    tick: u64,
    valid_count: u64,
    dirty_count: u64,
    stats: CacheStats,
}

impl ScanCache {
    fn set_slice(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = (line.get() % self.geom.sets()) as usize;
        let w = self.geom.ways() as usize;
        set * w..(set + 1) * w
    }

    fn touch(&mut self, line: LineAddr, write: bool) -> AccessOutcome {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_slice(line);
        let make_dirty = write && self.policy == WritePolicy::WriteBack;

        // Hit path.
        if let Some(w) = self.ways[range.clone()]
            .iter_mut()
            .find(|w| w.valid && w.tag == line.get())
        {
            w.lru = tick;
            if make_dirty && !w.dirty {
                w.dirty = true;
                self.dirty_count += 1;
            }
            return AccessOutcome {
                hit: true,
                writeback: None,
                clean_eviction: None,
            };
        }

        // Miss: allocate (both policies write-allocate, per Table I).
        let set = &mut self.ways[range];
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru + 1 } else { 0 })
            .expect("cache sets are never empty"); // chiplet-check: allow(no-panic) — geometry invariant

        let mut writeback = None;
        let mut clean_eviction = None;
        if victim.valid {
            let evicted = LineAddr::new(victim.tag);
            if victim.dirty {
                writeback = Some(evicted);
                self.dirty_count -= 1;
                self.stats.capacity_writebacks += 1;
            } else {
                clean_eviction = Some(evicted);
            }
            self.stats.evictions += 1;
            self.valid_count -= 1;
        }
        victim.tag = line.get();
        victim.valid = true;
        victim.dirty = make_dirty;
        victim.lru = tick;
        self.valid_count += 1;
        if make_dirty {
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

impl CacheCore for ScanCache {
    fn new(geom: CacheGeometry, policy: WritePolicy) -> Self {
        ScanCache {
            geom,
            policy,
            ways: vec![EMPTY_WAY; geom.total_lines() as usize],
            tick: 0,
            valid_count: 0,
            dirty_count: 0,
            stats: CacheStats::default(),
        }
    }

    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn policy(&self) -> WritePolicy {
        self.policy
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

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn probe(&self, line: LineAddr) -> bool {
        self.ways[self.set_slice(line)]
            .iter()
            .any(|w| w.valid && w.tag == line.get())
    }

    fn probe_dirty(&self, line: LineAddr) -> bool {
        self.ways[self.set_slice(line)]
            .iter()
            .any(|w| w.valid && w.dirty && w.tag == line.get())
    }

    fn read(&mut self, line: LineAddr) -> AccessOutcome {
        self.stats.reads += 1;
        let out = self.touch(line, false);
        if out.hit {
            self.stats.read_hits += 1;
        }
        out
    }

    fn write(&mut self, line: LineAddr) -> AccessOutcome {
        self.stats.writes += 1;
        let out = self.touch(line, true);
        if out.hit {
            self.stats.write_hits += 1;
        }
        out
    }

    /// Lines remain valid but clean, matching the baseline protocol's
    /// behaviour of retaining a clean copy after a full-line writeback.
    fn flush_dirty(&mut self) -> FlushOutcome {
        let mut flushed = 0;
        for w in &mut self.ways {
            if w.valid && w.dirty {
                w.dirty = false;
                flushed += 1;
            }
        }
        self.dirty_count = 0;
        self.stats.flush_writebacks += flushed;
        self.stats.bulk_flushes += 1;
        FlushOutcome {
            lines_written_back: flushed,
        }
    }

    fn invalidate_all(&mut self) -> InvalidateOutcome {
        let mut invalidated = 0;
        let mut dirty = 0;
        for w in &mut self.ways {
            if w.valid {
                invalidated += 1;
                if w.dirty {
                    dirty += 1;
                }
                w.valid = false;
                w.dirty = false;
            }
        }
        self.valid_count = 0;
        self.dirty_count = 0;
        self.stats.invalidated += invalidated;
        self.stats.bulk_invalidates += 1;
        InvalidateOutcome {
            lines_invalidated: invalidated,
            dirty_dropped: dirty,
        }
    }

    /// Lines are reported in ascending way-index order (the scan order) —
    /// the order contract the event-driven core must reproduce.
    fn flush_dirty_lines(&mut self) -> Vec<LineAddr> {
        let mut lines = Vec::with_capacity(self.dirty_count as usize);
        for w in &mut self.ways {
            if w.valid && w.dirty {
                w.dirty = false;
                lines.push(LineAddr::new(w.tag));
            }
        }
        self.dirty_count = 0;
        self.stats.flush_writebacks += lines.len() as u64;
        self.stats.bulk_flushes += 1;
        lines
    }

    fn invalidate_line(&mut self, line: LineAddr) -> Option<bool> {
        let range = self.set_slice(line);
        let w = self.ways[range]
            .iter_mut()
            .find(|w| w.valid && w.tag == line.get())?;
        let was_dirty = w.dirty;
        w.valid = false;
        w.dirty = false;
        self.valid_count -= 1;
        if was_dirty {
            self.dirty_count -= 1;
        }
        self.stats.invalidated += 1;
        Some(was_dirty)
    }

    fn flush_line(&mut self, line: LineAddr) -> bool {
        let range = self.set_slice(line);
        if let Some(w) = self.ways[range]
            .iter_mut()
            .find(|w| w.valid && w.dirty && w.tag == line.get())
        {
            w.dirty = false;
            self.dirty_count -= 1;
            self.stats.flush_writebacks += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(policy: WritePolicy) -> ScanCache {
        // 2 sets x 2 ways, 64 B lines.
        ScanCache::new(CacheGeometry::new(256, 64, 2).unwrap(), policy)
    }

    #[test]
    fn geometry_validates() {
        assert!(CacheGeometry::new(0, 64, 2).is_err());
        assert!(CacheGeometry::new(256, 0, 2).is_err());
        assert!(CacheGeometry::new(256, 64, 0).is_err());
        assert!(CacheGeometry::new(100, 64, 2).is_err());
        let g = CacheGeometry::new(8 << 20, 64, 32).unwrap();
        assert_eq!(g.sets(), 4096);
        assert_eq!(g.total_lines(), 131072);
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
        // Set 0 holds even lines (2 sets).
        c.read(LineAddr::new(0));
        c.read(LineAddr::new(2));
        c.read(LineAddr::new(0)); // 0 is now MRU
        let out = c.read(LineAddr::new(4)); // evicts 2
        assert_eq!(out.clean_eviction, Some(LineAddr::new(2)));
        assert!(c.probe(LineAddr::new(0)));
        assert!(!c.probe(LineAddr::new(2)));
    }

    #[test]
    fn writeback_policy_marks_dirty_and_evicts_with_writeback() {
        let mut c = small(WritePolicy::WriteBack);
        c.write(LineAddr::new(0));
        assert!(c.probe_dirty(LineAddr::new(0)));
        c.write(LineAddr::new(2));
        let out = c.write(LineAddr::new(4)); // evicts dirty 0
        assert_eq!(out.writeback, Some(LineAddr::new(0)));
        assert_eq!(c.stats().capacity_writebacks, 1);
    }

    #[test]
    fn writethrough_never_dirty() {
        let mut c = small(WritePolicy::WriteThrough);
        c.write(LineAddr::new(0));
        c.write(LineAddr::new(2));
        assert_eq!(c.dirty_lines(), 0);
        let out = c.write(LineAddr::new(4));
        assert_eq!(out.writeback, None);
        assert!(out.clean_eviction.is_some());
    }

    #[test]
    fn flush_writes_back_but_retains_clean_copies() {
        let mut c = small(WritePolicy::WriteBack);
        c.write(LineAddr::new(0));
        c.write(LineAddr::new(1));
        c.read(LineAddr::new(2));
        let out = c.flush_dirty();
        assert_eq!(out.lines_written_back, 2);
        assert_eq!(c.dirty_lines(), 0);
        assert_eq!(c.valid_lines(), 3, "flush keeps clean copies");
        assert!(c.probe(LineAddr::new(0)));
    }

    #[test]
    fn flush_dirty_lines_reports_addresses() {
        let mut c = small(WritePolicy::WriteBack);
        c.write(LineAddr::new(0));
        c.write(LineAddr::new(3));
        c.read(LineAddr::new(1));
        let mut lines = c.flush_dirty_lines();
        lines.sort();
        assert_eq!(lines, vec![LineAddr::new(0), LineAddr::new(3)]);
        assert_eq!(c.dirty_lines(), 0);
        assert_eq!(c.valid_lines(), 3);
        assert!(c.flush_dirty_lines().is_empty());
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = small(WritePolicy::WriteBack);
        c.write(LineAddr::new(0));
        c.read(LineAddr::new(1));
        let out = c.invalidate_all();
        assert_eq!(out.lines_invalidated, 2);
        assert_eq!(out.dirty_dropped, 1);
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.probe(LineAddr::new(0)));
    }

    #[test]
    fn bulk_operation_counters_track_whole_cache_ops() {
        let mut c = small(WritePolicy::WriteBack);
        c.write(LineAddr::new(0));
        c.flush_dirty();
        c.flush_dirty_lines();
        c.invalidate_all();
        // Line-granular operations do not count as bulk ops.
        c.read(LineAddr::new(1));
        c.flush_line(LineAddr::new(1));
        c.invalidate_line(LineAddr::new(1));
        let s = c.stats();
        assert_eq!(s.bulk_flushes, 2);
        assert_eq!(s.bulk_invalidates, 1);

        let mut sum = CacheStats::default();
        sum += s;
        sum += s;
        assert_eq!(sum.bulk_flushes, 4);
        assert_eq!(sum.bulk_invalidates, 2);
    }

    #[test]
    fn invalidate_line_reports_dirtiness() {
        let mut c = small(WritePolicy::WriteBack);
        c.write(LineAddr::new(0));
        c.read(LineAddr::new(1));
        assert_eq!(c.invalidate_line(LineAddr::new(0)), Some(true));
        assert_eq!(c.invalidate_line(LineAddr::new(1)), Some(false));
        assert_eq!(c.invalidate_line(LineAddr::new(9)), None);
    }

    #[test]
    fn flush_line_clears_single_dirty_bit() {
        let mut c = small(WritePolicy::WriteBack);
        c.write(LineAddr::new(0));
        assert!(c.flush_line(LineAddr::new(0)));
        assert!(!c.flush_line(LineAddr::new(0)));
        assert!(c.probe(LineAddr::new(0)));
        assert_eq!(c.dirty_lines(), 0);
    }

    #[test]
    fn write_hit_on_clean_line_dirties_once() {
        let mut c = small(WritePolicy::WriteBack);
        c.read(LineAddr::new(0));
        assert_eq!(c.dirty_lines(), 0);
        c.write(LineAddr::new(0));
        c.write(LineAddr::new(0));
        assert_eq!(c.dirty_lines(), 1);
    }

    #[test]
    fn stats_hit_rate() {
        let mut c = small(WritePolicy::WriteBack);
        c.read(LineAddr::new(0));
        c.read(LineAddr::new(0));
        c.read(LineAddr::new(0));
        c.read(LineAddr::new(0));
        assert!((c.stats().hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn valid_count_never_exceeds_capacity() {
        let mut c = small(WritePolicy::WriteBack);
        for i in 0..100 {
            c.write(LineAddr::new(i));
            assert!(c.valid_lines() <= c.geometry().total_lines());
            assert!(c.dirty_lines() <= c.valid_lines());
        }
    }
}
