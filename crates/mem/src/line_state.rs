//! Per-line dirty-owner bitmask table keyed by dense line indices.
//!
//! [`LineStateTable`] answers "which chiplet's L2 might hold this line
//! dirty?" without probing every L2 — the question a write-back HMG read
//! asks before forwarding from the owner. Each line maps, through the
//! [`FlatMap`] dense-index storage, to one `u64` **dirty mask**: bit `c`
//! set means chiplet `c`'s L2 *may* hold the line dirty.
//!
//! The mask is deliberately maintained as a **superset** of the truth.
//! Its consumer pairs the mask walk with a verifying `probe_dirty` of the
//! actual cache, so a stale set bit costs one wasted probe but can never
//! change behaviour; a *missing* bit could, so bits are only removed on
//! definite evidence — an observed eviction, a targeted invalidation, a
//! flush, or a whole-chiplet acquire. This is the same superset-plus-verify
//! discipline a hardware sharer-mask directory (e.g. HMG's) uses to stay
//! safe under silent clean evictions.
//!
//! Iteration over candidate chiplets is popcount-driven: the lowest set
//! bit is isolated with `trailing_zeros`, so a one-owner line costs one
//! step regardless of the chiplet count — and the ascending bit order
//! matches the reference engine's ascending chiplet probe loop, which
//! keeps metrics byte-identical.

use crate::addr::{ChipletId, LineAddr};
use crate::flat::FlatMap;

/// Dense per-line dirty-owner chiplet masks (superset-tracked).
///
/// # Example
///
/// ```
/// use chiplet_mem::line_state::LineStateTable;
/// use chiplet_mem::addr::{ChipletId, LineAddr};
///
/// let mut t = LineStateTable::new();
/// t.mark_dirty(LineAddr::new(7), ChipletId::new(2));
/// assert_eq!(
///     t.dirty_candidates(LineAddr::new(7)).collect::<Vec<_>>(),
///     vec![ChipletId::new(2)],
/// );
/// t.clear_chiplet(ChipletId::new(2));
/// assert_eq!(t.dirty_candidates(LineAddr::new(7)).count(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LineStateTable {
    /// Bit `c` set: chiplet `c`'s L2 may hold the line dirty.
    dirty: FlatMap<LineAddr, u64>,
}

fn iter_bits(mut bits: u64) -> impl Iterator<Item = ChipletId> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let i = bits.trailing_zeros() as u8;
        bits &= bits - 1;
        Some(ChipletId::new(i))
    })
}

impl LineStateTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        LineStateTable::default()
    }

    /// Records that chiplet `c`'s L2 now holds `line` dirty.
    #[inline]
    pub fn mark_dirty(&mut self, line: LineAddr, c: ChipletId) {
        *self.dirty.get_mut(line) |= 1u64 << c.index();
    }

    /// Records definite evidence that chiplet `c`'s L2 no longer holds
    /// `line` dirty: it wrote the line back (the copy stays resident,
    /// clean), evicted it, or had it invalidated.
    #[inline]
    pub fn clear_dirty(&mut self, line: LineAddr, c: ChipletId) {
        *self.dirty.get_mut(line) &= !(1u64 << c.index());
    }

    /// Chiplets whose L2 may hold `line` dirty, in ascending chiplet order.
    /// Callers must verify each candidate with a cache probe — the mask is
    /// a superset.
    #[inline]
    pub fn dirty_candidates(&self, line: LineAddr) -> impl Iterator<Item = ChipletId> {
        iter_bits(self.dirty.get(line))
    }

    /// Drops chiplet `c` from every line's mask (a whole-L2 acquire).
    /// O(allocated line slots), which acquires on HMG-style protocols pay
    /// rarely enough not to matter.
    pub fn clear_chiplet(&mut self, c: ChipletId) {
        let keep = !(1u64 << c.index());
        self.dirty.values_mut().for_each(|m| *m &= keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u8) -> ChipletId {
        ChipletId::new(i)
    }

    fn l(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn clear_dirty_drops_only_that_chiplet() {
        let mut t = LineStateTable::new();
        t.mark_dirty(l(1), c(0));
        t.mark_dirty(l(1), c(2));
        t.clear_dirty(l(1), c(0));
        assert_eq!(t.dirty_candidates(l(1)).collect::<Vec<_>>(), vec![c(2)]);
        t.clear_dirty(l(1), c(2));
        assert_eq!(t.dirty_candidates(l(1)).count(), 0);
    }

    #[test]
    fn candidates_come_out_in_ascending_chiplet_order() {
        let mut t = LineStateTable::new();
        for i in [6u8, 0, 3] {
            t.mark_dirty(l(9), c(i));
        }
        assert_eq!(
            t.dirty_candidates(l(9)).collect::<Vec<_>>(),
            vec![c(0), c(3), c(6)],
        );
    }

    #[test]
    fn clear_chiplet_is_total_across_lines() {
        let mut t = LineStateTable::new();
        for i in 0..100 {
            t.mark_dirty(l(i), c(1));
            t.mark_dirty(l(i), c(2));
        }
        t.clear_chiplet(c(1));
        for i in 0..100 {
            assert_eq!(
                t.dirty_candidates(l(i)).collect::<Vec<_>>(),
                vec![c(2)],
                "line {i}"
            );
        }
    }
}
