//! Flat, dense-index storage for per-line and per-page simulation state.
//!
//! Every device array is allocated page-aligned and back-to-back from the
//! array table's heap base, so the line and page indices a run touches form
//! one dense band above a fixed origin. That makes a `Vec`
//! indexed by `index - base` both smaller and much faster than a `HashMap`
//! keyed by the address newtype: a lookup is a subtraction and a bounds
//! check instead of a SipHash probe, and the slots of neighbouring lines sit
//! on the same cache line — exactly the access pattern trace replay has.
//!
//! Two containers cover the hot paths:
//!
//! * [`FlatMap`] — a total map with a default value. Lines never touched
//!   simply read as the default, which matches the "missing = initial"
//!   convention of version maps and ground-truth tables.
//! * [`EpochSlab`] — a partial map whose [`EpochSlab::clear`] is O(1): a
//!   generation counter is bumped and every slot whose stored epoch no
//!   longer matches reads as absent. This turns per-boundary bulk
//!   invalidation (the acquire in every shadow L2) from a map clear into a
//!   single increment.
//!
//! Both are keyed by any [`DenseAddr`] — the
//! line/page newtypes expose their dense indices through that trait — and
//! both tolerate sparse or low-addressed keys (unit tests like to use page
//! 0) by re-basing their backing storage on demand.

use crate::addr::DenseAddr;
use std::marker::PhantomData;

/// Backing stores grow and re-base in multiples of this many slots so that
/// near-miss keys don't trigger repeated reallocation.
const SLOT_ALIGN: u64 = 64;

/// A dense map from an address newtype to a copyable value, with a default
/// standing in for never-written slots.
///
/// # Example
///
/// ```
/// use chiplet_mem::flat::FlatMap;
/// use chiplet_mem::addr::LineAddr;
///
/// let mut versions: FlatMap<LineAddr, u64> = FlatMap::new(0);
/// assert_eq!(versions.get(LineAddr::new(0x400000)), 0);
/// *versions.get_mut(LineAddr::new(0x400000)) = 7;
/// assert_eq!(versions.get(LineAddr::new(0x400000)), 7);
/// // Untouched neighbours still read as the default.
/// assert_eq!(versions.get(LineAddr::new(0x400001)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FlatMap<K: DenseAddr, V: Copy> {
    base: u64,
    slots: Vec<V>,
    default: V,
    _key: PhantomData<K>,
}

impl<K: DenseAddr, V: Copy> FlatMap<K, V> {
    /// Creates an empty map; absent keys read as `default`.
    pub fn new(default: V) -> Self {
        FlatMap {
            base: 0,
            slots: Vec::new(),
            default,
            _key: PhantomData,
        }
    }

    #[inline]
    fn slot_index(&self, key: K) -> Option<usize> {
        let i = key.dense();
        if i >= self.base {
            let off = (i - self.base) as usize;
            (off < self.slots.len()).then_some(off)
        } else {
            None
        }
    }

    /// The value at `key` (the default if never written).
    #[inline]
    pub fn get(&self, key: K) -> V {
        match self.slot_index(key) {
            Some(off) => self.slots[off],
            None => self.default,
        }
    }

    /// Mutable access to the slot at `key`, growing (or re-basing) the
    /// backing storage as needed.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> &mut V {
        let off = match self.slot_index(key) {
            Some(off) => off,
            None => self.ensure(key.dense()),
        };
        &mut self.slots[off]
    }

    /// Resets every slot to the default, keeping the allocation.
    pub fn clear(&mut self) {
        let d = self.default;
        self.slots.iter_mut().for_each(|s| *s = d);
    }

    /// Mutable iteration over every allocated slot (never-touched keys have
    /// no slot and are skipped). Used for bulk transforms such as clearing
    /// one chiplet's bit from every line-state mask on an acquire.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut()
    }

    #[cold]
    fn ensure(&mut self, index: u64) -> usize {
        if self.slots.is_empty() {
            self.base = index - index % SLOT_ALIGN;
        } else if index < self.base {
            // Re-base: prepend default slots so the band reaches down to
            // the new key. Rare — only tests and synthetic traces address
            // below the allocator's heap base after first touching above.
            let new_base = index - index % SLOT_ALIGN;
            let shift = (self.base - new_base) as usize;
            let mut next = Vec::with_capacity(shift + self.slots.len());
            next.resize(shift, self.default);
            next.extend_from_slice(&self.slots);
            self.slots = next;
            self.base = new_base;
        }
        let off = (index - self.base) as usize;
        if off >= self.slots.len() {
            // Grow past the key with geometric slack so a linear sweep over
            // an array triggers O(log n) reallocations, not O(n).
            let target = (off as u64 + SLOT_ALIGN).max(self.slots.len() as u64 * 2) as usize;
            self.slots.resize(target, self.default);
        }
        off
    }
}

impl<K: DenseAddr, V: Copy + Default> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap::new(V::default())
    }
}

#[derive(Debug, Clone, Copy)]
struct EpochSlot<V> {
    epoch: u32,
    value: V,
}

/// A dense partial map with O(1) bulk clear.
///
/// Each slot stores the generation it was written in; [`EpochSlab::clear`]
/// bumps the live generation, instantly invalidating every entry without
/// touching the slots. This is the storage behind per-chiplet shadow L2s,
/// where an *acquire* must drop the whole cache at every audited kernel
/// boundary.
///
/// # Example
///
/// ```
/// use chiplet_mem::flat::EpochSlab;
/// use chiplet_mem::addr::LineAddr;
///
/// let mut slab: EpochSlab<LineAddr, u64> = EpochSlab::new();
/// slab.insert(LineAddr::new(5), 42);
/// assert_eq!(slab.get(LineAddr::new(5)), Some(42));
/// slab.clear(); // O(1): no slot is touched
/// assert_eq!(slab.get(LineAddr::new(5)), None);
/// ```
#[derive(Debug, Clone)]
pub struct EpochSlab<K: DenseAddr, V: Copy + Default> {
    base: u64,
    epoch: u32,
    slots: Vec<EpochSlot<V>>,
    _key: PhantomData<K>,
}

impl<K: DenseAddr, V: Copy + Default> EpochSlab<K, V> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        EpochSlab {
            base: 0,
            epoch: 1, // slots default to epoch 0 == absent
            slots: Vec::new(),
            _key: PhantomData,
        }
    }

    #[inline]
    fn slot_index(&self, key: K) -> Option<usize> {
        let i = key.dense();
        if i >= self.base {
            let off = (i - self.base) as usize;
            (off < self.slots.len()).then_some(off)
        } else {
            None
        }
    }

    /// The live value at `key`, if present this generation.
    #[inline]
    pub fn get(&self, key: K) -> Option<V> {
        let off = self.slot_index(key)?;
        let slot = &self.slots[off];
        (slot.epoch == self.epoch).then_some(slot.value)
    }

    /// Mutable access to the live value at `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let off = self.slot_index(key)?;
        let epoch = self.epoch;
        let slot = &mut self.slots[off];
        (slot.epoch == epoch).then_some(&mut slot.value)
    }

    /// Inserts (or overwrites) the value at `key`.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) {
        let off = match self.slot_index(key) {
            Some(off) => off,
            None => self.ensure(key.dense()),
        };
        self.slots[off] = EpochSlot {
            epoch: self.epoch,
            value,
        };
    }

    /// Removes the entry at `key` (no-op if absent).
    #[inline]
    pub fn remove(&mut self, key: K) {
        if let Some(off) = self.slot_index(key) {
            self.slots[off].epoch = 0;
        }
    }

    /// Drops every entry in O(1) by advancing the live generation.
    pub fn clear(&mut self) {
        self.epoch += 1;
        if self.epoch == u32::MAX {
            // Generation wrap (needs ~4 billion clears): fall back to a
            // hard reset so stale epochs can never alias the live one.
            self.slots.iter_mut().for_each(|s| s.epoch = 0);
            self.epoch = 1;
        }
    }

    #[cold]
    fn ensure(&mut self, index: u64) -> usize {
        let absent = EpochSlot {
            epoch: 0,
            value: V::default(),
        };
        if self.slots.is_empty() {
            self.base = index - index % SLOT_ALIGN;
        } else if index < self.base {
            let new_base = index - index % SLOT_ALIGN;
            let shift = (self.base - new_base) as usize;
            let mut next = Vec::with_capacity(shift + self.slots.len());
            next.resize(shift, absent);
            next.extend_from_slice(&self.slots);
            self.slots = next;
            self.base = new_base;
        }
        let off = (index - self.base) as usize;
        if off >= self.slots.len() {
            let target = (off as u64 + SLOT_ALIGN).max(self.slots.len() as u64 * 2) as usize;
            self.slots.resize(target, absent);
        }
        off
    }
}

impl<K: DenseAddr, V: Copy + Default> Default for EpochSlab<K, V> {
    fn default() -> Self {
        EpochSlab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{LineAddr, PageAddr};

    #[test]
    fn flat_map_defaults_and_overwrites() {
        let mut m: FlatMap<LineAddr, u64> = FlatMap::new(9);
        assert_eq!(m.get(LineAddr::new(100)), 9);
        *m.get_mut(LineAddr::new(100)) = 1;
        *m.get_mut(LineAddr::new(101)) = 2;
        assert_eq!(m.get(LineAddr::new(100)), 1);
        assert_eq!(m.get(LineAddr::new(101)), 2);
        assert_eq!(m.get(LineAddr::new(99)), 9);
    }

    #[test]
    fn flat_map_rebases_below_first_key() {
        let mut m: FlatMap<PageAddr, u32> = FlatMap::new(0);
        *m.get_mut(PageAddr::new(0x10000)) = 7;
        *m.get_mut(PageAddr::new(3)) = 5; // below the first key
        assert_eq!(m.get(PageAddr::new(0x10000)), 7);
        assert_eq!(m.get(PageAddr::new(3)), 5);
        assert_eq!(m.get(PageAddr::new(4)), 0);
    }

    #[test]
    fn flat_map_clear_keeps_allocation() {
        let mut m: FlatMap<LineAddr, u64> = FlatMap::new(0);
        *m.get_mut(LineAddr::new(10)) = 3;
        let slots = m.slots.len();
        m.clear();
        assert_eq!(m.get(LineAddr::new(10)), 0);
        assert_eq!(m.slots.len(), slots);
    }

    #[test]
    fn flat_map_dense_sweep_is_linear_in_slots() {
        let mut m: FlatMap<LineAddr, u64> = FlatMap::new(0);
        for i in 0..10_000u64 {
            *m.get_mut(LineAddr::new(0x400000 + i)) = i;
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(LineAddr::new(0x400000 + i)), i);
        }
        // Geometric growth keeps the band tight around what was touched.
        assert!(m.slots.len() < 40_000);
    }

    #[test]
    fn epoch_slab_insert_get_remove() {
        let mut s: EpochSlab<LineAddr, u64> = EpochSlab::new();
        assert_eq!(s.get(LineAddr::new(7)), None);
        s.insert(LineAddr::new(7), 1);
        assert_eq!(s.get(LineAddr::new(7)), Some(1));
        *s.get_mut(LineAddr::new(7)).unwrap() = 2;
        assert_eq!(s.get(LineAddr::new(7)), Some(2));
        s.remove(LineAddr::new(7));
        assert_eq!(s.get(LineAddr::new(7)), None);
    }

    #[test]
    fn epoch_slab_clear_is_total_and_reusable() {
        let mut s: EpochSlab<LineAddr, u64> = EpochSlab::new();
        for i in 0..100 {
            s.insert(LineAddr::new(i), i);
        }
        s.clear();
        for i in 0..100 {
            assert_eq!(s.get(LineAddr::new(i)), None, "line {i} survived clear");
        }
        s.insert(LineAddr::new(5), 50);
        assert_eq!(s.get(LineAddr::new(5)), Some(50));
        assert_eq!(s.get(LineAddr::new(6)), None);
    }

    #[test]
    fn epoch_slab_rebases_below_first_key() {
        let mut s: EpochSlab<PageAddr, u8> = EpochSlab::new();
        s.insert(PageAddr::new(1000), 1);
        s.insert(PageAddr::new(2), 2);
        assert_eq!(s.get(PageAddr::new(1000)), Some(1));
        assert_eq!(s.get(PageAddr::new(2)), Some(2));
        assert_eq!(s.get(PageAddr::new(3)), None);
    }

    #[test]
    fn epoch_wrap_hard_resets() {
        let mut s: EpochSlab<LineAddr, u8> = EpochSlab::new();
        s.insert(LineAddr::new(1), 1);
        // Force the wrap path directly.
        s.epoch = u32::MAX - 1;
        s.slots.iter_mut().for_each(|sl| sl.epoch = u32::MAX - 1);
        assert_eq!(s.get(LineAddr::new(1)), Some(1));
        s.clear(); // reaches u32::MAX -> hard reset
        assert_eq!(s.get(LineAddr::new(1)), None);
        s.insert(LineAddr::new(1), 9);
        assert_eq!(s.get(LineAddr::new(1)), Some(9));
    }
}
