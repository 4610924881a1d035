//! First-touch page placement.
//!
//! The paper's configurations all use the state-of-the-art first-touch
//! policy (§IV-C1): the first chiplet to touch a page becomes its *home
//! node*, owning the L3 bank slice and HBM partition holding that page.
//! Accesses from any other chiplet are *remote* and cross the inter-chiplet
//! interconnect.
//!
//! The home of a line is consulted on **every** simulated access, so the
//! page table is stored flat ([`crate::flat::FlatMap`]) rather than hashed:
//! device arrays occupy one dense band of pages, and the lookup is an index
//! into a `Vec` slot shared with the neighbouring pages an access stream
//! touches next.

use crate::addr::{ChipletId, PageAddr};
use crate::flat::FlatMap;

/// First-touch page-to-home-chiplet mapping. One type serves both the
/// timing model and the coherence oracle, so their notions of "home" can
/// never drift.
///
/// # Example
///
/// ```
/// use chiplet_mem::page::FirstTouchPlacement;
/// use chiplet_mem::addr::{ChipletId, PageAddr};
///
/// let mut p = FirstTouchPlacement::new();
/// let home = p.home_of(PageAddr::new(7), ChipletId::new(2));
/// assert_eq!(home, ChipletId::new(2));
/// // Later touches by other chiplets do not change the home.
/// assert_eq!(p.home_of(PageAddr::new(7), ChipletId::new(0)), ChipletId::new(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FirstTouchPlacement {
    homes: FlatMap<PageAddr, Option<ChipletId>>,
    placed: usize,
}

impl FirstTouchPlacement {
    /// Creates an empty placement map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the page's home chiplet, assigning `toucher` as home on the
    /// first touch.
    #[inline]
    pub fn home_of(&mut self, page: PageAddr, toucher: ChipletId) -> ChipletId {
        let slot = self.homes.get_mut(page);
        match *slot {
            Some(home) => home,
            None => {
                *slot = Some(toucher);
                self.placed += 1;
                toucher
            }
        }
    }

    /// Returns the page's home chiplet if it has been touched.
    #[inline]
    pub fn home_if_placed(&self, page: PageAddr) -> Option<ChipletId> {
        self.homes.get(page)
    }

    /// Pre-assigns a home (used by tests and by workloads that model
    /// initialization kernels having already touched their arrays).
    pub fn place(&mut self, page: PageAddr, home: ChipletId) {
        let slot = self.homes.get_mut(page);
        if slot.is_none() {
            self.placed += 1;
        }
        *slot = Some(home);
    }

    /// Number of placed pages.
    pub fn placed_pages(&self) -> usize {
        self.placed
    }

    /// Clears all placements (a fresh address space).
    pub fn clear(&mut self) {
        self.homes.clear();
        self.placed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_sticks() {
        let mut p = FirstTouchPlacement::new();
        assert_eq!(
            p.home_of(PageAddr::new(0), ChipletId::new(1)),
            ChipletId::new(1)
        );
        assert_eq!(
            p.home_of(PageAddr::new(0), ChipletId::new(3)),
            ChipletId::new(1)
        );
        assert_eq!(p.placed_pages(), 1);
    }

    #[test]
    fn distinct_pages_get_distinct_homes() {
        let mut p = FirstTouchPlacement::new();
        p.home_of(PageAddr::new(0), ChipletId::new(0));
        p.home_of(PageAddr::new(1), ChipletId::new(1));
        assert_eq!(p.home_if_placed(PageAddr::new(0)), Some(ChipletId::new(0)));
        assert_eq!(p.home_if_placed(PageAddr::new(1)), Some(ChipletId::new(1)));
        assert_eq!(p.home_if_placed(PageAddr::new(2)), None);
    }

    #[test]
    fn place_overrides_future_touches() {
        let mut p = FirstTouchPlacement::new();
        p.place(PageAddr::new(5), ChipletId::new(2));
        assert_eq!(
            p.home_of(PageAddr::new(5), ChipletId::new(0)),
            ChipletId::new(2)
        );
    }

    #[test]
    fn clear_resets() {
        let mut p = FirstTouchPlacement::new();
        p.home_of(PageAddr::new(0), ChipletId::new(0));
        p.clear();
        assert_eq!(p.placed_pages(), 0);
        assert_eq!(p.home_if_placed(PageAddr::new(0)), None);
    }

    #[test]
    fn placement_far_from_heap_base_then_near() {
        // The oracle and the timing model address pages both at the array
        // heap base (0x10000) and, in unit tests, near zero; the flat map
        // must serve both without forgetting earlier placements.
        let mut p = FirstTouchPlacement::new();
        p.home_of(PageAddr::new(0x10000), ChipletId::new(3));
        p.home_of(PageAddr::new(1), ChipletId::new(2));
        assert_eq!(
            p.home_if_placed(PageAddr::new(0x10000)),
            Some(ChipletId::new(3))
        );
        assert_eq!(p.home_if_placed(PageAddr::new(1)), Some(ChipletId::new(2)));
        assert_eq!(p.placed_pages(), 2);
    }

    #[test]
    fn place_twice_counts_once() {
        let mut p = FirstTouchPlacement::new();
        p.place(PageAddr::new(9), ChipletId::new(0));
        p.place(PageAddr::new(9), ChipletId::new(1));
        assert_eq!(p.placed_pages(), 1);
        assert_eq!(p.home_if_placed(PageAddr::new(9)), Some(ChipletId::new(1)));
    }
}
