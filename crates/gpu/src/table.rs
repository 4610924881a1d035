//! The per-application array allocation table.

use chiplet_mem::addr::Addr;
use chiplet_mem::array::{ArrayDecl, ArrayId};

/// An application's global-memory allocations, laid out page-aligned and
/// back-to-back (as the paper's modified, page-aligned workloads are).
///
/// # Example
///
/// ```
/// use chiplet_gpu::table::ArrayTable;
///
/// let mut t = ArrayTable::new();
/// let a = t.alloc("A_d", 2 << 20);
/// let b = t.alloc("B_d", 2 << 20);
/// assert_ne!(a, b);
/// assert!(t.get(b).base() >= t.get(a).end());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ArrayTable {
    arrays: Vec<ArrayDecl>,
    next_base: Addr,
}

impl ArrayTable {
    /// Creates an empty table; allocations start at a non-zero base to mimic
    /// a real virtual address space.
    pub fn new() -> Self {
        ArrayTable {
            arrays: Vec::new(),
            next_base: Addr::new(0x1000_0000),
        }
    }

    /// Allocates `bytes` page-aligned and returns the new array's id.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn alloc(&mut self, name: impl Into<String>, bytes: u64) -> ArrayId {
        let id = ArrayId::new(self.arrays.len() as u32);
        let decl = ArrayDecl::new_after(id, name, self.next_base, bytes);
        self.next_base = decl.end();
        self.arrays.push(decl);
        id
    }

    /// The declaration for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not allocated from this table.
    pub fn get(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.get() as usize]
    }

    /// All declarations in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = &ArrayDecl> {
        self.arrays.iter()
    }

    /// Number of arrays.
    pub fn len(&self) -> usize {
        self.arrays.len()
    }

    /// True if no arrays were allocated.
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }

    /// Total allocated bytes (the application's device footprint).
    pub fn footprint_bytes(&self) -> u64 {
        self.arrays.iter().map(|a| a.bytes()).sum()
    }

    /// Every field, in declaration order, for code that must handle each
    /// one (`chiplet_sim::Cell::key` destructures this tuple).
    pub fn parts(&self) -> (&[ArrayDecl], Addr) {
        let ArrayTable { arrays, next_base } = self;
        (arrays, *next_base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned_and_disjoint() {
        let mut t = ArrayTable::new();
        let a = t.alloc("a", 1000);
        let b = t.alloc("b", 64);
        let (da, db) = (t.get(a).clone(), t.get(b).clone());
        assert_eq!(da.base().get() % 4096, 0);
        assert_eq!(db.base().get() % 4096, 0);
        assert!(db.base().get() >= da.end().get());
    }

    #[test]
    fn footprint_sums_sizes() {
        let mut t = ArrayTable::new();
        t.alloc("a", 100);
        t.alloc("b", 200);
        assert_eq!(t.footprint_bytes(), 300);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn ids_are_sequential() {
        let mut t = ArrayTable::new();
        assert_eq!(t.alloc("a", 1).get(), 0);
        assert_eq!(t.alloc("b", 1).get(), 1);
    }
}
