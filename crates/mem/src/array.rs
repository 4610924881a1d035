//! Data-structure (array) declarations and access modes.
//!
//! CPElide tracks coherence state at *data structure* granularity: a data
//! structure is a global-memory array identified by its base address. Kernels
//! label each array they touch as read-only (`R`) or read/write (`R/W`) via
//! the proposed `hipSetAccessMode` API (paper Listing 1). This module holds
//! the shared vocabulary for those declarations.

use crate::addr::{Addr, LINE_BYTES, PAGE_BYTES};
use std::fmt;
use std::ops::Range;

/// Index of an array within one application's allocation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ArrayId(u32);

impl ArrayId {
    /// Creates an array identifier.
    #[inline]
    pub const fn new(id: u32) -> Self {
        ArrayId(id)
    }

    /// The raw index.
    #[inline]
    pub const fn get(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "array{}", self.0)
    }
}

/// How a kernel accesses a data structure (paper Listing 1).
///
/// Monolithic GPUs only need `R` vs `R/W`; chiplet GPUs additionally need to
/// know *where* (which chiplet) accesses land, which the scheduler provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Read-only in this kernel.
    ReadOnly,
    /// Read and/or written in this kernel.
    ReadWrite,
}

impl AccessMode {
    /// Returns the more conservative of two modes (used when coarsening
    /// table entries: `R` merged with `R/W` must become `R/W`).
    ///
    /// ```
    /// use chiplet_mem::array::AccessMode;
    /// assert_eq!(
    ///     AccessMode::ReadOnly.merge(AccessMode::ReadWrite),
    ///     AccessMode::ReadWrite
    /// );
    /// ```
    #[must_use]
    pub fn merge(self, other: AccessMode) -> AccessMode {
        if self == AccessMode::ReadWrite || other == AccessMode::ReadWrite {
            AccessMode::ReadWrite
        } else {
            AccessMode::ReadOnly
        }
    }

    /// True if the mode permits writes.
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::ReadWrite)
    }
}

impl fmt::Display for AccessMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessMode::ReadOnly => f.write_str("R"),
            AccessMode::ReadWrite => f.write_str("R/W"),
        }
    }
}

/// A page-aligned global-memory array allocation.
///
/// The paper page-aligns all allocations to avoid unintentional false
/// sharing; [`ArrayDecl::new_after`] preserves that invariant when laying out
/// an application's arrays one after another.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayDecl {
    id: ArrayId,
    name: String,
    base: Addr,
    bytes: u64,
}

impl ArrayDecl {
    /// Declares an array at an explicit page-aligned base address.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned or `bytes` is zero.
    pub fn new(id: ArrayId, name: impl Into<String>, base: Addr, bytes: u64) -> Self {
        assert!(
            base.get().is_multiple_of(PAGE_BYTES),
            "array base {base} must be page-aligned"
        );
        assert!(bytes > 0, "array must not be empty");
        ArrayDecl {
            id,
            name: name.into(),
            base,
            bytes,
        }
    }

    /// Declares an array on the first page boundary at or after `prev_end`.
    pub fn new_after(id: ArrayId, name: impl Into<String>, prev_end: Addr, bytes: u64) -> Self {
        let aligned = prev_end.get().div_ceil(PAGE_BYTES) * PAGE_BYTES;
        Self::new(id, name, Addr::new(aligned), bytes)
    }

    /// The array's identifier.
    pub fn id(&self) -> ArrayId {
        self.id
    }

    /// The array's debug name (e.g. `"A_d"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Base byte address (page aligned).
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// One past the last byte.
    pub fn end(&self) -> Addr {
        self.base.offset(self.bytes)
    }

    /// Number of cache lines the array spans.
    pub fn lines(&self) -> u64 {
        self.bytes.div_ceil(LINE_BYTES)
    }

    /// The half-open range of line indices the array occupies.
    pub fn line_range(&self) -> Range<u64> {
        let first = self.base.line().get();
        first..first + self.lines()
    }

    /// Every field, in declaration order, for code that must handle each
    /// one (`chiplet_sim::Cell::key` destructures this tuple).
    pub fn parts(&self) -> (ArrayId, &str, Addr, u64) {
        let ArrayDecl {
            id,
            name,
            base,
            bytes,
        } = self;
        (*id, name, *base, *bytes)
    }
}

impl fmt::Display for ArrayDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}..{}, {} B]",
            self.name,
            self.base,
            self.end(),
            self.bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(id: u32, base: u64, bytes: u64) -> ArrayDecl {
        ArrayDecl::new(ArrayId::new(id), format!("a{id}"), Addr::new(base), bytes)
    }

    #[test]
    fn mode_merge_is_conservative() {
        use AccessMode::*;
        assert_eq!(ReadOnly.merge(ReadOnly), ReadOnly);
        assert_eq!(ReadOnly.merge(ReadWrite), ReadWrite);
        assert_eq!(ReadWrite.merge(ReadOnly), ReadWrite);
        assert_eq!(ReadWrite.merge(ReadWrite), ReadWrite);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_base_rejected() {
        let _ = arr(0, 100, 64);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_array_rejected() {
        let _ = arr(0, 0, 0);
    }

    #[test]
    fn new_after_page_aligns() {
        let a = arr(0, 0, 1000);
        let b = ArrayDecl::new_after(ArrayId::new(1), "b", a.end(), 64);
        assert_eq!(b.base().get(), PAGE_BYTES);
    }

    #[test]
    fn line_count_rounds_up() {
        assert_eq!(arr(0, 0, 1).lines(), 1);
        assert_eq!(arr(0, 0, 64).lines(), 1);
        assert_eq!(arr(0, 0, 65).lines(), 2);
    }
}
