//! Memory-subsystem substrate for the CPElide reproduction.
//!
//! This crate provides the low-level memory vocabulary and functional models
//! shared by every other crate in the workspace:
//!
//! * [`addr`] — byte/line/page address newtypes and the [`ChipletId`] type.
//! * [`cache`] — functional set-associative caches with LRU replacement,
//!   write-back / write-through policies, and the bulk flush / invalidate
//!   operations GPU implicit synchronization is built from. The
//!   event-driven [`SetAssocCache`] and the reference [`cache::ScanCache`]
//!   are interchangeable behind the [`cache::CacheCore`] trait.
//! * [`line_state`] — the per-line dirty-owner bitmask table that lets the
//!   HMG write-back protocol find a line's dirty owner without probing
//!   every chiplet's L2.
//! * [`directory`] — the coarse-grained (4-lines-per-entry) L2 coherence
//!   directory used by the HMG comparison protocol.
//! * [`flat`] — dense-index flat maps and epoch-versioned slabs, the
//!   cache-friendly storage behind the per-access hot paths.
//! * [`page`] — first-touch page placement, which decides each page's *home*
//!   chiplet (L3 bank + HBM partition).
//! * [`mod@array`] — data-structure (array) declarations and access modes, the
//!   granularity at which CPElide tracks coherence state.
//!
//! # Example
//!
//! ```
//! use chiplet_mem::cache::{CacheGeometry, SetAssocCache, WritePolicy};
//! use chiplet_mem::addr::Addr;
//!
//! let geom = CacheGeometry::new(8 * 1024 * 1024, 64, 32)?; // an 8 MiB GPU L2
//! let mut l2 = SetAssocCache::new(geom, WritePolicy::WriteBack);
//! l2.write(Addr::new(0x1000).line());
//! assert_eq!(l2.flush_dirty().lines_written_back, 1);
//! # Ok::<(), chiplet_mem::cache::GeometryError>(())
//! ```

pub mod addr;
pub mod array;
pub mod cache;
pub mod directory;
pub mod flat;
pub mod hbm;
pub mod line_state;
pub mod page;

pub use addr::{Addr, ChipletId, DenseAddr, LineAddr, PageAddr, LINE_BYTES, PAGE_BYTES};
pub use array::{AccessMode, ArrayDecl, ArrayId};
pub use cache::{CacheCore, CacheGeometry, CacheStats, ScanCache, SetAssocCache, WritePolicy};
pub use directory::{CoarseDirectory, DirectoryStats};
pub use flat::{EpochSlab, FlatMap};
pub use line_state::LineStateTable;
pub use page::FirstTouchPlacement;
