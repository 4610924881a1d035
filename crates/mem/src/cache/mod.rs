//! Functional set-associative caches with LRU replacement.
//!
//! This models the GPU L2 (per chiplet) and L3 (shared LLC) caches at cache
//! line granularity. It is *functional*: it tracks which lines are present
//! and dirty so that hit/miss/writeback event counts are exact, while timing
//! is accounted for separately by the simulator's latency model.
//!
//! Three operations matter for implicit synchronization:
//!
//! * [`CacheCore::flush_dirty`] — a *release*: write back every dirty
//!   line. Following the paper's baseline protocol, a full-line writeback
//!   leaves a **clean copy** in the cache ("the cache retains a clean copy of
//!   the line and transitions to a shared state").
//! * [`CacheCore::invalidate_all`] — an *acquire*: drop every line.
//! * [`CacheCore::invalidate_line`] / [`CacheCore::flush_line`] —
//!   targeted variants used by the HMG directory on sharer invalidations.
//!
//! Two interchangeable implementations exist behind the [`CacheCore`]
//! trait:
//!
//! * [`SetAssocCache`] — the event-driven core the simulator runs on
//!   (`chiplet_sim::Simulator::run`): one cache-line-aligned block of
//!   tags, LRU ranks and validity per set, sized to the geometry (16 or
//!   32 ways, `u16` tags until a tag outgrows them), so an access touches
//!   one host cache line at 16 ways and two at 32. Its read/write path is
//!   force-inlined down to the block. Bulk release/acquire work is
//!   proportional to the number of *touched* lines (dirty-word pending
//!   queues, epoch-tagged validity), not cache capacity.
//! * [`ScanCache`] — the frozen per-line reference implementation whose
//!   bulk operations walk every way. Nothing simulates on it by default;
//!   it defines the behavioural contract, and differential tests replay
//!   identical traces through both (the unit tests of `event.rs`, and
//!   `Simulator::run_with::<ScanCache>` in the workspace's
//!   `tests/engine_differential.rs`) and demand byte-identical metrics.

use crate::addr::LineAddr;
use std::error::Error;
use std::fmt;

mod event;
mod scan;

pub use event::SetAssocCache;
pub use scan::ScanCache;

/// Write policy for a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Write-back with write-allocate (the paper's baseline L2, Table I).
    WriteBack,
    /// Write-through with write-allocate: stores update the cache but are
    /// immediately propagated downstream and the line is never dirty
    /// (HMG's L2 variant used in the paper's evaluation).
    WriteThrough,
}

/// Error returned when a [`CacheGeometry`] is internally inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeometryError {
    message: String,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cache geometry: {}", self.message)
    }
}

impl Error for GeometryError {}

/// Size/shape of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    capacity_bytes: u64,
    line_bytes: u64,
    ways: u32,
    sets: u64,
}

impl CacheGeometry {
    /// Derives the set count from capacity, line size and associativity.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if any parameter is zero or the capacity is
    /// not an exact multiple of `line_bytes * ways`.
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: u32) -> Result<Self, GeometryError> {
        if capacity_bytes == 0 || line_bytes == 0 || ways == 0 {
            return Err(GeometryError {
                message: "capacity, line size and ways must be non-zero".to_owned(),
            });
        }
        let row = line_bytes * u64::from(ways);
        if !capacity_bytes.is_multiple_of(row) {
            return Err(GeometryError {
                message: format!(
                    "capacity {capacity_bytes} is not a multiple of line_bytes*ways = {row}"
                ),
            });
        }
        Ok(CacheGeometry {
            capacity_bytes,
            line_bytes,
            ways,
            sets: capacity_bytes / row,
        })
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(self) -> u64 {
        self.capacity_bytes
    }

    /// Line size in bytes.
    pub fn line_bytes(self) -> u64 {
        self.line_bytes
    }

    /// Associativity.
    pub fn ways(self) -> u32 {
        self.ways
    }

    /// Number of sets.
    pub fn sets(self) -> u64 {
        self.sets
    }

    /// Total line slots (`sets * ways`).
    pub fn total_lines(self) -> u64 {
        self.sets * u64::from(self.ways)
    }
}

/// Monotonically growing event counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses observed.
    pub reads: u64,
    /// Write accesses observed.
    pub writes: u64,
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Lines filled (allocated) on misses.
    pub fills: u64,
    /// Valid lines evicted to make room for fills.
    pub evictions: u64,
    /// Dirty lines written back due to capacity evictions.
    pub capacity_writebacks: u64,
    /// Dirty lines written back by explicit flush operations (releases).
    pub flush_writebacks: u64,
    /// Lines dropped by explicit invalidations (acquires).
    pub invalidated: u64,
    /// Whole-cache flush operations performed (bulk releases).
    pub bulk_flushes: u64,
    /// Whole-cache invalidate operations performed (bulk acquires).
    pub bulk_invalidates: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.accesses() - self.hits()
    }

    /// Hit rate in `[0, 1]`; zero if no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.accesses() as f64
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        self.reads += rhs.reads;
        self.writes += rhs.writes;
        self.read_hits += rhs.read_hits;
        self.write_hits += rhs.write_hits;
        self.fills += rhs.fills;
        self.evictions += rhs.evictions;
        self.capacity_writebacks += rhs.capacity_writebacks;
        self.flush_writebacks += rhs.flush_writebacks;
        self.invalidated += rhs.invalidated;
        self.bulk_flushes += rhs.bulk_flushes;
        self.bulk_invalidates += rhs.bulk_invalidates;
    }
}

/// Result of a single read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already present.
    pub hit: bool,
    /// Dirty line evicted by the fill, which must be written back downstream.
    pub writeback: Option<LineAddr>,
    /// Clean valid line evicted by the fill (dropped silently).
    pub clean_eviction: Option<LineAddr>,
}

/// Result of [`CacheCore::flush_dirty`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushOutcome {
    /// Number of dirty lines written back. The lines remain valid (clean).
    pub lines_written_back: u64,
}

/// Result of [`CacheCore::invalidate_all`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvalidateOutcome {
    /// Valid lines dropped.
    pub lines_invalidated: u64,
    /// Of those, lines that were dirty (lost unless flushed first — callers
    /// implementing a correct protocol flush before invalidating).
    pub dirty_dropped: u64,
}

/// Behavioural contract shared by the cache implementations.
///
/// `MemorySystem` and the simulator engine are generic over this trait so
/// that identical traces can be replayed through the event-driven
/// [`SetAssocCache`] and the reference [`ScanCache`] and compared
/// bit-for-bit. Implementations must agree on every observable: hit/miss
/// outcomes, eviction choices (LRU, first-minimal tie-break), *and the
/// order in which bulk operations report lines* — [`flush_dirty_lines`]
/// must emit dirty lines in ascending way-index order, because downstream
/// L3 LRU state (and hence every later eviction) depends on it.
///
/// [`flush_dirty_lines`]: CacheCore::flush_dirty_lines
pub trait CacheCore: fmt::Debug + Clone {
    /// Creates an empty cache.
    fn new(geom: CacheGeometry, policy: WritePolicy) -> Self;
    /// The cache's geometry.
    fn geometry(&self) -> CacheGeometry;
    /// The cache's write policy.
    fn policy(&self) -> WritePolicy;
    /// Number of valid lines currently resident.
    fn valid_lines(&self) -> u64;
    /// Number of dirty lines currently resident.
    fn dirty_lines(&self) -> u64;
    /// Event counters.
    fn stats(&self) -> CacheStats;
    /// Resets the event counters (contents are preserved).
    fn reset_stats(&mut self);
    /// True if the line is resident (does not update LRU or stats).
    fn probe(&self, line: LineAddr) -> bool;
    /// True if the line is resident and dirty.
    fn probe_dirty(&self, line: LineAddr) -> bool;
    /// Performs a read access.
    fn read(&mut self, line: LineAddr) -> AccessOutcome;
    /// Performs a write access. Under [`WritePolicy::WriteBack`] the line
    /// becomes dirty; under [`WritePolicy::WriteThrough`] it is allocated
    /// clean (the store is propagated downstream by the caller).
    fn write(&mut self, line: LineAddr) -> AccessOutcome;
    /// Writes back every dirty line (an implicit *release*). Lines remain
    /// valid but clean.
    fn flush_dirty(&mut self) -> FlushOutcome;
    /// Drops every line (an implicit *acquire*).
    fn invalidate_all(&mut self) -> InvalidateOutcome;
    /// Writes back every dirty line, returning the flushed addresses in
    /// ascending way-index order so the caller can route each writeback to
    /// its home node.
    fn flush_dirty_lines(&mut self) -> Vec<LineAddr>;
    /// Drops one line if present. Returns `Some(was_dirty)` if it was
    /// resident.
    fn invalidate_line(&mut self, line: LineAddr) -> Option<bool>;
    /// Writes back one line if present and dirty; the line stays valid.
    /// Returns true if a writeback occurred.
    fn flush_line(&mut self, line: LineAddr) -> bool;
}
