//! **CPElide** — the paper's contribution: command-processor-driven elision
//! of implicit synchronization in multi-chiplet GPUs.
//!
//! Conventional chiplet GPUs conservatively invalidate every chiplet's L2 at
//! each kernel launch (implicit *acquire*) and flush all dirty L2 data at
//! each kernel completion (implicit *release*), destroying inter-kernel L2
//! locality. CPElide exploits the fact that the GPU's command processor (CP)
//! already sees every kernel launch, its data structures (via the
//! `hipSetAccessMode`/`hipSetAccessModeRange` labels of [`api`]), and the
//! chiplets its work-groups are dispatched to. A *Chiplet Coherence Table*
//! ([`table`]) in the global CP tracks each data structure's state on each
//! chiplet (Not-Present / Valid / Dirty / Stale, [`state`]) and generates
//! per-chiplet acquires and releases **only when a cross-chiplet dependence
//! actually requires them** — lazily, on demand ([`cp`]).
//!
//! # Quick start
//!
//! ```
//! use cpelide::api::KernelLaunchInfo;
//! use cpelide::cp::GlobalCp;
//! use chiplet_mem::array::AccessMode;
//! use chiplet_mem::addr::ChipletId;
//!
//! // A 2-chiplet GPU; kernel 0 writes lines 0..100 on chiplet 0 and
//! // 100..200 on chiplet 1 of one array.
//! let mut cp = GlobalCp::new(2);
//! let k0 = KernelLaunchInfo::builder(0, ChipletId::all(2))
//!     .structure(0, 200, AccessMode::ReadWrite, [Some(0..100), Some(100..200)])
//!     .build();
//! let d0 = cp.launch_kernel(&k0);
//! assert!(d0.acquires.is_empty() && d0.releases.is_empty());
//!
//! // Kernel 1 re-reads the same partitions on the same chiplets: both the
//! // acquire and the release are elided and L2 locality is preserved.
//! let k1 = KernelLaunchInfo::builder(1, ChipletId::all(2))
//!     .structure(0, 200, AccessMode::ReadOnly, [Some(0..100), Some(100..200)])
//!     .build();
//! let d1 = cp.launch_kernel(&k1);
//! assert!(d1.acquires.is_empty() && d1.releases.is_empty());
//! ```
#![warn(missing_docs)]

pub mod api;
pub mod coarsen;
pub mod cp;
pub mod hip;
pub mod state;
pub mod table;

pub use api::{KernelLaunchInfo, LaunchInfoBuilder, StructureAccess};
pub use cp::{GlobalCp, LaunchDecision};
pub use hip::{DevicePtr, HipRuntime, RangeChiplet};
pub use state::{EntryState, StateEvent};
pub use table::{ChipletCoherenceTable, SyncActions, TableStats};

/// CP processing latency per kernel launch, before CPElide's additions
/// (paper §IV-B: "the modeled local/global CP latency is 2 µs").
pub const CP_BASE_LATENCY_US: f64 = 2.0;

/// Extra CP latency for CPElide's table reads/writes and acquire/release
/// generation (paper §IV-B: "the CP requires 6 µs to perform CPElide's new
/// operations"). Hidden for all but the first kernel because kernels are
/// enqueued ahead of launch.
pub const CPELIDE_PROCESS_LATENCY_US: f64 = 6.0;

/// Maximum data structures tracked per kernel before coarsening kicks in
/// (paper §III-A: 8, from the observation that most GPU programs access
/// ≤ 8 structures per kernel).
pub const MAX_STRUCTURES_PER_KERNEL: usize = 8;

/// Kernels of history the table is sized for (paper §III-A: structures are
/// reused within ~4 kernels; sized conservatively to 8).
pub const TABLE_KERNEL_DEPTH: usize = 8;

/// Total Chiplet Coherence Table capacity (8 structures × 8 kernels).
pub const TABLE_CAPACITY: usize = MAX_STRUCTURES_PER_KERNEL * TABLE_KERNEL_DEPTH;

/// Approximate bytes of CP private memory one table entry occupies for an
/// `n`-chiplet system (paper §III-A: 1 B chiplet vector + 1 bit mode +
/// 28 B ranges + 4 B base ≈ 33–34 B ⇒ ~2 KB total for 64 entries).
pub fn table_entry_bytes(chiplets: usize) -> usize {
    let chiplet_vector = (2 * chiplets).div_ceil(8); // 2 bits per chiplet
    let mode = 1; // stored as a byte in practice
    let ranges = 28;
    let base = 4;
    chiplet_vector + mode + ranges + base
}

/// Total table bytes for an `n`-chiplet system.
pub fn table_bytes(chiplets: usize) -> usize {
    TABLE_CAPACITY * table_entry_bytes(chiplets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_fits_in_cp_private_memory() {
        // Paper: ~2 KB for a 4-chiplet system.
        let bytes = table_bytes(4);
        assert!((2048..=2432).contains(&bytes), "got {bytes}");
    }

    #[test]
    fn capacity_is_64_entries() {
        assert_eq!(TABLE_CAPACITY, 64);
    }
}
