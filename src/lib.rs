//! # cpelide-repro
//!
//! A from-scratch Rust reproduction of **CPElide: Efficient Multi-Chiplet
//! GPU Implicit Synchronization** (MICRO 2024): a multi-chiplet GPU
//! memory-system simulator, the CPElide command-processor contribution, the
//! Baseline/HMG/monolithic comparison protocols, the paper's 24-workload
//! evaluation suite, and the harness that regenerates every figure and
//! table of the paper's evaluation.
//!
//! This facade crate re-exports the workspace's crates under one roof:
//!
//! * [`mem`] — caches, coarse directory, first-touch placement, HBM.
//! * [`noc`] — flit accounting and the inter-chiplet link parameters.
//! * [`gpu`] — kernels, streams, schedulers, trace generation.
//! * [`cpelide`] — the Chiplet Coherence Table, the global CP, and the
//!   `hipSetAccessMode`-style labeling API.
//! * [`coherence`] — the protocol zoo behind one memory-system model.
//! * [`energy`] — the per-access energy model.
//! * [`workloads`] — the Table II applications.
//! * [`sim`] — configuration and its cost models, the engine, metrics,
//!   the cell (one simulation and its cache key) and the coherence oracle.
//!
//! # Quick start
//!
//! ```
//! use cpelide_repro::prelude::*;
//!
//! let workload = cpelide_repro::workloads::by_name("square").expect("in suite");
//! let base = Simulator::new(SimConfig::table1(4, ProtocolKind::Baseline)).run(&workload);
//! let cpe = Simulator::new(SimConfig::table1(4, ProtocolKind::CpElide)).run(&workload);
//! assert!(cpe.speedup_over(&base) > 1.0);
//! ```

pub use chiplet_coherence as coherence;
pub use chiplet_energy as energy;
pub use chiplet_gpu as gpu;
pub use chiplet_mem as mem;
pub use chiplet_noc as noc;
pub use chiplet_sim as sim;
pub use chiplet_workloads as workloads;
pub use cpelide;

/// The names most programs need, in one import.
pub mod prelude {
    pub use chiplet_coherence::{MemConfig, ProtocolKind};
    pub use chiplet_gpu::kernel::{AccessPattern, KernelSpec, TouchKind};
    pub use chiplet_gpu::table::ArrayTable;
    pub use chiplet_mem::addr::{Addr, ChipletId};
    pub use chiplet_mem::array::AccessMode;
    pub use chiplet_sim::{RunMetrics, SimConfig, Simulator};
    pub use chiplet_workloads::{ReuseClass, Workload};
    pub use cpelide::api::KernelLaunchInfo;
    pub use cpelide::cp::GlobalCp;
    pub use cpelide::hip::{HipRuntime, RangeChiplet};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_a_usable_api() {
        let w = crate::workloads::by_name("square").unwrap();
        let m = Simulator::new(SimConfig::table1(2, ProtocolKind::CpElide)).run(&w);
        assert!(m.cycles > 0.0);
    }
}
