//! The multi-chiplet GPU simulator: Table I configuration, the execution
//! engine that drives workload traces through the protocol memory systems,
//! run metrics, and the [`Cell`]: one simulation (workload, protocol,
//! chiplet count, configuration [`cell::Variant`]) with its cache key.
//! Every experiment of the evaluation, the grid figures and the
//! config-variant studies alike, runs as cells through the `cpelide-bench`
//! campaign.
//!
//! # Quick start
//!
//! ```
//! use chiplet_sim::{SimConfig, Simulator};
//! use chiplet_coherence::ProtocolKind;
//!
//! let workload = chiplet_workloads::by_name("square").expect("in suite");
//! let base = Simulator::new(SimConfig::table1(4, ProtocolKind::Baseline)).run(&workload);
//! let cpe = Simulator::new(SimConfig::table1(4, ProtocolKind::CpElide)).run(&workload);
//! // CPElide preserves inter-kernel L2 reuse, so it is never slower here.
//! assert!(cpe.cycles <= base.cycles);
//! ```

pub mod cell;
pub mod config;
pub mod engine;
pub mod event;
pub mod metrics;
pub mod oracle;
pub mod phase;

pub use cell::Cell;
pub use config::{LatencyModel, SimConfig, SyncCostModel};
pub use engine::Simulator;
pub use event::{Observer, SimEvent};
pub use metrics::RunMetrics;
pub use phase::{PhaseProfile, PhaseStat, SimPhase};
