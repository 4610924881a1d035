//! `chiplet-harness`: the workspace's hermetic, zero-dependency test and
//! host-side toolkit.
//!
//! The CPElide reproduction must build and validate offline, so the
//! external crates the workspace once used are replaced in-repo:
//!
//! * [`rng`] replaces `rand` — deterministic SplitMix64 seeding plus a
//!   xoshiro256** stream generator, stable across platforms and releases.
//! * [`prop`] replaces `proptest` — seedable generators, configurable
//!   case counts, shrink-by-halving, and `prop_assert!`-style macros.
//!
//! [`json`] is the tiny writer/parser the other modules share.
//!
//! [`fleet`] is the host-side fan-out layer: a deterministic
//! work-stealing `parallel_map` with ordered result commit, plus the
//! content-hash [`fleet::Fingerprint`] and [`fleet::DiskCache`] that back
//! the campaign runner's incremental sweeps. Only this crate spawns
//! threads — simulation-path crates stay thread-free by lint.
//!
//! The tracing subsystem — the Perfetto timeline [`trace::Tracer`],
//! the CCT [`trace::TransitionAuditor`], and log2 [`trace::Histogram`]
//! metrics — lives in the dependency-free `chiplet-obs` crate and is
//! re-exported here as [`trace`] so downstream crates reach the whole
//! toolkit through this facade. What the simulator records arrives as
//! typed events through `chiplet_sim::event`, which feeds these
//! primitives.

#![warn(missing_docs)]

pub mod fleet;
pub mod json;
pub mod prop;
pub mod rng;

pub use chiplet_obs as trace;

pub use fleet::{
    parallel_map, parallel_map_ok, parallel_map_telemetry, CacheCounts, DiskCache, Fingerprint,
    FleetTelemetry, JobFailure, JobRecord, WorkerTelemetry,
};
pub use json::Json;
pub use prop::{check, PropConfig, PropResult};
pub use rng::{mix64, SplitMix64, Xoshiro256};
pub use trace::{Histogram, Tracer, TransitionAuditor};
