//! Interconnect accounting for an MCM-GPU: flit-level traffic counters for
//! the intra-chiplet crossbars and the inter-chiplet links, and the link
//! parameters.
//!
//! The paper reports network traffic *in flits*, divided into three
//! categories (Figure 10): L1-to-L2, L2-to-L3, and remote (crossing an
//! inter-chiplet link). This crate provides:
//!
//! * [`traffic`] — the per-category flit counters and message→flit sizing.
//! * [`link`] — the inter-chiplet link parameters (Table I bandwidth) and
//!   the per-run link occupancy tally.
//!
//! This crate charges no cycles: the cost of a bulk flush/invalidate and
//! of the CP request/ack/enable exchange lives in
//! `chiplet_sim::config::SyncCostModel`.

pub mod link;
pub mod traffic;

pub use link::LinkConfig;
pub use traffic::{FlitCounter, TrafficClass, CONTROL_FLITS, DATA_FLITS};
