//! GPU execution-model substrate: kernels, work-groups, streams, software
//! queues, schedulers, and the generation of per-chiplet memory access
//! streams from declarative access patterns.
//!
//! The paper's CP (command processor) pipeline is: software enqueues kernel
//! *packets* onto stream-bound software queues; the packet processor maps
//! them to hardware compute queues; the queue scheduler picks a kernel; and
//! the WG scheduler partitions its work-groups across chiplets using static
//! kernel-wide partitioning (paper §II-B, §IV-C1). This crate models that
//! pipeline and, for each (kernel, chiplet) pair, produces the cache-line
//! access stream the chiplet's CUs would issue.

pub mod dispatch;
pub mod kernel;
pub mod stream;
pub mod table;
pub mod trace;

pub use dispatch::{DispatchPlan, StaticPartitionScheduler};
pub use kernel::{AccessPattern, ArrayAccess, KernelBuilder, KernelId, KernelSpec, TouchKind};
pub use stream::{KernelPacket, SoftwareQueue, StreamId};
pub use table::ArrayTable;
pub use trace::{AccessEvent, TraceGenerator};
