//! GPU streams and software queues.
//!
//! The driver/runtime enqueues kernels as packets onto per-stream software
//! queues (paper §II-B). The CP maintains intra-stream, inter-kernel
//! ordering but may run different streams concurrently. Single-stream
//! applications therefore execute kernels strictly in order, while
//! multi-stream workloads (paper §VI) execute one kernel per stream
//! concurrently on disjoint chiplet subsets.

use crate::kernel::{KernelId, KernelSpec};
use chiplet_mem::addr::ChipletId;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Identifies a GPU stream (HIP/CUDA stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamId(u32);

impl StreamId {
    /// Creates a stream id.
    pub const fn new(id: u32) -> Self {
        StreamId(id)
    }

    /// The raw id.
    pub const fn get(self) -> u32 {
        self.0
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

/// A kernel dispatch packet as it travels from runtime to CP: the kernel
/// spec plus the stream it belongs to and the chiplets its stream is bound
/// to (via `hipSetDevice`; empty binding = all chiplets).
#[derive(Debug, Clone)]
pub struct KernelPacket {
    /// Dynamic launch id (assigned in enqueue order).
    pub id: KernelId,
    /// The kernel being launched.
    pub spec: Arc<KernelSpec>,
    /// Originating stream.
    pub stream: StreamId,
    /// Chiplet binding of the stream; `None` means all chiplets.
    pub binding: Option<Vec<ChipletId>>,
}

/// A multi-stream software queue feeding the CP's packet processor.
///
/// # Example
///
/// ```
/// use chiplet_gpu::stream::{SoftwareQueue, StreamId};
/// use chiplet_gpu::kernel::{KernelSpec, AccessPattern, TouchKind};
/// use chiplet_mem::array::ArrayId;
/// use std::sync::Arc;
///
/// let k = Arc::new(KernelSpec::builder("k")
///     .array(ArrayId::new(0), TouchKind::Load, AccessPattern::Partitioned)
///     .build());
/// let mut q = SoftwareQueue::new();
/// q.enqueue(StreamId::new(0), k.clone(), None);
/// q.enqueue(StreamId::new(1), k, None);
/// // One packet per stream forms a concurrent round.
/// assert_eq!(q.next_round().len(), 2);
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SoftwareQueue {
    streams: Vec<(StreamId, VecDeque<KernelPacket>)>,
    next_id: u64,
}

impl SoftwareQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a kernel on `stream`, optionally bound to specific chiplets.
    /// Returns the assigned dynamic kernel id.
    pub fn enqueue(
        &mut self,
        stream: StreamId,
        spec: Arc<KernelSpec>,
        binding: Option<Vec<ChipletId>>,
    ) -> KernelId {
        let id = KernelId::new(self.next_id);
        self.next_id += 1;
        let packet = KernelPacket {
            id,
            spec,
            stream,
            binding,
        };
        if let Some((_, q)) = self.streams.iter_mut().find(|(s, _)| *s == stream) {
            q.push_back(packet);
        } else {
            let mut q = VecDeque::new();
            q.push_back(packet);
            self.streams.push((stream, q));
        }
        id
    }

    /// Pops the next *round* of concurrently executable packets: the head
    /// packet of every non-empty stream (intra-stream order preserved,
    /// streams concurrent). Single-stream applications get rounds of one.
    pub fn next_round(&mut self) -> Vec<KernelPacket> {
        let round: Vec<KernelPacket> = self
            .streams
            .iter_mut()
            .filter_map(|(_, q)| q.pop_front())
            .collect();
        self.streams.retain(|(_, q)| !q.is_empty());
        round
    }

    /// Total queued packets across streams.
    pub fn len(&self) -> usize {
        self.streams.iter().map(|(_, q)| q.len()).sum()
    }

    /// True if no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AccessPattern, TouchKind};
    use chiplet_mem::array::ArrayId;

    fn spec(name: &str) -> Arc<KernelSpec> {
        Arc::new(
            KernelSpec::builder(name)
                .array(ArrayId::new(0), TouchKind::Load, AccessPattern::Partitioned)
                .build(),
        )
    }

    #[test]
    fn single_stream_preserves_order() {
        let mut q = SoftwareQueue::new();
        let a = q.enqueue(StreamId::new(0), spec("a"), None);
        let b = q.enqueue(StreamId::new(0), spec("b"), None);
        assert!(a < b);
        let r1 = q.next_round();
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].spec.name(), "a");
        let r2 = q.next_round();
        assert_eq!(r2[0].spec.name(), "b");
        assert!(q.next_round().is_empty());
    }

    #[test]
    fn streams_run_concurrently() {
        let mut q = SoftwareQueue::new();
        q.enqueue(StreamId::new(0), spec("a0"), None);
        q.enqueue(StreamId::new(0), spec("a1"), None);
        q.enqueue(StreamId::new(1), spec("b0"), None);
        let r1 = q.next_round();
        assert_eq!(r1.len(), 2);
        let names: Vec<_> = r1.iter().map(|p| p.spec.name().to_owned()).collect();
        assert!(names.contains(&"a0".to_owned()) && names.contains(&"b0".to_owned()));
        let r2 = q.next_round();
        assert_eq!(r2.len(), 1);
        assert_eq!(r2[0].spec.name(), "a1");
    }

    #[test]
    fn binding_travels_with_packet() {
        let mut q = SoftwareQueue::new();
        q.enqueue(
            StreamId::new(0),
            spec("a"),
            Some(vec![ChipletId::new(0), ChipletId::new(1)]),
        );
        let r = q.next_round();
        assert_eq!(
            r[0].binding.as_deref(),
            Some(&[ChipletId::new(0), ChipletId::new(1)][..])
        );
    }

    #[test]
    fn ids_increase_across_streams() {
        let mut q = SoftwareQueue::new();
        let a = q.enqueue(StreamId::new(0), spec("a"), None);
        let b = q.enqueue(StreamId::new(5), spec("b"), None);
        assert!(b > a);
    }
}
