//! The paper's 24 evaluated applications (Table II) as behavioural
//! workload models, plus the §VI multi-stream variants.
//!
//! Each workload declares its global-memory arrays (sized from the paper's
//! inputs) and its dynamic kernel launch sequence. Kernels carry declarative
//! access patterns (partitioned, halo'd stencils, shared weights, shrinking
//! slices, irregular gathers) and intensity parameters (compute per line,
//! LDS traffic, L1 hit rate, memory-level parallelism), from which the
//! simulator generates per-chiplet cache-line traces. The models are
//! calibrated to each application's qualitative behaviour as described in
//! the paper's §V (e.g. BabelStream's streaming reuse, Hotspot's compute
//! boundedness, BTree's irregular single-pass lookups).
//!
//! # The registry
//!
//! Every workload is built once per process, on first use, into one
//! registry: the Table II suite followed by the multi-stream study.
//! [`suite`], [`multi_stream_suite`], [`by_name`], [`lookup`] and
//! [`known_names`] all read from it, so a name lookup is a scan over 28
//! names plus one clone, never a rebuild of every workload. Sharing is
//! sound because a [`Workload`] is immutable after [`Workload::new`], and
//! a clone is cheap because each kernel is behind an [`Arc`].
//! [`build_all`] bypasses the registry and builds every workload afresh,
//! which is how tests check that the two never differ.
//!
//! # Example
//!
//! ```
//! let apps = chiplet_workloads::suite();
//! assert_eq!(apps.len(), 24);
//! let bs = chiplet_workloads::by_name("babelstream").expect("exists");
//! assert!(bs.kernel_count() > 10);
//! ```

mod graph;
mod hpc;
mod ml;
mod multistream;
mod rodinia;
pub mod spec;
mod streaming;

pub use spec::{parse_workload, ParseSpecError};

use chiplet_gpu::kernel::KernelSpec;
use chiplet_gpu::stream::StreamId;
use chiplet_gpu::table::ArrayTable;
use chiplet_mem::addr::ChipletId;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Inter-kernel-reuse grouping used throughout the evaluation (paper
/// §IV-D, computed as the miss-rate reduction from inter-kernel reuse with
/// no flush/invalidation overhead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseClass {
    /// Moderate-to-high inter-kernel reuse (18 applications).
    ModerateHigh,
    /// Low-to-no inter-kernel reuse (6 applications).
    Low,
}

impl fmt::Display for ReuseClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReuseClass::ModerateHigh => f.write_str("moderate-high"),
            ReuseClass::Low => f.write_str("low"),
        }
    }
}

/// One kernel launch in a workload's dynamic sequence.
#[derive(Debug, Clone)]
pub struct Launch {
    /// The stream the launch belongs to (single-stream apps use stream 0).
    pub stream: StreamId,
    /// The kernel.
    pub spec: Arc<KernelSpec>,
    /// Chiplet binding of the stream (`None` = all chiplets).
    pub binding: Option<Vec<ChipletId>>,
}

/// A complete application model: allocations plus launch sequence.
#[derive(Debug, Clone)]
pub struct Workload {
    name: String,
    input: String,
    class: ReuseClass,
    arrays: ArrayTable,
    launches: Vec<Launch>,
}

impl Workload {
    /// Assembles a workload.
    ///
    /// # Panics
    ///
    /// Panics if the launch sequence is empty.
    pub fn new(
        name: impl Into<String>,
        input: impl Into<String>,
        class: ReuseClass,
        arrays: ArrayTable,
        launches: Vec<Launch>,
    ) -> Self {
        let launches_ok = !launches.is_empty();
        assert!(launches_ok, "workload must launch at least one kernel");
        Workload {
            name: name.into(),
            input: input.into(),
            class,
            arrays,
            launches,
        }
    }

    /// The workload's (lowercase) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The Table II input description.
    pub fn input(&self) -> &str {
        &self.input
    }

    /// The reuse grouping.
    pub fn class(&self) -> ReuseClass {
        self.class
    }

    /// The allocation table.
    pub fn arrays(&self) -> &ArrayTable {
        &self.arrays
    }

    /// The dynamic launch sequence.
    pub fn launches(&self) -> &[Launch] {
        &self.launches
    }

    /// Number of dynamic kernels.
    pub fn kernel_count(&self) -> usize {
        self.launches.len()
    }

    /// Device-memory footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.arrays.footprint_bytes()
    }

    /// Number of distinct streams used.
    pub fn stream_count(&self) -> usize {
        let mut ids: Vec<StreamId> = self.launches.iter().map(|l| l.stream).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Every field, in declaration order, for code that must handle each
    /// one (`chiplet_sim::Cell::key` destructures this tuple).
    pub fn parts(&self) -> (&str, &str, ReuseClass, &ArrayTable, &[Launch]) {
        let Workload {
            name,
            input,
            class,
            arrays,
            launches,
        } = self;
        (name, input, *class, arrays, launches)
    }
}

/// Convenience for single-stream apps: wraps kernels as stream-0 launches.
pub(crate) fn single_stream(kernels: Vec<Arc<KernelSpec>>) -> Vec<Launch> {
    kernels
        .into_iter()
        .map(|spec| Launch {
            stream: StreamId::new(0),
            spec,
            binding: None,
        })
        .collect()
}

/// The process-wide registry: the Table II suite and the multi-stream
/// study, each built once on first use.
struct Registry {
    main: Vec<Workload>,
    multi: Vec<Workload>,
}

impl Registry {
    /// Every workload, Table II first.
    fn all(&self) -> impl Iterator<Item = &Workload> {
        self.main.iter().chain(&self.multi)
    }
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        main: build_suite(),
        multi: multistream::suite(),
    })
}

/// Builds every registered workload afresh from its constructor, in
/// registry order: the Table II suite, then the multi-stream study.
/// The registry holds the same workloads, built once; everyday callers
/// want [`lookup`] or [`suite`] instead, which share that one build.
pub fn build_all() -> Vec<Workload> {
    build_suite()
        .into_iter()
        .chain(multistream::suite())
        .collect()
}

/// Builds the Table II suite from its workload constructors.
fn build_suite() -> Vec<Workload> {
    vec![
        // Moderate-to-high inter-kernel reuse.
        streaming::babelstream(),
        rodinia::backprop(),
        graph::bfs(),
        graph::color_max(),
        graph::fw(),
        rodinia::gaussian(),
        hpc::hacc(),
        rodinia::hotspot3d(),
        rodinia::hotspot(),
        rodinia::lud(),
        hpc::lulesh(),
        hpc::pennant(),
        ml::rnn_gru_small(),
        ml::rnn_gru_large(),
        ml::rnn_lstm_small(),
        ml::rnn_lstm_large(),
        streaming::square(),
        graph::sssp(),
        // Low inter-kernel reuse.
        rodinia::btree(),
        ml::cnn(),
        rodinia::dwt2d(),
        rodinia::nw(),
        streaming::pathfinder(),
        rodinia::srad_v2(),
    ]
}

/// The full 24-application Table II suite, in the paper's order.
pub fn suite() -> Vec<Workload> {
    registry().main.clone()
}

/// Looks up one suite workload by name (case-insensitive).
pub fn by_name(name: &str) -> Option<Workload> {
    find(registry().main.iter(), name)
}

/// The workload in `among` whose name matches `name` case-insensitively.
fn find<'a>(mut among: impl Iterator<Item = &'a Workload>, name: &str) -> Option<Workload> {
    let lower = name.to_lowercase();
    among.find(|w| w.name() == lower).cloned()
}

/// Error returned by [`lookup`]: no workload carries the requested name.
/// The message names the missing workload and lists every known name, so
/// a typo in a CLI argument or experiment spec is diagnosable without
/// reading the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownWorkload {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown workload '{}'; known workloads: {}",
            self.name,
            known_names().join(", ")
        )
    }
}

impl std::error::Error for UnknownWorkload {}

/// Every known workload name: the Table II suite followed by the
/// multi-stream study.
pub fn known_names() -> Vec<String> {
    registry().all().map(|w| w.name().to_owned()).collect()
}

/// Looks up a workload by (case-insensitive) name across both the Table II
/// suite and the multi-stream study, reporting an [`UnknownWorkload`]
/// error that names the missing workload on failure.
pub fn lookup(name: &str) -> Result<Workload, UnknownWorkload> {
    find(registry().all(), name).ok_or(UnknownWorkload {
        name: name.to_owned(),
    })
}

/// The §VI multi-stream study: `streams` (the only multi-stream benchmark
/// in gem5-resources) plus multi-stream extensions of a subset of Table II
/// applications, mimicking concurrent jobs.
pub fn multi_stream_suite() -> Vec<Workload> {
    registry().multi.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_24_applications() {
        let s = suite();
        assert_eq!(s.len(), 24);
        let moderate = s
            .iter()
            .filter(|w| w.class() == ReuseClass::ModerateHigh)
            .count();
        assert_eq!(moderate, 18);
    }

    #[test]
    fn names_are_unique_and_lowercase() {
        let s = suite();
        let mut names: Vec<_> = s.iter().map(|w| w.name().to_owned()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate workload names");
        assert!(names.iter().all(|n| *n == n.to_lowercase()));
    }

    #[test]
    fn by_name_finds_all() {
        for w in suite() {
            assert!(by_name(w.name()).is_some(), "{} not found", w.name());
        }
        assert!(by_name("BabelStream").is_some(), "case-insensitive");
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn lookup_spans_both_suites_and_names_the_missing_workload() {
        assert_eq!(lookup("BFS").unwrap().name(), "bfs");
        assert_eq!(lookup("streams").unwrap().name(), "streams");
        let err = lookup("sqare").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown workload 'sqare'"), "{msg}");
        assert!(msg.contains("square"), "suggestion list names: {msg}");
        assert!(msg.contains("streams"), "multi-stream names listed: {msg}");
    }

    #[test]
    fn every_workload_is_well_formed() {
        for w in suite() {
            assert!(w.kernel_count() >= 1, "{}", w.name());
            assert!(w.footprint_bytes() > 0, "{}", w.name());
            assert!(!w.arrays().is_empty(), "{}", w.name());
            // Kernel array references are valid.
            for l in w.launches() {
                for acc in l.spec.arrays() {
                    assert!(
                        (acc.array.get() as usize) < w.arrays().len(),
                        "{} kernel {} references unknown array",
                        w.name(),
                        l.spec.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dynamic_kernel_counts_match_paper_scale() {
        // The paper reports up to 510 dynamic kernels (Gaussian).
        let max = suite().iter().map(Workload::kernel_count).max().unwrap();
        assert_eq!(max, 510);
        let g = by_name("gaussian").unwrap();
        assert_eq!(g.kernel_count(), 510);
    }

    #[test]
    fn single_stream_apps_use_one_stream() {
        for w in suite() {
            assert_eq!(w.stream_count(), 1, "{}", w.name());
        }
    }

    #[test]
    fn multi_stream_suite_uses_multiple_streams() {
        let ms = multi_stream_suite();
        assert!(!ms.is_empty());
        for w in &ms {
            assert!(w.stream_count() >= 2, "{}", w.name());
        }
    }

    #[test]
    fn high_reuse_streaming_footprints_fit_aggregate_l2() {
        // BabelStream and Square must fit a 4-chiplet aggregate L2 (32 MiB)
        // for the paper's reuse effects to appear.
        for name in ["babelstream", "square"] {
            let w = by_name(name).unwrap();
            assert!(
                w.footprint_bytes() <= 32 << 20,
                "{name} footprint {} too large",
                w.footprint_bytes()
            );
        }
    }

    #[test]
    fn capacity_sensitive_apps_exceed_two_chiplet_l2() {
        // Backprop and Hotspot3D must NOT fit a 2-chiplet aggregate L2
        // (16 MiB): the paper reports no 2-chiplet benefit for them.
        for name in ["backprop", "hotspot3d"] {
            let w = by_name(name).unwrap();
            assert!(
                w.footprint_bytes() > 16 << 20,
                "{name} footprint {} unexpectedly small",
                w.footprint_bytes()
            );
        }
    }
}
