//! Kernel specifications: what a GPU kernel computes and how it touches its
//! data structures.
//!
//! A [`KernelSpec`] is declarative: it lists the arrays the kernel accesses,
//! each with an [`AccessMode`] label (the information the paper's
//! `hipSetAccessMode` API conveys to the CP), an [`AccessPattern`] describing
//! *which part* of the array each chiplet's work-groups touch (the
//! `hipSetAccessModeRange` information), and enough intensity parameters
//! (compute per line, LDS traffic, intra-kernel sweeps) for the timing model.

use chiplet_mem::array::{AccessMode, ArrayId};
use std::fmt;

/// Globally unique (per run) dynamic kernel launch identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KernelId(u64);

impl KernelId {
    /// Creates a kernel id.
    pub const fn new(id: u64) -> Self {
        KernelId(id)
    }

    /// The raw id.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel#{}", self.0)
    }
}

/// Which memory operations the kernel issues to an array.
///
/// The [`AccessMode`] label (R vs R/W) is what CPElide *tracks*; `TouchKind`
/// additionally distinguishes pure producers (`Store`) from update-in-place
/// (`LoadStore`) so the cache model issues the right mix of reads and writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TouchKind {
    /// Loads only (mode must be `R`).
    Load,
    /// Stores only (an output array; mode `R/W`).
    Store,
    /// Load-modify-store of each line (mode `R/W`).
    LoadStore,
}

impl TouchKind {
    /// The access-mode label implied by this touch kind.
    pub fn implied_mode(self) -> AccessMode {
        match self {
            TouchKind::Load => AccessMode::ReadOnly,
            TouchKind::Store | TouchKind::LoadStore => AccessMode::ReadWrite,
        }
    }
}

/// Which lines of an array each chiplet's work-group partition touches.
///
/// Patterns are evaluated against the *set of chiplets the kernel is
/// scheduled on* (static kernel-wide partitioning), so the same spec adapts
/// to 2-, 4-, 6- or 7-chiplet GPUs.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPattern {
    /// Chiplet `i` of `n` touches the `i`-th contiguous `1/n` slice — the
    /// canonical regular GPGPU pattern (BabelStream, Square, ...).
    Partitioned,
    /// Partitioned, plus `halo_lines` lines of each neighbouring slice —
    /// stencils (Hotspot, Hotspot3D, SRAD).
    PartitionedHalo {
        /// Lines read beyond each partition boundary.
        halo_lines: u64,
    },
    /// Every scheduled chiplet touches the whole array (shared read-only
    /// weights in the RNNs, broadcast lookup tables).
    Shared,
    /// Partitioned within a sub-range of the array: `start..end` as
    /// fractions of the array's lines (Gaussian's shrinking trailing
    /// submatrix, LUD's moving diagonal blocks, NW's anti-diagonals).
    Slice {
        /// Fraction of the array where the active region begins.
        start: f64,
        /// Fraction of the array where the active region ends.
        end: f64,
    },
    /// Irregular gather/scatter: the kernel as a whole touches `fraction`
    /// of the array's lines, pseudo-randomly chosen and split evenly across
    /// the scheduled chiplets (strong scaling); with probability `locality`
    /// a chiplet's touch falls in its own partition slice, otherwise
    /// anywhere (graph workloads: BFS, SSSP, Color; indirect HPC: Pennant,
    /// Lulesh; BTree lookups).
    Irregular {
        /// Fraction of the array's lines the kernel touches, in `[0, 1]`.
        fraction: f64,
        /// Probability a touch lands in the chiplet's own slice, in `[0, 1]`.
        locality: f64,
    },
}

impl AccessPattern {
    /// Validates pattern parameters, panicking with a clear message on
    /// nonsensical fractions. Called by [`KernelBuilder::array`].
    fn assert_valid(&self) {
        match *self {
            AccessPattern::Slice { start, end } => {
                assert!(
                    (0.0..=1.0).contains(&start) && (0.0..=1.0).contains(&end) && start < end,
                    "slice fractions must satisfy 0 <= start < end <= 1"
                );
            }
            AccessPattern::Irregular { fraction, locality } => {
                assert!(
                    (0.0..=1.0).contains(&fraction) && (0.0..=1.0).contains(&locality),
                    "irregular fraction and locality must be in [0, 1]"
                );
            }
            _ => {}
        }
    }
}

/// One array the kernel accesses.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayAccess {
    /// Which array.
    pub array: ArrayId,
    /// The R / R/W label passed to the CP.
    pub mode: AccessMode,
    /// What the hardware actually does to the lines.
    pub touch: TouchKind,
    /// Which lines each chiplet touches.
    pub pattern: AccessPattern,
    /// How many times the kernel sweeps its portion of this array
    /// (intra-kernel temporal reuse; ≥ 1).
    pub sweeps: u32,
}

/// Where a kernel was defined: the source file and line of the builder
/// call (captured via `#[track_caller]`) or the spec-text line (set
/// explicitly by the workload-spec parser). Static-analysis diagnostics
/// cite this span so a finding points at the kernel's definition, not at
/// the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecSpan {
    /// Source file (a real path for builder-defined kernels, a synthetic
    /// name like `<spec>` for parsed workload text).
    pub file: String,
    /// 1-based line number within `file`.
    pub line: u32,
}

impl fmt::Display for SpecSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// A kernel specification: the unit the CP schedules.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    name: String,
    arrays: Vec<ArrayAccess>,
    wg_count: u32,
    compute_per_line: f64,
    lds_per_line: f64,
    l1_hit_rate: f64,
    mlp: f64,
    span: SpecSpan,
}

/// Behavioral equality: the definition span is provenance, not semantics —
/// two kernels built at different source lines but describing the same
/// accesses compare equal.
impl PartialEq for KernelSpec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.arrays == other.arrays
            && self.wg_count == other.wg_count
            && self.compute_per_line == other.compute_per_line
            && self.lds_per_line == other.lds_per_line
            && self.l1_hit_rate == other.l1_hit_rate
            && self.mlp == other.mlp
    }
}

impl KernelSpec {
    /// Starts building a kernel named `name`.
    #[track_caller]
    pub fn builder(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder::new(name)
    }

    /// The kernel's definition site (builder call or spec-text line).
    pub fn span(&self) -> &SpecSpan {
        &self.span
    }

    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Arrays the kernel accesses, in declaration order.
    pub fn arrays(&self) -> &[ArrayAccess] {
        &self.arrays
    }

    /// Number of work-groups.
    pub fn wg_count(&self) -> u32 {
        self.wg_count
    }

    /// ALU cycles per accessed line (per CU-aggregate; compute-bound kernels
    /// have large values, streaming kernels near zero).
    pub fn compute_per_line(&self) -> f64 {
        self.compute_per_line
    }

    /// LDS accesses per global line touched (drives LDS energy).
    pub fn lds_per_line(&self) -> f64 {
        self.lds_per_line
    }

    /// Fraction of accesses that hit in the (write-through, kernel-boundary
    /// invalidated) L1 — identical across protocols, per workload.
    pub fn l1_hit_rate(&self) -> f64 {
        self.l1_hit_rate
    }

    /// Memory-level parallelism: how many outstanding misses overlap, i.e.
    /// the divisor converting summed miss latency into stall cycles.
    pub fn mlp(&self) -> f64 {
        self.mlp
    }

    /// Every field, in declaration order, for code that must handle each
    /// one (`chiplet_sim::Cell::key` destructures this tuple).
    #[allow(clippy::type_complexity)]
    pub fn parts(&self) -> (&str, &[ArrayAccess], u32, f64, f64, f64, f64, &SpecSpan) {
        let KernelSpec {
            name,
            arrays,
            wg_count,
            compute_per_line,
            lds_per_line,
            l1_hit_rate,
            mlp,
            span,
        } = self;
        let (c, lds, l1, mlp) = (*compute_per_line, *lds_per_line, *l1_hit_rate, *mlp);
        (name, arrays, *wg_count, c, lds, l1, mlp, span)
    }
}

impl fmt::Display for KernelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({} arrays, {} WGs)",
            self.name,
            self.arrays.len(),
            self.wg_count
        )
    }
}

/// Builder for [`KernelSpec`] (C-BUILDER).
///
/// # Example
///
/// ```
/// use chiplet_gpu::kernel::{KernelSpec, AccessPattern, TouchKind};
/// use chiplet_mem::array::{AccessMode, ArrayId};
///
/// let square = KernelSpec::builder("square")
///     .wg_count(2048)
///     .array(ArrayId::new(0), TouchKind::Load, AccessPattern::Partitioned)
///     .array(ArrayId::new(1), TouchKind::Store, AccessPattern::Partitioned)
///     .compute_per_line(2.0)
///     .build();
/// assert_eq!(square.arrays().len(), 2);
/// assert_eq!(square.arrays()[0].mode, AccessMode::ReadOnly);
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    arrays: Vec<ArrayAccess>,
    wg_count: u32,
    compute_per_line: f64,
    lds_per_line: f64,
    l1_hit_rate: f64,
    mlp: f64,
    span: SpecSpan,
}

impl KernelBuilder {
    /// Creates a builder with GPU-typical defaults: 1024 WGs, memory-bound
    /// (no compute), no LDS, 50 % L1 hit rate, MLP of 32. The caller's
    /// source location becomes the kernel's [`SpecSpan`].
    #[track_caller]
    pub fn new(name: impl Into<String>) -> Self {
        let loc = std::panic::Location::caller();
        KernelBuilder {
            name: name.into(),
            arrays: Vec::new(),
            wg_count: 1024,
            compute_per_line: 0.0,
            lds_per_line: 0.0,
            l1_hit_rate: 0.5,
            mlp: 32.0,
            span: SpecSpan {
                file: loc.file().to_owned(),
                line: loc.line(),
            },
        }
    }

    /// Overrides the captured definition span (used by the workload-spec
    /// parser so diagnostics cite the spec text, not the parser).
    pub fn span(mut self, file: impl Into<String>, line: u32) -> Self {
        self.span = SpecSpan {
            file: file.into(),
            line,
        };
        self
    }

    /// Adds an array access; the mode label is implied by the touch kind.
    pub fn array(mut self, array: ArrayId, touch: TouchKind, pattern: AccessPattern) -> Self {
        pattern.assert_valid();
        self.arrays.push(ArrayAccess {
            array,
            mode: touch.implied_mode(),
            touch,
            pattern,
            sweeps: 1,
        });
        self
    }

    /// Adds an array access with explicit sweep count (intra-kernel reuse).
    pub fn array_swept(
        mut self,
        array: ArrayId,
        touch: TouchKind,
        pattern: AccessPattern,
        sweeps: u32,
    ) -> Self {
        pattern.assert_valid();
        assert!(sweeps >= 1, "sweeps must be at least 1");
        self.arrays.push(ArrayAccess {
            array,
            mode: touch.implied_mode(),
            touch,
            pattern,
            sweeps,
        });
        self
    }

    /// Sets the work-group count.
    pub fn wg_count(mut self, wgs: u32) -> Self {
        assert!(wgs > 0, "kernel must have at least one work-group");
        self.wg_count = wgs;
        self
    }

    /// Sets ALU cycles per accessed line.
    pub fn compute_per_line(mut self, cycles: f64) -> Self {
        assert!(cycles >= 0.0);
        self.compute_per_line = cycles;
        self
    }

    /// Sets LDS accesses per global line touched.
    pub fn lds_per_line(mut self, accesses: f64) -> Self {
        assert!(accesses >= 0.0);
        self.lds_per_line = accesses;
        self
    }

    /// Sets the workload's L1 hit rate in `[0, 1]`.
    pub fn l1_hit_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "l1 hit rate must be in [0,1]");
        self.l1_hit_rate = rate;
        self
    }

    /// Sets the memory-level-parallelism factor (≥ 1).
    pub fn mlp(mut self, mlp: f64) -> Self {
        assert!(mlp >= 1.0, "mlp must be >= 1");
        self.mlp = mlp;
        self
    }

    /// Finishes the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the kernel accesses no arrays.
    pub fn build(self) -> KernelSpec {
        assert!(
            !self.arrays.is_empty(),
            "kernel {} must access at least one array",
            self.name
        );
        KernelSpec {
            name: self.name,
            arrays: self.arrays,
            wg_count: self.wg_count,
            compute_per_line: self.compute_per_line,
            lds_per_line: self.lds_per_line,
            l1_hit_rate: self.l1_hit_rate,
            mlp: self.mlp,
            span: self.span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> ArrayId {
        ArrayId::new(i)
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let k = KernelSpec::builder("k")
            .array(a(0), TouchKind::Load, AccessPattern::Partitioned)
            .wg_count(64)
            .compute_per_line(3.5)
            .lds_per_line(1.0)
            .l1_hit_rate(0.7)
            .mlp(16.0)
            .build();
        assert_eq!(k.name(), "k");
        assert_eq!(k.wg_count(), 64);
        assert!((k.compute_per_line() - 3.5).abs() < 1e-12);
        assert!((k.lds_per_line() - 1.0).abs() < 1e-12);
        assert!((k.l1_hit_rate() - 0.7).abs() < 1e-12);
        assert!((k.mlp() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn touch_kind_implies_mode() {
        assert_eq!(TouchKind::Load.implied_mode(), AccessMode::ReadOnly);
        assert_eq!(TouchKind::Store.implied_mode(), AccessMode::ReadWrite);
        assert_eq!(TouchKind::LoadStore.implied_mode(), AccessMode::ReadWrite);
    }

    #[test]
    #[should_panic(expected = "at least one array")]
    fn empty_kernel_rejected() {
        let _ = KernelSpec::builder("empty").build();
    }

    #[test]
    #[should_panic(expected = "slice fractions")]
    fn bad_slice_rejected() {
        let _ = KernelSpec::builder("k").array(
            a(0),
            TouchKind::Load,
            AccessPattern::Slice {
                start: 0.9,
                end: 0.1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "irregular fraction")]
    fn bad_irregular_rejected() {
        let _ = KernelSpec::builder("k").array(
            a(0),
            TouchKind::Load,
            AccessPattern::Irregular {
                fraction: 1.5,
                locality: 0.5,
            },
        );
    }

    #[test]
    fn swept_arrays_record_sweeps() {
        let k = KernelSpec::builder("k")
            .array_swept(a(0), TouchKind::LoadStore, AccessPattern::Partitioned, 4)
            .build();
        assert_eq!(k.arrays()[0].sweeps, 4);
    }

    #[test]
    fn kernel_id_ordering() {
        assert!(KernelId::new(1) < KernelId::new(2));
        assert_eq!(format!("{}", KernelId::new(3)), "kernel#3");
    }
}
