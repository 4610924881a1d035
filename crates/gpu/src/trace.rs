//! Per-chiplet memory access trace generation.
//!
//! Given a kernel spec, its dispatch plan, and the application's array
//! table, this module produces the sequence of cache-line accesses one
//! chiplet's CUs issue: the input the memory-subsystem simulation consumes.
//! [`TraceGenerator::for_each_event`] streams it lazily, one event at a
//! time; [`TraceGenerator::chiplet_trace`] collects the same stream.
//! Streams are deterministic — irregular patterns derive their PRNG seed
//! from (generator seed, kernel id, chiplet, array), so every protocol
//! configuration replays the identical trace.

use crate::dispatch::DispatchPlan;
use crate::kernel::{AccessPattern, ArrayAccess, KernelId, KernelSpec, TouchKind};
use crate::table::ArrayTable;
use chiplet_harness::rng::{mix64, Xoshiro256};
use chiplet_mem::addr::{ChipletId, LineAddr};
use chiplet_mem::array::{ArrayDecl, ArrayId};
use std::ops::Range;

/// One cache-line access issued by a chiplet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// The array the access belongs to.
    pub array: ArrayId,
    /// The line touched.
    pub line: LineAddr,
    /// True for a store, false for a load.
    pub write: bool,
}

/// Splits `total` (a half-open line-index range) into `width` contiguous
/// slices and returns slice `slot`. Earlier slots absorb the remainder.
fn partition_lines(total: Range<u64>, slot: usize, width: usize) -> Range<u64> {
    assert!(slot < width, "slot {slot} out of range for width {width}");
    let len = total.end - total.start;
    let (w, s) = (width as u64, slot as u64);
    let base = len / w;
    let extra = len % w;
    let start = total.start + s * base + s.min(extra);
    let size = base + u64::from(s < extra);
    start..start + size
}

/// The conservative contiguous line range a chiplet in `slot` of `width`
/// may touch under `pattern` — the address-range *hint* the software layer
/// passes to the CP via `hipSetAccessModeRange` (paper Listing 2).
///
/// Irregular patterns return the whole array (software cannot statically
/// narrow them, so the label must conservatively cover every possible
/// access; paper §III-C "Indirect & Irregular Accesses") — except
/// owner-local gathers (`locality == 1.0`), whose accesses provably stay
/// inside the chiplet's own partition, so the compiler can emit the
/// partition range.
pub fn hint_lines(
    pattern: &AccessPattern,
    decl: &ArrayDecl,
    slot: usize,
    width: usize,
) -> Range<u64> {
    let all = decl.line_range();
    match *pattern {
        AccessPattern::Partitioned => partition_lines(all, slot, width),
        AccessPattern::PartitionedHalo { halo_lines } => {
            let p = partition_lines(all.clone(), slot, width);
            p.start.saturating_sub(halo_lines).max(all.start)..(p.end + halo_lines).min(all.end)
        }
        AccessPattern::Irregular { locality, .. } if locality >= 1.0 => {
            partition_lines(all, slot, width)
        }
        AccessPattern::Shared | AccessPattern::Irregular { .. } => all,
        AccessPattern::Slice { start, end } => {
            let len = all.end - all.start;
            let sub = all.start + (len as f64 * start) as u64
                ..all.start + (len as f64 * end).ceil() as u64;
            partition_lines(sub, slot, width)
        }
    }
}

/// The statically derivable line footprint of one array access for one
/// chiplet slot: the contiguous range the chiplet *may* touch, and whether
/// the trace generator provably touches *exactly* that range.
///
/// Partitioned, halo, slice, and shared patterns are deterministic — the
/// generated trace covers [`hint_lines`] line-for-line, so `exact` is
/// true and the range doubles as the must-footprint. Irregular patterns
/// sample a random subset of the hint range, so `exact` is false and the
/// must-footprint is empty: static analysis may assume nothing beyond
/// "every access lands inside `may`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineFootprint {
    /// Half-open global line-index range covering every possible access.
    pub may: Range<u64>,
    /// True when the trace touches exactly `may` (must = may).
    pub exact: bool,
}

impl LineFootprint {
    /// The must-footprint: `may` when exact, empty otherwise.
    pub fn must(&self) -> Range<u64> {
        if self.exact {
            self.may.clone()
        } else {
            self.may.start..self.may.start
        }
    }
}

/// The static footprint of `pattern` for slice `slot` of `width` — the
/// abstract-interpretation counterpart of the line stream
/// [`TraceGenerator::for_each_event`] replays for that slot.
/// Soundness (every generated access lands inside `may`) and exactness
/// (non-irregular patterns cover `may` line-for-line) are pinned by the
/// `footprint_*` tests below.
pub fn line_footprint(
    pattern: &AccessPattern,
    decl: &ArrayDecl,
    slot: usize,
    width: usize,
) -> LineFootprint {
    LineFootprint {
        may: hint_lines(pattern, decl, slot, width),
        exact: !matches!(pattern, AccessPattern::Irregular { .. }),
    }
}

/// One array's line sequence for one chiplet: a single sweep's lines,
/// produced lazily and restarted at each sweep.
#[derive(Debug, Clone)]
struct LineStream {
    /// Lines per sweep.
    len: u64,
    /// Position within the current sweep.
    pos: u64,
    source: LineSource,
}

#[derive(Debug, Clone)]
enum LineSource {
    /// A contiguous run starting at this line (every regular pattern).
    Run(u64),
    /// Random draws from `rng`, re-seeded from `fresh` at each sweep start
    /// so every sweep repeats the first one's lines.
    Draws {
        fresh: Xoshiro256,
        rng: Xoshiro256,
        locality: f64,
        own: Range<u64>,
        all: Range<u64>,
    },
}

impl LineStream {
    /// The next line, wrapping to a repeat of the sweep after `len` lines.
    /// Must not be called on an empty stream.
    #[inline]
    fn next_line(&mut self) -> LineAddr {
        if self.pos == self.len {
            self.pos = 0;
            if let LineSource::Draws { fresh, rng, .. } = &mut self.source {
                *rng = *fresh;
            }
        }
        let i = self.pos;
        self.pos += 1;
        match &mut self.source {
            LineSource::Run(start) => LineAddr::new(*start + i),
            LineSource::Draws {
                rng,
                locality,
                own,
                all,
                ..
            } => {
                let r = rng.next_f64();
                if r < *locality && own.end > own.start {
                    LineAddr::new(rng.gen_range(own.clone()))
                } else {
                    LineAddr::new(rng.gen_range(all.clone()))
                }
            }
        }
    }
}

/// Deterministic trace generator.
#[derive(Debug, Clone, Copy)]
pub struct TraceGenerator {
    seed: u64,
}

impl TraceGenerator {
    /// Creates a generator; all irregular-pattern randomness derives from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        TraceGenerator { seed }
    }

    fn rng_for(&self, kernel: KernelId, chiplet: ChipletId, array: ArrayId) -> Xoshiro256 {
        // SplitMix64 avalanche over the identifying tuple.
        let z = self
            .seed
            .wrapping_add(kernel.get().wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((chiplet.index() as u64) << 32)
            .wrapping_add(u64::from(array.get()).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        Xoshiro256::seed_from_u64(mix64(z))
    }

    /// The one definition of each pattern's line sequence: the lines one
    /// chiplet touches in one array during a single sweep, in issue order.
    fn line_stream(
        &self,
        pattern: &AccessPattern,
        decl: &ArrayDecl,
        kernel: KernelId,
        chiplet: ChipletId,
        slot: usize,
        width: usize,
    ) -> LineStream {
        let (len, source) = match *pattern {
            AccessPattern::Partitioned
            | AccessPattern::Shared
            | AccessPattern::PartitionedHalo { .. }
            | AccessPattern::Slice { .. } => {
                let run = hint_lines(pattern, decl, slot, width);
                (run.end - run.start, LineSource::Run(run.start))
            }
            AccessPattern::Irregular { fraction, locality } => {
                let all = decl.line_range();
                let total = all.end - all.start;
                // Strong scaling: `fraction` of the array is visited by the
                // *kernel as a whole*; each chiplet performs its 1/width
                // share of those visits (paper SIV-E).
                let count = ((total as f64) * fraction / width as f64).round() as u64;
                let fresh = self.rng_for(kernel, chiplet, decl.id());
                let own = partition_lines(all.clone(), slot, width);
                (
                    count,
                    LineSource::Draws {
                        fresh,
                        rng: fresh,
                        locality,
                        own,
                        all,
                    },
                )
            }
        };
        LineStream {
            len,
            pos: 0,
            source,
        }
    }

    /// Each array's line stream for one chiplet, with its total line
    /// count over every sweep; `None` if the chiplet is not in the plan.
    fn array_streams<'k>(
        &self,
        kernel: &'k KernelSpec,
        id: KernelId,
        arrays: &ArrayTable,
        plan: &DispatchPlan,
        chiplet: ChipletId,
    ) -> Option<Vec<(&'k ArrayAccess, u64, LineStream)>> {
        let slot = plan.slot_of(chiplet)?;
        let width = plan.width();
        Some(
            kernel
                .arrays()
                .iter()
                .map(|acc| {
                    let decl = arrays.get(acc.array);
                    let stream = self.line_stream(&acc.pattern, decl, id, chiplet, slot, width);
                    (acc, stream.len * u64::from(acc.sweeps), stream)
                })
                .collect(),
        )
    }

    /// Streams the full interleaved access trace a chiplet issues for
    /// `kernel` into `f`, in issue order, without materialising it.
    ///
    /// Arrays are interleaved line-by-line (mirroring `a[i], b[i], c[i]`
    /// loop bodies); each array's line sequence is repeated `sweeps` times;
    /// `LoadStore` touches emit a load then a store per line.
    ///
    /// Emits nothing if the chiplet is not in the plan.
    pub fn for_each_event(
        &self,
        kernel: &KernelSpec,
        id: KernelId,
        arrays: &ArrayTable,
        plan: &DispatchPlan,
        chiplet: ChipletId,
        f: impl FnMut(AccessEvent),
    ) {
        if let Some(streams) = self.array_streams(kernel, id, arrays, plan, chiplet) {
            replay(streams, f);
        }
    }

    /// The full interleaved access trace a chiplet issues for `kernel`: a
    /// collect over the stream [`for_each_event`](Self::for_each_event)
    /// replays.
    ///
    /// Returns an empty trace if the chiplet is not in the plan.
    pub fn chiplet_trace(
        &self,
        kernel: &KernelSpec,
        id: KernelId,
        arrays: &ArrayTable,
        plan: &DispatchPlan,
        chiplet: ChipletId,
    ) -> Vec<AccessEvent> {
        let Some(streams) = self.array_streams(kernel, id, arrays, plan, chiplet) else {
            return Vec::new();
        };
        let total: u64 = streams.iter().map(|s| s.1).sum();
        let mut events = Vec::with_capacity(total as usize * 2);
        replay(streams, |ev| events.push(ev));
        events
    }
}

/// Interleaves the arrays' streams line by line into `f`.
fn replay(mut streams: Vec<(&ArrayAccess, u64, LineStream)>, mut f: impl FnMut(AccessEvent)) {
    let max_len = streams.iter().map(|s| s.1).max().unwrap_or(0);
    for i in 0..max_len {
        for (acc, total, stream) in &mut streams {
            if i >= *total {
                continue;
            }
            let line = stream.next_line();
            let event = |write| AccessEvent {
                array: acc.array,
                line,
                write,
            };
            match acc.touch {
                TouchKind::Load => f(event(false)),
                TouchKind::Store => f(event(true)),
                TouchKind::LoadStore => {
                    f(event(false));
                    f(event(true));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::StaticPartitionScheduler;
    use crate::kernel::KernelSpec;

    fn setup(bytes: u64) -> (ArrayTable, ArrayId) {
        let mut t = ArrayTable::new();
        let id = t.alloc("a", bytes);
        (t, id)
    }

    /// The lines one chiplet touches in one array (single sweep, in access
    /// order): a collect over the stream `for_each_event` replays.
    fn stream_lines(
        g: &TraceGenerator,
        pattern: &AccessPattern,
        decl: &ArrayDecl,
        kernel: KernelId,
        chiplet: ChipletId,
        slot: usize,
        width: usize,
    ) -> Vec<LineAddr> {
        let mut stream = g.line_stream(pattern, decl, kernel, chiplet, slot, width);
        (0..stream.len).map(|_| stream.next_line()).collect()
    }

    #[test]
    fn partition_covers_exactly_once() {
        let total = 0..100u64;
        let mut covered = Vec::new();
        for slot in 0..3 {
            covered.extend(partition_lines(total.clone(), slot, 3));
        }
        covered.sort_unstable();
        assert_eq!(covered, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn partition_handles_remainders() {
        assert_eq!(partition_lines(0..10, 0, 4), 0..3);
        assert_eq!(partition_lines(0..10, 1, 4), 3..6);
        assert_eq!(partition_lines(0..10, 2, 4), 6..8);
        assert_eq!(partition_lines(0..10, 3, 4), 8..10);
    }

    #[test]
    fn halo_extends_but_clamps() {
        let (t, id) = setup(64 * 100);
        let d = t.get(id);
        let h = AccessPattern::PartitionedHalo { halo_lines: 5 };
        let first = hint_lines(&h, d, 0, 4);
        let mid = hint_lines(&h, d, 1, 4);
        let all = d.line_range();
        assert_eq!(first.start, all.start, "no halo before array start");
        assert_eq!(first.end - first.start, 30);
        assert_eq!(mid.end - mid.start, 35);
    }

    #[test]
    fn shared_and_irregular_hint_whole_array() {
        let (t, id) = setup(64 * 100);
        let d = t.get(id);
        assert_eq!(hint_lines(&AccessPattern::Shared, d, 2, 4), d.line_range());
        assert_eq!(
            hint_lines(
                &AccessPattern::Irregular {
                    fraction: 0.1,
                    locality: 0.9
                },
                d,
                0,
                4
            ),
            d.line_range()
        );
    }

    #[test]
    fn slice_narrows_before_partitioning() {
        let (t, id) = setup(64 * 100);
        let d = t.get(id);
        let s = AccessPattern::Slice {
            start: 0.5,
            end: 1.0,
        };
        let r0 = hint_lines(&s, d, 0, 2);
        let r1 = hint_lines(&s, d, 1, 2);
        let base = d.line_range().start;
        assert_eq!(r0, base + 50..base + 75);
        assert_eq!(r1, base + 75..base + 100);
    }

    #[test]
    fn irregular_is_deterministic_and_sized() {
        let (t, id) = setup(64 * 1000);
        let d = t.get(id);
        let g = TraceGenerator::new(42);
        let p = AccessPattern::Irregular {
            fraction: 0.25,
            locality: 1.0,
        };
        let l1 = stream_lines(&g, &p, d, KernelId::new(3), ChipletId::new(1), 1, 4);
        let l2 = stream_lines(&g, &p, d, KernelId::new(3), ChipletId::new(1), 1, 4);
        assert_eq!(l1, l2, "same seed tuple must replay");
        // 1000 lines x 0.25 kernel-wide, split over 4 chiplets.
        assert_eq!(l1.len(), 63);
        let own = partition_lines(d.line_range(), 1, 4);
        assert!(
            l1.iter().all(|l| own.contains(&l.get())),
            "locality=1 stays local"
        );
    }

    #[test]
    fn irregular_locality_zero_spreads() {
        let (t, id) = setup(64 * 4000);
        let d = t.get(id);
        let g = TraceGenerator::new(7);
        let p = AccessPattern::Irregular {
            fraction: 1.0,
            locality: 0.0,
        };
        let lines = stream_lines(&g, &p, d, KernelId::new(0), ChipletId::new(0), 0, 4);
        let own = partition_lines(d.line_range(), 0, 4);
        let local = lines.iter().filter(|l| own.contains(&l.get())).count();
        let frac = local as f64 / lines.len() as f64;
        assert!(
            (frac - 0.25).abs() < 0.05,
            "expected ~1/4 local, got {frac}"
        );
    }

    #[test]
    fn trace_interleaves_arrays_and_respects_touch() {
        let mut t = ArrayTable::new();
        let a = t.alloc("a", 64 * 8);
        let b = t.alloc("b", 64 * 8);
        let k = KernelSpec::builder("k")
            .wg_count(8)
            .array(a, TouchKind::Load, AccessPattern::Partitioned)
            .array(b, TouchKind::Store, AccessPattern::Partitioned)
            .build();
        let plan = StaticPartitionScheduler::new().plan(&k, &ChipletId::all(2).collect::<Vec<_>>());
        let g = TraceGenerator::new(0);
        let trace = g.chiplet_trace(&k, KernelId::new(0), &t, &plan, ChipletId::new(0));
        // 4 lines per array per chiplet, interleaved a,b,a,b...
        assert_eq!(trace.len(), 8);
        assert_eq!(trace[0].array, a);
        assert!(!trace[0].write);
        assert_eq!(trace[1].array, b);
        assert!(trace[1].write);
    }

    #[test]
    fn loadstore_emits_read_then_write() {
        let mut t = ArrayTable::new();
        let a = t.alloc("a", 64 * 4);
        let k = KernelSpec::builder("k")
            .wg_count(4)
            .array(a, TouchKind::LoadStore, AccessPattern::Partitioned)
            .build();
        let plan = StaticPartitionScheduler::new().plan(&k, &[ChipletId::new(0)]);
        let g = TraceGenerator::new(0);
        let trace = g.chiplet_trace(&k, KernelId::new(0), &t, &plan, ChipletId::new(0));
        assert_eq!(trace.len(), 8);
        assert!(!trace[0].write && trace[1].write);
        assert_eq!(trace[0].line, trace[1].line);
    }

    #[test]
    fn sweeps_repeat_lines() {
        let mut t = ArrayTable::new();
        let a = t.alloc("a", 64 * 4);
        let k = KernelSpec::builder("k")
            .wg_count(4)
            .array_swept(a, TouchKind::Load, AccessPattern::Partitioned, 3)
            .build();
        let plan = StaticPartitionScheduler::new().plan(&k, &[ChipletId::new(0)]);
        let g = TraceGenerator::new(0);
        let trace = g.chiplet_trace(&k, KernelId::new(0), &t, &plan, ChipletId::new(0));
        assert_eq!(trace.len(), 12);
    }

    #[test]
    fn unscheduled_chiplet_gets_empty_trace() {
        let mut t = ArrayTable::new();
        let a = t.alloc("a", 64 * 4);
        let k = KernelSpec::builder("k")
            .wg_count(4)
            .array(a, TouchKind::Load, AccessPattern::Partitioned)
            .build();
        let plan = StaticPartitionScheduler::new().plan(&k, &[ChipletId::new(0)]);
        let g = TraceGenerator::new(0);
        assert!(g
            .chiplet_trace(&k, KernelId::new(0), &t, &plan, ChipletId::new(3))
            .is_empty());
    }

    /// Every pattern's generated trace stays inside the static `may`
    /// footprint, and exact patterns cover it line-for-line — the
    /// contract the elision oracle's abstract domain rests on.
    #[test]
    fn footprint_bounds_and_exactness_match_the_generator() {
        let (t, a) = setup(64 * 200);
        let decl = t.get(a);
        let patterns = [
            AccessPattern::Partitioned,
            AccessPattern::PartitionedHalo { halo_lines: 3 },
            AccessPattern::Shared,
            AccessPattern::Slice {
                start: 0.25,
                end: 0.75,
            },
            AccessPattern::Irregular {
                fraction: 0.5,
                locality: 0.0,
            },
            AccessPattern::Irregular {
                fraction: 0.5,
                locality: 1.0,
            },
        ];
        let g = TraceGenerator::new(7);
        for pattern in &patterns {
            for width in [1usize, 3, 4] {
                for slot in 0..width {
                    let fp = line_footprint(pattern, decl, slot, width);
                    let lines = stream_lines(
                        &g,
                        pattern,
                        decl,
                        KernelId::new(1),
                        ChipletId::new(slot as u8),
                        slot,
                        width,
                    );
                    for l in &lines {
                        assert!(
                            fp.may.contains(&l.get()),
                            "{pattern:?} slot {slot}/{width}: line {} outside may {:?}",
                            l.get(),
                            fp.may
                        );
                    }
                    if fp.exact {
                        let mut got: Vec<u64> = lines.iter().map(|l| l.get()).collect();
                        got.sort_unstable();
                        got.dedup();
                        let want: Vec<u64> = fp.may.clone().collect();
                        assert_eq!(got, want, "{pattern:?} slot {slot}/{width} must be exact");
                        assert_eq!(fp.must(), fp.may);
                    } else {
                        assert!(fp.must().is_empty(), "irregular must-footprint is empty");
                    }
                }
            }
        }
    }

    #[test]
    fn builder_span_points_at_the_definition_site() {
        let (t, a) = setup(64 * 4);
        let _ = t;
        let k = KernelSpec::builder("spanned")
            .array(a, TouchKind::Load, AccessPattern::Partitioned)
            .build();
        assert!(
            k.span().file.ends_with("trace.rs"),
            "span file {} should be the caller",
            k.span().file
        );
        assert!(k.span().line > 0);
        let moved = KernelSpec::builder("spanned")
            .array(a, TouchKind::Load, AccessPattern::Partitioned)
            .build();
        assert_eq!(k, moved, "spans are provenance, not identity");
        assert_ne!(k.span().line, moved.span().line);
    }

    /// One generated kernel for the streaming property: arrays of unequal
    /// length, each with its own pattern, touch and sweep count, dispatched
    /// over `width` chiplets.
    #[derive(Debug)]
    struct StreamCase {
        width: usize,
        seed: u64,
        arrays: Vec<(u64, TouchKind, AccessPattern, u32)>,
    }

    fn gen_case(rng: &mut chiplet_harness::rng::Xoshiro256, size: usize) -> StreamCase {
        use chiplet_harness::prop::vec_of;
        let width = 1 + rng.next_below(7) as usize;
        let arrays = vec_of(rng, size, 1..5, |r| {
            let lines = 1 + r.next_below(8 + 4 * size as u64);
            let touch =
                [TouchKind::Load, TouchKind::Store, TouchKind::LoadStore][r.next_below(3) as usize];
            let pattern = match r.next_below(5) {
                0 => AccessPattern::Partitioned,
                1 => AccessPattern::PartitionedHalo {
                    halo_lines: r.next_below(4),
                },
                2 => AccessPattern::Shared,
                3 => AccessPattern::Slice {
                    start: 0.25,
                    end: 0.75,
                },
                _ => AccessPattern::Irregular {
                    fraction: 0.25 + 0.75 * r.next_f64(),
                    locality: [0.0, 0.5, 1.0][r.next_below(3) as usize],
                },
            };
            (lines, touch, pattern, 1 + r.next_below(3) as u32)
        });
        StreamCase {
            width,
            seed: rng.next_u64(),
            arrays,
        }
    }

    /// The streamed trace equals the materialised reference for every
    /// pattern x touch x sweeps: each array's single-sweep line list
    /// repeated `sweeps` times as `lines[i % n]`, interleaved line by
    /// line. Irregular arrays with several sweeps pin the per-sweep
    /// re-seeding; unequal lengths pin the interleave's tail.
    #[test]
    fn streamed_trace_matches_the_materialised_reference() {
        use chiplet_harness::prop::{check, PropConfig};
        use chiplet_harness::prop_assert_eq;
        check(
            "streamed_trace_matches_the_materialised_reference",
            &PropConfig::default(),
            gen_case,
            |case| {
                let mut table = ArrayTable::new();
                let mut builder = KernelSpec::builder("k").wg_count(64);
                for (i, &(lines, touch, ref pattern, sweeps)) in case.arrays.iter().enumerate() {
                    let id = table.alloc(format!("a{i}"), 64 * lines);
                    builder = builder.array_swept(id, touch, pattern.clone(), sweeps);
                }
                let k = builder.build();
                let chiplets: Vec<ChipletId> = ChipletId::all(case.width).collect();
                let plan = StaticPartitionScheduler::new().plan(&k, &chiplets);
                let g = TraceGenerator::new(case.seed);
                let id = KernelId::new(5);
                for chiplet in ChipletId::all(case.width + 1) {
                    let mut want = Vec::new();
                    if let Some(slot) = plan.slot_of(chiplet) {
                        let lists: Vec<(&ArrayAccess, Vec<LineAddr>)> = k
                            .arrays()
                            .iter()
                            .map(|acc| {
                                let decl = table.get(acc.array);
                                let lines = stream_lines(
                                    &g,
                                    &acc.pattern,
                                    decl,
                                    id,
                                    chiplet,
                                    slot,
                                    plan.width(),
                                );
                                (acc, lines)
                            })
                            .collect();
                        let longest = lists
                            .iter()
                            .map(|(acc, l)| l.len() * acc.sweeps as usize)
                            .max()
                            .unwrap_or(0);
                        for i in 0..longest {
                            for (acc, lines) in &lists {
                                let n = lines.len();
                                if i >= n * acc.sweeps as usize {
                                    continue;
                                }
                                let ev = |write| AccessEvent {
                                    array: acc.array,
                                    line: lines[i % n],
                                    write,
                                };
                                match acc.touch {
                                    TouchKind::Load => want.push(ev(false)),
                                    TouchKind::Store => want.push(ev(true)),
                                    TouchKind::LoadStore => want.extend([ev(false), ev(true)]),
                                }
                            }
                        }
                    }
                    let got = g.chiplet_trace(&k, id, &table, &plan, chiplet);
                    prop_assert_eq!(got, want);
                    let mut streamed = Vec::new();
                    g.for_each_event(&k, id, &table, &plan, chiplet, |ev| streamed.push(ev));
                    prop_assert_eq!(streamed, want);
                }
                Ok(())
            },
        );
    }
}
