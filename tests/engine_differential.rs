//! Differential gate for the event-driven engine core: every registered
//! workload, under Baseline, HMG and CPElide at a spread of chiplet
//! counts and under Monolithic at 4, must produce **byte-identical**
//! `RunMetrics` JSON and the same event stream whether the simulator runs
//! on the event-driven set-block core (`run_with::<SetAssocCache, _>`,
//! what `Simulator::run` uses) or the frozen per-line reference core
//! (`run_with::<ScanCache, _>`).
//! The reference core defines the behavioural contract; any divergence
//! is a bug in the rework, never a tolerable drift.
//!
//! Debug builds prune the grid to the two cheapest-to-simulate workloads
//! so the tier-1 `cargo test -q` pass stays fast; release runs (CI's
//! `cargo test --release`) cover the full suite.

use chiplet_coherence::ProtocolKind;
use chiplet_harness::fleet;
use chiplet_mem::addr::LineAddr;
use chiplet_mem::cache::{CacheCore, CacheGeometry, ScanCache, SetAssocCache, WritePolicy};
use chiplet_sim::{SimConfig, SimEvent, Simulator};
use chiplet_workloads::Workload;

const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Baseline,
    ProtocolKind::Hmg,
    ProtocolKind::CpElide,
];
const CHIPLET_COUNTS: [usize; 3] = [2, 4, 7];

/// Every (protocol, chiplets) input: the chiplet protocols at each count,
/// plus the single-die Monolithic GPU with 4 chiplets' worth of L2.
fn configs() -> impl Iterator<Item = (ProtocolKind, usize)> {
    PROTOCOLS
        .into_iter()
        .flat_map(|p| CHIPLET_COUNTS.into_iter().map(move |n| (p, n)))
        .chain([(ProtocolKind::Monolithic, 4)])
}

/// Every registered workload: the paper suite plus the multi-stream
/// variants. Debug builds keep only the two cheapest members (simulation
/// cost scales with kernels × footprint).
fn grid_workloads() -> Vec<Workload> {
    let mut all = chiplet_workloads::suite();
    all.extend(chiplet_workloads::multi_stream_suite());
    if cfg!(debug_assertions) {
        all.sort_by_key(|w| w.kernel_count() as u64 * w.footprint_bytes());
        all.truncate(2);
    }
    all
}

/// The run's metrics JSON and its recorded events.
fn observed_run<C: CacheCore>(
    workload: &Workload,
    protocol: ProtocolKind,
    chiplets: usize,
) -> (String, Vec<SimEvent>) {
    let mut events = Vec::new();
    let m = Simulator::new(SimConfig::table1(chiplets, protocol))
        .run_with::<C, _>(workload, &mut events);
    (m.to_json().render(), events)
}

/// The (workload, config) pairs are independent, so they fan out over
/// the fleet; a failed assertion in any job fails the test with that
/// job's message once the pool has joined.
#[test]
fn event_core_matches_reference_scan_on_the_full_grid() {
    let workloads = grid_workloads();
    assert!(!workloads.is_empty());
    let pairs: Vec<(&Workload, ProtocolKind, usize)> = workloads
        .iter()
        .flat_map(|w| configs().map(move |(p, n)| (w, p, n)))
        .collect();
    fleet::parallel_map_ok(&pairs, fleet::workers(), |&(w, p, n)| {
        let (event, event_log) = observed_run::<SetAssocCache>(w, p, n);
        let (scan, scan_log) = observed_run::<ScanCache>(w, p, n);
        assert_eq!(
            event,
            scan,
            "{}:{p}:{n}: event-driven core diverged from the reference scan",
            w.name()
        );
        assert!(
            event_log == scan_log,
            "{}:{p}:{n}: the cores emitted different events",
            w.name()
        );
    });
}

// ---------------------------------------------------------------------------
// Drain-set property: a batched boundary drain must visit exactly the line
// set the per-line reference walk visits — no line skipped (stale pending
// bookkeeping), no line revisited (epoch leak across invalidate_all).
// ---------------------------------------------------------------------------

/// Deterministic xorshift64* stream, the same generator the in-crate fuzz
/// tests use, so failures replay exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn batched_drains_visit_exactly_the_reference_walk_line_set() {
    let geom = CacheGeometry::new(16 * 1024, 128, 4).expect("valid geometry");
    for seed in [3u64, 77, 2024] {
        let mut rng = Rng(seed);
        let mut event = SetAssocCache::new(geom, WritePolicy::WriteBack);
        let mut scan = ScanCache::new(geom, WritePolicy::WriteBack);
        let ops = if cfg!(debug_assertions) {
            4_000
        } else {
            20_000
        };
        for step in 0..ops {
            let r = rng.next();
            // A skewed band keeps sets contended so evictions, epochs and
            // re-dirtying all actually happen.
            let line = LineAddr::new(r % 600);
            match r % 101 {
                0..=59 => {
                    event.write(line);
                    scan.write(line);
                }
                60..=89 => {
                    event.read(line);
                    scan.read(line);
                }
                90..=93 => {
                    // The batched boundary drain under test.
                    let e = event.flush_dirty_lines();
                    let s = scan.flush_dirty_lines();
                    assert_eq!(e, s, "seed {seed} step {step}: drained line sets diverged");
                }
                94..=96 => {
                    assert_eq!(
                        event.invalidate_all().lines_invalidated,
                        scan.invalidate_all().lines_invalidated,
                        "seed {seed} step {step}: invalidate_all diverged"
                    );
                }
                97..=98 => {
                    assert_eq!(
                        event.invalidate_line(line),
                        scan.invalidate_line(line),
                        "seed {seed} step {step}: invalidate_line diverged"
                    );
                }
                _ => {
                    assert_eq!(
                        event.flush_line(line),
                        scan.flush_line(line),
                        "seed {seed} step {step}: flush_line diverged"
                    );
                }
            }
        }
        // Terminal drain: whatever is still dirty must agree too.
        assert_eq!(
            event.flush_dirty_lines(),
            scan.flush_dirty_lines(),
            "seed {seed}: terminal drain diverged"
        );
        assert_eq!(event.dirty_lines(), 0);
        assert_eq!(scan.dirty_lines(), 0);
    }
}
