//! Suite-wide coherence audit: CPElide's elisions must never let any
//! chiplet read stale data, on any workload, at any chiplet count.

use chiplet_coherence::ProtocolKind;
use chiplet_sim::oracle::{check_coherence, check_never_sync};
use chiplet_workloads::Workload;

/// Workloads small enough to audit densely.
const DENSE: &[&str] = &["square", "bfs", "gaussian", "rnn-gru-small", "fw"];

/// Larger workloads audited with sparser read sampling.
const SPARSE: &[&str] = &[
    "babelstream",
    "backprop",
    "hotspot",
    "hotspot3d",
    "lud",
    "lulesh",
    "pennant",
    "sssp",
    "color-max",
    "btree",
    "srad_v2",
    "pathfinder",
];

#[test]
fn cpelide_is_coherent_on_dense_sample_at_4_chiplets() {
    for name in DENSE {
        let w = cpelide_repro::workloads::by_name(name).unwrap();
        let r = check_coherence(&w, ProtocolKind::CpElide, 4, 3);
        assert!(
            r.is_coherent(),
            "{name}: {} violations, first: {:?}",
            r.violations.len(),
            r.violations.first()
        );
        assert!(r.reads_checked > 0, "{name} audited no reads");
    }
}

#[test]
fn cpelide_is_coherent_on_sparse_sample_at_4_chiplets() {
    // Debug builds audit a subset to keep plain `cargo test` fast.
    let sparse: &[&str] = if cfg!(debug_assertions) {
        &SPARSE[..4]
    } else {
        SPARSE
    };
    for name in sparse {
        let w = cpelide_repro::workloads::by_name(name).unwrap();
        let sample = if cfg!(debug_assertions) { 97 } else { 41 };
        let r = check_coherence(&w, ProtocolKind::CpElide, 4, sample);
        assert!(
            r.is_coherent(),
            "{name}: {} violations, first: {:?}",
            r.violations.len(),
            r.violations.first()
        );
    }
}

#[test]
fn cpelide_is_coherent_at_other_chiplet_counts() {
    for chiplets in [2usize, 6, 7] {
        for name in ["square", "hotspot3d", "sssp", "rnn-lstm-small"] {
            let w = cpelide_repro::workloads::by_name(name).unwrap();
            let r = check_coherence(&w, ProtocolKind::CpElide, chiplets, 17);
            assert!(
                r.is_coherent(),
                "{name}@{chiplets}: first violation {:?}",
                r.violations.first()
            );
        }
    }
}

#[test]
fn cpelide_is_coherent_when_partitions_straddle_pages() {
    // Regression: the CCT used to track first-touch home claims at line
    // granularity, but placement is page-granular — at chiplet counts
    // where an array's lines don't divide page-aligned (bfs: 8192 lines
    // over 3/5/6/7 chiplets), the chiplet homing a boundary-straddling
    // page held dirty lines outside its modeled home range, the release
    // was elided, and readers observed stale data.
    for chiplets in [3usize, 5, 6, 7] {
        let w = cpelide_repro::workloads::by_name("bfs").unwrap();
        let r = check_coherence(&w, ProtocolKind::CpElide, chiplets, 31);
        assert!(
            r.is_coherent(),
            "bfs@{chiplets}: {} violations, first: {:?}",
            r.violations.len(),
            r.violations.first()
        );
    }
}

#[test]
fn baseline_is_coherent_everywhere() {
    for name in DENSE {
        let w = cpelide_repro::workloads::by_name(name).unwrap();
        let r = check_coherence(&w, ProtocolKind::Baseline, 4, 13);
        assert!(r.is_coherent(), "{name}: {:?}", r.violations.first());
    }
}

#[test]
fn multi_stream_workloads_are_coherent_under_cpelide() {
    // Multi-stream rounds launch several kernels at one boundary, so they
    // are where the replay's round schedule matters; Baseline (one bulk
    // sync per round) and HMG (no boundary sync) run here too, since the
    // debug conformance sweep stops before the multi-stream workloads.
    for w in cpelide_repro::workloads::multi_stream_suite() {
        for p in [
            ProtocolKind::CpElide,
            ProtocolKind::Baseline,
            ProtocolKind::Hmg,
        ] {
            let r = check_coherence(&w, p, 4, 5);
            assert!(r.reads_checked > 0, "{}/{p}: audited no reads", w.name());
            assert!(
                r.is_coherent(),
                "{}/{p}: {:?}",
                w.name(),
                r.violations.first()
            );
        }
    }
}

/// Every registered workload: the paper suite plus the multi-stream
/// extension apps.
fn registered_workloads() -> Vec<Workload> {
    let mut all = cpelide_repro::workloads::suite();
    all.extend(cpelide_repro::workloads::multi_stream_suite());
    all
}

#[test]
fn conformance_sweep_every_workload_every_protocol() {
    // The full conformance sweep: oracle-replay every registered workload
    // under Baseline (sync-everything), HMG (per-access directory
    // coherence) and CPElide (elided implicit sync), asserting zero
    // violations. Smoke mode — `CPELIDE_SMOKE` set, or a debug build —
    // audits a subset with sparser sampling so plain `cargo test` stays
    // fast; release CI runs the whole suite.
    let smoke = std::env::var("CPELIDE_SMOKE").is_ok() || cfg!(debug_assertions);
    let mut workloads = registered_workloads();
    let sample = if smoke {
        workloads.truncate(8);
        499
    } else {
        127
    };
    let protocols = [
        ProtocolKind::Baseline,
        ProtocolKind::Hmg,
        ProtocolKind::CpElide,
    ];
    for w in &workloads {
        for p in protocols {
            let r = check_coherence(w, p, 4, sample);
            assert!(r.reads_checked > 0, "{}/{p}: audited no reads", w.name());
            assert!(
                r.is_coherent(),
                "{}/{p}: {} violations, first: {:?}",
                w.name(),
                r.violations.len(),
                r.violations.first()
            );
        }
    }
}

#[test]
fn the_oracle_itself_detects_missing_synchronization() {
    // Validate the validator: dropping all sync on cross-chiplet
    // producer/consumer workloads must produce violations.
    let mut caught = 0;
    for name in ["sssp", "lud", "fw"] {
        let w = cpelide_repro::workloads::by_name(name).unwrap();
        if !check_never_sync(&w, 4, 7).is_coherent() {
            caught += 1;
        }
    }
    assert!(
        caught >= 2,
        "oracle failed to flag broken protocols: {caught}/3"
    );
}
