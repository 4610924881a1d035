//! Cross-crate integration tests: full workload runs under every protocol,
//! asserting the orderings the paper's evaluation establishes.

use cpelide_repro::prelude::*;

/// The workload set the suite-wide tests iterate. Debug builds (plain
/// `cargo test`) use a representative subset to stay fast; release builds
/// cover all 24 applications.
fn test_suite() -> Vec<Workload> {
    let all = cpelide_repro::workloads::suite();
    if cfg!(debug_assertions) {
        let keep = [
            "square",
            "bfs",
            "gaussian",
            "rnn-gru-small",
            "hotspot",
            "btree",
        ];
        all.into_iter()
            .filter(|w| keep.contains(&w.name()))
            .collect()
    } else {
        all
    }
}

fn run(name: &str, protocol: ProtocolKind, chiplets: usize) -> RunMetrics {
    let w = cpelide_repro::workloads::by_name(name).expect("workload in suite");
    Simulator::new(SimConfig::table1(chiplets, protocol)).run(&w)
}

#[test]
fn cpelide_never_loses_to_baseline_across_the_suite() {
    // Paper: "CPElide does not hurt performance for applications with
    // little or no reuse" — and helps the others. Allow 1% noise.
    for w in test_suite() {
        let base = Simulator::new(SimConfig::table1(4, ProtocolKind::Baseline)).run(&w);
        let cpe = Simulator::new(SimConfig::table1(4, ProtocolKind::CpElide)).run(&w);
        assert!(
            cpe.cycles <= base.cycles * 1.04,
            "{}: CPElide {} vs Baseline {}",
            w.name(),
            cpe.cycles,
            base.cycles
        );
    }
}

#[test]
fn monolithic_upper_bounds_every_chiplet_protocol() {
    for name in ["square", "babelstream", "lud", "sssp", "btree"] {
        let mono = run(name, ProtocolKind::Monolithic, 4);
        for p in [
            ProtocolKind::Baseline,
            ProtocolKind::CpElide,
            ProtocolKind::Hmg,
        ] {
            let m = run(name, p, 4);
            assert!(
                mono.cycles <= m.cycles * 1.02,
                "{name}: monolithic {} should beat {} {}",
                mono.cycles,
                p,
                m.cycles
            );
        }
    }
}

#[test]
fn streaming_reuse_apps_match_paper_factors() {
    // Square: CPElide ~1.3x over Baseline, ~1.4x over HMG (paper §V-B).
    let base = run("square", ProtocolKind::Baseline, 4);
    let cpe = run("square", ProtocolKind::CpElide, 4);
    let hmg = run("square", ProtocolKind::Hmg, 4);
    let vs_base = cpe.speedup_over(&base);
    let vs_hmg = cpe.speedup_over(&hmg);
    assert!(
        (1.15..=1.5).contains(&vs_base),
        "square vs baseline: {vs_base}"
    );
    assert!((1.2..=1.6).contains(&vs_hmg), "square vs HMG: {vs_hmg}");
}

#[test]
fn lud_is_cpelides_biggest_win() {
    // Paper: 48% for LUD, the largest single-app gain.
    let base = run("lud", ProtocolKind::Baseline, 4);
    let cpe = run("lud", ProtocolKind::CpElide, 4);
    let gain = cpe.speedup_over(&base);
    assert!((1.3..=1.7).contains(&gain), "lud gain: {gain}");
}

#[test]
fn compute_bound_apps_are_insensitive() {
    // Paper: Hotspot and the CNN are compute-bound; nothing helps or hurts.
    for name in ["hotspot", "cnn"] {
        let base = run(name, ProtocolKind::Baseline, 4);
        let cpe = run(name, ProtocolKind::CpElide, 4);
        let hmg = run(name, ProtocolKind::Hmg, 4);
        let c = cpe.speedup_over(&base);
        let h = hmg.speedup_over(&base);
        assert!((0.95..=1.1).contains(&c), "{name} CPElide: {c}");
        assert!((0.95..=1.1).contains(&h), "{name} HMG: {h}");
    }
}

#[test]
fn baseline_beats_hmg_on_low_reuse_group() {
    // Paper §V-B: "Baseline outperforms HMG for these workloads by 15% on
    // average" (directory evictions). Check the geomean over the group.
    let mut log_sum = 0.0;
    let mut n = 0;
    for w in test_suite() {
        if w.class() != ReuseClass::Low {
            continue;
        }
        let base = Simulator::new(SimConfig::table1(4, ProtocolKind::Baseline)).run(&w);
        let hmg = Simulator::new(SimConfig::table1(4, ProtocolKind::Hmg)).run(&w);
        log_sum += (hmg.cycles / base.cycles).ln();
        n += 1;
    }
    let baseline_advantage = (log_sum / n as f64).exp();
    assert!(
        (1.05..=1.35).contains(&baseline_advantage),
        "baseline over HMG on low-reuse group: {baseline_advantage}"
    );
}

#[test]
fn hmg_slightly_beats_cpelide_on_rnns() {
    // Paper §V-B: HMG edges out CPElide by a few percent on the RNNs via
    // remote weight-read caching.
    let mut log_sum = 0.0;
    let mut n = 0;
    for name in [
        "rnn-gru-small",
        "rnn-gru-large",
        "rnn-lstm-small",
        "rnn-lstm-large",
    ] {
        let cpe = run(name, ProtocolKind::CpElide, 4);
        let hmg = run(name, ProtocolKind::Hmg, 4);
        log_sum += (cpe.cycles / hmg.cycles).ln();
        n += 1;
    }
    let hmg_advantage = (log_sum / n as f64).exp();
    assert!(
        (1.0..=1.15).contains(&hmg_advantage),
        "HMG advantage on RNNs: {hmg_advantage}"
    );
}

#[test]
fn capacity_sensitivity_backprop_and_hotspot3d_at_two_chiplets() {
    // Paper §V-C: no 2-chiplet benefit for Backprop/Hotspot3D — their
    // footprints exceed the 16 MiB aggregate L2 — but clear 4-chiplet gains.
    for name in ["backprop", "hotspot3d"] {
        let gain2 = {
            let b = run(name, ProtocolKind::Baseline, 2);
            run(name, ProtocolKind::CpElide, 2).speedup_over(&b)
        };
        let gain4 = {
            let b = run(name, ProtocolKind::Baseline, 4);
            run(name, ProtocolKind::CpElide, 4).speedup_over(&b)
        };
        assert!(
            gain4 > gain2 + 0.02,
            "{name}: 4-chiplet gain {gain4} must exceed 2-chiplet gain {gain2}"
        );
    }
}

#[test]
fn traffic_ordering_on_write_through_heavy_apps() {
    // Paper Figure 10: HMG's write-through L2s inflate L2-L3 traffic far
    // beyond CPElide's on streaming apps.
    for name in ["square", "babelstream"] {
        let cpe = run(name, ProtocolKind::CpElide, 4);
        let hmg = run(name, ProtocolKind::Hmg, 4);
        assert!(
            hmg.traffic.l2_l3 as f64 > 1.3 * cpe.traffic.l2_l3 as f64,
            "{name}: HMG L2-L3 {} vs CPElide {}",
            hmg.traffic.l2_l3,
            cpe.traffic.l2_l3
        );
    }
}

#[test]
fn energy_ordering_follows_traffic() {
    // Paper Figure 9: CPElide's memory-subsystem energy undercuts both,
    // and neither scheme changes L1/LDS energy: the protocols differ only
    // below the L1s, so L1I/L1D/LDS must be equal at one chiplet count.
    let mut better_than_base = 0;
    let mut total = 0;
    for w in test_suite() {
        if w.class() != ReuseClass::ModerateHigh {
            continue;
        }
        let base = Simulator::new(SimConfig::table1(4, ProtocolKind::Baseline)).run(&w);
        let cpe = Simulator::new(SimConfig::table1(4, ProtocolKind::CpElide)).run(&w);
        let hmg = Simulator::new(SimConfig::table1(4, ProtocolKind::Hmg)).run(&w);
        for other in [&cpe, &hmg] {
            let (b, o) = (&base.energy, &other.energy);
            assert_eq!(
                (b.l1i, b.l1d, b.lds),
                (o.l1i, o.l1d, o.lds),
                "{}: {} L1I/L1D/LDS energy differs from Baseline",
                w.name(),
                other.protocol
            );
        }
        total += 1;
        if cpe.energy.total() <= base.energy.total() {
            better_than_base += 1;
        }
    }
    assert!(
        better_than_base * 10 >= total * 9,
        "CPElide energy should undercut Baseline on >=90% of reuse apps: {better_than_base}/{total}"
    );
}

#[test]
fn seven_chiplets_is_the_rocm_limit_and_still_works() {
    // Paper §IV-E: ROCm 1.6 supports at most 7 chiplets.
    for p in [
        ProtocolKind::Baseline,
        ProtocolKind::CpElide,
        ProtocolKind::Hmg,
    ] {
        let m = run("square", p, 7);
        assert_eq!(m.chiplets, 7);
        assert!(m.cycles > 0.0);
    }
}

#[test]
fn table_occupancy_stays_within_paper_bounds() {
    // Paper: up to 11 live entries, never overflowing the 64-entry table.
    for w in test_suite() {
        let m = Simulator::new(SimConfig::table1(4, ProtocolKind::CpElide)).run(&w);
        let t = m.table.expect("table stats");
        assert!(
            t.max_live_entries <= 16,
            "{}: {}",
            w.name(),
            t.max_live_entries
        );
        assert_eq!(t.evictions, 0, "{} overflowed the table", w.name());
    }
}
