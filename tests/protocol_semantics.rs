//! Fine-grained cross-crate semantics tests: the memory-system datapaths,
//! the CP protocol choreography, and the workload/engine contract — cases
//! too integration-heavy for unit tests but too targeted for the big
//! end-to-end suite.

use cpelide_repro::coherence::system::CostClass;
use cpelide_repro::coherence::{MemConfig, MemorySystem, ProtocolKind};
use cpelide_repro::mem::addr::{ChipletId, LineAddr};
use cpelide_repro::prelude::*;

fn tiny(n: usize) -> MemConfig {
    MemConfig {
        num_chiplets: n,
        l2_bytes: 64 * 128,
        l2_ways: 4,
        l3_bytes: 64 * 512,
        l3_ways: 8,
        dir_entries: 64,
        dir_ways: 8,
        dir_region_lines: 4,
    }
}

fn c(i: u8) -> ChipletId {
    ChipletId::new(i)
}

fn l(i: u64) -> LineAddr {
    LineAddr::new(i)
}

#[test]
fn viper_producer_consumer_needs_release_to_hand_off() {
    let mut m = MemorySystem::new(ProtocolKind::Baseline, tiny(2));
    // Producer on chiplet 0 writes a local-home line.
    m.read(c(0), l(0)); // first touch: home 0
    m.write(c(0), l(0));
    // Consumer on chiplet 1 reads via the home's LLC bank; the dirty data
    // is still trapped in chiplet 0's L2.
    assert_eq!(m.l2_dirty_lines(c(0)), 1);
    // After chiplet 0's release, the LLC can serve it.
    let rel = m.release(c(0));
    assert_eq!(rel.total_lines(), 1);
    let r = m.read(c(1), l(0));
    assert_eq!(r, CostClass::L3 { remote: true });
}

#[test]
fn viper_remote_reads_are_never_locally_cached() {
    let mut m = MemorySystem::new(ProtocolKind::CpElide, tiny(2));
    m.read(c(0), l(0)); // home 0
    for _ in 0..5 {
        let r = m.read(c(1), l(0));
        assert!(
            matches!(r, CostClass::L3 { remote: true }),
            "remote read must keep forwarding: {r:?}"
        );
    }
    assert_eq!(m.l2_valid_lines(c(1)), 0);
}

#[test]
fn hmg_repeated_remote_reads_amortize_through_caches() {
    let mut m = MemorySystem::new(ProtocolKind::Hmg, tiny(2));
    m.read(c(0), l(0)); // home 0, cached at home
    let first = m.read(c(1), l(0));
    assert_eq!(first, CostClass::L2RemoteHit, "served by home L2");
    let second = m.read(c(1), l(0));
    assert_eq!(second, CostClass::L2Hit, "now cached locally");
}

#[test]
fn acquire_preserves_values_through_the_llc() {
    // Whole-L2 acquires must never lose dirty data: flush-then-invalidate.
    let mut m = MemorySystem::new(ProtocolKind::CpElide, tiny(1));
    for i in 0..64 {
        m.write(c(0), l(i));
    }
    let a = m.acquire(c(0));
    assert_eq!(a.flush.total_lines(), 64);
    assert_eq!(m.l2_valid_lines(c(0)), 0);
    // Everything is recoverable below.
    for i in 0..64 {
        let r = m.read(c(0), l(i));
        assert!(
            matches!(r, CostClass::L3 { .. } | CostClass::Mem { .. }),
            "line {i} lost: {r:?}"
        );
    }
}

#[test]
fn monolithic_configuration_uses_aggregated_l2() {
    let m4 = SimConfig::table1(4, ProtocolKind::Monolithic);
    assert_eq!(m4.mem.l2_bytes, 32 << 20);
    let m7 = SimConfig::table1(7, ProtocolKind::Monolithic);
    assert_eq!(m7.mem.l2_bytes, 7 * (8 << 20));
    assert!((m7.compute_scale - 7.0).abs() < 1e-12);
}

#[test]
fn cp_protocol_chains_acquire_before_release_before_launch() {
    // The paper's lazy ordering (§III-B): at a launch needing both, the
    // acquire (invalidate) precedes the release (flush) which precedes the
    // first access. Our SyncActions lists both; acquires are applied first
    // by every consumer (engine + oracle). Verify the decision exposes both
    // for the write-after-stale pattern.
    let mut cp = GlobalCp::new(2);
    let info = |k: u64, writer: usize| {
        let mut ranges: Vec<Option<std::ops::Range<u64>>> = vec![None; 2];
        ranges[writer] = Some(0..100);
        KernelLaunchInfo::builder(k, [ChipletId::new(writer as u8)])
            .structure(0, 100, AccessMode::ReadWrite, ranges)
            .build()
    };
    cp.launch_kernel(&info(0, 0)); // chiplet 0 dirty
    cp.launch_kernel(&info(1, 1)); // chiplet 1 writes: release 0, 1 dirty
    let d = cp.launch_kernel(&info(2, 0)); // back to 0: acquire 0 + release 1
    assert_eq!(d.acquires, vec![ChipletId::new(0)]);
    assert_eq!(d.releases, vec![ChipletId::new(1)]);
}

#[test]
fn engine_charges_first_kernel_cp_latency_only_once() {
    let w = cpelide_repro::workloads::by_name("square").unwrap();
    let m = Simulator::new(SimConfig::table1(4, ProtocolKind::CpElide)).run(&w);
    // 8 µs at 1801 MHz ≈ 14.4K cycles; the run's total sync must include
    // it but stay well below one per kernel.
    let first_kernel_latency = 8.0 * 1801.0;
    assert!(m.sync_cycles >= first_kernel_latency);
    assert!(m.sync_cycles < first_kernel_latency * m.kernels as f64 / 2.0);
}

#[test]
fn strong_scaling_keeps_total_work_constant() {
    // The same workload at 2 and 4 chiplets touches the same total lines
    // (paper §IV-E strong scaling) — L1 access counts are per-event and
    // must match across chiplet counts for partitioned apps.
    let w = cpelide_repro::workloads::by_name("square").unwrap();
    let m2 = Simulator::new(SimConfig::table1(2, ProtocolKind::Baseline)).run(&w);
    let m4 = Simulator::new(SimConfig::table1(4, ProtocolKind::Baseline)).run(&w);
    assert_eq!(m2.energy_counts.l1d_accesses, m4.energy_counts.l1d_accesses);
    // And for irregular apps, within rounding of the per-chiplet split.
    let b = cpelide_repro::workloads::by_name("btree").unwrap();
    let b2 = Simulator::new(SimConfig::table1(2, ProtocolKind::Baseline)).run(&b);
    let b4 = Simulator::new(SimConfig::table1(4, ProtocolKind::Baseline)).run(&b);
    let ratio = b2.energy_counts.l1d_accesses as f64 / b4.energy_counts.l1d_accesses as f64;
    assert!(
        (0.98..=1.02).contains(&ratio),
        "irregular strong scaling: {ratio}"
    );
}

#[test]
fn hip_runtime_drives_the_same_table_as_from_spec() {
    // The Listing-2 path and the compiler-derived path must agree on the
    // partitioned-elision outcome.
    let mut hip = HipRuntime::new(2);
    let mut cp_hip = GlobalCp::new(2);
    let a = hip.malloc("a", 1 << 20);
    let halves = |p: cpelide_repro::cpelide::hip::DevicePtr| {
        let mid = p.base().offset(p.bytes() / 2);
        vec![
            RangeChiplet::new(p.base(), mid, 0),
            RangeChiplet::new(mid, p.base().offset(p.bytes()), 1),
        ]
    };
    for _ in 0..3 {
        hip.set_access_mode_range("k", a, AccessMode::ReadWrite, halves(a));
        let d = cp_hip.launch_kernel(&hip.launch_kernel_ggl("k", ChipletId::all(2)));
        assert!(d.is_elided());
    }
    assert_eq!(cp_hip.table_stats().releases_issued, 0);
}
