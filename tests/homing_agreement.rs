//! First-touch homing has exactly one implementation.
//!
//! The bug class guarded against: two components each keeping a private
//! notion of "which chiplet owns this page" that drift apart once rows are
//! recycled. The oracle reuses `chiplet_mem::page::FirstTouchPlacement` —
//! the same type the timing model uses. These tests replay real traces
//! whose pages are touched again long after their first placement
//! (recycled CCT rows, later kernels, remote touchers) and check the flat
//! page table agrees with an independent hash-map reference at **every
//! single access**, not just at the end.

use chiplet_coherence::ProtocolKind;
use chiplet_gpu::dispatch::StaticPartitionScheduler;
use chiplet_gpu::kernel::KernelId;
use chiplet_gpu::trace::TraceGenerator;
use chiplet_mem::addr::{ChipletId, PageAddr};
use chiplet_mem::page::FirstTouchPlacement;
use chiplet_sim::SimConfig;
use std::collections::HashMap;

/// Replays `name`'s full trace, feeding every (page, toucher) pair to both
/// the flat `FirstTouchPlacement` and a plain `HashMap` first-touch
/// reference, and asserts they agree access-by-access.
fn assert_homing_agrees(name: &str, chiplets: usize) {
    let w = cpelide_repro::workloads::by_name(name).expect("workload in suite");
    let cfg = SimConfig::table1(chiplets, ProtocolKind::CpElide);
    let n = cfg.num_chiplets;
    let tracegen = TraceGenerator::new(cfg.seed);
    let scheduler = StaticPartitionScheduler::new();
    let all: Vec<ChipletId> = ChipletId::all(n).collect();

    let mut table = FirstTouchPlacement::new();
    let mut reference: HashMap<PageAddr, ChipletId> = HashMap::new();
    let mut touches = 0u64;
    for (i, l) in w.launches().iter().enumerate() {
        let binding: Vec<ChipletId> = match &l.binding {
            None => all.clone(),
            Some(b) => {
                let v: Vec<_> = b.iter().copied().filter(|c| c.index() < n).collect();
                if v.is_empty() {
                    all.clone()
                } else {
                    v
                }
            }
        };
        let plan = scheduler.plan(&l.spec, &binding);
        for chiplet in plan.chiplets() {
            let trace = tracegen.chiplet_trace(
                &l.spec,
                KernelId::new(i as u64),
                w.arrays(),
                &plan,
                chiplet,
            );
            for ev in &trace {
                let page = ev.line.page();
                let flat_home = table.home_of(page, chiplet);
                let ref_home = *reference.entry(page).or_insert(chiplet);
                assert_eq!(
                    flat_home, ref_home,
                    "{name}: homes drifted at {page} (toucher {chiplet})"
                );
                touches += 1;
            }
        }
    }
    assert!(touches > 1000, "{name}: trace too small to be meaningful");
    assert_eq!(
        table.placed_pages(),
        reference.len(),
        "{name}: placement counts drifted"
    );
}

#[test]
fn page_table_matches_hash_reference_on_recycled_row_traces() {
    // fw relaunches the same kernel over the same arrays dozens of times
    // (rows leave and re-enter the CCT between launches); btree's lookups
    // revisit pages first touched by other chiplets much earlier.
    for name in ["fw", "btree"] {
        assert_homing_agrees(name, 4);
    }
}

#[test]
fn page_table_matches_hash_reference_across_chiplet_counts() {
    for chiplets in [2usize, 7] {
        assert_homing_agrees("bfs", chiplets);
    }
}
