//! Seeded cell selection. The program never sees the seed: it receives
//! only the cells chosen here.
//!
//! - **Regularity.** A cell is *irregular* when its workload launches at
//!   least one kernel with an `AccessPattern::Irregular` array access, and
//!   *regular* otherwise (every access is `Partitioned`,
//!   `PartitionedHalo`, `Shared` or `Slice`: contiguous line ranges).
//! - **Sweep passes.** The campaign cells of one regularity are grouped
//!   into strata by (suite, workload, protocol). A pass takes one cell per
//!   stratum. Within a workload the Baseline, CPElide and HMG strata take
//!   distinct chiplet counts from one seeded permutation, and pass `j`
//!   rotates that permutation by `j`; single-cell strata (Monolithic, the
//!   multi-stream suite) repeat in every pass. The pass is then shuffled.
//!   Stratifying keeps every pass's cost close to the grid average (cell
//!   costs differ by up to 200x), so the seed changes the cells without
//!   changing the run's size much.
//! - **Serve pool.** The workloads whose `kernel_count x footprint` is at
//!   most [`POOL_COST_LIMIT`] (cheap to simulate, so the set-up can fill
//!   the cache), one cell per (suite, workload, protocol) stratum with a
//!   seeded chiplet count.

use chiplet_gpu::kernel::AccessPattern;
use chiplet_harness::rng::Xoshiro256;
use chiplet_workloads::Workload;
use cpelide_bench::campaign::CellSpec;

/// Workloads at most this cheap (kernels x footprint bytes) feed the
/// serve pool.
pub const POOL_COST_LIMIT: u64 = 64 << 20;

/// True when any kernel of `w` has an `Irregular` array access.
pub fn is_irregular(w: &Workload) -> bool {
    w.launches().iter().any(|l| {
        l.spec
            .arrays()
            .iter()
            .any(|a| matches!(a.pattern, AccessPattern::Irregular { .. }))
    })
}

/// The seeded generator for one purpose (`stream`) of one run.
pub fn rng(seed: u64, stream: u64) -> Xoshiro256 {
    Xoshiro256::seed_from_u64(chiplet_harness::mix64(
        seed ^ stream.wrapping_mul(0x9E37_79B9),
    ))
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut Xoshiro256) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range_usize(0..i + 1);
        items.swap(i, j);
    }
}

/// Groups `cells` into (suite, workload, protocol) strata, in encounter
/// order.
fn strata<'a>(cells: impl Iterator<Item = &'a CellSpec>) -> Vec<Vec<&'a CellSpec>> {
    let mut out: Vec<Vec<&CellSpec>> = Vec::new();
    for s in cells {
        let same = |t: &&CellSpec| {
            t.suite == s.suite
                && t.cell.workload.name() == s.cell.workload.name()
                && t.cell.protocol == s.cell.protocol
        };
        match out.iter_mut().find(|st| same(&st[0])) {
            Some(st) => st.push(s),
            None => out.push(vec![s]),
        }
    }
    out
}

/// `passes` stratified passes over the cells of `all` with the given
/// regularity (see the module docs).
pub fn sweep_passes(
    all: &[CellSpec],
    irregular: bool,
    seed: u64,
    passes: usize,
) -> Vec<Vec<CellSpec>> {
    let strata = strata(
        all.iter()
            .filter(|s| is_irregular(&s.cell.workload) == irregular),
    );
    // Each workload's strata share one permutation of its chiplet counts.
    let mut workloads: Vec<Vec<&Vec<&CellSpec>>> = Vec::new();
    for st in &strata {
        let same = |w: &&mut Vec<&Vec<&CellSpec>>| {
            w[0][0].suite == st[0].suite
                && w[0][0].cell.workload.name() == st[0].cell.workload.name()
        };
        match workloads.iter_mut().find(same) {
            Some(w) => w.push(st),
            None => workloads.push(vec![st]),
        }
    }
    let mut rng = rng(seed, 1);
    let mut out = vec![Vec::new(); passes];
    for workload in &workloads {
        let mut counts: Vec<usize> = workload
            .iter()
            .filter(|st| st.len() > 1)
            .flat_map(|st| st.iter().map(|s| s.cell.chiplets))
            .collect();
        counts.sort_unstable();
        counts.dedup();
        shuffle(&mut counts, &mut rng);
        let mut multi = 0usize;
        for st in workload.iter().copied() {
            for (j, pass) in out.iter_mut().enumerate() {
                let pick = if st.len() == 1 {
                    st[0]
                } else {
                    let n = counts[(multi + j) % counts.len()];
                    st.iter()
                        .copied()
                        .find(|s| s.cell.chiplets == n)
                        .unwrap_or(st[(multi + j) % st.len()])
                };
                pass.push(pick.clone());
            }
            if st.len() > 1 {
                multi += 1;
            }
        }
    }
    for pass in &mut out {
        shuffle(pass, &mut rng);
    }
    out
}

/// The serve-warm pool (see the module docs), in seeded order.
pub fn serve_pool(all: &[CellSpec], seed: u64) -> Vec<CellSpec> {
    let mut rng = rng(seed, 2);
    let cheap = all.iter().filter(|s| {
        let w = &s.cell.workload;
        (w.kernel_count() as u64).saturating_mul(w.footprint_bytes()) <= POOL_COST_LIMIT
    });
    let mut pool: Vec<CellSpec> = strata(cheap)
        .iter()
        .map(|st| st[rng.gen_range_usize(0..st.len())].clone())
        .collect();
    shuffle(&mut pool, &mut rng);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpelide_bench::campaign;

    fn key(s: &CellSpec) -> (String, String, String) {
        (
            s.suite.label().to_owned(),
            s.cell.workload.name().to_owned(),
            s.cell.protocol.label().to_owned(),
        )
    }

    #[test]
    fn regularity_splits_the_grid_243_to_81() {
        let cells = campaign::cells();
        let irregular = cells
            .iter()
            .filter(|s| is_irregular(&s.cell.workload))
            .count();
        assert_eq!((cells.len() - irregular, irregular), (243, 81));
    }

    #[test]
    fn passes_take_one_cell_per_stratum_with_distinct_counts() {
        let cells = campaign::cells();
        for (irregular, size) in [(false, 81), (true, 27)] {
            let strata = strata(
                cells
                    .iter()
                    .filter(|s| is_irregular(&s.cell.workload) == irregular),
            );
            for seed in 1..4 {
                let passes = sweep_passes(&cells, irregular, seed, 2);
                let again = sweep_passes(&cells, irregular, seed, 2);
                let ids = |p: &[Vec<CellSpec>]| -> Vec<String> {
                    p.concat().iter().map(CellSpec::id).collect()
                };
                assert_eq!(ids(&passes), ids(&again), "same seed, same cells");
                for pass in &passes {
                    assert_eq!(pass.len(), size);
                    let mut keys: Vec<_> = pass.iter().map(key).collect();
                    keys.sort();
                    keys.dedup();
                    assert_eq!(keys.len(), strata.len(), "one cell per stratum");
                }
                // Among the strata with a choice of chiplet counts, one
                // workload's protocols get distinct counts within a pass,
                // and each stratum gets a different count in each pass.
                let many =
                    |c: &CellSpec| strata.iter().any(|st| key(st[0]) == key(c) && st.len() > 1);
                for pass in &passes {
                    for a in pass.iter().filter(|c| many(c)) {
                        for b in pass.iter().filter(|c| many(c)) {
                            if a.cell.workload.name() == b.cell.workload.name()
                                && a.cell.protocol != b.cell.protocol
                            {
                                assert_ne!(a.cell.chiplets, b.cell.chiplets);
                            }
                        }
                    }
                }
                for a in passes[0].iter().filter(|c| many(c)) {
                    let twin = passes[1].iter().find(|t| key(t) == key(a));
                    assert_ne!(twin.map(|t| t.cell.chiplets), Some(a.cell.chiplets));
                }
            }
        }
    }

    #[test]
    fn serve_pool_is_one_cheap_cell_per_stratum() {
        let cells = campaign::cells();
        let pool = serve_pool(&cells, 7);
        assert_eq!(pool.len(), 16, "4 cheap workloads x 4 protocols");
        for s in &pool {
            let w = &s.cell.workload;
            assert!(w.kernel_count() as u64 * w.footprint_bytes() <= POOL_COST_LIMIT);
        }
        let mut keys: Vec<_> = pool.iter().map(key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), pool.len());
    }
}
