//! Cache correctness for the campaign runner: cache keys are content
//! hashes of what a cell computes, so editing one workload definition
//! invalidates exactly that workload's cells, moving a kernel's source
//! line invalidates nothing, cached and fresh cells are
//! interchangeable in the report, and corrupt entries fall through to
//! re-simulation instead of poisoning the results.

use chiplet_harness::fleet::DiskCache;
use chiplet_sim::Cell;
use chiplet_workloads::spec::parse_workload;
use chiplet_workloads::Workload;
use cpelide_bench::campaign::{self, CellSpec, SuiteTag, PROTOCOLS};
use std::path::{Path, PathBuf};

const ALPHA: &str = r#"
name alpha
input "tiny"
class moderate-high
array a 64KiB
kernel k
  wgs 64
  load  a partitioned
  store a partitioned
sequence repeat 2 { k }
"#;

const BETA: &str = r#"
name beta
input "tiny"
class low
array b 64KiB
kernel k
  wgs 64
  load b shared
sequence repeat 2 { k }
"#;

fn fresh_dir(sub: &str) -> PathBuf {
    let p = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cache_correctness")
        .join(sub);
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn specs_for(w: &Workload, chiplets: usize) -> Vec<CellSpec> {
    PROTOCOLS
        .iter()
        .map(|&p| CellSpec::new(Cell::new(w.clone(), p, chiplets), SuiteTag::Main))
        .collect()
}

#[test]
fn mutating_one_workload_invalidates_exactly_its_cells() {
    let cache = DiskCache::new(fresh_dir("mutate"));
    let alpha = parse_workload(ALPHA).expect("alpha spec parses");
    let beta = parse_workload(BETA).expect("beta spec parses");
    let mut specs = specs_for(&alpha, 2);
    specs.extend(specs_for(&beta, 2));

    let first = campaign::run(&specs, 2, Some(&cache), None, false);
    assert_eq!(first.failed, 0);
    assert_eq!(
        first.simulated,
        specs.len(),
        "cold cache simulates all cells"
    );
    assert_eq!(first.cached, 0);

    let second = campaign::run(&specs, 2, Some(&cache), None, false);
    assert_eq!(second.simulated, 0, "warm cache simulates nothing");
    assert_eq!(second.cached, specs.len());
    assert!(
        first.report.render() == second.report.render(),
        "cached and fresh cells must be interchangeable in the report"
    );

    // Edit one field of alpha's definition; beta is untouched.
    let alpha2 = parse_workload(&ALPHA.replace("64KiB", "128KiB")).expect("mutated alpha parses");
    let mut mutated = specs_for(&alpha2, 2);
    mutated.extend(specs_for(&beta, 2));
    let third = campaign::run(&mutated, 2, Some(&cache), None, false);
    assert_eq!(
        third.simulated,
        PROTOCOLS.len(),
        "exactly the mutated workload's cells re-simulate"
    );
    assert_eq!(third.cached, PROTOCOLS.len(), "beta's cells stay cached");

    // The invalidation is visible in the fingerprints themselves.
    for (a, a2) in specs_for(&alpha, 2).iter().zip(&specs_for(&alpha2, 2)) {
        assert_ne!(a.fingerprint(), a2.fingerprint());
    }
    for (b, b2) in specs_for(&beta, 2).iter().zip(&specs_for(&beta, 2)) {
        assert_eq!(b.fingerprint(), b2.fingerprint());
    }
}

#[test]
fn chiplet_count_is_part_of_the_cache_key() {
    let alpha = parse_workload(ALPHA).expect("alpha spec parses");
    let at2: Vec<String> = specs_for(&alpha, 2)
        .iter()
        .map(CellSpec::fingerprint)
        .collect();
    let at4: Vec<String> = specs_for(&alpha, 4)
        .iter()
        .map(CellSpec::fingerprint)
        .collect();
    for (a, b) in at2.iter().zip(&at4) {
        assert_ne!(
            a, b,
            "same workload at another count must not share a cache entry"
        );
    }
}

#[test]
fn a_kernels_source_line_is_not_part_of_the_cache_key() {
    let cache = DiskCache::new(fresh_dir("spans"));
    let alpha = parse_workload(ALPHA).expect("alpha spec parses");
    let specs = specs_for(&alpha, 2);
    let first = campaign::run(&specs, 2, Some(&cache), None, false);
    assert_eq!(first.simulated, specs.len());

    // A comment line above each kernel moves every kernel's span down.
    let shifted = parse_workload(&ALPHA.replace("kernel ", "# moved down\nkernel "))
        .expect("shifted alpha parses");
    let span = |w: &Workload| w.launches()[0].spec.span().clone();
    assert_ne!(span(&shifted), span(&alpha), "the spans moved");
    let moved = specs_for(&shifted, 2);
    for (a, b) in specs.iter().zip(&moved) {
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}", a.id());
    }
    let rerun = campaign::run(&moved, 2, Some(&cache), None, false);
    assert_eq!(rerun.simulated, 0, "a moved kernel is a cache hit");
    assert!(rerun.report.render() == first.report.render());
}

#[test]
fn corrupt_cache_entries_fall_through_to_resimulation() {
    let cache = DiskCache::new(fresh_dir("corrupt"));
    let beta = parse_workload(BETA).expect("beta spec parses");
    let specs = specs_for(&beta, 2);

    let first = campaign::run(&specs, 1, Some(&cache), None, false);
    assert_eq!(first.simulated, specs.len());

    // Clobber one entry with garbage; the runner must re-simulate that
    // cell (and only that cell) rather than trust it.
    cache
        .store(&specs[0].fingerprint(), "not json at all")
        .expect("overwrite a cache entry");
    let second = campaign::run(&specs, 1, Some(&cache), None, false);
    assert_eq!(second.simulated, 1, "the corrupt entry re-simulates");
    assert_eq!(second.cached, specs.len() - 1);
    assert!(
        first.report.render() == second.report.render(),
        "recovery must not change the report"
    );
}
