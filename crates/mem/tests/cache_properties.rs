//! Property-based tests for the cache and directory substrates, run on
//! the in-repo `chiplet-harness` property runner (≥256 seeded cases per
//! property; override with `CHIPLET_PROP_CASES`).

use chiplet_harness::prop::{check, vec_of, PropConfig};
use chiplet_harness::rng::Xoshiro256;
use chiplet_harness::{prop_assert, prop_assert_eq};
use chiplet_mem::addr::{ChipletId, LineAddr};
use chiplet_mem::cache::{CacheCore, CacheGeometry, SetAssocCache, WritePolicy};
use chiplet_mem::directory::CoarseDirectory;

#[derive(Debug, Clone)]
enum Op {
    Read(u64),
    Write(u64),
    FlushAll,
    InvalidateAll,
    InvalidateLine(u64),
    FlushLine(u64),
}

/// Weighted op generator mirroring real access mixes: reads and writes
/// dominate; bulk and line ops are occasional.
fn gen_op(rng: &mut Xoshiro256, max_line: u64) -> Op {
    match rng.next_below(12) {
        0..=3 => Op::Read(rng.next_below(max_line)),
        4..=7 => Op::Write(rng.next_below(max_line)),
        8 => Op::FlushAll,
        9 => Op::InvalidateAll,
        10 => Op::InvalidateLine(rng.next_below(max_line)),
        _ => Op::FlushLine(rng.next_below(max_line)),
    }
}

fn gen_ops(rng: &mut Xoshiro256, size: usize, max_line: u64, max_len: usize) -> Vec<Op> {
    // Scale sequence length with the shrinkable size budget.
    let cap = (max_len * size.max(1) / 64).max(1) + 1;
    vec_of(rng, size, 1..cap + 1, |r| gen_op(r, max_line))
}

fn apply(c: &mut SetAssocCache, op: &Op) {
    match *op {
        Op::Read(l) => {
            c.read(LineAddr::new(l));
        }
        Op::Write(l) => {
            c.write(LineAddr::new(l));
        }
        Op::FlushAll => {
            c.flush_dirty();
        }
        Op::InvalidateAll => {
            c.invalidate_all();
        }
        Op::InvalidateLine(l) => {
            c.invalidate_line(LineAddr::new(l));
        }
        Op::FlushLine(l) => {
            c.flush_line(LineAddr::new(l));
        }
    }
}

/// Valid and dirty line counts stay within capacity, and dirty <= valid.
#[test]
fn counts_stay_consistent() {
    check(
        "counts_stay_consistent",
        &PropConfig::default(),
        |rng, size| gen_ops(rng, size, 256, 400),
        |ops| {
            let geom = CacheGeometry::new(4096, 64, 4).unwrap(); // 64 lines
            let mut c = SetAssocCache::new(geom, WritePolicy::WriteBack);
            for op in ops {
                apply(&mut c, op);
                prop_assert!(c.valid_lines() <= geom.total_lines());
                prop_assert!(c.dirty_lines() <= c.valid_lines());
            }
            Ok(())
        },
    );
}

/// After flush_dirty there are zero dirty lines; after invalidate_all
/// there are zero valid lines.
#[test]
fn bulk_ops_reach_clean_states() {
    check(
        "bulk_ops_reach_clean_states",
        &PropConfig::default(),
        |rng, size| gen_ops(rng, size, 128, 200),
        |ops| {
            let geom = CacheGeometry::new(4096, 64, 4).unwrap();
            let mut c = SetAssocCache::new(geom, WritePolicy::WriteBack);
            for op in ops {
                apply(&mut c, op);
            }
            c.flush_dirty();
            prop_assert_eq!(c.dirty_lines(), 0);
            c.invalidate_all();
            prop_assert_eq!(c.valid_lines(), 0);
            prop_assert_eq!(c.dirty_lines(), 0);
            Ok(())
        },
    );
}

/// A write-through cache never holds a dirty line.
#[test]
fn write_through_is_never_dirty() {
    check(
        "write_through_is_never_dirty",
        &PropConfig::default(),
        |rng, size| gen_ops(rng, size, 128, 200),
        |ops| {
            let geom = CacheGeometry::new(4096, 64, 4).unwrap();
            let mut c = SetAssocCache::new(geom, WritePolicy::WriteThrough);
            for op in ops {
                apply(&mut c, op);
                prop_assert_eq!(c.dirty_lines(), 0);
            }
            Ok(())
        },
    );
}

/// An access immediately after a miss hits (tiny temporal locality works).
#[test]
fn re_access_hits() {
    check(
        "re_access_hits",
        &PropConfig::default(),
        |rng, _| rng.next_below(10_000),
        |&line| {
            let geom = CacheGeometry::new(8192, 64, 8).unwrap();
            let mut c = SetAssocCache::new(geom, WritePolicy::WriteBack);
            c.read(LineAddr::new(line));
            prop_assert!(c.read(LineAddr::new(line)).hit);
            Ok(())
        },
    );
}

/// probe() agrees with read().hit across arbitrary line streams.
#[test]
fn probe_agrees_with_access() {
    check(
        "probe_agrees_with_access",
        &PropConfig::default(),
        |rng, size| vec_of(rng, size, 1..100, |r| r.next_below(64)),
        |lines| {
            let geom = CacheGeometry::new(4096, 64, 4).unwrap();
            let mut c = SetAssocCache::new(geom, WritePolicy::WriteBack);
            for &l in lines {
                let present = c.probe(LineAddr::new(l));
                let hit = c.read(LineAddr::new(l)).hit;
                prop_assert_eq!(present, hit);
            }
            Ok(())
        },
    );
}

/// Directory live entries never exceed capacity, and every eviction
/// reports a non-empty sharer set.
#[test]
fn directory_capacity_bounded() {
    check(
        "directory_capacity_bounded",
        &PropConfig::default(),
        |rng, size| {
            vec_of(rng, size, 1..500, |r| {
                (r.next_below(100_000), r.next_below(4) as u8)
            })
        },
        |accesses| {
            let mut d = CoarseDirectory::new(64, 8, 4);
            for &(line, chiplet) in accesses {
                let up = d.record_sharer(LineAddr::new(line), ChipletId::new(chiplet));
                prop_assert!(d.live_entries() <= 64);
                if let Some(ev) = up.evicted {
                    prop_assert!(!ev.sharers.is_empty());
                    prop_assert_eq!(ev.lines, 4);
                }
            }
            Ok(())
        },
    );
}

/// Directory sharers reflect exactly the recorded, unremoved chiplets
/// while no eviction has occurred.
#[test]
fn directory_tracks_sharers() {
    check(
        "directory_tracks_sharers",
        &PropConfig::default(),
        |rng, size| vec_of(rng, size, 1..8, |r| r.next_below(4) as u8),
        |chiplets| {
            let mut d = CoarseDirectory::new(1024, 8, 4);
            for &c in chiplets {
                d.record_sharer(LineAddr::new(0), ChipletId::new(c));
            }
            let s = d.sharers_of(LineAddr::new(0));
            for c in 0u8..4 {
                prop_assert_eq!(s.contains(ChipletId::new(c)), chiplets.contains(&c));
            }
            Ok(())
        },
    );
}
