//! Dynamic partial-order reduction (DPOR) over the CCT action alphabet —
//! the engine that takes the census beyond exhaustive-BFS reach (GPUMC's
//! approach from PAPERS.md, adapted to kernel-boundary granularity).
//!
//! # Independence, static + dynamic
//!
//! Two launches commute exactly when reordering them cannot change any
//! table state or sync decision:
//!
//! - **Static half:** they label disjoint array sets
//!   ([`crate::alphabet::statically_independent`]) — same-array launches
//!   read and rewrite the same row's states, tracked ranges, and home
//!   claims — *or* both are read-only launches, which touch per-chiplet
//!   columns commutatively (`LocalRead`/`RemoteRead` never create or
//!   clear `Dirty`/`Stale`, and tracked-range updates are unions).
//! - **Dynamic half:** *both* must be fully elided at the state where
//!   they meet. A generated acquire or release is a whole-L2 operation —
//!   the table applies `CacheFlushed`/`CacheInvalidated` to **every**
//!   row, so a launch that synchronizes rewrites other arrays' states
//!   too and commutes with nothing. The paper's elision is precisely
//!   what makes kernel boundaries commute: the checker prunes exactly
//!   where CPElide elides. Same-array read pairs need one further
//!   dynamic condition: neither may claim a new first-touch home —
//!   first-touch assignment is the one order-sensitive effect reads
//!   have, so read/read pairs commute only once every page they touch is
//!   already homed.
//!
//! For two elided launches on disjoint arrays the commutation argument is
//! exact: each touches only its own arrays' rows and home records (no
//! whole-cache side effects), so either order produces identical rows,
//! home logs, and (empty) sync sets — and neither can flip the other's
//! elision, because each sync decision reads only its own arrays' rows.
//! For two elided claim-free read launches it is exact as well: each
//! updates its scheduled chiplets' columns by state transitions that fix
//! `Valid`/`Stale`/`NotPresent` pointwise and by range unions, both of
//! which commute, and neither can flip the other's elision or claim-
//! freedom (reads create no `Dirty`/`Stale`, and home claims are
//! monotone). Sleeping actions therefore *stay* independent along the
//! steps that keep them asleep, which is the induction the sleep sets
//! need.
//!
//! # Exploration
//!
//! Depth-first search with **sleep sets** over the full enabled set
//! (every action is enabled at every state): after exploring sibling `a`
//! at a node, every later sibling's subtree carries `a` in its sleep set
//! while independence holds, so the commuted interleaving is never
//! re-executed. Sleep sets with full expansion preserve *every reachable
//! state* (Godefroid's classical result — only redundant transitions are
//! cut, never states), which the differential suite checks against BFS
//! verbatim: identical visited-state sets, strictly fewer executed
//! transitions.
//!
//! Because the CCT's state graph converges heavily (many non-equivalent
//! paths reach the same table), the search also caches states, using
//! Godefroid's state-matching refinement: each state remembers the
//! *residual* sleep set — the actions never yet executed from it. A
//! revisit arriving with sleep set `T` re-expands only `residual ∖ T`
//! (the actions this visit needs that no earlier visit ran) and shrinks
//! the residual to `residual ∩ T`; when `residual ⊆ T` the node is
//! pruned outright. Every (state, action) pair is therefore executed at
//! most once across all visits, so DPOR never does more work than BFS's
//! one-expansion-per-state sweep — it only subtracts the pairs left
//! asleep forever. Pruned work is tallied as `sleep_skips` (actions
//! skipped at a node) and `node_prunes` (whole revisits subsumed).
//!
//! Every transition the engine *does* execute goes through the exact
//! same `model::step` as BFS — same invariants, same Figure 6
//! replay — so the engines can only differ in which interleavings they
//! walk, never in how a walked edge is judged.

use crate::alphabet::{build, statically_independent, AlphabetSpec};
use crate::model::{
    fingerprint, step, Census, Exploration, Explorer, Invariant, Mutation, STATE_LIMIT,
};
use cpelide::table::ChipletCoherenceTable;
use std::collections::{BTreeMap, BTreeSet};

/// Depth bound of the flagship N = 6 × 3-array racy census run, in
/// kernel boundaries from the empty table. Sized by measurement: depth 6
/// reaches ~2.6M states in about two minutes of release CI; depth 7 is
/// ~12M states and over twenty minutes.
pub const FLAGSHIP_DEPTH: usize = 6;

/// State cap of the flagship run (the 3-array state lattice is a product
/// of per-array lattices, far past the 2-array [`STATE_LIMIT`]).
pub const FLAGSHIP_STATE_CAP: usize = 20_000_000;

/// The DPOR engine.
#[derive(Debug, Clone)]
pub struct Dpor {
    /// Visited-state cap, mirroring [`crate::model::Bfs::state_cap`].
    pub state_cap: usize,
    /// Depth bound in kernel boundaries (0 = unbounded: run to the
    /// natural closure of the reachable space, like BFS).
    pub depth_cap: usize,
    /// Whether hitting `state_cap` is a violation (census runs) or just
    /// an early stop (fast partial explorations in unit tests).
    pub overflow_is_violation: bool,
    /// Checker self-test seam; `None` for every census run.
    pub mutation: Option<Mutation>,
}

impl Dpor {
    /// Unbounded exploration to closure — the configuration the
    /// differential suite compares against exhaustive BFS.
    pub fn exhaustive() -> Self {
        Dpor {
            state_cap: STATE_LIMIT,
            depth_cap: 0,
            overflow_is_violation: true,
            mutation: None,
        }
    }

    /// The N = 6 chiplet × 3-array racy flagship configuration: beyond
    /// BFS reach, bounded at [`FLAGSHIP_DEPTH`] kernel boundaries so the
    /// CI census regenerates in minutes. Within the bound the coverage
    /// is complete: every inequivalent interleaving of up to that many
    /// boundaries is explored.
    pub fn flagship() -> Self {
        Dpor {
            state_cap: FLAGSHIP_STATE_CAP,
            depth_cap: FLAGSHIP_DEPTH,
            overflow_is_violation: true,
            mutation: None,
        }
    }

    /// A deliberately partial but fast exploration (unit tests).
    pub fn capped(state_cap: usize) -> Self {
        Dpor {
            state_cap,
            depth_cap: 0,
            overflow_is_violation: false,
            mutation: None,
        }
    }
}

/// Total first-touch home lines claimed so far — strictly monotone over
/// any transition, so an edge claims a new home iff this grows. Used to
/// decide the read/read dynamic-independence condition.
fn claimed_lines(t: &ChipletCoherenceTable) -> u64 {
    t.home_log_snapshot()
        .iter()
        .flat_map(|(_, homes)| homes.iter())
        .filter_map(|h| h.as_ref().map(|r| r.end - r.start))
        .sum()
}

/// One DFS node awaiting expansion of its remaining actions.
struct Frame {
    table: ChipletCoherenceTable,
    /// Sleep mask of this visit: the inheritance base for children. Bit
    /// `i` set means action `i`'s interleaving is already covered by an
    /// earlier sibling order somewhere up the path.
    sleep: u64,
    /// Execution filter: bit `i` set means action `i` is not run at this
    /// visit — either asleep (`sleep ⊆ skip`) or already executed from
    /// this same state by an earlier visit (state-matching refinement).
    skip: u64,
    /// Sub-mask of `sleep`: sleepers known to be *pure reads* here —
    /// read-only, elided, and claiming no new homes (all monotone along
    /// the path, so inherited marks stay valid).
    sleep_pure: u64,
    /// Next action index to try.
    next: usize,
    /// Mask of already-expanded sibling actions that were fully elided —
    /// the candidates for later siblings' sleep sets.
    executed_elided: u64,
    /// Sub-mask of `executed_elided` that executed as pure reads.
    executed_pure: u64,
    /// [`claimed_lines`] of `table`, for claim-freedom checks on edges.
    claimed: u64,
    depth: usize,
}

/// Mutable search state threaded through the DFS.
struct Search {
    census: Census,
    visited: BTreeSet<u128>,
    /// Per-state `(residual sleep mask, shallowest expansion depth)`.
    /// The residual holds the actions never yet executed from the state;
    /// revisits run only their share of it and shrink it. The depth
    /// matters only under a depth cap: a revisit with *more* remaining
    /// budget than any prior visit (smaller depth) cannot trust the
    /// truncated earlier subtrees and re-runs everything outside its own
    /// sleep set. Unbounded runs record depth 0, where subtrees are
    /// depth-free closures and the residual alone decides.
    explored: BTreeMap<u128, (u64, usize)>,
    stack: Vec<Frame>,
}

impl Dpor {
    /// Opens a node for expansion unless it is pruned (its whole residual
    /// is asleep at this visit, with at least as much remaining depth
    /// already spent on it) or sits on the depth-cap frontier. Either way
    /// the state itself is counted as visited.
    fn open(
        &self,
        s: &mut Search,
        table: ChipletCoherenceTable,
        sleep: u64,
        sleep_pure: u64,
        depth: usize,
    ) {
        let fp = fingerprint(&table);
        if s.visited.insert(fp) {
            s.census.states += 1;
            s.census.max_depth = s.census.max_depth.max(depth);
        }
        if self.depth_cap > 0 && depth >= self.depth_cap {
            return; // frontier: state counted, not expanded
        }
        let d = if self.depth_cap == 0 { 0 } else { depth };
        let skip = match s.explored.entry(fp) {
            std::collections::btree_map::Entry::Vacant(e) => {
                // First visit: run everything outside the sleep set; the
                // residual is exactly the sleep set.
                e.insert((sleep, d));
                sleep
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let (residual, rd) = *e.get();
                if d < rd {
                    // More remaining budget than any earlier visit: the
                    // truncated earlier subtrees prove nothing at this
                    // depth, so re-run everything outside our own sleep.
                    e.insert((residual & sleep, d));
                    sleep
                } else {
                    // No more budget than before: only the residual share
                    // this visit un-sleeps still needs running.
                    let needed = residual & !sleep;
                    if needed == 0 {
                        s.census.node_prunes += 1;
                        return;
                    }
                    e.insert((residual & sleep, rd));
                    !needed
                }
            }
        };
        s.census.max_live_entries = s.census.max_live_entries.max(table.live_entries());
        let claimed = claimed_lines(&table);
        s.stack.push(Frame {
            table,
            sleep,
            skip,
            sleep_pure,
            next: 0,
            executed_elided: 0,
            executed_pure: 0,
            claimed,
            depth,
        });
    }
}

impl Explorer for Dpor {
    fn engine(&self) -> &'static str {
        "dpor"
    }

    fn explore(&self, spec: &AlphabetSpec) -> Exploration {
        let n = spec.chiplets;
        let actions = build(spec);
        // Static-independence mask per action: bit j set when action j
        // labels a disjoint array set.
        let indep: Vec<u64> = actions
            .iter()
            .map(|a| {
                actions
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| statically_independent(a, b))
                    .fold(0u64, |m, (j, _)| m | 1 << j)
            })
            .collect();
        // Read-only launches (no structure writes) — candidates for the
        // same-array read/read independence clause.
        let read_mask: u64 = actions
            .iter()
            .enumerate()
            .filter(|(_, a)| a.structures.iter().all(|(_, m, _)| !m.writes()))
            .fold(0u64, |m, (i, _)| m | 1 << i);
        let mut s = Search {
            census: Census::new(self.engine(), spec, actions.len(), self.depth_cap),
            visited: BTreeSet::new(),
            explored: BTreeMap::new(),
            stack: Vec::new(),
        };
        self.open(&mut s, ChipletCoherenceTable::new(n), 0, 0, 0);

        while let Some(frame) = s.stack.last_mut() {
            let i = frame.next;
            if i >= actions.len() {
                s.stack.pop();
                continue;
            }
            frame.next += 1;
            if frame.skip >> i & 1 == 1 {
                s.census.sleep_skips += 1;
                continue;
            }
            let depth = frame.depth;
            // Sleep candidates for the child: inherited sleepers plus the
            // elided siblings expanded before `i` at this node, with their
            // pure-read sub-masks.
            let candidates = frame.sleep | frame.executed_elided;
            let pure = frame.sleep_pure | frame.executed_pure;
            let claimed_before = frame.claimed;
            let Some((next_table, sync)) =
                step(&frame.table, &actions[i], n, self.mutation, &mut s.census)
            else {
                continue; // panic recorded as a violation; no successor
            };
            // The child sleeps on every candidate that stays independent
            // of edge `i`: statically disjoint with both edges elided — a
            // sync rewrites every array's rows, so it wakes (and is woken
            // by) everyone — or both pure reads (read-only, elided,
            // claiming no new first-touch homes).
            let elided = sync.is_empty();
            let i_pure =
                elided && read_mask >> i & 1 == 1 && claimed_lines(&next_table) == claimed_before;
            let (child_sleep, child_pure) = if elided {
                frame.executed_elided |= 1 << i;
                if i_pure {
                    frame.executed_pure |= 1 << i;
                }
                let kept = (candidates & indep[i]) | if i_pure { candidates & pure } else { 0 };
                (kept, kept & pure)
            } else {
                (0, 0)
            };
            if s.census.states >= self.state_cap {
                if self.overflow_is_violation {
                    s.census.violation(
                        Invariant::Finiteness,
                        format!(
                            "[n={n}] state space exceeded the {}-state cap; \
                             the finiteness argument is broken",
                            self.state_cap
                        ),
                    );
                }
                break;
            }
            self.open(&mut s, next_table, child_sleep, child_pure, depth + 1);
        }
        Exploration {
            census: s.census,
            visited: s.visited,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpor_prefix_is_clean_and_prunes() {
        let x = Dpor::capped(2_000).explore(&AlphabetSpec::race_free(2, 2));
        let c = x.census;
        assert_eq!(c.violation_count, 0, "{:?}", c.violations);
        assert!(c.states > 1_000, "suspiciously small space: {}", c.states);
        assert!(
            c.sleep_skips + c.node_prunes > 0,
            "DPOR never pruned anything"
        );
        assert_eq!(x.visited.len(), c.states, "census counts visited keys");
    }

    #[test]
    fn depth_cap_bounds_the_frontier() {
        let shallow = Dpor {
            depth_cap: 2,
            ..Dpor::exhaustive()
        }
        .explore(&AlphabetSpec::race_free(2, 2));
        let deeper = Dpor {
            depth_cap: 3,
            ..Dpor::exhaustive()
        }
        .explore(&AlphabetSpec::race_free(2, 2));
        assert_eq!(shallow.census.violation_count, 0);
        assert!(shallow.census.max_depth <= 2);
        assert!(
            deeper.census.states > shallow.census.states,
            "depth 3 must reach strictly more states than depth 2"
        );
        assert!(
            shallow.visited.is_subset(&deeper.visited),
            "deepening must only add states"
        );
    }

    #[test]
    fn racy_flagship_shape_smoke() {
        // The real 6×3 flagship runs in CI; here a shallow cut of the
        // same alphabet proves the racy actions are explored cleanly.
        let d = Dpor {
            depth_cap: 2,
            ..Dpor::exhaustive()
        };
        let c = d.explore(&AlphabetSpec::racy(3, 2)).census;
        assert_eq!(c.violation_count, 0, "{:?}", c.violations);
        assert!(c.racy);
        assert!(c.elided_transitions > 0);
    }
}
