//! Cell *definition*: the independent unit of sweep-shaped work, kept
//! apart from every scheduler so cells can be built — and validated —
//! wherever they arrive from.
//!
//! A [`Cell`] is a (workload, protocol, chiplet-count) triple under the
//! paper's Table 1 configuration. Cells come from the enumerated grid
//! (`cpelide_bench::campaign::cells`), from the `studies` binary's
//! off-grid chiplet counts, and from the campaign daemon
//! (`cpelide-bench --bin serve`), which receives them one request at a
//! time from untrusted clients, so definition and *scheduling* are
//! deliberately separate layers:
//!
//! - **Definition** (this module): what a cell is, how to build one from
//!   externally-supplied strings ([`Cell::validated`]), and how to run it
//!   to completion on the current thread ([`Cell::run`]).
//! - **Scheduling** (the bench campaign runner, the daemon's fair
//!   scheduler): when and where a cell executes. Cells are `Send + Sync`
//!   and each run builds its own simulator, so any scheduler can execute
//!   them on any worker without sharing simulated state.

use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::metrics::RunMetrics;
use chiplet_coherence::ProtocolKind;
use chiplet_workloads::Workload;

/// Chiplet counts accepted by [`Cell::validated`]: the Table I memory
/// geometry (`MemConfig::table1`) is defined for 1..=16 chiplets.
pub const CHIPLET_RANGE: std::ops::RangeInclusive<usize> = 1..=16;

/// Runs one (workload, protocol, chiplets) cell.
pub fn run_one(workload: &Workload, protocol: ProtocolKind, chiplets: usize) -> RunMetrics {
    Simulator::new(SimConfig::table1(chiplets, protocol)).run(workload)
}

/// One independent unit of the evaluation sweep: a (workload, protocol,
/// chiplet-count) triple under the paper's Table 1 configuration. Cells
/// are `Send + Sync`, so any scheduler can execute them on any worker;
/// each run builds its own simulator, so no simulated state crosses
/// threads.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The workload to run.
    pub workload: Workload,
    /// The coherence protocol under test.
    pub protocol: ProtocolKind,
    /// Number of chiplets.
    pub chiplets: usize,
}

impl Cell {
    /// A cell under the Table 1 configuration.
    pub fn new(workload: Workload, protocol: ProtocolKind, chiplets: usize) -> Self {
        Cell {
            workload,
            protocol,
            chiplets,
        }
    }

    /// Builds a cell from externally-supplied strings, validating every
    /// axis: the workload must be in the registered table
    /// ([`chiplet_workloads::lookup`]), the protocol label must parse
    /// ([`ProtocolKind::from_label`], case-insensitive), and the chiplet
    /// count must lie in [`CHIPLET_RANGE`]. This is the request-validation
    /// seam the campaign daemon funnels every sweep cell through.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending axis and, for
    /// workloads/protocols, the registered alternatives.
    pub fn validated(workload: &str, protocol: &str, chiplets: usize) -> Result<Cell, String> {
        let workload = chiplet_workloads::lookup(workload).map_err(|e| e.to_string())?;
        let protocol = ProtocolKind::from_label(protocol).ok_or_else(|| {
            let known: Vec<&str> = ProtocolKind::ALL.iter().map(|k| k.label()).collect();
            format!(
                "unknown protocol {protocol:?} (known: {})",
                known.join(", ")
            )
        })?;
        if !CHIPLET_RANGE.contains(&chiplets) {
            return Err(format!(
                "chiplet count {chiplets} outside the supported range \
                 {}..={}",
                CHIPLET_RANGE.start(),
                CHIPLET_RANGE.end()
            ));
        }
        Ok(Cell::new(workload, protocol, chiplets))
    }

    /// Runs the cell to completion on the current thread (the `Send`-safe
    /// entry point every scheduler dispatches).
    pub fn run(&self) -> RunMetrics {
        run_one(&self.workload, self.protocol, self.chiplets)
    }
}

// Cells travel to pool workers and their metrics travel back; lock that
// in at compile time so a future !Send field fails here, not in a bin.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Cell>();
    assert_send_sync::<RunMetrics>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validated_accepts_registered_axes_case_insensitively() {
        let cell = Cell::validated("square", "cpelide", 4).expect("valid cell");
        assert_eq!(cell.workload.name(), "square");
        assert_eq!(cell.protocol, ProtocolKind::CpElide);
        assert_eq!(cell.chiplets, 4);
        assert!(Cell::validated("SQUARE", "Baseline", 2).is_ok());
        assert!(Cell::validated("btree", "HMG-WB", 7).is_ok());
        assert!(Cell::validated("square", "Monolithic", 4).is_ok());
    }

    #[test]
    fn validated_rejects_each_bad_axis_with_a_named_error() {
        let e = Cell::validated("no-such-workload", "Baseline", 4).expect_err("workload");
        assert!(e.contains("no-such-workload"), "{e}");
        let e = Cell::validated("square", "MESI", 4).expect_err("protocol");
        assert!(e.contains("MESI") && e.contains("CPElide"), "{e}");
        let e = Cell::validated("square", "Baseline", 0).expect_err("low count");
        assert!(e.contains('0'), "{e}");
        let e = Cell::validated("square", "Baseline", 17).expect_err("high count");
        assert!(e.contains("17"), "{e}");
    }

    #[test]
    fn validated_cell_runs_like_a_directly_built_one() {
        let via_strings = Cell::validated("square", "Baseline", 2).expect("valid");
        let direct = Cell::new(
            chiplet_workloads::lookup("square").unwrap_or_else(|e| panic!("{e}")),
            ProtocolKind::Baseline,
            2,
        );
        let a = via_strings.run();
        let b = direct.run();
        assert_eq!(a.to_json().render(), b.to_json().render());
    }
}
