//! The redesigned global command processor housing the Chiplet Coherence
//! Table (paper Figures 4b, 5 and 7).
//!
//! At each kernel launch the global CP checks the table once and generates
//! the necessary per-chiplet acquires/releases (§III-C "Launching
//! Kernels"). They are returned as a [`LaunchDecision`]; the simulator
//! performs them on the memory system and charges their cost, including the
//! Figure 7 request/ack/enable exchange with the local CPs, through
//! `chiplet_sim::config::SyncCostModel`.

use crate::api::KernelLaunchInfo;
use crate::table::{ChipletCoherenceTable, SyncActions, TableStats};
use crate::{CPELIDE_PROCESS_LATENCY_US, CP_BASE_LATENCY_US};
use chiplet_mem::addr::ChipletId;

/// What the global CP decided for one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchDecision {
    /// Chiplets whose L2 must be flushed+invalidated before launch.
    pub acquires: Vec<ChipletId>,
    /// Chiplets whose L2 dirty data must be written back before launch.
    pub releases: Vec<ChipletId>,
    /// CP processing time in microseconds for this launch (2 µs base +
    /// 6 µs CPElide table work). Hidden behind the previous kernel's
    /// execution for all but the first kernel (§IV-B).
    pub cp_latency_us: f64,
}

impl LaunchDecision {
    /// True if no synchronization is needed (the fully elided fast path).
    pub fn is_elided(&self) -> bool {
        self.acquires.is_empty() && self.releases.is_empty()
    }
}

/// The global command processor: packet processing, table lookups, and
/// synchronization-request generation.
#[derive(Debug, Clone)]
pub struct GlobalCp {
    table: ChipletCoherenceTable,
}

impl GlobalCp {
    /// Creates a global CP for an `n`-chiplet GPU.
    pub fn new(num_chiplets: usize) -> Self {
        Self::with_table_capacity(num_chiplets, crate::TABLE_CAPACITY)
    }

    /// Creates a global CP with a custom Chiplet Coherence Table capacity
    /// (CPs are programmable; paper §III-A). Used by the table-sizing
    /// sensitivity study.
    pub fn with_table_capacity(num_chiplets: usize, capacity: usize) -> Self {
        GlobalCp {
            table: ChipletCoherenceTable::with_capacity(num_chiplets, capacity),
        }
    }

    /// Immutable view of the coherence table.
    pub fn table(&self) -> &ChipletCoherenceTable {
        &self.table
    }

    /// Cumulative table statistics.
    pub fn table_stats(&self) -> TableStats {
        self.table.stats()
    }

    /// Attaches a transition auditor to the coherence table (see
    /// [`ChipletCoherenceTable::enable_audit`]).
    pub fn enable_audit(&mut self, keep_log: bool) {
        self.table.enable_audit(keep_log);
    }

    /// The table's transition auditor, if auditing is enabled.
    pub fn auditor(&self) -> Option<&chiplet_obs::TransitionAuditor> {
        self.table.auditor()
    }

    /// Processes one kernel launch: the table's sync generation plus the
    /// CP processing latency.
    pub fn launch_kernel(&mut self, info: &KernelLaunchInfo) -> LaunchDecision {
        let SyncActions { acquires, releases } = self.table.prepare_launch(info);
        LaunchDecision {
            acquires,
            releases,
            cp_latency_us: CP_BASE_LATENCY_US + CPELIDE_PROCESS_LATENCY_US,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_mem::array::AccessMode;

    fn c(i: u8) -> ChipletId {
        ChipletId::new(i)
    }

    #[test]
    fn disjoint_partitions_launch_elided() {
        let mut cp = GlobalCp::new(4);
        let info = KernelLaunchInfo::builder(0, ChipletId::all(4))
            .structure(
                0,
                400,
                AccessMode::ReadWrite,
                [Some(0..100), Some(100..200), Some(200..300), Some(300..400)],
            )
            .build();
        let d = cp.launch_kernel(&info);
        assert!(d.is_elided());
    }

    #[test]
    fn consumer_on_another_chiplet_releases_the_producer() {
        let mut cp = GlobalCp::new(2);
        let w0 = KernelLaunchInfo::builder(0, [c(0)])
            .structure(0, 100, AccessMode::ReadWrite, [Some(0..100), None])
            .build();
        cp.launch_kernel(&w0);
        let r1 = KernelLaunchInfo::builder(1, [c(1)])
            .structure(0, 100, AccessMode::ReadOnly, [None, Some(0..100)])
            .build();
        let d = cp.launch_kernel(&r1);
        assert_eq!(d.releases, vec![c(0)]);
    }

    #[test]
    fn cp_latency_matches_paper_budget() {
        let mut cp = GlobalCp::new(2);
        let info = KernelLaunchInfo::builder(0, [c(0)])
            .structure(0, 10, AccessMode::ReadOnly, [Some(0..10), None])
            .build();
        let d = cp.launch_kernel(&info);
        assert!((d.cp_latency_us - 8.0).abs() < 1e-12);
    }
}
