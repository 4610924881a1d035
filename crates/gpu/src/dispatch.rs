//! Work-group dispatch: static kernel-wide partitioning across chiplets.
//!
//! The paper's configurations use *static, kernel-wide WG partitioning*
//! (§IV-C1): a kernel's WGs are divided into contiguous groups, one group
//! per chiplet, and each chiplet's local CP round-robins its group across
//! local CUs (not modeled: chiplet time is per-chiplet, not per-CU). A
//! kernel may be bound to a subset of chiplets (multi-stream
//! workloads bind stream *i* to chiplet(s) *j* via `hipSetDevice`).

use crate::kernel::KernelSpec;
use chiplet_mem::addr::ChipletId;

/// The placement of one kernel's WGs: which chiplets participate and how
/// many WGs each receives. A chiplet's *slot* (its position in the plan)
/// determines which array slice its WGs cover under partitioned patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchPlan {
    assignments: Vec<(ChipletId, u32)>,
}

impl DispatchPlan {
    /// Creates a plan from explicit per-chiplet WG counts.
    ///
    /// # Panics
    ///
    /// Panics if empty or if any chiplet appears twice.
    pub fn new(assignments: Vec<(ChipletId, u32)>) -> Self {
        assert!(!assignments.is_empty(), "plan must cover >= 1 chiplet");
        for (i, (c, _)) in assignments.iter().enumerate() {
            assert!(
                !assignments[..i].iter().any(|(d, _)| d == c),
                "chiplet {c} assigned twice"
            );
        }
        DispatchPlan { assignments }
    }

    /// Chiplets participating, in slot order.
    pub fn chiplets(&self) -> impl Iterator<Item = ChipletId> + '_ {
        self.assignments.iter().map(|&(c, _)| c)
    }

    /// Number of participating chiplets.
    pub fn width(&self) -> usize {
        self.assignments.len()
    }

    /// The slot (partition index) of `chiplet`, if it participates.
    pub fn slot_of(&self, chiplet: ChipletId) -> Option<usize> {
        self.assignments.iter().position(|&(c, _)| c == chiplet)
    }
}

/// The static kernel-wide WG partitioning scheduler (paper §IV-C1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticPartitionScheduler;

impl StaticPartitionScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        StaticPartitionScheduler
    }

    /// Partitions `kernel`'s WGs as evenly as possible over `chiplets`,
    /// earlier chiplets receiving the remainder. Chiplets that would get
    /// zero WGs (more chiplets than WGs) are dropped from the plan.
    ///
    /// # Example
    ///
    /// ```
    /// use chiplet_gpu::dispatch::StaticPartitionScheduler;
    /// use chiplet_gpu::kernel::{KernelSpec, AccessPattern, TouchKind};
    /// use chiplet_mem::addr::ChipletId;
    /// use chiplet_mem::array::ArrayId;
    ///
    /// let k = KernelSpec::builder("k")
    ///     .wg_count(3)
    ///     .array(ArrayId::new(0), TouchKind::Load, AccessPattern::Partitioned)
    ///     .build();
    /// let chiplets: Vec<_> = ChipletId::all(4).collect();
    /// let plan = StaticPartitionScheduler::new().plan(&k, &chiplets);
    /// assert_eq!(plan.width(), 3); // 1,1,1 WGs; chiplet 3 gets none
    /// assert_eq!(plan.slot_of(ChipletId::new(3)), None);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `chiplets` is empty.
    pub fn plan(&self, kernel: &KernelSpec, chiplets: &[ChipletId]) -> DispatchPlan {
        assert!(!chiplets.is_empty(), "must schedule on >= 1 chiplet");
        let n = chiplets.len() as u32;
        let wgs = kernel.wg_count();
        let base = wgs / n;
        let extra = wgs % n;
        let assignments: Vec<(ChipletId, u32)> = chiplets
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, base + u32::from((i as u32) < extra)))
            .filter(|&(_, w)| w > 0)
            .collect();
        DispatchPlan::new(assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AccessPattern, TouchKind};
    use chiplet_mem::array::ArrayId;

    fn kernel(wgs: u32) -> KernelSpec {
        KernelSpec::builder("k")
            .wg_count(wgs)
            .array(ArrayId::new(0), TouchKind::Load, AccessPattern::Partitioned)
            .build()
    }

    fn chiplets(n: usize) -> Vec<ChipletId> {
        ChipletId::all(n).collect()
    }

    /// WGs the plan assigns to `chiplet` (0 if not participating).
    fn wgs_on(plan: &DispatchPlan, chiplet: ChipletId) -> u32 {
        plan.assignments
            .iter()
            .find(|&&(c, _)| c == chiplet)
            .map_or(0, |&(_, w)| w)
    }

    fn wgs_total(plan: &DispatchPlan) -> u32 {
        plan.assignments.iter().map(|&(_, w)| w).sum()
    }

    #[test]
    fn even_partition() {
        let plan = StaticPartitionScheduler::new().plan(&kernel(8), &chiplets(4));
        for c in ChipletId::all(4) {
            assert_eq!(wgs_on(&plan, c), 2);
        }
        assert_eq!(wgs_total(&plan), 8);
    }

    #[test]
    fn remainder_goes_to_early_chiplets() {
        let plan = StaticPartitionScheduler::new().plan(&kernel(10), &chiplets(4));
        assert_eq!(wgs_on(&plan, ChipletId::new(0)), 3);
        assert_eq!(wgs_on(&plan, ChipletId::new(1)), 3);
        assert_eq!(wgs_on(&plan, ChipletId::new(2)), 2);
        assert_eq!(wgs_on(&plan, ChipletId::new(3)), 2);
    }

    #[test]
    fn tiny_kernels_drop_idle_chiplets() {
        let plan = StaticPartitionScheduler::new().plan(&kernel(2), &chiplets(4));
        assert_eq!(plan.width(), 2);
        assert_eq!(wgs_total(&plan), 2);
        assert_eq!(wgs_on(&plan, ChipletId::new(3)), 0);
    }

    #[test]
    fn slots_follow_plan_order() {
        let plan = DispatchPlan::new(vec![(ChipletId::new(2), 5), (ChipletId::new(0), 5)]);
        assert_eq!(plan.slot_of(ChipletId::new(2)), Some(0));
        assert_eq!(plan.slot_of(ChipletId::new(0)), Some(1));
        assert_eq!(plan.slot_of(ChipletId::new(1)), None);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn duplicate_chiplet_rejected() {
        let _ = DispatchPlan::new(vec![(ChipletId::new(0), 1), (ChipletId::new(0), 2)]);
    }
}
