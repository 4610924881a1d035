//! The per-cell phase profiler: attributes a run's simulated cycles (and
//! operation counts) to the engine's pipeline phases, so the campaign can
//! answer "where does a cell's time go?" without re-instrumenting the
//! engine.
//!
//! This is *simulated-time* accounting — pure cycle/op counters folded in
//! as the engine already computes them. No host clocks are read here (the
//! crate sits on the sim path, where `chiplet-check`'s `wall-clock` rule
//! forbids them); host-side wall-clock attribution lives in the campaign's
//! fleet telemetry instead.

/// One engine pipeline phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPhase {
    /// Kernel launch overhead: packet processing, WG dispatch, L1
    /// invalidation (the fixed 2 µs per round).
    Placement,
    /// CP decision latency: exposed CP processing on the first kernel and
    /// the §VI driver-managed ablation's host round trips (CPElide only).
    CpDecision,
    /// Replaying the workload's per-chiplet access traces through the
    /// memory system (the execution phase proper).
    AccessReplay,
    /// Kernel-boundary synchronization: tag walks, dirty-line drains and
    /// invalidations serialized before execution.
    BoundaryDrain,
    /// The end-of-program drain pushing surviving dirty lines to memory.
    FinalDrain,
}

impl SimPhase {
    /// Every phase, in pipeline order.
    pub const ALL: [SimPhase; 5] = [
        SimPhase::Placement,
        SimPhase::CpDecision,
        SimPhase::AccessReplay,
        SimPhase::BoundaryDrain,
        SimPhase::FinalDrain,
    ];

    /// Stable snake_case label (Prometheus label value, report key).
    pub fn label(self) -> &'static str {
        match self {
            SimPhase::Placement => "placement",
            SimPhase::CpDecision => "cp_decision",
            SimPhase::AccessReplay => "access_replay",
            SimPhase::BoundaryDrain => "boundary_drain",
            SimPhase::FinalDrain => "final_drain",
        }
    }

    fn index(self) -> usize {
        match self {
            SimPhase::Placement => 0,
            SimPhase::CpDecision => 1,
            SimPhase::AccessReplay => 2,
            SimPhase::BoundaryDrain => 3,
            SimPhase::FinalDrain => 4,
        }
    }
}

/// One phase's accumulated cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseStat {
    /// Simulated cycles attributed to the phase.
    pub cycles: f64,
    /// Operations attributed to the phase: kernel launches, CP decisions,
    /// trace events, sync operations or drain releases, in pipeline order.
    pub ops: u64,
}

/// Cycles and operation counts per [`SimPhase`] for one run (or, merged,
/// for a whole campaign). Deterministic: derived from simulated time only.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseProfile {
    stats: [PhaseStat; 5],
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        PhaseProfile::default()
    }

    /// Adds `cycles` and `ops` to `phase`.
    pub fn record(&mut self, phase: SimPhase, cycles: f64, ops: u64) {
        let s = &mut self.stats[phase.index()];
        s.cycles += cycles;
        s.ops += ops;
    }

    /// The accumulated cost of `phase`.
    pub fn get(&self, phase: SimPhase) -> PhaseStat {
        self.stats[phase.index()]
    }

    /// All phases with their stats, in pipeline order.
    pub fn entries(&self) -> impl Iterator<Item = (SimPhase, PhaseStat)> + '_ {
        SimPhase::ALL.iter().map(|&p| (p, self.get(p)))
    }

    /// Folds another profile into this one (campaign aggregation).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (p, s) in other.entries() {
            self.record(p, s.cycles, s.ops);
        }
    }

    /// Total cycles across all phases.
    pub fn total_cycles(&self) -> f64 {
        self.stats.iter().map(|s| s.cycles).sum()
    }

    /// Total operations across all phases.
    pub fn total_ops(&self) -> u64 {
        self.stats.iter().map(|s| s.ops).sum()
    }

    /// `phase`'s share of total cycles in [0, 1] (0 when the profile is
    /// empty).
    pub fn fraction(&self, phase: SimPhase) -> f64 {
        let total = self.total_cycles();
        if total <= 0.0 {
            return 0.0;
        }
        self.get(phase).cycles / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_get_and_totals() {
        let mut p = PhaseProfile::new();
        p.record(SimPhase::AccessReplay, 100.0, 10);
        p.record(SimPhase::AccessReplay, 50.0, 5);
        p.record(SimPhase::FinalDrain, 50.0, 1);
        assert_eq!(p.get(SimPhase::AccessReplay).ops, 15);
        assert!((p.get(SimPhase::AccessReplay).cycles - 150.0).abs() < 1e-12);
        assert!((p.total_cycles() - 200.0).abs() < 1e-12);
        assert_eq!(p.total_ops(), 16);
        assert!((p.fraction(SimPhase::FinalDrain) - 0.25).abs() < 1e-12);
        assert_eq!(p.fraction(SimPhase::Placement), 0.0);
        assert_eq!(PhaseProfile::new().fraction(SimPhase::Placement), 0.0);
    }

    #[test]
    fn merge_accumulates_per_phase() {
        let mut a = PhaseProfile::new();
        a.record(SimPhase::Placement, 10.0, 2);
        let mut b = PhaseProfile::new();
        b.record(SimPhase::Placement, 5.0, 1);
        b.record(SimPhase::BoundaryDrain, 7.0, 3);
        a.merge(&b);
        assert_eq!(a.get(SimPhase::Placement).ops, 3);
        assert_eq!(a.get(SimPhase::BoundaryDrain).ops, 3);
        assert!((a.total_cycles() - 22.0).abs() < 1e-12);
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            SimPhase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), SimPhase::ALL.len());
        assert!(labels.contains("access_replay"));
    }
}
