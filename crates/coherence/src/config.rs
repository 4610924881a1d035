//! Memory-system configuration shared by all protocols.

use std::fmt;

/// Which protocol/synchronization configuration to simulate (paper §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Chiplet-extended VIPER with conservative whole-GPU implicit
    /// synchronization at every kernel boundary.
    Baseline,
    /// Baseline datapath, CP-driven (mostly elided) synchronization.
    CpElide,
    /// HMG with write-through L2s (the variant the paper evaluates).
    Hmg,
    /// HMG's write-back L2 ablation variant (≈13 % worse; paper §IV-C).
    HmgWriteBack,
    /// The equivalent monolithic (single-die) GPU of Figure 2.
    Monolithic,
}

impl ProtocolKind {
    /// All protocol kinds, in presentation order.
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::Baseline,
        ProtocolKind::CpElide,
        ProtocolKind::Hmg,
        ProtocolKind::HmgWriteBack,
        ProtocolKind::Monolithic,
    ];

    /// Short label used in reports ("B", "C", "H" in Figures 9/10).
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Baseline => "Baseline",
            ProtocolKind::CpElide => "CPElide",
            ProtocolKind::Hmg => "HMG",
            ProtocolKind::HmgWriteBack => "HMG-WB",
            ProtocolKind::Monolithic => "Monolithic",
        }
    }

    /// The inverse of [`Self::label`], case-insensitively: parses a
    /// report label (`"CPElide"`, `"baseline"`, ...) back into the kind.
    /// This is the validation seam for externally-supplied protocol names
    /// (the campaign daemon's sweep requests); `None` means the label
    /// matches no registered protocol.
    pub fn from_label(label: &str) -> Option<ProtocolKind> {
        Self::ALL
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(label))
    }

    /// True for the HMG family (directory + no bulk sync).
    pub fn is_hmg(self) -> bool {
        matches!(self, ProtocolKind::Hmg | ProtocolKind::HmgWriteBack)
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Geometry of the simulated memory system (Table I defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Number of GPU chiplets (1 for monolithic).
    pub num_chiplets: usize,
    /// Per-chiplet L2 capacity in bytes (8 MiB in Table I).
    pub l2_bytes: u64,
    /// L2 associativity (32 ways).
    pub l2_ways: u32,
    /// Shared LLC capacity in bytes (16 MiB).
    pub l3_bytes: u64,
    /// L3 associativity (16 ways).
    pub l3_ways: u32,
    /// HMG directory entries per chiplet (sized per paper footnote 4).
    pub dir_entries: u64,
    /// Directory associativity.
    pub dir_ways: u32,
    /// Cache lines covered by one directory entry (4).
    pub dir_region_lines: u64,
}

impl MemConfig {
    /// The paper's Table I configuration for an `n`-chiplet GPU.
    ///
    /// # Panics
    ///
    /// Panics if `num_chiplets` is 0 or exceeds 16.
    pub fn table1(num_chiplets: usize) -> Self {
        assert!(
            (1..=16).contains(&num_chiplets),
            "1..=16 chiplets supported"
        );
        MemConfig {
            num_chiplets,
            l2_bytes: 8 << 20,
            l2_ways: 32,
            l3_bytes: 16 << 20,
            l3_ways: 16,
            // gem5 uses 64 B lines (vs NVArchSim's 128 B), doubling the
            // entry count for a given byte coverage (paper footnote 4);
            // 16K entries x 4 lines cover the "64K cache lines" of SIV-C.
            dir_entries: 16 * 1024,
            dir_ways: 8,
            dir_region_lines: 4,
        }
    }

    /// The equivalent monolithic GPU for an `n`-chiplet system: one "chiplet"
    /// whose L2 aggregates the chiplets' capacity (Figure 2's comparison).
    pub fn monolithic_equivalent(num_chiplets: usize) -> Self {
        let base = Self::table1(num_chiplets);
        MemConfig {
            num_chiplets: 1,
            l2_bytes: base.l2_bytes * num_chiplets as u64,
            ..base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let c = MemConfig::table1(4);
        assert_eq!(c.l2_bytes, 8 << 20);
        assert_eq!(c.l2_ways, 32);
        assert_eq!(c.l3_bytes, 16 << 20);
        assert_eq!(c.l3_ways, 16);
        assert_eq!(c.dir_entries, 16 * 1024);
        assert_eq!(c.dir_region_lines, 4);
    }

    #[test]
    fn monolithic_aggregates_l2() {
        let m = MemConfig::monolithic_equivalent(4);
        assert_eq!(m.num_chiplets, 1);
        assert_eq!(m.l2_bytes, 32 << 20);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(ProtocolKind::Baseline.label(), "Baseline");
        assert!(ProtocolKind::Hmg.is_hmg());
        assert!(ProtocolKind::HmgWriteBack.is_hmg());
        assert!(!ProtocolKind::Monolithic.is_hmg());
        assert_eq!(ProtocolKind::ALL.len(), 5);
    }
}
