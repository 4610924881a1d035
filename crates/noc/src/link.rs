//! Inter-chiplet link parameters and occupancy accounting.
//!
//! Table I: inter-chiplet interconnect bandwidth is 768 GB/s at a 1801 MHz
//! GPU clock — about 426 B/cycle aggregate. Bulk flush operations (implicit
//! releases) are bandwidth-limited: flushing a mostly-dirty 8 MiB L2 takes
//! tens of thousands of cycles, which is exactly the overhead CPElide
//! elides. The cycles themselves are charged by
//! `chiplet_sim::config::SyncCostModel`, which reads
//! [`LinkConfig::bytes_per_cycle`]; this module only holds the parameters
//! and the per-run [`LinkUtilization`] tally.

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Aggregate inter-chiplet bandwidth in bytes per GPU cycle.
    pub bytes_per_cycle: f64,
    /// One-way latency of a single hop across the link, in cycles. The
    /// engine charges the hop through `LatencyModel`'s remote adders, not
    /// through this field.
    pub hop_latency: u64,
}

impl LinkConfig {
    /// Derives bytes/cycle from a bandwidth in GB/s and a clock in MHz.
    ///
    /// ```
    /// use chiplet_noc::link::LinkConfig;
    /// let c = LinkConfig::from_bandwidth(768.0, 1801.0, 121);
    /// assert!((c.bytes_per_cycle - 426.4).abs() < 0.1);
    /// ```
    pub fn from_bandwidth(gb_per_s: f64, clock_mhz: f64, hop_latency: u64) -> Self {
        LinkConfig {
            bytes_per_cycle: gb_per_s * 1e9 / (clock_mhz * 1e6),
            hop_latency,
        }
    }
}

impl Default for LinkConfig {
    /// Table I defaults: 768 GB/s at 1801 MHz; the remote-vs-local L2
    /// latency difference (390 − 269 = 121 cycles) is the hop latency.
    fn default() -> Self {
        LinkConfig::from_bandwidth(768.0, 1801.0, 121)
    }
}

/// Accumulated link occupancy over a run: how many bytes crossed the
/// inter-chiplet link and for how many cycles it was busy, so the
/// simulator can derive utilisation (busy ÷ elapsed) and stamp NoC busy
/// windows into the timeline trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkUtilization {
    bytes: u64,
    busy_cycles: u64,
    transfers: u64,
}

impl LinkUtilization {
    /// An empty accumulator.
    pub fn new() -> Self {
        LinkUtilization::default()
    }

    /// Records one bulk transfer occupying the link for `cycles`.
    pub fn record(&mut self, bytes: u64, cycles: u64) {
        if bytes == 0 && cycles == 0 {
            return;
        }
        self.bytes += bytes;
        self.busy_cycles += cycles;
        self.transfers += 1;
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Cycles the link spent busy.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Number of transfers recorded.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Fraction of `elapsed_cycles` the link was busy, clamped to `[0, 1]`
    /// (serialized bulk transfers cannot exceed full occupancy). Zero when
    /// nothing has elapsed.
    pub fn utilization(&self, elapsed_cycles: u64) -> f64 {
        if elapsed_cycles == 0 {
            return 0.0;
        }
        (self.busy_cycles as f64 / elapsed_cycles as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_link_matches_table1() {
        let l = LinkConfig::default();
        assert!((l.bytes_per_cycle - 426.43).abs() < 0.05);
        assert_eq!(l.hop_latency, 121);
    }

    #[test]
    fn utilization_accumulates_and_clamps() {
        let mut u = LinkUtilization::new();
        assert_eq!(u.utilization(1000), 0.0);
        u.record(64 * 100, 150);
        u.record(64 * 50, 50);
        u.record(0, 0); // no-op
        assert_eq!(u.bytes(), 64 * 150);
        assert_eq!(u.busy_cycles(), 200);
        assert_eq!(u.transfers(), 2);
        assert!((u.utilization(400) - 0.5).abs() < 1e-12);
        assert_eq!(u.utilization(0), 0.0);
        assert_eq!(u.utilization(100), 1.0, "clamped at full occupancy");
    }
}
