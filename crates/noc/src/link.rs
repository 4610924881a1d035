//! Inter-chiplet link and CP crossbar models.
//!
//! Table I: inter-chiplet interconnect bandwidth is 768 GB/s at a 1801 MHz
//! GPU clock — about 426 B/cycle aggregate. Bulk flush operations (implicit
//! releases) are bandwidth-limited: flushing a mostly-dirty 8 MiB L2 takes
//! tens of thousands of cycles, which is exactly the overhead CPElide
//! elides. The global↔local CP crossbar has 65-cycle unicast and 100-cycle
//! broadcast latency (paper §IV-B).

use chiplet_mem::addr::ChipletId;

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Aggregate inter-chiplet bandwidth in bytes per GPU cycle.
    pub bytes_per_cycle: f64,
    /// One-way latency of a single hop across the link, in cycles.
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

/// Bandwidth-limited inter-chiplet link: computes the cycles consumed by
/// bulk transfers such as implicit-release dirty-data writebacks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterChipletLink {
    config: LinkConfig,
}

impl InterChipletLink {
    /// Creates a link with the given parameters.
    pub fn new(config: LinkConfig) -> Self {
        InterChipletLink { config }
    }

    /// The link's parameters.
    pub fn config(&self) -> LinkConfig {
        self.config
    }

    /// Cycles to move `bytes` across the link, bandwidth-limited, plus one
    /// hop latency. Zero-byte transfers cost nothing.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        (bytes as f64 / self.config.bytes_per_cycle).ceil() as u64 + self.config.hop_latency
    }

    /// Cycles to write back `lines` dirty 64 B cache lines (a bulk flush).
    pub fn flush_cycles(&self, lines: u64) -> u64 {
        self.transfer_cycles(lines * chiplet_mem::LINE_BYTES)
    }
}

impl Default for InterChipletLink {
    fn default() -> Self {
        InterChipletLink::new(LinkConfig::default())
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

/// The crossbar connecting the global CP to the per-chiplet local CPs
/// (Figure 7). Latencies from paper §IV-B: 65-cycle unicast, 100-cycle
/// broadcast. The global CP counts acknowledgements before sending the
/// "launch enable" message, so a synchronization round costs a round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpCrossbar {
    unicast_latency: u64,
    broadcast_latency: u64,
    messages_sent: u64,
}

impl CpCrossbar {
    /// Creates a crossbar with the paper's latencies.
    pub fn new() -> Self {
        CpCrossbar {
            unicast_latency: 65,
            broadcast_latency: 100,
            messages_sent: 0,
        }
    }

    /// One-way latency for a message to `count` local CPs: unicast if one,
    /// broadcast otherwise. Records the messages.
    pub fn send(&mut self, count: usize) -> u64 {
        if count == 0 {
            return 0;
        }
        self.messages_sent += count as u64;
        if count == 1 {
            self.unicast_latency
        } else {
            self.broadcast_latency
        }
    }

    /// Latency of a full synchronization round: a request to `count` local
    /// CPs, their acks back, and the final launch-enable broadcast —
    /// the ack-counted protocol of paper §III-C.
    pub fn sync_round(&mut self, count: usize) -> u64 {
        if count == 0 {
            return 0;
        }
        let request = self.send(count);
        // Each local CP acks with a unicast; they travel in parallel.
        self.messages_sent += count as u64;
        let acks = self.unicast_latency;
        let enable = self.send(count);
        request + acks + enable
    }

    /// Latency of a launch-enable message to chiplets hosting a kernel.
    pub fn launch_enable(&mut self, chiplets: &[ChipletId]) -> u64 {
        self.send(chiplets.len())
    }

    /// Total messages sent so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }
}

impl Default for CpCrossbar {
    fn default() -> Self {
        CpCrossbar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_link_matches_table1() {
        let l = InterChipletLink::default();
        assert!((l.config().bytes_per_cycle - 426.43).abs() < 0.05);
        assert_eq!(l.config().hop_latency, 121);
    }

    #[test]
    fn transfer_is_bandwidth_limited() {
        let l = InterChipletLink::new(LinkConfig {
            bytes_per_cycle: 64.0,
            hop_latency: 10,
        });
        assert_eq!(l.transfer_cycles(0), 0);
        assert_eq!(l.transfer_cycles(64), 11);
        assert_eq!(l.transfer_cycles(640), 20);
    }

    #[test]
    fn flush_scales_with_dirty_lines() {
        let l = InterChipletLink::new(LinkConfig {
            bytes_per_cycle: 64.0,
            hop_latency: 0,
        });
        assert_eq!(l.flush_cycles(100), 100);
        assert!(l.flush_cycles(1000) > l.flush_cycles(10));
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

    #[test]
    fn crossbar_unicast_vs_broadcast() {
        let mut x = CpCrossbar::new();
        assert_eq!(x.send(1), 65);
        assert_eq!(x.send(4), 100);
        assert_eq!(x.send(0), 0);
        assert_eq!(x.messages_sent(), 5);
    }

    #[test]
    fn sync_round_is_request_ack_enable() {
        let mut x = CpCrossbar::new();
        // Unicast request + unicast ack + unicast enable.
        assert_eq!(x.sync_round(1), 65 + 65 + 65);
        // Broadcast request + ack + broadcast enable.
        assert_eq!(x.sync_round(3), 100 + 65 + 100);
        assert_eq!(x.sync_round(0), 0);
    }

    #[test]
    fn launch_enable_counts_targets() {
        let mut x = CpCrossbar::new();
        let lat = x.launch_enable(&[ChipletId::new(0), ChipletId::new(1)]);
        assert_eq!(lat, 100);
        assert_eq!(x.messages_sent(), 2);
    }
}
