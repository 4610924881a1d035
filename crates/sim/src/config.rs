//! Simulation configuration: Table I parameters, the latency model, and
//! the synchronization cost model.

use chiplet_coherence::system::CostClass;
use chiplet_coherence::{MemConfig, ProtocolKind};
use chiplet_energy::EnergyModel;
use chiplet_noc::link::LinkConfig;

/// Cycle costs for each access service point, derived from Table I
/// (latencies are end-to-end from the CU, hence monotonically increasing
/// down the hierarchy; the remote adders reflect the 390−269 = 121-cycle
/// inter-chiplet hop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// L1 data-cache hit (Table I: 140).
    pub l1_hit: f64,
    /// Local L2 hit (Table I: 269).
    pub l2_hit: f64,
    /// Remote L2 hit (Table I: 390) — HMG's home-node caching.
    pub l2_remote_hit: f64,
    /// L2 miss served by a local L3 bank: the L2 path plus the bank's
    /// 330-cycle access compose (gem5 Ruby hops accumulate).
    pub l3_local: f64,
    /// L2 miss served by a remote L3 bank (plus the 121-cycle hop).
    pub l3_remote: f64,
    /// L2 miss reaching HBM behind a local bank.
    pub mem_local: f64,
    /// L2 miss reaching HBM behind a remote bank.
    pub mem_remote: f64,
    /// Store absorbed by the local write-back L2 (pipeline occupancy).
    pub store_local: f64,
    /// Store written through to the local L3 bank.
    pub store_through_local: f64,
    /// Store written through across the inter-chiplet link.
    pub store_through_remote: f64,
    /// Read forwarded from a remote dirty owner (write-back HMG).
    pub owner_forward: f64,
    /// Write-back store needing local directory ownership (WB-HMG).
    pub store_owned_local: f64,
    /// Write-back store needing remote directory ownership (WB-HMG).
    pub store_owned_remote: f64,
    /// Extra cycles charged to an access whose directory registration
    /// evicted an entry (sharer-invalidation round trip on the critical
    /// path; HMG only).
    pub dir_eviction_penalty: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            l1_hit: 140.0,
            l2_hit: 269.0,
            l2_remote_hit: 390.0,
            l3_local: 599.0,  // 269 + 330
            l3_remote: 720.0, // + 121-cycle link hop
            mem_local: 949.0, // + 350-cycle HBM access
            mem_remote: 1070.0,
            store_local: 30.0,
            store_through_local: 370.0,
            store_through_remote: 490.0,
            owner_forward: 900.0,
            store_owned_local: 500.0,
            store_owned_remote: 760.0,
            dir_eviction_penalty: 500.0,
        }
    }
}

impl LatencyModel {
    /// Cycles charged for one serviced access.
    pub fn cost(&self, class: CostClass) -> f64 {
        match class {
            CostClass::L2Hit => self.l2_hit,
            CostClass::L2RemoteHit => self.l2_remote_hit,
            CostClass::L3 { remote: false } => self.l3_local,
            CostClass::L3 { remote: true } => self.l3_remote,
            CostClass::Mem { remote: false } => self.mem_local,
            CostClass::Mem { remote: true } => self.mem_remote,
            CostClass::StoreLocal => self.store_local,
            CostClass::StoreThrough { remote: false } => self.store_through_local,
            CostClass::StoreThrough { remote: true } => self.store_through_remote,
            CostClass::StoreOwned { remote: false } => self.store_owned_local,
            CostClass::StoreOwned { remote: true } => self.store_owned_remote,
            CostClass::OwnerForward => self.owner_forward,
        }
    }
}

/// Cost model for implicit synchronization operations (bulk L2 flush /
/// invalidate). A bulk operation walks the cache's tags and drains dirty
/// lines through the L2-L3 path (local homes) or across the inter-chiplet
/// link (remote homes); the CP request/ack round trip is added on top.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncCostModel {
    /// Tag-walk cycles per line examined/invalidated (banked walk).
    pub walk_cycles_per_line: f64,
    /// Bytes/cycle of the intra-chiplet L2→L3 drain path.
    pub local_drain_bytes_per_cycle: f64,
    /// Fixed request/ack round-trip latency per operation (CP crossbar).
    pub round_trip_cycles: f64,
}

impl Default for SyncCostModel {
    fn default() -> Self {
        SyncCostModel {
            walk_cycles_per_line: 0.5,
            local_drain_bytes_per_cycle: 852.0, // 2x the inter-chiplet link
            round_trip_cycles: 230.0,           // 65 + 100 + 65 (Fig. 7 exchange)
        }
    }
}

impl SyncCostModel {
    /// Cycles for a release that drained `local`/`remote` dirty lines,
    /// given the inter-chiplet link.
    pub fn release_cycles(&self, local: u64, remote: u64, link: &LinkConfig) -> f64 {
        if local == 0 && remote == 0 {
            return self.round_trip_cycles;
        }
        let walk = (local + remote) as f64 * self.walk_cycles_per_line;
        let local_drain = (local * 64) as f64 / self.local_drain_bytes_per_cycle;
        let remote_drain = (remote * 64) as f64 / link.bytes_per_cycle;
        self.round_trip_cycles + walk + local_drain + remote_drain
    }

    /// Cycles for an acquire that flushed `local`/`remote` dirty lines and
    /// invalidated `invalidated` lines in total.
    pub fn acquire_cycles(
        &self,
        local: u64,
        remote: u64,
        invalidated: u64,
        link: &LinkConfig,
    ) -> f64 {
        let flush = self.release_cycles(local, remote, link) - self.round_trip_cycles;
        let walk = invalidated as f64 * self.walk_cycles_per_line;
        self.round_trip_cycles + flush + walk
    }
}

/// Full simulation configuration: what is simulated, not how. The cache
/// core the engine runs on and the observer of its events are type
/// parameters of [`crate::engine::Simulator::run_with`], not settings.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of chiplets (Table I evaluates 2, 4, 6 and 7).
    pub num_chiplets: usize,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Memory-system geometry.
    pub mem: MemConfig,
    /// Access latencies.
    pub latency: LatencyModel,
    /// Synchronization costs.
    pub sync: SyncCostModel,
    /// Inter-chiplet link.
    pub link: LinkConfig,
    /// Energy model.
    pub energy: EnergyModel,
    /// Trace seed (irregular patterns).
    pub seed: u64,
    /// CUs per chiplet (Table I: 60).
    pub cus_per_chiplet: u32,
    /// GPU clock in MHz (Table I: 1801).
    pub clock_mhz: f64,
    /// Compute/MLP scale relative to one chiplet (used by the monolithic
    /// configuration, whose single die has `n` chiplets' worth of CUs).
    pub compute_scale: f64,
    /// Replication factor for boundary synchronization costs — the §VI
    /// scaling study serializes 2/4 extra sets of acquires/releases to
    /// mimic 8-/16-chiplet systems.
    pub sync_replication: u32,
    /// Chiplet Coherence Table capacity (entries). Defaults to the paper's
    /// 64; the sensitivity study shrinks it to force conservative
    /// capacity evictions.
    pub table_capacity: usize,
    /// §VI "Managing Implicit Synchronization at Driver" ablation: make the
    /// *driver* (host software) run the elision algorithm instead of the
    /// global CP. The driver lacks the CP's scheduling view, so every
    /// launch pays a host round trip to fetch WG placement before it can
    /// decide — latency the paper cites as the reason the CP is the right
    /// place (the paper's citations \[28\], \[79\], \[140\]).
    pub driver_managed: bool,
}

impl SimConfig {
    /// The paper's Table I configuration for `n` chiplets under `protocol`.
    /// For [`ProtocolKind::Monolithic`], builds the equivalent single-die
    /// GPU (aggregated L2 and compute) used by Figure 2.
    pub fn table1(num_chiplets: usize, protocol: ProtocolKind) -> Self {
        let (mem, compute_scale, effective_chiplets) = if protocol == ProtocolKind::Monolithic {
            (
                MemConfig::monolithic_equivalent(num_chiplets),
                num_chiplets as f64,
                1,
            )
        } else {
            (MemConfig::table1(num_chiplets), 1.0, num_chiplets)
        };
        SimConfig {
            num_chiplets: effective_chiplets,
            protocol,
            mem,
            latency: LatencyModel::default(),
            sync: SyncCostModel::default(),
            link: LinkConfig::default(),
            energy: EnergyModel::default(),
            seed: 0xC0FFEE,
            cus_per_chiplet: 60,
            clock_mhz: 1801.0,
            compute_scale,
            sync_replication: 1,
            table_capacity: cpelide::TABLE_CAPACITY,
            driver_managed: false,
        }
    }

    /// Host round trip (PCIe + driver software) charged per launch when the
    /// driver, not the CP, manages implicit synchronization (§VI).
    pub fn driver_round_trip_us(&self) -> f64 {
        4.0
    }

    /// Microseconds for `cycles` GPU cycles.
    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles / self.clock_mhz
    }

    /// GPU cycles for `us` microseconds.
    pub fn us_to_cycles(&self, us: f64) -> f64 {
        us * self.clock_mhz
    }

    /// Renders Table I as text (the `table1` regeneration binary).
    pub fn table1_text(num_chiplets: usize) -> String {
        let cus = 60 * num_chiplets;
        format!(
            "GPU Clock                         | 1801 MHz\n\
             CUs/Chiplet; Complexes/Chiplet    | 60; 1\n\
             SE/Chiplet, SA/SE                 | 4, 1\n\
             Num Chiplets                      | {num_chiplets}\n\
             Total CUs                         | {cus}\n\
             Num SIMD units/CU                 | 4\n\
             Max WF/SIMD unit                  | 10\n\
             Vector/Scalar Reg File Size / CU  | 256/12.5 KB\n\
             Num Compute Queues                | 256\n\
             L1 Instruction Cache / 4 CU       | 16 KB, 64B line, 8-way\n\
             L1 Data Cache / CU                | 16 KB, 64B line, 16-way\n\
             L1 Latency                        | 140 cycles\n\
             LDS Size / CU                     | 64 KB\n\
             LDS Latency                       | 65 cycles\n\
             L2 Cache/chiplet                  | 8 MB, 64B line, 32-way\n\
             Local/Remote L2 Latency           | 269/390 cycles\n\
             L2 Write Policy                   | Write-back, write-allocate\n\
             L3 Size                           | 16 MB, 64B line, 16-way\n\
             L3 Latency                        | 330 cycles\n\
             Main Memory                       | 16 GB HBM, 4H stacks, 1000 MHz\n\
             Inter-chiplet Interconnect BW     | 768 GB/s\n\
             Scheduling Policy                 | Static Kernel Partitioning\n"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ordering_is_sane() {
        let l = LatencyModel::default();
        assert!(l.l1_hit < l.l2_hit);
        assert!(l.l2_hit < l.l3_local);
        assert!(l.l3_local < l.l3_remote);
        assert!(l.l3_remote < l.mem_remote);
        assert!(l.mem_local < l.mem_remote);
        assert!((l.l3_remote - l.l3_local - 121.0).abs() < 1e-9);
    }

    #[test]
    fn cost_maps_every_class() {
        let l = LatencyModel::default();
        assert!((l.cost(CostClass::L2Hit) - 269.0).abs() < 1e-9);
        assert!((l.cost(CostClass::Mem { remote: true }) - 1070.0).abs() < 1e-9);
        assert!(l.cost(CostClass::StoreThrough { remote: true }) > l.cost(CostClass::StoreLocal));
    }

    #[test]
    fn sync_cost_scales_with_lines() {
        let s = SyncCostModel::default();
        let link = LinkConfig::default();
        let small = s.release_cycles(100, 0, &link);
        let big = s.release_cycles(100_000, 0, &link);
        assert!(big > small * 10.0);
        let remote_heavy = s.release_cycles(0, 1000, &link);
        let local_heavy = s.release_cycles(1000, 0, &link);
        assert!(remote_heavy > local_heavy, "remote drain is slower");
        assert!(s.acquire_cycles(0, 0, 1000, &link) > s.release_cycles(0, 0, &link));
    }

    #[test]
    fn monolithic_config_aggregates() {
        let c = SimConfig::table1(4, ProtocolKind::Monolithic);
        assert_eq!(c.num_chiplets, 1);
        assert_eq!(c.mem.l2_bytes, 32 << 20);
        assert!((c.compute_scale - 4.0).abs() < 1e-12);
    }

    #[test]
    fn chiplet_config_matches_table1() {
        let c = SimConfig::table1(4, ProtocolKind::Baseline);
        assert_eq!(c.num_chiplets, 4);
        assert_eq!(c.mem.l2_bytes, 8 << 20);
        assert_eq!(c.cus_per_chiplet, 60);
        assert!((c.compute_scale - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_conversions_round_trip() {
        let c = SimConfig::table1(2, ProtocolKind::Baseline);
        let us = c.cycles_to_us(1801.0);
        assert!((us - 1.0).abs() < 1e-9);
        assert!((c.us_to_cycles(us) - 1801.0).abs() < 1e-6);
    }

    #[test]
    fn table1_text_mentions_key_rows() {
        let t = SimConfig::table1_text(4);
        assert!(t.contains("1801 MHz"));
        assert!(t.contains("Total CUs                         | 240"));
        assert!(t.contains("768 GB/s"));
    }
}
