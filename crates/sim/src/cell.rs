//! Cell *definition*: the independent unit of sweep-shaped work, kept
//! apart from every scheduler so cells can be built — and validated —
//! wherever they arrive from.
//!
//! A [`Cell`] is a (workload, protocol, chiplet-count) triple under the
//! paper's Table 1 configuration, or under Table 1 with one parameter
//! changed by a config-variant study ([`Variant`]). Cells come from the
//! enumerated grid (`cpelide_bench::campaign::cells`), from the `studies`
//! binary, and from the campaign daemon (`cpelide-bench --bin serve`),
//! which receives them one request at a time from untrusted clients, so
//! definition and *scheduling* are deliberately separate layers:
//!
//! - **Definition** (this module): what a cell is, how to build one from
//!   externally-supplied strings ([`Cell::validated`]), how to run it to
//!   completion on the current thread ([`Cell::run`]), and what it
//!   computes, as its cache key ([`Cell::key`]).
//! - **Scheduling** (the bench campaign runner, the daemon's fair
//!   scheduler): when and where a cell executes. Cells are `Send + Sync`
//!   and each run builds its own simulator, so any scheduler can execute
//!   them on any worker without sharing simulated state.

use crate::config::{LatencyModel, SimConfig, SyncCostModel};
use crate::engine::Simulator;
use crate::metrics::RunMetrics;
use chiplet_coherence::{MemConfig, ProtocolKind};
use chiplet_energy::EnergyModel;
use chiplet_gpu::kernel::{AccessPattern, ArrayAccess};
use chiplet_harness::fleet::Fingerprint;
use chiplet_noc::link::LinkConfig;
use chiplet_workloads::{Launch, Workload};

/// Chiplet counts accepted by [`Cell::validated`]: the Table I memory
/// geometry (`MemConfig::table1`) is defined for 1..=16 chiplets.
pub const CHIPLET_RANGE: std::ops::RangeInclusive<usize> = 1..=16;

/// The configuration a cell runs under: Table 1, or Table 1 with the one
/// parameter a config-variant study changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Variant {
    /// The paper's Table 1 configuration.
    Table1,
    /// §VI scaling mimic: every boundary acquire/release set serialised
    /// `k` times (`k` = 2/4 mimic 8/16 chiplets).
    SyncReplication(u32),
    /// Chiplet Coherence Table capacity of `n` entries (Table 1: 64).
    TableCapacity(usize),
    /// CP-crossbar round trip of `c` cycles (Table 1: 230).
    RoundTrip(f64),
    /// Inter-chiplet link bandwidth of `g` GB/s (Table 1: 768).
    LinkBandwidth(f64),
    /// §VI driver-managed elision: the host driver, not the CP, decides.
    DriverManaged,
}

impl Variant {
    /// The label rows and cell ids carry: `None` for Table 1, else
    /// `k=2`, `n=8`, `c=460`, `g=192` or `driver`.
    pub fn label(self) -> Option<String> {
        match self {
            Variant::Table1 => None,
            Variant::SyncReplication(k) => Some(format!("k={k}")),
            Variant::TableCapacity(n) => Some(format!("n={n}")),
            Variant::RoundTrip(c) => Some(format!("c={c}")),
            Variant::LinkBandwidth(g) => Some(format!("g={g}")),
            Variant::DriverManaged => Some("driver".to_owned()),
        }
    }
}

/// One independent unit of the evaluation sweep: a (workload, protocol,
/// chiplet-count) triple under a [`Variant`] of the Table 1
/// configuration. Cells are `Send + Sync`, so any scheduler can execute
/// them on any worker; each run builds its own simulator, so no
/// simulated state crosses threads.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The workload to run.
    pub workload: Workload,
    /// The coherence protocol under test.
    pub protocol: ProtocolKind,
    /// Number of chiplets.
    pub chiplets: usize,
    /// The configuration variant ([`Variant::Table1`] for grid cells).
    pub variant: Variant,
}

impl Cell {
    /// A cell under the Table 1 configuration.
    pub fn new(workload: Workload, protocol: ProtocolKind, chiplets: usize) -> Self {
        Cell {
            workload,
            protocol,
            chiplets,
            variant: Variant::Table1,
        }
    }

    /// The same cell under `variant`.
    #[must_use]
    pub fn with_variant(self, variant: Variant) -> Self {
        Cell { variant, ..self }
    }

    /// Builds a Table 1 cell from externally-supplied strings, validating
    /// every axis: the workload must be in the registered table
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

    /// The resolved configuration: Table 1 with the variant applied.
    pub fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::table1(self.chiplets, self.protocol);
        match self.variant {
            Variant::Table1 => {}
            Variant::SyncReplication(k) => cfg.sync_replication = k,
            Variant::TableCapacity(n) => cfg.table_capacity = n,
            Variant::RoundTrip(c) => cfg.sync.round_trip_cycles = c,
            Variant::LinkBandwidth(g) => {
                cfg.link = LinkConfig::from_bandwidth(g, cfg.clock_mhz, cfg.link.hop_latency);
            }
            Variant::DriverManaged => cfg.driver_managed = true,
        }
        cfg
    }

    /// Runs the cell to completion on the current thread (the `Send`-safe
    /// entry point every scheduler dispatches).
    pub fn run(&self) -> RunMetrics {
        Simulator::new(self.config()).run(&self.workload)
    }

    /// Folds what the cell computes into `fp`: the resolved configuration
    /// ([`Cell::config`]) and the workload definition. A variant that
    /// resolves to Table 1 (a capacity of 64, say) therefore keys like the
    /// grid cell.
    ///
    /// Every struct is destructured exhaustively, so a new field fails to
    /// compile here until it is keyed or written as `_`. Left out: each
    /// kernel's `SpecSpan`, which says where it was written, not what it
    /// does.
    pub fn key(&self, fp: Fingerprint) -> Fingerprint {
        key_workload(key_config(fp, &self.config()), &self.workload)
    }
}

// Laid out as a table (each destructure lists every field once, each
// array lists them again in the same order), so rustfmt is kept off it.
#[rustfmt::skip]
fn key_config(fp: Fingerprint, cfg: &SimConfig) -> Fingerprint {
    let SimConfig {
        num_chiplets, protocol, mem, latency, sync, link, energy, seed, cus_per_chiplet,
        clock_mhz, compute_scale, sync_replication, table_capacity, driver_managed,
    } = cfg;
    let MemConfig {
        num_chiplets: mem_chiplets, l2_bytes, l2_ways, l3_bytes, l3_ways, dir_entries, dir_ways,
        dir_region_lines,
    } = *mem;
    let LatencyModel {
        l1_hit, l2_hit, l2_remote_hit, l3_local, l3_remote, mem_local, mem_remote, store_local,
        store_through_local, store_through_remote, owner_forward, store_owned_local,
        store_owned_remote, dir_eviction_penalty,
    } = *latency;
    let SyncCostModel { walk_cycles_per_line, local_drain_bytes_per_cycle, round_trip_cycles } =
        *sync;
    let LinkConfig { bytes_per_cycle, hop_latency } = *link;
    let EnergyModel {
        l1i_pj, l1d_pj, lds_pj, l2_pj, l3_pj, noc_local_flit_pj, noc_remote_flit_pj, dram_pj,
    } = *energy;
    let ints: [u64; 15] = [
        *num_chiplets as u64, mem_chiplets as u64, l2_bytes, l2_ways.into(), l3_bytes,
        l3_ways.into(), dir_entries, dir_ways.into(), dir_region_lines, hop_latency, *seed,
        (*cus_per_chiplet).into(), (*sync_replication).into(), *table_capacity as u64,
        (*driver_managed).into(),
    ];
    let floats = [
        l1_hit, l2_hit, l2_remote_hit, l3_local, l3_remote, mem_local, mem_remote, store_local,
        store_through_local, store_through_remote, owner_forward, store_owned_local,
        store_owned_remote, dir_eviction_penalty, walk_cycles_per_line,
        local_drain_bytes_per_cycle, round_trip_cycles, bytes_per_cycle, l1i_pj, l1d_pj, lds_pj,
        l2_pj, l3_pj, noc_local_flit_pj, noc_remote_flit_pj, dram_pj, *clock_mhz, *compute_scale,
    ];
    let fp = ints.into_iter().fold(fp.push_str(protocol.label()), Fingerprint::push_u64);
    floats.into_iter().fold(fp, Fingerprint::push_f64)
}

fn key_workload(fp: Fingerprint, workload: &Workload) -> Fingerprint {
    let (name, input, class, arrays, launches) = workload.parts();
    let (decls, next_base) = arrays.parts();
    let fp = fp
        .push_str(name)
        .push_str(input)
        .push_str(&class.to_string());
    let fp = fp.push_u64(next_base.get()).push_u64(decls.len() as u64);
    let fp = decls.iter().fold(fp, |fp, decl| {
        let (id, name, base, bytes) = decl.parts();
        let fp = fp.push_u64(id.get().into()).push_str(name);
        fp.push_u64(base.get()).push_u64(bytes)
    });
    launches
        .iter()
        .fold(fp.push_u64(launches.len() as u64), key_launch)
}

fn key_launch(fp: Fingerprint, launch: &Launch) -> Fingerprint {
    let Launch {
        stream,
        spec,
        binding,
    } = launch;
    let fp = fp.push_u64(stream.get().into());
    let fp = fp.push_u64(binding.as_ref().map_or(0, |b| 1 + b.len() as u64));
    let fp = binding
        .iter()
        .flatten()
        .fold(fp, |fp, c| fp.push_u64(c.index() as u64));
    let (name, accesses, wg_count, compute, lds, l1, mlp, _span) = spec.parts();
    let fp = fp.push_str(name).push_u64(wg_count.into());
    let fp = [compute, lds, l1, mlp]
        .into_iter()
        .fold(fp, Fingerprint::push_f64);
    accesses
        .iter()
        .fold(fp.push_u64(accesses.len() as u64), key_access)
}

fn key_access(fp: Fingerprint, access: &ArrayAccess) -> Fingerprint {
    let ArrayAccess {
        array,
        mode,
        touch,
        pattern,
        sweeps,
    } = access;
    // Both enums are fieldless: the discriminant names the variant.
    let (mode, touch) = (*mode as u64, *touch as u64);
    let fp = fp
        .push_u64(array.get().into())
        .push_u64(mode)
        .push_u64(touch);
    let fp = fp.push_u64((*sweeps).into());
    match *pattern {
        AccessPattern::Partitioned => fp.push_u64(0),
        AccessPattern::PartitionedHalo { halo_lines } => fp.push_u64(1).push_u64(halo_lines),
        AccessPattern::Shared => fp.push_u64(2),
        AccessPattern::Slice { start, end } => fp.push_u64(3).push_f64(start).push_f64(end),
        AccessPattern::Irregular { fraction, locality } => {
            fp.push_u64(4).push_f64(fraction).push_f64(locality)
        }
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
