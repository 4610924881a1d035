//! Diagnostic deep-dive for one workload: every protocol's cycles, L2 hit
//! rate, traffic split, sync costs and energy (total, plus one
//! L1I/L1D/LDS/L2/L3/NOC/DRAM line — the Figure 9 component split) at a
//! given chiplet count,
//! plus the full per-run JSON export (sync counters, histograms, and the
//! CPElide run's events, labelled by variant) written to
//! `results/probe.json` and a Prometheus exposition in
//! `results/probe.prom`.
//!
//! Usage: `cargo run --release -p cpelide-bench --bin probe -- [workload]
//! [chiplets] [--trace out.json]` (default `square` at 4 chiplets). A
//! malformed argument or a chiplet count outside 1..=16 prints the usage
//! line and exits 2; an unknown workload exits 1.
//!
//! `--trace <path>` additionally exports the CPElide run's timeline as
//! Chrome/Perfetto trace-event JSON, loadable at
//! <https://ui.perfetto.dev>.

use chiplet_coherence::ProtocolKind;
use chiplet_harness::json::Json;
use chiplet_sim::cell::{Cell, CHIPLET_RANGE};
use chiplet_sim::event::timeline;
use chiplet_sim::{SimEvent, Simulator};
use cpelide_bench::{effective_suite, smoke, write_report, write_text, write_trace};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: probe [workload] [chiplets {}..={}] [--trace out.json]",
        CHIPLET_RANGE.start(),
        CHIPLET_RANGE.end()
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut positional = Vec::new();
    let mut trace_to: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            let Some(p) = args.next() else {
                return usage();
            };
            trace_to = Some(PathBuf::from(p));
        } else if a.starts_with("--") || positional.len() == 2 {
            return usage();
        } else {
            positional.push(a);
        }
    }
    let name = positional.first().cloned().unwrap_or_else(|| {
        if smoke() {
            effective_suite()[0].name().to_owned()
        } else {
            "square".to_owned()
        }
    });
    let Some(chiplets) = positional.get(1).map_or(Some(4), |a| a.parse().ok()) else {
        return usage();
    };
    if let Err(e) = chiplet_workloads::lookup(&name) {
        eprintln!("probe: {e}");
        return ExitCode::FAILURE;
    }
    // The workload is known, so only the chiplet count can be refused.
    let cell = match Cell::validated(&name, ProtocolKind::Baseline.label(), chiplets) {
        Ok(cell) => cell,
        Err(e) => {
            eprintln!("probe: {e}");
            return usage();
        }
    };
    let w = &cell.workload;

    println!(
        "{} (input {}, {} kernels, {:.1} MiB footprint, {} chiplets)",
        w.name(),
        w.input(),
        w.kernel_count(),
        w.footprint_bytes() as f64 / (1 << 20) as f64,
        chiplets
    );
    println!(
        "{:<11} {:>12} {:>12} {:>12} {:>7} {:>8} {:>10} {:>10} {:>10} {:>9} {:>8}",
        "protocol",
        "cycles",
        "exec",
        "sync",
        "L2hit%",
        "L3hit%",
        "L1-L2",
        "L2-L3",
        "remote",
        "dram",
        "uJ"
    );
    let mut runs = Vec::new();
    // One shared writer across protocols so each `# HELP`/`# TYPE` header
    // appears exactly once per metric family in probe.prom.
    let mut prom = chiplet_harness::trace::PromText::new();
    for p in [
        ProtocolKind::Baseline,
        ProtocolKind::CpElide,
        ProtocolKind::Hmg,
        ProtocolKind::HmgWriteBack,
        ProtocolKind::Monolithic,
    ] {
        let sim = Simulator::new(
            Cell {
                protocol: p,
                ..cell.clone()
            }
            .config(),
        );
        // The deep-dive keeps the CPElide run's events so the JSON report
        // shows where each sync was paid; the timeline trace (when
        // requested) renders the same events.
        let cpelide = p == ProtocolKind::CpElide;
        let mut events = Vec::new();
        let m = sim.run_observed(w, &mut events);
        println!(
            "{:<11} {:>12.0} {:>12.0} {:>12.0} {:>7.1} {:>8.1} {:>10} {:>10} {:>10} {:>9} {:>8.1}",
            p.label(),
            m.cycles,
            m.exec_cycles,
            m.sync_cycles,
            100.0 * m.l2_hit_rate(),
            100.0 * m.l3.hit_rate(),
            m.traffic.l1_l2,
            m.traffic.l2_l3,
            m.traffic.remote,
            m.dram_accesses,
            m.energy.total() / 1e6,
        );
        println!(
            "            sync: {} acq / {} rel performed, {} acq / {} rel elided, \
             {} lines invalidated, {} flushed, {} remote bytes",
            m.sync.acquires_performed,
            m.sync.releases_performed,
            m.sync.acquires_elided,
            m.sync.releases_elided,
            m.sync.invalidated_lines,
            m.sync.flushed_lines,
            m.sync.remote_bytes,
        );
        let e = &m.energy;
        println!(
            "            energy uJ: L1I {:.1} / L1D {:.1} / LDS {:.1} / L2 {:.1} / \
             L3 {:.1} / NOC {:.1} / DRAM {:.1}",
            e.l1i / 1e6,
            e.l1d / 1e6,
            e.lds / 1e6,
            e.l2 / 1e6,
            e.l3 / 1e6,
            e.noc / 1e6,
            e.dram / 1e6,
        );
        if let Some(t) = &m.table {
            println!(
                "            table: {} acq / {} rel issued, {} acq / {} rel elided, max {} entries",
                t.acquires_issued,
                t.releases_issued,
                t.acquires_elided,
                t.releases_elided,
                t.max_live_entries
            );
        }
        if let Some(a) = &m.audit {
            for l in a.summary_text().lines() {
                println!("            {l}");
            }
        }
        println!(
            "            hist: kernel p50/p99 {}/{} cyc, stall p50/p99 {}/{} cyc, link util {:.2}%",
            m.hist.kernel_cycles.p50(),
            m.hist.kernel_cycles.p99(),
            m.hist.boundary_stall_cycles.p50(),
            m.hist.boundary_stall_cycles.p99(),
            100.0 * m.link_util.utilization(m.cycles as u64),
        );
        if let (Some(path), true) = (&trace_to, cpelide) {
            let trace = timeline(&events, sim.config(), w);
            write_trace(&trace, path);
            println!(
                "            trace: {} events -> {} (open at ui.perfetto.dev)",
                trace.len(),
                path.display()
            );
        }
        m.metrics_text_into(&mut prom);
        let mut run = m.to_json();
        if cpelide {
            run.set(
                "events",
                events.iter().map(SimEvent::to_json).collect::<Vec<_>>(),
            );
        }
        runs.push(run);
    }

    let report = Json::object()
        .with("artifact", "probe")
        .with("workload", name.as_str())
        .with("chiplets", chiplets)
        .with("runs", runs);
    let path = write_report("probe", &report);
    println!("report: {}", path.display());
    let prom_path = write_text("probe.prom", &prom.finish());
    println!("metrics: {}", prom_path.display());
    ExitCode::SUCCESS
}
