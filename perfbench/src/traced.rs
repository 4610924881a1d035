//! The traced run (`--trace 1`): per-layer host time, measured from
//! outside by calling each layer's public functions with a timer around
//! every call.
//!
//! 1. **Cell replay.** The first [`TRACE_CELLS`] cells of the sweep's first
//!    pass, or every cell of the serve pool, go through `Simulator::run`,
//!    `RunMetrics::to_json().render()`, `DiskCache::store`, `json::parse`,
//!    `CellSpec::row`, `DiskCache::load`, a warm `campaign::execute_cell`,
//!    and the layer replay of [`crate::replay`] (twice for CPElide cells:
//!    CCT audit on and off). A replay that disagrees with
//!    `Simulator::run` fails the run.
//! 2. **Serve probe.** A daemon over those cells, all cached, driven by the
//!    closed loop: for [`PROBE_SECONDS`] on the sweeps, for `--seconds`
//!    on serve-warm. Its `/metrics` counters are reconciled with the
//!    client's.

use crate::calib::{Calibrator, Prep};
use crate::gate::{self, Reference};
use crate::replay::{replay, LayerTimes};
use crate::serve::{self, Daemon, LoopStats};
use crate::stats::{median, minor_faults, quantile};
use crate::sweep;
use crate::{metric, Args, Metric, Outcome, WorkDir, Workload};
use chiplet_coherence::ProtocolKind;
use chiplet_harness::fleet::DiskCache;
use chiplet_harness::json;
use cpelide_bench::campaign::{self, CellSpec};
use cpelide_bench::serve::client;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Cells replayed on the sweep workloads: the first this many of the
/// timed run's first pass (a traced cell costs about 2.3 untraced ones).
const TRACE_CELLS: usize = 40;
/// Serve-probe length on the sweep workloads.
const PROBE_SECONDS: f64 = 3.0;
/// Request bodies parsed for `serve.parse_sweep_us`.
const PARSE_SAMPLES: usize = 200;
/// Protocols with a per-protocol breakdown.
const PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Baseline,
    ProtocolKind::CpElide,
    ProtocolKind::Hmg,
    ProtocolKind::Monolithic,
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Totals over the replayed cells.
#[derive(Default)]
struct Totals {
    cells: u64,
    rows_ok: u64,
    mismatches: u64,
    engine_run: Duration,
    replay_wall: Duration,
    layers: LayerTimes,
    /// Per protocol (index into [`PROTOCOLS`]): mem time, accesses, sync time.
    mem_by: [(Duration, u64); 4],
    sync_by: [Duration; 4],
    cp_audit_on: Duration,
    cp_audit_off: Duration,
    accesses: u64,
    l2_hits: u64,
    l2_accesses: u64,
    l3_hits: u64,
    l3_accesses: u64,
    remote_bytes: u64,
    dir_evictions: u64,
    sync_ops: u64,
    flushed_lines: u64,
    invalidated_lines: u64,
    cp_launches: u64,
    cp_elided: u64,
    cp_issued: u64,
    minflt: u64,
    render: Duration,
    store: Duration,
    parse: Duration,
    row: Duration,
    row_bytes: u64,
    load: Duration,
    execute_warm: Duration,
}

/// Replays every cell of `cells` (see the module docs), storing each
/// cell's rendered metrics in `cache`.
fn replay_cells(
    cells: &[CellSpec],
    reference: &Reference,
    cache: &DiskCache,
) -> Result<Totals, String> {
    let mut t = Totals::default();
    for spec in cells {
        let fp = spec.fingerprint();
        let clock = Instant::now();
        let m = spec.cell.run();
        t.engine_run += clock.elapsed();

        let clock = Instant::now();
        let rendered = m.to_json().render();
        t.render += clock.elapsed();
        let clock = Instant::now();
        cache
            .store(&fp, &rendered)
            .map_err(|e| format!("cache store: {e}"))?;
        t.store += clock.elapsed();
        let clock = Instant::now();
        let parsed = json::parse(&rendered).map_err(|e| format!("{}: {e}", spec.id()))?;
        t.parse += clock.elapsed();
        let clock = Instant::now();
        let row = spec.row(Ok(&parsed));
        t.row += clock.elapsed();
        t.row_bytes += row.render_compact().len() as u64;
        let clock = Instant::now();
        let loaded = cache.load(&fp);
        t.load += clock.elapsed();
        let clock = Instant::now();
        let warm = campaign::execute_cell(spec, Some(cache));
        t.execute_warm += clock.elapsed();
        let warm_ok = loaded.as_deref() == Some(rendered.as_str())
            && warm.cached()
            && warm.metrics.render_compact() == parsed.render_compact();
        if reference.matches(&row) && warm_ok {
            t.rows_ok += 1;
        } else {
            eprintln!(
                "perfbench: {} does not reproduce the reference row",
                spec.id()
            );
        }

        let faults = minor_faults();
        let r = replay(&spec.cell, true);
        t.minflt += minor_faults().saturating_sub(faults);
        if let Some(why) = r.mismatch(&m) {
            eprintln!("perfbench: replay mismatch on {}: {why}", spec.id());
            t.mismatches += 1;
        }
        if spec.cell.protocol == ProtocolKind::CpElide {
            let off = replay(&spec.cell, false);
            if let Some(why) = off.mismatch(&m) {
                eprintln!(
                    "perfbench: audit-off replay mismatch on {}: {why}",
                    spec.id()
                );
                t.mismatches += 1;
            }
            t.cp_audit_on += r.times.cp;
            t.cp_audit_off += off.times.cp;
        }
        t.cells += 1;
        t.replay_wall += r.wall;
        let lt = &mut t.layers;
        lt.plan += r.times.plan;
        lt.cp += r.times.cp;
        lt.sync += r.times.sync;
        lt.trace += r.times.trace;
        lt.mem += r.times.mem;
        if let Some(p) = PROTOCOLS.iter().position(|&p| p == spec.cell.protocol) {
            t.mem_by[p].0 += r.times.mem;
            t.mem_by[p].1 += r.accesses;
            t.sync_by[p] += r.times.sync;
        }
        t.accesses += r.accesses;
        t.l2_hits += r.l2.read_hits + r.l2.write_hits;
        t.l2_accesses += r.l2.accesses();
        t.l3_hits += r.l3.read_hits + r.l3.write_hits;
        t.l3_accesses += r.l3.accesses();
        t.remote_bytes += r.remote_bytes;
        t.dir_evictions += r.dir_evictions;
        t.sync_ops += r.sync_ops;
        t.flushed_lines += r.flushed_lines;
        t.invalidated_lines += r.invalidated_lines;
        t.cp_launches += r.cp_launches;
        t.cp_elided += r.cp_elided;
        t.cp_issued += r.cp_issued;
    }
    Ok(t)
}

fn layer_metrics(t: &Totals) -> Vec<Metric> {
    let n = t.cells.max(1) as f64;
    let mut out = vec![metric(
        "mem.ns_per_access",
        ratio(t.layers.mem.as_nanos() as f64, t.accesses as f64),
        "ns",
    )];
    for (i, p) in PROTOCOLS.iter().enumerate() {
        let (d, acc) = t.mem_by[i];
        out.push(metric(
            format!("mem.ns_per_access.{}", p.label()),
            ratio(d.as_nanos() as f64, acc as f64),
            "ns",
        ));
    }
    out.extend([
        metric("mem.self_ms", ms(t.layers.mem), "ms"),
        metric("mem.accesses", t.accesses as f64, "count"),
        metric(
            "mem.l2_hit_ratio",
            ratio(t.l2_hits as f64, t.l2_accesses as f64),
            "ratio",
        ),
        metric(
            "mem.l3_hit_ratio",
            ratio(t.l3_hits as f64, t.l3_accesses as f64),
            "ratio",
        ),
        metric("mem.remote_bytes", t.remote_bytes as f64, "bytes"),
        metric("mem.dir_evictions", t.dir_evictions as f64, "count"),
        metric(
            "trace.ns_per_event",
            ratio(t.layers.trace.as_nanos() as f64, t.accesses as f64),
            "ns",
        ),
        metric("trace.self_ms", ms(t.layers.trace), "ms"),
        metric("trace.events", t.accesses as f64, "count"),
        metric("proc.minflt", t.minflt as f64, "count"),
        metric("sync.self_ms", ms(t.layers.sync), "ms"),
    ]);
    for (i, p) in PROTOCOLS.iter().enumerate() {
        out.push(metric(
            format!("sync.self_ms.{}", p.label()),
            ms(t.sync_by[i]),
            "ms",
        ));
    }
    let layer_sum = ms(t.layers.total());
    out.extend([
        metric("sync.ops", t.sync_ops as f64, "count"),
        metric("sync.flushed_lines", t.flushed_lines as f64, "count"),
        metric(
            "sync.invalidated_lines",
            t.invalidated_lines as f64,
            "count",
        ),
        metric("cp.self_ms", ms(t.layers.cp), "ms"),
        metric("cp.audit_ms", ms(t.cp_audit_on) - ms(t.cp_audit_off), "ms"),
        metric("cp.launches", t.cp_launches as f64, "count"),
        metric(
            "cp.elided_ratio",
            ratio(t.cp_elided as f64, (t.cp_elided + t.cp_issued) as f64),
            "ratio",
        ),
        metric("plan.self_ms", ms(t.layers.plan), "ms"),
        metric("engine.run_ms", ms(t.engine_run), "ms"),
        metric("engine.unattributed_ms", ms(t.engine_run) - layer_sum, "ms"),
        metric("campaign.render_ms", ms(t.render), "ms"),
        metric("cache.store_ms", ms(t.store), "ms"),
        metric("json.parse_ms", ms(t.parse), "ms"),
        metric("campaign.row_bytes", t.row_bytes as f64 / n, "bytes"),
        metric("cache.load_us", t.load.as_secs_f64() * 1e6 / n, "us"),
        metric("json.parse_us", t.parse.as_secs_f64() * 1e6 / n, "us"),
        metric("campaign.row_us", t.row.as_secs_f64() * 1e6 / n, "us"),
        metric(
            "campaign.execute_warm_us",
            t.execute_warm.as_secs_f64() * 1e6 / n,
            "us",
        ),
        metric("replay.cells", t.cells as f64, "count"),
        metric("replay.mismatches", t.mismatches as f64, "count"),
        metric(
            "trace.overhead_ratio",
            ratio(t.replay_wall.as_secs_f64(), t.engine_run.as_secs_f64()),
            "ratio",
        ),
    ]);
    out
}

/// Mean µs of `client::parse_sweep` over request bodies drawn like the
/// closed loop's.
fn parse_sweep_us(pool: &[CellSpec], seed: u64) -> Result<f64, String> {
    let mut rng = crate::select::rng(seed, 200);
    let mut idx: Vec<usize> = (0..pool.len()).collect();
    let bodies: Vec<String> = (0..PARSE_SAMPLES)
        .map(|_| {
            crate::select::shuffle(&mut idx, &mut rng);
            let cells: Vec<&CellSpec> = idx[..serve::CELLS_PER_REQUEST]
                .iter()
                .map(|&i| &pool[i])
                .collect();
            serve::sweep_body("perfbench", &cells)
        })
        .collect();
    let clock = Instant::now();
    for body in &bodies {
        client::parse_sweep(body)?;
    }
    Ok(clock.elapsed().as_secs_f64() * 1e6 / bodies.len() as f64)
}

fn serve_metrics(
    stats: &LoopStats,
    daemon: &HashMap<String, f64>,
    parse_us: f64,
    calibrator: &Calibrator,
) -> Vec<Metric> {
    let get = |k: &str| daemon.get(k).copied().unwrap_or(0.0);
    // The daemon records each latency truncated to whole milliseconds;
    // adding half a millisecond per sample undoes the truncation's mean
    // bias (fractional parts spread evenly over [0, 1) ms).
    let daemon_mean = ratio(
        get("cpelide_serve_request_latency_ms_sum"),
        get("cpelide_serve_request_latency_ms_count"),
    ) + 0.5;
    let client_mean = ratio(stats.req_ms.iter().sum(), stats.req_ms.len() as f64);
    vec![
        metric("serve.parse_sweep_us", parse_us, "us"),
        metric("serve.first_row_ms_p50", median(&stats.first_row_ms), "ms"),
        metric("serve.req_ms_p50", quantile(&stats.req_ms, 0.5), "ms"),
        metric("serve.req_ms_p99", quantile(&stats.req_ms, 0.99), "ms"),
        metric(
            "serve.daemon_req_ms_p50",
            get("cpelide_serve_request_latency_ms_p50"),
            "ms",
        ),
        metric("serve.transport_ms", client_mean - daemon_mean, "ms"),
        metric(
            "serve.cache_hit_rate",
            get("cpelide_serve_cache_hit_rate"),
            "ratio",
        ),
        metric("serve.requests", stats.requests as f64, "count"),
        metric("calib.round_ms", calibrator.mean_round_s() * 1e3, "ms"),
    ]
}

/// The traced run.
///
/// # Errors
///
/// Set-up failures, and any replay that disagrees with `Simulator::run`.
pub fn run(args: &Args, reference_path: &Path, work: &WorkDir) -> Result<Outcome, String> {
    // Per-layer times are reported as measured; the calibrator paces the
    // serve probe's segments the way the timed loop does, and its mean
    // round (`calib.round_ms`) records the machine's state for comparison
    // with the timed runs' divisors.
    let mut calibrator = Calibrator::new(Prep::Walk);
    let (reference, cells, pool, daemon, accesses, probe_s, totals);
    if args.workload == Workload::ServeWarm {
        let setup = serve::setup(args, reference_path, work)?;
        let cache = DiskCache::new(
            work.fresh("replay")
                .map_err(|e| format!("replay dir: {e}"))?,
        );
        totals = replay_cells(&setup.pool, &setup.reference, &cache)?;
        reference = setup.reference;
        cells = setup.pool.clone();
        pool = setup.pool;
        daemon = setup.daemon;
        accesses = setup.accesses;
        probe_s = args.seconds;
    } else {
        let setup = sweep::setup(args, reference_path, work, "traced")?;
        cells = setup.passes[0].iter().take(TRACE_CELLS).cloned().collect();
        let results = work
            .fresh("results")
            .map_err(|e| format!("results dir: {e}"))?;
        let cache = DiskCache::new(serve::cache_dir(&results));
        totals = replay_cells(&cells, &setup.reference, &cache)?;
        reference = setup.reference;
        // One pass holds each stratum once, so these cells are distinct.
        pool = cells.clone();
        daemon = Daemon::spawn(&results)?;
        accesses = HashMap::new();
        probe_s = PROBE_SECONDS;
    }
    if totals.mismatches > 0 {
        return Err(format!(
            "{} replays disagree with Simulator::run",
            totals.mismatches
        ));
    }
    let stats = serve::closed_loop(
        daemon.addr(),
        &pool,
        &accesses,
        &reference,
        args.seed,
        probe_s,
        &mut calibrator,
    );
    let scraped = serve::scrape(daemon.addr())?;
    drop(daemon);
    let reconciled = serve::reconcile(&scraped, &stats);
    if let Err(e) = &reconciled {
        eprintln!("perfbench: reconciliation failed: {e}");
    }
    gate::self_test(&reference, &stats.rows)?;
    let parse_us = parse_sweep_us(&pool, args.seed)?;

    let mut metrics = layer_metrics(&totals);
    metrics.extend(serve_metrics(&stats, &scraped, parse_us, &calibrator));
    let attempted = cells.len() as u64 + stats.cells_attempted;
    let failed = (cells.len() as u64 - totals.rows_ok) + (stats.cells_attempted - stats.cells_ok);
    eprintln!(
        "perfbench: traced {} cells (layer sum {:.1} ms of engine {:.1} ms), {} served requests",
        totals.cells,
        ms(totals.layers.total()),
        ms(totals.engine_run),
        stats.requests
    );
    Ok(Outcome {
        correct: failed == 0 && reconciled.is_ok(),
        attempted,
        failed,
        metrics,
    })
}
