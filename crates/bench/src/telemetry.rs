//! Host-side campaign observability: the `results/campaign.prom`
//! Prometheus exposition and the wall-clock Perfetto fleet trace.
//!
//! Two clock domains, kept strictly apart (DESIGN.md §13):
//!
//! * **Deterministic section** — cell counts, cache hit/miss/corrupt
//!   counters, the merged per-phase cycle/op breakdown and the merged
//!   simulated-time histograms. For a given cell list and cache state
//!   these are byte-identical at any `CPELIDE_JOBS`; CI compares the
//!   prefix of `campaign.prom` up to [`NONDET_MARKER`] across worker
//!   counts.
//! * **Wall-clock section** — everything below the marker: worker
//!   utilization, steal counts, host job latencies, queue depths. Honest
//!   measurements of this machine, this run; never compared, never fed
//!   into reports that must reproduce.
//!
//! The fleet trace ([`host_trace`]) is the same telemetry as a timeline:
//! one `pid 0` process ("campaign fleet"), one `tid` per worker, an `X`
//! span per cell labelled `workload:protocol:chiplets`, `cache_hit`
//! instants, and a cumulative `steals` counter track. Its JSON is stamped
//! `clockDomain: "wall"` so it can never be confused with the simulator's
//! deterministic traces.

use crate::campaign::{CampaignOutcome, CellSpec};
use chiplet_harness::trace::{PromText, Tracer};

/// The comment line separating `campaign.prom`'s deterministic prefix
/// from the wall-clock section (written via [`PromText::comment`], so the
/// file carries it as `# --- ... ---`).
pub const NONDET_MARKER: &str = "--- non-deterministic below: host wall-clock domain ---";

/// Renders `results/campaign.prom`: the deterministic campaign metrics,
/// then [`NONDET_MARKER`], then the host wall-clock fleet metrics.
pub fn campaign_prom(outcome: &CampaignOutcome) -> String {
    let mut out = PromText::new();
    out.comment("cpelide campaign host telemetry");
    out.comment(
        "deterministic section: byte-identical at any CPELIDE_JOBS for a \
         given cell list and cache state",
    );

    let cells = outcome.simulated + outcome.cached + outcome.failed;
    out.counter(
        "cpelide_campaign_cells_total",
        "campaign cells enumerated",
        "",
        cells as u64,
    );
    for (state, n) in [
        ("simulated", outcome.simulated),
        ("cached", outcome.cached),
        ("failed", outcome.failed),
    ] {
        out.gauge(
            "cpelide_campaign_cells",
            "campaign cells by outcome",
            &format!("state=\"{state}\""),
            n,
        );
    }

    let cc = outcome.cache_counts;
    for (result, n) in [
        ("hit", cc.hits),
        ("miss", cc.misses),
        ("corrupt", cc.corrupt),
    ] {
        out.counter(
            "cpelide_campaign_cache_lookups",
            "result-cache lookups by outcome (corrupt = hit that failed to parse)",
            &format!("result=\"{result}\""),
            n,
        );
    }
    out.gauge(
        "cpelide_campaign_cache_hit_rate",
        "fraction of lookups served a usable cached result",
        "",
        format!("{:.6}", cc.hit_rate()),
    );

    for (p, st) in outcome.phases.entries() {
        let labels = format!("phase=\"{}\"", p.label());
        out.gauge(
            "cpelide_campaign_phase_cycles",
            "simulated cycles attributed to an engine pipeline phase, summed over simulated cells",
            &labels,
            format!("{:.0}", st.cycles),
        );
        out.gauge(
            "cpelide_campaign_phase_ops",
            "operations attributed to an engine pipeline phase, summed over simulated cells",
            &labels,
            st.ops,
        );
        out.gauge(
            "cpelide_campaign_phase_fraction",
            "phase share of total simulated cycles",
            &labels,
            format!("{:.6}", outcome.phases.fraction(p)),
        );
    }
    outcome.hist.prometheus_text("", &mut out);

    out.comment(NONDET_MARKER);
    let t = &outcome.telemetry;
    out.gauge(
        "cpelide_fleet_workers",
        "fleet worker threads this run",
        "",
        t.workers,
    );
    out.gauge(
        "cpelide_fleet_elapsed_us",
        "wall microseconds from pool launch to full join",
        "",
        t.elapsed_us,
    );
    out.counter(
        "cpelide_fleet_jobs_stolen_total",
        "jobs that ran on a worker other than the one they were striped to",
        "",
        t.stolen_total(),
    );
    for (w, wt) in t.per_worker.iter().enumerate() {
        let labels = format!("worker=\"{w}\"");
        out.gauge(
            "cpelide_fleet_worker_jobs",
            "jobs executed per worker",
            &labels,
            wt.executed,
        );
        out.gauge(
            "cpelide_fleet_worker_stolen",
            "stolen jobs per worker",
            &labels,
            wt.stolen,
        );
        out.gauge(
            "cpelide_fleet_worker_utilization",
            "fraction of the pool lifetime spent inside job bodies",
            &labels,
            format!("{:.6}", t.utilization(w)),
        );
    }
    t.job_latency_us.prometheus_text(
        "cpelide_fleet",
        "",
        "per-job wall-clock latency in microseconds",
        &mut out,
    );
    t.queue_depth.prometheus_text(
        "cpelide_fleet",
        "",
        "own-deque depth observed before each pop",
        &mut out,
    );
    out.finish()
}

/// The deterministic prefix of a rendered `campaign.prom`: every line up
/// to (excluding) the [`NONDET_MARKER`] comment. This is the portion CI
/// byte-compares across `CPELIDE_JOBS` settings.
pub fn deterministic_prefix(prom: &str) -> &str {
    match prom.find(NONDET_MARKER) {
        Some(pos) => {
            // Back up to the start of the marker's comment line.
            let line_start = prom[..pos].rfind('\n').map(|i| i + 1).unwrap_or(0);
            &prom[..line_start]
        }
        None => prom,
    }
}

/// Builds the host-side fleet timeline from the campaign's per-job
/// execution log: worker lanes, one span per cell, cache-hit instants and
/// a cumulative steal counter, all stamped in wall microseconds.
pub fn host_trace(specs: &[CellSpec], outcome: &CampaignOutcome) -> Tracer {
    let t = &outcome.telemetry;
    let mut tr = Tracer::new_wall();
    tr.name_process(0, "campaign fleet");
    for w in 0..t.workers {
        tr.name_thread(0, w as u32, format!("worker {w}"));
    }
    // Seed the counter track at t=0 so it exists even on steal-free runs.
    tr.counter("steals", "fleet", 0.0, 0, vec![("stolen", 0.0)]);

    let mut stolen_so_far = 0.0f64;
    let mut by_start: Vec<usize> = (0..t.jobs_log.len()).collect();
    by_start.sort_by_key(|&i| t.jobs_log[i].start_us);
    for i in by_start {
        let rec = t.jobs_log[i];
        let label = specs
            .get(rec.index)
            .map(CellSpec::id)
            .unwrap_or_else(|| format!("job {}", rec.index));
        tr.complete(
            label,
            "cell",
            rec.start_us as f64,
            rec.dur_us as f64,
            0,
            rec.worker as u32,
            vec![
                ("index", rec.index as f64),
                ("stolen", f64::from(u8::from(rec.stolen))),
            ],
        );
        if outcome.cell_cached.get(rec.index).copied().unwrap_or(false) {
            tr.instant(
                "cache_hit",
                "cache",
                rec.start_us as f64,
                0,
                rec.worker as u32,
                vec![("index", rec.index as f64)],
            );
        }
        if rec.stolen {
            stolen_so_far += 1.0;
            tr.counter(
                "steals",
                "fleet",
                rec.start_us as f64,
                0,
                vec![("stolen", stolen_so_far)],
            );
        }
    }
    tr
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_harness::fleet;

    fn smoke_outcome(workers: usize) -> (Vec<CellSpec>, CampaignOutcome) {
        let w = chiplet_workloads::lookup("btree").unwrap_or_else(|e| panic!("{e}"));
        let specs: Vec<CellSpec> = crate::campaign::PROTOCOLS
            .iter()
            .map(|&p| {
                CellSpec::new(
                    chiplet_sim::Cell::new(w.clone(), p, 2),
                    crate::campaign::SuiteTag::Main,
                )
            })
            .collect();
        let outcome = crate::campaign::run(&specs, workers, None, None, false);
        (specs, outcome)
    }

    #[test]
    fn campaign_prom_is_valid_exposition_with_both_sections() {
        let (_, outcome) = smoke_outcome(2);
        let prom = campaign_prom(&outcome);
        let samples = chiplet_harness::trace::prom::parse(&prom)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}"));
        assert!(!samples.is_empty());
        assert!(prom.contains(NONDET_MARKER));
        let det = deterministic_prefix(&prom);
        assert!(det.contains("cpelide_campaign_phase_cycles"));
        assert!(det.contains("cpelide_campaign_cache_hit_rate"));
        assert!(
            !det.contains("cpelide_fleet_"),
            "wall metrics leaked above the marker"
        );
        assert!(prom.contains("cpelide_fleet_worker_utilization"));
        assert!(prom.contains("cpelide_fleet_job_wall_us_count"));
    }

    #[test]
    fn deterministic_prefix_stops_at_the_marker() {
        let prom = "a 1\n# other comment\nb 2\n# ".to_owned() + NONDET_MARKER + "\nc 3\n";
        let det = deterministic_prefix(&prom);
        assert_eq!(det, "a 1\n# other comment\nb 2\n");
        assert_eq!(deterministic_prefix("a 1\n"), "a 1\n");
    }

    #[test]
    fn host_trace_covers_every_cell_on_worker_lanes() {
        let (specs, outcome) = smoke_outcome(2);
        let tr = host_trace(&specs, &outcome);
        assert_eq!(tr.clock(), chiplet_harness::trace::ClockDomain::WallMicros);
        tr.balanced().unwrap_or_else(|e| panic!("{e}"));
        let spans: Vec<_> = tr.events().iter().filter(|e| e.cat == "cell").collect();
        assert_eq!(spans.len(), specs.len());
        for spec in &specs {
            assert!(
                spans.iter().any(|e| e.name == spec.id()),
                "no span for {}",
                spec.id()
            );
        }
        let json = tr.to_chrome_json();
        chiplet_harness::json::parse(&json).unwrap_or_else(|e| panic!("{e}"));
        assert!(json.contains("\"clockDomain\":\"wall\""));
        assert!(json.contains("worker 0"));
        assert!(
            tr.events()
                .iter()
                .any(|e| e.name == "steals" && e.cat == "fleet"),
            "steal counter track missing"
        );
    }

    #[test]
    fn obs_section_renders_tables_from_campaign_prom() {
        let (_, outcome) = smoke_outcome(2);
        let prom = campaign_prom(&outcome);
        let s = crate::report::obs_section(&prom).unwrap_or_else(|e| panic!("{e}"));
        assert!(s.contains("Campaign cells"));
        assert!(s.contains("Engine phase breakdown"));
        assert!(s.contains("access_replay"));
        assert!(s.contains("Fleet (wall clock"));
        assert!(s.contains("utilization"));
        assert!(
            crate::report::obs_section("cpelide_campaign_cells 1\n").is_err(),
            "missing families must be reported, not skipped"
        );
    }

    #[test]
    fn fleet_telemetry_is_consistent_with_the_run() {
        let (specs, outcome) = smoke_outcome(fleet::workers().clamp(2, 4));
        let t = &outcome.telemetry;
        assert_eq!(t.jobs as usize, specs.len());
        assert_eq!(t.executed_total() as usize, specs.len());
        assert_eq!(t.jobs_log.len(), specs.len());
        assert_eq!(outcome.cell_cached.len(), specs.len());
        assert_eq!(outcome.simulated, specs.len(), "no cache: all simulated");
        assert!(outcome.phases.total_ops() > 0);
    }
}
