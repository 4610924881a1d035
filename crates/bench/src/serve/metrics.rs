//! The daemon's `/metrics` endpoint: service counters, queue gauges and
//! request-latency histograms rendered as Prometheus text exposition via
//! `chiplet_obs::prom` (re-exported as `chiplet_harness::trace::prom`),
//! so the output parses with the same validator the campaign telemetry
//! artifact uses.

use chiplet_harness::trace::prom::PromText;
use chiplet_harness::trace::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use super::sched::Scheduler;

/// Shared service counters. Cheap atomics on the hot path; the latency
/// histogram takes a short lock only at request completion.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Sweep requests admitted.
    requests_total: AtomicU64,
    /// Sweep requests refused with backpressure (the daemon's 429).
    rejected_total: AtomicU64,
    /// Requests refused as malformed (bad JSON, unknown axis, bad client).
    bad_requests_total: AtomicU64,
    /// Cells completed (ok + failed; cancellations count separately).
    cells_total: AtomicU64,
    /// Completed cells served from the disk cache or the row memo.
    cache_hits_total: AtomicU64,
    /// Completed cells whose job panicked.
    cells_failed_total: AtomicU64,
    /// Cells cancelled before starting (deadline or disconnect).
    cells_cancelled_total: AtomicU64,
    /// End-to-end sweep latency in whole milliseconds (from before
    /// request validation to the last cell streamed), log2-bucketed;
    /// exposes p50/p90/p99 gauges.
    latency_ms: Mutex<Histogram>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        ServeMetrics {
            requests_total: AtomicU64::new(0),
            rejected_total: AtomicU64::new(0),
            bad_requests_total: AtomicU64::new(0),
            cells_total: AtomicU64::new(0),
            cache_hits_total: AtomicU64::new(0),
            cells_failed_total: AtomicU64::new(0),
            cells_cancelled_total: AtomicU64::new(0),
            latency_ms: Mutex::new(Histogram::new("request_latency_ms")),
        }
    }

    /// Counts one admitted sweep request.
    pub fn note_request(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one backpressure rejection.
    pub fn note_rejected(&self) {
        self.rejected_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one malformed request.
    pub fn note_bad_request(&self) {
        self.bad_requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one completed cell (`cached` from the disk cache or the row
    /// memo, `failed` if its job panicked).
    pub fn note_cell(&self, cached: bool, failed: bool) {
        self.cells_total.fetch_add(1, Ordering::Relaxed);
        if cached {
            self.cache_hits_total.fetch_add(1, Ordering::Relaxed);
        }
        if failed {
            self.cells_failed_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one cancelled (never-started) cell.
    pub fn note_cancelled(&self) {
        self.cells_cancelled_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request's end-to-end latency.
    pub fn observe_latency_ms(&self, ms: u64) {
        self.latency_ms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .observe(ms);
    }

    /// Completed cells so far (tests use this to await quiescence).
    pub fn cells_total(&self) -> u64 {
        self.cells_total.load(Ordering::Relaxed)
    }

    /// Cache hits so far.
    pub fn cache_hits_total(&self) -> u64 {
        self.cache_hits_total.load(Ordering::Relaxed)
    }

    /// Renders the full `/metrics` exposition: service counters, the
    /// cache hit rate, live queue gauges read from `sched` (global depth
    /// and one labelled sample per client with queued cells), worker
    /// count, and the latency histogram with percentile gauges. Output
    /// always passes `chiplet_obs::prom::parse`.
    pub fn exposition(&self, sched: &Scheduler, workers: usize) -> String {
        let mut p = PromText::new();
        p.comment("cpelide campaign daemon");
        let cells = self.cells_total.load(Ordering::Relaxed);
        let hits = self.cache_hits_total.load(Ordering::Relaxed);
        p.counter(
            "cpelide_serve_requests_total",
            "sweep requests admitted",
            "",
            self.requests_total.load(Ordering::Relaxed),
        );
        p.counter(
            "cpelide_serve_rejected_total",
            "sweep requests refused with backpressure (429)",
            "",
            self.rejected_total.load(Ordering::Relaxed),
        );
        p.counter(
            "cpelide_serve_bad_requests_total",
            "malformed sweep requests refused (400)",
            "",
            self.bad_requests_total.load(Ordering::Relaxed),
        );
        p.counter("cpelide_serve_cells_total", "cells completed", "", cells);
        p.counter(
            "cpelide_serve_cache_hits_total",
            "completed cells served from the disk cache or the row memo",
            "",
            hits,
        );
        p.counter(
            "cpelide_serve_cells_failed_total",
            "completed cells whose job panicked",
            "",
            self.cells_failed_total.load(Ordering::Relaxed),
        );
        p.counter(
            "cpelide_serve_cells_cancelled_total",
            "cells cancelled before starting (deadline or disconnect)",
            "",
            self.cells_cancelled_total.load(Ordering::Relaxed),
        );
        p.gauge(
            "cpelide_serve_cache_hit_rate",
            "cache hits over completed cells (0 when idle)",
            "",
            if cells == 0 {
                0.0
            } else {
                hits as f64 / cells as f64
            },
        );
        p.gauge(
            "cpelide_serve_queue_depth",
            "cells queued for execution across all clients",
            "",
            sched.queue_depth(),
        );
        for (client, depth) in sched.per_client_depth() {
            p.gauge(
                "cpelide_serve_client_queue_depth",
                "cells queued per client",
                &format!("client=\"{client}\""),
                depth,
            );
        }
        p.gauge(
            "cpelide_serve_workers",
            "persistent worker threads",
            "",
            workers,
        );
        self.latency_ms
            .lock()
            .unwrap_or_else(|g| g.into_inner())
            .prometheus_text(
                "cpelide_serve",
                "",
                "end-to-end sweep request latency (ms)",
                &mut p,
            );
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_harness::trace::prom;
    use std::sync::Arc;

    #[test]
    fn exposition_parses_and_reports_hit_rate() {
        let m = Arc::new(ServeMetrics::new());
        let sched = Scheduler::new(8, None, Arc::clone(&m));
        m.note_request();
        m.note_cell(true, false);
        m.note_cell(false, false);
        m.note_rejected();
        m.observe_latency_ms(12);
        let text = m.exposition(&sched, 3);
        let samples = prom::parse(&text).expect("exposition must parse");
        let find = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .value
        };
        assert!((find("cpelide_serve_cache_hit_rate") - 0.5).abs() < 1e-12);
        assert_eq!(find("cpelide_serve_requests_total") as u64, 1);
        assert_eq!(find("cpelide_serve_rejected_total") as u64, 1);
        assert_eq!(find("cpelide_serve_workers") as u64, 3);
        assert_eq!(find("cpelide_serve_request_latency_ms_count") as u64, 1);
        assert!(samples
            .iter()
            .any(|s| s.name == "cpelide_serve_request_latency_ms_p99"));
    }
}
