//! The campaign runner: the paper's full evaluation sweep as one flat
//! list of independent (workload, protocol, chiplet-count) cells, fanned
//! out across the `chiplet_harness::fleet` pool with content-hash result
//! caching.
//!
//! `--bin campaign` enumerates every cell, runs them across
//! `CPELIDE_JOBS` workers (cache hits are parsed instead of re-simulated)
//! and writes `results/campaign.json` — the single machine-readable
//! source of truth the `report` binary regenerates EXPERIMENTS.md and
//! `results/figures.txt` from. `--bin studies` runs every cell it needs
//! through [`run`] as well: its off-grid chiplet counts, the HMG
//! write-back cells, and the config-variant cells of the §VI studies and
//! the sensitivity sweeps. Each cell's key ([`CellSpec::fingerprint`])
//! covers what it computes, so a study cell that resolves to a grid cell
//! is that cell's cache hit.
//!
//! Determinism contract: the cell list, each cell's metrics, the summary
//! and the rendered report are all independent of the worker count and of
//! which cells came from the cache. The fleet commits results in
//! submission order; cached cells round-trip through the same
//! parse→render path as fresh ones; and the report deliberately carries
//! no wall-clock, worker-count or cache-hit fields (those go to stdout).

use crate::results_dir;
use chiplet_coherence::ProtocolKind;
use chiplet_harness::fleet::{
    self, CacheCounts, DiskCache, Fingerprint, FleetTelemetry, JobFailure,
};
use chiplet_harness::json::{self, Json};
use chiplet_sim::metrics::{geomean, RunHistograms};
use chiplet_sim::phase::PhaseProfile;
use chiplet_sim::Cell;
use chiplet_workloads::{ReuseClass, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Schema tag stamped into `campaign.json`; bump on layout changes so the
/// report generator can refuse documents it does not understand.
pub const SCHEMA: &str = "cpelide-campaign-v1";

/// Manually-bumped model revision folded into every cell fingerprint.
/// The per-cell fingerprint already covers the workload definition and
/// the resolved `SimConfig` ([`Cell::key`]), but not the simulator
/// *code*; bump this whenever engine behavior changes — i.e. exactly when
/// the golden snapshots under `tests/golden/` are re-blessed — so stale
/// cached cells are invalidated with the same stroke. (`r5` marks the
/// switch from `Debug`-rendered keys to [`Cell::key`].)
pub const MODEL_REVISION: &str = "golden-r5";

/// The protocols every sweep cell set covers (Figure 8/9/10 order).
pub const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Baseline,
    ProtocolKind::CpElide,
    ProtocolKind::Hmg,
];

/// Which suite a cell belongs to (the summary aggregates them separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteTag {
    /// The 24-application Table II suite.
    Main,
    /// The §VI multi-stream suite.
    MultiStream,
}

impl SuiteTag {
    /// The tag as it appears in `campaign.json`.
    pub fn label(self) -> &'static str {
        match self {
            SuiteTag::Main => "main",
            SuiteTag::MultiStream => "multistream",
        }
    }

    /// The inverse of [`SuiteTag::label`]: parses an externally-supplied
    /// suite name (a daemon sweep request field) back into the tag.
    pub fn parse(label: &str) -> Option<SuiteTag> {
        match label {
            "main" => Some(SuiteTag::Main),
            "multistream" => Some(SuiteTag::MultiStream),
            _ => None,
        }
    }
}

/// One enumerated campaign cell: a simulator cell plus its suite tag.
///
/// The cell's fingerprint is computed on first use and memoised, so a
/// spec pays the encoding of its workload once however often its cache
/// key and row are derived; a clone made after that carries the
/// value. The memo assumes `cell` and `suite` are not changed after the
/// first [`CellSpec::fingerprint`]; debug builds check it on every call.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// The (workload, protocol, chiplets, variant) simulator cell.
    pub cell: Cell,
    /// Which suite the cell aggregates under.
    pub suite: SuiteTag,
    fingerprint: OnceLock<String>,
}

impl CellSpec {
    /// A campaign cell; its fingerprint is computed lazily, on first use.
    pub fn new(cell: Cell, suite: SuiteTag) -> Self {
        CellSpec {
            cell,
            suite,
            fingerprint: OnceLock::new(),
        }
    }

    /// The cell's content fingerprint: [`SCHEMA`], [`MODEL_REVISION`], the
    /// suite label, the protocol and chiplet count, then what the cell
    /// computes ([`Cell::key`]: the workload definition and the resolved
    /// `SimConfig`). Two cells share a cache entry exactly when they
    /// compute the same thing, whatever variant label they carry.
    ///
    /// # Panics
    ///
    /// Panics if the chiplet count has no Table 1 configuration (only a
    /// spec that bypassed `Cell::validated` can carry one).
    pub fn fingerprint(&self) -> String {
        let memo = self.fingerprint.get_or_init(|| self.compute_fingerprint());
        debug_assert_eq!(
            *memo,
            self.compute_fingerprint(),
            "cell {} changed after its fingerprint was memoised",
            self.id()
        );
        memo.clone()
    }

    fn compute_fingerprint(&self) -> String {
        let fp = Fingerprint::new()
            .push_str(SCHEMA)
            .push_str(MODEL_REVISION)
            .push_str(self.suite.label())
            .push_str(self.cell.protocol.label())
            .push_u64(self.cell.chiplets as u64);
        self.cell.key(fp).hex()
    }

    /// `workload:protocol:chiplets`, plus `:variant` off Table 1 (say
    /// `lud:CPElide:4:n=8`): the identity used by `CPELIDE_FAIL_CELL` and
    /// in progress/error messages.
    pub fn id(&self) -> String {
        let c = &self.cell;
        let id = format!(
            "{}:{}:{}",
            c.workload.name(),
            c.protocol.label(),
            c.chiplets
        );
        match c.variant.label() {
            Some(variant) => id + ":" + &variant,
            None => id,
        }
    }

    /// Renders this cell's `campaign.json` row from its outcome: the
    /// identity fields (with `variant` only off Table 1), the fingerprint,
    /// then either the parsed metrics or the failure marker. The batch
    /// reducer and the daemon's streaming responses both go through here,
    /// which is what makes "served cells are byte-identical to batch
    /// cells" a structural guarantee instead of a convention.
    pub fn row(&self, outcome: Result<&Json, &str>) -> Json {
        let mut row = Json::object()
            .with("workload", self.cell.workload.name())
            .with("class", self.cell.workload.class().to_string())
            .with("suite", self.suite.label())
            .with("protocol", self.cell.protocol.label())
            .with("chiplets", self.cell.chiplets);
        if let Some(variant) = self.cell.variant.label() {
            row.set("variant", variant);
        }
        row.set("fingerprint", self.fingerprint());
        match outcome {
            Ok(metrics) => {
                row.set("metrics", metrics.clone());
            }
            Err(message) => {
                row.set("failed", true).set("error", message);
            }
        }
        row
    }
}

/// Enumerates the full campaign: the Table II suite under every protocol
/// at every Figure 8 chiplet count, the Figure 2 monolithic comparison at
/// 4 chiplets, and the §VI multi-stream suite at 4 chiplets. Honors
/// `CPELIDE_SMOKE` through the same suite/chiplet shrinking as the figure
/// binaries, so smoke campaigns stay CI-cheap.
pub fn cells() -> Vec<CellSpec> {
    let suite = crate::effective_suite();
    let counts = crate::pick(vec![2usize, 4, 6, 7], vec![2, 4]);
    let spec =
        |w: &Workload, p, chiplets, suite| CellSpec::new(Cell::new(w.clone(), p, chiplets), suite);
    let mut out = Vec::new();
    for &chiplets in &counts {
        for w in &suite {
            for p in PROTOCOLS {
                out.push(spec(w, p, chiplets, SuiteTag::Main));
            }
        }
    }
    for w in &suite {
        out.push(spec(w, ProtocolKind::Monolithic, 4, SuiteTag::Main));
    }
    for w in &crate::effective_multistream_suite() {
        for p in PROTOCOLS {
            out.push(spec(w, p, 4, SuiteTag::MultiStream));
        }
    }
    out
}

/// The campaign cache honoring the environment: `results/cache/` under
/// the results dir, or `None` when `CPELIDE_CACHE=0`.
pub fn cache_from_env() -> Option<DiskCache> {
    if std::env::var("CPELIDE_CACHE").is_ok_and(|v| v == "0") {
        return None;
    }
    Some(DiskCache::new(results_dir().join("cache")))
}

/// The `CPELIDE_FAIL_CELL` test hook: a cell id to deliberately panic on,
/// exercising the fleet's poison containment end to end.
pub fn fail_cell_from_env() -> Option<String> {
    std::env::var("CPELIDE_FAIL_CELL")
        .ok()
        .filter(|v| !v.is_empty())
}

/// What one cell execution hands back: to the batch reducer, or to the
/// daemon's scheduler.
pub struct CellOutcome {
    /// The cell's metrics (parsed from the rendered form, so cached and
    /// fresh cells are bit-for-bit interchangeable).
    pub metrics: Json,
    /// Distributions, only when the cell was actually simulated.
    pub hist: Option<RunHistograms>,
    /// Phase breakdown, only when the cell was actually simulated (the
    /// cached JSON deliberately does not carry it).
    pub phases: Option<PhaseProfile>,
}

impl CellOutcome {
    /// True when the cell came from the cache rather than a simulation
    /// (cached outcomes carry no histograms or phase profile).
    pub fn cached(&self) -> bool {
        self.hist.is_none()
    }
}

/// Executes one cell the way the campaign does: consult `cache` under the
/// cell's content fingerprint, parse a hit (a corrupt entry is counted
/// and falls through to re-simulation), otherwise simulate, store the
/// rendered metrics, and re-parse them so cached and fresh cells travel
/// the identical parse→render path. This is the single execution seam
/// shared by the batch runner ([`run`]) and the campaign daemon — cache
/// entries written by one are served, byte-for-byte, by the other.
///
/// # Panics
///
/// Panics if the simulated metrics render to invalid JSON (a simulator
/// bug); under the fleet this is contained as a [`JobFailure`].
pub fn execute_cell(spec: &CellSpec, cache: Option<&DiskCache>) -> CellOutcome {
    let key = spec.fingerprint();
    if let Some(hit) = cache.and_then(|c| c.load(&key)) {
        // A corrupt cache entry falls through to re-simulation.
        match json::parse(&hit) {
            Ok(metrics) => {
                return CellOutcome {
                    metrics,
                    hist: None,
                    phases: None,
                }
            }
            Err(_) => {
                if let Some(c) = cache {
                    c.note_corrupt();
                }
            }
        }
    }
    let m = spec.cell.run();
    let rendered = m.to_json().render();
    if let Some(c) = cache {
        // A read-only cache dir only costs re-simulation next run.
        let _ = c.store(&key, &rendered);
    }
    let metrics = json::parse(&rendered)
        .unwrap_or_else(|e| panic!("cell {} rendered invalid JSON: {e}", spec.id()));
    CellOutcome {
        metrics,
        hist: Some(m.hist),
        phases: Some(m.phases),
    }
}

/// Everything a campaign run produces.
pub struct CampaignOutcome {
    /// The validated `campaign.json` document.
    pub report: Json,
    /// Cells simulated this run.
    pub simulated: usize,
    /// Cells served from the cache.
    pub cached: usize,
    /// Cells whose job panicked.
    pub failed: usize,
    /// Distributions merged over every *simulated* cell, in submission
    /// order (stdout diagnostics; deliberately absent from the report).
    pub hist: RunHistograms,
    /// Phase breakdown merged over every *simulated* cell, in submission
    /// order. Deterministic for a given cell list and cache state.
    pub phases: PhaseProfile,
    /// Host-side fleet telemetry: worker counters, wall-clock latencies,
    /// the per-job execution log. Wall fields are non-deterministic.
    pub telemetry: FleetTelemetry,
    /// Cache hit/miss/corrupt counters for this run (all zero when the
    /// cache was disabled).
    pub cache_counts: CacheCounts,
    /// The failed jobs, labelled with their cell ids, in submission order.
    pub failures: Vec<JobFailure>,
    /// Per cell, in submission order: was it served from the cache?
    pub cell_cached: Vec<bool>,
}

/// Live counters behind the `--progress` stderr ticker: shared by the
/// fleet jobs via plain atomics (the `fleet-capture` lint bans lock-based
/// sharing inside job closures, and the ticker must never perturb
/// results). Ticks go to stderr only, so stdout and every artifact stay
/// byte-identical with the ticker on or off.
struct ProgressTicker {
    enabled: bool,
    total: usize,
    done: AtomicUsize,
    hits: AtomicUsize,
    failed: AtomicUsize,
}

impl ProgressTicker {
    fn new(enabled: bool, total: usize) -> Self {
        ProgressTicker {
            enabled,
            total,
            done: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
        }
    }

    fn guard(&self) -> ProgressGuard<'_> {
        ProgressGuard {
            ticker: self,
            ok: false,
            hit: false,
        }
    }
}

/// Per-job RAII tick: counts the job on drop, so a panicking cell still
/// registers (as a failure) when its stack unwinds through the fleet's
/// `catch_unwind`.
struct ProgressGuard<'a> {
    ticker: &'a ProgressTicker,
    ok: bool,
    hit: bool,
}

impl Drop for ProgressGuard<'_> {
    fn drop(&mut self) {
        let t = self.ticker;
        let done = t.done.fetch_add(1, Ordering::Relaxed) + 1;
        if self.hit {
            t.hits.fetch_add(1, Ordering::Relaxed);
        }
        if !self.ok {
            t.failed.fetch_add(1, Ordering::Relaxed);
        }
        if t.enabled {
            eprintln!(
                "campaign: {done}/{} cells ({} cache hits, {} failed)",
                t.total,
                t.hits.load(Ordering::Relaxed),
                t.failed.load(Ordering::Relaxed),
            );
        }
    }
}

/// Runs the campaign: fans `specs` out across `workers` fleet threads,
/// consults `cache` per cell, and reduces the results — in submission
/// order — into the `campaign.json` document plus run statistics.
/// `fail_cell` poisons the matching job (test hook). Failed cells land in
/// the report as `"failed": true` entries and suppress the summary.
/// `progress` turns on a stderr-only done/total ticker; it never touches
/// stdout or the artifacts.
pub fn run(
    specs: &[CellSpec],
    workers: usize,
    cache: Option<&DiskCache>,
    fail_cell: Option<&str>,
    progress: bool,
) -> CampaignOutcome {
    let ticker = ProgressTicker::new(progress, specs.len());
    let (outcomes, telemetry) = fleet::parallel_map_telemetry(
        specs,
        workers,
        |spec| spec.id(),
        |spec| {
            let mut tick = ticker.guard();
            if fail_cell.is_some_and(|id| id == spec.id()) {
                panic!("CPELIDE_FAIL_CELL poisoned cell {}", spec.id());
            }
            let outcome = execute_cell(spec, cache);
            tick.hit = outcome.cached();
            tick.ok = true;
            outcome
        },
    );

    let mut simulated = 0usize;
    let mut cached = 0usize;
    let mut failed = 0usize;
    let mut hist = RunHistograms::new();
    let mut phases = PhaseProfile::new();
    let mut failures: Vec<JobFailure> = Vec::new();
    let mut cell_cached: Vec<bool> = Vec::with_capacity(specs.len());
    let mut rows: Vec<Json> = Vec::with_capacity(specs.len());
    for (spec, outcome) in specs.iter().zip(outcomes) {
        let row = match outcome {
            Ok(cell) => {
                match &cell.hist {
                    Some(h) => {
                        simulated += 1;
                        hist.merge(h);
                    }
                    None => cached += 1,
                }
                cell_cached.push(cell.cached());
                if let Some(p) = &cell.phases {
                    phases.merge(p);
                }
                spec.row(Ok(&cell.metrics))
            }
            Err(e) => {
                failed += 1;
                cell_cached.push(false);
                let row = spec.row(Err(e.message.as_str()));
                failures.push(e);
                row
            }
        };
        rows.push(row);
    }

    let summary = if failed == 0 {
        // chiplet-check: allow(no-panic) — `CellSpec::row` writes every
        // identity field, and metrics for every cell that did not fail
        summarize(&rows).expect("ok cells' rows are well-formed")
    } else {
        Json::object().with("incomplete", true)
    };
    let report = Json::object()
        .with("schema", SCHEMA)
        .with("model_revision", MODEL_REVISION)
        .with("mode", if crate::smoke() { "smoke" } else { "full" })
        .with("cells", Json::Arr(rows))
        .with("summary", summary);
    CampaignOutcome {
        report,
        simulated,
        cached,
        failed,
        hist,
        phases,
        telemetry,
        cache_counts: cache.map(DiskCache::counts).unwrap_or_default(),
        failures,
        cell_cached,
    }
}

/// A metric extracted from one cell's parsed JSON.
fn num(metrics: &Json, key: &str) -> f64 {
    metrics.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn total_flits(metrics: &Json) -> f64 {
    let t = metrics.get("traffic").unwrap_or(&Json::Null);
    num(t, "l1_l2_flits") + num(t, "l2_l3_flits") + num(t, "remote_flits")
}

fn l2l3_flits(metrics: &Json) -> f64 {
    num(metrics.get("traffic").unwrap_or(&Json::Null), "l2_l3_flits")
}

/// One Table 1 row of a campaign document: its identity and metrics.
struct GridRow<'a> {
    suite: &'a str,
    workload: &'a str,
    class: &'a str,
    protocol: &'a str,
    chiplets: u64,
    metrics: &'a Json,
}

/// The Table 1 rows of a campaign document's `cells`, looked up by cell
/// identity: the one row index [`summarize`] and the figure renderers
/// (`crate::report`) read. A config-variant row (one with a `variant`
/// field) is left out: it must never stand in for its grid cell.
pub struct Grid<'a> {
    rows: Vec<GridRow<'a>>,
}

impl<'a> Grid<'a> {
    /// Indexes the Table 1 rows of `cells`.
    ///
    /// # Errors
    ///
    /// A Table 1 row without a string `suite`, `workload`, `class` or
    /// `protocol`, a numeric `chiplets` or a `metrics` field (a failed
    /// cell's row, say) is an error naming the row's index.
    pub fn of(cells: &'a [Json]) -> Result<Self, String> {
        let mut rows = Vec::with_capacity(cells.len());
        for (i, row) in cells.iter().enumerate() {
            if row.get("variant").is_some() {
                continue;
            }
            let bad = |key: &str| format!("campaign cell {i} has no valid `{key}`");
            let text = |key: &str| -> Result<&'a str, String> {
                row.get(key).and_then(Json::as_str).ok_or_else(|| bad(key))
            };
            rows.push(GridRow {
                suite: text("suite")?,
                workload: text("workload")?,
                class: text("class")?,
                protocol: text("protocol")?,
                chiplets: row
                    .get("chiplets")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("chiplets"))? as u64,
                metrics: row.get("metrics").ok_or_else(|| bad("metrics"))?,
            });
        }
        Ok(Grid { rows })
    }

    /// The metrics of one cell, if the document has it.
    pub fn get(
        &self,
        suite: &str,
        workload: &str,
        protocol: ProtocolKind,
        chiplets: u64,
    ) -> Option<&'a Json> {
        self.rows
            .iter()
            .find(|r| {
                r.suite == suite
                    && r.workload == workload
                    && r.protocol == protocol.label()
                    && r.chiplets == chiplets
            })
            .map(|r| r.metrics)
    }

    /// `(workload, class)` for every workload of `suite`, in row order.
    pub fn workloads(&self, suite: &str) -> Vec<(&'a str, &'a str)> {
        let rows = self.rows.iter().filter(|r| r.suite == suite);
        distinct(rows.map(|r| (r.workload, r.class)))
    }
}

/// The distinct items in first-seen order.
pub(crate) fn distinct<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut seen = Vec::new();
    for item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen
}

/// Derives the headline summary from a campaign document's `cells` rows.
/// Pure arithmetic over already-committed values, so it inherits the
/// cells' worker-count independence, and `report --check` re-derives it
/// from the committed rows.
///
/// A section appears only when its cells do: a document without
/// 4-chiplet Baseline and Monolithic cells gets no `fig2`, one without
/// 4-chiplet Baseline/CPElide/HMG triples no `energy` and `traffic`,
/// one without 4-chiplet CPElide cells no `occupancy`, one without
/// multi-stream pairs no `multistream`, and `fig8` lists only the chiplet
/// counts that have at least one full protocol triple.
///
/// # Errors
///
/// A malformed Table 1 row, as [`Grid::of`] refuses it.
pub fn summarize(rows: &[Json]) -> Result<Json, String> {
    let grid = Grid::of(rows)?;
    let main = SuiteTag::Main.label();
    let multi = SuiteTag::MultiStream.label();
    let main_workloads = grid.workloads(main);
    let mono = ProtocolKind::Monolithic.label();
    let counts = distinct(
        grid.rows
            .iter()
            .filter(|r| r.suite == main && r.protocol != mono)
            .map(|r| r.chiplets),
    );
    let reuse = ReuseClass::ModerateHigh.to_string();
    let low = ReuseClass::Low.to_string();
    let mut summary = Json::object();

    // Figure 2: baseline-vs-monolithic loss at 4 chiplets.
    let losses: Vec<f64> = main_workloads
        .iter()
        .filter_map(|&(w, _)| {
            let base = grid.get(main, w, ProtocolKind::Baseline, 4)?;
            let mono = grid.get(main, w, ProtocolKind::Monolithic, 4)?;
            Some(num(base, "cycles") / num(mono, "cycles") - 1.0)
        })
        .collect();
    if !losses.is_empty() {
        summary.set(
            "fig2",
            Json::object()
                .with("avg_loss", losses.iter().sum::<f64>() / losses.len() as f64)
                .with(
                    "min_loss",
                    losses.iter().copied().fold(f64::INFINITY, f64::min),
                )
                .with("max_loss", losses.iter().copied().fold(0.0, f64::max)),
        );
    }

    // Figure 8: per-chiplet-count speedup geomeans.
    let mut fig8 = Vec::new();
    for &chiplets in &counts {
        let trip = |w: &str| {
            Some((
                num(
                    grid.get(main, w, ProtocolKind::Baseline, chiplets)?,
                    "cycles",
                ),
                num(
                    grid.get(main, w, ProtocolKind::CpElide, chiplets)?,
                    "cycles",
                ),
                num(grid.get(main, w, ProtocolKind::Hmg, chiplets)?, "cycles"),
            ))
        };
        let trips: Vec<(&str, (f64, f64, f64))> = main_workloads
            .iter()
            .filter_map(|&(w, class)| Some((class, trip(w)?)))
            .collect();
        if trips.is_empty() {
            continue;
        }
        let cpe = geomean(trips.iter().map(|(_, (b, c, _))| b / c));
        let hmg = geomean(trips.iter().map(|(_, (b, _, h))| b / h));
        let reuse_speedup = geomean(
            trips
                .iter()
                .filter(|(class, _)| *class == reuse)
                .map(|(_, (b, c, _))| b / c),
        );
        let low_min = trips
            .iter()
            .filter(|(class, _)| *class == low)
            .map(|(_, (b, c, _))| b / c)
            .fold(f64::INFINITY, f64::min);
        fig8.push(
            Json::object()
                .with("chiplets", chiplets)
                .with("cpelide_vs_baseline", cpe)
                .with("hmg_vs_baseline", hmg)
                .with("cpelide_vs_hmg", cpe / hmg)
                .with("cpelide_vs_baseline_reuse", reuse_speedup)
                .with(
                    "low_reuse_min_speedup",
                    if low_min.is_finite() { low_min } else { 1.0 },
                ),
        );
    }
    summary.set("fig8", Json::Arr(fig8));

    // Figures 9/10: energy and traffic ratios at 4 chiplets.
    let ratios = |f: &dyn Fn(&Json) -> f64| -> Option<(f64, f64, f64)> {
        let per: Vec<(f64, f64, f64)> = main_workloads
            .iter()
            .filter_map(|&(w, _)| {
                let b = f(grid.get(main, w, ProtocolKind::Baseline, 4)?);
                let c = f(grid.get(main, w, ProtocolKind::CpElide, 4)?);
                let h = f(grid.get(main, w, ProtocolKind::Hmg, 4)?);
                Some((c / b, c / h, h / b))
            })
            .collect();
        (!per.is_empty()).then(|| {
            (
                geomean(per.iter().map(|r| r.0)),
                geomean(per.iter().map(|r| r.1)),
                geomean(per.iter().map(|r| r.2)),
            )
        })
    };
    if let Some((e_cb, e_ch, e_hb)) = ratios(&|m| num(m, "energy_total_uj")) {
        summary.set(
            "energy",
            Json::object()
                .with("cpelide_vs_baseline", e_cb)
                .with("cpelide_vs_hmg", e_ch)
                .with("hmg_vs_baseline", e_hb),
        );
    }
    if let (Some((t_cb, t_ch, t_hb)), Some((_, l2l3_ch, _))) =
        (ratios(&total_flits), ratios(&l2l3_flits))
    {
        summary.set(
            "traffic",
            Json::object()
                .with("cpelide_vs_baseline", t_cb)
                .with("cpelide_vs_hmg", t_ch)
                .with("hmg_vs_baseline", t_hb)
                .with("l2l3_cpelide_vs_hmg", l2l3_ch),
        );
    }

    // §III-A occupancy over the CPElide cells at 4 chiplets.
    let tables: Vec<&Json> = main_workloads
        .iter()
        .filter_map(|&(w, _)| grid.get(main, w, ProtocolKind::CpElide, 4)?.get("table"))
        .collect();
    if !tables.is_empty() {
        let (mut max_live, mut evictions) = (0.0f64, 0.0f64);
        for t in tables {
            max_live = max_live.max(num(t, "max_live_entries"));
            evictions += num(t, "evictions");
        }
        summary.set(
            "occupancy",
            Json::object()
                .with("max_live_entries", max_live)
                .with("evictions", evictions),
        );
    }

    // §VI multi-stream: CPElide vs HMG at 4 chiplets.
    let ms: Vec<f64> = grid
        .workloads(multi)
        .iter()
        .filter_map(|&(w, _)| {
            let c = grid.get(multi, w, ProtocolKind::CpElide, 4)?;
            let h = grid.get(multi, w, ProtocolKind::Hmg, 4)?;
            Some(num(h, "cycles") / num(c, "cycles"))
        })
        .collect();
    if !ms.is_empty() {
        summary.set(
            "multistream",
            Json::object()
                .with("workloads", ms.len())
                .with("cpelide_vs_hmg", geomean(ms.iter().copied())),
        );
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_sim::cell::Variant;

    #[test]
    fn enumeration_covers_every_suite_protocol_and_count() {
        // Outside smoke mode env the full enumeration is in effect only
        // when CPELIDE_SMOKE is unset; assert the structural invariants
        // that hold either way.
        let specs = cells();
        assert!(!specs.is_empty());
        assert!(specs
            .iter()
            .any(|s| s.cell.protocol == ProtocolKind::Monolithic && s.cell.chiplets == 4));
        assert!(specs.iter().any(|s| s.suite == SuiteTag::MultiStream));
        // Every main-suite workload appears under all three protocols at
        // every enumerated count.
        let counts: Vec<usize> = {
            let mut seen = Vec::new();
            for s in &specs {
                if s.suite == SuiteTag::Main
                    && s.cell.protocol != ProtocolKind::Monolithic
                    && !seen.contains(&s.cell.chiplets)
                {
                    seen.push(s.cell.chiplets);
                }
            }
            seen
        };
        for &c in &counts {
            for p in PROTOCOLS {
                let n = specs
                    .iter()
                    .filter(|s| {
                        s.suite == SuiteTag::Main && s.cell.protocol == p && s.cell.chiplets == c
                    })
                    .count();
                assert!(n > 0, "no {p:?} cells at {c} chiplets");
            }
        }
    }

    fn spec(workload: &str, protocol: ProtocolKind, chiplets: usize, suite: SuiteTag) -> CellSpec {
        let w = chiplet_workloads::lookup(workload).unwrap_or_else(|e| panic!("{e}"));
        CellSpec::new(Cell::new(w, protocol, chiplets), suite)
    }

    fn variant(workload: &str, protocol: ProtocolKind, variant: Variant) -> CellSpec {
        let w = chiplet_workloads::lookup(workload).unwrap_or_else(|e| panic!("{e}"));
        CellSpec::new(
            Cell::new(w, protocol, 4).with_variant(variant),
            SuiteTag::Main,
        )
    }

    /// A one-kernel workload whose irregular pattern touches `fraction`
    /// of its array.
    fn irregular(fraction: &str) -> CellSpec {
        let text = format!(
            "name gather\narray a 64KiB\nkernel k\n  load a irregular {fraction} 0.9\nsequence k\n"
        );
        let w = chiplet_workloads::parse_workload(&text).unwrap_or_else(|e| panic!("{e}"));
        CellSpec::new(Cell::new(w, ProtocolKind::CpElide, 4), SuiteTag::Main)
    }

    #[test]
    fn fingerprints_differ_across_every_cell_axis() {
        let base = spec("square", ProtocolKind::CpElide, 4, SuiteTag::Main);
        let by_protocol = spec("square", ProtocolKind::Hmg, 4, SuiteTag::Main);
        let by_count = spec("square", ProtocolKind::CpElide, 2, SuiteTag::Main);
        let by_suite = spec("square", ProtocolKind::CpElide, 4, SuiteTag::MultiStream);
        let by_workload = spec("btree", ProtocolKind::CpElide, 4, SuiteTag::Main);
        let cpelide = |v| variant("square", ProtocolKind::CpElide, v);
        let prints = [
            base.fingerprint(),
            by_protocol.fingerprint(),
            by_count.fingerprint(),
            by_suite.fingerprint(),
            by_workload.fingerprint(),
            cpelide(Variant::SyncReplication(2)).fingerprint(),
            cpelide(Variant::TableCapacity(8)).fingerprint(),
            cpelide(Variant::RoundTrip(460.0)).fingerprint(),
            cpelide(Variant::LinkBandwidth(192.0)).fingerprint(),
            cpelide(Variant::DriverManaged).fingerprint(),
            irregular("0.5").fingerprint(),
            irregular("0.25").fingerprint(),
        ];
        for (i, a) in prints.iter().enumerate() {
            assert_eq!(a, &prints[i], "fingerprints are stable");
            for b in &prints[i + 1..] {
                assert_ne!(a, b, "axes must separate cache keys");
            }
        }
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
    }

    #[test]
    fn variants_that_resolve_to_table1_key_like_the_grid_cell() {
        let grid = spec("lud", ProtocolKind::CpElide, 4, SuiteTag::Main).fingerprint();
        for v in [
            Variant::LinkBandwidth(768.0),
            Variant::TableCapacity(64),
            Variant::RoundTrip(230.0),
            Variant::SyncReplication(1),
        ] {
            let cell = variant("lud", ProtocolKind::CpElide, v);
            assert_eq!(cell.fingerprint(), grid, "{}", cell.id());
        }
        let wide = variant("lud", ProtocolKind::CpElide, Variant::LinkBandwidth(1536.0));
        assert_ne!(wide.fingerprint(), grid);
        assert_eq!(wide.id(), "lud:CPElide:4:g=1536");
        let row = wide.row(Ok(&Json::object()));
        assert_eq!(row.get("variant").and_then(Json::as_str), Some("g=1536"));
        let grid_row =
            spec("lud", ProtocolKind::CpElide, 4, SuiteTag::Main).row(Ok(&Json::object()));
        assert!(
            grid_row.get("variant").is_none(),
            "Table 1 rows keep their layout"
        );
    }

    #[test]
    fn the_fingerprint_memo_is_lazy_and_travels_with_clones() {
        let fresh = spec("square", ProtocolKind::CpElide, 4, SuiteTag::Main);
        assert!(
            fresh.fingerprint.get().is_none(),
            "nothing computed at construction"
        );
        assert!(fresh.clone().fingerprint.get().is_none());
        let print = fresh.fingerprint();
        assert_eq!(fresh.fingerprint.get(), Some(&print));
        assert_eq!(print, fresh.compute_fingerprint());
        let copy = fresh.clone();
        assert_eq!(
            copy.fingerprint.get(),
            Some(&print),
            "clones carry the memo"
        );
    }

    #[test]
    fn cell_ids_are_colon_joined() {
        let spec = spec("square", ProtocolKind::Baseline, 7, SuiteTag::Main);
        assert_eq!(spec.id(), "square:Baseline:7");
    }

    /// A synthetic row whose metrics carry every field `summarize` reads.
    fn summary_row(workload: &str, class: &str, protocol: ProtocolKind, chiplets: u64) -> Json {
        let cycles = match protocol {
            ProtocolKind::Baseline => 120.0,
            ProtocolKind::Monolithic => 100.0,
            _ => 110.0,
        };
        Json::object()
            .with("workload", workload)
            .with("class", class)
            .with("suite", SuiteTag::Main.label())
            .with("protocol", protocol.label())
            .with("chiplets", chiplets)
            .with(
                "metrics",
                Json::object()
                    .with("cycles", cycles)
                    .with("energy_total_uj", cycles)
                    .with(
                        "traffic",
                        Json::object()
                            .with("l1_l2_flits", 10u64)
                            .with("l2_l3_flits", 20u64)
                            .with("remote_flits", 30u64),
                    )
                    .with(
                        "table",
                        Json::object()
                            .with("max_live_entries", 3u64)
                            .with("evictions", 1u64),
                    ),
            )
    }

    fn keys(summary: &Json) -> Vec<&str> {
        [
            "fig2",
            "fig8",
            "energy",
            "traffic",
            "occupancy",
            "multistream",
        ]
        .into_iter()
        .filter(|k| summary.get(k).is_some())
        .collect()
    }

    #[test]
    fn variant_rows_never_feed_the_summary() {
        let mut grid = Vec::new();
        for (w, c) in [("square", "low"), ("btree", "moderate-high")] {
            for p in PROTOCOLS.into_iter().chain([ProtocolKind::Monolithic]) {
                grid.push(summary_row(w, c, p, 4));
            }
        }
        // A driver-managed CPElide row, slower than the grid cell, first in
        // the document so a match by (suite, workload, protocol, chiplets)
        // would find it before the grid row.
        let mut slow = summary_row("square", "low", ProtocolKind::CpElide, 4);
        slow.set("variant", "driver");
        if let Some(m) = slow.get("metrics").cloned() {
            slow.set("metrics", m.with("cycles", 500.0));
        }
        let mut mixed = vec![slow];
        mixed.extend(grid.iter().cloned());
        assert_eq!(
            summarize(&mixed).unwrap().render(),
            summarize(&grid).unwrap().render()
        );
    }

    #[test]
    fn summarize_omits_sections_it_has_no_cells_for() {
        let classes = [("square", "low"), ("btree", "moderate-high")];
        // The HMG write-back study: no Baseline, CPElide or Monolithic.
        let hmg_wb: Vec<Json> = classes
            .iter()
            .flat_map(|&(w, c)| {
                [ProtocolKind::Hmg, ProtocolKind::HmgWriteBack].map(|p| summary_row(w, c, p, 4))
            })
            .collect();
        let summary = summarize(&hmg_wb).unwrap();
        assert_eq!(keys(&summary), ["fig8"]);
        assert_eq!(summary.get("fig8").and_then(Json::as_arr), Some(&[][..]));

        // Beyond 7 chiplets: full triples at 8, nothing at 4.
        let beyond: Vec<Json> = classes
            .iter()
            .flat_map(|&(w, c)| PROTOCOLS.map(|p| summary_row(w, c, p, 8)))
            .collect();
        let summary = summarize(&beyond).unwrap();
        assert_eq!(keys(&summary), ["fig8"]);
        let fig8 = summary.get("fig8").and_then(Json::as_arr).unwrap();
        assert_eq!(fig8.len(), 1);
        assert_eq!(fig8[0].get("chiplets").and_then(Json::as_f64), Some(8.0));
        let text = summary.render();
        assert!(!text.contains("null") && !text.contains("inf"), "{text}");

        // Add the 4-chiplet grid and the Monolithic comparison: every
        // main-suite section appears, each from real cells.
        let mut grid = beyond;
        for &(w, c) in &classes {
            for p in PROTOCOLS.into_iter().chain([ProtocolKind::Monolithic]) {
                grid.push(summary_row(w, c, p, 4));
            }
        }
        let summary = summarize(&grid).unwrap();
        assert_eq!(
            keys(&summary),
            ["fig2", "fig8", "energy", "traffic", "occupancy"]
        );
        let loss = summary.get("fig2").and_then(|f| f.get("min_loss"));
        assert!((loss.and_then(Json::as_f64).unwrap() - 0.2).abs() < 1e-12);
        let text = summary.render();
        assert!(!text.contains("null") && !text.contains("inf"), "{text}");
    }
}
