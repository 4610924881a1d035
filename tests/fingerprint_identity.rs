//! Byte-identity of cell fingerprints and of the workload registry.
//!
//! A cell's fingerprint (`CellSpec::fingerprint`, the semantic key of
//! `chiplet_sim::Cell::key`) is memoised on first use, and every workload
//! is built once per process into a shared registry. Neither may change a
//! byte of what the campaign commits:
//!
//! - every enumerated campaign cell's memoised fingerprint equals a fresh
//!   computation and the `fingerprint` of its row in the committed
//!   `results/campaign.json`;
//! - every registered name resolves to a workload whose definition equals
//!   a fresh build, compared through the `Debug` form, which is stricter
//!   than the key because it also holds each kernel's source span.

use chiplet_harness::json::{self, Json};
use chiplet_workloads::Workload;
use cpelide_bench::campaign::{self, CellSpec};
use std::path::PathBuf;

fn committed_rows() -> Vec<Json> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/campaign.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e})", path.display()));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("campaign.json: {e}"));
    doc.get("cells")
        .and_then(Json::as_arr)
        .expect("campaign.json has a cells array")
        .to_vec()
}

fn row_id(row: &Json) -> String {
    let field = |k: &str| match row.get(k) {
        Some(Json::Str(s)) => s.clone(),
        Some(v) => v.render_compact(),
        None => panic!("row without {k}"),
    };
    format!(
        "{}:{}:{}:{}",
        field("suite"),
        field("workload"),
        field("protocol"),
        field("chiplets")
    )
}

fn spec_id(spec: &CellSpec) -> String {
    format!("{}:{}", spec.suite.label(), spec.id())
}

#[test]
fn memoised_fingerprints_match_fresh_ones_and_the_committed_campaign() {
    let rows = committed_rows();
    let specs = campaign::cells();
    // A smoke enumeration is a subset of the committed full campaign;
    // only the full one lines up index for index.
    if !cpelide_bench::smoke() {
        assert_eq!(specs.len(), rows.len(), "cell count");
    }
    for (i, spec) in specs.iter().enumerate() {
        let index = if cpelide_bench::smoke() {
            rows.iter()
                .position(|r| row_id(r) == spec_id(spec))
                .unwrap_or_else(|| panic!("{} has no committed row", spec_id(spec)))
        } else {
            assert_eq!(row_id(&rows[i]), spec_id(spec), "row {i} identity");
            i
        };
        let fresh = spec.fingerprint();
        let memoised = spec.fingerprint();
        assert_eq!(memoised, fresh, "{}: memo", spec.id());
        let from_clone = CellSpec::new(spec.cell.clone(), spec.suite).fingerprint();
        assert_eq!(from_clone, fresh, "{}: rebuilt spec", spec.id());
        assert_eq!(
            rows[index].get("fingerprint").and_then(Json::as_str),
            Some(memoised.as_str()),
            "{}: committed fingerprint",
            spec.id()
        );
    }
}

#[test]
fn the_registry_matches_freshly_built_workloads() {
    let fresh = chiplet_workloads::build_all();
    let names = chiplet_workloads::known_names();
    let built: Vec<&str> = fresh.iter().map(Workload::name).collect();
    assert_eq!(names, built, "registry names and order follow the builders");
    for (name, built) in names.iter().zip(&fresh) {
        let got = chiplet_workloads::lookup(name).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            format!("{got:?}") == format!("{built:?}"),
            "{name}: the registry's definition differs from a fresh build"
        );
    }
    let debug = |ws: &[Workload]| -> Vec<String> { ws.iter().map(|w| format!("{w:?}")).collect() };
    let suite = chiplet_workloads::suite();
    let multi = chiplet_workloads::multi_stream_suite();
    assert_eq!(debug(&suite), debug(&fresh[..suite.len()]));
    assert_eq!(debug(&multi), debug(&fresh[suite.len()..]));
}
