//! The correctness gate: every row a run produces must equal, byte for
//! byte, the row with the same fingerprint in the committed
//! `results/campaign.json`.

use chiplet_harness::json::{self, Json};
use std::collections::HashMap;
use std::path::Path;

/// The committed campaign rows, keyed by cell fingerprint, each rendered
/// in compact form.
pub struct Reference {
    rows: HashMap<String, String>,
}

impl Reference {
    /// Loads and indexes `campaign.json`.
    ///
    /// # Errors
    ///
    /// A missing, unparsable or wrongly-shaped document.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some(cpelide_bench::campaign::SCHEMA) {
            return Err(format!("{} has an unexpected schema", path.display()));
        }
        if doc.get("mode").and_then(Json::as_str) != Some("full") {
            return Err(format!("{} is not a full campaign", path.display()));
        }
        let cells = doc
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{} has no cells array", path.display()))?;
        let mut rows = HashMap::with_capacity(cells.len());
        for row in cells {
            let fp = row
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or("a reference row has no fingerprint")?;
            rows.insert(fp.to_owned(), row.render_compact());
        }
        Ok(Reference { rows })
    }

    /// True when `row` is byte-identical to the reference row carrying
    /// the same fingerprint.
    pub fn matches(&self, row: &Json) -> bool {
        let Some(fp) = row.get("fingerprint").and_then(Json::as_str) else {
            return false;
        };
        self.rows
            .get(fp)
            .is_some_and(|want| *want == row.render_compact())
    }

    /// A copy with the row for `fingerprint` altered in one byte-visible
    /// way (its `cycles` nudged), for the gate's self-test.
    fn corrupted(&self, fingerprint: &str) -> Reference {
        let mut rows = self.rows.clone();
        if let Some(row) = rows.get_mut(fingerprint) {
            *row = row.replacen("\"cycles\":", "\"cycles\":1", 1);
        }
        Reference { rows }
    }
}

/// The gate's self-test: replays the run's own `rows` against a reference
/// in which the first matching row's entry is corrupted, and checks that
/// the ok count drops by exactly the rows sharing that fingerprint. A gate
/// that cannot fail is itself a failure. Vacuous (and `Ok`) when no row
/// matched in the first place: the run already reports every op failed.
///
/// # Errors
///
/// When the corrupted reference does not lower the ok count.
pub fn self_test(reference: &Reference, rows: &[Json]) -> Result<(), String> {
    let Some(fp) = rows
        .iter()
        .find(|r| reference.matches(r))
        .and_then(|r| r.get("fingerprint").and_then(Json::as_str))
    else {
        return Ok(());
    };
    let ok = rows.iter().filter(|r| reference.matches(r)).count();
    let affected = rows
        .iter()
        .filter(|r| r.get("fingerprint").and_then(Json::as_str) == Some(fp))
        .filter(|r| reference.matches(r))
        .count();
    let bad = reference.corrupted(fp);
    let ok_corrupted = rows.iter().filter(|r| bad.matches(r)).count();
    if ok_corrupted + affected != ok {
        return Err(format!(
            "gate self-test: corrupting one reference row left {ok_corrupted} of \
             {ok} ok rows passing ({affected} should have failed)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(rows: &[Json]) -> Reference {
        Reference {
            rows: rows
                .iter()
                .map(|r| {
                    (
                        r.get("fingerprint")
                            .and_then(Json::as_str)
                            .unwrap()
                            .to_owned(),
                        r.render_compact(),
                    )
                })
                .collect(),
        }
    }

    fn row(fp: &str, cycles: f64) -> Json {
        Json::object()
            .with("fingerprint", fp)
            .with("metrics", Json::object().with("cycles", cycles))
    }

    #[test]
    fn identical_rows_match_and_any_difference_fails() {
        let r = reference(&[row("a", 1.5), row("b", 2.0)]);
        assert!(r.matches(&row("a", 1.5)));
        assert!(!r.matches(&row("a", 1.5000000000000002)));
        assert!(!r.matches(&row("c", 1.5)), "unknown fingerprint");
        assert!(!r.matches(&Json::object().with("metrics", 1.0)));
    }

    #[test]
    fn self_test_sees_the_corrupted_row() {
        let rows = [row("a", 1.5), row("b", 2.0), row("a", 1.5)];
        let r = reference(&rows);
        assert!(self_test(&r, &rows).is_ok());
        assert!(self_test(&reference(&[]), &rows).is_ok(), "vacuous");
        // Rows the corruption cannot touch leave the ok count unchanged,
        // which the self-test must report.
        let untouchable = [Json::object()
            .with("fingerprint", "a")
            .with("metrics", Json::object().with("kernels", 3.0))];
        assert!(self_test(&reference(&untouchable), &untouchable).is_err());
    }
}
