//! `cpelide-repro` — the command-line front end to the simulator.
//!
//! ```text
//! cpelide-repro list
//! cpelide-repro oracle --workload hotspot3d [--chiplets 4] [--sample 17]
//! ```
//!
//! One workload under every protocol (text, JSON, Prometheus, Perfetto) is
//! `cargo run --release -p cpelide-bench --bin probe -- <workload>`.

use cpelide_repro::coherence::ProtocolKind;
use cpelide_repro::sim::cell::CHIPLET_RANGE;
use cpelide_repro::sim::oracle::check_coherence;
use cpelide_repro::workloads;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  cpelide-repro list\n  \
         cpelide-repro oracle --workload <name> [--chiplets {}..={}] [--sample K]\n\
         per-workload protocol runs: cargo run --release -p cpelide-bench --bin probe -- <name>",
        CHIPLET_RANGE.start(),
        CHIPLET_RANGE.end()
    );
    ExitCode::from(2)
}

/// Parses `--name value` pairs (no external dependencies); `None` when a
/// word is not a `--name` or a name has no value.
fn parse_pairs(raw: &[String]) -> Option<Vec<(&str, &str)>> {
    raw.chunks(2)
        .map(|pair| match pair {
            [name, value] => Some((name.strip_prefix("--")?, value.as_str())),
            _ => None,
        })
        .collect()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("list") => {
            println!(
                "{:<18} {:>8} {:>10} class",
                "workload", "kernels", "footprint"
            );
            for w in workloads::suite() {
                println!(
                    "{:<18} {:>8} {:>7.1}MiB {}",
                    w.name(),
                    w.kernel_count(),
                    w.footprint_bytes() as f64 / (1 << 20) as f64,
                    w.class()
                );
            }
            for w in workloads::multi_stream_suite() {
                println!(
                    "{:<18} {:>8} {:>7.1}MiB multi-stream ({} streams)",
                    w.name(),
                    w.kernel_count(),
                    w.footprint_bytes() as f64 / (1 << 20) as f64,
                    w.stream_count()
                );
            }
            ExitCode::SUCCESS
        }
        Some("oracle") => {
            let Some(pairs) = parse_pairs(&raw[1..]) else {
                return usage();
            };
            let known = ["workload", "chiplets", "sample"];
            let get = |name| pairs.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            let number = |name, default| get(name).map_or(Some(default), |v| v.parse().ok());
            let (Some(name), Some(chiplets), Some(sample)) =
                (get("workload"), number("chiplets", 4), number("sample", 17))
            else {
                return usage();
            };
            if !CHIPLET_RANGE.contains(&chiplets) || pairs.iter().any(|(n, _)| !known.contains(n)) {
                return usage();
            }
            let w = match workloads::lookup(name) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let r = check_coherence(&w, ProtocolKind::CpElide, chiplets, sample);
            println!(
                "checked {} reads / {} writes: {}",
                r.reads_checked,
                r.writes_recorded,
                if r.is_coherent() {
                    "coherent".to_owned()
                } else {
                    format!(
                        "{} VIOLATIONS (first: {:?})",
                        r.violations.len(),
                        r.violations[0]
                    )
                }
            );
            if r.is_coherent() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
