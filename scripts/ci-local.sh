#!/usr/bin/env bash
# Runs the exact checks .github/workflows/ci.yml runs, locally and fully
# offline. The workspace is hermetic (zero external crates), so this needs
# nothing but a Rust toolchain with rustfmt and clippy.
#
# Every `== marker ==` below carries the exact `name:` of the ci.yml step
# it mirrors; tests/ci_parity.rs asserts the two never drift.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== Format =="
cargo fmt --all --check

echo "== Clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== chiplet-check lint (determinism/soundness rules) =="
cargo run --release -p chiplet-check -- --workspace

echo "== Elision oracle gate (workload dependence census, drift gate) =="
# The static elision oracle classifies every kernel boundary of every
# registered workload and differentially replays the engine across
# {Baseline, HMG, CPElide} x N in {2,4,7}; any soundness violation
# (MustSync boundary elided) fails the run, and --check fails on any
# drift from the committed results/CHECK_oracle.json.
cargo run --release -p chiplet-check -- --oracle --check
grep -q '"soundness_violations": 0' results/CHECK_oracle.json

echo "== Rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== Build (release, offline) =="
cargo build --workspace --release

echo "== Test (release, offline) =="
cargo test --workspace --release -q

echo "== Benchmark package (build and unit-test perfbench) =="
# perfbench/ is its own cargo workspace; building it here catches library
# API changes that would break the benchmark. Build output stays in target/.
cargo test --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "== Smoke-run the studies binary =="
# The off-grid studies in the tiny configuration, into a scratch dir so the
# committed results/studies.txt is left alone. Every study cell goes through
# the campaign cache: a second run into the same dir must simulate nothing
# and write the same text.
rm -rf results/studies-smoke
CPELIDE_SMOKE=1 CPELIDE_RESULTS_DIR=results/studies-smoke \
  cargo run --release -p cpelide-bench --bin studies
grep -q '"sensitivity"' results/studies-smoke/studies.json
cp results/studies-smoke/studies.txt results/studies-smoke/first.txt
CPELIDE_SMOKE=1 CPELIDE_RESULTS_DIR=results/studies-smoke \
  cargo run --release -p cpelide-bench --bin studies > results/studies-smoke/second.log
grep -q '^studies: 0 simulated, ' results/studies-smoke/second.log
cmp results/studies-smoke/first.txt results/studies-smoke/studies.txt

echo "== Campaign determinism smoke (CPELIDE_JOBS=1 vs 8) =="
# The fleet's core contract: campaign.json is byte-identical at any
# worker count. Cache disabled so every cell actually simulates.
CPELIDE_SMOKE=1 CPELIDE_CACHE=0 CPELIDE_JOBS=1 \
  CPELIDE_RESULTS_DIR=results/jobs1 \
  cargo run --release -p cpelide-bench --bin campaign
CPELIDE_SMOKE=1 CPELIDE_CACHE=0 CPELIDE_JOBS=8 \
  CPELIDE_RESULTS_DIR=results/jobs8 \
  cargo run --release -p cpelide-bench --bin campaign
cmp results/jobs1/campaign.json results/jobs8/campaign.json

echo "== Telemetry smoke (campaign.prom prefix, fleet trace, report --obs) =="
# campaign.prom's deterministic section — everything above the clock-domain
# marker — must be byte-identical across worker counts; the fleet trace
# must be stamped wall-clock; report --obs must render from the exposition.
awk '/non-deterministic below/{exit} {print}' \
  results/jobs1/campaign.prom > results/jobs1/campaign.det.prom
awk '/non-deterministic below/{exit} {print}' \
  results/jobs8/campaign.prom > results/jobs8/campaign.det.prom
cmp results/jobs1/campaign.det.prom results/jobs8/campaign.det.prom
grep -q 'cpelide_campaign_phase_cycles' results/jobs1/campaign.prom
grep -q '"clockDomain":"wall"' results/jobs1/campaign.trace.json
CPELIDE_RESULTS_DIR=results/jobs1 \
  cargo run --release -p cpelide-bench --bin report -- --obs

echo "== Docs drift gate (EXPERIMENTS.md vs committed campaign.json) =="
# EXPERIMENTS.md's generated blocks and results/figures.txt must match what
# `report` derives from the committed results/campaign.json.
cargo run --release -p cpelide-bench --bin report -- --check

echo "== Smoke-run probe with Perfetto trace export =="
# write_trace validates span balance and JSON well-formedness before the
# file lands; the greps assert the artifacts exist and are non-trivial.
CPELIDE_SMOKE=1 \
  cargo run --release -p cpelide-bench --bin probe -- --trace results/trace.json
grep -q '"traceEvents"' results/trace.json
grep -q 'cpelide_kernel_cycles_bucket' results/probe.prom

echo "== CCT model check (BFS N ≤ 4 + DPOR racy flagship, census drift gate) =="
# Both engines over the Chiplet Coherence Table (exhaustive BFS and DPOR
# race-free at N ∈ {2,3,4} × 2, plus the DPOR racy N = 6 × 3 flagship);
# --check fails on violations, an invalid census, or any drift from the
# committed results/CHECK_model.json.
cargo run --release -p chiplet-check -- --model-check --check
[ "$(grep -c '"violations": 0' results/CHECK_model.json)" -eq 7 ]

echo "== Daemon smoke (serve --smoke hermetic self-test) =="
# Boots the campaign daemon on an ephemeral port, streams a two-cell
# sweep, sends it again and requires 2 cache hits answered from the row
# memo at admission with byte-equal rows, validates /metrics with the
# in-repo prom parser, and shuts down cleanly over the wire. See
# DESIGN.md §16.
cargo run --release -p cpelide-bench --bin serve -- --smoke

echo "== Benchmark correctness gate on served rows (serve-warm) =="
# A short serve-warm run of the repository benchmark: every served row is
# compared byte for byte with committed results/campaign.json and the
# daemon's /metrics reconciled with the client; the result line (the last
# line of output) must report "correct":true.
python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 2 --trace 0 \
  > results/serve-warm.out
tail -n 1 results/serve-warm.out | grep -q '"correct":true'

echo "== Benchmark correctness and speed floor on simulated rows (sweep-irregular) =="
# A short cold sweep-irregular run of the repository benchmark: every
# simulated row is compared byte for byte with committed
# results/campaign.json; the result line (the last line of output) must
# report "correct":true and ok_ratio 1, and its calibrated cells_per_s
# must reach the floor perf_floor.py reads from perfbench/noise.json.
python3 perfbench/run.py --workload sweep-irregular --seed 1 --seconds 1 --trace 0 \
  > results/sweep-irregular.out
python3 scripts/perf_floor.py results/sweep-irregular.out sweep-irregular

echo "== Benchmark correctness and speed floor on simulated rows (sweep-regular) =="
# The same gate over one 81-cell pass of the regular cells.
python3 perfbench/run.py --workload sweep-regular --seed 1 --seconds 1 --trace 0 \
  > results/sweep-regular.out
python3 scripts/perf_floor.py results/sweep-regular.out sweep-regular

echo "ci-local: all checks passed"
