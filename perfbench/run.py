#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (its own cargo workspace, depending on the crates
under `crates/`) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs it from the repository root. The build log goes
to standard error; standard output is the benchmark's, whose last line is
the JSON result. Exits non-zero, printing no result, if the build or the
run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    # Kernel definition spans (`#[track_caller]` file paths) feed every
    # cell fingerprint. Built as this package's dependencies, the crates
    # get absolute source paths; remapping the checkout prefix gives them
    # the workspace-relative paths the committed campaign was built with.
    rustflags = os.environ.get("RUSTFLAGS", "")
    rustflags = f"{rustflags} --remap-path-prefix={ROOT}/=".strip()
    env = dict(os.environ, CARGO_TARGET_DIR=target, RUSTFLAGS=rustflags)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
