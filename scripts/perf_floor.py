#!/usr/bin/env python3
"""Gate a perfbench result on correctness and a committed speed floor.

Usage (from the repository root):

    python3 scripts/perf_floor.py RESULT WORKLOAD

RESULT holds the output of `perfbench/run.py --workload WORKLOAD --trace 0`;
its last line is the JSON result. The run passes when it is correct, every
op succeeded (`ok_ratio` 1) and its calibrated `cells_per_s` is at least the
floor: the slowest of the ten runs recorded in `perfbench/noise.json` for
WORKLOAD. Exits 0 on a pass, 1 on a failure or an unreadable input, 2 on
a wrong number of arguments.
"""

import json
import os
import sys

NOISE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "noise.json")


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python3 scripts/perf_floor.py RESULT WORKLOAD", file=sys.stderr)
        return 2
    path, workload = argv
    with open(path) as f:
        result = json.loads(f.read().splitlines()[-1])
    with open(NOISE) as f:
        floor = min(json.load(f)["workloads"][workload]["metrics"]["cells_per_s"]["values"])
    metrics = result["metrics"]
    value = metrics["cells_per_s"]["value"]
    ok_ratio = metrics["ok_ratio"]["value"]
    print(f"{workload}: cells_per_s {value:.2f} (floor {floor:.2f}), "
          f"correct {str(result['correct']).lower()}, ok_ratio {ok_ratio}")
    return 0 if result["correct"] is True and ok_ratio == 1 and value >= floor else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
