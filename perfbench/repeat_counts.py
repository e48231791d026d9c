"""Check that the traced run's exact counts repeat across runs and seeds.

    python3 perfbench/repeat_counts.py [--seconds 5] [WORKLOAD ...]

Runs each workload (all by default) traced twice, with seeds 1 and 2, and
compares every count: the metrics with unit ``count`` plus the computed
bytes ``autodiff.result_mb`` and ``training.checkpoint_mb``.  Prints one line
per workload and exits 1 when any count differs, so that a later claim
resting on these counts can rely on them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT_BYTES = ("autodiff.result_mb", "training.checkpoint_mb")


def counts(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True, cwd=HERE.parent).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] == "count" or name in EXACT_BYTES}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    status = 0
    for workload in workloads:
        first, second = counts(workload, 1, args.seconds), counts(workload, 2, args.seconds)
        differ = sorted(k for k in first if first[k] != second[k])
        print(f"{workload}: {len(first)} counts, "
              + (f"DIFFER: {differ}" if differ else "identical")
              + f"; tape_nodes {first['autodiff.tape_nodes']}, "
              f"result_mb {first['autodiff.result_mb']}, params {first['zoo.params']}")
        status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main())
