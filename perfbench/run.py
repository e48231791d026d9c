"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload infer224 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``qaxial`` from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics named in
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones, and writes the
run's spans to ``.perfbench-out/``.  The second-to-last line of standard
output is the environment and sample counts; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

# one BLAS thread: it must be set before numpy loads, and keeps runs bitwise
# reproducible and steady on small shared machines
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qaxial" / "__init__.py").is_file():
        print(f"perfbench: no qaxial sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    names = [m["name"] for m in listed]
    if sorted(names) != sorted(outcome.metrics):
        missing = set(names) - set(outcome.metrics)
        extra = set(outcome.metrics) - set(names)
        raise RuntimeError(f"metric set differs from BENCHMARK.json: "
                           f"missing {sorted(missing)}, unlisted {sorted(extra)}")
    if outcome.tracer is not None:
        outcome.tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    print(json.dumps({"env": environment(args), **outcome.info}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
