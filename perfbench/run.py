"""tropasym benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

The workload runs in a child process (worker.py) with BLAS/OpenMP threads
pinned to the CPUs this process may use.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json; --trace 1 reports its per-layer metrics from a
traced run.  Set-up time is the median over six fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run, child processes included


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    return env


def run_child(argv: list[str], timeout: float) -> dict:
    """Run worker.py to completion (killed and reaped on timeout); parse its last line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *argv],
        stdout=subprocess.PIPE, env=child_env(), timeout=timeout, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    t0 = time.monotonic()
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    if not Path("src/tropasym/__init__.py").is_file():
        print("error: run from the root of a tropasym checkout (no src/tropasym)",
              file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_child(base + ["--setup-only"], timeout=30)["setup_s"])
    remaining = DEADLINE_S - (time.monotonic() - t0)
    result = run_child(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        timeout=remaining,
    )
    measured = result["metrics"]
    if not args.trace:
        measured["setup_s"] = statistics.median(setups + [measured["setup_s"]])
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: worker did not measure {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
