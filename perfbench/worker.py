"""One workload in its own process: set-up, the closed loop, checks, metrics.

Started by run.py from the root of a checkout; imports tropasym from the
checkout's src/ only.  Prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload exact --seed 1 --seconds 25 --trace 0
    python3 perfbench/worker.py --workload exact --seed 1 --setup-only
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

OUT_DIR = Path(".bench_build") / "perfbench"
# nominal kernel time: latencies are reported as wall time × REF_S / kernel time
REF_S = 0.010


def import_package():
    """tropasym from ./src, never from an installed copy."""
    src = Path("src").resolve()
    if not (src / "tropasym" / "__init__.py").is_file():
        raise SystemExit(f"no tropasym package under {src}")
    sys.path.insert(0, str(src))
    tp = importlib.import_module("tropasym")
    importlib.import_module("tropasym.cli")
    if not Path(tp.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported tropasym from {tp.__file__}, not {src}")
    return tp


def run_op(workload, x):
    """Time one call, then check its output; returns (seconds, failed)."""
    error = None
    t0 = perf_counter()
    try:
        out = workload.call(x)
    except Exception as exc:  # a failed op is counted, and the loop goes on
        error = exc
    seconds = perf_counter() - t0
    if error is None:
        try:
            workload.check(x, out)
        except CheckFailed as exc:
            error = exc
    if error is not None:
        print(f"op failed: {error!r}", file=sys.stderr)
    return seconds, error is not None


_REF_B = -0.5 * np.random.default_rng(0).integers(1, 13, size=(64, 64)).astype(float)


def fraction_kernel():
    """Interpreter-bound reference work, like the exact layer's Fraction loops."""
    acc = Fraction(0)
    for i in range(1, 2500):
        acc = max(acc + Fraction(i % 9 - 4, 2), Fraction(i % 5, 4))


def numpy_kernel():
    """Array-bound reference work, like the Perron engine's log-sum-exp products."""
    for _ in range(6):
        T = _REF_B[:, :, None] + _REF_B[None, :, :]
        m = T.max(axis=1)
        np.log(np.exp(T - m[:, None, :]).sum(axis=1))


# The host's speed drifts by up to a factor 1.6 for tens of seconds at a time,
# and interpreted code slows more than numpy array code.  Each workload's op
# times are divided by the time of a fixed kernel in its own idiom, taken
# next to them; both kernels take about REF_S when the host is fast.
REFERENCE_KERNELS = {
    "campaign": fraction_kernel,
    "exact": fraction_kernel,
    "paper": fraction_kernel,
    "perron": numpy_kernel,
}


def time_kernel(kernel) -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def run_loop(workload, kernel, seconds):
    """Closed loop for `seconds`: one op at a time, each checked after it returns.

    Returns op latencies in reference seconds: each latency is scaled by
    REF_S over the median kernel time of the five timings nearest it.
    Wall-clock figures go to stderr.
    """
    latencies, refs, failed = [], [], 0
    inputs = workload.inputs()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        refs.append(time_kernel(kernel))
        dt, bad = run_op(workload, next(inputs))
        latencies.append(dt)
        failed += bad
    refs.append(time_kernel(kernel))
    scaled = [
        dt * REF_S / statistics.median(refs[max(0, i - 2): i + 3])
        for i, dt in enumerate(latencies)
    ]
    print(
        f"wall: {len(latencies)} ops, {len(latencies) / sum(latencies):.3f} ops/s, "
        f"p50 {1e3 * statistics.median(latencies):.1f} ms; "
        f"reference kernel p50 {1e3 * statistics.median(refs):.2f} ms",
        file=sys.stderr,
    )
    return scaled, failed


def run_traced(workload, seconds, tracer):
    """Each input twice, untraced and traced, alternating which goes first."""
    plain, traced, failed = [], [], 0
    inputs = workload.inputs()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        x = next(inputs)
        for tracing in (False, True) if len(plain) % 2 == 0 else (True, False):
            if tracing:
                tracer.begin_op()
                tracer.enable()
            try:
                dt, bad = run_op(workload, x)
            finally:
                tracer.disable()
            (traced if tracing else plain).append(dt)
            failed += bad
    return plain, traced, failed


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tp = import_package()
        workload = WORKLOADS[args.workload](tp, args.seed, workdir)
        workload.warm_up()
        setup_s = perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return

        if args.trace:
            tracer = Tracer()
            plain, traced, failed = run_traced(workload, args.seconds, tracer)
            latencies = plain + traced
        else:
            kernel = REFERENCE_KERNELS[args.workload]
            latencies, failed = run_loop(workload, kernel, args.seconds)
        completed = len(latencies) - failed
        finish = workload.finish()
        for reason in filter(None, finish):
            failed += 1
            print(reason, file=sys.stderr)
        attempted = len(latencies) + len(finish)

        if args.trace:
            self_ns = tracer.self_times()
            metrics = tracer.layer_metrics(self_ns, len(traced))
            metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
            tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}.jsonl", self_ns)
        else:
            if len(latencies) > 1:
                _, p50, p75 = statistics.quantiles(latencies, n=4)
            else:
                p50 = p75 = latencies[0]
            metrics = {
                # latencies are in reference seconds (see run_loop)
                "ops_per_s": completed / sum(latencies),
                "op_ms.p50": 1e3 * p50,
                "op_ms.p75": 1e3 * p75,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": setup_s,
                "ok_frac": 1.0 - failed / attempted,
            }
        print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
