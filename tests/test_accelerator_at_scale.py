"""The squaring accelerator at sizes the rest of the suite does not reach.

- Bounded memory: one n=200 and one n=400 trajectory per OpenBLAS thread
  count (1 and 2), each in a fresh process running _bounded_memory_run.py.
  An n^3 product tensor would peak near 220 MB at n=200; the GEMM path's
  temporaries are a few n^2 arrays (about 38 MB and 45 MB of RSS in all).
  A run fails on a failed sample, on a sample that took more iterations
  than the solver's bound by construction, or on RSS above 100 MB, and the
  two thread counts must give n=200 trajectories with the same repr digest.
  OpenBLAS picks its GEMM kernel by CPU, so this pins agreement across
  thread counts on one machine, not across machines; from about n=300 on,
  threaded OpenBLAS splits the product differently and the last bits move
  (n=400: P_k by up to 1.8e-11), so n=400 is not compared.  The n=200
  comparison also guards the square GEMM shape: an n x (n+1) GEMM that
  fuses the power step in gave different n=200 trajectories at 1 and 2
  threads.
- The GEMM path (from n=16: one exp(B - r) per accelerator round, for the
  power step's one-column GEMM and the squaring's GEMM, whose underflowed
  rows both go to the row-blocked kernel) against trajectory_oracle, whose
  power step is a separate _lse_rows pass, on 40 seeded zero-diagonal
  half-grid matrices at the perron workload's sizes, n=16..72.

Wall times, iterations, fallback rows and the largest gap are printed for
the record (shown with `pytest -s`), never gated.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tropasym import geometric_schedule, normalized_trajectory, perron

from _oracles import trajectory_oracle

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def bounded_memory_run(n: int, threads: int) -> str:
    """_bounded_memory_run.py's output at size n and the given thread count;
    fails the test when it exits nonzero."""
    env = dict(os.environ, N=str(n), OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(TESTS / "_bounded_memory_run.py")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    print(run.stdout, end="")
    assert run.returncode == 0, run.stdout + run.stderr
    return run.stdout


@pytest.mark.parametrize("n", [200, 400])
def test_bounded_memory_accelerator_run(n):
    digests = {t: bounded_memory_run(n, t).splitlines()[-1] for t in (1, 2)}
    if n == 200:
        assert digests[1] == digests[2], "the trajectory differs between 1 and 2 OpenBLAS threads"


def test_gemm_path_against_the_oracle():
    """Fails on a failed sample, on a differing (k, iterations) list, or on
    a gap above the solver's tolerance _TOL."""
    # A known-fragile bound (CHANGES.md, the FOUND line on _TOL): certification
    # does not pin the point to _TOL, so this gate can fail on correct code.
    # On the n=24 half-grid matrix of np.random.default_rng(19), not one of
    # the 40 below, the library and the oracle both certify k=32 with
    # residual 6.9e-18 at points 2.7067e-13 apart; they differ only in
    # summation order.  The bound stays _TOL until the point gets a bound of
    # its own (ROADMAP item 3).
    ks = geometric_schedule()
    half_grid = -0.5 * np.arange(1, 13)  # -1/2, -1, ..., -6
    bad, worst = [], 0.0
    for n in range(16, 73, 8):
        for seed in range(5):
            rng = np.random.default_rng(100 * n + seed)
            A = rng.choice(half_grid, size=(n, n))
            np.fill_diagonal(A, 0.0)
            got, want = normalized_trajectory(A, ks), trajectory_oracle(A, ks)
            same = not got.failures and not want.failures and [
                (s.k, s.iterations) for s in got.samples
            ] == [(s.k, s.iterations) for s in want.samples]
            gap = max(
                max(abs(s.log_rho_over_k - t.log_rho_over_k),
                    float(np.abs(np.subtract(s.point.coords, t.point.coords)).max()))
                for s, t in zip(got.samples, want.samples)
            ) if same else float("inf")
            worst = max(worst, gap)
            if gap > perron._TOL:
                bad.append(f"n={n} seed={seed}: {len(got.failures)} failed samples, gap {gap:.3g}")
    print(f"{len(bad)} of 40 mismatched, largest gap {worst:.3g} (tolerance {perron._TOL})")
    assert not bad, bad
