"""One squaring-accelerator trajectory at size N, run as its own process by
tests/test_accelerator_at_scale.py so that its peak RSS and its OpenBLAS
thread count (OPENBLAS_NUM_THREADS) are its own.

Usage: N=200 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/_bounded_memory_run.py

Solves the zero-diagonal matrix with entries uniform in [-6, -1] (numpy
seed 0) on the default schedule.  Prints one line with the failed samples,
max RSS, wall time, iterations and the rows that went through the
row-blocked underflow fallback, then the line "digest <sha256 of the
trajectory's repr>".  Exits 1 on a failed sample, on a sample that took more
iterations than the solver's bound by construction, or on RSS above 100 MB,
never on time.
"""

import hashlib
import os
import resource
import sys
import time

import numpy as np

from tropasym import geometric_schedule, normalized_trajectory, perron

n = int(os.environ["N"])
fallback_rows = 0
blocked = perron._log_matmul_blocked


def counting(B, C):
    global fallback_rows
    fallback_rows += len(B)
    return blocked(B, C)


perron._log_matmul_blocked = counting
rng = np.random.default_rng(0)
A = rng.uniform(-6.0, -1.0, (n, n))
np.fill_diagonal(A, 0.0)
t = time.perf_counter()
traj = normalized_trajectory(A, geometric_schedule())
wall = time.perf_counter() - t
its = [s.iterations for s in traj.samples + traj.failures]
bound = 1 + perron._SQUARING_ROUNDS + perron._POLISH_STEPS
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"n={n}, {os.environ['OPENBLAS_NUM_THREADS']} OpenBLAS threads: "
      f"{len(traj.failures)} failed samples, max RSS {rss_mb:.1f} MB, {wall:.2f} s, "
      f"{sum(its)} iterations, at most {max(its)} per sample (bound {bound}), "
      f"{fallback_rows} rows through the row-blocked fallback")
print("digest", hashlib.sha256(repr(traj).encode()).hexdigest())
sys.exit(0 if not traj.failures and max(its) <= bound and rss_mb <= 100 else 1)
