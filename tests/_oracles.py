"""Independent brute-force oracles used to check the library's algorithms.

These deliberately share no code with the implementations they check: the
star oracle is a dynamic program over exact path lengths, the Schur oracle
is a Floyd-Warshall restricted to a given set of intermediate nodes, the
component oracle is a graph search that never looks at edge weights, the
raster oracle tests each plot cell on its own with the scalar span_distance,
the log-domain product oracle reduces one n^3 tensor at once, the trajectory
oracle solves one matrix at a time with its own closures over the Perron
solver's float operations, and the random matrix oracle builds its entries as
Fractions from the same draws.
"""

import math
import random
from fractions import Fraction

import numpy as np

from tropasym import MAX_PLUS, MIN_PLUS, TropicalMatrix, float_point, span_distance
from tropasym.perron import FailedSample, PerronSample, PerronTrajectory


def longest_path_table(A: TropicalMatrix) -> list[list[Fraction]]:
    """Best path weight over all paths of length 0..n (max-plus or min-plus)."""
    n = A.n
    pick = max if A.semiring == MAX_PLUS else min
    # W[i][j]: best walk of exactly L edges, built up one edge at a time
    best = [[None] * n for _ in range(n)]
    for i in range(n):
        best[i][i] = Fraction(0)  # length 0
    W = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    for _ in range(n):
        Wn = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                cands = [
                    W[i][l] + A.entries[l][j] for l in range(n) if W[i][l] is not None
                ]
                if cands:
                    Wn[i][j] = pick(cands)
        W = Wn
        for i in range(n):
            for j in range(n):
                if W[i][j] is None:
                    continue
                if best[i][j] is None:
                    best[i][j] = W[i][j]
                else:
                    best[i][j] = pick(best[i][j], W[i][j])
    return best


def restricted_fw(A: TropicalMatrix, C) -> list[list[Fraction]]:
    """Min-plus shortest paths using only intermediate nodes from C."""
    assert A.semiring == MIN_PLUS
    n = A.n
    dist = [list(row) for row in A.entries]
    for w in sorted(C):
        for i in range(n):
            for j in range(n):
                cand = dist[i][w] + dist[w][j]
                if cand < dist[i][j]:
                    dist[i][j] = cand
    return dist


def strongly_connected_components(nodes, edges) -> list[tuple[int, ...]]:
    """Kosaraju's two depth-first passes; sorted tuples, by smallest node."""
    succ = {u: [] for u in nodes}
    pred = {u: [] for u in nodes}
    for u, v in edges:
        succ[u].append(v)
        pred[v].append(u)
    finished, seen = [], set()
    for root in sorted(nodes):
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            u, rest = stack[-1]
            for v in rest:
                if v not in seen:
                    seen.add(v)
                    stack.append((v, iter(succ[v])))
                    break
            else:
                stack.pop()
                finished.append(u)
    comps, placed = [], set()
    for root in reversed(finished):
        if root in placed:
            continue
        placed.add(root)
        comp, stack = [], [root]
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in pred[u]:
                if v not in placed:
                    placed.add(v)
                    stack.append(v)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def region_rects(gens, grid: int, tol: float, pad: float = 1.0) -> list[str]:
    """The eigenspace region's <rect> lines of a plot without a trajectory.

    One span_distance call per cell, runs merged along each row, on the
    plot's 640-pixel canvas with its 40-pixel margin.
    """
    x_lo = min(g[1] for g in gens) - pad
    x_hi = max(g[1] for g in gens) + pad
    y_lo = min(g[2] for g in gens) - pad
    y_hi = max(g[2] for g in gens) + pad
    scale = (640.0 - 2 * 40.0) / max(x_hi - x_lo, y_hi - y_lo)
    dx = (x_hi - x_lo) / grid
    dy = (y_hi - y_lo) / grid
    lines = []
    for iy in range(grid):
        y = y_lo + iy * dy
        run_start = None
        for ix in range(grid + 1):
            inside = ix < grid and span_distance([0.0, x_lo + ix * dx, y], gens) <= tol
            if inside and run_start is None:
                run_start = ix
            elif not inside and run_start is not None:
                px0 = 40.0 + (x_lo + run_start * dx - x_lo) * scale
                py0 = 640.0 - 40.0 - (y_lo + (iy + 1) * dy - y_lo) * scale
                w = (ix - run_start) * dx * scale
                h = dy * scale
                lines.append(
                    f'<rect x="{px0:.2f}" y="{py0:.2f}" '
                    f'width="{w + 0.5:.2f}" height="{h + 0.5:.2f}"/>'
                )
                run_start = None
    return lines


def log_matmul_oracle(B, C) -> np.ndarray:
    """logsumexp_l(B_il + C_lj) for all (i, l, j) in one (rows, l, j) tensor."""
    T = B[:, :, None] + C[None, :, :]
    m = T.max(axis=1)
    return m + np.log(np.exp(T - m[:, None, :]).sum(axis=1))


def _lse_rows(B):
    m = B.max(axis=1, keepdims=True)
    return m[:, 0] + np.log(np.exp(B - m).sum(axis=1))


def _solve_one(kA, k, tol, max_iter, y0):
    """The Perron solver on one matrix: lazy phase, squaring, polishing phase.

    Returns (log_rho, y, residual, iterations, converged) after the same float
    operations in the same order as the library's solver, so a stack member's
    sample must equal this one bit for bit.
    """
    n = kA.shape[0]
    if n == 1:
        return float(kA[0, 0]), np.zeros(1), 0.0, 0, True
    y = np.zeros(n) if y0 is None else y0
    it = 0
    best = (math.inf, y, 0.0)

    def lazy_phase(y, budget):
        nonlocal it, best
        history = []
        while budget > 0 and it < max_iter:
            u = _lse_rows(kA + y[None, :])
            res = float(np.abs(u - u[0] - y).max() / k)
            z = np.logaddexp(u, u[0] + y) - math.log(2.0)
            ynew = z - z[0]
            it += 1
            budget -= 1
            if res < best[0]:
                best = (res, y, float(u[0]))
            if res < tol:
                return y, True
            history.append(res)
            if len(history) > 40 and res > 0.75 * history[-40]:
                return ynew, False
            y = ynew
        return y, False

    y, done = lazy_phase(y, 2000)
    if not done:
        u = _lse_rows(kA + y[None, :])
        c0 = float((u - y).min()) - math.log(n) - 1.0
        B = kA.copy()
        B[range(n), range(n)] = np.logaddexp(np.diag(kA), c0)
        x = y.copy()
        for _ in range(40):
            if it >= max_iter:
                break
            xnew = _lse_rows(B + x[None, :])
            xnew -= xnew[0]
            it += 1
            if not np.all(np.isfinite(xnew)):
                break
            delta = float(np.abs(xnew - x).max())
            x = xnew
            if delta < 1e-12:
                break
            B = log_matmul_oracle(B, B)
            B -= B.max()
        lazy_phase(x, 400)
    res, y, s = best
    return s, y, res, it, res < tol


def trajectory_oracle(A, k_schedule, tol=1e-13, max_iter=10**6) -> PerronTrajectory:
    """normalized_trajectory of one matrix, warm-started along the schedule."""
    M = np.asarray(A, dtype=float)
    samples, failures = [], []
    y = kprev = None
    for k in k_schedule:
        y0 = None if y is None else y * (k / kprev)
        s, y, res, it, ok = _solve_one(k * M, k, tol, max_iter, y0)
        kprev = k
        if ok:
            samples.append(PerronSample(k, s / k, float_point(y / k), res, it))
        else:
            failures.append(FailedSample(k, res, it))
    return PerronTrajectory(tuple(samples), tuple(failures))


def random_matrix_rows(n: int, grid_step, entry_range, seed: int) -> TropicalMatrix:
    """random_matrix's draws, each entry built as lo + grid_step * r in Fractions."""
    rng = random.Random(seed)
    lo, hi = (Fraction(x) for x in entry_range)
    step = Fraction(grid_step)
    cells = int((hi - lo) / step)
    rows = [
        [Fraction(0) if i == j else lo + step * rng.randint(0, cells) for j in range(n)]
        for i in range(n)
    ]
    return TropicalMatrix.from_rows(rows, MAX_PLUS)
