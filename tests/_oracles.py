"""Independent brute-force oracles used to check the library's algorithms.

These deliberately share no code with the implementations they check: the
star oracle is a dynamic program over exact path lengths, the Schur oracle
is a Floyd-Warshall restricted to a given set of intermediate nodes, the
component oracle is a graph search that never looks at edge weights, the
raster oracle tests each plot cell on its own with the scalar span_distance,
and the log-domain product oracle reduces one n^3 tensor at once.
"""

from fractions import Fraction

import numpy as np

from tropasym import MAX_PLUS, MIN_PLUS, TropicalMatrix, span_distance


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
