"""Independent brute-force oracles used to check the library's algorithms.

These deliberately share no code with the implementations they check: the
star oracle is a dynamic program over exact path lengths, the Schur oracle
is a Floyd-Warshall restricted to a given set of intermediate nodes, the
component oracle is a graph search that never looks at edge weights, the
raster oracle tests each plot cell on its own with the scalar span_distance,
the log-domain product oracle reduces one n^3 tensor at once, the trajectory
oracle solves one matrix at a time with its own closures over the Perron
solver's float operations, and the random matrix oracle builds its entries as
Fractions from the same draws.  The matrix product, sum and scaling work
entrywise on the Fraction entries, the cycle mean oracle enumerates every
simple cycle, the eigenvector check evaluates the eigen-equation row by row,
and the float Perron oracle runs linear-domain power iteration on exp(kA).

The exact kernel oracles are the library's earlier pure-Python kernels, kept
as differential references for its integer-array ones: a Floyd-Warshall star
that runs every round before it looks for a bad cycle, Karp's table built one
list per row, the Schur complement one row at a time, and the spectral data
and candidate exponents composed from them with Fraction arithmetic.  Of the
library's kernel code they share only `StarDivergenceError`, so the
divergence message and witness cycle come from the same walk on both sides.
The point oracles are the library's earlier span membership and translation
chain tests on the Fraction coordinates of points, the perturbation
candidate oracle re-encodes each candidate's Fraction rows with from_rows,
and the perturbation sampler oracle tests those candidates one at a time.

Besides the oracles, hadamard_lemma_check is a property check of the
library's own spectral data under entrywise scaling, and row_coupling_mass
is a diagnostic of how much of k*A a float Perron vector still resolves.
"""

import itertools
import math
import random
from fractions import Fraction
from operator import add

import numpy as np

from tropasym import (
    MAX_PLUS,
    MIN_PLUS,
    ProjectivePoint,
    TropicalMatrix,
    as_rational,
    float_point,
    max_cycle_mean,
    normalize_projective,
    span_distance,
    spectral_data,
)
from tropasym.conjectures import TranslationChain
from tropasym.core import StarDivergenceError
from tropasym.perron import FailedSample, PerronSample, PerronTrajectory
from tropasym.schur import Candidate, SchurLevel, SchurReport
from tropasym.spectral import SpectralData


def _check_pair(A: TropicalMatrix, B: TropicalMatrix):
    if A.semiring != B.semiring:
        raise ValueError(f"semiring mismatch: {A.semiring} vs {B.semiring}")
    if A.n != B.n:
        raise ValueError(f"dimension mismatch: {A.n} vs {B.n}")


def trop_add(A: TropicalMatrix, B: TropicalMatrix) -> TropicalMatrix:
    """Entrywise tropical sum (max or min per the shared tag)."""
    _check_pair(A, B)
    pick = max if A.semiring == MAX_PLUS else min
    ent = tuple(
        tuple(pick(x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(A.entries, B.entries)
    )
    return TropicalMatrix.from_rows(ent, A.semiring)


def trop_matmul(A: TropicalMatrix, B: TropicalMatrix) -> TropicalMatrix:
    """Tropical matrix product: C_ij = (+)_l A_il (x) B_lj."""
    _check_pair(A, B)
    n = A.n
    pick = max if A.semiring == MAX_PLUS else min
    ent = tuple(
        tuple(pick(A.entries[i][l] + B.entries[l][j] for l in range(n)) for j in range(n))
        for i in range(n)
    )
    return TropicalMatrix.from_rows(ent, A.semiring)


def scale_matrix(A: TropicalMatrix, k) -> TropicalMatrix:
    """Entrywise k*A_ij, the log-domain image of the k-th Hadamard power."""
    k = as_rational(k)
    if k <= 0:
        raise ValueError("scale factor must be positive")
    return TropicalMatrix.from_rows([[k * x for x in row] for row in A.entries], A.semiring)


def _require_max_plus(A: TropicalMatrix, what: str):
    if A.semiring != MAX_PLUS:
        raise ValueError(f"{what} requires a max-plus matrix, got {A.semiring}")


def cycle_mean_oracle(A: TropicalMatrix) -> Fraction:
    """Maximum cycle mean by enumerating all simple cycles (n <= 8 only)."""
    _require_max_plus(A, "cycle_mean_oracle")
    n = A.n
    if n > 8:
        raise ValueError("oracle limited to n <= 8")
    best = None
    for r in range(1, n + 1):
        for nodes in itertools.combinations(range(n), r):
            for rest in itertools.permutations(nodes[1:]):
                cyc = (nodes[0],) + rest
                w = sum(A.entries[cyc[i]][cyc[(i + 1) % r]] for i in range(r))
                mean = Fraction(w, r)
                if best is None or mean > best:
                    best = mean
    return best


def verify_eigenvector(A: TropicalMatrix, lam, v: ProjectivePoint) -> bool:
    """Exact check of max_j(A_ij + v_j) = lam + v_i for every row i."""
    _require_max_plus(A, "verify_eigenvector")
    if v.dim != A.n:
        raise ValueError("dimension mismatch")
    lam = as_rational(lam)
    for i in range(A.n):
        if max(A.entries[i][j] + v.coords[j] for j in range(A.n)) != lam + v.coords[i]:
            return False
    return True


def hadamard_lemma_check(A: TropicalMatrix, k: int) -> bool:
    """Eigenvalue and generators scale exactly by k under entrywise scaling."""
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    k = int(k)
    Ak = scale_matrix(A, k)
    if max_cycle_mean(Ak) != k * max_cycle_mean(A):
        return False
    scaled = {
        normalize_projective(k * x for x in g.coords)
        for g in spectral_data(A).generators
    }
    return set(spectral_data(Ak).generators) == scaled


class OracleError(RuntimeError):
    """The linear-domain float oracle failed or flagged itself unreliable."""


def _converge_linear(M: np.ndarray, x: np.ndarray, squarings: int = 64) -> np.ndarray | None:
    P = M.copy()
    prev = x / x.sum()
    for _ in range(squarings):
        y = P @ prev
        total = y.sum()
        if not np.isfinite(total) or total <= 0.0:
            return None
        y /= total
        if np.abs(y / prev - 1.0).max() < 1e-13:
            return y
        prev = y
        P = P @ P
        m = P.max()
        if not np.isfinite(m) or m <= 0.0:
            return None
        P /= m
    return None


def perron_float_oracle(A, k: float) -> tuple[float, np.ndarray]:
    """Classical linear-domain power iteration on the exponentiated matrix.

    Power steps are applied in bulk by repeated squaring, with a diagonal
    shift so that a dominant 2-cycle cannot stall the iteration.  This is the
    fragile reference path: it fails once exp(k*A) overflows, once entries
    flush to zero (the matrix is no longer positive), or once the result is
    untrustworthy, detected by disagreement between two independent starting
    vectors.  All failures raise OracleError.
    """
    M0 = np.asarray(A, dtype=float)
    if M0.ndim != 2 or M0.shape[0] != M0.shape[1] or M0.shape[0] == 0:
        raise ValueError("matrix must be square and non-empty")
    if not np.all(np.isfinite(M0)):
        raise ValueError("matrix entries must be finite")
    if not (math.isfinite(k) and k > 0):
        raise ValueError("k must be finite and positive")
    n = M0.shape[0]
    with np.errstate(over="ignore", under="ignore"):
        M = np.exp(k * M0)
    if not np.all(np.isfinite(M)):
        raise OracleError("overflow: exp(kA) exceeds double range")
    if M.min() <= 0.0:
        raise OracleError("underflow: exp(kA) has entries flushed to zero")
    if n == 1:
        return float(M[0, 0]), np.ones(1)
    shifted = M + np.eye(n) * M.sum(axis=1).max()
    x1 = _converge_linear(shifted, np.ones(n))
    x2 = _converge_linear(shifted, np.linspace(1.0, 2.0, n))
    if x1 is None or x2 is None:
        raise OracleError("power iteration did not converge")
    if np.abs(np.log(x1) - np.log(x2)).max() > 1e-10:
        raise OracleError("unreliable: result depends on the starting vector")
    x = x1
    for _ in range(50):
        xn = M @ x
        xn /= xn.sum()
        done = np.abs(xn / x - 1.0).max() < 1e-15
        x = xn
        if done:
            break
    T = M * x[None, :]
    top = T.max(axis=1)
    if float(((T.sum(axis=1) - top) / top).min()) < 1e-13:
        raise OracleError(
            "unreliable: row structure absorbed below double precision"
        )
    rho = float((M @ x)[0] / x[0])
    return rho, x / x.max()


def row_coupling_mass(A, k: float, point) -> float:
    """Smallest row-wise sub-dominant logsumexp mass at the given point.

    Measures how much of the matrix structure is still numerically visible at
    scale k; values near machine epsilon mean the eigenvector mixture is
    frozen and no longer being updated by any double-precision method.
    """
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError("matrix must be square and non-empty")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    y = np.asarray(list(point), dtype=float)
    B = k * M + y[None, :] - y[:, None]
    r = np.exp(B - B.max(axis=1, keepdims=True))
    return float((r.sum(axis=1) - 1.0).min())


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


def column(M: TropicalMatrix, j: int) -> tuple[Fraction, ...]:
    """Column j of M's rational entries."""
    return tuple(row[j] for row in M.entries)


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


def _solve_one(kA, k, tol, y0):
    """The Perron solver on one matrix: one lazy step, squaring, polishing phase.

    Returns (log_rho, y, residual, iterations, converged) after the same float
    operations in the same order as the library's solver, so the library's
    sample must equal this one bit for bit.  `tol` stands in for the
    library's fixed tolerance, so a test can ask both for failures.
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
        while budget > 0:
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

    # certify the start point, or accelerate from the point one step on
    y, done = lazy_phase(y, 1)
    if not done:
        u = _lse_rows(kA + y[None, :])
        c0 = float((u - y).min()) - math.log(n) - 1.0
        B = kA.copy()
        B[range(n), range(n)] = np.logaddexp(np.diag(kA), c0)
        x = y.copy()
        for _ in range(40):
            # below the GEMM cut-over (16) the power step is column n of the
            # product with [B | x], from it a pass of its own
            if n < 16:
                P = log_matmul_oracle(B, np.column_stack([B, x]))
                xnew = P[:, n]
            else:
                xnew = _lse_rows(B + x[None, :])
            xnew -= xnew[0]
            it += 1
            if not np.all(np.isfinite(xnew)):
                break
            delta = float(np.abs(xnew - x).max())
            x = xnew
            if delta < 1e-12:
                break
            B = P[:, :n] if n < 16 else log_matmul_oracle(B, B)
            B -= B.max()
        lazy_phase(x, 400)
    res, y, s = best
    return s, y, res, it, res < tol


def trajectory_oracle(A, k_schedule, tol=1e-13) -> PerronTrajectory:
    """normalized_trajectory of one matrix, warm-started along the schedule."""
    M = np.asarray(A, dtype=float)
    samples, failures = [], []
    y = kprev = None
    for k in k_schedule:
        y0 = None if y is None else y * (k / kprev)
        s, y, res, it, ok = _solve_one(k * M, k, tol, y0)
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


def perturbation_candidates_oracle(A: TropicalMatrix, seed: int, draws: int | None = None):
    """eigenspace_preserving_perturbations' candidates in draw order, each
    built by adding its multiple of 1/2 to one Fraction entry of A and
    re-encoding the rows; stops once every candidate has been drawn, or
    after `draws` draws when that is given."""
    rng = random.Random(seed)
    steps = 4
    candidates = A.n * (A.n - 1) * 2 * steps
    tried = set()
    budget = itertools.count() if draws is None else range(draws)
    for _ in budget:
        if len(tried) == candidates:
            return
        i = rng.randrange(A.n)
        j = rng.randrange(A.n)
        if i == j:
            continue
        step = rng.randint(-steps, steps)
        if step == 0 or (i, j, step) in tried:
            continue
        tried.add((i, j, step))
        rows = [list(r) for r in A.entries]
        rows[i][j] = rows[i][j] + Fraction(1, 2) * step
        yield TropicalMatrix.from_rows(rows, A.semiring)


def perturbations_oracle(A: TropicalMatrix, count: int, seed: int) -> list[TropicalMatrix]:
    """eigenspace_preserving_perturbations one candidate at a time: within
    the sampler's budget of 400 draws per member, each candidate of
    perturbation_candidates_oracle whose spectral_data_oracle has A's
    eigenvalue and, by same_span_oracle, A's eigenspace."""
    sd = spectral_data_oracle(A)
    accepted = []
    for B in perturbation_candidates_oracle(A, seed, draws=400 * count):
        sdb = spectral_data_oracle(B)
        if sdb.lam == sd.lam and same_span_oracle(sd.generators, sdb.generators):
            accepted.append(B)
            if len(accepted) == count:
                break
    return accepted


def in_span_oracle(x: ProjectivePoint, gens) -> bool:
    """Span membership on the Fraction coordinates: x is in the span iff its
    best approximation from below, normalized, is x itself."""
    if not gens:
        raise ValueError("need at least one generator")
    xs, gs = x.coords, [g.coords for g in gens]
    lams = [min(a - b for a, b in zip(xs, g)) for g in gs]
    proj = [max(lam + g[i] for lam, g in zip(lams, gs)) for i in range(len(xs))]
    return tuple(c - proj[0] for c in proj) == xs


def same_span_oracle(ga, gb) -> bool:
    """Mutual span membership of two generator sets, by in_span_oracle."""
    return all(in_span_oracle(g, gb) for g in ga) and all(in_span_oracle(g, ga) for g in gb)


def translation_chain_oracle(gens) -> TranslationChain | None:
    """translation_chain on the Fraction coordinates: every generator's tail
    differs from the first generator's by one constant shift."""
    base = gens[0].coords
    shifts = []
    for g in gens:
        tail = [a - b for a, b in zip(g.coords[1:], base[1:])]
        if tail and any(x != tail[0] for x in tail[1:]):
            return None
        shifts.append(tail[0] if tail else Fraction(0))
    lo, hi = min(shifts), max(shifts)
    bottom = gens[shifts.index(lo)]
    top = normalize_projective([0, *(x + hi - lo for x in bottom.coords[1:])])
    return TranslationChain(base=bottom, beta=hi - lo, predicted=top)


def kleene_star_oracle(A: TropicalMatrix) -> TropicalMatrix:
    """Kleene star by in-place Floyd-Warshall over Python-int numerators.

    All n rounds run before the diagonal is checked, so on a divergent input
    the entries may grow without bound; Python ints never wrap.
    """
    n = A.n
    maximum = A.semiring == MAX_PLUS
    W = [list(row) if maximum else [-x for x in row] for row in A.nums]
    S = [row[:] for row in W]
    for k in range(n):
        Sk = S[k]
        for i in range(n):
            a = S[i][k]
            S[i] = [x if x >= a + y else a + y for x, y in zip(S[i], Sk)]
    for i in range(n):
        if S[i][i] > 0:
            kind = "positive" if maximum else "negative"
            raise StarDivergenceError(kind, np.array(W, dtype=object), i)
        S[i][i] = 0
    if not maximum:
        S = [[-x for x in row] for row in S]
    return TropicalMatrix(tuple(map(tuple, S)), A.den, A.semiring)


def karp_oracle(A: TropicalMatrix) -> Fraction:
    """Karp's maximum cycle mean with the table built one Python list per row."""
    _require_max_plus(A, "karp_oracle")
    n = A.n
    W, den = A.nums, A.den
    cols = list(zip(*W))
    D = [[0] + [None] * (n - 1), W[0]]
    for _ in range(2, n + 1):
        prev = D[-1]
        D.append([max(map(add, prev, col)) for col in cols])
    best = None
    for v in range(n):
        worst = None
        for m in range(n):
            if D[m][v] is None:
                continue
            p, q = D[n][v] - D[m][v], n - m
            if worst is None or p * worst[1] < worst[0] * q:
                worst = (p, q)
        if best is None or worst[0] * best[1] > best[0] * worst[1]:
            best = worst
    return Fraction(best[0], best[1] * den)


def minplus_schur_oracle(A: TropicalMatrix, C) -> TropicalMatrix:
    """Schur complement of C in the min-plus A, one output row at a time."""
    assert A.semiring == MIN_PLUS
    n = A.n
    C = frozenset(C)
    if not C:
        return A
    Ns = sorted(set(range(n)) - C)
    Cs = sorted(C)
    W, den = A.nums, A.den
    Acc = TropicalMatrix(tuple(tuple(W[i][j] for j in Cs) for i in Cs), den, MIN_PLUS)
    star = kleene_star_oracle(Acc)
    f = den // star.den
    star_cols = [[f * x for x in col] for col in zip(*star.nums)]
    out_cols = [[W[c][j] for c in Cs] for j in Ns]
    out = []
    for i in Ns:
        into = [W[i][c] for c in Cs]
        through = [min(map(add, into, col)) for col in star_cols]
        out.append(
            [min(W[i][j], min(map(add, through, col))) for j, col in zip(Ns, out_cols)]
        )
    return TropicalMatrix(tuple(map(tuple, out)), den, MIN_PLUS)


def _zero_cycle_edges(Abar: TropicalMatrix, S: TropicalMatrix) -> frozenset[tuple[int, int]]:
    """Edges (i, j) on a zero-weight cycle of Abar, S its Kleene star:
    Abar_ij + S_ji = 0."""
    n = Abar.n
    W, T = Abar.nums, S.nums
    a, s = Abar.den, S.den
    return frozenset(
        (i, j) for i in range(n) for j in range(n) if W[i][j] * s + T[j][i] * a == 0
    )


def critical_edges_oracle(A: TropicalMatrix) -> frozenset[tuple[int, int]]:
    """The edges of A's critical graph, those on a zero-mean cycle of A - lam."""
    Abar = A.shift(-karp_oracle(A))
    return _zero_cycle_edges(Abar, kleene_star_oracle(Abar))


def spectral_data_oracle(A: TropicalMatrix) -> SpectralData:
    """spectral_data on the oracle kernels, through the shifted matrix's star:
    critical nodes are the ends of critical edges."""
    _require_max_plus(A, "spectral_data_oracle")
    lam = karp_oracle(A)
    n = A.n
    Abar = A.shift(-lam)
    S = kleene_star_oracle(Abar)
    T, s = S.nums, S.den
    edges = _zero_cycle_edges(Abar, S)
    nodes = sorted({u for e in edges for u in e})
    classes = []
    placed = set()
    for u in nodes:
        if u not in placed:
            cls = tuple(v for v in nodes if T[u][v] + T[v][u] == 0)
            placed.update(cls)
            classes.append(cls)
    gens = []
    seen = set()
    for cls in classes:
        key = tuple(T[i][cls[0]] - T[0][cls[0]] for i in range(n))
        if key not in seen:
            seen.add(key)
            gens.append(normalize_projective(Fraction(x, s) for x in key))
    return SpectralData(
        lam=lam,
        critical_nodes=frozenset(nodes),
        classes=tuple(classes),
        generators=tuple(gens),
    )


def schur_sequence_oracle(B: TropicalMatrix) -> list[SchurLevel]:
    """schur_sequence on the oracle kernels."""
    assert B.semiring == MIN_PLUS
    levels = []
    current, node_map = B, tuple(range(B.n))
    while True:
        sd = spectral_data_oracle(current.negate())
        lam = -sd.lam
        classes = tuple(tuple(node_map[i] for i in cls) for cls in sd.classes)
        levels.append(SchurLevel(current, node_map, lam, classes))
        crit = sd.critical_nodes
        if crit == set(range(current.n)):
            break
        survivors = [i for i in range(current.n) if i not in crit]
        current = minplus_schur_oracle(current.shift(-lam), crit)
        node_map = tuple(node_map[i] for i in survivors)
    return levels


def candidate_exponents_oracle(B: TropicalMatrix) -> SchurReport:
    """candidate_exponents on the oracle kernels, B_hat built entry by entry in Fractions."""
    levels = schur_sequence_oracle(B)
    removal_level = {
        node: lv.eigenvalue for lv in levels for cls in lv.removed_classes for node in cls
    }
    n = B.n
    ent = [[B.entries[i][j] - removal_level[i] for j in range(n)] for i in range(n)]
    b_hat = TropicalMatrix.from_rows(ent, MIN_PLUS)
    star = kleene_star_oracle(b_hat)
    cands = []
    seen = set()
    for j in range(n):
        v = column(star, j)
        tp = normalize_projective(tuple(-x for x in v))
        if tp not in seen:
            seen.add(tp)
            cands.append(Candidate(v=v, tp_point=tp))
    return SchurReport(levels=tuple(levels), b_hat=b_hat, candidates=tuple(cands))
