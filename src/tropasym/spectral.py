"""Max-plus spectral data: eigenvalue, critical graph, eigenspace generators.

The tropical eigenvalue of a real square matrix is its maximum cycle mean.
Karp's dynamic program computes it exactly in O(n^3) integer operations.
The eigenspace is generated by Kleene-star columns at critical nodes, one
per strongly connected component of the critical graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Sequence

import numpy as np

from .core import (
    MAX_PLUS,
    ProjectivePoint,
    TropicalMatrix,
    _common_nums,
    _in_span_nums,
    _int_array,
    _star,
)


def _require_max_plus(A: TropicalMatrix, what: str):
    if A.semiring != MAX_PLUS:
        raise ValueError(f"{what} requires a max-plus matrix, got {A.semiring}")


# from this size on Karp's table and the lambda-normalized star run as
# integer numpy passes; below it numpy's per-call cost outweighs their O(n^3)
# arithmetic, and they run on Python lists
_ARRAY_MIN_N = 6


def _walks(W: np.ndarray) -> list[list[int]]:
    """Karp's table D[1..n] of the integer array W, as lists.

    D[m][v] is the maximum weight of a walk of exactly m edges from node 0 to
    v.  Each row D[m] for m >= 2 is one broadcast max over the previous one,
    so |D| <= n max|W|.
    """
    rows = [W[0]]
    for _ in range(1, len(W)):
        rows.append(np.maximum.reduce(rows[-1][:, None] + W))
    return [row.tolist() for row in rows]


def _walks_lists(W: Sequence[Sequence[int]]) -> list[list[int]]:
    """`_walks` on rows of Python ints, one max over a column per entry."""
    cols = list(zip(*W))
    rows = [list(W[0])]
    for _ in range(1, len(W)):
        prev = rows[-1]
        rows.append([max(map(add, prev, col)) for col in cols])
    return rows


def _karp(D: list[list[int]]) -> tuple[int, int]:
    """Maximum cycle mean from Karp's table D[1..n], as p / q with q > 0.

    With m = 0 only node 0 is reachable, at weight 0.  The mean is
    max_v min_m (D[n][v] - D[m][v]) / (n - m), the ratios compared by
    cross-multiplication on Python ints.
    """
    n = len(D)
    best_p, best_q = None, 1
    for v, col in enumerate(zip(*D)):  # D[1..n][v]
        dn = col[-1]
        p_min, q_min = (dn, n) if v == 0 else (None, 1)  # m = 0 reaches node 0 only
        q = n
        for d in col[:-1]:
            q -= 1
            p = dn - d
            if p_min is None or p * q_min < p_min * q:
                p_min, q_min = p, q
        if best_p is None or p_min * best_q > best_p * q_min:
            best_p, best_q = p_min, q_min
    return best_p, best_q


def _normalized_star_lists(W: list[list[int]]) -> list[list[int]]:
    """`_star` on rows of Python ints with no positive cycle, such as a
    lambda-normalized matrix's, so the pass needs no divergence check."""
    S = [row[:] for row in W]
    for k, Sk in enumerate(S):
        # in place: with no positive cycle, round k leaves row k and column k alone
        for Si in S:
            a = Si[k]
            for j, y in enumerate(Sk):
                if a + y > Si[j]:
                    Si[j] = a + y
    for i, Si in enumerate(S):
        Si[i] = 0  # identity term: the empty path
    return S


def max_cycle_mean(A: TropicalMatrix) -> Fraction:
    """Maximum mean weight over all directed cycles (Karp's algorithm).

    Karp's table runs on A's integer numerators, over its denominator.
    """
    _require_max_plus(A, "max_cycle_mean")
    if A.n < _ARRAY_MIN_N:
        D = _walks_lists(A.nums)
    else:
        D = _walks(_int_array(A.nums, A.n))
    p, q = _karp(D)
    return Fraction(p, q * A.den)


@dataclass(frozen=True)
class SpectralData:
    """Tropical eigenvalue, critical structure, and eigenspace generators."""

    lam: Fraction
    critical_nodes: frozenset[int]
    critical_edges: frozenset[tuple[int, int]]
    classes: tuple[tuple[int, ...], ...]
    generators: tuple[ProjectivePoint, ...]

    def to_json_dict(self) -> dict:
        return {
            "lambda": str(self.lam),
            "classes": [list(c) for c in self.classes],
            "generators": [[str(x) for x in g.coords] for g in self.generators],
        }


@lru_cache(maxsize=8)
def spectral_data(A: TropicalMatrix) -> SpectralData:
    """Eigenvalue, critical edges/nodes/classes, and deduplicated generators.

    An edge (i, j) is critical iff it lies on a zero-mean cycle of the
    lambda-normalized matrix, i.e. Abar_ij + S_ji = 0 with S the Kleene star.
    Critical nodes i and j share a class (a strongly connected component of
    the critical graph) iff S_ij + S_ji = 0.  Generators are star columns at
    one representative node per critical class, deduplicated projectively.

    The last 8 records are kept, keyed by the matrix (whose `==` and `hash`
    compare the rational entries), so a caller and the Schur level 0 of
    `candidate_exponents(A.negate())` solve A once.
    """
    _require_max_plus(A, "spectral_data")
    n = A.n
    # Abar = A - lam is Wb = W q - p over q den
    if n < _ARRAY_MIN_N:
        p, q = _karp(_walks_lists(A.nums))
        Wb = [[x * q - p for x in row] for row in A.nums]
        T = _normalized_star_lists(Wb)
        edges = {(i, j) for i in range(n) for j in range(n) if Wb[i][j] + T[j][i] == 0}
    else:
        # |Wb| <= 2nM for M = max|W| since |lam| <= M, so its star sums stay
        # within 4n^2 M
        W = _int_array(A.nums, 4 * n * n)
        p, q = _karp(_walks(W))
        Wb = W * q - p
        S = _star(Wb, "positive")  # lambda-normalized: no positive cycle
        src, dst = np.nonzero(Wb + S.T == 0)
        edges = set(zip(src.tolist(), dst.tolist()))
        T = S.tolist()
    lam = Fraction(p, q * A.den)
    nodes = sorted({u for e in edges for u in e})
    s = q * A.den
    classes: list[tuple[int, ...]] = []
    placed: set[int] = set()
    for u in nodes:
        if u not in placed:
            cls = tuple(v for v in nodes if T[u][v] + T[v][u] == 0)
            placed.update(cls)
            classes.append(cls)
    gens: list[ProjectivePoint] = []
    seen: set[tuple[int, ...]] = set()
    for cls in classes:
        key = tuple(T[i][cls[0]] - T[0][cls[0]] for i in range(n))
        if key not in seen:
            seen.add(key)
            gens.append(ProjectivePoint(key, s))
    return SpectralData(
        lam=lam,
        critical_nodes=frozenset(nodes),
        critical_edges=frozenset(edges),
        classes=tuple(classes),
        generators=tuple(gens),
    )


def eigenspace_equal(A: TropicalMatrix, B: TropicalMatrix) -> bool:
    """True iff the two eigenspaces coincide (mutual span membership of generators)."""
    if A.n != B.n:
        raise ValueError("dimension mismatch")
    return _same_span(spectral_data(A).generators, spectral_data(B).generators)


def _same_span(ga: Sequence[ProjectivePoint], gb: Sequence[ProjectivePoint]) -> bool:
    """Mutual span membership of two generator sets, on their numerators over
    one denominator."""
    _, nums = _common_nums([*ga, *gb])
    a, b = nums[: len(ga)], nums[len(ga) :]
    return all(_in_span_nums(x, b) for x in a) and all(_in_span_nums(x, a) for x in b)
