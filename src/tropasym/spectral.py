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
from typing import Sequence

import numpy as np

from .core import (
    MAX_PLUS,
    ProjectivePoint,
    TropicalMatrix,
    _int_array,
    _star,
    in_span,
)


def _require_max_plus(A: TropicalMatrix, what: str):
    if A.semiring != MAX_PLUS:
        raise ValueError(f"{what} requires a max-plus matrix, got {A.semiring}")


def _karp(W: np.ndarray) -> tuple[int, int]:
    """Maximum cycle mean of the integer array W, as p / q with q > 0.

    D[m][v] is the maximum weight of a walk of exactly m edges from node 0 to
    v; with m = 0 only node 0 is reachable, at weight 0.  Each row D[m] for
    m >= 1 is one broadcast max over the previous one, so |D| <= n max|W|.
    The mean is max_v min_m (D[n][v] - D[m][v]) / (n - m), the ratios
    compared by cross-multiplication on Python ints.
    """
    n = len(W)
    rows = [W[0]]
    for _ in range(1, n):
        rows.append(np.maximum.reduce(rows[-1][:, None] + W))
    best_p, best_q = None, 1
    for v, col in enumerate(zip(*(row.tolist() for row in rows))):  # D[1..n][v]
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


def max_cycle_mean(A: TropicalMatrix) -> Fraction:
    """Maximum mean weight over all directed cycles (Karp's algorithm).

    Karp's table runs on A's integer numerators, over its denominator.
    """
    _require_max_plus(A, "max_cycle_mean")
    p, q = _karp(_int_array(A.nums, A.n))
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
    # Abar = A - lam is Wb = W q - p over q den, with |Wb| <= 2nM for
    # M = max|W| since |lam| <= M, so its star sums stay within 4n^2 M
    W = _int_array(A.nums, 4 * n * n)
    p, q = _karp(W)
    lam = Fraction(p, q * A.den)
    Wb = W * q - p
    S = _star(Wb, "positive")  # lambda-normalized: no positive cycle
    src, dst = np.nonzero(Wb + S.T == 0)
    edges = set(zip(src.tolist(), dst.tolist()))
    nodes = sorted({u for e in edges for u in e})
    T, s = S.tolist(), q * A.den
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
            gens.append(ProjectivePoint(tuple(Fraction(x, s) for x in key)))
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
    """Mutual span membership of two generator sets."""
    return all(in_span(g, gb) for g in ga) and all(in_span(g, ga) for g in gb)
