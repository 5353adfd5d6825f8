"""Max-plus spectral data: eigenvalue, critical graph, eigenspace generators.

The tropical eigenvalue of a real square matrix is its maximum cycle mean.
Karp's dynamic program computes it exactly in O(n^3) integer operations.
The eigenspace is generated by Kleene-star columns at critical nodes, one
per strongly connected component of the critical graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Sequence

from .core import MAX_PLUS, ProjectivePoint, TropicalMatrix, in_span, kleene_star


def _require_max_plus(A: TropicalMatrix, what: str):
    if A.semiring != MAX_PLUS:
        raise ValueError(f"{what} requires a max-plus matrix, got {A.semiring}")


def max_cycle_mean(A: TropicalMatrix) -> Fraction:
    """Maximum mean weight over all directed cycles (Karp's algorithm).

    D[m][v] is the maximum weight of a walk of exactly m edges from node 0 to
    v (None while unreachable; with all-finite entries only m=0 has Nones).
    The eigenvalue is max_v min_m (D[n][v] - D[m][v]) / (n - m).  The table
    holds integer numerators over A's denominator, and the ratios are
    compared by cross-multiplication.
    """
    _require_max_plus(A, "max_cycle_mean")
    n = A.n
    W, den = A.nums, A.den
    cols = list(zip(*W))
    D: list[list[int | None]] = [[0] + [None] * (n - 1), W[0]]
    for _ in range(2, n + 1):
        prev = D[-1]
        D.append([max(map(add, prev, col)) for col in cols])
    best = None  # (p, q): the mean p / (q * den), with q > 0
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


def spectral_data(A: TropicalMatrix) -> SpectralData:
    """Eigenvalue, critical edges/nodes/classes, and deduplicated generators.

    An edge (i, j) is critical iff it lies on a zero-mean cycle of the
    lambda-normalized matrix, i.e. Abar_ij + S_ji = 0 with S the Kleene star.
    Critical nodes i and j share a class (a strongly connected component of
    the critical graph) iff S_ij + S_ji = 0.  Generators are star columns at
    one representative node per critical class, deduplicated projectively.
    """
    _require_max_plus(A, "spectral_data")
    lam = max_cycle_mean(A)
    n = A.n
    Abar = A.shift(-lam)
    S = kleene_star(Abar)
    W, T = Abar.nums, S.nums
    a, s = Abar.den, S.den  # Abar_ij + S_ji = 0, cross-multiplied
    edges = {
        (i, j) for i in range(n) for j in range(n) if W[i][j] * s + T[j][i] * a == 0
    }
    nodes = sorted({u for e in edges for u in e})
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
