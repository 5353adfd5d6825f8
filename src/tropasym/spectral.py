"""Max-plus spectral data: eigenvalue, critical graph, eigenspace generators.

The tropical eigenvalue of a real square matrix is its maximum cycle mean.
Karp's dynamic program computes it exactly in O(n^3) integer operations; a
brute-force simple-cycle enumeration serves as an independent oracle for
small sizes.  The eigenspace is generated by Kleene-star columns at critical
nodes, one per strongly connected component of the critical graph.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Sequence

from .core import (
    MAX_PLUS,
    ProjectivePoint,
    TropicalMatrix,
    _encode,
    as_rational,
    in_span,
    kleene_star,
    normalize_projective,
    scale_matrix,
)


def _require_max_plus(A: TropicalMatrix, what: str):
    if A.semiring != MAX_PLUS:
        raise ValueError(f"{what} requires a max-plus matrix, got {A.semiring}")


def max_cycle_mean(A: TropicalMatrix) -> Fraction:
    """Maximum mean weight over all directed cycles (Karp's algorithm).

    D[m][v] is the maximum weight of a walk of exactly m edges from node 0 to
    v (None while unreachable; with all-finite entries only m=0 has Nones).
    The eigenvalue is max_v min_m (D[n][v] - D[m][v]) / (n - m).  The table
    holds integer numerators over the entries' common denominator, and the
    ratios are compared by cross-multiplication.
    """
    _require_max_plus(A, "max_cycle_mean")
    n = A.n
    W, den = _encode(A.entries)
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


def cycle_mean_oracle(A: TropicalMatrix) -> Fraction:
    """Independent check: enumerate all simple cycles (n <= 8 only)."""
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


@dataclass(frozen=True)
class SpectralData:
    """Tropical eigenvalue, critical structure, and eigenspace generators."""

    lam: Fraction
    critical_nodes: frozenset[int]
    critical_edges: frozenset[tuple[int, int]]
    classes: tuple[tuple[int, ...], ...]
    generators: tuple[ProjectivePoint, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "lambda": str(self.lam),
                "classes": [list(c) for c in self.classes],
                "generators": [[str(x) for x in g.coords] for g in self.generators],
            }
        )


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
    num, _ = _encode(Abar.entries + S.entries)  # one denominator for both
    W, T = num[:n], num[n:]
    edges = {(i, j) for i in range(n) for j in range(n) if W[i][j] + T[j][i] == 0}
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
            gens.append(normalize_projective(S.column(cls[0])))
    return SpectralData(
        lam=lam,
        critical_nodes=frozenset(nodes),
        critical_edges=frozenset(edges),
        classes=tuple(classes),
        generators=tuple(gens),
    )


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


def eigenspace_equal(A: TropicalMatrix, B: TropicalMatrix) -> bool:
    """True iff the two eigenspaces coincide (mutual span membership of generators)."""
    if A.n != B.n:
        raise ValueError("dimension mismatch")
    return _same_span(spectral_data(A).generators, spectral_data(B).generators)


def _same_span(ga: Sequence[ProjectivePoint], gb: Sequence[ProjectivePoint]) -> bool:
    """Mutual span membership of two generator sets."""
    return all(in_span(g, gb) for g in ga) and all(in_span(g, ga) for g in gb)


def hadamard_lemma_check(A: TropicalMatrix, k: int) -> bool:
    """Eigenvalue and generators scale exactly by k under entrywise scaling."""
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    k = int(k)
    Ak = scale_matrix(A, k)
    if max_cycle_mean(Ak) != k * max_cycle_mean(A):
        return False
    scaled = {
        ProjectivePoint(tuple(k * x for x in g.coords))
        for g in spectral_data(A).generators
    }
    return set(spectral_data(Ak).generators) == scaled
