"""Exact tropical (max-plus / min-plus) arithmetic.

Everything in this module is exact and no operation ever rounds.  The API is
rational: matrix entries, points and results are `fractions.Fraction`.  The
kernels (Kleene star, Karp, Schur complement) run on plain Python `int`
numerators over one common denominator, the lcm of the entries'
denominators, which `_encode` builds and `_decode` turns back into
fractions.  Criticality of a cycle is a statement about exact ties, so the
whole combinatorial layer must stay exact; floating point enters only in the
numerical companion types at the bottom of the module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

MAX_PLUS = "max-plus"
MIN_PLUS = "min-plus"

Rational = Fraction


class StarDivergenceError(ValueError):
    """Kleene star does not converge (positive max-plus / negative min-plus cycle)."""

    def __init__(self, message: str, cycle: tuple[int, ...] = ()):
        super().__init__(message)
        self.cycle = cycle


def as_rational(value) -> Fraction:
    """Coerce ints, decimal strings, and fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            "refusing to coerce a float to an exact rational; pass a decimal string"
        )
    return Fraction(value)


@dataclass(frozen=True)
class TropicalMatrix:
    """Square matrix over a tropical semiring, with exact rational entries."""

    entries: tuple[tuple[Fraction, ...], ...]
    semiring: str = MAX_PLUS

    def __post_init__(self):
        if self.semiring not in (MAX_PLUS, MIN_PLUS):
            raise ValueError(f"unknown semiring tag {self.semiring!r}")
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square and non-empty")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], semiring: str = MAX_PLUS) -> "TropicalMatrix":
        ent = tuple(tuple(as_rational(x) for x in row) for row in rows)
        return cls(ent, semiring)

    @property
    def n(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "TropicalMatrix":
        return TropicalMatrix(tuple(zip(*self.entries)), self.semiring)

    def negate(self) -> "TropicalMatrix":
        """Entrywise negation, switching the semiring tag (max-plus <-> min-plus)."""
        other = MIN_PLUS if self.semiring == MAX_PLUS else MAX_PLUS
        nums, den = _encode(self.entries)
        return TropicalMatrix(_decode([[-x for x in row] for row in nums], den), other)

    def shift(self, c) -> "TropicalMatrix":
        """Add c to every entry (the matrix A + c*J)."""
        nums, den = _encode(self.entries + ((as_rational(c),),))
        c = nums.pop()[0]
        return TropicalMatrix(
            _decode([[x + c for x in row] for row in nums], den), self.semiring
        )

    def to_floats(self) -> list[list[float]]:
        return [[float(x) for x in row] for row in self.entries]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "entries": [[str(x) for x in row] for row in self.entries],
                "semiring": self.semiring,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TropicalMatrix":
        obj = json.loads(text)
        mat = cls.from_rows(obj["entries"], obj.get("semiring", MAX_PLUS))
        if "n" in obj and obj["n"] != mat.n:
            raise ValueError(f"declared size {obj['n']} does not match {mat.n} rows")
        return mat


def _combine(a: Fraction, b: Fraction, semiring: str) -> Fraction:
    return max(a, b) if semiring == MAX_PLUS else min(a, b)


def trop_add(A: TropicalMatrix, B: TropicalMatrix) -> TropicalMatrix:
    """Entrywise tropical sum (max or min per the shared tag)."""
    _check_pair(A, B)
    ent = tuple(
        tuple(_combine(x, y, A.semiring) for x, y in zip(ra, rb))
        for ra, rb in zip(A.entries, B.entries)
    )
    return TropicalMatrix(ent, A.semiring)


def trop_matmul(A: TropicalMatrix, B: TropicalMatrix) -> TropicalMatrix:
    """Tropical matrix product: C_ij = (+)_l A_il (x) B_lj."""
    _check_pair(A, B)
    n = A.n
    pick = max if A.semiring == MAX_PLUS else min
    ent = tuple(
        tuple(pick(A.entries[i][l] + B.entries[l][j] for l in range(n)) for j in range(n))
        for i in range(n)
    )
    return TropicalMatrix(ent, A.semiring)


def _check_pair(A: TropicalMatrix, B: TropicalMatrix):
    if A.semiring != B.semiring:
        raise ValueError(f"semiring mismatch: {A.semiring} vs {B.semiring}")
    if A.n != B.n:
        raise ValueError(f"dimension mismatch: {A.n} vs {B.n}")


def scale_matrix(A: TropicalMatrix, k) -> TropicalMatrix:
    """Entrywise k*A_ij, the log-domain image of the k-th Hadamard power."""
    k = as_rational(k)
    if k <= 0:
        raise ValueError("scale factor must be positive")
    return TropicalMatrix(
        tuple(tuple(k * x for x in row) for row in A.entries), A.semiring
    )


def _encode(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Integer numerators of the rows over their common denominator (the lcm)."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    den = math.lcm(*{d for row in ratios for _, d in row})
    return [[p * (den // d) for p, d in row] for row in ratios], den


def _decode(nums: Sequence[Sequence[int]], den: int) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of `_encode`: rows of fractions nums[i][j] / den."""
    frac = {x: Fraction(x, den) for x in {x for row in nums for x in row}}
    return tuple(tuple(map(frac.__getitem__, row)) for row in nums)


def _find_bad_cycle(W: list[list[int]]) -> tuple[int, ...]:
    """Extract one divergence witness: a positive cycle of the max-plus integer
    matrix W, by Bellman-Ford predecessor walkback on -W."""
    n = len(W)
    w = [[-x for x in row] for row in W]  # relax on weights whose negative cycles diverge
    dist = [0] * n
    pred = [-1] * n
    bad = -1
    for _ in range(n):
        bad = -1
        for u in range(n):
            wu = w[u]
            for v in range(n):
                d = dist[u] + wu[v]
                if d < dist[v]:
                    dist[v] = d
                    pred[v] = u
                    bad = v
        if bad < 0:
            return ()
    # walk back n steps to land inside the cycle, then trace it
    v = bad
    for _ in range(n):
        if pred[v] < 0:
            return ()
        v = pred[v]
    cycle = [v]
    u = pred[v]
    while u != v and u >= 0 and len(cycle) <= n:
        cycle.append(u)
        u = pred[u]
    if u != v:
        return ()
    cycle.reverse()
    return tuple(cycle)


def kleene_star(A: TropicalMatrix) -> TropicalMatrix:
    """S = I (+) A (+) A^2 (+) ... (path of length 0 handled structurally).

    Entries are optimal path weights.  Converges iff the matrix has no
    positive cycle (max-plus) or no negative cycle (min-plus).  One in-place
    Floyd-Warshall pass on exact integer numerators over the entries' common
    denominator; a min-plus matrix runs as the max-plus matrix -A.
    """
    n = A.n
    maximum = A.semiring == MAX_PLUS
    W, den = _encode(A.entries)
    if not maximum:
        W = [[-x for x in row] for row in W]
    S = [row[:] for row in W]
    # In place: S[i][k] and S[k][j] hold in round k unless a positive cycle
    # runs through k, and such a cycle leaves some S[i][i] > 0 either way.
    for k in range(n):
        Sk = S[k]
        for i in range(n):
            a = S[i][k]
            S[i] = [x if x >= a + y else a + y for x, y in zip(S[i], Sk)]
    for i in range(n):
        if S[i][i] > 0:
            cyc = _find_bad_cycle(W)
            kind = "positive" if maximum else "negative"
            where = "->".join(map(str, cyc + cyc[:1])) if cyc else f"through node {i}"
            raise StarDivergenceError(
                f"Kleene star diverges: {kind} cycle {where}", cyc
            )
        S[i][i] = 0  # identity term: the empty path
    if not maximum:
        S = [[-x for x in row] for row in S]
    return TropicalMatrix(_decode(S, den), A.semiring)


@dataclass(frozen=True)
class ProjectivePoint:
    """A tropical projective vector, pinned to first coordinate 0."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValueError("empty point")
        if self.coords[0] != 0:
            raise ValueError("first coordinate must be 0; use normalize_projective")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def to_floats(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.coords)

    def translate_tail(self, c) -> "ProjectivePoint":
        """Add c to every coordinate except the first."""
        c = as_rational(c)
        return ProjectivePoint((self.coords[0],) + tuple(x + c for x in self.coords[1:]))


def normalize_projective(v: Iterable) -> ProjectivePoint:
    """Subtract the first coordinate: (v1, ..., vn) -> (0, v2-v1, ..., vn-v1)."""
    vals = [as_rational(x) for x in v]
    if not vals:
        raise ValueError("empty vector")
    return ProjectivePoint(tuple(x - vals[0] for x in vals))


def project_to_plane(p: ProjectivePoint) -> tuple[Fraction, ...]:
    """Drop the leading zero coordinate."""
    return p.coords[1:]


def trop_project_onto_span(x: ProjectivePoint, gens: Sequence[ProjectivePoint]) -> ProjectivePoint:
    """Best max-plus span approximation of x from below.

    lambda_j = min_i (x_i - g_j,i); the result is the coordinatewise-largest
    element of span(gens) dominated by x.
    """
    if not gens:
        raise ValueError("need at least one generator")
    if any(g.dim != x.dim for g in gens):
        raise ValueError("generator dimension mismatch")
    lams = [min(xi - gi for xi, gi in zip(x.coords, g.coords)) for g in gens]
    proj = [
        max(lam + g.coords[i] for lam, g in zip(lams, gens))
        for i in range(x.dim)
    ]
    return normalize_projective(proj)


def in_span(x: ProjectivePoint, gens: Sequence[ProjectivePoint]) -> bool:
    """Exact membership of x in the tropical span of the generators."""
    return trop_project_onto_span(x, gens) == x


@dataclass(frozen=True)
class FloatPoint:
    """Floating-point counterpart of ProjectivePoint (first coordinate 0)."""

    coords: tuple[float, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValueError("empty point")
        if self.coords[0] != 0.0:
            raise ValueError("first coordinate must be 0; use float_point")
        if not all(math.isfinite(c) for c in self.coords):
            raise ValueError("coordinates must be finite")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)


def float_point(v: Iterable[float]) -> FloatPoint:
    vals = [float(x) for x in v]
    if not vals:
        raise ValueError("empty vector")
    return FloatPoint(tuple(x - vals[0] for x in vals))


def project_onto_span_float(x: Sequence[float], gens: Sequence[Sequence[float]]) -> list[float]:
    """Float twin of trop_project_onto_span, on raw coordinate sequences."""
    if not gens:
        raise ValueError("need at least one generator")
    lams = [min(xi - gi for xi, gi in zip(x, g)) for g in gens]
    proj = [max(lam + g[i] for lam, g in zip(lams, gens)) for i in range(len(x))]
    p0 = proj[0]
    return [p - p0 for p in proj]


def span_distance(x: Sequence[float], gens: Sequence[Sequence[float]]) -> float:
    """Sup-norm distance from x to its span projection (x normalized first)."""
    x0 = [xi - x[0] for xi in x]
    proj = project_onto_span_float(x0, gens)
    return max(abs(a - b) for a, b in zip(x0, proj))


def in_span_float(x: Sequence[float], gens: Sequence[Sequence[float]], tol: float) -> bool:
    return span_distance(x, gens) <= tol
