"""Exact tropical (max-plus / min-plus) arithmetic.

Everything in this module is exact and no operation ever rounds.  A matrix
is plain Python `int` numerators over one positive denominator, in lowest
terms; `TropicalMatrix.from_rows` is the one place that encodes rationals
into that form, and `entries` is its read-only `fractions.Fraction` view.
A projective point is stored the same way: `int` numerators over one
positive denominator, in lowest terms, encoded from rationals only by
`normalize_projective`, with `coords` its `Fraction` view.  Span membership
runs on the numerators of the points involved, rescaled to the lcm of their
denominators.  Equal eigenspaces need no span test: spectral generators
are a basis, so equal generator sets decide it (`spectral.spectral_data`).
The kernels (Kleene star, Karp, Schur complement) run their
O(n^3) passes on integer numpy arrays of the numerators: `int64` while the
kernel's own bound on the magnitudes it forms stays below 2**62, Python ints
(dtype object) past that, with the same code for both, at every size.  A
matrix reads its numerators into such an array once, cached read-only at
the spectral pipeline's growth 4n^2 (`TropicalMatrix._array`), which
`spectral_data`, Schur level 0 and B_hat share; a negation remembers the
matrix it negated, so negating it back returns that object and its array.
The standalone `kleene_star`, `max_cycle_mean` and `minplus_schur` read
their own array at their tighter bounds.  Results go back to tuples of
Python ints; scalar results are `Fraction`s.  Criticality of a cycle is a
statement about exact ties, so the whole combinatorial layer must stay
exact; floating point enters only in the numerical companion types at the
bottom of the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

MAX_PLUS = "max-plus"
MIN_PLUS = "min-plus"


class StarDivergenceError(ValueError):
    """Kleene star does not converge (positive max-plus / negative min-plus cycle).

    Holds the pivots' block W of the max-plus integer array whose star
    diverged, the cycle's kind ("positive", or "negative" for a negated
    min-plus matrix) and the position k in W of the pivot at which the pass
    stopped.  The witness `cycle` is named by `_find_bad_cycle(W)` when it
    or the message is first read, so a caller that only catches it never pays.
    """

    def __init__(self, kind: str, W: np.ndarray, k: int):
        super().__init__()
        self._kind, self._W, self._k = kind, W, k

    @cached_property
    def cycle(self) -> tuple[int, ...]:
        return _find_bad_cycle(self._W.tolist())

    def __str__(self) -> str:
        cyc = self.cycle
        where = "->".join(map(str, cyc + cyc[:1])) if cyc else f"through node {self._k}"
        return f"Kleene star diverges: {self._kind} cycle {where}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"

    def __reduce__(self):
        return type(self), (self._kind, self._W, self._k)


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
    """Square matrix over a tropical semiring: entry (i, j) is nums[i][j] / den.

    The numerators and the positive denominator are kept in lowest terms
    (gcd(den, *nums) == 1), so `==` and `hash` compare the rational entries.
    Caches (`entries`, `_array`) and the link `negate` leaves are not
    fields: equality, hashing, repr and pickling see only the three fields.
    """

    nums: tuple[tuple[int, ...], ...]
    den: int
    semiring: str = MAX_PLUS

    def __post_init__(self):
        if self.semiring not in (MAX_PLUS, MIN_PLUS):
            raise ValueError(f"unknown semiring tag {self.semiring!r}")
        n = len(self.nums)
        if n == 0 or any(len(row) != n for row in self.nums):
            raise ValueError("matrix must be square and non-empty")
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        g = self.den
        for row in self.nums:
            if g == 1:
                break
            g = math.gcd(g, *row)
        if g != 1:
            nums = tuple(tuple(x // g for x in row) for row in self.nums)
            object.__setattr__(self, "nums", nums)
            object.__setattr__(self, "den", self.den // g)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], semiring: str = MAX_PLUS) -> "TropicalMatrix":
        """Encode rational rows as numerators over their common denominator (the lcm)."""
        ratios = [[as_rational(x).as_integer_ratio() for x in row] for row in rows]
        den = math.lcm(*{d for row in ratios for _, d in row})
        nums = tuple(tuple(p * (den // d) for p, d in row) for row in ratios)
        return cls(nums, den, semiring)

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rational entries, nums[i][j] / den."""
        frac = {x: Fraction(x, self.den) for x in {x for row in self.nums for x in row}}
        return tuple(tuple(map(frac.__getitem__, row)) for row in self.nums)

    @cached_property
    def _array(self) -> np.ndarray:
        """The numerators as a read-only `_int_array` at growth 4n^2, the
        bound of `spectral_data`'s closure: read once per matrix, then
        shared by `spectral_data`, Schur level 0 and B_hat's star."""
        W = _int_array(self.nums, 4 * self.n * self.n)
        W.flags.writeable = False
        return W

    @property
    def n(self) -> int:
        return len(self.nums)

    def negate(self) -> "TropicalMatrix":
        """Entrywise negation, switching the semiring tag (max-plus <-> min-plus).

        The negation remembers the matrix it negated, so `A.negate().negate()
        is A`: negating back returns A itself, with its cached array and its
        `spectral_data` record, instead of a rebuilt copy.  The link runs one
        way, from the negation to A, so it forms no reference cycle.
        """
        source = self.__dict__.get("_negation_of")
        if source is not None:
            return source
        other = MIN_PLUS if self.semiring == MAX_PLUS else MAX_PLUS
        nums = tuple(map(tuple, (-self._array).tolist()))
        neg = TropicalMatrix(nums, self.den, other)
        neg.__dict__["_negation_of"] = self
        return neg

    def __getstate__(self):
        # the fields only: a copy rebuilds its caches, with a fresh read-only array
        return {"nums": self.nums, "den": self.den, "semiring": self.semiring}

    def shift(self, c) -> "TropicalMatrix":
        """Add c to every entry (the matrix A + c*J)."""
        p, q = as_rational(c).as_integer_ratio()
        den = math.lcm(self.den, q)
        scale, add = den // self.den, p * (den // q)
        nums = tuple(tuple(scale * x + add for x in row) for row in self.nums)
        return TropicalMatrix(nums, den, self.semiring)

    def to_floats(self) -> list[list[float]]:
        # int / int is correctly rounded, so this equals float(entries[i][j])
        return [[x / self.den for x in row] for row in self.nums]


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


def _int_array(nums: Sequence[Sequence[int]] | np.ndarray, growth: int) -> np.ndarray:
    """The numerators as an exact integer array for a kernel that forms no
    value past `growth` times their largest magnitude: int64 while that
    bound stays below 2**62, Python ints (dtype object) from there on.  An
    array already of that dtype is returned as it is."""
    if isinstance(nums, np.ndarray):
        # not abs(nums), which wraps at -2**63
        bound = growth * max(int(nums.max()), -int(nums.min()))
    else:
        bound = growth * max(map(abs, chain.from_iterable(nums)))
    return np.asarray(nums, dtype=_int_dtype(bound))


def _int_dtype(bound: int):
    """The exact integer dtype for values of magnitude at most `bound`:
    int64 below 2**62, Python ints (dtype object) from there on."""
    return np.int64 if bound < 1 << 62 else object


def _star(W: np.ndarray, kind: str, pivots: Sequence[int] | None = None) -> np.ndarray:
    """Plus-closure W+ = W (+) W^2 (+) ... of the max-plus integer array W,
    by Floyd-Warshall rounds over `pivots` (default: every node): entry
    (i, j) is the best weight of a path of one or more edges from i to j
    whose interior nodes are pivots, so the diagonal holds the best cycles.
    Rounds over a node set C, read on the other nodes, eliminate C.

    A positive cycle through pivots whose last pivot is k shows as
    S[k, k] > 0 before round k, so the pass raises there, on the pivots'
    block.  Every round it does run therefore holds path weights in
    [-M, nM] for M = max|W|, and sums at most 2nM, which is why its callers
    pass `_int_array` a growth of 2n or more.  `kind` names the cycle in the
    error ("negative" when W is a negated min-plus matrix).  The star is
    I (+) W+, i.e. W+ with a zero diagonal.
    """
    S = W.copy()
    pivots = range(len(W)) if pivots is None else pivots
    for pos, k in enumerate(pivots):
        if S[k, k] > 0:
            raise StarDivergenceError(kind, W[np.ix_(pivots, pivots)], pos)
        np.maximum(S, S[:, k, None] + S[k], out=S)
    return S


def kleene_star(A: TropicalMatrix) -> TropicalMatrix:
    """S = I (+) A (+) A^2 (+) ..., the plus-closure with a zero diagonal.

    Entries are optimal path weights.  Converges iff the matrix has no
    positive cycle (max-plus) or no negative cycle (min-plus).  One in-place
    Floyd-Warshall pass over an array of the exact integer numerators:
    int64 while 2n max|A| stays below 2**62, Python ints past that.  The pass
    stops at the first round whose pivot closes a bad cycle, before any sum
    can outgrow that bound; a min-plus matrix runs as the max-plus matrix -A.
    """
    W = _int_array(A.nums, 2 * A.n)
    if A.semiring == MAX_PLUS:
        S = _star(W, "positive")
    else:
        S = -_star(-W, "negative")
    S.flat[:: A.n + 1] = 0  # identity term: the empty path
    return TropicalMatrix(tuple(map(tuple, S.tolist())), A.den, A.semiring)


@dataclass(frozen=True)
class ProjectivePoint:
    """A tropical projective vector pinned to first coordinate 0: coordinate i
    is nums[i] / den.

    The numerators and the positive denominator are kept in lowest terms
    (gcd(den, *nums) == 1), so `==` and `hash` compare the rational
    coordinates.  `normalize_projective` encodes rationals into this form.
    """

    nums: tuple[int, ...]
    den: int

    def __post_init__(self):
        if not self.nums:
            raise ValueError("empty point")
        if self.nums[0] != 0:
            raise ValueError("first coordinate must be 0; use normalize_projective")
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        g = math.gcd(self.den, *self.nums)
        if g != 1:
            object.__setattr__(self, "nums", tuple(x // g for x in self.nums))
            object.__setattr__(self, "den", self.den // g)

    @cached_property
    def coords(self) -> tuple[Fraction, ...]:
        """The rational coordinates, nums[i] / den."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def dim(self) -> int:
        return len(self.nums)

    def to_floats(self) -> tuple[float, ...]:
        # int / int is correctly rounded, so this equals float(coords[i])
        return tuple(x / self.den for x in self.nums)

    def translate_tail(self, c) -> "ProjectivePoint":
        """Add c to every coordinate except the first."""
        p, q = as_rational(c).as_integer_ratio()
        den = math.lcm(self.den, q)
        scale, add = den // self.den, p * (den // q)
        return ProjectivePoint((0,) + tuple(scale * x + add for x in self.nums[1:]), den)


def normalize_projective(v: Iterable) -> ProjectivePoint:
    """Subtract the first coordinate: (v1, ..., vn) -> (0, v2-v1, ..., vn-v1).

    The rationals become numerators over their common denominator (the lcm).
    """
    ratios = [as_rational(x).as_integer_ratio() for x in v]
    if not ratios:
        raise ValueError("empty vector")
    den = math.lcm(*(d for _, d in ratios))
    nums = [p * (den // d) for p, d in ratios]
    return ProjectivePoint(tuple(x - nums[0] for x in nums), den)


def _common_nums(points: Sequence[ProjectivePoint]) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm of the points' denominators, and each point's numerators over it."""
    den = math.lcm(*(p.den for p in points))
    return den, [
        p.nums if p.den == den else tuple(x * (den // p.den) for x in p.nums)
        for p in points
    ]


def _span_projection(x: Sequence, gens: Sequence[Sequence]) -> list:
    """Coordinatewise-largest element of span(gens) dominated by x, unnormalized.

    lambda_j = min_i (x_i - g_j,i) and proj_i = max_j (lambda_j + g_j,i), on
    integer, rational or float coordinates alike.
    """
    if not gens:
        raise ValueError("need at least one generator")
    if any(len(g) != len(x) for g in gens):
        raise ValueError("generator dimension mismatch")
    lams = [min(xi - gi for xi, gi in zip(x, g)) for g in gens]
    return [max(lam + g[i] for lam, g in zip(lams, gens)) for i in range(len(x))]


def in_span(x: ProjectivePoint, gens: Sequence[ProjectivePoint]) -> bool:
    """Exact membership of x in the tropical span of the generators: on their
    numerators over one denominator, x is in the span iff its best
    approximation from below is x itself."""
    _, (xs, *gs) = _common_nums([x, *gens])
    proj = _span_projection(xs, gs)
    return all(p - proj[0] == xi for p, xi in zip(proj, xs))


@dataclass(frozen=True)
class FloatPoint:
    """Floating-point counterpart of ProjectivePoint (first coordinate 0)."""

    coords: tuple[float, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValueError("empty point")
        if self.coords[0] != 0.0:
            raise ValueError("first coordinate must be 0; use float_point")
        if not all(map(math.isfinite, self.coords)):
            raise ValueError("coordinates must be finite")

    @property
    def dim(self) -> int:
        return len(self.coords)


def float_point(v: Iterable[float]) -> FloatPoint:
    v = np.asarray(v, dtype=float)
    if not v.size:
        raise ValueError("empty vector")
    return FloatPoint(tuple((v - v[0]).tolist()))


def span_distance(x: Sequence[float], gens: Sequence[Sequence[float]]) -> float:
    """Sup-norm distance from x to its span projection (both normalized first)."""
    x0 = [xi - x[0] for xi in x]
    proj = _span_projection(x0, gens)
    return max(abs(a - (b - proj[0])) for a, b in zip(x0, proj))
