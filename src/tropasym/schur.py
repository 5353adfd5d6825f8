"""Min-plus Schur complements and the candidate-exponent pipeline.

Eliminating a node set C from a min-plus matrix replaces paths through C by
their shortest bypass: Schur(C, A) = A_NN (+) A_NC (A_CC)* A_CN, that is,
Floyd-Warshall rounds over the pivots in C read on the N x N block (partial
Gaussian elimination in the path algebra).  Iterating this on critical node
sets produces a level sequence whose eigenvalues normalize the base matrix;
the star of the normalized matrix then yields candidate exponent vectors for
the asymptotic eigenvector analysis.

A level never leaves integers: it is one array of max-plus numerators, and
both its critical structure (the plus-closure of the eigenvalue-normalized
array, as in `spectral_data`) and the next level (the pivot rounds over its
critical nodes on that normalized array, as in `minplus_schur`) are read
off it.  Only level 0 goes through `spectral_data`'s cache.

The base matrix is normalized by subtracting from row i the eigenvalue of
the level at which node i was eliminated.  Candidates are predictions to be
checked, not guarantees: compare_prediction reports for each one whether it
lies in the max-plus eigenspace and whether it matches a numerically
estimated limit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    MIN_PLUS,
    ProjectivePoint,
    TropicalMatrix,
    _int_array,
    _int_dtype,
    _star,
    in_span,
)
from .perron import PinfEstimate
from .spectral import _normalized_closure, spectral_data


def _require_min_plus(A: TropicalMatrix, what: str):
    if A.semiring != MIN_PLUS:
        raise ValueError(f"{what} requires a min-plus matrix, got {A.semiring}")


def _complement(W: np.ndarray, C: list[int], keep: list[int], kind: str) -> np.ndarray:
    """The Schur complement of the sorted pivots C in the max-plus integer
    array W, whose other nodes are `keep`: `_star`'s rounds over C read on
    keep x keep (two `take`s, a few microseconds cheaper than `np.ix_`)."""
    return _star(W, kind, C).take(keep, 0).take(keep, 1)


def minplus_schur(A: TropicalMatrix, C: set[int] | frozenset[int]) -> TropicalMatrix:
    """Schur complement of the node set C in the min-plus matrix A: the star's
    rounds over the pivots in C, read on the other nodes (`_complement` on
    -A).  A negative cycle inside C raises StarDivergenceError, numbered by
    position in sorted(C)."""
    _require_min_plus(A, "minplus_schur")
    n = A.n
    C = frozenset(C)
    if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) and 0 <= c < n
               for c in C):
        raise ValueError("C contains invalid node indices")
    if len(C) == n:
        raise ValueError("cannot eliminate every node")
    keep = [i for i in range(n) if i not in C]
    S = _complement(-_int_array(A.nums, 2 * n), sorted(C), keep, "negative")
    return TropicalMatrix(tuple(map(tuple, (-S).tolist())), A.den, MIN_PLUS)


def _min_plus_level(S: np.ndarray, den: int):
    """The min-plus matrix -S / den, and S divided by the gcd that brings
    that matrix to lowest terms, so S stays the negated numerators of it."""
    g = math.gcd(den, int(np.gcd.reduce(S, axis=None)))
    if S.any():  # g then divides a nonzero entry, so it fits S's dtype
        S = S // g
    return TropicalMatrix(tuple(map(tuple, (-S).tolist())), den // g, MIN_PLUS), S


@dataclass(frozen=True)
class SchurLevel:
    matrix: TropicalMatrix
    node_map: tuple[int, ...]
    eigenvalue: Fraction
    removed_classes: tuple[tuple[int, ...], ...]


def schur_sequence(B: TropicalMatrix) -> list[SchurLevel]:
    """Iterated critical-class elimination.

    Level 0 is B itself.  Each level records its min-plus eigenvalue and the
    critical classes about to be eliminated (in original node indices); the
    next level is the Schur complement of the critical node set in the
    eigenvalue-normalized current matrix.  Terminates once every surviving
    node is critical.

    Each level is one integer array W of the max-plus numerators of -level
    over den, whose dtype `_int_array` picks again for the level's own size
    and values.  `spectral._normalized_closure(W)` gives its eigenvalue
    -p / (q den) and critical classes off the plus-closure of Abar = W q - p;
    the next level is `_complement` of the critical nodes on Abar, over
    den q and reduced to lowest terms.  Level 0 is A = `B.negate()`, which
    is the caller's own matrix when B was built as `A.negate()`: its
    eigenvalue and classes come from the cached `spectral_data(A)` and its
    array is A's cached `_array`, so a caller that solved A re-reads
    nothing.  Later levels leave that cache alone.
    """
    _require_min_plus(B, "schur_sequence")
    A = B.negate()
    n, den = A.n, A.den
    sd = spectral_data(A)
    W = A._array
    # sd.lam = p / (q den) with q <= n, so W's 4n^2 guard covers Abar = W q - p
    p, q = (sd.lam * den).as_integer_ratio()
    nodes, classes = sorted(sd.critical_nodes), sd.classes
    matrix, node_map = B, tuple(range(n))
    levels: list[SchurLevel] = []
    while True:
        levels.append(
            SchurLevel(
                matrix=matrix,
                node_map=node_map,
                eigenvalue=Fraction(-p, q * den),
                removed_classes=tuple(tuple(node_map[i] for i in cls) for cls in classes),
            )
        )
        if len(nodes) == len(W):
            return levels
        crit = set(nodes)
        keep = [i for i in range(len(W)) if i not in crit]
        node_map = tuple(node_map[i] for i in keep)
        S = _complement(W * q - p, nodes, keep, "positive")
        matrix, W = _min_plus_level(S, den * q)
        den = matrix.den
        W = _int_array(W, 4 * len(W) ** 2)
        p, q, _, nodes, classes = _normalized_closure(W)


@dataclass(frozen=True)
class Candidate:
    v: tuple[Fraction, ...]
    tp_point: ProjectivePoint


@dataclass(frozen=True)
class SchurReport:
    levels: tuple[SchurLevel, ...]
    b_hat: TropicalMatrix
    candidates: tuple[Candidate, ...]


def candidate_exponents(B: TropicalMatrix) -> SchurReport:
    """Candidate exponent vectors from the star of the normalized base matrix.

    B_hat subtracts from each entry the eigenvalue of the level at which its
    row node was eliminated.  Each column v of the min-plus star of B_hat
    maps to the projective point normalize(-v); columns are deduplicated
    projectively.

    The star runs on one integer array, B_hat's max-plus numerators over
    the common denominator: f W + drop per row, from the cached array W of
    -B that the Schur levels already read, in the dtype `_int_dtype` picks
    for the star's bound 2n (f max|W| + max|drop|).  A divergent star raises
    the StarDivergenceError that `kleene_star(b_hat)` would (a positive
    scale moves neither the pivot nor the witness), and only a star that
    converges is turned into `b_hat` and the star's `TropicalMatrix`.
    """
    _require_min_plus(B, "candidate_exponents")
    levels = schur_sequence(B)
    removal_level: dict[int, Fraction] = {}
    for lv in levels:
        for cls in lv.removed_classes:
            for node in cls:
                removal_level[node] = lv.eigenvalue
    n = B.n
    # B_hat's numerators over the common denominator of B and the levels
    den = math.lcm(B.den, *(lv.eigenvalue.denominator for lv in levels))
    f = den // B.den
    drop = [
        removal_level[i].numerator * (den // removal_level[i].denominator)
        for i in range(n)
    ]
    W = B.negate()._array
    bound = 2 * n * (f * max(int(W.max()), -int(W.min())) + max(map(abs, drop)))
    dtype = _int_dtype(bound)
    W_hat = f * W.astype(dtype, copy=False) + np.array(drop, dtype=dtype)[:, None]
    S = -_star(W_hat, "negative")  # StarDivergenceError names the offending cycle
    S.flat[:: n + 1] = 0  # identity term: the empty path
    b_hat = TropicalMatrix(tuple(map(tuple, (-W_hat).tolist())), den, MIN_PLUS)
    star = TropicalMatrix(tuple(map(tuple, S.tolist())), den, MIN_PLUS)
    cands: list[Candidate] = []
    seen: set[ProjectivePoint] = set()
    for j in range(n):
        # normalize(-v) for column v of the star, on its numerators
        tp = ProjectivePoint(tuple(star.nums[0][j] - row[j] for row in star.nums), star.den)
        if tp in seen:
            continue
        seen.add(tp)
        cands.append(Candidate(v=tuple(row[j] for row in star.entries), tp_point=tp))
    return SchurReport(levels=tuple(levels), b_hat=b_hat, candidates=tuple(cands))


@dataclass(frozen=True)
class CandidateVerdict:
    candidate: Candidate
    in_eigenspace: bool
    matches_pinf: bool


def compare_prediction(
    A: TropicalMatrix,
    report: SchurReport,
    pinf: PinfEstimate,
    tol: float,
) -> list[CandidateVerdict]:
    """Check each candidate against the exact eigenspace and the measured limit.

    A is the max-plus matrix whose asymptotics are under study (the negation
    of the pipeline's base matrix).  Membership is exact; the limit match is
    a sup-norm comparison at the given tolerance.
    """
    if A.n != report.b_hat.n or pinf.point.dim != A.n:
        raise ValueError("dimension mismatch")
    gens = spectral_data(A).generators
    out = []
    for cand in report.candidates:
        member = in_span(cand.tp_point, gens)
        diff = max(
            abs(float(c) - p) for c, p in zip(cand.tp_point.coords, pinf.point.coords)
        )
        out.append(
            CandidateVerdict(
                candidate=cand,
                in_eigenspace=member,
                matches_pinf=diff <= tol,
            )
        )
    return out


def report_to_json(report: SchurReport, verdicts: list[CandidateVerdict]) -> str:
    cand_field = [
        {
            "v": [str(x) for x in v.candidate.v],
            "tp_point": [str(x) for x in v.candidate.tp_point.coords],
            "in_eigenspace": v.in_eigenspace,
            "matches_pinf": v.matches_pinf,
        }
        for v in verdicts
    ]
    return json.dumps(
        {
            "levels": [
                {
                    "nodes": list(lv.node_map),
                    "eigenvalue": str(lv.eigenvalue),
                    "removed_classes": [list(c) for c in lv.removed_classes],
                }
                for lv in report.levels
            ],
            "candidates": cand_field,
        },
        indent=2,
    )
