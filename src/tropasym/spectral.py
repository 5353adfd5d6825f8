"""Max-plus spectral data: eigenvalue, critical classes, eigenspace generators.

The tropical eigenvalue of a real square matrix is its maximum cycle mean,
computed exactly by Karp's O(n^3) dynamic program.  The rest is read off
the plus-closure of the lambda-normalized matrix: the critical nodes are
the zeros on its diagonal, and its columns at one critical node per strongly
connected component of the critical graph generate the eigenspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import MAX_PLUS, ProjectivePoint, TropicalMatrix, _int_array, _star


def _require_max_plus(A: TropicalMatrix, what: str):
    if A.semiring != MAX_PLUS:
        raise ValueError(f"{what} requires a max-plus matrix, got {A.semiring}")


def _karp(W: np.ndarray) -> tuple[int, int]:
    """Maximum cycle mean of the integer array W, as p / q with q > 0.

    Karp's table D[1..n]: D[m][v] is the maximum weight of a walk of exactly
    m edges from node 0 to v.  Each row D[m] for m >= 2 is one broadcast max
    over the previous one, so |D| <= n max|W|.  With m = 0 only node 0 is
    reachable, at weight 0.  The mean is max_v min_m (D[n][v] - D[m][v]) /
    (n - m), the ratios compared by cross-multiplication on Python ints.
    """
    n = len(W)
    rows = [W[0]]
    for _ in range(1, n):
        rows.append(np.maximum.reduce(rows[-1][:, None] + W))
    D = [row.tolist() for row in rows]
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


def _normalized_closure(W: np.ndarray):
    """Karp's p / q for the integer array W, the plus-closure T of Abar =
    W q - p as lists, and the critical nodes and classes read off T.

    Abar has no positive cycle.  Node i is critical (on a zero-mean cycle)
    iff T_ii = 0, and critical i and j share a class (a strongly connected
    component of the critical graph) iff T_ij + T_ji = 0.  |Abar| <= 2nM for
    M = max|W| since |p / q| <= M, so the closure's sums stay within 4n^2 M:
    the growth W's dtype must allow.
    """
    p, q = _karp(W)
    T = _star(W * q - p, "positive").tolist()
    nodes = [i for i in range(len(T)) if T[i][i] == 0]
    classes: list[tuple[int, ...]] = []
    placed: set[int] = set()
    for u in nodes:
        if u not in placed:
            cls = tuple(v for v in nodes if T[u][v] + T[v][u] == 0)
            placed.update(cls)
            classes.append(cls)
    return p, q, T, nodes, classes


def _batch_closure(W) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Karp's lambda, the lambda-normalized plus-closure and the critical
    nodes of every matrix in the stack W (m, n, n) of max-plus numerators,
    n >= 2, an array or nested sequences.

    Each step is one broadcast over the stack.  lambda = p / q has q <= n, so
    with L = lcm(1..n) Karp's ratios and Abar = W - lambda are integers once
    scaled by L.  T is the plus-closure of Abar L, so the critical nodes
    (T_ii = 0) and classes come off it as in `_normalized_closure`, and
    pinned to row 0, its columns at critical nodes are the eigenspace's
    generators: two nodes of one class (T_uv + T_vu = 0) have columns that
    differ by the constant T_uv, so each node can stand for its class.  The
    magnitudes stay within 4nL max|W|, the growth passed to `_int_array`.

    Returns lambda L (m,), T (m, n, n) and the critical nodes as a mask
    (m, n).
    """
    W = np.asarray(W)
    n = W.shape[1]
    L = math.lcm(*range(1, n + 1))
    W = _int_array(W, 4 * n * L)
    D = np.empty_like(W)  # D[:, k - 1, v]: the best walk of k edges from node 0 to v
    D[:, 0] = W[:, 0]
    for k in range(1, n):
        D[:, k] = (D[:, k - 1, :, None] + W).max(axis=1)
    Dn = D[:, -1]
    scale = np.array([L // (n - k) for k in range(1, n)])[:, None]
    # per node v, the min over k of (D_n[v] - D_k[v]) L / (n - k); k = 0 reaches node 0 only
    means = ((Dn[:, None] - D[:, :-1]) * scale).min(axis=1)
    means[:, 0] = np.minimum(means[:, 0], Dn[:, 0] * (L // n))
    lam = means.max(axis=1)
    T = W * L - lam[:, None, None]
    for k in range(n):
        np.maximum(T, T[:, :, k, None] + T[:, None, k], out=T)
    return lam, T, np.diagonal(T, axis1=1, axis2=2) == 0


def _batch_chains(W) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Karp's lambda, the critical nodes and the translation-chain flag of
    every matrix in the stack W, as `_batch_closure` takes it.

    The flag is `len(gens) >= 2 and translation_chain(gens) is not None` for
    `spectral_data`'s generators: some critical column differs from the
    first one's, and every one differs from it on rows 1..n-1 by a
    constant.  The conjecture campaign's chain sampler admits a chain on
    this flag alone.

    Returns lambda L (m,), the critical nodes as a mask (m, n) and the flags
    (m,).
    """
    lam, T, critical = _batch_closure(W)
    # column u minus the first critical node's column, row by row
    diff = T - np.take_along_axis(T, critical.argmax(axis=1)[:, None, None], axis=2)
    translate = (diff[:, 2:] == diff[:, 1:2]).all(axis=1)
    distinct = diff[:, 1] != diff[:, 0]
    chain = (translate | ~critical).all(axis=1) & (critical & distinct).any(axis=1)
    return lam, critical, chain


def _batch_same_eigenspace(W) -> np.ndarray:
    """Whether each matrix in the stack W, as `_batch_closure` takes it, has
    the eigenvalue and the eigenspace of W[0].

    Two eigenspaces are equal iff their bases, the critical columns at one
    node per class pinned to row 0, are equal as sets (see `spectral_data`);
    a column of a node stands for its class.  Returns a mask (m,), True at 0.
    """
    lam, T, critical = _batch_closure(W)
    cols = T - T[:, :1]
    # same[b, u, v]: critical column u of matrix b equals critical column v of W[0]
    same = (cols[:, :, :, None] == cols[0, :, None, :]).all(axis=1)
    same &= critical[:, :, None] & critical[0]
    inside = (same.any(axis=2) | ~critical).all(axis=1)  # b's generators are W[0]'s
    covers = (same.any(axis=1) | ~critical[0]).all(axis=1)  # and W[0]'s are b's
    return (lam == lam[0]) & inside & covers


def max_cycle_mean(A: TropicalMatrix) -> Fraction:
    """Maximum mean weight over all directed cycles, by Karp on A's numerators."""
    _require_max_plus(A, "max_cycle_mean")
    p, q = _karp(_int_array(A.nums, A.n))
    return Fraction(p, q * A.den)


@dataclass(frozen=True)
class SpectralData:
    """Tropical eigenvalue, critical nodes and classes, and eigenspace generators."""

    lam: Fraction
    critical_nodes: frozenset[int]
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
    """Eigenvalue, critical nodes and classes, and one generator per class.

    T is the plus-closure of Abar = A - lam (see `_normalized_closure`).
    Generators are T's columns at one node per class, pinned to row 0; at a
    critical node they are the star's.  For finite entries they are the
    eigenspace's minimal generating set, unique up to scaling (Butkovic,
    Max-linear Systems, 2010): a basis, so two eigenspaces are equal iff
    their generator sets are, the rule of `eigenspace_equal`,
    `conjecture2_test` and the perturbation screen `_batch_same_eigenspace`.

    The closure runs on A's cached integer array (`A._array`, growth 4n^2).
    The last 8 records are kept, keyed by the matrix (whose `==` and `hash`
    compare the rational entries), so a caller and the Schur level 0 of
    `candidate_exponents(A.negate())` solve A once.
    """
    _require_max_plus(A, "spectral_data")
    p, q, T, nodes, classes = _normalized_closure(A._array)
    s = q * A.den
    gens = tuple(
        ProjectivePoint(tuple(row[cls[0]] - T[0][cls[0]] for row in T), s) for cls in classes
    )
    return SpectralData(
        lam=Fraction(p, s),
        critical_nodes=frozenset(nodes),
        classes=tuple(classes),
        generators=gens,
    )


def eigenspace_equal(A: TropicalMatrix, B: TropicalMatrix) -> bool:
    """True iff the two eigenspaces coincide: iff their generator sets, the
    bases of `spectral_data`, are equal."""
    if A.n != B.n:
        raise ValueError("dimension mismatch")
    return set(spectral_data(A).generators) == set(spectral_data(B).generators)
