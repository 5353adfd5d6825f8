"""Machine checks of the two eigenspace conjectures, plus experiment plumbing.

Conjecture A (translation chains): when every generator has the form
base + (0, a, a, ..., a) for shifts a in [0, beta], the limit of the
normalized Perron eigenvector is the top of the chain.  Conjecture B: equal
eigenspaces force equal limits.  Both are tested numerically, never assumed;
a failing verdict is a result, carrying its witness for replay.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    MAX_PLUS,
    ProjectivePoint,
    TropicalMatrix,
    _common_nums,
    _int_dtype,
    as_rational,
    span_distance,
)
from .perron import (
    EstimateError,
    PinfEstimate,
    _MATCH_TOL,
    estimate_p_infinity,
    normalized_trajectory,
)
from .spectral import (
    SpectralData,
    _batch_chains,
    _batch_same_eigenspace,
    _require_max_plus,
    spectral_data,
)

# a perturbation moves one off-diagonal entry by a nonzero multiple of
# _PERTURBATION_STEP, at most _PERTURBATION_MAGNITUDE in size
_PERTURBATION_STEP = Fraction(1, 2)
_PERTURBATION_MAGNITUDE = 2
# the largest multiple of the step
_MAX_STEP = int(_PERTURBATION_MAGNITUDE / _PERTURBATION_STEP)

# candidates eigenspace_preserving_perturbations draws per requested member
_ATTEMPTS_PER_MEMBER = 400

# chain candidates drawn and screened by one `_batch_chains` call
_CHAIN_BLOCK = 32


@dataclass(frozen=True)
class TranslationChain:
    base: ProjectivePoint
    beta: Fraction
    predicted: ProjectivePoint


@dataclass(frozen=True)
class ConjectureVerdict:
    """Outcome of one test; `estimates` are the measured limits and `spectra`
    the tested matrices' spectral data, `A` first in both.  `holds` when the
    points compared lie within 1e-2 of each other in the sup norm."""

    holds: bool
    witness: dict
    estimates: tuple[PinfEstimate, ...]
    spectra: tuple[SpectralData, ...]


def translation_chain(gens: Sequence[ProjectivePoint]) -> TranslationChain | None:
    """Detect a chain: all pairwise generator differences constant on the tail.

    Returns None when the generators do not line up.  A single generator is
    the degenerate chain with beta = 0.
    """
    if not gens:
        raise ValueError("need at least one generator")
    if any(g.dim != gens[0].dim for g in gens):
        raise ValueError("generator dimension mismatch")
    den, nums = _common_nums(gens)
    base = nums[0]
    shifts: list[int] = []
    for g in nums:
        tail = [a - b for a, b in zip(g[1:], base[1:])]
        if tail and any(x != tail[0] for x in tail[1:]):
            return None
        shifts.append(tail[0] if tail else 0)
    lo, hi = min(shifts), max(shifts)
    bottom = gens[shifts.index(lo)]
    beta = Fraction(hi - lo, den)
    return TranslationChain(
        base=bottom,
        beta=beta,
        predicted=bottom.translate_tail(beta),
    )


def _estimates(family, gens, schedule) -> tuple[PinfEstimate, ...]:
    """Estimate each member's limit, with the eigenspace-membership safety net.

    Each member's trajectory is solved on its own.  Every measured limit
    must sit on the tropical eigenspace spanned by the member's generators
    `gens[i]` to within 10 * error_bound + 1e-3; a violation means the
    numerics went wrong and is raised rather than silently folded into a
    verdict.
    """
    estimates = []
    for M, g in zip(family, gens):
        traj = normalized_trajectory(M.to_floats(), schedule)
        est = estimate_p_infinity(traj)
        dist = span_distance(list(est.point.coords), [x.to_floats() for x in g])
        if dist > 10.0 * est.error_bound + 1e-3:
            raise EstimateError(
                f"limit estimate is off the eigenspace by {dist:.3e} "
                f"(bound {10.0 * est.error_bound + 1e-3:.3e})"
            )
        estimates.append(est)
    return tuple(estimates)


def conjecture1_test(A: TropicalMatrix, schedule: Sequence[float]) -> ConjectureVerdict:
    """Chain prediction vs measured limit; rejects matrices without a chain."""
    sd = spectral_data(A)
    chain = translation_chain(sd.generators)
    if chain is None:
        raise ValueError("eigenspace is not a translation chain")
    [est] = _estimates([A], [sd.generators], schedule)
    predicted = [float(x) for x in chain.predicted.coords]
    dist = max(abs(a - b) for a, b in zip(predicted, est.point.coords))
    return ConjectureVerdict(
        holds=dist <= _MATCH_TOL,
        witness={
            "matrix": [[str(x) for x in row] for row in A.entries],
            "predicted": predicted,
            "pinf": list(est.point.coords),
            "distance": dist,
            "error_bound": est.error_bound,
        },
        estimates=(est,),
        spectra=(sd,),
    )


def eigenspace_preserving_perturbations(
    A: TropicalMatrix,
    count: int,
    seed: int,
) -> list[TropicalMatrix]:
    """Rejection-sample single-entry perturbations that leave the eigenspace alone.

    A candidate adds a nonzero multiple of 1/2, at most 2 in size, to one
    off-diagonal entry; it is accepted iff its eigenvalue and its generator
    set both match the original exactly.  A candidate drawn again is
    skipped, so the members are distinct.  Deterministic given the seed.
    Returns fewer than `count` matrices when its _ATTEMPTS_PER_MEMBER * count
    draws run out or fewer candidates pass; callers read the length, since
    many matrices have no such perturbation.

    A and every candidate, as numerators over one denominator, are screened
    by one `_batch_same_eigenspace` call before the first draw, and a
    matrix is built only for the candidates drawn that passed.  The draws
    stop once every candidate that passed is accepted, and are not made
    when none passed.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        raise ValueError(f"count must be an int, got {count!r}")
    if count < 1:
        raise ValueError("count must be at least 1")
    _require_max_plus(A, "eigenspace_preserving_perturbations")
    # A's numerators over den, on which the step is the numerator `unit`
    den = math.lcm(A.den, _PERTURBATION_STEP.denominator)
    unit = _PERTURBATION_STEP.numerator * (den // _PERTURBATION_STEP.denominator)
    base = tuple(tuple(x * (den // A.den) for x in row) for row in A.nums)
    moves, at, steps = _candidate_moves(A.n)
    passed: set[tuple[int, int, int]] = set()
    if moves:
        bound = max(map(abs, itertools.chain.from_iterable(base))) + _MAX_STEP * unit
        W = np.repeat(np.array(base, dtype=_int_dtype(bound))[None], len(moves) + 1, axis=0)
        W[at] += steps.astype(W.dtype) * unit
        passed = set(itertools.compress(moves, _batch_same_eigenspace(W)[1:].tolist()))
    accepted: list[TropicalMatrix] = []
    # once every candidate that passed is accepted, no draw can add a member;
    # the generator is the sampler's own, so stopping early moves nothing else
    wanted = min(count, len(passed))
    if not wanted:
        return accepted
    for move in _perturbation_draws(A.n, random.Random(seed), _ATTEMPTS_PER_MEMBER * count):
        if move in passed:
            i, j, step = move
            row = list(base[i])
            row[j] += unit * step
            nums = base[:i] + (tuple(row),) + base[i + 1 :]
            accepted.append(TropicalMatrix(nums, den, A.semiring))
            if len(accepted) == wanted:
                break
    return accepted


def _perturbation_draws(n: int, rng: random.Random, budget: int):
    """The sampler's candidates (i, j, step) in draw order: among `budget`
    draws of an entry and a step, those not drawn before, until every
    candidate has been drawn."""
    # distinct (entry, delta) draws give distinct matrices; once every one of
    # them has been tried, further draws cannot add a member
    candidates = len(_candidate_moves(n)[0])
    tried: set[tuple[int, int, int]] = set()
    for _ in range(budget):
        if len(tried) == candidates:
            return
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        step = rng.randint(-_MAX_STEP, _MAX_STEP)
        if step == 0 or (i, j, step) in tried:
            continue
        tried.add((i, j, step))
        yield i, j, step


@lru_cache(maxsize=8)
def _candidate_moves(n: int):
    """Every candidate (i, j, step) of an n x n matrix, row by row; the index
    of its changed entry in a stack that holds the base matrix first; and
    its steps as an array."""
    moves = [
        (i, j, step)
        for i in range(n)
        for j in range(n)
        if i != j
        for step in range(-_MAX_STEP, _MAX_STEP + 1)
        if step
    ]
    i, j, step = np.array(moves, dtype=np.intp).reshape(-1, 3).T
    return tuple(moves), (np.arange(1, len(moves) + 1), i, j), step


def conjecture2_test(
    A: TropicalMatrix,
    perturbed: Sequence[TropicalMatrix],
    schedule: Sequence[float],
) -> ConjectureVerdict:
    """All members of an equal-eigenspace family must share one limit."""
    if not perturbed:
        raise ValueError("need at least one perturbed matrix to compare with A")
    family = [A, *perturbed]
    spectra = tuple(spectral_data(M) for M in family)
    gens = [sd.generators for sd in spectra]
    # the generators are a basis (see spectral_data), so equal sets are equal spans
    if any(set(g) != set(gens[0]) for g in gens[1:]):
        raise ValueError("perturbed matrix does not share the eigenspace")
    estimates = _estimates(family, gens, schedule)
    points = [list(est.point.coords) for est in estimates]
    worst = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            worst = max(
                worst, max(abs(a - b) for a, b in zip(points[i], points[j]))
            )
    return ConjectureVerdict(
        holds=worst <= _MATCH_TOL,
        witness={
            "matrices": [[[str(x) for x in row] for row in M.entries] for M in family],
            "pinf_points": points,
            "max_pairwise_distance": worst,
        },
        estimates=estimates,
        spectra=spectra,
    )


def random_matrix(
    n: int,
    grid_step=1,
    entry_range=(-6, 2),
    seed: int | random.Random = 0,
) -> TropicalMatrix:
    """Zero-diagonal matrix with off-diagonal entries on a rational grid.

    The zero diagonal makes every node critical through its own loop, and the
    coarse grid induces the ties that create several critical classes, which
    is the regime of interest.  Grid and range are exact rationals (ints,
    decimal strings or Fractions), and each off-diagonal entry is
    lo + grid_step * r for one uniform draw r in 0..(hi - lo) / grid_step.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    [nums], den = _draw_nums(n, 1, rng, grid_step, entry_range)
    return TropicalMatrix(tuple(map(tuple, nums.tolist())), den, MAX_PLUS)


def _sample_chains(
    rng: random.Random, count: int, budget: int
) -> tuple[list[TropicalMatrix], int]:
    """The first `count` translation chains among at most `budget` draws of
    `random_matrix(3, seed=rng)`, and the number of draws that took.

    Each block of _CHAIN_BLOCK draws is screened by one `_batch_chains`
    call, whose flag alone admits a chain.  When the last chain comes in
    mid-block, rng is rewound to just after it, so the stream and the draw
    count are those of drawing one matrix at a time.
    """
    chains: list[TropicalMatrix] = []
    draws = 0
    while len(chains) < count and draws < budget:
        state = rng.getstate()
        block, den = _draw_nums(3, min(_CHAIN_BLOCK, budget - draws), rng)
        used = len(block)
        for idx in np.flatnonzero(_batch_chains(block)[2]).tolist():
            # Python ints, since spectral_data's cache hashes the matrix
            chains.append(TropicalMatrix(tuple(map(tuple, block[idx].tolist())), den))
            if len(chains) == count:
                used = idx + 1
                break
        draws += used
        if used < len(block):
            rng.setstate(state)
            _draw_nums(3, used, rng)
    return chains, draws


def _draw_nums(
    n: int, m: int, rng: random.Random, grid_step=1, entry_range=(-6, 2)
) -> tuple[np.ndarray, int]:
    """The numerators of m successive `random_matrix(n, grid_step,
    entry_range, seed=rng)` draws as an (m, n, n) integer array (dtype
    object when they leave int64), and their common denominator (before
    TropicalMatrix reduces them to lowest terms).  The one definition of
    random_matrix's draw stream: off-diagonal entries row by row, one
    randrange each."""
    cells, den, base, step = _grid(grid_step, entry_range[0], entry_range[1])
    # randrange(cells + 1) draws what randint(0, cells) draws, one call fewer
    r, top = rng.randrange, cells + 1
    dtype = _int_dtype(max(abs(base), abs(base + step * cells)))
    draws = np.array([r(top) for _ in range(m * n * (n - 1))], dtype)
    W = np.zeros((m, n, n), dtype)
    W[:, ~np.eye(n, dtype=bool)] = (base + step * draws).reshape(m, n * (n - 1))
    return W, den


@lru_cache(maxsize=8, typed=True)
def _grid(grid_step, lo, hi) -> tuple[int, int, int, int]:
    """random_matrix's grid: its last cell index, and entry lo + grid_step * r
    as the numerator base + step * r over den, as (cells, den, base, step)."""
    grid_step, lo, hi = as_rational(grid_step), as_rational(lo), as_rational(hi)
    if grid_step <= 0 or hi <= lo:
        raise ValueError("bad grid or range")
    cells = int((hi - lo) / grid_step)
    den = math.lcm(lo.denominator, grid_step.denominator)
    base = lo.numerator * (den // lo.denominator)
    step = grid_step.numerator * (den // grid_step.denominator)
    return cells, den, base, step


def export_samples(
    batch: Sequence[tuple[TropicalMatrix, SpectralData, PinfEstimate, int | None]],
    path: str | Path,
) -> None:
    """Write (generator set, measured limit) pairs as JSON lines."""
    path = Path(path)
    lines = []
    for matrix, sdata, pinf, seed in batch:
        lines.append(
            json.dumps(
                {
                    "matrix": [[str(x) for x in row] for row in matrix.entries],
                    "generators": [
                        [str(x) for x in g.coords] for g in sdata.generators
                    ],
                    "pinf": list(pinf.point.coords),
                    "error_bound": pinf.error_bound,
                    "seed": seed,
                }
            )
        )
    path.write_text("".join(line + "\n" for line in lines))
