"""Machine checks of the two eigenspace conjectures, plus experiment plumbing.

Conjecture A (translation chains): when every generator has the form
base + (0, a, a, ..., a) for shifts a in [0, beta], the limit of the
normalized Perron eigenvector is the top of the chain.  Conjecture B: equal
eigenspaces force equal limits.  Both are tested numerically, never assumed;
a failing verdict is a result, carrying its witness for replay.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .core import (
    MAX_PLUS,
    FloatPoint,
    ProjectivePoint,
    TropicalMatrix,
    as_rational,
    span_distance,
)
from .perron import (
    EstimateError,
    PinfEstimate,
    estimate_p_infinity,
    normalized_trajectories,
)
from .spectral import (
    SpectralData,
    _same_span,
    max_cycle_mean,
    spectral_data,
)


@dataclass(frozen=True)
class TranslationChain:
    base: ProjectivePoint
    beta: Fraction
    predicted: ProjectivePoint


@dataclass(frozen=True)
class ConjectureVerdict:
    """Outcome of one test; `estimates` are the measured limits, `A` first."""

    holds: bool
    witness: dict
    tolerance_used: float
    estimates: tuple[PinfEstimate, ...]
    seed: int | None = None


def translation_chain(gens: Sequence[ProjectivePoint]) -> TranslationChain | None:
    """Detect a chain: all pairwise generator differences constant on the tail.

    Returns None when the generators do not line up.  A single generator is
    the degenerate chain with beta = 0.
    """
    if not gens:
        raise ValueError("need at least one generator")
    base = gens[0]
    shifts: list[Fraction] = []
    for g in gens:
        diff = [a - b for a, b in zip(g.coords, base.coords)]
        tail = diff[1:]
        if tail and any(x != tail[0] for x in tail[1:]):
            return None
        shifts.append(tail[0] if tail else Fraction(0))
    lo, hi = min(shifts), max(shifts)
    bottom = gens[shifts.index(lo)]
    return TranslationChain(
        base=bottom,
        beta=hi - lo,
        predicted=bottom.translate_tail(hi - lo),
    )


def _estimates(family, gens, schedule, tol, max_iter) -> tuple[PinfEstimate, ...]:
    """Estimate each member's limit, with the eigenspace-membership safety net.

    The members' trajectories are solved as one stack.  Every measured limit
    must sit on the tropical eigenspace spanned by the member's generators
    `gens[i]` to within 10 * error_bound + 1e-3; a violation means the
    numerics went wrong and is raised rather than silently folded into a
    verdict.
    """
    trajs = normalized_trajectories(
        [M.to_floats() for M in family], schedule, tol=tol, max_iter=max_iter
    )
    estimates = []
    for traj, g in zip(trajs, gens):
        est = estimate_p_infinity(traj)
        dist = span_distance(list(est.point.coords), [x.to_floats() for x in g])
        if dist > 10.0 * est.error_bound + 1e-3:
            raise EstimateError(
                f"limit estimate is off the eigenspace by {dist:.3e} "
                f"(bound {10.0 * est.error_bound + 1e-3:.3e})"
            )
        estimates.append(est)
    return tuple(estimates)


def conjecture1_test(
    A: TropicalMatrix,
    tol: float,
    schedule: Sequence[float],
    solver_tol: float = 1e-13,
    max_iter: int = 10**6,
    seed: int | None = None,
) -> ConjectureVerdict:
    """Chain prediction vs measured limit; rejects matrices without a chain."""
    return conjecture1_tests([A], tol, schedule, solver_tol, max_iter, seed)[0]


def conjecture1_tests(
    matrices: Sequence[TropicalMatrix],
    tol: float,
    schedule: Sequence[float],
    solver_tol: float = 1e-13,
    max_iter: int = 10**6,
    seed: int | None = None,
) -> list[ConjectureVerdict]:
    """conjecture1_test of each same-size matrix, trajectories solved as one stack."""
    if not matrices:
        return []
    gens, chains = [], []
    for A in matrices:
        sd = spectral_data(A)
        chain = translation_chain(sd.generators)
        if chain is None:
            raise ValueError("eigenspace is not a translation chain")
        gens.append(sd.generators)
        chains.append(chain)
    estimates = _estimates(matrices, gens, schedule, solver_tol, max_iter)
    verdicts = []
    for A, chain, est in zip(matrices, chains, estimates):
        predicted = [float(x) for x in chain.predicted.coords]
        dist = max(abs(a - b) for a, b in zip(predicted, est.point.coords))
        verdicts.append(
            ConjectureVerdict(
                holds=dist <= tol,
                witness={
                    "matrix": [[str(x) for x in row] for row in A.entries],
                    "predicted": predicted,
                    "pinf": list(est.point.coords),
                    "distance": dist,
                    "error_bound": est.error_bound,
                },
                tolerance_used=tol,
                estimates=(est,),
                seed=seed,
            )
        )
    return verdicts


def eigenspace_preserving_perturbations(
    A: TropicalMatrix,
    count: int,
    magnitude,
    seed: int,
    grid_step=Fraction(1, 2),
    max_attempts: int | None = None,
) -> list[TropicalMatrix]:
    """Rejection-sample single-entry perturbations that leave the eigenspace alone.

    A perturbed matrix is accepted iff its eigenvalue and its generator set
    both match the original exactly.  A candidate drawn again is skipped, so
    the members are distinct.  Deterministic given the seed; warns and
    returns fewer matrices when the attempt budget runs out.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    magnitude = as_rational(magnitude)
    if magnitude <= 0:
        raise ValueError("magnitude must be positive")
    grid_step = as_rational(grid_step)
    rng = random.Random(seed)
    budget = max_attempts if max_attempts is not None else 400 * count
    steps = int(magnitude / grid_step)
    sd0 = spectral_data(A)
    accepted: list[TropicalMatrix] = []
    tried: set[TropicalMatrix] = set()
    for _ in range(budget):
        if len(accepted) >= count:
            break
        i = rng.randrange(A.n)
        j = rng.randrange(A.n)
        if i == j:
            continue
        delta = grid_step * rng.randint(-steps, steps)
        if delta == 0:
            continue
        rows = [list(r) for r in A.entries]
        rows[i][j] = rows[i][j] + delta
        B = TropicalMatrix.from_rows(rows, A.semiring)
        if B in tried:
            continue
        tried.add(B)
        if max_cycle_mean(B) != sd0.lam:
            continue
        if _same_span(sd0.generators, spectral_data(B).generators):
            accepted.append(B)
    if len(accepted) < count:
        warnings.warn(
            f"found only {len(accepted)}/{count} eigenspace-preserving perturbations"
        )
    return accepted


def conjecture2_test(
    A: TropicalMatrix,
    perturbed: Sequence[TropicalMatrix],
    tol: float,
    schedule: Sequence[float],
    solver_tol: float = 1e-13,
    max_iter: int = 10**6,
    seed: int | None = None,
) -> ConjectureVerdict:
    """All members of an equal-eigenspace family must share one limit."""
    family = [A, *perturbed]
    gens = [spectral_data(M).generators for M in family]
    for g in gens[1:]:
        if not _same_span(gens[0], g):
            raise ValueError("perturbed matrix does not share the eigenspace")
    estimates = _estimates(family, gens, schedule, solver_tol, max_iter)
    points = [list(est.point.coords) for est in estimates]
    worst = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            worst = max(
                worst, max(abs(a - b) for a, b in zip(points[i], points[j]))
            )
    return ConjectureVerdict(
        holds=worst <= tol,
        witness={
            "matrices": [[[str(x) for x in row] for row in M.entries] for M in family],
            "pinf_points": points,
            "max_pairwise_distance": worst,
        },
        tolerance_used=tol,
        estimates=estimates,
        seed=seed,
    )


def random_matrix(
    n: int,
    grid_step=Fraction(1),
    entry_range=(Fraction(-6), Fraction(2)),
    seed: int | random.Random = 0,
) -> TropicalMatrix:
    """Zero-diagonal matrix with off-diagonal entries on a rational grid.

    The zero diagonal makes every node critical through its own loop, and the
    coarse grid induces the ties that create several critical classes, which
    is the regime of interest.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    grid_step = as_rational(grid_step)
    lo, hi = (as_rational(entry_range[0]), as_rational(entry_range[1]))
    if grid_step <= 0 or hi <= lo:
        raise ValueError("bad grid or range")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    cells = int((hi - lo) / grid_step)
    # entry lo + grid_step * r as a numerator over the grid's denominator
    den = math.lcm(lo.denominator, grid_step.denominator)
    base = lo.numerator * (den // lo.denominator)
    step = grid_step.numerator * (den // grid_step.denominator)
    nums = tuple(
        tuple(0 if i == j else base + step * rng.randint(0, cells) for j in range(n))
        for i in range(n)
    )
    return TropicalMatrix(nums, den, MAX_PLUS)


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


def read_samples(path: str | Path) -> list[tuple[TropicalMatrix, Sequence[ProjectivePoint], PinfEstimate, int | None]]:
    """Inverse of export_samples (generator tuples in file order)."""
    out = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        matrix = TropicalMatrix.from_rows(obj["matrix"], MAX_PLUS)
        gens = tuple(
            ProjectivePoint(tuple(as_rational(x) for x in g)) for g in obj["generators"]
        )
        pinf = PinfEstimate(
            point=FloatPoint(tuple(obj["pinf"])),
            error_bound=obj["error_bound"],
            k_max_used=0.0,
        )
        out.append((matrix, gens, pinf, obj.get("seed")))
    return out
