"""Numerical Perron eigenpairs of exp(k*A), entirely in log coordinates.

The one entry point is normalized_trajectory, which samples P_k along an
increasing k schedule; a single k is normalized_trajectory(A, [k]), whose
sample carries log rho / k and P_k = (log Perron vector) / k.  It validates
its input once: A square, non-empty and finite, the schedule finite,
positive and increasing, and every entry of k*A within double range.

Explicitly exponentiating k*A stops working long before the interesting
asymptotics set in: cross terms like e^{-25000} are absorbed or flushed to
zero, and the iteration silently returns garbage.  Everything here therefore
works on log-domain quantities.  One normalized fixed-point step is

    y  <-  z - z_1,      z_i = logsumexp_j(k*A_ij + y_j),

whose fixed point is the log Perron vector pinned to y_1 = 0, with z_1 the
log Perron root.  Three ingredients make the iteration practical across the
whole k range:

* a lazy (averaged) step, which removes the oscillatory near-(-rho) mode that
  a dominant 2-cycle would otherwise leave undamped.  Each sample takes one
  such step from its start point; if that step certifies the start point the
  sample is accepted there, and otherwise the step's result goes on to the
  accelerator, after which lazy steps only polish;
* an accelerator that squares the log-domain matrix (logsumexp matrix
  products), applying 2^t power-iteration steps at once, which is what closes
  the k-window where the spectral gap of exp(kA) is tiny but the structure is
  still representable in doubles;
* warm starts along a doubling schedule, which carry the eigenvector mixture
  into the regime where double precision can no longer resolve it (the
  carried value is then within O(1/k) of the truth).

Residuals are measured on the k-normalized map, i.e. ||F(y) - y||_inf / k,
which keeps the convergence criterion meaningful uniformly in k: by the
Collatz-Wielandt inequalities a residual r certifies the normalized log
eigenvalue to within r.  A sample is certified when its residual falls below
the fixed tolerance _TOL, and the work per sample is bounded by construction:
one certifying step, at most _SQUARING_ROUNDS squarings and at most
_POLISH_STEPS polishing steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FloatPoint, float_point, span_distance

# the sampling schedule k0 * 2^i, i = 0..doublings: k = 4 to 2^14
DEFAULT_K0 = 4.0
DEFAULT_DOUBLINGS = 12

# trajectory moves below this are indistinguishable from rounding noise
_MOVE_NOISE = 1e-9

# residual on the k-normalized map below which a sample is certified
_TOL = 1e-13

# lazy steps over which a residual must fall below 3/4 of its old value
_STALL_WINDOW = 40

# squaring rounds of the accelerator, i.e. at most 2^40 power steps: beyond
# that, accumulated rounding in the squared matrix (about 2^t * eps)
# outweighs anything still to gain
_SQUARING_ROUNDS = 40

# polishing lazy steps after the accelerator
_POLISH_STEPS = 400

# row block height of _log_matmul; 8 measured as fast as 16
_LOG_MATMUL_ROWS = 16

_LOG2 = math.log(2.0)

# the ufunc reductions behind ndarray.max and ndarray.sum, called without the
# methods' Python wrappers, which cost about 1 us of a 16 us lazy step at n=3
_max = np.maximum.reduce
_sum = np.add.reduce


class EstimateError(RuntimeError):
    pass


def _lse_rows(B: np.ndarray) -> np.ndarray:
    """logsumexp of each row of a matrix."""
    m = _max(B, axis=1)
    return m + np.log(_sum(np.exp(B - m[:, None]), axis=1))


def _log_matmul(B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Log-domain matrix product: out_ij = logsumexp_l(B_il + C_lj).

    Rows of B are reduced _LOG_MATMUL_ROWS at a time in one reused
    (rows, l, j) buffer, so temporaries are O(rows*n^2) rather than O(n^3).
    Each (i, j) still takes its max and its sum over l in the same order on
    the same values as the one-tensor formulation, so results are
    bit-identical to it.
    """
    rows = _LOG_MATMUL_ROWS
    out = np.empty((B.shape[0], C.shape[1]))
    buf = np.empty((min(B.shape[0], rows),) + C.shape)
    for r0 in range(0, B.shape[0], rows):
        Bb = B[r0 : r0 + rows]
        T = buf[: len(Bb)]
        np.add(Bb[:, :, None], C[None, :, :], out=T)
        m = T.max(axis=1)
        np.subtract(T, m[:, None, :], out=T)
        np.exp(T, out=T)
        out[r0 : r0 + rows] = m + np.log(T.sum(axis=1))
    return out


def _lazy_step(kA: np.ndarray, y: np.ndarray, k: float):
    """One averaged step from y: the next point, u_1 and the residual of y."""
    u = _lse_rows(kA + y)
    u0 = float(u[0])
    res = float(_max(np.abs(u - u0 - y), axis=None)) / k
    z = np.logaddexp(u, u0 + y) - _LOG2
    return z - z[0], u0, res


def _lazy_phase(kA, y, k, best, budget):
    """Lazy steps for one matrix from y while they genuinely contract.

    Stops when a residual certifies its pre-step point, when the residual
    stalls, or after `budget` steps.  Returns the (residual, point, u_1) with
    the smallest residual among best and the points stepped from, the last
    point reached, and the number of steps taken.
    """
    history = []
    for steps in range(1, budget + 1):
        ynew, s, res = _lazy_step(kA, y, k)
        if res < best[0]:
            best = (res, y, s)
        if res < _TOL:
            break
        history.append(res)
        y = ynew
        if len(history) > _STALL_WINDOW and res > 0.75 * history[-_STALL_WINDOW]:
            break
    return best, y, steps


def _accelerate(kA: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """Repeated squaring of the diagonally shifted log matrix from y.

    Each round applies 2^t power steps.  The shift is certified <= log rho
    (Collatz-Wielandt lower bound minus log n), which damps the oscillatory
    near-(-rho) mode without disturbing which cycles are critical.  Rounds
    are residual-guided: accumulated rounding in the squared matrix doubles
    per round, so the loop stops as soon as candidates stop improving.
    Returns the final point and the number of rounds run.
    """
    n = kA.shape[0]
    u = _lse_rows(kA + y[None, :])
    c0 = float((u - y).min()) - math.log(n) - 1.0
    B = kA.copy()
    idx = np.arange(n)
    B[idx, idx] = np.logaddexp(B[idx, idx], c0)
    x = y.copy()
    for rounds in range(1, _SQUARING_ROUNDS + 1):
        xnew = _lse_rows(B + x[None, :])
        xnew -= xnew[0]
        if not np.isfinite(xnew).all():
            break
        delta = float(np.abs(xnew - x).max())
        x = xnew
        if delta < 1e-12:
            break  # aggregation stabilized
        B = _log_matmul(B, B)
        B -= B.max()
    return x, rounds


def _solve(kA: np.ndarray, k: float, y0: np.ndarray | None):
    """Core solver for one k*A, started from y0 or 0.

    Returns (log_rho, y, residual, iterations, converged).  Certify or
    accelerate: one lazy step tests the start point, which is accepted if
    that step certifies it.  Otherwise the stepped point goes through the
    accelerator and then a polishing lazy phase, and the solver keeps
    whichever point certifies the smallest residual.
    """
    n = kA.shape[0]
    if n == 1:
        return float(kA[0, 0]), np.zeros(1), 0.0, 0, True
    y = np.zeros(n) if y0 is None else y0
    best, y, it = _lazy_phase(kA, y, k, (math.inf, y, 0.0), 1)
    if best[0] >= _TOL:
        x, rounds = _accelerate(kA, y)
        best, _, steps = _lazy_phase(kA, x, k, best, _POLISH_STEPS)
        it += rounds + steps
    res, y, s = best
    return s, y, res, it, res < _TOL


@dataclass(frozen=True)
class PerronSample:
    k: float
    log_rho_over_k: float
    point: FloatPoint
    residual: float
    iterations: int


@dataclass(frozen=True)
class FailedSample:
    k: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class PerronTrajectory:
    samples: tuple[PerronSample, ...]
    failures: tuple[FailedSample, ...] = ()

    def sample_at(self, k: float) -> PerronSample | None:
        for s in self.samples:
            if s.k == k:
                return s
        return None


@dataclass(frozen=True)
class PinfEstimate:
    point: FloatPoint
    error_bound: float
    k_max_used: float

    def to_json_dict(self) -> dict:
        return {
            "point": list(self.point.coords),
            "error_bound": self.error_bound,
            "k_max_used": self.k_max_used,
        }


def trajectory_csv(traj: PerronTrajectory, gens: Sequence[Sequence[float]]) -> str:
    """CSV serialization: k,lambda_k,coord_1..coord_n,residual,iterations,span_distance.

    `gens` are the float generators of the matrix's eigenspace; n is their
    dimension and span_distance is each sample's distance to their span.
    Failed samples keep their k, residual, and iteration count but leave the
    eigenvalue, coordinate and distance cells empty.
    """
    n = len(gens[0])
    header = (
        ["k", "lambda_k"]
        + [f"coord_{i + 1}" for i in range(n)]
        + ["residual", "iterations", "span_distance"]
    )
    rows: dict[float, list[str]] = {}
    for s in traj.samples:
        dist = span_distance(list(s.point.coords), gens)
        rows[s.k] = (
            [repr(s.k), repr(s.log_rho_over_k)]
            + [repr(c) for c in s.point.coords]
            + [repr(s.residual), str(s.iterations), repr(dist)]
        )
    for f in traj.failures:
        rows[f.k] = (
            [repr(f.k), ""] + [""] * n + [repr(f.residual), str(f.iterations), ""]
        )
    lines = [",".join(header)]
    for k in sorted(rows):
        lines.append(",".join(rows[k]))
    return "\n".join(lines) + "\n"


def geometric_schedule(
    k0: float = DEFAULT_K0, doublings: int = DEFAULT_DOUBLINGS
) -> list[float]:
    try:
        return [k0 * 2.0**i for i in range(doublings + 1)]
    except OverflowError:  # 2.0**i for i >= 1024
        raise ValueError("schedule values must be finite and positive") from None


def normalized_trajectory(A, k_schedule: Sequence[float]) -> PerronTrajectory:
    """Sample P_k = (log Perron vector)/k along the schedule.

    Samples are computed in increasing k, each warm-started from the previous
    solution rescaled to the new k; this continuation is what keeps the
    eigenvector mixture accurate far beyond the range where exp(kA) is
    representable.  A sample that misses the tolerance is recorded as a
    failure rather than aborting the run, but its iterate still seeds the
    next sample.  A k*A with an entry beyond double range is an input error.
    """
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError("matrix must be square and non-empty")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    ks = [float(k) for k in k_schedule]
    if not ks:
        raise ValueError("schedule must be non-empty")
    if not all(math.isfinite(k) and k > 0 for k in ks):
        raise ValueError("schedule values must be finite and positive")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("schedule must be strictly increasing")
    # float products are monotone, so k*A overflows somewhere iff it does here
    if not math.isfinite(ks[-1] * float(np.abs(M).max())):
        raise ValueError(f"k*A overflows double range at k = {ks[-1]!r}")
    samples: list[PerronSample] = []
    failures: list[FailedSample] = []
    y = kprev = None
    for k in ks:
        y0 = None if y is None else y * (k / kprev)
        s, y, res, it, ok = _solve(k * M, k, y0)
        kprev = k
        if ok:
            samples.append(
                PerronSample(
                    k=k,
                    log_rho_over_k=s / k,
                    point=float_point(y / k),
                    residual=res,
                    iterations=it,
                )
            )
        else:
            failures.append(FailedSample(k=k, residual=res, iterations=it))
    return PerronTrajectory(samples=tuple(samples), failures=tuple(failures))


def _doubling_pairs(samples: Sequence[PerronSample]):
    return [
        (samples[i - 1], samples[i])
        for i in range(1, len(samples))
        if abs(samples[i].k - 2.0 * samples[i - 1].k) <= 1e-9 * samples[i].k
    ]


def estimate_p_infinity(traj: PerronTrajectory) -> PinfEstimate:
    """Richardson extrapolation over a doubling pair of trajectory samples.

    The correction to P_k is O(1/k) while the structure is numerically alive,
    so 2*P_{2k} - P_k cancels the leading term.  Which pair to use is decided
    from the observed decay of successive moves: a move ratio near 1/2 is the
    O(1/k) signature and selects the last such pair; anything faster means
    the sequence has genuinely settled (exponential transients), in which
    case the final pair (effectively the settled value) is the better
    estimate.  error_bound is the sup-norm difference of the chosen pair.
    """
    pairs = _doubling_pairs(traj.samples)
    if not pairs:
        raise EstimateError("need at least two successful samples at k and 2k")
    moves = [
        max(abs(x - y) for x, y in zip(b.point.coords, a.point.coords))
        for a, b in pairs
    ]
    chosen = pairs[-1]
    last_moving = max(
        (i for i, m in enumerate(moves) if m > _MOVE_NOISE), default=None
    )
    if last_moving is not None and last_moving > 0 and moves[last_moving - 1] > _MOVE_NOISE:
        ratio = moves[last_moving] / moves[last_moving - 1]
        if 0.3 <= ratio <= 0.7:
            chosen = pairs[last_moving]
    a, b = chosen
    pa = np.array(a.point.coords)
    pb = np.array(b.point.coords)
    return PinfEstimate(
        point=float_point(2.0 * pb - pa),
        error_bound=float(np.abs(pb - pa).max()),
        k_max_used=b.k,
    )
