"""Numerical Perron eigenpairs of exp(k*A), entirely in log coordinates.

The one entry point is normalized_trajectory, which samples P_k along an
increasing k schedule; a single k is normalized_trajectory(A, [k]), whose
sample carries log rho / k and P_k = (log Perron vector) / k.  It validates
its input once: A square, non-empty and finite, the schedule finite,
positive and increasing, and k*A within double range by a factor _HEADROOM.

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
  still representable in doubles.  It stops when one power step moves the
  point by less than 1e-12, when a step is not finite, or after
  _SQUARING_ROUNDS rounds;
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

# the sampling schedule DEFAULT_K0 * 2^i, i = 0..doublings: k = 4 to 2^14
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

# k*A must stay this far inside double range.  With K = k max|A|, a point's
# coordinates lie within 2K of each other (it is a step of k*A), so a lazy
# step sums at most u_1 + y <= 5K; a squared matrix's entries lie within 2K
# of its largest entry two steps shorter, so within 4K of its maximum 0, and
# a squaring sums down to -8K.  One K more covers log n terms and rounding.
_HEADROOM = 9.0

# below this n the accelerator's products use the row-blocked kernel, one per
# round with the power step as an extra column: below it the GEMM's 2n^2
# exponentials save little on numpy's per-call cost (a round's products, the
# fused one over the GEMM branch's two when its power step was a GEMV, best
# of 7 on 2 cores: x0.4 at n=3, x0.7 at 8, x1.1 at 12, x1.7-1.8 at 16,
# x3.4-3.7 at 24).  Moving it would move trajectories by rounding at the
# sizes between the old and the new cut-over
_GEMM_MIN_N = 16

# a row with a scaled GEMM entry below this, in the square or in the power
# step (its one-column case), goes back to the row-blocked kernel: a term
# that exp flushes to zero is below e^-745 of its row and column maxima,
# while an entry of at least 1e-280 (about e^-645) loses nothing to
# underflow beyond rounding
_GEMM_UNDERFLOW = 1e-280

# row block height of the row-blocked kernel; 8 measured as fast as 16
_LOG_MATMUL_ROWS = 16

_LOG2 = math.log(2.0)

# the ufunc reductions behind ndarray.max and ndarray.sum, called without the
# methods' Python wrappers, which cost about 0.5-0.8 us of a 9 us lazy step
# at n=3
_max = np.maximum.reduce
_sum = np.add.reduce


class EstimateError(RuntimeError):
    pass


def _lse_rows(B: np.ndarray) -> np.ndarray:
    """logsumexp of each row of a matrix, overwriting B."""
    m = _max(B, 1)
    B -= m[:, None]
    s = _sum(np.exp(B, B), 1)
    np.log(s, s)
    s += m  # m + log(s): addition commutes, so these are its bits
    return s


def _row_scaled(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row maxima r of B and exp(B - r), the GEMM's left operand."""
    r = _max(B, axis=1)
    E = np.subtract(B, r[:, None])
    return r, np.exp(E, out=E)


def _log_matmul_scaled(
    B: np.ndarray, r: np.ndarray, E: np.ndarray, C: np.ndarray
) -> np.ndarray:
    """Log-domain matrix product out_ij = logsumexp_l(B_il + C_lj) from B's
    row maxima r and E = exp(B - r).

    One BLAS GEMM on operands scaled by r and the column maxima c of C:
    out = r + c + log(E @ exp(C - c)), which takes 2n^2 exponentials where
    the row-blocked kernel takes n^3.

    The accelerator makes r and E once per round and passes them to both of
    its products: the power step, C = x[:, None], and the square, C = B.
    Every term of the scaled GEMM is at most 1, so nothing overflows, but a
    term far below its row and column maxima underflows: the rows in which
    some entry falls below _GEMM_UNDERFLOW, where a lost term could matter,
    are recomputed by the row-blocked kernel.  The GEMM sums in another
    order than the row-blocked kernel, so the two agree to rounding, not bit
    for bit.
    """
    c = _max(C, axis=0)
    P = E @ np.exp(C - c)
    low = ()
    if np.minimum.reduce(P, axis=None) < _GEMM_UNDERFLOW:
        low = np.flatnonzero(np.minimum.reduce(P, axis=1) < _GEMM_UNDERFLOW)
        P[low] = 1.0  # recomputed below; keeps log off a fully underflowed 0
    out = np.log(P, out=P)
    out += r[:, None] + c
    if len(low):
        out[low] = _log_matmul_blocked(B[low], C)
    return out


def _log_matmul_blocked(B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The row-blocked log-domain product, bit-identical to the n^3 formula.

    Rows of B are reduced _LOG_MATMUL_ROWS at a time in one reused
    (rows, l, j) buffer, so temporaries are O(rows*n^2) rather than O(n^3).
    Each (i, j) still takes its max and its sum over l in the same order on
    the same values as the one-tensor formulation, so results are
    bit-identical to it, row by row, whatever rows are passed.
    """
    rows = _LOG_MATMUL_ROWS
    T = np.empty((min(len(B), rows),) + C.shape)
    m = np.empty((len(T), 1, C.shape[1]))
    out = np.empty((len(B), 1, C.shape[1]))
    for r0 in range(0, len(B), rows):
        Bb = B[r0 : r0 + rows, :, None]
        h = len(Bb)
        _log_matmul_into(Bb, C, T[:h], m[:h], out[r0 : r0 + rows])
    return out[:, 0]


def _log_matmul_into(
    B: np.ndarray, C: np.ndarray, T: np.ndarray, m: np.ndarray, out: np.ndarray
) -> None:
    """One block of _log_matmul_blocked: out_i0j = logsumexp_l(B_il0 + C_lj).

    B is a (rows, l, 1) view of the block's rows, T a (rows, l, j) work
    buffer, and m and out are (rows, 1, j).  It allocates nothing, and its
    ufuncs take their arguments by position, which numpy parses faster than
    keywords: below _GEMM_MIN_N the accelerator squares one block per round,
    so numpy's per-call cost is most of a round's.
    """
    np.add(B, C, T)
    _max(T, 1, None, m, True)  # axis 1 into m, keeping the dimension
    np.subtract(T, m, T)
    _sum(np.exp(T, T), 1, None, out, True)
    np.log(out, out)
    np.add(out, m, out)  # m + log(sum), as in _lse_rows


def _lazy_step(kA: np.ndarray, y: np.ndarray, k: float):
    """One step's image of y: u = kA (x) y, u_1 and the residual of y."""
    u = _lse_rows(kA + y)
    u0 = u.item(0)
    d = u - u0
    d -= y
    res = float(_max(np.abs(d, d))) / k
    return u, u0, res


def _averaged(u: np.ndarray, y: np.ndarray, u0: float) -> np.ndarray:
    """The lazy step's next point, log((e^u + e^(y + u_1)) / 2) pinned to 0,
    overwriting u."""
    z = np.logaddexp(u, np.add(y, u0), u)  # y + u0 is u0 + y
    z -= _LOG2
    z -= z.item(0)
    return z


def _lazy_phase(kA, y, k, best, budget):
    """Lazy steps for one matrix from y while they genuinely contract.

    Stops when a residual certifies its pre-step point, when the residual
    stalls, or after `budget` steps.  Returns the (residual, point, u_1) with
    the smallest residual among best and the points stepped from, the last
    point reached, and the number of steps taken.  The next point is formed
    only when the step goes on: most steps of a warm-started trajectory
    certify their start point.
    """
    history = []
    for steps in range(1, budget + 1):
        u, s, res = _lazy_step(kA, y, k)
        if res < best[0]:
            best = (res, y, s)
        if res < _TOL:
            break
        history.append(res)
        y = _averaged(u, y, s)
        if len(history) > _STALL_WINDOW and res > 0.75 * history[-_STALL_WINDOW]:
            break
    return best, y, steps


def _accelerate(kA: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """Repeated squaring of the diagonally shifted log matrix from y.

    Each round applies 2^t power steps.  The shift is certified <= log rho
    (Collatz-Wielandt lower bound minus log n), which damps the oscillatory
    near-(-rho) mode without disturbing which cycles are critical.  A round
    takes one power step x <- B (x) x with the current B (pinned to x_1 = 0) and
    squares B.  The rounds stop when a step moves x by less than 1e-12, when
    a step is not finite (x keeps its last finite value), or after
    _SQUARING_ROUNDS rounds.  Returns the final point and the number of
    rounds run.

    Below _GEMM_MIN_N, B is the left n columns of one (n, n+1) buffer
    [B | x], and the row-blocked product of B with it gives B squared in
    columns 0..n-1 and the power step in column n: one product per round,
    _log_matmul_into work buffers allocated once per call.
    From _GEMM_MIN_N on, a round takes B's row maxima r and E = exp(B - r)
    once and makes two _log_matmul_scaled products with them: the power step
    as the one-column product with x, and, when the round goes on, the
    square, so a round costs 2n^2 + n exponentials and underflowed rows of
    either product go to the row-blocked kernel.  The power step stays a
    product of its own: at n=200 an n x (n+1) GEMM split its sums
    differently at 1 and 2 BLAS threads, where the square one agrees.
    """
    n = kA.shape[0]
    u = _lse_rows(kA + y)
    u -= y
    c0 = float(np.minimum.reduce(u)) - math.log(n) - 1.0
    fused = n < _GEMM_MIN_N
    Bx = np.empty((n, n + 1 if fused else n))  # [B | x] when fused
    B = Bx[:, :n]
    B[...] = kA
    diag = Bx.reshape(-1)[:: Bx.shape[1] + 1]  # B's diagonal, as a view
    np.logaddexp(diag, c0, out=diag)
    if fused:  # the round's work buffers and its product [B^2 | step]
        T = np.empty((n, n, n + 1))
        m = np.empty((n, 1, n + 1))
        P3 = np.empty((n, 1, n + 1))
        B3, P = B[:, :, None], P3[:, 0]
        xcol, step, square = Bx[:, n], P[:, n], P[:, :n]
    x = y
    for rounds in range(1, _SQUARING_ROUNDS + 1):
        if fused:
            xcol[...] = x
            _log_matmul_into(B3, Bx, T, m, P3)
            xnew = step - step.item(0)
            # the GEMM branch's two tests on one list, cheaper at small n.
            # x is finite: y is a lazy step's point on a finite k*A inside
            # _HEADROOM, and each later x passed this test.  x and xnew are
            # normalized steps with coordinates within about 4K of 0 (see
            # _HEADROOM), so xnew - x is finite exactly where xnew is, and
            # the largest |xnew - x| on the list is np.max's value
            d = (xnew - x).tolist()
            if not all(map(math.isfinite, d)):
                break
            delta = max(map(abs, d))
        else:
            r, E = _row_scaled(B)
            xnew = _log_matmul_scaled(B, r, E, x[:, None])[:, 0]
            xnew -= xnew[0]
            if not np.logical_and.reduce(np.isfinite(xnew)):
                break
            delta = float(_max(np.abs(xnew - x)))
        x = xnew
        if delta < 1e-12:
            break  # aggregation stabilized
        if not fused:
            square = _log_matmul_scaled(B, r, E, B)
        np.subtract(square, _max(square, None), B)
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


def geometric_schedule(doublings: int = DEFAULT_DOUBLINGS) -> list[float]:
    if doublings >= 0:
        try:
            return [math.ldexp(DEFAULT_K0, i) for i in range(doublings + 1)]
        except OverflowError:  # ldexp(4.0, i) for i >= 1022
            pass
    raise ValueError("schedule values must be finite and positive")


def normalized_trajectory(A, k_schedule: Sequence[float]) -> PerronTrajectory:
    """Sample P_k = (log Perron vector)/k along the schedule.

    Samples are computed in increasing k, each warm-started from the previous
    solution rescaled to the new k; this continuation is what keeps the
    eigenvector mixture accurate far beyond the range where exp(kA) is
    representable.  A sample that misses the tolerance is recorded as a
    failure rather than aborting the run, but its iterate still seeds the
    next sample.  A k*A past double range over _HEADROOM is an input error.
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
    # float products are monotone, so the headroom is short somewhere iff here
    if not math.isfinite(_HEADROOM * ks[-1] * float(np.abs(M).max())):
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
                    # y_1 is +0.0 (a coordinate minus itself, or 0 scaled),
                    # so float_point's shift by it would change no bit
                    point=FloatPoint(tuple((y / k).tolist())),
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
