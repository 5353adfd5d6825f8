"""Numerical Perron eigenpairs of exp(k*A), entirely in log coordinates.

Explicitly exponentiating k*A stops working long before the interesting
asymptotics set in: cross terms like e^{-25000} are absorbed or flushed to
zero, and the iteration silently returns garbage.  Everything here therefore
works on log-domain quantities.  One normalized fixed-point step is

    y  <-  z - z_1,      z_i = logsumexp_j(k*A_ij + y_j),

whose fixed point is the log Perron vector pinned to y_1 = 0, with z_1 the
log Perron root.  Three ingredients make the iteration practical across the
whole k range:

* a lazy (averaged) step, which removes the oscillatory near-(-rho) mode that
  a dominant 2-cycle would otherwise leave undamped;
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
eigenvalue to within r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FloatPoint, float_point, span_distance

DEFAULT_TOL = 1e-13
DEFAULT_MAX_ITER = 10**6

# trajectory moves below this are indistinguishable from rounding noise
_MOVE_NOISE = 1e-9

# row block height of _log_matmul; 8 measured as fast as 16
_LOG_MATMUL_ROWS = 16

_LOG2 = math.log(2.0)

# the ufunc reductions behind ndarray.max and ndarray.sum, called without the
# methods' Python wrappers, which cost about 1 us of a 16 us lazy step at n=3
_max = np.maximum.reduce
_sum = np.add.reduce


class PerronError(RuntimeError):
    pass


class ConvergenceError(PerronError):
    """Power iteration did not reach the residual tolerance."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"no convergence: residual {residual:.3e} after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations


class OracleError(PerronError):
    """The linear-domain float oracle failed or flagged itself unreliable."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class EstimateError(PerronError):
    pass


def _as_matrix(A) -> np.ndarray:
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValueError("matrix must be square and non-empty")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def _lse_rows(B: np.ndarray) -> np.ndarray:
    """logsumexp over the last axis, for one matrix or a stack."""
    m = _max(B, axis=-1, keepdims=True)
    return m[..., 0] + np.log(_sum(np.exp(B - m), axis=-1))


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
    u = _lse_rows(kA + y[None, :])
    u0 = u[0]
    res = float(_max(np.abs(u - u0 - y), axis=None) / k)
    z = np.logaddexp(u, u0 + y) - _LOG2
    return z - z[0], float(u0), res


def _lazy_steps(kA: np.ndarray, Y: np.ndarray, k: float):
    """_lazy_step for each member of a (m, n, n) stack at the points Y (m, n).

    Every member takes _lazy_step's float operations in the same order, so
    each row of the result equals its one-matrix step bit for bit.
    """
    U = _lse_rows(kA + Y[:, None, :])
    U0 = U[:, :1]
    res = _max(np.abs(U - U0 - Y), axis=1) / k
    Z = np.logaddexp(U, U0 + Y) - _LOG2
    return Z - Z[:, :1], U[:, 0].tolist(), res.tolist()


class _Member:
    """One matrix's solver state: iterations spent and its best iterate so far."""

    __slots__ = ("it", "res", "y", "s")

    def __init__(self, y: np.ndarray):
        self.it, self.res, self.y, self.s = 0, math.inf, y, 0.0


def _take(kA: np.ndarray, Y, rows: Sequence[int]):
    """The stack's rows and their points; a lone row as its 2-D matrix and a 1-tuple."""
    if len(rows) == 1:
        return kA[rows[0]], (Y[rows[0]],)
    return kA[rows], Y[rows]


def _lazy_phase(kA, Y, members, k, tol, max_iter, budget, stall_window=40):
    """Lazy steps for a stack while each member is genuinely contracting.

    kA (m, n, n) and the start points Y (m, n) line up with `members`, each
    of which has iterations left.  A member leaves the stack when a residual
    certifies its pre-step point, when it stalls, or when it spends max_iter;
    everyone left leaves when the shared budget runs out.  Returns, per
    member, the point to continue from, or None once certified.  A lone
    member takes the 2-D step, which costs less per call than a stack of one.
    """
    out: list[np.ndarray | None] = [None] * len(members)
    live = [(p, mb, []) for p, mb in enumerate(members)]
    kA, Y = _take(kA, Y, range(len(members)))
    while live and budget > 0:
        if kA.ndim == 2:
            ynew, s, res = _lazy_step(kA, Y[0], k)
            Ynew, S, R = (ynew,), (s,), (res,)
        else:
            Ynew, S, R = _lazy_steps(kA, Y, k)
        budget -= 1
        gone = []
        for q, (p, mb, history) in enumerate(live):
            res = R[q]
            mb.it += 1
            if res < mb.res:
                mb.res, mb.y, mb.s = res, Y[q], S[q]
            if res < tol:
                gone.append(q)
                continue
            history.append(res)
            if (
                len(history) > stall_window and res > 0.75 * history[-stall_window]
            ) or mb.it >= max_iter:
                out[p] = Ynew[q]
                gone.append(q)
        if gone:
            keep = [q for q in range(len(live)) if q not in gone]
            live = [live[q] for q in keep]
            if keep:
                kA, Ynew = _take(kA, Ynew, keep)
        Y = Ynew
    for q, (p, _, _) in enumerate(live):
        out[p] = Y[q]
    return out


def _accelerate(kA: np.ndarray, y: np.ndarray, mb: _Member, max_iter: int) -> np.ndarray:
    """Repeated squaring of the diagonally shifted log matrix from y.

    Each round applies 2^t power steps.  The shift is certified <= log rho
    (Collatz-Wielandt lower bound minus log n), which damps the oscillatory
    near-(-rho) mode without disturbing which cycles are critical.  Rounds
    are residual-guided: accumulated rounding in the squared matrix doubles
    per round, so the loop stops as soon as candidates stop improving.
    """
    n = kA.shape[0]
    u = _lse_rows(kA + y[None, :])
    c0 = float((u - y).min()) - math.log(n) - 1.0
    B = kA.copy()
    idx = np.arange(n)
    B[idx, idx] = np.logaddexp(B[idx, idx], c0)
    x = y.copy()
    # 40 rounds = power 2^40; beyond that, accumulated rounding in the
    # squared matrix (about 2^t * eps) outweighs anything still to gain
    for _ in range(40):
        if mb.it >= max_iter:
            break
        xnew = _lse_rows(B + x[None, :])
        xnew -= xnew[0]
        mb.it += 1
        if not np.isfinite(xnew).all():
            break
        delta = float(np.abs(xnew - x).max())
        x = xnew
        if delta < 1e-12:
            break  # aggregation stabilized
        B = _log_matmul(B, B)
        B -= B.max()
    return x


def _solve(kA: np.ndarray, k: float, tol: float, max_iter: int, Y0: np.ndarray | None):
    """Core solver for a (m, n, n) stack of k*A, started from Y0 (m, n) or 0.

    Returns one (log_rho, y, residual, iterations, converged) per member.
    The lazy phase advances the whole stack; a member it leaves uncertified
    goes alone through the accelerator and a polishing lazy phase, which
    keeps whichever of the two phases' iterates certifies the smaller
    residual.
    """
    m, n = kA.shape[:2]
    if n == 1:
        return [(float(kA[i, 0, 0]), np.zeros(1), 0.0, 0, True) for i in range(m)]
    Y = np.zeros((m, n)) if Y0 is None else Y0
    members = [_Member(Y[i]) for i in range(m)]
    starts = _lazy_phase(kA, Y, members, k, tol, max_iter, 2000)
    for i, (mb, y) in enumerate(zip(members, starts)):
        if y is not None:
            x = _accelerate(kA[i], y, mb, max_iter)
            if mb.it < max_iter:
                _lazy_phase(kA[i : i + 1], x[None], [mb], k, tol, max_iter, 400)
    return [(mb.s, mb.y, mb.res, mb.it, mb.res < tol) for mb in members]


def _check_limits(tol: float, max_iter: int) -> None:
    # an infinite tol would certify every start point, zeros included
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if not (max_iter >= 1):
        raise ValueError("max_iter must be at least 1")


def log_perron_eigenpair(
    A,
    k: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    start: Sequence[float] | None = None,
) -> tuple[float, FloatPoint, float, int]:
    """Log Perron root and normalized log eigenvector of exp(k*A).

    Returns (log_rho, vector, residual, iterations) with vector pinned to
    first coordinate 0.  The entries e^{k*A_ij} are never materialized.
    Raises ConvergenceError when the residual tolerance is not met; the
    exception carries the last residual.
    """
    M = _as_matrix(A)
    if not (math.isfinite(k) and k > 0):
        raise ValueError("k must be finite and positive")
    _check_limits(tol, max_iter)
    y0 = None if start is None else np.asarray(list(start), dtype=float)
    if y0 is not None and y0.shape != (M.shape[0],):
        raise ValueError("start vector has wrong length")
    Y0 = None if y0 is None else y0[None]
    [(s, y, res, it, ok)] = _solve(k * M[None], float(k), tol, max_iter, Y0)
    if not ok:
        raise ConvergenceError(res, it)
    return s, float_point(y), res, it


def _converge_linear(M: np.ndarray, x: np.ndarray, squarings: int = 64) -> np.ndarray | None:
    P = M.copy()
    prev = x / x.sum()
    for _ in range(squarings):
        y = P @ prev
        total = y.sum()
        if not np.isfinite(total) or total <= 0.0:
            return None
        y /= total
        if np.abs(y / prev - 1.0).max() < 1e-13:
            return y
        prev = y
        P = P @ P
        m = P.max()
        if not np.isfinite(m) or m <= 0.0:
            return None
        P /= m
    return None


def perron_float_oracle(A, k: float) -> tuple[float, np.ndarray]:
    """Classical linear-domain power iteration on the exponentiated matrix.

    Power steps are applied in bulk by repeated squaring, with a diagonal
    shift so that a dominant 2-cycle cannot stall the iteration.  This is the
    fragile reference path: it fails once exp(k*A) overflows, once entries
    flush to zero (the matrix is no longer positive), or once the result is
    untrustworthy, detected by disagreement between two independent starting
    vectors.  All failures raise OracleError.
    """
    M0 = _as_matrix(A)
    if not (math.isfinite(k) and k > 0):
        raise ValueError("k must be finite and positive")
    n = M0.shape[0]
    with np.errstate(over="ignore", under="ignore"):
        M = np.exp(k * M0)
    if not np.all(np.isfinite(M)):
        raise OracleError("overflow: exp(kA) exceeds double range")
    if M.min() <= 0.0:
        raise OracleError("underflow: exp(kA) has entries flushed to zero")
    if n == 1:
        return float(M[0, 0]), np.ones(1)
    shifted = M + np.eye(n) * M.sum(axis=1).max()
    x1 = _converge_linear(shifted, np.ones(n))
    x2 = _converge_linear(shifted, np.linspace(1.0, 2.0, n))
    if x1 is None or x2 is None:
        raise OracleError("power iteration did not converge")
    if np.abs(np.log(x1) - np.log(x2)).max() > 1e-10:
        raise OracleError("unreliable: result depends on the starting vector")
    x = x1
    for _ in range(50):
        xn = M @ x
        xn /= xn.sum()
        done = np.abs(xn / x - 1.0).max() < 1e-15
        x = xn
        if done:
            break
    T = M * x[None, :]
    top = T.max(axis=1)
    if float(((T.sum(axis=1) - top) / top).min()) < 1e-13:
        raise OracleError(
            "unreliable: row structure absorbed below double precision"
        )
    rho = float((M @ x)[0] / x[0])
    return rho, x / x.max()


def row_coupling_mass(A, k: float, point: Sequence[float]) -> float:
    """Smallest row-wise sub-dominant logsumexp mass at the given point.

    Measures how much of the matrix structure is still numerically visible at
    scale k; values near machine epsilon mean the eigenvector mixture is
    frozen and no longer being updated by any double-precision method.
    """
    M = _as_matrix(A)
    y = np.asarray(list(point), dtype=float)
    B = k * M + y[None, :] - y[:, None]
    r = np.exp(B - B.max(axis=1, keepdims=True))
    return float((r.sum(axis=1) - 1.0).min())


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


def geometric_schedule(k0: float = 4.0, doublings: int = 12) -> list[float]:
    return [k0 * 2.0**i for i in range(doublings + 1)]


def normalized_trajectory(
    A,
    k_schedule: Sequence[float],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PerronTrajectory:
    """Sample P_k = (log Perron vector)/k along the schedule.

    Samples are computed in increasing k, each warm-started from the previous
    solution rescaled to the new k; this continuation is what keeps the
    eigenvector mixture accurate far beyond the range where exp(kA) is
    representable.  A sample that misses the tolerance is recorded as a
    failure rather than aborting the run, but its iterate still seeds the
    next sample.
    """
    return normalized_trajectories([A], k_schedule, tol, max_iter)[0]


def normalized_trajectories(
    stack,
    k_schedule: Sequence[float],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[PerronTrajectory]:
    """normalized_trajectory of every matrix in a stack of same-size matrices.

    The members are solved together, one array step for all of them, and
    each result equals normalized_trajectory of that member alone.
    """
    mats = [_as_matrix(A) for A in stack]
    if not mats:
        raise ValueError("stack must be non-empty")
    if any(M.shape != mats[0].shape for M in mats):
        raise ValueError("stack members must have the same size")
    S = np.array(mats)
    ks = [float(k) for k in k_schedule]
    if not ks:
        raise ValueError("schedule must be non-empty")
    if not all(math.isfinite(k) and k > 0 for k in ks):
        raise ValueError("schedule values must be finite and positive")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("schedule must be strictly increasing")
    _check_limits(tol, max_iter)
    samples: list[list[PerronSample]] = [[] for _ in mats]
    failures: list[list[FailedSample]] = [[] for _ in mats]
    Y = None
    kprev = None
    for k in ks:
        Y0 = None if Y is None else Y * (k / kprev)
        results = _solve(k * S, k, tol, max_iter, Y0)
        Y, kprev = np.array([r[1] for r in results]), k
        for (s, yout, res, it, ok), member_samples, member_failures in zip(
            results, samples, failures
        ):
            if ok:
                member_samples.append(
                    PerronSample(
                        k=k,
                        log_rho_over_k=s / k,
                        point=float_point(yout / k),
                        residual=res,
                        iterations=it,
                    )
                )
            else:
                member_failures.append(FailedSample(k=k, residual=res, iterations=it))
    return [
        PerronTrajectory(samples=tuple(a), failures=tuple(b))
        for a, b in zip(samples, failures)
    ]


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
