import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from tropasym import (
    EstimateError,
    TropicalMatrix,
    estimate_p_infinity,
    geometric_schedule,
    normalized_trajectory,
    random_matrix,
    span_distance,
    spectral_data,
)
from tropasym import perron
from tropasym.figures import load_cases

from _oracles import (
    OracleError,
    _solve_one,
    log_matmul_oracle,
    perron_float_oracle,
    trajectory_oracle,
)

FIG2 = [[0.0, -2.5, -0.5], [-1.0, 0.0, -1.5], [-1.0, -1.0, 0.0]]
FIG3 = [[0.0, -6.0, -5.0], [-1.0, 0.0, -1.0], [-1.0, -2.0, 0.0]]
FIG7 = [[0.0, 1.0, 3.0], [-5.0, 0.0, 1.0], [-6.0, -1.0, 0.0]]
SYM2 = [[0.3, -1.2], [-1.2, 0.3]]


def oracle_log_coords(v):
    logs = np.log(np.asarray(v))
    return logs - logs[0]


def eigenpair(A, k):
    """Log Perron root and log Perron vector (pinned to 0) of exp(k*A) at one k."""
    (sample,) = normalized_trajectory(A, [k]).samples
    return sample.log_rho_over_k * k, np.array(sample.point.coords) * k, sample


class TestEigenpair:
    def test_scalar(self):
        s, v, sample = eigenpair([[0.7]], 100.0)
        assert s == pytest.approx(70.0)
        assert tuple(v) == (0.0,)
        assert sample.residual == 0.0

    def test_symmetric_two_by_two(self):
        for k in (1.0, 8.0, 512.0):
            s, v, _ = eigenpair(SYM2, k)
            assert np.abs(v).max() < 1e-12
            assert s == pytest.approx(np.logaddexp(0.3 * k, -1.2 * k), abs=1e-12)

    def test_matches_linear_oracle_small_k(self):
        for k in (4.0, 12.0, 20.0):
            s, v, _ = eigenpair(FIG2, k)
            rho, x = perron_float_oracle(FIG2, k)
            assert abs(s - math.log(rho)) < 1e-8
            assert np.abs(oracle_log_coords(x) - v).max() < 1e-8

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            normalized_trajectory(FIG2, [-1.0])
        with pytest.raises(ValueError):
            normalized_trajectory([[float("nan"), 0], [0, 0]], [4.0])
        with pytest.raises(ValueError):
            normalized_trajectory([[0, 1], [1, 0], [0, 0]], [4.0])

    def test_non_finite_k_rejected(self):
        for k in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                normalized_trajectory(FIG2, [k])

    def test_overflowing_kA_rejected(self):
        # k*A overflows only at the last k
        A = [[0.0, -1e300, -3.0], [-1e300, 0.0, 1e300], [1.0, -2.0, 0.0]]
        with pytest.raises(ValueError, match=r"overflows .* k = 10000000000\.0"):
            normalized_trajectory(A, [4.0, 1e10])

    def test_kA_needs_solver_headroom(self):
        # k*A = 8e307 is a double, but the accelerator's sums would overflow
        A = [[0.0, -1e307, 3.0], [1e307, 0.0, -2e306], [1.0, -1e307, 0.0]]
        with pytest.raises(ValueError, match=r"overflows .* k = 8\.0"):
            normalized_trajectory(A, [4.0, 8.0])
        # just inside the limit the solver forms no overflowing sum
        limit = np.finfo(float).max / perron._HEADROOM
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 8, 17):
            B = rng.uniform(-1.0, 1.0, (n, n))
            B *= 0.9999 * limit / (8.0 * np.abs(B).max())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                normalized_trajectory(B, [4.0, 8.0])
            with pytest.raises(ValueError, match="overflows"):
                normalized_trajectory(1.001 * B, [4.0, 8.0])

    def test_nonconvergence_reports_residual(self, monkeypatch):
        # under a zero tolerance no sample is ever certified
        monkeypatch.setattr(perron, "_TOL", 0.0)
        traj = normalized_trajectory(FIG2, [4.0])
        _, _, res, it, ok = _solve_one(4.0 * np.array(FIG2), 4.0, 0.0, None)
        assert not ok and not traj.samples
        assert traj.failures == (perron.FailedSample(4.0, res, it),)


class TestFloatOracle:
    def test_scalar(self):
        rho, v = perron_float_oracle([[0.25]], 8.0)
        assert rho == pytest.approx(math.exp(2.0))
        assert tuple(v) == (1.0,)

    def test_agreement_at_k4(self):
        s, vec, _ = eigenpair(FIG2, 4.0)
        rho, x = perron_float_oracle(FIG2, 4.0)
        assert abs(s - math.log(rho)) < 1e-10
        assert np.abs(oracle_log_coords(x) - vec).max() < 1e-10

    def test_large_k_fails_while_log_domain_succeeds(self):
        # cross terms of exp(10000*A) flush to zero: the positive-matrix
        # assumption breaks and the oracle must refuse
        with pytest.raises(OracleError):
            perron_float_oracle(FIG2, 10000.0)
        s, v, _ = eigenpair(FIG2, 10000.0)
        assert np.isfinite(v).all()

    def test_overflow_failure(self):
        with pytest.raises(OracleError):
            perron_float_oracle([[0.0, 2.0], [2.0, 0.0]], 1000.0)

    def test_non_finite_k_rejected(self):
        for k in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                perron_float_oracle(FIG2, k)


class TestTrajectory:
    def test_figure2_final_sample(self):
        traj = normalized_trajectory(FIG2, geometric_schedule(10))
        last = traj.samples[-1]
        assert last.k == 4096.0
        target = np.array([0.0, -0.25, -0.25])
        assert np.abs(np.array(last.point.coords) - target).max() < 1e-2

    def test_symmetric_samples_all_zero(self):
        traj = normalized_trajectory(SYM2, geometric_schedule())
        for s in traj.samples:
            assert max(abs(c) for c in s.point.coords) < 1e-12

    def test_monotone_normalized_eigenvalue(self):
        rng = random.Random(3)
        for _ in range(5):
            A = random_matrix(3, seed=rng).to_floats()
            traj = normalized_trajectory(A, geometric_schedule())
            lams = [s.log_rho_over_k for s in traj.samples]
            assert all(b <= a + 1e-12 for a, b in zip(lams, lams[1:]))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            normalized_trajectory(FIG2, [])
        with pytest.raises(ValueError):
            normalized_trajectory(FIG2, [4.0, 4.0])
        with pytest.raises(ValueError):
            normalized_trajectory(FIG2, [-1.0, 2.0])
        for bad in ([math.nan], [4.0, math.nan], [4.0, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                normalized_trajectory(FIG2, bad)
        # 4 * 2^1022 overflows, and a negative count would give no schedule
        for doublings in (-1, 1022, 1023, 1030):
            with pytest.raises(ValueError, match="finite"):
                geometric_schedule(doublings)
        assert geometric_schedule(0) == [4.0]
        assert geometric_schedule(1021)[-1] == 4.0 * 2.0**1021

    def test_failures_recorded_not_fatal(self, monkeypatch):
        monkeypatch.setattr(perron, "_TOL", 0.0)
        traj = normalized_trajectory(FIG2, [4.0, 8.0])
        assert not traj.samples  # an impossible tolerance shows up as failures
        assert [f.k for f in traj.failures] == [4.0, 8.0]

    def test_iterations_bounded_by_construction(self, monkeypatch):
        # with nothing certified, only the stall rule and the fixed counts end
        # a sample: one certifying step, the squaring rounds, the polishing
        monkeypatch.setattr(perron, "_TOL", 0.0)
        bound = 1 + perron._SQUARING_ROUNDS + perron._POLISH_STEPS
        mats = [np.array(FIG2)] + [
            A for n in (2, 3, 8) for A in grid_matrices(n, 4, seed=n)
        ]
        for A in mats:
            traj = normalized_trajectory(A, geometric_schedule())
            assert not traj.samples
            assert all(f.iterations <= bound for f in traj.failures)

    def test_scale_equivariance(self):
        c = 0.75
        shifted = [[x + c for x in row] for row in FIG2]
        t1 = normalized_trajectory(FIG2, geometric_schedule(6))
        t2 = normalized_trajectory(shifted, geometric_schedule(6))
        for a, b in zip(t1.samples, t2.samples):
            assert b.log_rho_over_k - a.log_rho_over_k == pytest.approx(c, abs=1e-10)
            assert np.abs(np.array(a.point.coords) - np.array(b.point.coords)).max() < 1e-10

    def test_sandwich_bound(self):
        rng = random.Random(4)
        for _ in range(5):
            M = random_matrix(4, seed=rng)
            lam = float(spectral_data(M).lam)
            traj = normalized_trajectory(M.to_floats(), geometric_schedule())
            for s in traj.samples:
                assert s.log_rho_over_k >= lam - 1e-11
                assert s.log_rho_over_k <= lam + math.log(4) / s.k + 1e-11


def grid_matrices(n: int, m: int, seed: int) -> list[np.ndarray]:
    """m zero-diagonal n x n matrices on the 1/2 grid in [-6, 2]: ties abound."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(m):
        A = rng.integers(-12, 5, size=(n, n)) / 2.0
        np.fill_diagonal(A, 0.0)
        mats.append(A)
    return mats


class TestTrajectoryOracle:
    SCHEDULE = geometric_schedule(8)

    def test_equals_oracle(self, monkeypatch):
        accelerated = []
        accelerate = perron._accelerate

        def counting(kA, y):
            accelerated.append(kA.shape[0])
            return accelerate(kA, y)

        monkeypatch.setattr(perron, "_accelerate", counting)
        for n in (1, 2, 3, 8, 15):
            for m in range(1, 9):
                for A in grid_matrices(n, m, seed=100 * n + m):
                    traj = normalized_trajectory(A, self.SCHEDULE)
                    assert traj == trajectory_oracle(A, self.SCHEDULE)
        # samples whose start point the first step left uncertified were accelerated
        assert {2, 3, 8, 15} <= set(accelerated)

    def test_failures_equal_oracle(self, monkeypatch):
        monkeypatch.setattr(perron, "_TOL", 0.0)
        for n in (2, 3, 8):
            for A in grid_matrices(n, 5, seed=n):
                traj = normalized_trajectory(A, self.SCHEDULE)
                assert traj.failures
                assert traj == trajectory_oracle(A, self.SCHEDULE, tol=0.0)

    def test_equals_oracle_on_the_campaign_inputs(self):
        # the conjectures campaign's own matrices over its own schedule, k up
        # to 16384: seeded random_matrix(3) draws and the bundled figure
        # cases.  repr tells -0.0 from 0.0, which == does not
        ks = geometric_schedule()
        rng = random.Random(28)
        mats = [random_matrix(3, seed=rng).to_floats() for _ in range(100)]
        mats += [case.matrix.to_floats() for case in load_cases()]
        assert len(mats) == 108
        accelerated = 0
        for A in mats:
            traj = normalized_trajectory(A, ks)
            assert repr(traj) == repr(trajectory_oracle(A, ks))
            accelerated += any(s.iterations > 1 for s in traj.samples)
        assert accelerated > 50

    def test_non_finite_entries_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            A = [row[:] for row in FIG2]
            A[0][1] = bad
            with pytest.raises(ValueError, match="finite"):
                normalized_trajectory(A, self.SCHEDULE)


class TestAcceleratorStops:
    """_accelerate's non-finite stop, which no valid trajectory reaches: x
    keeps its last finite value, fused (n=3) and with the GEMM (n=16)."""

    @pytest.mark.parametrize("n", [3, perron._GEMM_MIN_N])
    def test_first_step_not_finite_keeps_the_start(self, n):
        # a row of -inf makes its logsumexp NaN, so the diagonal shift c0 is
        # NaN and so is the first power step
        kA = np.random.default_rng(n).uniform(-6.0, 0.0, (n, n))
        kA[1] = -math.inf
        y = np.random.default_rng(n + 1).uniform(-1.0, 1.0, n)
        y[0] = 0.0
        with np.errstate(all="ignore"):
            x, rounds = perron._accelerate(kA, y)
        assert rounds == 1
        assert np.array_equal(x, y)

    @pytest.mark.parametrize("n", [3, perron._GEMM_MIN_N])
    def test_later_step_not_finite_keeps_the_last_finite_one(self, n, monkeypatch):
        # entries near -1e308: the first power step is finite, but B squared,
        # whose entries add two of B's, overflows to -inf, so the
        # renormalized B is NaN and the second step is not finite
        kA = -1e308 * np.random.default_rng(n).uniform(1.0, 1.5, (n, n))
        y = np.zeros(n)
        with np.errstate(all="ignore"):
            x, rounds = perron._accelerate(kA, y)
            monkeypatch.setattr(perron, "_SQUARING_ROUNDS", 1)
            first, one = perron._accelerate(kA, y)
        assert (rounds, one) == (2, 1)
        assert np.isfinite(x).all() and not np.array_equal(x, y)
        assert np.array_equal(x, first)


class TestMetamorphic:
    """Relations between two trajectories, compared on samples certified in both."""

    MATRICES = [A for n in (3, 4, 5, 6) for A in grid_matrices(n, 15, seed=500 + n)]

    @staticmethod
    def common_points(t1, t2, k_of=lambda k: k):
        """Point pairs of the t1 samples at k and the t2 samples at k_of(k)."""
        pairs, by_k = [], {s.k: s for s in t2.samples}
        for s in t1.samples:
            other = by_k.get(k_of(s.k))
            if other is not None:
                pairs.append((np.array(s.point.coords), np.array(other.point.coords)))
        return pairs

    def test_permuting_nodes_permutes_trajectory(self):
        rng = np.random.default_rng(0)
        ks = geometric_schedule()
        compared = 0
        for A in self.MATRICES:
            perm = rng.permutation(A.shape[0])
            traj = normalized_trajectory(A, ks)
            permuted = normalized_trajectory(A[np.ix_(perm, perm)], ks)
            for p, q in self.common_points(traj, permuted):
                # node perm[0] becomes node 0, so re-pin to its coordinate
                assert np.abs(q - (p[perm] - p[perm[0]])).max() < 1e-8
                compared += 1
        assert compared >= 0.9 * len(self.MATRICES) * len(ks)

    def test_doubling_A_doubles_k(self):
        # exp(k*2A) = exp(2k*A), so P_k(2A) = 2 P_2k(A); the residual on the
        # k-normalized map halves, so the two solves certify at different steps
        ks = geometric_schedule()
        compared = 0
        for A in self.MATRICES:
            doubled = normalized_trajectory(2.0 * A, ks)
            traj = normalized_trajectory(A, [2.0 * k for k in ks])
            for p, q in self.common_points(doubled, traj, lambda k: 2.0 * k):
                assert np.abs(p - 2.0 * q).max() < 1e-12
                compared += 1
        assert compared >= 0.9 * len(self.MATRICES) * len(ks)


class TestEstimate:
    def test_figure7(self):
        traj = normalized_trajectory(FIG7, geometric_schedule())
        est = estimate_p_infinity(traj)
        assert np.abs(np.array(est.point.coords) - np.array([0, -2.0, -3.0])).max() < 1e-2

    def test_figure3(self):
        traj = normalized_trajectory(FIG3, geometric_schedule())
        est = estimate_p_infinity(traj)
        assert np.abs(np.array(est.point.coords) - np.array([0, 4.0, 3.5])).max() < 1e-2

    def test_symmetric_exact(self):
        traj = normalized_trajectory(SYM2, geometric_schedule())
        est = estimate_p_infinity(traj)
        assert est.point.coords == (0.0, 0.0)
        assert est.error_bound == 0.0

    def test_needs_doubling_pair(self):
        traj = normalized_trajectory(FIG2, [4.0])
        with pytest.raises(EstimateError):
            estimate_p_infinity(traj)

    def test_membership_of_final_sample(self):
        traj = normalized_trajectory(FIG2, geometric_schedule())
        est = estimate_p_infinity(traj)
        gens = [g.to_floats() for g in spectral_data(
            TropicalMatrix.from_rows([[0, "-2.5", "-0.5"], [-1, 0, "-1.5"], [-1, -1, 0]])
        ).generators]
        dist = span_distance(list(traj.samples[-1].point.coords), gens)
        assert dist <= 10 * est.error_bound + 1e-3


def test_trajectory_csv_interface(monkeypatch):
    from tropasym.perron import trajectory_csv

    gens = [g.to_floats() for g in spectral_data(
        TropicalMatrix.from_rows([[0, "-2.5", "-0.5"], [-1, 0, "-1.5"], [-1, -1, 0]])
    ).generators]
    header = "k,lambda_k,coord_1,coord_2,coord_3,residual,iterations,span_distance"
    traj = normalized_trajectory(FIG2, [4.0, 8.0, 16.0])
    lines = trajectory_csv(traj, gens).splitlines()
    assert lines[0] == header
    assert len(lines) == 4
    for line, s in zip(lines[1:], traj.samples):
        assert float(line.split(",")[-1]) == span_distance(list(s.point.coords), gens)
    # failures keep k/residual/iterations but leave value cells empty
    monkeypatch.setattr(perron, "_TOL", 0.0)
    broken = normalized_trajectory(FIG2, [4.0, 8.0])
    assert not broken.samples
    lines = trajectory_csv(broken, gens).splitlines()
    assert lines[0] == header  # no sample to read n from: it comes from gens
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 8
        assert cells[1:5] == ["", "", "", ""] and cells[-1] == ""


def test_oracle_agreement_invariant():
    # wherever the oracle succeeds, the log-domain engine agrees to 1e-8
    rng = random.Random(21)
    compared = 0
    for _ in range(8):
        A = random_matrix(3, seed=rng).to_floats()
        for k in (4.0, 8.0):
            try:
                rho, x = perron_float_oracle(A, k)
            except OracleError:
                continue
            s, v, _ = eigenpair(A, k)
            assert abs(s - math.log(rho)) < 1e-8
            assert np.abs(oracle_log_coords(x) - v).max() < 1e-8
            compared += 1
    assert compared >= 6


def zero_diagonal(n: int, rng: np.random.Generator, values) -> np.ndarray:
    A = rng.choice(values, size=(n, n))
    np.fill_diagonal(A, 0.0)
    return A


def gemm_bound(B, C) -> float:
    """Bound on the GEMM path's distance from the n^3 formula.

    Each output is r + c + log(P) with |r + c| <= max|B| + max|C|, and each
    rounding on the way (B - r, exp, the GEMM's sums, log, the final sum)
    moves it by a few eps of that size.
    """
    return 4 * np.finfo(float).eps * (np.abs(B).max() + np.abs(C).max())


def gemm_log_matmul(B, C) -> np.ndarray:
    """The GEMM path's log-domain product of B and C, from B's own row scaling."""
    return perron._log_matmul_scaled(B, *perron._row_scaled(B), C)


class TestLogMatmul:
    def test_matches_one_tensor_oracle(self):
        # n below, at and past the row block height and the GEMM cut-over,
        # and not a multiple of either, with square right operands and the
        # accelerator's (n, n+1) [B | x]: the row-blocked kernel, in one
        # block or several, is bit-identical to the oracle, and from the
        # cut-over the GEMM agrees with it to rounding
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 15, 16, 17, 33, 70):
            B = rng.uniform(-40.0, 5.0, (n, n))
            C = rng.uniform(-40.0, 5.0, (n, n))
            Bx = np.column_stack([B, C[:, 0]])
            for X, Y in ((B, C), (B, B), (B, Bx)):
                want = log_matmul_oracle(X, Y)
                assert np.array_equal(perron._log_matmul_blocked(X, Y), want)
                if n >= perron._GEMM_MIN_N:
                    assert np.abs(gemm_log_matmul(X, Y) - want).max() <= gemm_bound(X, Y)

    def test_fused_power_step_keeps_bits_below_eight_terms(self):
        # below 8 terms numpy sums a row of _lse_rows in order, as the
        # row-blocked kernel sums over l, so column n of B (x) [B | x] is the
        # separate power step bit for bit: why trajectories at n <= 7 keep
        # their bits now that a round below the GEMM cut-over is one product
        rng = np.random.default_rng(8)
        for n in range(1, 8):
            for _ in range(20):
                B = rng.uniform(-40.0, 5.0, (n, n))
                x = rng.uniform(-40.0, 5.0, n)
                P = perron._log_matmul_blocked(B, np.column_stack([B, x]))
                assert np.array_equal(P[:, n], perron._lse_rows(B + x))

    def test_underflowed_rows_fall_back_to_blocked_kernel(self, monkeypatch):
        # rows 3 and 5 of B sit 900 and 700 below their maximum but for one
        # entry, whose row of C sits 900 (row 3) or, in its first 12 columns,
        # 700 (row 5) below the column maxima: scaled GEMM row 3 is all zeros
        # and row 5 has 12 entries near 1e-303 and 12 above 1e-3
        n = 24
        rng = np.random.default_rng(5)
        B = rng.uniform(-5.0, 0.0, (n, n))
        C = rng.uniform(-5.0, 0.0, (n, n))
        B[3] = -900.0
        B[3, 0] = 0.0
        C[0] = -900.0
        B[5] = -700.0
        B[5, 1] = 0.0
        C[1, :12] = -700.0
        fallback_rows = []
        blocked = perron._log_matmul_blocked

        def recording(X, Y):
            fallback_rows.append(len(X))
            return blocked(X, Y)

        monkeypatch.setattr(perron, "_log_matmul_blocked", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gemm_log_matmul(B, C)
        want = log_matmul_oracle(B, C)
        assert fallback_rows == [2]
        assert np.array_equal(got[[3, 5]], want[[3, 5]])
        rest = np.delete(np.arange(n), [3, 5])
        assert np.abs(got[rest] - want[rest]).max() <= gemm_bound(B, C)

    def test_power_step_underflowed_rows_fall_back_to_lse_rows(self, monkeypatch):
        # the accelerator's power step from the GEMM cut-over is the
        # one-column case of the scaled product.  Rows 3 and 5 of B sit 900
        # and 700 below their maximum but for one entry, whose coordinate of x
        # sits 900 (row 3) or 700 (row 5) below max(x): row 3's scaled sum is
        # 0 and row 5's near 1e-304, so both go to the row-blocked kernel like
        # the square's, and equal those of _lse_rows, the lazy step's kernel,
        # bit for bit
        n = 24
        rng = np.random.default_rng(6)
        B = rng.uniform(-5.0, 0.0, (n, n))
        x = rng.uniform(-5.0, 0.0, n)
        B[3] = -900.0
        B[3, 0] = 0.0
        x[0] = -900.0
        B[5] = -700.0
        B[5, 1] = 0.0
        x[1] = -700.0
        fallback_rows = []
        blocked = perron._log_matmul_blocked

        def recording(X, Y):
            fallback_rows.append(len(X))
            return blocked(X, Y)

        monkeypatch.setattr(perron, "_log_matmul_blocked", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gemm_log_matmul(B, x[:, None])[:, 0]
        assert fallback_rows == [2]
        for i in (3, 5):
            assert np.array_equal(got[[i]], perron._lse_rows(B[[i]] + x))
        want = log_matmul_oracle(B, x[:, None])[:, 0]
        rest = np.delete(np.arange(n), [3, 5])
        assert np.abs(got[rest] - want[rest]).max() <= gemm_bound(B, x[:, None])

    def test_trajectory_bit_identical_under_oracle(self, monkeypatch):
        # bit for bit below the GEMM cut-over (n=3), where each round is one
        # row-blocked product, _log_matmul_into the accelerator's buffers.
        # From the cut-over (n=24, 40, 16) the GEMM branch's scaled products,
        # the one-column power step and the square, sum in another order than
        # trajectory_oracle, whose power step is a separate _lse_rows pass,
        # so the samples must agree in k and iterations and their points and
        # eigenvalues within the solver's own certification tolerance
        rng = np.random.default_rng(11)
        half_grid = -0.5 * np.arange(1, 13)  # -1/2, -1, ..., -6
        products = {"blocked": 0, "gemm": 0}

        def counting(name, f):
            def wrapped(*args):
                products[name] += 1
                return f(*args)

            return wrapped

        def oracle_into(B, C, T, m, out):  # the fused round's kernel, by the oracle
            out[:, 0] = log_matmul_oracle(B[:, :, 0], C)

        for n in (3, 24, 40, 16):
            A = zero_diagonal(n, rng, half_grid)
            ks = geometric_schedule(10)
            if n < perron._GEMM_MIN_N:
                library = normalized_trajectory(A, ks)
                with monkeypatch.context() as m:
                    m.setattr(perron, "_log_matmul_into", counting("blocked", oracle_into))
                    assert normalized_trajectory(A, ks) == library
                continue
            with monkeypatch.context() as m:
                m.setattr(perron, "_log_matmul_scaled", counting("gemm", perron._log_matmul_scaled))
                library = normalized_trajectory(A, ks)
            reference = trajectory_oracle(A, ks)
            assert library.failures == reference.failures == ()
            assert [(s.k, s.iterations) for s in library.samples] == [
                (s.k, s.iterations) for s in reference.samples
            ]
            for s, t in zip(library.samples, reference.samples):
                assert abs(s.log_rho_over_k - t.log_rho_over_k) <= perron._TOL
                assert np.allclose(s.point.coords, t.point.coords, rtol=0, atol=perron._TOL)
        assert products["blocked"] > 0 and products["gemm"] > 0  # the accelerator ran

    def test_temporaries_below_one_cube(self, monkeypatch):
        # the one-tensor product peaks at three n^3 float64 tensors
        n = 96
        cube = n**3 * 8
        A = zero_diagonal(n, np.random.default_rng(3), np.linspace(-6.0, -1.0, 51))
        B = 4.0 * A
        tracemalloc.start()
        try:
            gemm_log_matmul(B, B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cube

        scaled_products = 0  # power steps and squares
        gemm = perron._log_matmul_scaled

        def counting(B, r, E, C):
            nonlocal scaled_products
            scaled_products += 1
            return gemm(B, r, E, C)

        monkeypatch.setattr(perron, "_log_matmul_scaled", counting)
        tracemalloc.start()
        try:
            traj = normalized_trajectory(A, geometric_schedule())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scaled_products > 0 and not traj.failures
        assert peak < cube
