"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from tropasym import (
    TropicalMatrix,
    eigenspace_preserving_perturbations,
    estimate_p_infinity,
    geometric_schedule,
    in_span,
    kleene_star,
    max_cycle_mean,
    minplus_schur,
    normalize_projective,
    normalized_trajectory,
    random_matrix,
    span_distance,
    spectral_data,
    translation_chain,
)
from tropasym.core import MIN_PLUS
from tropasym.figures import figure_report

from _oracles import (
    OracleError,
    cycle_mean_oracle,
    hadamard_lemma_check,
    longest_path_table,
    perron_float_oracle,
    restricted_fw,
    row_coupling_mass,
)

F = Fraction
SCHEDULE = geometric_schedule(12)  # 4 .. 2^14
K_FINAL = 2.0**14

FIG8 = TropicalMatrix.from_rows([[0, -4, -2], [1, 0, -3], [-1, -1, 0]])
FIG9 = TropicalMatrix.from_rows([[0, -9, -2], [1, 0, -3], [-1, -1, 0]])
CEX = TropicalMatrix.from_rows([[0, -3, -4], [-1, 0, -2], [-1, -1, 0]])


def report(num: int, ok: bool, detail: str):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)  # visible with -s
    from conftest import CRITERION_LINES

    CRITERION_LINES.append(line)  # always visible in the run summary
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def batch50():
    """Shared by criteria 1 and 2: 50 seeded matrices with their trajectories."""
    rng = random.Random(1234)
    out = []
    t0 = time.perf_counter()
    for m in range(50):
        n = [3, 4, 5, 6][m % 4]
        A = random_matrix(n, grid_step=F(1, 2), seed=rng)
        lam = float(max_cycle_mean(A))
        traj = normalized_trajectory(A.to_floats(), SCHEDULE)
        est = estimate_p_infinity(traj)
        gens = [g.to_floats() for g in spectral_data(A).generators]
        out.append((A, lam, traj, est, gens))
    elapsed = time.perf_counter() - t0
    return out, elapsed


def test_criterion_1_eigenvalue_sandwich(batch50):
    rows, elapsed = batch50
    ok = True
    worst_gap = 0.0
    for A, lam, traj, est, gens in rows:
        n = A.n
        for s in traj.samples:
            gap = s.log_rho_over_k - lam
            if gap < -1e-11 or gap > math.log(n) / s.k + 1e-11:
                ok = False
        final = {s.k: s for s in traj.samples}.get(K_FINAL)
        if final is None:
            ok = False
            continue
        worst_gap = max(worst_gap, final.log_rho_over_k - lam)
    ok = ok and worst_gap < 1e-3 and elapsed < 60.0
    report(1, ok, f"worst gap at 2^14 = {worst_gap:.2e}, runtime {elapsed:.1f}s")


def test_criterion_2_eigenvector_membership(batch50):
    rows, _ = batch50
    ok = True
    worst = 0.0
    for A, lam, traj, est, gens in rows:
        final = traj.samples[-1]
        dist = span_distance(list(final.point.coords), gens)
        bound = 10.0 * est.error_bound + 1e-3
        worst = max(worst, dist)
        if dist > bound:
            ok = False
    report(2, ok, f"worst membership distance = {worst:.2e}")


def test_criterion_3_figure_reproduction():
    rows = figure_report(SCHEDULE)
    flags = {r["name"]: r["flag"] for r in rows}
    expected_discrepant = {"figure-6", "figure-8", "figure-9", "counterexample"}
    expected_consistent = {"figure-2", "figure-3", "figure-4", "figure-7"}
    ok = {n for n, f in flags.items() if f == "DISCREPANT"} == expected_discrepant
    ok = ok and {n for n, f in flags.items() if f == "CONSISTENT"} == expected_consistent
    worst = 0.0
    for r in rows:
        if r["name"] in expected_consistent:
            worst = max(worst, r["caption_distance"])
            if r["caption_distance"] > 1e-2:
                ok = False
    report(3, ok, f"consistent-caption worst error = {worst:.2e}, flags as expected: {ok}")


def test_criterion_4_conjecture_one():
    rng = random.Random(42)
    found = 0
    tried = 0
    worst = 0.0
    ok = True
    while found < 100 and tried < 30000:
        tried += 1
        A = random_matrix(3, grid_step=1, seed=rng)
        sd = spectral_data(A)
        if len(sd.generators) < 2:
            continue
        chain = translation_chain(sd.generators)
        if chain is None:
            continue
        found += 1
        traj = normalized_trajectory(A.to_floats(), SCHEDULE)
        est = estimate_p_infinity(traj)
        pred = [float(x) for x in chain.predicted.coords]
        err = max(abs(a - b) for a, b in zip(pred, est.point.coords))
        worst = max(worst, err)
        if err > 1e-2:
            ok = False
    ok = ok and found == 100
    report(4, ok, f"{found} chain matrices, worst prediction error = {worst:.2e}")


def test_criterion_5_conjecture_two():
    rng = random.Random(7)
    families = []
    while len(families) < 20:
        A = random_matrix(3, grid_step=1, seed=rng)
        perts = eigenspace_preserving_perturbations(A, count=5, seed=rng.randrange(2**32))
        if len(perts) == 5:
            families.append([A, *perts])
    families.append([FIG8, FIG9])
    ok = True
    worst = 0.0
    for fam in families:
        pts = []
        for M in fam:
            traj = normalized_trajectory(M.to_floats(), SCHEDULE)
            pts.append(np.array(estimate_p_infinity(traj).point.coords))
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = float(np.abs(pts[i] - pts[j]).max())
                worst = max(worst, d)
                if d > 1e-2:
                    ok = False
    report(5, ok, f"21 families (incl. known pair), worst pairwise = {worst:.2e}")


def test_criterion_6_hadamard_scaling():
    rng = random.Random(99)
    ok = True
    for m in range(100):
        n = [3, 4][m % 2]
        A = random_matrix(n, grid_step=F(1, 2), seed=rng)
        for k in (2, 3, 5):
            if not hadamard_lemma_check(A, k):
                ok = False
    report(6, ok, "lambda and generators scale exactly for k in {2,3,5} on 100 matrices")


def test_criterion_7_oracle_equivalence():
    rng = random.Random(1001)
    ok = True
    for m in range(200):
        n = 2 + m % 5  # up to 6
        A = random_matrix(n, grid_step=F(1, 2), seed=rng)
        if max_cycle_mean(A) != cycle_mean_oracle(A):
            ok = False
    for m in range(100):
        n = 2 + m % 4
        A = random_matrix(n, grid_step=F(1, 2), seed=rng)
        Abar = A.shift(-max_cycle_mean(A))
        S = kleene_star(Abar)
        table = longest_path_table(Abar)
        if any(
            S.entries[i][j] != table[i][j] for i in range(n) for j in range(n)
        ):
            ok = False
    for m in range(100):
        n = 3 + m % 3
        rows = [
            [0 if i == j else F(rng.randint(0, 12), 2) for j in range(n)]
            for i in range(n)
        ]
        B = TropicalMatrix.from_rows(rows, MIN_PLUS)
        C = {i for i in range(n) if rng.random() < 0.4}
        C.discard(0)
        res = minplus_schur(B, C)
        full = restricted_fw(B, C)
        survivors = [i for i in range(n) if i not in C]
        if any(
            res.entries[a][b] != full[i][j]
            for a, i in enumerate(survivors)
            for b, j in enumerate(survivors)
        ):
            ok = False
    report(7, ok, "Karp=enumeration x200, star=path-DP x100, Schur=restricted-FW x100, all exact")


def test_criterion_8_precision_regimes():
    rng = random.Random(77)
    ok = True
    comparisons = 0
    matrices_compared = 0
    worst = 0.0
    for m in range(20):
        n = [3, 4][m % 2]
        A = random_matrix(n, grid_step=F(1, 2), seed=rng)
        Af = A.to_floats()
        traj = normalized_trajectory(Af, SCHEDULE)
        by_k = {s.k: s for s in traj.samples}
        got = 0
        for k in (4.0, 8.0, 16.0):
            sample = by_k.get(k)
            if sample is None:
                continue
            try:
                rho, x = perron_float_oracle(Af, k)
            except OracleError:
                continue
            # only compare where the structure is comfortably representable
            if row_coupling_mass(Af, k, np.log(x) - np.log(x[0])) < 1e-6:
                continue
            logx = np.log(x) - np.log(x[0])
            d = max(
                abs(sample.log_rho_over_k * k - math.log(rho)),
                float(np.abs(logx - np.array(sample.point.coords) * k).max()),
            )
            worst = max(worst, d)
            if d > 1e-8:
                ok = False
            got += 1
        comparisons += got
        matrices_compared += got >= 1
        # the cliff: at 2^14 the oracle must fail while the log engine delivers
        try:
            perron_float_oracle(Af, K_FINAL)
            ok = False
        except OracleError:
            pass
        final = by_k.get(K_FINAL)
        if final is None or not all(math.isfinite(c) for c in final.point.coords):
            ok = False
        lams = [s.log_rho_over_k for s in traj.samples]
        if not all(b <= a + 1e-12 for a, b in zip(lams, lams[1:])):
            ok = False
    ok = ok and comparisons >= 20 and matrices_compared == 20
    report(
        8,
        ok,
        f"{comparisons} oracle comparisons over 20 matrices, worst = {worst:.2e}; "
        f"oracle fails at 2^14 while the log engine stays finite and monotone",
    )


def test_criterion_9_counterexample():
    gens = spectral_data(CEX).generators
    point = normalize_projective([0, 0, -1])
    member = in_span(point, gens)
    traj = normalized_trajectory(CEX.to_floats(), SCHEDULE)
    est = estimate_p_infinity(traj)
    dist = max(abs(a - b) for a, b in zip([0.0, 0.0, -1.0], est.point.coords))
    ok = member and dist > 0.1
    report(9, ok, f"(0,0,-1) in eigenspace: {member}; distance to measured limit = {dist:.3f}")
