import json
import random
import warnings
from fractions import Fraction

import pytest

from tropasym import (
    ProjectivePoint,
    TropicalMatrix,
    conjecture1_test,
    conjecture1_tests,
    conjecture2_test,
    eigenspace_equal,
    eigenspace_preserving_perturbations,
    estimate_p_infinity,
    export_samples,
    geometric_schedule,
    max_cycle_mean,
    normalize_projective,
    normalized_trajectory,
    random_matrix,
    read_samples,
    spectral_data,
    translation_chain,
)

from _oracles import random_matrix_rows

F = Fraction

FIG4 = TropicalMatrix.from_rows([[0, -1, -1], [-4, 0, -1], [-1, -1, -4]])
FIG7 = TropicalMatrix.from_rows([[0, 1, 3], [-5, 0, 1], [-6, -1, 0]])
FIG8 = TropicalMatrix.from_rows([[0, -4, -2], [1, 0, -3], [-1, -1, 0]])
FIG9 = TropicalMatrix.from_rows([[0, -9, -2], [1, 0, -3], [-1, -1, 0]])

SCHEDULE = geometric_schedule()


def pp(*vals):
    return ProjectivePoint(tuple(F(v) for v in vals))


class TestTranslationChain:
    def test_figure7_generators(self):
        chain = translation_chain([pp(0, -5, -6), pp(0, -2, -3)])
        assert chain is not None
        assert chain.base == pp(0, -5, -6)
        assert chain.beta == 3
        assert chain.predicted == pp(0, -2, -3)

    def test_single_generator(self):
        g = pp(0, 4, -1)
        chain = translation_chain([g])
        assert chain.beta == 0
        assert chain.predicted == g

    def test_not_a_chain(self):
        assert translation_chain([pp(0, -2, -1), pp(0, 1, 0)]) is None

    def test_permutation_invariance(self):
        gens = [pp(0, -5, -6), pp(0, -2, -3), pp(0, -4, -5)]
        for perm in ([2, 0, 1], [1, 2, 0]):
            chain = translation_chain([gens[i] for i in perm])
            assert chain == translation_chain(gens)

    def test_invariant_under_common_shift_before_normalization(self):
        raw = [[0, -5, -6], [0, -2, -3]]
        gens_a = [normalize_projective([F(x) for x in v]) for v in raw]
        gens_b = [normalize_projective([F(x) + F(7, 3) for x in v]) for v in raw]
        assert translation_chain(gens_a) == translation_chain(gens_b)


class TestConjecture1:
    def test_figure7_holds(self):
        v = conjecture1_test(FIG7, tol=1e-2, schedule=SCHEDULE)
        assert v.holds
        assert v.tolerance_used == 1e-2
        assert len(v.estimates) == 1
        assert list(v.estimates[0].point.coords) == v.witness["pinf"]

    def test_single_class_holds(self):
        A = TropicalMatrix.from_rows([[0, -3, -2], [1, 0, -1], [2, 1, 0]])
        assert len(spectral_data(A).generators) == 1
        assert conjecture1_test(A, tol=1e-2, schedule=SCHEDULE).holds

    def test_non_chain_rejected(self):
        with pytest.raises(ValueError):
            conjecture1_test(FIG4, tol=1e-2, schedule=SCHEDULE)

    def test_batch_equals_single(self):
        single = TropicalMatrix.from_rows([[0, -3, -2], [1, 0, -1], [2, 1, 0]])
        chains = [FIG7, single]
        rng = random.Random(5)
        while len(chains) < 6:
            A = random_matrix(3, seed=rng)
            if translation_chain(spectral_data(A).generators) is not None:
                chains.append(A)
        verdicts = conjecture1_tests(chains, tol=1e-2, schedule=SCHEDULE, seed=3)
        assert verdicts == [
            conjecture1_test(A, tol=1e-2, schedule=SCHEDULE, seed=3) for A in chains
        ]
        assert conjecture1_tests([], tol=1e-2, schedule=SCHEDULE) == []
        with pytest.raises(ValueError, match="translation chain"):
            conjecture1_tests([FIG7, FIG4], tol=1e-2, schedule=SCHEDULE)

    def test_reproducible(self):
        v1 = conjecture1_test(FIG7, tol=1e-2, schedule=SCHEDULE, seed=9)
        v2 = conjecture1_test(FIG7, tol=1e-2, schedule=SCHEDULE, seed=9)
        assert v1 == v2


class TestPerturbations:
    def test_figure_8_to_9_is_acceptable(self):
        # the known pair differs in one entry and shares the eigenspace
        assert FIG9.entries[0][1] == F(-9)
        assert max_cycle_mean(FIG8) == max_cycle_mean(FIG9)
        assert eigenspace_equal(FIG8, FIG9)

    def test_raising_a_diagonal_zero_changes_lambda(self):
        rows = [list(r) for r in FIG8.entries]
        rows[1][1] = F(1, 2)
        B = TropicalMatrix.from_rows(rows)
        assert max_cycle_mean(B) != max_cycle_mean(FIG8)

    def test_accepted_perturbations_preserve_spectral_data(self):
        perts = eigenspace_preserving_perturbations(FIG8, count=3, magnitude=2, seed=17)
        assert perts
        sd = spectral_data(FIG8)
        for B in perts:
            sdb = spectral_data(B)
            assert sdb.lam == sd.lam
            assert set(sdb.generators) == set(sd.generators)
            diff = [
                (i, j)
                for i in range(3)
                for j in range(3)
                if B.entries[i][j] != FIG8.entries[i][j]
            ]
            assert len(diff) == 1  # single-entry perturbations only

    def test_members_pairwise_distinct(self):
        rng = random.Random(42)
        for _ in range(20):
            A = random_matrix(3, seed=rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a short family is fine here
                perts = eigenspace_preserving_perturbations(
                    A, count=3, magnitude=2, seed=rng.randrange(2**32)
                )
            assert len(set(perts)) == len(perts)

    def test_deterministic_given_seed(self):
        a = eigenspace_preserving_perturbations(FIG8, count=3, magnitude=2, seed=5)
        b = eigenspace_preserving_perturbations(FIG8, count=3, magnitude=2, seed=5)
        assert a == b

    def test_budget_exhaustion_warns(self):
        with pytest.warns(UserWarning):
            got = eigenspace_preserving_perturbations(
                FIG8, count=50, magnitude=2, seed=1, max_attempts=5
            )
        assert len(got) < 50

    def test_eigenspace_equality_is_transitive_on_chains(self):
        # A ~ B and B ~ C constructed by successive accepted perturbations
        rng = random.Random(31)
        done = 0
        while done < 3:
            A = random_matrix(3, seed=rng)
            bs = eigenspace_preserving_perturbations(A, count=1, magnitude=2, seed=rng.randrange(2**31))
            if not bs:
                continue
            cs = eigenspace_preserving_perturbations(bs[0], count=1, magnitude=2, seed=rng.randrange(2**31))
            if not cs:
                continue
            done += 1
            assert eigenspace_equal(A, cs[0])


class TestConjecture2:
    def test_figure_pair_holds(self):
        v = conjecture2_test(FIG8, [FIG9], tol=1e-2, schedule=SCHEDULE)
        assert v.holds
        assert v.witness["max_pairwise_distance"] <= 1e-2
        # one estimate per family member, A first, matching the witness
        assert [list(e.point.coords) for e in v.estimates] == v.witness["pinf_points"]
        assert v.estimates[0] == estimate_p_infinity(
            normalized_trajectory(FIG8.to_floats(), SCHEDULE)
        )

    def test_self_family_trivially_holds(self):
        v = conjecture2_test(FIG7, [FIG7], tol=1e-12, schedule=SCHEDULE)
        assert v.holds

    def test_precondition_rejected(self):
        bigger = TropicalMatrix.from_rows(
            [[0, 1, 3, -1], [-5, 0, 1, -2], [-6, -1, 0, -1], [-1, -1, -1, 0]]
        )
        for other in (FIG4, bigger):
            with pytest.raises(ValueError):
                conjecture2_test(FIG7, [other], tol=1e-2, schedule=SCHEDULE)

    def test_small_random_campaign(self):
        rng = random.Random(2024)
        done = 0
        while done < 3:
            A = random_matrix(3, seed=rng)
            perts = eigenspace_preserving_perturbations(
                A, count=2, magnitude=2, seed=rng.randrange(2**31)
            )
            if len(perts) < 2:
                continue
            done += 1
            assert conjecture2_test(A, perts, tol=1e-2, schedule=SCHEDULE).holds


class TestRandomMatrix:
    def test_zero_diagonal_and_grid(self):
        A = random_matrix(4, grid_step=F(1, 2), seed=3)
        for i in range(4):
            assert A.entries[i][i] == 0
            for j in range(4):
                if i != j:
                    e = A.entries[i][j]
                    assert F(-6) <= e <= F(2)
                    assert (e * 2).denominator == 1

    def test_figure2_matrix_is_reachable(self):
        # every entry of the figure-2 matrix lies on the grid the generator draws from
        fig2 = TropicalMatrix.from_rows(
            [[0, "-2.5", "-0.5"], [-1, 0, "-1.5"], [-1, -1, 0]]
        )
        for row in fig2.entries:
            for e in row:
                assert F(-6) <= e <= F(2) and (e * 2).denominator == 1

    def test_n_validation(self):
        with pytest.raises(ValueError):
            random_matrix(1, seed=0)

    def test_deterministic(self):
        assert random_matrix(3, seed=11) == random_matrix(3, seed=11)

    @pytest.mark.parametrize(
        "grid_step, entry_range",
        [
            (1, (-6, 2)),
            (F(1, 2), (-6, 2)),
            (F(1, 3), (-6, 2)),
            (F(1, 2), (F(-5, 3), F(7, 4))),
        ],
    )
    def test_matches_fraction_rows(self, grid_step, entry_range):
        for seed in range(200):
            n = 2 + seed % 4
            A = random_matrix(n, grid_step=grid_step, entry_range=entry_range, seed=seed)
            assert A == random_matrix_rows(n, grid_step, entry_range, seed)

    def test_multiclass_frequency_at_unit_grid(self):
        rng = random.Random(20240810)
        multi = 0
        total = 1000
        for _ in range(total):
            A = random_matrix(3, grid_step=1, seed=rng)
            if len(spectral_data(A).classes) >= 2:
                multi += 1
        assert multi / total >= 0.30


class TestDataset:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        batch = []
        for M in (FIG7, FIG8):
            sd = spectral_data(M)
            traj = normalized_trajectory(M.to_floats(), geometric_schedule(4.0, 8))
            est = estimate_p_infinity(traj)
            batch.append((M, sd, est, 42))
        export_samples(batch, path)
        back = read_samples(path)
        assert len(back) == 2
        for (m0, s0, e0, seed0), (m1, g1, e1, seed1) in zip(batch, back):
            assert m1 == m0
            assert tuple(g1) == s0.generators
            assert e1.point == e0.point
            assert e1.error_bound == e0.error_bound
            assert seed1 == seed0

    def test_figure7_row_content(self, tmp_path):
        path = tmp_path / "one.jsonl"
        sd = spectral_data(FIG7)
        traj = normalized_trajectory(FIG7.to_floats(), geometric_schedule())
        est = estimate_p_infinity(traj)
        export_samples([(FIG7, sd, est, None)], path)
        row = json.loads(path.read_text().splitlines()[0])
        assert row["generators"] == [["0", "-5", "-6"], ["0", "-2", "-3"]]
        assert max(abs(a - b) for a, b in zip(row["pinf"], [0, -2.0, -3.0])) < 1e-2

    def test_empty_batch(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        export_samples([], path)
        assert path.read_text() == ""
        assert read_samples(path) == []
