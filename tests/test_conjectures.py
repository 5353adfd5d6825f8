import json
import math
import random
import warnings
from fractions import Fraction

import pytest

from tropasym import (
    EstimateError,
    PinfEstimate,
    TropicalMatrix,
    conjecture1_test,
    conjecture2_test,
    eigenspace_equal,
    eigenspace_preserving_perturbations,
    estimate_p_infinity,
    export_samples,
    float_point,
    geometric_schedule,
    max_cycle_mean,
    normalize_projective,
    normalized_trajectory,
    random_matrix,
    spectral_data,
    translation_chain,
)
from tropasym import conjectures

from _oracles import (
    perturbation_candidates_oracle,
    perturbations_oracle,
    random_matrix_rows,
    translation_chain_oracle,
)

F = Fraction

FIG3 = TropicalMatrix.from_rows([[0, -6, -5], [-1, 0, -1], [-1, -2, 0]])
FIG4 = TropicalMatrix.from_rows([[0, -1, -1], [-4, 0, -1], [-1, -1, -4]])
FIG7 = TropicalMatrix.from_rows([[0, 1, 3], [-5, 0, 1], [-6, -1, 0]])
FIG8 = TropicalMatrix.from_rows([[0, -4, -2], [1, 0, -3], [-1, -1, 0]])
FIG9 = TropicalMatrix.from_rows([[0, -9, -2], [1, 0, -3], [-1, -1, 0]])

SCHEDULE = geometric_schedule()


def pp(*vals):
    return normalize_projective(vals)


def numerators(M):
    return M.den, M.nums


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

    def test_unequal_dimensions_are_rejected(self):
        # as in_span and span_distance: a shorter tail must not be cut to fit
        for gens in ([pp(0, 1), pp(0, 2, 5)], [pp(0, 2, 5), pp(0, 1)]):
            with pytest.raises(ValueError, match="generator dimension mismatch"):
                translation_chain(gens)

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

    def test_matches_fraction_oracle(self):
        # mixed denominators; half the sets are chains by construction
        rng = random.Random(23)
        chains = 0
        for _ in range(300):
            dim = rng.randint(1, 4)
            d = rng.choice((1, 2, 3, 4, 6))
            base = [F(rng.randint(-6 * d, 6 * d), d) for _ in range(dim)]
            gens = []
            for _ in range(rng.randint(1, 4)):
                e = rng.choice((1, 2, 3, 4, 6))
                if rng.random() < 0.5:
                    a = F(rng.randint(-4 * e, 4 * e), e)
                    coords = [base[0], *(x + a for x in base[1:])]
                else:
                    coords = [F(rng.randint(-6 * e, 6 * e), e) for _ in range(dim)]
                gens.append(normalize_projective(coords))
            got = translation_chain(gens)
            assert got == translation_chain_oracle(gens)
            chains += got is not None and len(gens) > 1
        assert chains > 30


class TestConjecture1:
    def test_figure7_holds(self):
        v = conjecture1_test(FIG7, tol=1e-2, schedule=SCHEDULE)
        assert v.holds
        assert len(v.estimates) == 1
        assert list(v.estimates[0].point.coords) == v.witness["pinf"]

    def test_single_class_holds(self):
        A = TropicalMatrix.from_rows([[0, -3, -2], [1, 0, -1], [2, 1, 0]])
        assert len(spectral_data(A).generators) == 1
        assert conjecture1_test(A, tol=1e-2, schedule=SCHEDULE).holds

    def test_non_chain_rejected(self):
        with pytest.raises(ValueError):
            conjecture1_test(FIG4, tol=1e-2, schedule=SCHEDULE)

    def test_estimate_off_the_eigenspace_is_raised(self, monkeypatch):
        # the safety net: a measured limit far from every generator means the
        # numerics went wrong, which no verdict may fold in
        def off(traj):
            est = estimate_p_infinity(traj)
            return PinfEstimate(float_point([0.0, 50.0, -50.0]), 0.0, est.k_max_used)

        monkeypatch.setattr(conjectures, "estimate_p_infinity", off)
        with pytest.raises(EstimateError, match="off the eigenspace"):
            conjecture1_test(FIG7, tol=1e-2, schedule=SCHEDULE)

    def test_reproducible(self):
        v1 = conjecture1_test(FIG7, tol=1e-2, schedule=SCHEDULE)
        v2 = conjecture1_test(FIG7, tol=1e-2, schedule=SCHEDULE)
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
        perts = eigenspace_preserving_perturbations(FIG8, count=3, seed=17)
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
            perts = eigenspace_preserving_perturbations(A, count=3, seed=rng.randrange(2**32))
            assert len(set(perts)) == len(perts)

    def test_count_must_be_positive(self):
        # and an int: True is no count of 1, and 2.5 no count at all
        for count in (0, -1, True, 2.5, "3", None):
            with pytest.raises(ValueError, match="count"):
                eigenspace_preserving_perturbations(FIG8, count=count, seed=5)

    def test_deterministic_given_seed(self):
        a = eigenspace_preserving_perturbations(FIG8, count=3, seed=5)
        b = eigenspace_preserving_perturbations(FIG8, count=3, seed=5)
        assert a == b

    def test_budget_exhaustion_returns_a_short_list(self, monkeypatch):
        monkeypatch.setattr(conjectures, "_ATTEMPTS_PER_MEMBER", 1)
        # the length is the signal: callers reject short families as control flow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eigenspace_preserving_perturbations(FIG8, count=3, seed=1)
        assert len(got) < 3

    def test_stops_once_every_candidate_was_tried(self):
        # 3 nodes: 6 off-diagonal entries x 8 nonzero deltas give 48
        # candidates, so more than 48 candidates drawn means draws after the
        # last candidate, and so does a random state that moved after the
        # last one.  The budget, the sampler's for 3 members, is far past
        # what drawing all 48 takes
        drawn, states = [], []
        rng = random.Random(1)
        for move in conjectures._perturbation_draws(3, rng, 400 * 3):
            drawn.append(move)
            states.append(rng.getstate())
        states.append(rng.getstate())
        assert 0 < len(drawn) <= 48
        assert len(set(drawn)) == 48  # each candidate once
        assert states[-1] == states[-2]

    def test_stops_once_every_passing_candidate_was_accepted(self, monkeypatch):
        # FIG3 has no eigenspace-preserving perturbation of magnitude 2, so
        # nothing is drawn.  FIG7 has 14 of its 48 candidates passing, so a
        # family of 20 takes all 14, and the draws stop at the one that
        # completes it: at seed 0 the 43rd candidate in draw order
        drawn = []
        draws = conjectures._perturbation_draws

        def counting(n, rng, budget):
            for move in draws(n, rng, budget):
                drawn.append(move)
                yield move

        monkeypatch.setattr(conjectures, "_perturbation_draws", counting)
        assert eigenspace_preserving_perturbations(FIG3, count=3, seed=1) == []
        assert drawn == []
        got = eigenspace_preserving_perturbations(FIG7, count=20, seed=0)
        assert got == perturbations_oracle(FIG7, 20, 0)
        order = list(perturbation_candidates_oracle(FIG7, 0))
        assert len(order) == 48 and len(got) == 14
        assert len(drawn) == max(map(order.index, got)) + 1 == 43

    @pytest.mark.parametrize("A", [FIG8, FIG3, random_matrix(3, grid_step="1/3", seed=4)])
    def test_candidates_equal_the_rational_construction(self, A, monkeypatch):
        # each candidate is one changed integer numerator over lcm(den, 2); the
        # 1/3-grid matrix goes from denominator 3 to 6.  The screen gets A and
        # every candidate, which the oracle draws in full
        den = math.lcm(A.den, 2)
        stacks = []
        screen = conjectures._batch_same_eigenspace

        def recording(W):
            stacks.append(W)
            return screen(W)

        monkeypatch.setattr(conjectures, "_batch_same_eigenspace", recording)
        for seed in range(5):
            stacks.clear()
            eigenspace_preserving_perturbations(A, count=3, seed=seed)
            [W] = stacks
            base, *built = (TropicalMatrix(tuple(map(tuple, M)), den) for M in W.tolist())
            want = list(perturbation_candidates_oracle(A, seed))
            assert base == A
            assert built and sorted(built, key=numerators) == sorted(want, key=numerators)

    def test_members_equal_the_one_at_a_time_oracle(self):
        rng = random.Random(23)
        members = 0
        for trial in range(60):
            n = 2 + trial % 3
            A = random_matrix(n, grid_step=("1", "1/2", "1/3")[trial % 3], seed=rng)
            for count in (1, 3):
                seed = rng.randrange(2**32)
                got = eigenspace_preserving_perturbations(A, count=count, seed=seed)
                assert got == perturbations_oracle(A, count, seed), (A, count, seed)
                members += len(got)
        assert members > 0

    def test_one_node_has_no_candidates(self, monkeypatch):
        def no_screen(W):
            raise AssertionError("a 1 x 1 matrix has no candidate to screen")

        monkeypatch.setattr(conjectures, "_batch_same_eigenspace", no_screen)
        assert eigenspace_preserving_perturbations(TropicalMatrix(((3,),), 2), 3, seed=0) == []

    def test_eigenspace_equality_is_transitive_on_chains(self):
        # A ~ B and B ~ C constructed by successive accepted perturbations
        rng = random.Random(31)
        done = 0
        while done < 3:
            A = random_matrix(3, seed=rng)
            bs = eigenspace_preserving_perturbations(A, count=1, seed=rng.randrange(2**31))
            if not bs:
                continue
            cs = eigenspace_preserving_perturbations(bs[0], count=1, seed=rng.randrange(2**31))
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

    def test_empty_family_is_rejected(self):
        # a family of A alone compares nothing, so it has no verdict
        with pytest.raises(ValueError, match="perturbed"):
            conjecture2_test(FIG8, [], tol=1e-2, schedule=SCHEDULE)

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
            perts = eigenspace_preserving_perturbations(A, count=2, seed=rng.randrange(2**31))
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

    def test_grid_validation(self):
        for grid_step, entry_range in (
            (0, (-6, 2)), ("-1/2", (-6, 2)), (1, (2, -6)), (1, (1, 1)),
        ):
            with pytest.raises(ValueError, match="bad grid or range"):
                random_matrix(3, grid_step=grid_step, entry_range=entry_range, seed=0)

    def test_deterministic(self):
        assert random_matrix(3, seed=11) == random_matrix(3, seed=11)

    @pytest.mark.parametrize(
        "grid_step, entry_range",
        [
            (1, (-6, 2)),
            (F(1, 2), (-6, 2)),
            (F(1, 3), (-6, 2)),
            (F(1, 2), (F(-5, 3), F(7, 4))),
            # numerators past int64: the draws go through Python ints
            (1, (-2**70, 2**70)),
            (F(1, 3), (-2**62, 5)),
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
            traj = normalized_trajectory(M.to_floats(), geometric_schedule(8))
            est = estimate_p_infinity(traj)
            batch.append((M, sd, est, 42))
        export_samples(batch, path)
        back = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(back) == 2
        for (m0, s0, e0, seed0), row in zip(batch, back):
            assert TropicalMatrix.from_rows(row["matrix"]) == m0
            gens = tuple(
                normalize_projective(g) for g in row["generators"]
            )
            assert gens == s0.generators
            assert tuple(row["pinf"]) == e0.point.coords
            assert row["error_bound"] == e0.error_bound
            assert row["seed"] == seed0

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
