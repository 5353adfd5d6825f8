import json
import random
from fractions import Fraction

import pytest

from tropasym import (
    MIN_PLUS,
    Candidate,
    PinfEstimate,
    StarDivergenceError,
    TropicalMatrix,
    candidate_exponents,
    compare_prediction,
    estimate_p_infinity,
    float_point,
    geometric_schedule,
    in_span,
    minplus_schur,
    normalize_projective,
    normalized_trajectory,
    random_matrix,
    schur_sequence,
    spectral_data,
)
from tropasym.schur import SchurReport, report_to_json

from _oracles import restricted_fw

F = Fraction
CEX = TropicalMatrix.from_rows([[0, -3, -4], [-1, 0, -2], [-1, -1, 0]])


def pp(*vals):
    return normalize_projective(vals)


def minplus(rows):
    return TropicalMatrix.from_rows(rows, MIN_PLUS)


def random_minplus_nonneg(n, rng):
    # nonnegative entries, zero diagonal: every Schur star converges
    rows = [
        [0 if i == j else F(rng.randint(0, 12), 2) for j in range(n)]
        for i in range(n)
    ]
    return minplus(rows)


class TestMinplusSchur:
    def test_empty_set_is_identity(self):
        A = random_minplus_nonneg(4, random.Random(1))
        assert minplus_schur(A, set()) == A

    def test_single_node_example(self):
        A = minplus([[0, 1, 2], [3, 0, 4], [5, 6, 0]])
        assert minplus_schur(A, {0}) == minplus([[0, 4], [6, 0]])

    def test_full_set_rejected(self):
        A = minplus([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            minplus_schur(A, {0, 1})

    def test_max_plus_rejected(self):
        A = TropicalMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            minplus_schur(A, {0})

    def test_invalid_nodes_rejected(self):
        A = minplus([[0, 1], [1, 0]])
        # 0.0, 1.0 and True hash equal to valid indices but are no node labels
        for C in ({2}, {-1}, {0, 5}, {0.0}, {1.0, 0}, {True}):
            with pytest.raises(ValueError, match="invalid node"):
                minplus_schur(A, C)

    def test_negative_cycle_in_block_rejected(self):
        # the witness cycle lies in C, numbered by position in sorted(C)
        for rows, C in (
            ([[-1, 5, 5], [5, 0, 5], [5, 5, 0]], {0}),
            ([[0, 5, 5], [5, 0, -3], [5, -3, 0]], {1, 2}),
        ):
            with pytest.raises(StarDivergenceError) as exc:
                minplus_schur(minplus(rows), C)
            assert exc.value.cycle and set(exc.value.cycle) <= set(range(len(C)))
        # a negative cycle that avoids C is no divergence: its nodes survive
        A = minplus([[0, 5, 5], [5, 0, -3], [5, -3, 0]])
        assert minplus_schur(A, {0}) == minplus([[0, -3], [-3, 0]])

    def test_restricted_shortest_path_oracle(self):
        rng = random.Random(2)
        for _ in range(15):
            A = random_minplus_nonneg(5, rng)
            C = {i for i in range(5) if rng.random() < 0.4}
            if len(C) == 5:
                C.discard(0)
            res = minplus_schur(A, C)
            full = restricted_fw(A, C)
            survivors = [i for i in range(5) if i not in C]
            for a, i in enumerate(survivors):
                for b, j in enumerate(survivors):
                    assert res.entries[a][b] == full[i][j]

    def test_idempotence_on_separated_sets(self):
        rng = random.Random(3)
        for _ in range(10):
            A = random_minplus_nonneg(5, rng)
            C1, C2 = {1}, {3}
            joint = minplus_schur(A, C1 | C2)
            step1 = minplus_schur(A, C1)
            # node 3 sits at position 2 of the survivors [0, 2, 3, 4]
            step2 = minplus_schur(step1, {2})
            assert joint == step2


class TestSchurSequence:
    def test_counterexample_single_level(self):
        levels = schur_sequence(CEX.negate())
        assert len(levels) == 1
        assert levels[0].eigenvalue == 0
        assert levels[0].removed_classes == ((0,), (1,), (2,))

    def test_two_level_example(self):
        levels = schur_sequence(minplus([[0, 5], [5, 1]]))
        assert len(levels) == 2
        assert levels[0].eigenvalue == 0
        assert levels[0].removed_classes == ((0,),)
        assert levels[1].eigenvalue == 1
        assert levels[1].node_map == (1,)
        assert levels[1].matrix.entries == ((F(1),),)

    def test_scalar(self):
        levels = schur_sequence(minplus([[F(4, 3)]]))
        assert len(levels) == 1
        assert levels[0].eigenvalue == F(4, 3)

    def test_termination_and_coverage(self):
        rng = random.Random(4)
        for _ in range(15):
            B = random_minplus_nonneg(5, rng)
            levels = schur_sequence(B)
            assert len(levels) <= 5
            removed = {n for lv in levels for c in lv.removed_classes for n in c}
            assert removed == set(range(5))
            sizes = [lv.matrix.n for lv in levels]
            assert all(b < a for a, b in zip(sizes, sizes[1:]))


class TestCandidates:
    def test_counterexample_candidates_are_the_generators(self):
        report = candidate_exponents(CEX.negate())
        tps = {c.tp_point for c in report.candidates}
        assert tps == {pp(0, -1, -1), pp(0, 3, 2), pp(0, 2, 4)}

    def test_scalar(self):
        report = candidate_exponents(minplus([[F(2)]]))
        assert len(report.candidates) == 1
        assert report.candidates[0].tp_point == normalize_projective([0])

    def test_two_level_normalization(self):
        report = candidate_exponents(minplus([[0, 5], [5, 1]]))
        assert report.b_hat == minplus([[0, 5], [4, 0]])
        assert {c.tp_point for c in report.candidates} == {pp(0, -4), pp(0, 5)}

    def test_out_of_span_candidates_reported_not_errors(self):
        B = minplus([[0, 5], [5, 1]])
        A = B.negate()
        gens = spectral_data(A).generators
        report = candidate_exponents(B)
        flags = [in_span(c.tp_point, gens) for c in report.candidates]
        assert not all(flags)  # some candidates legitimately fall outside

    def test_candidates_on_random_zero_eigenvalue_matrices(self):
        rng = random.Random(6)
        done = 0
        while done < 8:
            A = random_matrix(3, seed=rng)
            if spectral_data(A).lam != 0:
                continue  # positive cycles make the normalized star diverge
            done += 1
            report = candidate_exponents(A.negate())
            gens = spectral_data(A).generators
            # candidates may or may not be members; the call itself must not fail
            assert all(isinstance(in_span(c.tp_point, gens), bool) for c in report.candidates)

    def test_divergence_failure_names_a_cycle(self):
        rng = random.Random(8)
        while True:
            A = random_matrix(3, seed=rng)
            if spectral_data(A).lam == 0:
                continue
            try:
                candidate_exponents(A.negate())
            except StarDivergenceError as exc:
                assert "cycle" in str(exc)
                assert len(exc.cycle) >= 1
                return
            # some positive-eigenvalue draws still converge; keep sampling


@pytest.fixture(scope="module")
def cex_estimate():
    traj = normalized_trajectory(CEX.to_floats(), geometric_schedule())
    return estimate_p_infinity(traj)


class TestComparePrediction:

    def test_paper_candidate_membership_without_match(self, cex_estimate):
        cand = Candidate(v=(F(0), F(0), F(1)), tp_point=pp(0, 0, -1))
        report = SchurReport(levels=(), b_hat=CEX.negate(), candidates=(cand,))
        verdicts = compare_prediction(CEX, report, cex_estimate, tol=1e-2)
        assert verdicts[0].in_eigenspace is True
        assert verdicts[0].matches_pinf is False

    def test_candidate_equal_to_estimate(self, cex_estimate):
        coords = tuple(F(repr(round(x, 6))) for x in cex_estimate.point.coords)
        cand = Candidate(v=tuple(-x for x in coords), tp_point=normalize_projective(coords))
        report = SchurReport(levels=(), b_hat=CEX.negate(), candidates=(cand,))
        v = compare_prediction(CEX, report, cex_estimate, tol=1e-2)[0]
        assert v.matches_pinf is True

    def test_single_class_pipeline_hits_the_limit(self):
        A = TropicalMatrix.from_rows([[0, -3, -2], [1, 0, -1], [2, 1, 0]])
        sd = spectral_data(A)
        assert len(sd.generators) == 1
        report = candidate_exponents(A.negate())
        traj = normalized_trajectory(A.to_floats(), geometric_schedule())
        est = estimate_p_infinity(traj)
        verdicts = compare_prediction(A, report, est, tol=1e-2)
        hits = [v for v in verdicts if v.in_eigenspace and v.matches_pinf]
        assert len(hits) >= 1
        assert hits[0].candidate.tp_point == sd.generators[0]


    def test_dimension_mismatch_rejected(self, cex_estimate):
        report = candidate_exponents(CEX.negate())
        A2 = TropicalMatrix.from_rows([[0, -1], [-1, 0]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            compare_prediction(A2, report, cex_estimate, tol=1e-2)
        pinf2 = PinfEstimate(float_point([0.0, 1.0]), 0.0, cex_estimate.k_max_used)
        with pytest.raises(ValueError, match="dimension mismatch"):
            compare_prediction(CEX, report, pinf2, tol=1e-2)


def test_report_json_shape(cex_estimate):
    report = candidate_exponents(CEX.negate())
    verdicts = compare_prediction(CEX, report, cex_estimate, tol=1e-2)
    obj = json.loads(report_to_json(report, verdicts))
    assert set(obj) == {"levels", "candidates"}
    assert obj["levels"][0]["eigenvalue"] == "0"
    assert len(obj["candidates"]) == len(report.candidates)
    keys = {"v", "tp_point", "in_eigenspace", "matches_pinf"}
    assert all(set(c) == keys for c in obj["candidates"])
