import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropasym import (
    MAX_PLUS,
    MIN_PLUS,
    ProjectivePoint,
    StarDivergenceError,
    TropicalMatrix,
    in_span,
    kleene_star,
    normalize_projective,
    span_distance,
)
from tropasym.core import _span_projection
from tropasym.schur import minplus_schur
from tropasym.spectral import max_cycle_mean

from _oracles import longest_path_table, scale_matrix, trop_add, trop_matmul

F = Fraction

FIG7 = TropicalMatrix.from_rows([[0, 1, 3], [-5, 0, 1], [-6, -1, 0]])
CEX = TropicalMatrix.from_rows([[0, -3, -4], [-1, 0, -2], [-1, -1, 0]])


def pp(*vals):
    return ProjectivePoint(tuple(F(v) for v in vals))


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@st.composite
def matrices(draw, nmin=2, nmax=4, semiring=MAX_PLUS):
    n = draw(st.integers(nmin, nmax))
    rows = draw(
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    return TropicalMatrix.from_rows(rows, semiring)


def assert_canonical(M):
    """Lowest terms, and equal to (and hashing like) its re-encoded entries."""
    assert M.den > 0
    assert math.gcd(M.den, *(x for row in M.nums for x in row)) == 1
    again = TropicalMatrix.from_rows(M.entries, M.semiring)
    assert M == again and hash(M) == hash(again)


class TestRepresentation:
    def test_spellings_of_one_half(self):
        forms = [TropicalMatrix.from_rows([[x, 0], [0, x]]) for x in ("1/2", "2/4", F(1, 2))]
        assert forms[0] == forms[1] == forms[2]
        assert len({hash(M) for M in forms}) == 1
        assert (forms[0].nums, forms[0].den) == (((1, 0), (0, 1)), 2)

    def test_constructor_reduces(self):
        M = TropicalMatrix(((2, 4), (-6, 0)), 4)
        assert (M.nums, M.den) == (((1, 2), (-3, 0)), 2)
        assert M == TropicalMatrix.from_rows([["1/2", 1], ["-3/2", 0]])

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(ValueError):
            TropicalMatrix(((1,),), 0)

    @settings(max_examples=40, deadline=None)
    @given(matrices(nmin=1, nmax=5), rationals, st.integers(2, 6))
    def test_views_and_round_trips(self, A, c, k):
        assert_canonical(A)
        unreduced = [
            [f"{k * x.numerator}/{k * x.denominator}" for x in row] for row in A.entries
        ]
        B = TropicalMatrix.from_rows(unreduced, A.semiring)
        assert B == A and hash(B) == hash(A)
        assert A.negate().negate() == A
        assert A.shift(c).shift(-c) == A
        assert_canonical(A.shift(c))
        floats = A.to_floats()
        for i in range(A.n):
            for j in range(A.n):
                assert A.entries[i][j] == F(A.nums[i][j], A.den)
                assert floats[i][j] == float(A.entries[i][j])

    @settings(max_examples=40, deadline=None)
    @given(matrices(nmin=1, nmax=5))
    def test_kernel_results_canonical(self, A):
        Abar = A.shift(-max_cycle_mean(A))  # no positive cycle: both kernels converge
        assert_canonical(kleene_star(Abar))
        assert_canonical(kleene_star(Abar.negate()))
        if A.n > 1:
            assert_canonical(minplus_schur(Abar.negate(), {0}))


class TestMatmul:
    def test_identity_with_large_sentinel(self):
        A = TropicalMatrix.from_rows([[0, -1], [2, 0]])
        big = -(10**9)
        I = TropicalMatrix.from_rows([[0, big], [big, 0]])
        assert trop_matmul(A, I) == A

    def test_max_plus_square(self):
        A = TropicalMatrix.from_rows([[0, -1], [2, 0]])
        assert trop_matmul(A, A) == TropicalMatrix.from_rows([[1, -1], [2, 1]])

    def test_min_plus_square(self):
        A = TropicalMatrix.from_rows([[0, 1], [3, 0]], MIN_PLUS)
        assert trop_matmul(A, A) == A

    def test_tag_mismatch_rejected(self):
        A = TropicalMatrix.from_rows([[0, 1], [1, 0]])
        B = TropicalMatrix.from_rows([[0, 1], [1, 0]], MIN_PLUS)
        with pytest.raises(ValueError):
            trop_matmul(A, B)

    def test_dim_mismatch_rejected(self):
        A = TropicalMatrix.from_rows([[0, 1], [1, 0]])
        B = TropicalMatrix.from_rows([[0]])
        with pytest.raises(ValueError):
            trop_matmul(A, B)

    @settings(max_examples=40, deadline=None)
    @given(matrices(nmin=2, nmax=3), matrices(nmin=2, nmax=3), matrices(nmin=2, nmax=3))
    def test_associative_and_distributive(self, A, B, C):
        n = min(A.n, B.n, C.n)

        def cut(M):
            return TropicalMatrix.from_rows([r[:n] for r in M.entries[:n]], M.semiring)

        A, B, C = cut(A), cut(B), cut(C)
        assert trop_matmul(trop_matmul(A, B), C) == trop_matmul(A, trop_matmul(B, C))
        assert trop_matmul(A, trop_add(B, C)) == trop_add(
            trop_matmul(A, B), trop_matmul(A, C)
        )


class TestNormalize:
    def test_example(self):
        assert normalize_projective([F("-1.5"), 0, -1]) == pp(0, "1.5", "0.5")

    def test_constant_vector(self):
        assert normalize_projective([F(7), F(7), F(7)]) == pp(0, 0, 0)

    def test_already_normalized(self):
        assert normalize_projective([0, F(3), F(-2)]) == pp(0, 3, -2)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=5), rationals)
    def test_shift_invariance(self, v, c):
        shifted = [x + c for x in v]
        assert normalize_projective(shifted) == normalize_projective(v)


class TestKleeneStar:
    def test_figure7_columns(self):
        S = kleene_star(FIG7)
        cols = {normalize_projective(S.column(j)) for j in range(3)}
        assert cols == {pp(0, -5, -6), pp(0, -2, -3)}

    def test_counterexample_columns(self):
        S = kleene_star(CEX)
        cols = {normalize_projective(S.column(j)) for j in range(3)}
        assert cols == {pp(0, -1, -1), pp(0, 3, 2), pp(0, 2, 4)}

    def test_all_negative_offdiag_is_a_plus_identity(self):
        A = TropicalMatrix.from_rows([[0, -2], [-1, 0]])
        assert kleene_star(A) == A  # diag already 0, no multi-edge path helps

    def test_positive_cycle_rejected(self):
        A = TropicalMatrix.from_rows([[0, 2], [-1, 0]])
        with pytest.raises(StarDivergenceError) as exc:
            kleene_star(A)
        assert len(exc.value.cycle) >= 1

    def test_min_plus_negative_cycle_rejected(self):
        A = TropicalMatrix.from_rows([[0, -2], [1, 0]], MIN_PLUS)
        with pytest.raises(StarDivergenceError):
            kleene_star(A)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([MAX_PLUS, MIN_PLUS]).flatmap(lambda s: matrices(1, 6, s)))
    def test_divergence_witness_is_a_bad_cycle(self, A):
        maximum = A.semiring == MAX_PLUS
        try:
            kleene_star(A)
        except StarDivergenceError as exc:
            cyc = exc.cycle
            assert cyc
            weight = sum(A.entries[u][v] for u, v in zip(cyc, cyc[1:] + cyc[:1]))
            assert weight > 0 if maximum else weight < 0
        else:
            assert max_cycle_mean(A if maximum else A.negate()) <= 0

    @settings(max_examples=30, deadline=None)
    @given(matrices(nmin=2, nmax=6))
    def test_star_axioms_and_oracle(self, A):
        lam = max_cycle_mean(A)
        Abar = A.shift(-lam)
        S = kleene_star(Abar)
        # S = I + Abar S, checked structurally on the diagonal
        AS = trop_matmul(Abar, S)
        for i in range(A.n):
            for j in range(A.n):
                expected = AS.entries[i][j]
                if i == j:
                    expected = max(expected, F(0))
                assert S.entries[i][j] == expected
        assert trop_matmul(S, S) == S
        # brute-force best-path oracle
        table = longest_path_table(Abar)
        for i in range(A.n):
            for j in range(A.n):
                assert S.entries[i][j] == table[i][j]


def trop_project_onto_span(x, gens):
    """Best max-plus span approximation of x from below, normalized."""
    return normalize_projective(_span_projection(x.coords, [g.coords for g in gens]))


class TestSpanProjection:
    CEX_GENS = [pp(0, -1, -1), pp(0, 3, 2), pp(0, 2, 4)]

    def test_counterexample_membership(self):
        x = pp(0, 0, -1)
        assert trop_project_onto_span(x, self.CEX_GENS) == x
        assert in_span(x, self.CEX_GENS)

    def test_projection_fixes_generators(self):
        g = pp(0, 3, 2)
        assert trop_project_onto_span(g, [g]) == g

    def test_hand_example(self):
        gens = [pp(0, -1, -1), pp(0, 6, 4), pp(0, 4, 5)]
        x = pp(0, 4, F("3.5"))
        assert trop_project_onto_span(x, gens) == x

    def test_not_in_span(self):
        assert not in_span(pp(0, 3, 4), [pp(0, 1, 2)])

    def test_generator_in_pair_span(self):
        g1, g2 = pp(0, -5, -6), pp(0, -2, -3)
        assert in_span(g1, [g1, g2])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(rationals, min_size=3, max_size=3),
        st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=3),
    )
    def test_idempotent_dominated_and_append_invariant(self, xv, gvs):
        x = normalize_projective(xv)
        gens = [normalize_projective(g) for g in gvs]
        p = trop_project_onto_span(x, gens)
        assert trop_project_onto_span(p, gens) == p
        # dominated: the unnormalized projection sits below x coordinatewise
        lams = [min(a - b for a, b in zip(x.coords, g.coords)) for g in gens]
        raw = [
            max(lam + g.coords[i] for lam, g in zip(lams, gens))
            for i in range(x.dim)
        ]
        assert all(r <= xc for r, xc in zip(raw, x.coords))
        # appending a tropical combination of gens never changes membership
        combo = normalize_projective(
            [
                max(g.coords[i] + (1 if t % 2 else -1) for t, g in enumerate(gens))
                for i in range(x.dim)
            ]
        )
        assert in_span(x, gens) == in_span(x, gens + [combo])


class TestScale:
    def test_k1_identity(self):
        assert scale_matrix(FIG7, 1) == FIG7

    def test_entrywise_doubling(self):
        A = TropicalMatrix.from_rows([[0, -3], [-1, 0]])
        assert scale_matrix(A, 2) == TropicalMatrix.from_rows([[0, -6], [-2, 0]])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            scale_matrix(FIG7, 0)

    @settings(max_examples=25, deadline=None)
    @given(matrices(nmin=2, nmax=4), st.integers(1, 5))
    def test_cycle_mean_scales(self, A, k):
        assert max_cycle_mean(scale_matrix(A, k)) == k * max_cycle_mean(A)


class TestJsonAndFloats:
    def test_float_refused_in_exact_layer(self):
        with pytest.raises(TypeError):
            TropicalMatrix.from_rows([[0.5, 0], [0, 0]])

    def test_float_span_helpers(self):
        gens = [[0.0, -1.0, -1.0], [0.0, 3.0, 2.0], [0.0, 2.0, 4.0]]
        assert span_distance([0.0, 0.0, -1.0], gens) < 1e-15
        assert span_distance([0.0, 0.0, -1.0], gens) <= 1e-9
        assert span_distance([0.0, 4.0, 3.5], gens) > 1e-9
