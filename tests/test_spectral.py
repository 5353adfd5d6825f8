import random
from fractions import Fraction

import pytest

from tropasym import (
    TropicalMatrix,
    eigenspace_equal,
    kleene_star,
    max_cycle_mean,
    normalize_projective,
    random_matrix,
    spectral_data,
)

from _oracles import (
    column,
    critical_edges_oracle,
    cycle_mean_oracle,
    hadamard_lemma_check,
    strongly_connected_components,
    verify_eigenvector,
)

F = Fraction

FIG4 = TropicalMatrix.from_rows([[0, -1, -1], [-4, 0, -1], [-1, -1, -4]])
FIG7 = TropicalMatrix.from_rows([[0, 1, 3], [-5, 0, 1], [-6, -1, 0]])
FIG8 = TropicalMatrix.from_rows([[0, -4, -2], [1, 0, -3], [-1, -1, 0]])
FIG9 = TropicalMatrix.from_rows([[0, -9, -2], [1, 0, -3], [-1, -1, 0]])
CEX = TropicalMatrix.from_rows([[0, -3, -4], [-1, 0, -2], [-1, -1, 0]])


def pp(*vals):
    return normalize_projective(vals)


class TestMaxCycleMean:
    def test_figure7(self):
        assert max_cycle_mean(FIG7) == 0

    def test_two_by_two(self):
        A = TropicalMatrix.from_rows([[0, 2], [1, 0]])
        assert max_cycle_mean(A) == F(3, 2)

    def test_dominant_diagonal(self):
        A = TropicalMatrix.from_rows([[5, 1], [1, 5]])
        assert max_cycle_mean(A) == 5

    def test_shift_by_constant(self):
        rng = random.Random(5)
        for _ in range(10):
            A = random_matrix(4, seed=rng)
            c = F(rng.randint(-5, 5), 2)
            assert max_cycle_mean(A.shift(c)) == max_cycle_mean(A) + c
            assert spectral_data(A.shift(c)).generators == spectral_data(A).generators

    def test_transpose_invariance(self):
        rng = random.Random(6)
        for _ in range(10):
            A = random_matrix(4, seed=rng)
            AT = TropicalMatrix(tuple(zip(*A.nums)), A.den)
            assert max_cycle_mean(AT) == max_cycle_mean(A)


class TestOracle:
    def test_matches_examples(self):
        for A in (FIG7, FIG4, CEX):
            assert cycle_mean_oracle(A) == max_cycle_mean(A)

    def test_singleton(self):
        assert cycle_mean_oracle(TropicalMatrix.from_rows([[F(3, 7)]])) == F(3, 7)

    def test_size_limit(self):
        big = TropicalMatrix.from_rows([[0] * 9 for _ in range(9)])
        with pytest.raises(ValueError):
            cycle_mean_oracle(big)

    def test_transpose_symmetry(self):
        rng = random.Random(9)
        for _ in range(5):
            A = random_matrix(4, seed=rng)
            AT = TropicalMatrix(tuple(zip(*A.nums)), A.den)
            assert cycle_mean_oracle(AT) == cycle_mean_oracle(A)

    def test_karp_equals_oracle_random(self):
        rng = random.Random(7)
        for i in range(40):
            A = random_matrix(2 + i % 5, grid_step=F(1, 2), seed=rng)
            assert max_cycle_mean(A) == cycle_mean_oracle(A)


class TestSpectralData:
    def test_figure7(self):
        sd = spectral_data(FIG7)
        assert sd.lam == 0
        assert sd.classes == ((0,), (1, 2))
        assert set(sd.generators) == {pp(0, -5, -6), pp(0, -2, -3)}

    def test_figure4(self):
        sd = spectral_data(FIG4)
        assert sd.lam == 0
        assert sd.classes == ((0,), (1,))
        assert set(sd.generators) == {pp(0, -2, -1), pp(0, 1, 0)}

    def test_counterexample(self):
        sd = spectral_data(CEX)
        assert sd.lam == 0
        assert sd.classes == ((0,), (1,), (2,))
        assert set(sd.generators) == {pp(0, -1, -1), pp(0, 3, 2), pp(0, 2, 4)}

    def test_critical_columns_are_eigenvectors(self):
        rng = random.Random(11)
        for _ in range(15):
            A = random_matrix(4, seed=rng)
            sd = spectral_data(A)
            S = kleene_star(A.shift(-sd.lam))
            for cls in sd.classes:
                cols = {normalize_projective(column(S, i)) for i in cls}
                assert len(cols) == 1  # same class, projectively equal columns
                assert verify_eigenvector(A, sd.lam, cols.pop())

    def test_classes_are_sccs_of_the_critical_graph(self):
        rng = random.Random(14)
        for i in range(60):
            hi = F(0) if i % 2 else F(2)  # lam = 0 with zero-weight cycles, or lam > 0
            A = random_matrix(
                2 + i % 8, grid_step=F(1, 1 + i % 3), entry_range=(F(-4), hi), seed=rng
            )
            sd = spectral_data(A)
            edges = critical_edges_oracle(A)
            nodes = {u for e in edges for u in e}
            assert sd.critical_nodes == nodes
            assert sd.classes == tuple(strongly_connected_components(nodes, edges))

    def test_eigenspace_equal_needs_equal_sizes(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            eigenspace_equal(FIG7, TropicalMatrix.from_rows([[0, -1], [-1, 0]]))

    def test_every_generator_verifies(self):
        for A in (FIG4, FIG7, FIG8, CEX):
            sd = spectral_data(A)
            for g in sd.generators:
                assert verify_eigenvector(A, sd.lam, g)


class TestVerifyEigenvector:
    def test_true_case(self):
        assert verify_eigenvector(FIG7, 0, pp(0, -2, -3))

    def test_false_case(self):
        assert not verify_eigenvector(FIG7, 0, pp(0, 0, 0))


class TestEigenspaceEqual:
    def test_figure_8_9_pair(self):
        assert eigenspace_equal(FIG8, FIG9)

    def test_reflexive(self):
        assert eigenspace_equal(FIG7, FIG7)

    def test_different(self):
        assert not eigenspace_equal(FIG7, FIG4)

    def test_symmetric_on_random(self):
        rng = random.Random(12)
        for _ in range(10):
            A = random_matrix(3, seed=rng)
            B = random_matrix(3, seed=rng)
            assert eigenspace_equal(A, B) == eigenspace_equal(B, A)


class TestHadamardScaling:
    def test_figure7_k3(self):
        assert hadamard_lemma_check(FIG7, 3)

    def test_k1(self):
        assert hadamard_lemma_check(CEX, 1)

    def test_random_5x5(self):
        rng = random.Random(13)
        A = random_matrix(5, grid_step=F(1, 2), seed=rng)
        assert hadamard_lemma_check(A, 2)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            hadamard_lemma_check(FIG7, 0)
