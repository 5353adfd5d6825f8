"""Differential tests of the exact layer's integer-array kernels.

Each kernel must equal its pure-Python oracle in _oracles exactly: the same
TropicalMatrix, Fraction, SpectralData or SchurReport, and on a divergent
input the same StarDivergenceError message and witness cycle.  The error
names that witness only when it is read, and spectral_data solves an input
once while its record is cached.
"""

import copy
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from tropasym import (
    MAX_PLUS,
    MIN_PLUS,
    StarDivergenceError,
    TropicalMatrix,
    candidate_exponents,
    eigenspace_equal,
    eigenspace_preserving_perturbations,
    kleene_star,
    max_cycle_mean,
    minplus_schur,
    random_matrix,
    schur_sequence,
    spectral_data,
)
import tropasym
from tropasym import conjectures, core, schur, spectral
from tropasym.conjectures import _draw_nums
from tropasym.core import _int_array

from _oracles import (
    candidate_exponents_oracle,
    karp_oracle,
    kleene_star_oracle,
    minplus_schur_oracle,
    same_span_oracle,
    schur_sequence_oracle,
    spectral_data_oracle,
    translation_chain_oracle,
)

SIZES = range(1, 41)


def magnitude(A):
    return max(abs(x) for row in A.nums for x in row)


def outcome(f, *args):
    """f's result, or the message and cycle of the StarDivergenceError it raised."""
    try:
        return f(*args)
    except StarDivergenceError as exc:
        return str(exc), exc.cycle


def rational_matrix(n, rng):
    """Max-plus entries p/d with d in {1, 2, 3, 4, 6} and |p/d| <= 10."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            d = rng.choice((1, 2, 3, 4, 6))
            row.append(Fraction(rng.randint(-10 * d, 10 * d), d))
        rows.append(row)
    return TropicalMatrix.from_rows(rows)


def normalized(A):
    """A - lambda(A): no positive cycle, so its max-plus star converges."""
    return A.shift(-karp_oracle(A))


def matrices(seed):
    """One raw and one lambda-normalized max-plus matrix per size in SIZES."""
    rng = random.Random(seed)
    for n in SIZES:
        A = rational_matrix(n, rng)
        yield A
        yield normalized(A)


@pytest.mark.parametrize("semiring", [MAX_PLUS, MIN_PLUS])
def test_kleene_star_matches_oracle(semiring):
    diverged = 0
    for A in matrices(1):
        if semiring == MIN_PLUS:
            A = A.negate()
        got = outcome(kleene_star, A)
        assert got == outcome(kleene_star_oracle, A), A.n
        diverged += isinstance(got, tuple)
    assert 0 < diverged < 2 * len(SIZES)  # both outcomes exercised


def test_max_cycle_mean_matches_oracle():
    for A in matrices(2):
        assert max_cycle_mean(A) == karp_oracle(A), A.n
        B = TropicalMatrix(tuple(zip(*A.nums)), A.den)
        assert max_cycle_mean(B) == karp_oracle(B), A.n


def test_spectral_data_matches_oracle():
    for A in matrices(3):
        assert spectral_data(A) == spectral_data_oracle(A), A.n
        B = TropicalMatrix(tuple(zip(*A.nums)), A.den)
        assert spectral_data(B) == spectral_data_oracle(B), A.n


@pytest.mark.parametrize("grid", ["1", "1/2", "1/3"])
def test_small_matrices_match_oracles(grid):
    """Karp and the normalized star at n = 2..7, on grid matrices with a
    zero diagonal and on rational ones with any diagonal, raw and
    lambda-normalized, each solved from an empty spectral_data cache."""
    rng = random.Random(9)
    for n in range(2, 8):
        for _ in range(25):
            for A in (random_matrix(n, grid_step=grid, seed=rng), rational_matrix(n, rng)):
                for X in (A, normalized(A)):
                    want = spectral_data_oracle(X)
                    spectral_data.cache_clear()
                    sd = spectral_data(X)
                    assert sd == want, n
                    assert len(sd.generators) == len(sd.classes), n  # one per class
                    assert max_cycle_mean(X) == want.lam == karp_oracle(X), n


def batch_matches_oracles(stack, den):
    """`spectral._batch_chains` on a stack of numerators over den: lambda,
    critical nodes and chain flag of each matrix equal the oracles'.
    Returns the flags."""
    n = len(stack[0])
    L = math.lcm(*range(1, n + 1))
    lam, critical, chain = spectral._batch_chains(stack)
    for nums, lam_L, nodes, flag in zip(stack, lam, critical, chain):
        want = spectral_data_oracle(TropicalMatrix(nums, den))
        gens = want.generators
        assert Fraction(int(lam_L), L * den) == want.lam, nums
        assert frozenset(np.flatnonzero(nodes).tolist()) == want.critical_nodes, nums
        assert flag == (len(gens) >= 2 and translation_chain_oracle(gens) is not None), nums
    return chain


def common_den(mats):
    """The matrices' numerators over their common denominator, and that denominator."""
    den = math.lcm(*(A.den for A in mats))
    return [tuple(tuple(x * (den // A.den) for x in row) for row in A.nums) for A in mats], den


def two_class_matrix(n, grid, rng):
    """Zero diagonal, zero edges among nodes 1..n-1 and negative grid edges
    to and from node 0, so {0} and {1, ..., n-1} are the critical classes and
    their generators a translation chain; half of them get their nodes
    permuted, which for n >= 3 breaks the chain whenever node 0 moves."""
    step = Fraction(grid)
    rows = [
        [0 if i == j or min(i, j) > 0 else -step * rng.randint(1, 12) for j in range(n)]
        for i in range(n)
    ]
    p = list(range(n))
    if rng.random() < 0.5:
        rng.shuffle(p)
    return TropicalMatrix.from_rows([[rows[p[i]][p[j]] for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("grid", ["1", "1/2", "1/3"])
def test_batch_chains_matches_oracles(grid):
    """Zero-diagonal grid draws as the campaign makes them, planted two-class
    matrices, and rational matrices with any diagonal, at n = 2..8."""
    rng = random.Random(11)
    counts = {}
    for n in range(2, 9):
        flags = [
            *batch_matches_oracles(*_draw_nums(n, 300 if n == 3 else 40, rng, grid)),
            *batch_matches_oracles(*common_den([two_class_matrix(n, grid, rng) for _ in range(12)])),
            *batch_matches_oracles(*common_den([rational_matrix(n, rng) for _ in range(15)])),
        ]
        counts[n] = sum(flags), len(flags)
    assert all(0 < chains < total for chains, total in counts.values()), counts  # both flags seen


# chains with lambda = 0 and critical classes {0} and {1, 2, 3}, the second
# held together by a zero 3-cycle and no loop
LOOPLESS_CLASS = [
    ((0, -5, -5, -2), (-1, -3, 0, -3), (-6, -1, -2, 0), (-5, 0, -4, -6)),
    ((0, -4, -4, -5), (-6, -3, 0, -4), (-4, -4, -4, 0), (-2, 0, -2, -3)),
    ((0, -1, -1, -5), (-2, -6, 0, -6), (-3, -3, -1, 0), (-2, 0, -3, -3)),
]


def test_batch_chains_special_stacks():
    assert batch_matches_oracles(LOOPLESS_CLASS, 1).all()
    stack, den = _draw_nums(5, 40, random.Random(12), "1/2")
    flags = batch_matches_oracles(stack, den)
    # past the int64 guard the stack runs on Python ints, with the same flags
    # (.tolist(): an int64 array would overflow)
    shifted = [
        tuple(tuple(x + 2**70 * den for x in row) for row in nums) for nums in stack.tolist()
    ]
    assert spectral._batch_chains(shifted)[0].dtype == object
    assert (batch_matches_oracles(shifted, den) == flags).all()
    # numerators just inside the guard's bound 4nL max|W| < 2^62 (n = 4, L = 12)
    # and past it, where int64 sums would wrap
    rng = random.Random(13)
    bound = (1 << 62) // (4 * 4 * 12)
    for M, dtype in ((bound - 1, np.int64), (4 * bound, object)):
        near = [tuple(tuple(rng.randint(-M, M) for _ in range(4)) for _ in range(4)) for _ in range(20)]
        assert spectral._batch_chains(near)[0].dtype == dtype
        batch_matches_oracles(near, 1)
    # a stack of one matrix
    for nums, d in ((LOOPLESS_CLASS[0], 1), (stack[0], den), (shifted[1], den)):
        batch_matches_oracles([nums], d)


def screened_stacks(monkeypatch):
    """The stacks that eigenspace_preserving_perturbations screens, each with
    the mask `spectral._batch_same_eigenspace` returned for it."""
    seen = []
    screen = spectral._batch_same_eigenspace

    def recording(W):
        mask = screen(W)
        seen.append((W, mask))
        return mask

    monkeypatch.setattr(conjectures, "_batch_same_eigenspace", recording)
    return seen


def screen_matches_per_candidate_test(A, W, mask):
    """The mask equals the sampler's former test of one candidate at a time,
    and the stack holds A first.  Returns the candidates' outcomes, as
    (same lambda, same eigenspace) pairs."""
    den = math.lcm(A.den, 2)
    sd = spectral_data(A)
    base, *candidates = (TropicalMatrix(tuple(map(tuple, M)), den) for M in W.tolist())
    assert base == A and mask[0]
    outcomes = []
    for B, passed in zip(candidates, mask[1:].tolist()):
        same_lam = max_cycle_mean(B) == sd.lam
        same = same_lam and same_span_oracle(sd.generators, spectral_data(B).generators)
        assert passed == same, B
        outcomes.append((same_lam, same))
    return outcomes


@pytest.mark.parametrize("grid", ["1", "1/2", "1/3"])
def test_eigenspace_screen_matches_per_candidate_test(grid, monkeypatch):
    """Every candidate of seeded zero-diagonal bases at n = 2..5: all three
    outcomes occur (other lambda; same lambda, other eigenspace; pass)."""
    seen = screened_stacks(monkeypatch)
    rng = random.Random(21)
    outcomes = []
    for n in range(2, 6):
        for _ in range(15):
            A = random_matrix(n, grid_step=grid, seed=rng)
            seen.clear()
            eigenspace_preserving_perturbations(A, count=1, seed=0)
            [(W, mask)] = seen
            assert W.dtype == np.int64 and len(W) == 1 + n * (n - 1) * 8
            outcomes += screen_matches_per_candidate_test(A, W, mask)
    assert {(False, False), (True, False), (True, True)} <= set(outcomes)


def test_eigenspace_screen_past_the_int64_guard(monkeypatch):
    """A base shifted by 2^70 is screened on Python ints, with the shift's
    mask: A + cJ has A's eigenspace and lambda + c."""
    seen = screened_stacks(monkeypatch)
    for seed in range(4):
        A = random_matrix(4, grid_step="1/2", seed=seed)
        for X in (A, A.shift(2**70)):
            eigenspace_preserving_perturbations(X, count=1, seed=0)
        [(W, mask), (W_big, mask_big)] = seen
        assert (W.dtype, W_big.dtype) == (np.int64, object)
        assert (mask_big == mask).all()
        screen_matches_per_candidate_test(A.shift(2**70), W_big, mask_big)
        seen.clear()


def test_eigenspace_equal_matches_span_oracle():
    """eigenspace_equal, which compares generator sets, against mutual span
    membership of the oracle's generators at n = 2..6: members and raw
    candidates of perturbation families, shifts A + cJ and unrelated draws,
    on zero-diagonal grid bases and rational ones with any diagonal."""
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for n in range(2, 7):
        for k in range(12):
            if k % 2:
                A = rational_matrix(n, rng)
            else:
                A = random_matrix(n, grid_step=("1", "1/2", "1/3")[k % 3], seed=rng)
            members = eigenspace_preserving_perturbations(A, count=2, seed=k)
            raw = [
                TropicalMatrix.from_rows(
                    [[x + (Fraction(rng.choice((-2, -1, 1, 2)), 2) if (i, j) == ij else 0)
                      for j, x in enumerate(row)] for i, row in enumerate(A.entries)]
                )
                for ij in ((rng.randrange(n), rng.randrange(n)) for _ in range(3))
            ]
            others = [
                *members, *raw, A.shift(Fraction(rng.randint(-6, 6), 5)),
                random_matrix(n, seed=rng), rational_matrix(n, rng),
            ]
            gens = spectral_data_oracle(A).generators
            for B in others:
                got = eigenspace_equal(A, B)
                assert got == same_span_oracle(gens, spectral_data_oracle(B).generators), (A, B)
                assert got == eigenspace_equal(B, A)
                outcomes[got] += 1
    assert min(outcomes.values()) > 100, outcomes  # both outcomes exercised


def test_eigenspace_screen_compares_lambda():
    """A + cJ has A's eigenspace but not its lambda.  (A candidate of the
    sampler changes one row, so a shared eigenvector already forces equal
    lambdas there.)"""
    for seed in range(5):
        W = np.array(random_matrix(4, seed=seed).nums)
        assert spectral._batch_same_eigenspace([W, W + 2, W]).tolist() == [True, False, True]


def test_minplus_schur_matches_oracle():
    rng = random.Random(4)
    diverged = 0
    for A in matrices(5):
        if A.n == 1:
            continue
        B = A.negate()
        for _ in range(3):
            C = set(rng.sample(range(A.n), rng.randint(1, A.n - 1)))
            got = outcome(minplus_schur, B, C)
            assert got == outcome(minplus_schur_oracle, B, C), (A.n, C)
            diverged += isinstance(got, tuple)
    assert diverged > 0


def test_candidate_exponents_matches_oracle():
    completed = 0
    for A in matrices(6):
        B = A.negate()
        assert schur_sequence(B) == schur_sequence_oracle(B), A.n
        got = outcome(candidate_exponents, B)
        assert got == outcome(candidate_exponents_oracle, B), A.n
        completed += not isinstance(got, tuple)
    assert completed > 0


def test_int64_guard_both_sides():
    """Numerators just inside int64's guard and well past it give oracle results."""
    rng = random.Random(7)
    n = 4
    # den 3^33: numerators near 2^55, so spectral_data's 4n^2 M sits near 2^61
    below = TropicalMatrix.from_rows(
        [[Fraction(rng.randint(-8 * 3**33, 8 * 3**33), 3**33) for _ in range(n)] for _ in range(n)]
    )
    above = TropicalMatrix.from_rows(
        [[Fraction(rng.randint(-8 * 3**40, 8 * 3**40), 3**40) for _ in range(n)] for _ in range(n)]
    )
    offset = rational_matrix(n, rng).shift(2**70)
    assert 2**60 < 4 * n * n * magnitude(below) < 2**62 <= magnitude(above)
    assert _int_array(below.nums, 4 * n * n).dtype == np.int64
    assert _int_array(above.nums, 1).dtype == object
    assert _int_array(np.array([[-(2**63), 0]]), 1).dtype == object  # abs would wrap here
    for A in (below, above, offset):
        for X in (A, normalized(A)):
            assert outcome(kleene_star, X) == outcome(kleene_star_oracle, X)
            assert outcome(kleene_star, X.negate()) == outcome(kleene_star_oracle, X.negate())
            assert outcome(minplus_schur, X.negate(), {0, 2}) == outcome(
                minplus_schur_oracle, X.negate(), {0, 2}
            )
        spectral_data.cache_clear()
        assert max_cycle_mean(A) == karp_oracle(A)
        assert spectral_data(A) == spectral_data_oracle(A)
        assert outcome(candidate_exponents, A.negate()) == outcome(
            candidate_exponents_oracle, A.negate()
        )


def near_guard(n, seed):
    """Integer entries just inside spectral_data's int64 guard, 4n^2 max|A| < 2^62."""
    rng = random.Random(seed)
    M = (1 << 62) // (4 * n * n) - 1
    return TropicalMatrix.from_rows([[rng.randint(-M, M) for _ in range(n)] for _ in range(n)])


def test_int64_guard_checked_at_every_schur_level(monkeypatch):
    """A Schur level's numerators can outgrow the int64 guard of the level
    before it (a level over den q is scaled by q), at n = 12 and at n = 5,
    and a level-0 shift by 2^70 is gone one level later.  Every level, of
    any size, is an array of the dtype `_int_array` picks for its own
    matrix, and the results are the oracles'."""
    seen = []
    closure = schur._normalized_closure

    def recording(W):
        seen.append(W)
        return closure(W)

    monkeypatch.setattr(schur, "_normalized_closure", recording)
    shifted = random_matrix(12, grid_step="1/3", seed=5).shift(2**70)
    inputs = (near_guard(12, 0), shifted, near_guard(5, 0))
    assert [_int_array(A.nums, 4 * A.n**2).dtype for A in inputs] == [np.int64, object, np.int64]
    levels_seen = []
    for A in inputs:
        B = A.negate()
        seen.clear()
        levels = schur_sequence(B)
        assert levels == schur_sequence_oracle(B)
        assert outcome(candidate_exponents, B) == outcome(candidate_exponents_oracle, B)
        # levels 1.. of each of the two calls above; level 0 is spectral_data's
        assert len(seen) == 2 * (len(levels) - 1)
        for W in seen:
            assert isinstance(W, np.ndarray)
            assert W.dtype == _int_array(W.tolist(), 4 * len(W) ** 2).dtype
        levels_seen.append([(len(W), W.dtype) for W in seen])
    assert levels_seen[0][0][1] == object  # level 1 crossed the guard level 0 kept
    assert np.int64 in [dtype for _, dtype in levels_seen[1]]  # the 2^70 shift is gone at level 1
    assert levels_seen[2][0] == (4, object)  # and so did a level below n = 6


def test_b_hat_past_int64_matches_oracle():
    """B_hat's max-plus numerators are f W + drop, where W is -B's and f is
    the lcm of the Schur levels' eigenvalue denominators over B's.  With
    entries near 2^63 and f >= 2 they pass int64, so they must be formed
    in Python ints; the outcomes, divergent or not, are the oracle's."""
    rng = random.Random(1)
    M = (1 << 63) - 1
    past = converged = 0
    for _ in range(40):
        n = rng.randint(3, 5)
        A = TropicalMatrix.from_rows([[rng.randint(-M, M) for _ in range(n)] for _ in range(n)])
        B = A.negate()
        levels = schur_sequence(B)
        f = math.lcm(B.den, *(lv.eigenvalue.denominator for lv in levels)) // B.den
        got = outcome(candidate_exponents, B)
        assert got == outcome(candidate_exponents_oracle, B)
        if f * magnitude(A) >= 2**63:
            past += 1
            converged += not isinstance(got, tuple)
    assert past >= 10 and converged >= 1, (past, converged)


def test_divergent_star_near_guard_raises_like_oracle():
    """Every edge among nodes 30..39 is positive, every other one negative, so
    the first bad pivot is node 30.  A full Floyd-Warshall pass would then
    double the entries in each of the last ten rounds, past 2^64; the early
    exit raises before any sum outgrows 2nM."""
    n = 40
    rng = random.Random(8)
    M = 2**55  # 2nM = 80 * 2^55 < 2^62, so the star runs in int64
    rows = [
        [rng.randint(M // 2, M) if min(i, j) >= 30 else rng.randint(-M, -M // 2) for j in range(n)]
        for i in range(n)
    ]
    A = TropicalMatrix.from_rows(rows)
    assert _int_array(A.nums, 2 * n).dtype == np.int64
    for X in (A, A.negate()):
        got = outcome(kleene_star, X)
        assert isinstance(got, tuple)
        assert got == outcome(kleene_star_oracle, X)


# min-plus; its b_hat star diverges on the self-loop at node 1
DIVERGENT = TropicalMatrix.from_rows(
    [["0", "0", "1/2"], ["-11/2", "0", "-2"], ["2", "3/2", "0"]]
).negate()
MESSAGE = "Kleene star diverges: negative cycle 1->1"


def test_witness_named_on_first_read(monkeypatch):
    calls = []
    find = core._find_bad_cycle

    def counting(W):
        calls.append(W)
        return find(W)

    monkeypatch.setattr(core, "_find_bad_cycle", counting)
    with pytest.raises(StarDivergenceError) as info:
        candidate_exponents(DIVERGENT)
    assert calls == []  # caught and dropped: no witness named
    exc = info.value
    assert [str(exc), str(exc)] == [MESSAGE, MESSAGE]
    assert exc.cycle == exc.cycle == (1,)
    assert len(calls) == 1


def test_witness_survives_pickle_and_copy():
    with pytest.raises(StarDivergenceError) as info:
        candidate_exponents(DIVERGENT)
    # no positive cycle to walk back to: the message falls back on the pivot
    fallback = StarDivergenceError("positive", np.array([[0, -1], [-1, 0]]), 1)
    for exc in (info.value, fallback):
        for clone in (pickle.loads(pickle.dumps(exc)), copy.copy(exc), copy.deepcopy(exc)):
            assert type(clone) is StarDivergenceError
            assert (str(clone), clone.cycle) == (str(exc), exc.cycle)
    assert (str(info.value), info.value.cycle) == (MESSAGE, (1,))
    assert repr(info.value) == f"StarDivergenceError({MESSAGE!r})"
    assert (str(fallback), fallback.cycle) == ("Kleene star diverges: positive cycle through node 1", ())


class TestSpectralDataCache:
    def test_level_zero_reuses_the_callers_record(self, spectral_runs, monkeypatch):
        """Level 0 is the caller's own A, so A's numerator tuples are read
        into an array once, and a divergent B_hat never reaches the public
        kleene_star yet raises its error."""
        reads, stars = [], []
        int_array = core._int_array

        def counting(nums, growth):
            if not isinstance(nums, np.ndarray):
                reads.append(nums)
            return int_array(nums, growth)

        def star(M):
            stars.append(M)
            return kleene_star(M)

        for module in (core, spectral, schur):
            monkeypatch.setattr(module, "_int_array", counting)
        for module in (core, schur, tropasym):
            if hasattr(module, "kleene_star"):
                monkeypatch.setattr(module, "kleene_star", star)
        A = TropicalMatrix(DIVERGENT.negate().nums, DIVERGENT.den)  # no array cached yet
        sd = spectral_data(A)
        levels = schur_sequence(A.negate())
        assert spectral_runs.count(A) == 1
        assert -levels[0].eigenvalue == sd.lam
        with pytest.raises(StarDivergenceError) as info:
            candidate_exponents(A.negate())
        assert spectral_runs.count(A) == 1
        assert len(reads) == 1 and reads[0] is A.nums
        assert stars == []
        assert (str(info.value), info.value.cycle) == (MESSAGE, (1,))

    def test_schur_levels_leave_the_cache_alone(self, spectral_runs):
        """Nine Schur levels used to cache eight records of their own and
        evict every earlier caller's; now only level 0's record is A's."""
        callers = [random_matrix(4, seed=seed) for seed in range(3)]
        for C in callers:
            spectral_data(C)
        A = random_matrix(16, grid_step="1/2", seed=44)  # the exact workload's grid
        outcome(candidate_exponents, A.negate())
        assert len(schur_sequence(A.negate())) == 9
        for C in callers:
            spectral_data(C)
        assert spectral_runs == [*callers, A]  # no caller record re-solved

    def test_equal_matrices_share_one_entry(self, spectral_runs):
        A = TropicalMatrix.from_rows([["0", "1/2"], ["-1", "0"]])
        B = TropicalMatrix(((0, 2), (-4, 0)), 4)  # reduced to A's numerators over 2
        assert A is not B and A == B
        assert spectral_data(A) is spectral_data(B)
        assert spectral_runs == [A]

    def test_min_plus_input_raises_every_call(self, spectral_runs):
        for _ in range(2):
            with pytest.raises(ValueError, match="requires a max-plus matrix"):
                spectral_data(DIVERGENT)
        assert spectral_runs == []
