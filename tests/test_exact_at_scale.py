"""The exact layer's array kernels against the pure-Python oracles of
_oracles at sizes the rest of the suite does not reach: seeded n=60 and
n=120 matrices on the 1/3 grid, the n=60 one shifted by 2^70 onto Python
ints (dtype object), converging Schur pipelines at n=20, 40 and 60, and
2,000 small matrices at n=2..6.

Each test fails only on a mismatch with its oracle.  Library and oracle
times are printed for the record (shown with `pytest -s`), never gated.
"""

import random
import time

import pytest

from tropasym import (
    StarDivergenceError,
    candidate_exponents,
    minplus_schur,
    random_matrix,
    schur_sequence,
    spectral_data,
)

from _oracles import (
    candidate_exponents_oracle,
    minplus_schur_oracle,
    schur_sequence_oracle,
    spectral_data_oracle,
)


def outcome(f, *args):
    """f's result, or the message and cycle of the StarDivergenceError it raised."""
    try:
        return f(*args)
    except StarDivergenceError as exc:
        return str(exc), exc.cycle


def timed(f, *args):
    t = time.perf_counter()
    return outcome(f, *args), time.perf_counter() - t


@pytest.mark.parametrize("n", [60, 120])
def test_large_inputs_match_oracles(n):
    """Both candidate_exponents calls diverge here, so the Schur levels are
    compared on their own as well.  schur_sequence never diverges, so
    minplus_schur is compared directly, eliminating every other node, on the
    negated input (a negative cycle inside C: message and cycle must match)
    and on its lambda-normalized shift, which converges."""
    A = random_matrix(n, grid_step="1/3", seed=n)
    B = A.negate()
    assert spectral_data(A) == spectral_data_oracle(A)
    assert outcome(candidate_exponents, B) == outcome(candidate_exponents_oracle, B)
    (got, t_lib), (want, t_oracle) = timed(schur_sequence, B), timed(schur_sequence_oracle, B)
    print(f"n={n} schur_sequence: {len(got)} levels ({t_lib:.3f} s, oracle {t_oracle:.3f} s)")
    assert got == want
    C = set(range(0, n, 2))
    for label, X in (("raw", B), ("lambda-normalized", B.shift(spectral_data(A).lam))):
        (got, t_lib), (want, t_oracle) = timed(minplus_schur, X, C), timed(minplus_schur_oracle, X, C)
        print(f"n={n} minplus_schur, {label}: "
              f"{'diverges' if isinstance(got, tuple) else 'converges'} "
              f"({t_lib:.3f} s, oracle {t_oracle:.3f} s)")
        assert got == want, label


@pytest.mark.parametrize("f, oracle", [
    (schur_sequence, schur_sequence_oracle),
    (candidate_exponents, candidate_exponents_oracle),
])
def test_shift_past_the_int64_guard_matches_oracle(f, oracle):
    """Level 0 runs on Python ints, later levels back under the int64 guard."""
    B = random_matrix(60, grid_step="1/3", seed=60).shift(2**70).negate()
    assert outcome(f, B) == outcome(oracle, B)


@pytest.mark.parametrize("n", [20, 40, 60])
def test_converging_candidate_exponents_match_oracle(n):
    """Entries in [-6, -1/3]: the stars converge, one candidate per node."""
    B = random_matrix(n, grid_step="1/3", entry_range=(-6, "-1/3"), seed=n).negate()
    (got, t_lib), (want, t_oracle) = (
        timed(candidate_exponents, B), timed(candidate_exponents_oracle, B))
    print(f"n={n} candidate_exponents: {len(getattr(got, 'candidates', ()))} candidates "
          f"({t_lib:.3f} s, oracle {t_oracle:.3f} s)")
    assert got == want


def test_spectral_data_sweep_times():
    """Best of 3 per size, the kernels timed rather than a cache lookup."""
    for n in (10, 20, 40, 80, 160):
        A = random_matrix(n, seed=n)
        best = float("inf")
        for _ in range(3):
            spectral_data.cache_clear()
            t = time.perf_counter()
            spectral_data(A)
            best = min(best, time.perf_counter() - t)
        print(f"spectral_data(random_matrix({n})): {1e3 * best:.2f} ms")


def test_small_matrices_sweep_matches_oracle():
    """400 matrices at each n = 2..6 on the 1, 1/2 and 1/3 grids."""
    rng = random.Random(0)
    for n in range(2, 7):
        small = [random_matrix(n, grid_step=rng.choice(("1", "1/2", "1/3")), seed=rng)
                 for _ in range(400)]
        bad = sum(spectral_data(A) != spectral_data_oracle(A) for A in small)
        t = time.perf_counter()
        for A in small:
            spectral_data.__wrapped__(A)  # the kernels, not a cache lookup
        per_call = (time.perf_counter() - t) / len(small)
        print(f"n={n}: {bad} of 400 mismatched, spectral_data {1e6 * per_call:.1f} us")
        assert bad == 0, n
