"""The bundled figure cases against their exact limits P_infinity.

The limits were derived from a 150-digit reference (Richardson extrapolation
at k=256 and k=512 agreeing to 1e-6); figure-7's is its caption value.  Each
must be an exact member of its case's eigenspace, and the double-precision
engine's estimate must land within LIMIT_BOUND of it.
"""

from fractions import Fraction as F

import pytest

from tropasym import (
    estimate_p_infinity,
    geometric_schedule,
    in_span,
    normalize_projective,
    normalized_trajectory,
    spectral_data,
)
from tropasym.figures import load_cases

EXACT_LIMITS = {
    "figure-2": (F(0), F(-1, 4), F(-1, 4)),
    "figure-3": (F(0), F(4), F(7, 2)),
    "figure-4": (F(0), F(-1, 2), F(-1)),
    "figure-6": (F(0), F(1), F(2)),
    "figure-7": (F(0), F(-2), F(-3)),
    "figure-8": (F(0), F(5, 3), F(4, 3)),
    "figure-9": (F(0), F(5, 3), F(4, 3)),
    "counterexample": (F(0), F(3, 2), F(2)),
}

# the worst case today is 2.27e-3 (figure-3 and the counterexample): the
# solver accepts warm starts whose residual certifies lambda_k but not the
# vector.  Tighten this once acceptance is certified on the vector
LIMIT_BOUND = 2.5e-3

# iterations the 8 default-schedule trajectories may take together: 512 when
# every uncertified start point goes straight to the squaring accelerator,
# 3,573 when up to 2000 lazy steps ran first
FIGURE_ITERATION_BUDGET = 1000


@pytest.fixture(scope="module")
def figure_trajectories():
    schedule = geometric_schedule()
    return [
        (case, normalized_trajectory(case.matrix.to_floats(), schedule))
        for case in load_cases()
    ]


def test_exact_limits(figure_trajectories):
    assert {case.name for case, _ in figure_trajectories} == set(EXACT_LIMITS)
    for case, traj in figure_trajectories:
        limit = normalize_projective(EXACT_LIMITS[case.name])
        assert in_span(limit, spectral_data(case.matrix).generators), case.name
        est = estimate_p_infinity(traj)
        err = max(abs(float(x) - y) for x, y in zip(limit.coords, est.point.coords))
        assert err <= LIMIT_BOUND, (case.name, err)


def test_figure_trajectories_iteration_budget(figure_trajectories):
    total = 0
    for _, traj in figure_trajectories:
        assert not traj.failures
        total += sum(s.iterations for s in traj.samples)
    assert total <= FIGURE_ITERATION_BUDGET
