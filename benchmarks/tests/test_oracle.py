"""The HiGHS oracle accepts right answers and flags wrong ones."""

import numpy as np
import pytest

import oracle
from locfront.lp import LpProblem, Optimal, Unbounded


def window_lp(seed, m=40, h=0.01, degree=6, x=0.5):
    """Fit LP of a 1-d window: rows (t-x)^j, objective their exact integrals,
    responses shifted to a zero maximum as the estimator does."""
    rng = np.random.default_rng(seed)
    t = x + h * rng.uniform(-1.0, 1.0, m)
    y = (t - 0.5) ** 3 + 2.0 - rng.exponential(1.0, m)
    j = np.arange(degree + 1)
    A = (t - x)[:, None] ** j
    v = (h ** (j + 1) - (-h) ** (j + 1)) / (j + 1)
    return LpProblem(v, A, y - y.max())


@pytest.fixture
def benign():
    prob = window_lp(3, m=60, h=0.3, degree=2)
    status, x = oracle.reference(prob.objective, prob.constraints, prob.rhs)
    assert status == "optimal"
    return prob, x


def test_reference_solution_passes(benign):
    prob, x = benign
    verdict = oracle.check(prob, Optimal(x, float(prob.objective @ x)))
    assert not verdict.mismatch
    assert verdict.rel_err < 1e-9


def test_flags_perturbed_objective(benign):
    prob, x = benign
    worse = x.copy()
    worse[0] += 1e-3  # still feasible, objective higher by 1e-3 * volume
    verdict = oracle.check(prob, Optimal(worse, float(prob.objective @ worse)))
    assert verdict.mismatch and verdict.expected == verdict.got == "optimal"


def test_flags_infeasible_claim(benign):
    prob, x = benign
    low = x.copy()
    low[0] -= 1e-3
    assert oracle.check(prob, Optimal(low, float(prob.objective @ low))).mismatch


def test_flags_wrong_status(benign):
    prob, _ = benign
    verdict = oracle.check(prob, Unbounded())
    assert verdict.mismatch and verdict.rel_err == float("inf")


# Outcomes the two-phase simplex returned for these LPs (h=0.01, degree 6):
# its absolute tolerance stops it early once the objective entries fall
# near h^7. Pinned so the test keeps checking the oracle after a fix.
STOPPED_EARLY = [
    -0.01434773843999105, 8.094040168783478, -614.353190070093,
    -163150.14222467205, 0.0, 0.0, 0.0,
]
CALLED_BOUNDED = [
    0.04033144517794088, -5.228107255910739, -2783.3412135402195,
    0.0, 0.0, 0.0, 0.0,
]


def test_flags_stress_lp_stopped_early():
    prob = window_lp(0)
    b = np.array(STOPPED_EARLY)
    verdict = oracle.check(prob, Optimal(b, float(prob.objective @ b)))
    assert verdict.expected == "optimal"
    assert verdict.mismatch and verdict.rel_err > 1e-2


def test_flags_stress_lp_reported_optimal_but_unbounded():
    prob = window_lp(10)
    b = np.array(CALLED_BOUNDED)
    verdict = oracle.check(prob, Optimal(b, float(prob.objective @ b)))
    assert (verdict.expected, verdict.got) == ("unbounded", "optimal")
    assert verdict.mismatch
