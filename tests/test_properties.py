"""Property tests of fit_at over random windows and datasets.

Windows run from h=0.01 to 0.5 and degrees up to the largest the sweeps use
(6 for q=1, 4 for q=2, 3 for q=3), so objective entries span many orders of
magnitude; tolerances are relative to the size of the terms compared.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from locfront.basis import eval_poly, vandermonde
from locfront.estimator import Dataset, EstimatorConfig, fit_at
from locfront.windows import clip_window, contains_mask

MAX_DEGREE = {1: 6, 2: 4, 3: 3}

cases = st.integers(1, 3).flatmap(
    lambda q: st.tuples(
        st.just(q),
        st.integers(0, MAX_DEGREE[q]),
        st.floats(0.01, 0.5),
        st.integers(1, 120),
        st.integers(0, 2**32 - 1),
    )
)


def make_case(q, degree, h, n, seed):
    """Data crowded around a random point x, so small windows hold rows."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, q)
    near = np.clip(x + h * rng.uniform(-1, 1, (n, q)), 0.0, 1.0)
    pts = np.vstack([near, rng.uniform(0, 1, (n // 4, q))])
    s = pts.sum(axis=1)
    y = 0.5 * np.sin(2 * np.pi * s) + 4 * s - rng.exponential(1.0, pts.shape[0])
    cfg = EstimatorConfig(beta_star=degree, h=h, empty_window="expand")
    return Dataset(pts, y), x, cfg


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases)
def test_fit_lies_above_every_windowed_response(case):
    data, x, cfg = make_case(*case)
    res = fit_at(data, x, cfg)
    mask = contains_mask(clip_window(x, res.effective_bandwidth), data.points)
    pts, y = data.points[mask], data.responses[mask]
    fitted = np.atleast_1d(eval_poly(res.coeffs, pts, x))
    terms = np.abs(vandermonde(res.coeffs.basis, pts, x)) @ np.abs(res.coeffs.coeffs)
    assert np.all(fitted - y >= -1e-9 * (terms + np.abs(y)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases, st.floats(-1e3, 1e3))
def test_shifting_responses_shifts_only_the_value(case, shift):
    data, x, cfg = make_case(*case)
    base = fit_at(data, x, cfg)
    moved = fit_at(Dataset(data.points, data.responses + shift), x, cfg)
    assert moved.status == base.status
    assert moved.effective_degree == base.effective_degree
    scale = np.abs(base.coeffs.coeffs) + abs(shift) + 1.0
    np.testing.assert_array_less(
        np.abs(moved.coeffs.coeffs[1:] - base.coeffs.coeffs[1:]), 1e-9 * scale[1:]
    )
    assert abs(moved.value - base.value - shift) <= 1e-9 * scale[0]
