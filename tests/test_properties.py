"""Property tests of fit_at and the window index over random windows and
datasets.

Windows run from h=0.01 to 0.5 and degrees up to the largest the sweeps use
(6 for q=1, 4 for q=2, 3 for q=3), so objective entries span many orders of
magnitude; tolerances are relative to the size of the terms compared. The
index property puts points on and next to the window faces, where rounding
decides membership.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from locfront.basis import eval_poly, vandermonde
from locfront.estimator import Dataset, EstimatorConfig, fit_at
from locfront.windows import clip_window, contains_mask, window_rows

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


index_cases = st.tuples(
    st.integers(1, 3),
    st.floats(1e-3, 1.5),
    st.sampled_from(["interior", "edge", "corner"]),
    st.integers(1, 150),
    st.integers(0, 2**32 - 1),
)


def make_index_case(q, h, where, n, seed):
    """Points of which a third sit on a face c +- h or one ulp either side of
    it, and a third share a few first coordinates; centre inside the cube, on
    an edge (all but the last axis at 0 or 1) or on a corner."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(0, 1, q)
    if where == "corner":
        c = rng.integers(0, 2, q).astype(float)
    elif where == "edge":
        c[: q - 1] = rng.integers(0, 2, q - 1)
    pts = c + h * rng.uniform(-1.2, 1.2, (n, q))
    on_face = rng.random(n) < 1 / 3
    axes = rng.integers(0, q, n)
    face = c[axes] + h * rng.choice([-1.0, 1.0], n)
    face = np.nextafter(face, face + rng.choice([-1.0, 0.0, 1.0], n))
    pts[on_face, axes[on_face]] = face[on_face]
    repeated = rng.random(n) < 1 / 3
    pts[repeated, 0] = rng.choice(pts[:, 0], 3)[rng.integers(0, 3, repeated.sum())]
    pts = np.clip(pts, 0.0, 1.0)
    return Dataset(pts, np.zeros(n)), clip_window(c, h)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(index_cases)
def test_window_rows_equal_a_full_mask(case):
    data, w = make_index_case(*case)
    expected = np.flatnonzero(contains_mask(w, data.points))
    np.testing.assert_array_equal(window_rows(w, data.index), expected)
