"""Property tests of fit_at, the window index and monomial evaluation over
random windows and datasets.

Windows run from h=0.01 to 0.5 and degrees up to the largest the sweeps use
(6 for q=1, 4 for q=2, 3 for q=3), so objective entries span many orders of
magnitude; tolerances are relative to the size of the terms compared. The
index and batched local-constant properties put points on and next to the
window faces, where rounding decides membership. Monomial values, window
integrals and gradients are checked against exact rational arithmetic.
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locfront.basis import PolyCoeffs, enumerate_basis, eval_poly, poly_gradient, vandermonde
from locfront.estimator import (
    Dataset,
    EmptyWindowError,
    EstimatorConfig,
    fit_at,
    fit_local_constant,
)
from locfront.windows import clip_window, contains_mask, objective_vector, window_rows

from oracles import exact_monomial_row, exact_window_integral

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
    mask = contains_mask(data.points, x, res.effective_bandwidth)
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


def _index_cases(h, spread):
    return st.tuples(
        st.integers(1, 3),
        h,
        st.sampled_from(["interior", "edge", "corner"]),
        st.integers(1, 150),
        st.integers(0, 2**32 - 1),
        spread,
    )


# the second kind puts a small window into thousands of points, so its slab
# is a thin slice of a large index
index_cases = st.one_of(
    _index_cases(st.floats(1e-3, 1.5), st.just(0)),
    _index_cases(st.floats(1e-3, 0.05), st.integers(1000, 5000)),
)


def make_index_case(q, h, where, n, seed, spread):
    """n points around a centre, of which a third sit on a face c +- h or one
    ulp either side of it and a third share a few first coordinates, then
    ``spread`` points uniform over the cube; centre inside the cube, on an
    edge (all but the last axis at 0 or 1) or on a corner."""
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
    pts = np.vstack([np.clip(pts, 0.0, 1.0), rng.uniform(0, 1, (spread, q))])
    return Dataset(pts, np.zeros(n + spread)), c, h


@settings(max_examples=300, deadline=None, derandomize=True)
@given(index_cases)
def test_window_rows_equal_a_full_mask(case):
    data, c, h = make_index_case(*case)
    expected = np.flatnonzero(contains_mask(data.points, c, h))
    np.testing.assert_array_equal(window_rows(data.index, c, h), expected)


batch_cases = st.tuples(
    st.integers(1, 3),
    st.floats(1e-3, 1.5),
    st.integers(1, 400),
    st.integers(1, 400),
    st.integers(0, 2**32 - 1),
)


def make_batch_case(q, h, n, m, seed):
    """m centres, each inside the cube, on a face (one axis at 0 or 1) or on
    a corner, and n points around them of which a third sit on a face
    c +- h of their centre or one ulp either side of it."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 1, (m, q))
    corners = rng.integers(0, 2, (m, q)).astype(float)
    kind = rng.integers(0, 3, m)
    axes = rng.integers(0, q, m)
    on_face = np.flatnonzero(kind == 1)
    centers[on_face, axes[on_face]] = corners[on_face, axes[on_face]]
    centers[kind == 2] = corners[kind == 2]
    owner = rng.integers(0, m, n)
    pts = centers[owner] + h * rng.uniform(-1.2, 1.2, (n, q))
    near = rng.random(n) < 1 / 3
    axes = rng.integers(0, q, n)
    face = centers[owner, axes] + h * rng.choice([-1.0, 1.0], n)
    face = np.nextafter(face, face + rng.choice([-1.0, 0.0, 1.0], n))
    pts[near, axes[near]] = face[near]
    return Dataset(np.clip(pts, 0.0, 1.0), rng.normal(size=n)), centers


@settings(max_examples=200, deadline=None, derandomize=True)
@given(batch_cases)
def test_batched_local_constant_equals_per_point_max(case):
    h = case[1]
    data, centers = make_batch_case(*case)
    masks = [contains_mask(data.points, c, h) for c in centers]
    empty = [i for i, mask in enumerate(masks) if not mask.any()]
    if empty:
        with pytest.raises(EmptyWindowError, match=re.escape(str(centers[empty[0]].tolist()))):
            fit_local_constant(data, centers, h)
        keep = [i for i, mask in enumerate(masks) if mask.any()]
        if not keep:
            return
        centers, masks = centers[keep], [masks[i] for i in keep]
    expected = [data.responses[mask].max() for mask in masks]
    assert fit_local_constant(data, centers, h).tolist() == expected
    assert fit_local_constant(data, centers[0], h) == expected[0]


EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny  # below it products underflow and lose relative accuracy

monomial_cases = st.integers(1, 3).flatmap(
    lambda q: st.tuples(
        st.just(q),
        st.integers(0, MAX_DEGREE[q]),
        st.floats(1e-3, 1.5),
        st.sampled_from(["interior", "face", "corner"]),
        st.integers(0, 2**32 - 1),
    )
)


def make_monomial_case(q, degree, h, where, seed):
    """A centre inside the cube, on a face (one axis at 0 or 1) or on a
    corner, its window, points in the window (the centre and two window
    corners among them) and random coefficients."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(0, 1, q)
    if where == "corner":
        c = rng.integers(0, 2, q).astype(float)
    elif where == "face":
        c[rng.integers(0, q)] = rng.integers(0, 2)
    lower, upper = np.array(clip_window(c, h))
    pts = lower + (upper - lower) * rng.uniform(0, 1, (8, q))
    pts = np.vstack([pts, c, lower, upper])
    basis = enumerate_basis(q, degree)
    return c, h, pts, PolyCoeffs(basis, rng.uniform(-1, 1, len(basis)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(monomial_cases)
def test_monomials_match_exact_rationals(case):
    c, h, pts, coeffs = make_monomial_case(*case)
    basis = coeffs.basis
    degrees = np.array([sum(j) for j in basis.indices])

    exact_rows = [exact_monomial_row(basis, t, c) for t in pts]
    exact = np.array(exact_rows, dtype=float)
    bound = 2 * (degrees + 1) * EPS * np.abs(exact) + TINY
    assert np.all(np.abs(vandermonde(basis, pts, c) - exact) <= bound)

    v = objective_vector(c, h, basis)
    lower, upper = np.array(clip_window(c, h))
    unclipped = (lower > 0.0) & (upper < 1.0)
    for entry, j, degree in zip(v, basis.indices, degrees):
        value, magnitude = exact_window_integral(lower, upper, c, h, j)
        assert abs(entry - float(value)) <= 8 * (degree + 1) * EPS * float(magnitude) + TINY
        if any(e % 2 and free for e, free in zip(j, unclipped)):
            assert entry == 0.0

    # d/dt_r (t - x)**j = j_r (t - x)**(j - e_r), summed exactly
    position = {j: k for k, j in enumerate(basis.indices)}
    grad = poly_gradient(coeffs, pts, c)
    for row, exact_row in zip(grad, exact_rows):
        for r in range(basis.q):
            terms = [
                e * Fraction(cj) * exact_row[position[j[:r] + (e - 1,) + j[r + 1 :]]]
                for j, cj in zip(basis.indices, coeffs.coeffs.tolist())
                if (e := j[r])
            ]
            scale = float(sum(abs(term) for term in terms))
            tol = (basis.max_degree + len(basis)) * EPS * scale + TINY
            assert abs(row[r] - float(sum(terms))) <= tol
