import pickle

import numpy as np
import numpy.testing as npt
import pytest

from locfront import lp
from locfront.basis import enumerate_basis, eval_poly, vandermonde
from locfront.estimator import (
    Dataset,
    DatasetFormatError,
    EmptyWindowError,
    EstimatorConfig,
    UnboundedFitError,
    fit_at,
    fit_grid,
    fit_local_constant,
    load_dataset,
    save_dataset,
)
from locfront.windows import clip_window, contains_mask, objective_vector


def sine_dataset(rng, n, q=1):
    pts = rng.uniform(0, 1, (n, q))
    s = pts.sum(axis=1)
    y = 0.5 * np.sin(2 * np.pi * s) + 4 * s - rng.exponential(1.0, n)
    return Dataset(pts, y)


class TestFitAtExamples:
    def test_degree_zero_is_window_max(self):
        ds = Dataset(np.array([[0.45], [0.5], [0.55]]), np.array([0.2, 0.7, 0.5]))
        res = fit_at(ds, [0.5], EstimatorConfig(beta_star=0, h=0.1))
        assert res.value == 0.7
        assert res.status == "exact"
        assert res.n_active == 3

    def test_line_through_two_points(self):
        ds = Dataset(np.array([[0.4], [0.6]]), np.array([1.0, 2.0]))
        res = fit_at(ds, [0.5], EstimatorConfig(beta_star=1, h=0.15))
        assert res.value == pytest.approx(1.5, abs=1e-9)
        assert res.status == "exact"

    def test_single_point_degrades_to_constant(self):
        ds = Dataset(np.array([[0.55]]), np.array([3.3]))
        cfg = EstimatorConfig(beta_star=1, h=0.1, fallback="degrade_degree")
        res = fit_at(ds, [0.5], cfg)
        assert res.status == "degraded"
        assert res.effective_degree == 0
        assert res.value == 3.3

    def test_single_point_errors_without_fallback(self):
        ds = Dataset(np.array([[0.55]]), np.array([3.3]))
        cfg = EstimatorConfig(beta_star=1, h=0.1, fallback="error")
        with pytest.raises(UnboundedFitError):
            fit_at(ds, [0.5], cfg)

    def test_empty_window_policies(self):
        ds = Dataset(np.array([[0.9]]), np.array([1.0]))
        with pytest.raises(EmptyWindowError):
            fit_at(ds, [0.1], EstimatorConfig(beta_star=0, h=0.05, empty_window="error"))
        res = fit_at(
            ds, [0.1], EstimatorConfig(beta_star=0, h=0.05, empty_window="expand")
        )
        assert res.status == "expanded"
        assert res.effective_bandwidth > 0.05
        assert res.value == 1.0

    def test_dimension_mismatch(self):
        ds = Dataset(np.array([[0.5, 0.5]]), np.array([1.0]))
        with pytest.raises(ValueError):
            fit_at(ds, [0.5], EstimatorConfig(beta_star=0, h=0.1))


class TestFitLocalConstant:
    def test_window_max(self):
        ds = Dataset(np.array([[0.45], [0.5], [0.55]]), np.array([0.2, 0.7, 0.5]))
        assert fit_local_constant(ds, [0.5], 0.1) == 0.7

    def test_single_point(self):
        ds = Dataset(np.array([[0.52]]), np.array([-1.3]))
        assert fit_local_constant(ds, [0.5], 0.1) == -1.3

    def test_corner_clipped_window(self):
        ds = Dataset(np.array([[0.05], [0.5]]), np.array([2.0, 9.0]))
        # window at the corner only sees the nearby point
        assert fit_local_constant(ds, [0.0], 0.1) == 2.0

    def test_empty_window(self):
        ds = Dataset(np.array([[0.9]]), np.array([1.0]))
        with pytest.raises(EmptyWindowError):
            fit_local_constant(ds, [0.1], 0.05)


def assert_same_fit(a, b):
    assert a.value == b.value
    assert a.status == b.status
    assert a.effective_degree == b.effective_degree
    assert a.effective_bandwidth == b.effective_bandwidth
    assert a.n_active == b.n_active
    npt.assert_array_equal(a.coeffs.coeffs, b.coeffs.coeffs)


class TestFitGrid:
    def test_singleton_equals_fit_at(self):
        rng = np.random.default_rng(2)
        ds = sine_dataset(rng, 100)
        cfg = EstimatorConfig(beta_star=1, h=0.2)
        single = fit_at(ds, [0.37], cfg)
        grid = fit_grid(ds, [[0.37]], cfg)
        assert len(grid) == 1
        assert_same_fit(grid[0], single)

    def test_order_independence(self):
        rng = np.random.default_rng(3)
        ds = sine_dataset(rng, 150)
        cfg = EstimatorConfig(beta_star=2, h=0.25)
        pts = rng.uniform(0, 1, (12, 1))
        perm = rng.permutation(12)
        forward = fit_grid(ds, pts, cfg)
        shuffled = fit_grid(ds, pts[perm], cfg)
        for i, j in enumerate(perm):
            assert_same_fit(shuffled[i], forward[j])

    def test_error_identifies_point(self):
        ds = Dataset(np.array([[0.9]]), np.array([1.0]))
        cfg = EstimatorConfig(beta_star=0, h=0.05, empty_window="error")
        with pytest.raises(EmptyWindowError, match="grid point 1"):
            fit_grid(ds, [[0.9], [0.1]], cfg)


class TestInvariants:
    """Randomized versions of the estimator contract, small scale."""

    def test_above_the_data(self):
        rng = np.random.default_rng(40)
        for _ in range(60):
            q = int(rng.integers(1, 3))
            ds = sine_dataset(rng, int(rng.integers(20, 80)), q)
            cfg = EstimatorConfig(
                beta_star=int(rng.integers(0, 4)),
                h=float(rng.uniform(0.15, 0.5)),
                empty_window="expand",
            )
            x = rng.uniform(0, 1, q)
            res = fit_at(ds, x, cfg)
            w = clip_window(x, res.effective_bandwidth)
            mask = contains_mask(w, ds.points)
            fitted = eval_poly(res.coeffs, ds.points[mask], x)
            assert np.all(fitted >= ds.responses[mask] - 1e-7)

    def test_degree_zero_fast_path_equality(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            q = int(rng.integers(1, 4))
            ds = sine_dataset(rng, 60, q)
            h = float(rng.uniform(0.2, 0.6))
            x = rng.uniform(0, 1, q)
            res = fit_at(ds, x, EstimatorConfig(beta_star=0, h=h, empty_window="expand"))
            if res.status == "exact":
                assert res.value == fit_local_constant(ds, x, h)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            ds = sine_dataset(rng, 70, 2)
            shift = float(rng.uniform(-5, 5))
            shifted = Dataset(ds.points, ds.responses + shift)
            cfg = EstimatorConfig(beta_star=int(rng.integers(0, 3)), h=0.3)
            x = rng.uniform(0.1, 0.9, 2)
            base = fit_at(ds, x, cfg)
            moved = fit_at(shifted, x, cfg)
            assert moved.value - base.value == pytest.approx(shift, abs=1e-9)
            assert moved.status == base.status

    def test_objective_never_decreases_with_new_point(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            ds = sine_dataset(rng, 50, 1)
            cfg = EstimatorConfig(beta_star=int(rng.integers(0, 3)), h=0.3)
            x = rng.uniform(0.2, 0.8, 1)
            res = fit_at(ds, x, cfg)
            if res.status != "exact":
                continue
            v = objective_vector(clip_window(x, cfg.h), res.coeffs.basis)
            before = float(v @ res.coeffs.coeffs)
            extra_pt = x + rng.uniform(-cfg.h, cfg.h, 1)
            extra_pt = np.clip(extra_pt, 0, 1)
            extra_y = float(rng.uniform(-2, 8))
            grown = Dataset(
                np.vstack([ds.points, extra_pt[None, :]]),
                np.append(ds.responses, extra_y),
            )
            res2 = fit_at(grown, x, cfg)
            v2 = objective_vector(clip_window(x, cfg.h), res2.coeffs.basis)
            after = float(v2 @ res2.coeffs.coeffs)
            assert after >= before - 1e-7

    def test_local_constant_below_fitted_window_max(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            ds = sine_dataset(rng, 60, 2)
            h = 0.3
            x = rng.uniform(0, 1, 2)
            cfg = EstimatorConfig(beta_star=2, h=h, empty_window="expand")
            res = fit_at(ds, x, cfg)
            lc = fit_local_constant(ds, x, res.effective_bandwidth)
            w = clip_window(x, res.effective_bandwidth)
            mask = contains_mask(w, ds.points)
            fitted_max = float(np.max(eval_poly(res.coeffs, ds.points[mask], x)))
            assert lc <= fitted_max + 1e-7


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.1], [0.2]]), np.array([1.0]))

    def test_outside_cube(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.3]]), np.array([1.0]))

    def test_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 1)), np.empty(0))

    def test_owns_its_arrays(self):
        rng = np.random.default_rng(45)
        x = rng.uniform(0, 1, (200, 2))
        y = rng.uniform(0, 1, 200)
        ds = Dataset(x, y)
        cfg = EstimatorConfig(beta_star=1, h=0.2)
        before = fit_at(ds, [0.4, 0.6], cfg)  # builds the window index
        x[:, 0] = x[::-1, 0]
        y += 10.0
        assert_same_fit(fit_at(ds, [0.4, 0.6], cfg), before)

    def test_arrays_are_read_only(self):
        ds = Dataset(np.array([[0.2, 0.3], [0.6, 0.7]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ds.points[0, 0] = 0.5
        with pytest.raises(ValueError):
            ds.responses[0] = 0.5

    def test_pickled_copy_is_read_only(self):
        ds = Dataset(np.array([[0.2, 0.3], [0.6, 0.7]]), np.array([1.0, 2.0]))
        cfg = EstimatorConfig(beta_star=0, h=0.5)
        before = fit_at(ds, [0.4, 0.5], cfg)
        copy = pickle.loads(pickle.dumps(ds))
        assert not copy.points.flags.writeable
        assert not copy.responses.flags.writeable
        assert_same_fit(fit_at(copy, [0.4, 0.5], cfg), before)


def full_mask_fit(ds, x, cfg):
    """fit_at's recipe with the window rows taken from a full-array mask:
    (value, n_active, effective_bandwidth, effective_degree)."""
    h = cfg.h
    mask = contains_mask(clip_window(x, h), ds.points)
    while not mask.any():
        h *= cfg.expand_factor
        mask = contains_mask(clip_window(x, h), ds.points)
    pts, y = ds.points[mask], ds.responses[mask]
    full_basis = enumerate_basis(ds.q, cfg.beta_star)
    A = vandermonde(full_basis, pts, x)
    v = objective_vector(clip_window(x, h), full_basis)
    shift = float(y.max())
    for degree in range(cfg.beta_star, -1, -1):
        p = len(enumerate_basis(ds.q, degree))
        outcome = lp.solve(lp.LpProblem(v[:p], A[:, :p], y - shift))
        if isinstance(outcome, lp.Optimal):
            return outcome.solution[0] + shift, int(mask.sum()), h, degree
    raise AssertionError("degree 0 must be bounded")


class TestWindowIndex:
    def test_fit_grid_matches_full_mask_lps(self):
        rng = np.random.default_rng(46)
        pts = rng.uniform(0, 1, (3000, 2))
        pts = pts[~np.all(pts < 0.3, axis=1)]  # an empty corner forces expansion
        s = pts.sum(axis=1)
        ds = Dataset(pts, 0.5 * np.sin(2 * np.pi * s) + 4 * s - rng.exponential(1.0, len(pts)))
        cfg = EstimatorConfig(beta_star=1, h=0.03, empty_window="expand")
        axis = np.linspace(0.0, 1.0, 9)
        grid = np.array([(a, b) for b in axis for a in axis])
        fits = fit_grid(ds, grid, cfg)
        assert {fit.status for fit in fits} == {"exact", "expanded", "degraded"}
        for x, fit in zip(grid, fits):
            value, n_active, h_eff, degree = full_mask_fit(ds, x, cfg)
            assert fit.value == value
            assert fit.n_active == n_active
            assert fit.effective_bandwidth == h_eff
            assert fit.effective_degree == degree


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta_star": -1, "h": 0.1},
            {"beta_star": 1, "h": 0.0},
            {"beta_star": 1, "h": 0.1, "fallback": "punt"},
            {"beta_star": 1, "h": 0.1, "empty_window": "shrink"},
            {"beta_star": 1, "h": 0.1, "expand_factor": 1.0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = sine_dataset(rng, 25, 2)
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        npt.assert_array_equal(loaded.points, ds.points)
        npt.assert_array_equal(loaded.responses, ds.responses)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n0.1,0.2,3\n")
        with pytest.raises(DatasetFormatError, match="header"):
            load_dataset(path)

    def test_out_of_cube_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n0.5,1.0\n1.5,2.0\n")
        with pytest.raises(DatasetFormatError, match="line 3.*x1=1.5"):
            load_dataset(path)

    def test_non_numeric_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n0.5,oops\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n0.5,0.5\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path)

    def test_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,y\n")
        with pytest.raises(DatasetFormatError, match="no data rows"):
            load_dataset(path)
