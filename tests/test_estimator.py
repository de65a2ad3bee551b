import copy
import pickle
import re

import numpy as np
import numpy.testing as npt
import pytest

from locfront import lp, windows
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
from locfront.synthetic import lattice
from locfront.windows import contains_mask, objective_vector, window_rows

from oracles import count_calls


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
        cfg = EstimatorConfig(beta_star=0, h=0.1)
        ds = Dataset(np.array([[0.5, 0.5]]), np.array([1.0]))
        for x in ([0.5], [[0.5, 0.5]], [[0.5], [0.5]], [[[0.5, 0.5]]]):
            with pytest.raises(ValueError, match=re.escape(f"{np.shape(x)}; expected (2,)")):
                fit_at(ds, x, cfg)
        line = Dataset(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(ValueError, match=re.escape("(); expected (1,)")):
            fit_at(line, 0.5, cfg)


class TestDegreeZero:
    """A fit that reaches degree 0 is the constant at the window maximum,
    taken directly: no LP, and the value ``fit_local_constant`` returns."""

    # row 0 lies outside the window (0.5, 0.2); inside it, row 1's response
    # is within the LP's tolerance of the maximum at row 2
    RESPONSES = np.array([5.0, 1 - 1e-12, 1.0, 0.0])
    SPREAD = Dataset(np.array([[0.9], [0.4], [0.5], [0.6]]), RESPONSES)
    # one covariate value: every degree >= 1 is unbounded, so beta* = 2 degrades to 0
    STACKED = Dataset(np.array([[0.9], [0.6], [0.6], [0.6]]), RESPONSES)
    CASES = [(SPREAD, 0, "exact"), (STACKED, 0, "exact"), (STACKED, 2, "degraded")]

    @pytest.fixture
    def solves(self, monkeypatch):
        return count_calls(monkeypatch, "locfront.lp", "solve")

    @pytest.mark.parametrize("ds,beta_star,status", CASES,
                             ids=["spread-beta0", "stacked-beta0", "stacked-beta2"])
    def test_tolerance_tie_takes_the_exact_maximum(self, solves, ds, beta_star, status):
        # an LP may stop on row 1, within its tolerance of the maximum, and
        # report 0.999999999999
        fit = fit_at(ds, [0.5], EstimatorConfig(beta_star=beta_star, h=0.2), start=[1])
        assert (fit.status, fit.effective_degree) == (status, 0)
        assert fit.value == 1.0
        assert fit.value == fit_local_constant(ds, [0.5], 0.2)
        assert fit.coeffs.coeffs.tolist() == [1.0]
        npt.assert_array_equal(fit.active_rows, [2])
        # degree 0 solves nothing, so the one-row start reaches no LP
        assert [call["prob"].shape[1] for call in solves] == list(range(beta_star + 1, 1, -1))
        assert all(call["start"] is None for call in solves)

    def test_active_row_is_the_first_row_at_the_maximum(self, solves):
        # rows 2 and 3 tie exactly at the maximum; one covariate value again
        ds = Dataset(np.array([[0.9], [0.55], [0.55], [0.55]]), np.array([5.0, 0.2, 0.7, 0.7]))
        for beta_star in (0, 3):
            fit = fit_at(ds, [0.5], EstimatorConfig(beta_star=beta_star, h=0.1))
            assert fit.effective_degree == 0
            npt.assert_array_equal(fit.active_rows, [2])
        assert [call["prob"].shape[1] for call in solves] == [4, 3, 2]

    def test_only_an_lp_fit_builds_the_design_and_objective(self, monkeypatch):
        built = [count_calls(monkeypatch, module, name) for module, name in (
            ("locfront.basis", "vandermonde"), ("locfront.windows", "objective_vector"),
            ("locfront.windows", "clip_window"))]
        cfg = EstimatorConfig(beta_star=0, h=0.05, empty_window="expand")
        fit_at(self.SPREAD, [0.5], cfg)
        fit_grid(self.SPREAD, [[0.1], [0.5], [0.7]], cfg)
        assert built == [[], [], []]
        # the window around 0.1 grows five times, to hold row 1 at 0.4, and
        # its one point leaves degree 1 unbounded: one build serves both degrees
        fit = fit_at(self.SPREAD, [0.1], EstimatorConfig(1, 0.05, empty_window="expand"))
        assert (fit.status, fit.effective_degree) == ("degraded", 0)
        assert fit.effective_bandwidth == pytest.approx(0.05 * 1.5**5)
        assert [len(calls) for calls in built] == [1, 1, 1]
        assert built[2][0]["h"] == fit.effective_bandwidth


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
        # every slab is empty: below the first key, then past the last one
        for point, center in [(0.9, 0.1), (0.1, 0.9)]:
            ds = Dataset(np.array([[point]]), np.array([1.0]))
            with pytest.raises(EmptyWindowError):
                fit_local_constant(ds, [center], 0.05)
            with pytest.raises(EmptyWindowError):
                fit_local_constant(ds, [[center], [center]], 0.05)

    def test_batch_returns_array_single_point_float(self):
        ds = Dataset(np.array([[0.45], [0.5], [0.55]]), np.array([0.2, 0.7, 0.5]))
        batch = fit_local_constant(ds, [[0.4], [0.5], [0.6]], 0.06)
        assert isinstance(batch, np.ndarray)
        assert batch.tolist() == [0.2, 0.7, 0.5]
        assert isinstance(fit_local_constant(ds, [0.6], 0.06), float)

    def test_batch_with_empty_window_names_the_point(self):
        ds = Dataset(np.array([[0.2, 0.2], [0.8, 0.8]]), np.array([1.0, 2.0]))
        with pytest.raises(EmptyWindowError, match=r"\[0\.5, 0\.25\]"):
            fit_local_constant(ds, [[0.2, 0.2], [0.5, 0.25], [0.8, 0.8]], 0.1)

    def test_batch_rejects_bad_input(self):
        ds = Dataset(np.array([[0.2, 0.2]]), np.array([1.0]))
        with pytest.raises(ValueError, match="outside the unit cube"):
            fit_local_constant(ds, [[0.2, 0.2], [0.5, 1.5]], 0.1)
        with pytest.raises(ValueError, match="shape"):
            fit_local_constant(ds, [[0.2, 0.2, 0.2]], 0.1)
        with pytest.raises(ValueError, match="shape"):
            fit_local_constant(ds, np.full((2, 1, 2), 0.2), 0.1)
        with pytest.raises(ValueError, match="bandwidth"):
            fit_local_constant(ds, [[0.2, 0.2]], float("nan"))

    def test_batch_over_many_blocks_equals_per_point_scan(self):
        rng = np.random.default_rng(41)
        ds = Dataset(rng.uniform(0, 1, (2000, 2)), rng.normal(size=2000))
        centers = rng.uniform(0, 1, (500, 2))
        h = 0.6
        lo, hi = ds.index.slab(centers[:, 0], h)
        assert centers.shape[0] * int((hi - lo).max()) > 4 * windows._BLOCK_CELLS
        expected = [
            ds.responses[contains_mask(ds.points, c, h)].max() for c in centers
        ]
        assert fit_local_constant(ds, centers, h).tolist() == expected

    @pytest.mark.parametrize("cells", [50, 500])
    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_blocks_keep_to_the_cell_budget(self, monkeypatch, cells, order):
        """Centres in reverse key order or shuffled, over a 12x12 lattice that
        repeats every key: each maximum equals a full-array mask's, -inf for
        the empty windows at both ends of the keys, and a ``within`` call of
        more than one centre tests at most ``_BLOCK_CELLS`` (centre, row) pairs."""
        rng = np.random.default_rng(12)
        points = lattice(np.linspace(0.25, 0.75, 12), 2)
        ds = Dataset(points, rng.normal(size=points.shape[0]))
        centers = lattice(np.linspace(0.0, 1.0, 12), 2)
        if order == "reversed":
            centers = centers[np.argsort(centers[:, 0], kind="stable")[::-1]]
        else:
            centers = centers[rng.permutation(centers.shape[0])]
        h = 0.1
        expected = [ds.responses[contains_mask(ds.points, c, h)].max(initial=-np.inf)
                    for c in centers]
        ends = (centers[:, 0] == 0.0) | (centers[:, 0] == 1.0)
        assert np.isneginf(np.array(expected)[ends]).all()
        monkeypatch.setattr(windows, "_BLOCK_CELLS", cells)
        calls = count_calls(monkeypatch, "locfront.windows", "within")
        maxima = windows.window_maxima(ds.index, ds.responses, centers, h)
        assert maxima.tolist() == expected
        blocks = [(call["centers"].shape[0], call["result"].size) for call in calls]
        assert sum(size for size, _ in blocks) == centers.shape[0]
        assert max(size for size, _ in blocks) > 1
        assert all(pairs <= cells for size, pairs in blocks if size > 1)


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
            mask = contains_mask(ds.points, x, res.effective_bandwidth)
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
            v = objective_vector(x, cfg.h, res.coeffs.basis)
            before = float(v @ res.coeffs.coeffs)
            extra_pt = x + rng.uniform(-cfg.h, cfg.h, 1)
            extra_pt = np.clip(extra_pt, 0, 1)
            extra_y = float(rng.uniform(-2, 8))
            grown = Dataset(
                np.vstack([ds.points, extra_pt[None, :]]),
                np.append(ds.responses, extra_y),
            )
            res2 = fit_at(grown, x, cfg)
            v2 = objective_vector(x, cfg.h, res2.coeffs.basis)
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
            mask = contains_mask(ds.points, x, res.effective_bandwidth)
            fitted_max = float(np.max(eval_poly(res.coeffs, ds.points[mask], x)))
            assert lc <= fitted_max + 1e-7


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.1], [0.2]]), np.array([1.0]))

    def test_outside_cube(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.3]]), np.array([1.0]))

    @pytest.mark.parametrize(
        "x,y",
        [(np.nan, 1.0), (np.inf, 1.0), (0.5, np.nan), (0.5, np.inf), (0.5, -np.inf)],
    )
    def test_non_finite_rejected(self, x, y):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.2, 0.3], [x, 0.7]]), np.array([1.0, y]))

    def test_compares_by_identity(self):
        a = Dataset(np.array([[0.2]]), np.array([1.0]))
        b = Dataset(np.array([[0.2]]), np.array([1.0]))
        assert a == a and a != b
        assert len({a, b, a}) == 2

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


class TestStartRows:
    """``FitResult.active_rows`` and the ``start`` they give a later fit."""

    def test_active_rows_are_window_rows_the_fit_touches(self):
        rng = np.random.default_rng(48)
        ds = sine_dataset(rng, 300, q=2)
        grid = rng.uniform(0, 1, (20, 2))
        fits = fit_grid(ds, grid, EstimatorConfig(beta_star=2, h=0.1))
        assert {fit.status for fit in fits} == {"exact", "degraded"}
        for x, fit in zip(grid, fits):
            rows = fit.active_rows
            assert rows.tolist() == sorted(set(rows.tolist()))
            assert rows.size == len(fit.coeffs.coeffs)
            assert set(rows.tolist()) <= set(window_rows(ds.index, x, 0.1).tolist())
            npt.assert_allclose(eval_poly(fit.coeffs, ds.points[rows], x),
                                ds.responses[rows], rtol=0, atol=1e-9)

    def test_start_is_used_only_when_it_fits_window_and_degree(self, monkeypatch):
        rng = np.random.default_rng(49)
        ds = sine_dataset(rng, 200)
        x = np.array([0.5])
        below = fit_at(ds, x, EstimatorConfig(beta_star=2, h=0.1))
        cfg = EstimatorConfig(beta_star=2, h=0.15)
        cold = fit_at(ds, x, cfg)
        far = int(np.argmax(np.abs(ds.points[:, 0] - 0.5)))
        starts = []
        solve = lp.solve

        def recording(prob, start=None):
            starts.append(start)
            return solve(prob, start=start)

        monkeypatch.setattr(lp, "solve", recording)
        for start, used in ((below.active_rows, True),
                            (below.active_rows[:2], False),  # p = 2 is no degree-2 basis
                            (np.sort([far, *below.active_rows[1:]]), False)):
            starts.clear()
            fit = fit_at(ds, x, cfg, start=start)
            assert (starts[0] is not None) == used
            assert_same_fit(fit, cold)
            npt.assert_array_equal(fit.active_rows, cold.active_rows)

    def test_one_start_per_grid_point(self):
        ds = sine_dataset(np.random.default_rng(50), 50)
        cfg = EstimatorConfig(beta_star=1, h=0.3)
        with pytest.raises(ValueError):
            fit_grid(ds, [[0.2], [0.8]], cfg, starts=[None])


def full_mask_fit(ds, x, cfg):
    """fit_at's recipe with the window rows taken from a full-array mask:
    (value, n_active, effective_bandwidth, effective_degree)."""
    h = cfg.h
    mask = contains_mask(ds.points, x, h)
    while not mask.any():
        h *= 1.5
        mask = contains_mask(ds.points, x, h)
    pts, y = ds.points[mask], ds.responses[mask]
    full_basis = enumerate_basis(ds.q, cfg.beta_star)
    A = vandermonde(full_basis, pts, x)
    v = objective_vector(x, h, full_basis)
    shift = float(y.max())
    for degree in range(cfg.beta_star, -1, -1):
        p = len(enumerate_basis(ds.q, degree))
        outcome = lp.solve(lp.LpProblem(v[:p], A[:, :p], y - shift))
        if isinstance(outcome, lp.Optimal):
            return outcome.solution[0] + shift, int(mask.sum()), h, degree
    raise AssertionError("degree 0 must be bounded")


class TestWindowIndex:
    def test_layout(self):
        rng = np.random.default_rng(47)
        ds = Dataset(rng.uniform(0, 1, (500, 3)), rng.normal(size=500))
        index = ds.index
        for array in (index.points, index.order, index.coords):
            assert not array.flags.writeable
        assert index.coords.flags.c_contiguous
        assert np.all(np.diff(index.coords[0]) >= 0)
        npt.assert_array_equal(index.coords.T, ds.points[index.order])
        centers = rng.uniform(0, 1, (20, 3))
        expected = [window_rows(index, c, 0.07) for c in centers]
        for rebuilt in (pickle.loads(pickle.dumps(ds)), copy.copy(ds)):
            assert rebuilt.index is not index
            for c, rows in zip(centers, expected):
                npt.assert_array_equal(window_rows(rebuilt.index, c, 0.07), rows)

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
            {"beta_star": 1, "h": float("nan")},
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

    @pytest.mark.parametrize(
        "text,outcome",
        [("", "empty file$"),
         ("x1,y\n\n , \n", "no data rows$"),
         ("x1,y\n\n0.5,1.0\n , \n0.25,2.0\n\n", [1.0, 2.0])],
        ids=["empty-file", "only-blank-lines", "blank-lines-skipped"],
    )
    def test_empty_file_and_blank_lines(self, tmp_path, text, outcome):
        path = tmp_path / "data.csv"
        path.write_text(text)
        if isinstance(outcome, str):
            with pytest.raises(DatasetFormatError, match=outcome):
                load_dataset(path)
        else:
            assert load_dataset(path).responses.tolist() == outcome

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

    @pytest.mark.parametrize("y", ["inf", "-inf", "nan"])
    def test_non_finite_response_line_number(self, tmp_path, y):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,y\n0.5,1.0\n0.6,{y}\n")
        with pytest.raises(DatasetFormatError, match="line 3.*not finite"):
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
