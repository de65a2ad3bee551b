import numpy as np
import numpy.testing as npt
import pytest

from locfront.basis import enumerate_basis
from locfront.estimator import Dataset, EstimatorConfig, fit_at
from locfront.windows import clip_window, contains_mask, objective_vector

from oracles import quad_monomial_integral


class TestClipWindow:
    def test_interior_point(self):
        lower, upper = clip_window((0.5, 0.5), 0.1)
        npt.assert_allclose(lower, [0.4, 0.4])
        npt.assert_allclose(upper, [0.6, 0.6])

    def test_boundary_clip(self):
        lower, upper = clip_window((0.0, 0.5), 0.1)
        npt.assert_allclose(lower, [0.0, 0.4])
        npt.assert_allclose(upper, [0.1, 0.6])

    def test_large_bandwidth_whole_cube(self):
        lower, upper = clip_window((0.5,), 2.0)
        npt.assert_array_equal(lower, [0.0])
        npt.assert_array_equal(upper, [1.0])

    def test_leaves_the_callers_point_writable(self):
        pt = np.array([0.5, 0.5])
        lower, upper = clip_window(pt, 0.1)
        assert pt.flags.writeable
        pt[0] = 0.3
        npt.assert_array_equal(lower, [0.4, 0.4])
        assert all(type(end) is float for end in lower + upper)
        fit_at(Dataset(np.array([[0.3, 0.5]]), np.array([1.0])), pt, EstimatorConfig(0, 0.1))
        assert pt.flags.writeable
        pt[1] = 0.2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            clip_window((1.2,), 0.1)
        with pytest.raises(ValueError):
            clip_window((0.5,), 0.0)
        with pytest.raises(ValueError):
            clip_window((0.5,), float("nan"))
        with pytest.raises(ValueError):
            clip_window((float("nan"), 0.5), 0.3)
        # a batch of centres is not one window; objective_vector inherits the check
        shape = r"^window center must have shape \(q,\), got shape \(1, 2\)$"
        with pytest.raises(ValueError, match=shape):
            clip_window([[0.5, 0.5]], 0.1)
        with pytest.raises(ValueError, match=r"got shape \(2, 2\)$"):
            objective_vector(np.full((2, 2), 0.5), 0.1, enumerate_basis(2, 1))

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_bounds_equal_numpy_clipping_byte_for_byte(self, q):
        rng = np.random.default_rng(q)
        centers = [np.zeros(q), np.ones(q), np.full(q, 0.7), rng.uniform(0, 1, q),
                   np.array([0.0, 1.0, 0.3][:q]), np.array([1e-300, 1.0 - 2**-53, 0.5][:q])]
        for x in centers:
            # h below one ulp of the centre, small, moderate, 1 and beyond
            for h in (5e-324, np.spacing(0.7) / 4, 1e-17, 0.01, 0.3, 1.0, 1.5, 7.0):
                lower, upper = clip_window(x, h)
                assert np.array(lower).tobytes() == np.maximum(x - h, 0.0).tobytes()
                assert np.array(upper).tobytes() == np.minimum(x + h, 1.0).tobytes()

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_invalid_inputs_raise_the_same_messages(self, q):
        inside = np.full(q, 0.5)
        for bad in (np.nan, -0.1, 1.0 + 2**-52, -np.inf):
            x = inside.copy()
            x[-1] = bad
            with pytest.raises(ValueError, match=r"window center \[.*\] outside the unit cube"):
                clip_window(x, 0.1)
        for h in (0.0, -0.0, -0.2, np.nan, -np.inf):
            with pytest.raises(ValueError, match="bandwidth must be positive, got"):
                clip_window(inside, h)

    def test_positive_axis_lengths(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = rng.integers(1, 4)
            x = rng.uniform(0, 1, q)
            lower, upper = np.array(clip_window(x, rng.uniform(0.01, 1.5)))
            assert np.all(upper - lower > 0)
            assert np.all(lower <= x) and np.all(x <= upper)


class TestContains:
    def test_inside(self):
        assert contains_mask((0.55, 0.45), (0.5, 0.5), 0.1).tolist() == [True]

    def test_one_axis_out(self):
        assert contains_mask((0.65, 0.5), (0.5, 0.5), 0.1).tolist() == [False]

    def test_closed_boundary(self):
        assert contains_mask((0.6, 0.6), (0.5, 0.5), 0.1).tolist() == [True]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains_mask((0.5,), (0.5, 0.5), 0.1)


def monomial_integral(x, h, exponents) -> float:
    """Window integral of (t - x)**j read from the objective vector."""
    basis = enumerate_basis(len(x), sum(exponents))
    return objective_vector(x, h, basis)[basis.indices.index(tuple(exponents))]


class TestMonomialIntegral:
    def test_interval_length(self):
        assert monomial_integral((0.5,), 0.1, (0,)) == pytest.approx(0.2, abs=1e-15)

    def test_odd_over_symmetric_window(self):
        assert monomial_integral((0.5,), 0.1, (1,)) == 0.0

    def test_clipped_linear_against_quadrature(self):
        # integral of t over [0, 0.1]
        lower, upper = clip_window((0.0,), 0.1)
        oracle = quad_monomial_integral(lower, upper, (0.0,), (1,))
        value = monomial_integral((0.0,), 0.1, (1,))
        assert value == pytest.approx(0.005, abs=1e-12)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            objective_vector((0.5, 0.5), 0.1, enumerate_basis(1, 1))


class TestObjectiveVector:
    def test_symmetric_interval_degree_one(self):
        lower, upper = clip_window((0.5,), 0.1)
        v = objective_vector((0.5,), 0.1, enumerate_basis(1, 1))
        oracle = [
            quad_monomial_integral(lower, upper, (0.5,), j)
            for j in enumerate_basis(1, 1).indices
        ]
        npt.assert_allclose(v, [0.2, 0.0], atol=1e-15)
        npt.assert_allclose(v, oracle, atol=1e-12)

    def test_square_area(self):
        v = objective_vector((0.5, 0.5), 0.1, enumerate_basis(2, 0))
        npt.assert_allclose(v, [0.04], atol=1e-15)

    def test_clipped_interval(self):
        v = objective_vector((0.0,), 0.1, enumerate_basis(1, 1))
        npt.assert_allclose(v, [0.1, 0.005], atol=1e-12)

    def test_volume_entry_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            q = int(rng.integers(1, 4))
            x, h = rng.uniform(0, 1, q), rng.uniform(0.01, 1.2)
            lower, upper = np.array(clip_window(x, h))
            basis = enumerate_basis(q, int(rng.integers(0, 4)))
            v = objective_vector(x, h, basis)
            assert v[0] == pytest.approx(np.prod(upper - lower), rel=1e-14)
            assert v[0] > 0

    def test_unclipped_odd_entries_exactly_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = int(rng.integers(1, 4))
            h = rng.uniform(0.01, 0.2)
            x = rng.uniform(h + 1e-6, 1 - h - 1e-6, q)
            basis = enumerate_basis(q, 3)
            v = objective_vector(x, h, basis)
            for entry, j in zip(v, basis.indices):
                if any(e % 2 == 1 for e in j):
                    assert entry == 0.0

    def test_quadrature_agreement_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            q = int(rng.integers(1, 4))
            basis = enumerate_basis(q, int(rng.integers(0, 4)))
            x, h = rng.uniform(0, 1, q), rng.uniform(0.01, 1.2)
            lower, upper = clip_window(x, h)
            v = objective_vector(x, h, basis)
            for entry, j in zip(v, basis.indices):
                oracle = quad_monomial_integral(lower, upper, x, j)
                assert entry == pytest.approx(oracle, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            objective_vector((0.5,), 0.1, enumerate_basis(2, 1))
