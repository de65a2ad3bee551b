import numpy as np
import numpy.testing as npt
import pytest

from locfront.basis import MultiIndex, enumerate_basis
from locfront.windows import clip_window, contains_mask, objective_vector

from oracles import quad_monomial_integral


class TestClipWindow:
    def test_interior_point(self):
        w = clip_window((0.5, 0.5), 0.1)
        npt.assert_allclose(w.lower, [0.4, 0.4])
        npt.assert_allclose(w.upper, [0.6, 0.6])

    def test_boundary_clip(self):
        w = clip_window((0.0, 0.5), 0.1)
        npt.assert_allclose(w.lower, [0.0, 0.4])
        npt.assert_allclose(w.upper, [0.1, 0.6])

    def test_large_bandwidth_whole_cube(self):
        w = clip_window((0.5,), 2.0)
        npt.assert_array_equal(w.lower, [0.0])
        npt.assert_array_equal(w.upper, [1.0])

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            clip_window((1.2,), 0.1)
        with pytest.raises(ValueError):
            clip_window((0.5,), 0.0)

    def test_positive_axis_lengths(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = rng.integers(1, 4)
            w = clip_window(rng.uniform(0, 1, q), rng.uniform(0.01, 1.5))
            assert np.all(w.upper - w.lower > 0)
            assert np.all(w.lower <= w.center) and np.all(w.center <= w.upper)


class TestContains:
    def test_inside(self):
        w = clip_window((0.5, 0.5), 0.1)
        assert contains_mask(w, (0.55, 0.45)).tolist() == [True]

    def test_one_axis_out(self):
        w = clip_window((0.5, 0.5), 0.1)
        assert contains_mask(w, (0.65, 0.5)).tolist() == [False]

    def test_closed_boundary(self):
        w = clip_window((0.5, 0.5), 0.1)
        assert contains_mask(w, (0.6, 0.6)).tolist() == [True]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains_mask(clip_window((0.5, 0.5), 0.1), (0.5,))


def monomial_integral(w, exponents) -> float:
    """Window integral of (t - x)**j read from the objective vector."""
    basis = enumerate_basis(w.q, sum(exponents))
    return objective_vector(w, basis)[basis.indices.index(MultiIndex(exponents))]


class TestMonomialIntegral:
    def test_interval_length(self):
        w = clip_window((0.5,), 0.1)
        assert monomial_integral(w, (0,)) == pytest.approx(0.2, abs=1e-15)

    def test_odd_over_symmetric_window(self):
        w = clip_window((0.5,), 0.1)
        assert monomial_integral(w, (1,)) == 0.0

    def test_clipped_linear_against_quadrature(self):
        # integral of t over [0, 0.1]
        w = clip_window((0.0,), 0.1)
        oracle = quad_monomial_integral(w.lower, w.upper, w.center, (1,))
        value = monomial_integral(w, (1,))
        assert value == pytest.approx(0.005, abs=1e-12)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            objective_vector(clip_window((0.5, 0.5), 0.1), enumerate_basis(1, 1))


class TestObjectiveVector:
    def test_symmetric_interval_degree_one(self):
        w = clip_window((0.5,), 0.1)
        v = objective_vector(w, enumerate_basis(1, 1))
        oracle = [
            quad_monomial_integral(w.lower, w.upper, w.center, mi.exponents)
            for mi in enumerate_basis(1, 1).indices
        ]
        npt.assert_allclose(v, [0.2, 0.0], atol=1e-15)
        npt.assert_allclose(v, oracle, atol=1e-12)

    def test_square_area(self):
        w = clip_window((0.5, 0.5), 0.1)
        v = objective_vector(w, enumerate_basis(2, 0))
        npt.assert_allclose(v, [0.04], atol=1e-15)

    def test_clipped_interval(self):
        w = clip_window((0.0,), 0.1)
        v = objective_vector(w, enumerate_basis(1, 1))
        npt.assert_allclose(v, [0.1, 0.005], atol=1e-12)

    def test_volume_entry_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            q = int(rng.integers(1, 4))
            w = clip_window(rng.uniform(0, 1, q), rng.uniform(0.01, 1.2))
            basis = enumerate_basis(q, int(rng.integers(0, 4)))
            v = objective_vector(w, basis)
            assert v[0] == pytest.approx(w.volume, rel=1e-14)
            assert v[0] > 0

    def test_unclipped_odd_entries_exactly_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = int(rng.integers(1, 4))
            h = rng.uniform(0.01, 0.2)
            x = rng.uniform(h + 1e-6, 1 - h - 1e-6, q)
            basis = enumerate_basis(q, 3)
            v = objective_vector(clip_window(x, h), basis)
            for entry, mi in zip(v, basis.indices):
                if any(e % 2 == 1 for e in mi.exponents):
                    assert entry == 0.0

    def test_quadrature_agreement_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            q = int(rng.integers(1, 4))
            basis = enumerate_basis(q, int(rng.integers(0, 4)))
            w = clip_window(rng.uniform(0, 1, q), rng.uniform(0.01, 1.2))
            v = objective_vector(w, basis)
            for entry, mi in zip(v, basis.indices):
                oracle = quad_monomial_integral(w.lower, w.upper, w.center, mi.exponents)
                assert entry == pytest.approx(oracle, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            objective_vector(clip_window((0.5,), 0.1), enumerate_basis(2, 1))
