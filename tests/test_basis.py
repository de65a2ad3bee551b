import itertools

import numpy as np
import numpy.testing as npt
import pytest

from locfront.basis import (
    BasisSpec,
    PolyCoeffs,
    enumerate_basis,
    eval_poly,
    poly_gradient,
    vandermonde,
)

from oracles import shifted_monomial_row


class TestEnumerateBasis:
    def test_q2_degree2_order(self):
        basis = enumerate_basis(2, 2)
        expected = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert list(basis.indices) == expected

    def test_constant_basis(self):
        basis = enumerate_basis(1, 0)
        assert len(basis) == 1
        assert basis.indices[0] == (0,)

    def test_q3_degree3_count(self):
        assert len(enumerate_basis(3, 3)) == 20

    @pytest.mark.parametrize(
        "q,degree,match",
        [(0, 1, "^dimension q must be >= 1$"), (1, -1, "^max_degree must be >= 0$")],
        ids=["q-0", "negative-degree"],
    )
    def test_hand_built_basis_refused(self, q, degree, match):
        with pytest.raises(ValueError, match=match):
            BasisSpec(q, degree)

    @pytest.mark.parametrize("q,degree", itertools.product([1, 2, 3], range(5)))
    def test_enumerate_basis_is_the_cached_basis_spec(self, q, degree):
        # fit_at asks for its bases on every LP, so each is built once
        assert enumerate_basis(q, degree) is enumerate_basis(q, degree)
        assert enumerate_basis(q, degree) == BasisSpec(q, degree)

    @pytest.mark.parametrize("q,beta_star", itertools.product([1, 2, 3], range(4)))
    def test_completeness(self, q, beta_star):
        basis = enumerate_basis(q, beta_star)
        seen = set(basis.indices)
        full = {
            j
            for j in itertools.product(range(beta_star + 1), repeat=q)
            if sum(j) <= beta_star
        }
        assert seen == full
        assert len(basis.indices) == len(full)  # no duplicates

    def test_zero_index_first_and_graded(self):
        basis = enumerate_basis(3, 2)
        degrees = [sum(j) for j in basis.indices]
        assert degrees[0] == 0
        assert degrees == sorted(degrees)

    def test_lower_degree_is_prefix(self):
        low = enumerate_basis(2, 1)
        high = enumerate_basis(2, 3)
        assert high.indices[: len(low)] == low.indices

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            enumerate_basis(0, 2)
        with pytest.raises(ValueError):
            enumerate_basis(2, -1)


def shifted_monomial(exponents, t, x) -> float:
    """(t - x)**j read from the matching column of a one-row vandermonde."""
    basis = enumerate_basis(len(exponents), sum(exponents))
    column = basis.indices.index(tuple(exponents))
    return vandermonde(basis, t, x)[0, column]


class TestShiftedMonomial:
    def test_product(self):
        assert shifted_monomial((1, 2), (3.0, 4.0), (1.0, 1.0)) == 18.0

    def test_empty_product_is_one(self):
        assert shifted_monomial((0, 0), (0.3, 0.9), (0.5, 0.5)) == 1.0

    def test_univariate_square(self):
        value = shifted_monomial((2,), (0.3,), (0.5,))
        assert value == pytest.approx(0.04, abs=1e-15)

    def test_zero_to_the_zero(self):
        assert shifted_monomial((0,), (0.5,), (0.5,)) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            vandermonde(enumerate_basis(2, 1), (0.5, 0.5), (0.5,))


class TestVandermonde:
    def test_degree_one_row(self):
        basis = enumerate_basis(2, 1)
        row = vandermonde(basis, (0.6, 0.4), (0.5, 0.5))[0]
        npt.assert_allclose(row, [1.0, 0.1, -0.1], atol=1e-12)

    def test_center_row(self):
        basis = enumerate_basis(1, 2)
        npt.assert_array_equal(vandermonde(basis, (0.5,), (0.5,))[0], [1.0, 0.0, 0.0])

    def test_unit_shift_all_ones(self):
        basis = enumerate_basis(2, 2)
        npt.assert_array_equal(
            vandermonde(basis, (1.0, 1.0), (0.0, 0.0))[0], np.ones(6)
        )

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(3)
        basis = enumerate_basis(3, 2)
        pts = rng.uniform(0, 1, (7, 3))
        x = rng.uniform(0, 1, 3)
        batch = vandermonde(basis, pts, x)
        for i in range(7):
            npt.assert_allclose(batch[i], shifted_monomial_row(basis, pts[i], x), rtol=1e-14)

    def test_dimension_mismatch(self):
        basis = enumerate_basis(2, 1)
        with pytest.raises(ValueError):
            vandermonde(basis, (0.5,), (0.5, 0.5))
        with pytest.raises(ValueError, match=r"center of shape \(1, 2\)"):
            vandermonde(basis, [[0.1, 0.2]], [[0.5, 0.5]])
        with pytest.raises(ValueError, match=r"points of shape \(1, 1, 2\)"):
            vandermonde(basis, [[[0.1, 0.2]]], (0.5, 0.5))


class TestEvalPoly:
    def test_linear(self):
        coeffs = PolyCoeffs(enumerate_basis(1, 1), np.array([2.0, 3.0]))
        assert eval_poly(coeffs, (0.7,), (0.5,)) == pytest.approx(2.6, abs=1e-14)

    def test_center_value_is_first_coefficient(self):
        rng = np.random.default_rng(11)
        for q, deg in [(1, 3), (2, 2), (3, 1)]:
            basis = enumerate_basis(q, deg)
            coeffs = PolyCoeffs(basis, rng.uniform(-1, 1, len(basis)))
            x = rng.uniform(0, 1, q)
            assert eval_poly(coeffs, x, x) == coeffs.coeffs[0]

    def test_constant_one(self):
        basis = enumerate_basis(2, 2)
        c = np.zeros(6)
        c[0] = 1.0
        coeffs = PolyCoeffs(basis, c)
        rng = np.random.default_rng(5)
        for _ in range(5):
            t = rng.uniform(0, 1, 2)
            assert eval_poly(coeffs, t, (0.3, 0.8)) == 1.0

    def test_shape_validated(self):
        coeffs = PolyCoeffs(enumerate_basis(2, 1), np.array([2.0, 3.0, 1.0]))
        with pytest.raises(ValueError, match=r"center of shape \(1, 2\)"):
            eval_poly(coeffs, (0.1, 0.2), [[0.5, 0.5]])
        with pytest.raises(ValueError, match=r"points of shape \(2, 1, 2\)"):
            eval_poly(coeffs, [[[0.1, 0.2]], [[0.3, 0.4]]], (0.5, 0.5))
        with pytest.raises(ValueError, match=r"points of shape \(3,\)"):
            eval_poly(coeffs, (0.1, 0.2, 0.3), (0.5, 0.5))

    def test_coeff_length_validated(self):
        with pytest.raises(ValueError):
            PolyCoeffs(enumerate_basis(2, 1), np.array([1.0, 2.0]))


class TestGradient:
    def test_linear_gradient_constant(self):
        coeffs = PolyCoeffs(enumerate_basis(1, 1), np.array([2.0, 3.0]))
        npt.assert_array_equal(poly_gradient(coeffs, (0.9,), (0.5,)), [3.0])
        npt.assert_array_equal(poly_gradient(coeffs, (0.1,), (0.5,)), [3.0])

    def test_constant_zero_gradient(self):
        coeffs = PolyCoeffs(enumerate_basis(2, 2), np.array([4.0, 0, 0, 0, 0, 0]))
        npt.assert_array_equal(poly_gradient(coeffs, (0.2, 0.7), (0.5, 0.5)), [0.0, 0.0])

    def test_shape_validated(self):
        coeffs = PolyCoeffs(enumerate_basis(2, 2), np.arange(6.0))
        with pytest.raises(ValueError, match=r"center of shape \(1, 2\)"):
            poly_gradient(coeffs, [[0.1, 0.2]], [[0.5, 0.5]])
        with pytest.raises(ValueError, match=r"points of shape \(1, 1, 2\)"):
            poly_gradient(coeffs, [[[0.1, 0.2]]], (0.5, 0.5))
        with pytest.raises(ValueError, match=r"points of shape \(1,\)"):
            poly_gradient(coeffs, (0.1,), (0.5, 0.5))

    def test_square(self):
        # p(t) = (t - x)^2, derivative 2(t - x)
        coeffs = PolyCoeffs(enumerate_basis(1, 2), np.array([0.0, 0.0, 1.0]))
        npt.assert_allclose(poly_gradient(coeffs, (0.8,), (0.5,)), [0.6], atol=1e-15)

    @pytest.mark.parametrize("q,deg", [(1, 3), (2, 3), (3, 2)])
    def test_matches_finite_differences(self, q, deg):
        rng = np.random.default_rng(100 + q + deg)
        basis = enumerate_basis(q, deg)
        step = 1e-6
        for _ in range(20):
            coeffs = PolyCoeffs(basis, rng.uniform(-1, 1, len(basis)))
            x = rng.uniform(0.2, 0.8, q)
            t = rng.uniform(0.2, 0.8, q)
            grad = poly_gradient(coeffs, t, x)
            for r in range(q):
                tp, tm = t.copy(), t.copy()
                tp[r] += step
                tm[r] -= step
                fd = (eval_poly(coeffs, tp, x) - eval_poly(coeffs, tm, x)) / (2 * step)
                assert grad[r] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        basis = enumerate_basis(2, 3)
        coeffs = PolyCoeffs(basis, rng.uniform(-1, 1, len(basis)))
        pts = rng.uniform(0, 1, (6, 2))
        x = np.array([0.4, 0.6])
        batch = poly_gradient(coeffs, pts, x)
        for i in range(6):
            npt.assert_allclose(batch[i], poly_gradient(coeffs, pts[i], x), rtol=1e-13)


class TestMarkovBound:
    """Gradient sup-norm bounded by 4 * degree^2 times the value sup-norm.

    A classical inequality valid for every polynomial on the cube, checked
    on a dense grid; it must hold for every sample without exception.
    """

    @pytest.mark.parametrize("q,beta_star", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 3)])
    def test_markov_gradient_bound(self, q, beta_star):
        rng = np.random.default_rng(77)
        per_axis = 51 if q <= 2 else 21
        axes = [np.linspace(0, 1, per_axis)] * q
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        basis = enumerate_basis(q, beta_star)
        for _ in range(40):
            coeffs = PolyCoeffs(basis, rng.uniform(-1, 1, len(basis)))
            x = rng.uniform(0, 1, q)
            values = eval_poly(coeffs, grid, x)
            grads = poly_gradient(coeffs, grid, x)
            grad_max = float(np.max(np.linalg.norm(grads, axis=1)))
            value_max = float(np.max(np.abs(values)))
            assert grad_max <= 4.0 * beta_star**2 * value_max + 1e-9
