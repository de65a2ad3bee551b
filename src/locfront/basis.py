"""Multivariate monomial bases in shifted form.

Everything downstream (window integrals, LP constraint rows, fitted
polynomials) shares one coefficient layout: the complete basis of monomials
``(t - x)**j`` over all multi-indices ``j`` with total degree at most
``max_degree``, ordered graded-lexicographically with the zero index first.
That ordering makes "value at the expansion center" always the first
coefficient, and makes every lower-degree basis a prefix of a higher-degree
one. Monomials are evaluated by products: each is its parent in
``BasisSpec.parents`` times one offset t_r - x_r, so no float ``**`` enters
a value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, cached_property

import numpy as np


@dataclass(frozen=True)
class BasisSpec:
    """Complete shifted-monomial basis of total degree <= max_degree in q variables.

    ``indices``, built here from q and max_degree, holds one exponent tuple
    per monomial, graded-lexicographic: sorted by degree, then by exponent
    tuple with earlier coordinates dominating, so e.g. for q=2, degree 2 the
    order is (0,0),(1,0),(0,1),(2,0),(1,1),(0,2).
    """

    q: int
    max_degree: int
    indices: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("dimension q must be >= 1")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        d = self.max_degree
        raw = [j for j in itertools.product(range(d + 1), repeat=self.q) if sum(j) <= d]
        raw.sort(key=lambda j: (sum(j), tuple(-e for e in j)))
        object.__setattr__(self, "indices", tuple(raw))

    def __len__(self) -> int:
        return len(self.indices)

    @cached_property
    def parents(self) -> tuple[tuple[int, int], ...]:
        """(parent, r) for each monomial after the first, in basis order.

        The monomial is its parent times (t_r - x_r), where r is its first
        axis of nonzero exponent and the parent, one exponent lower on that
        axis, comes earlier in the basis. The q monomials of degree one have
        the constant as parent.
        """
        table = []
        for j in self.indices[1:]:
            r = next(r for r, e in enumerate(j) if e)
            table.append((self.position[j[:r] + (j[r] - 1,) + j[r + 1 :]], r))
        return tuple(table)

    @cached_property
    def position(self) -> dict[tuple[int, ...], int]:
        """Basis position of each exponent tuple."""
        return {j: k for k, j in enumerate(self.indices)}


@dataclass(frozen=True)
class PolyCoeffs:
    """Coefficient vector aligned with a BasisSpec.

    The represented polynomial is ``p(t) = sum_j coeffs[j] * (t - x)**j``
    for an expansion center x supplied at evaluation time; its value at the
    center is always ``coeffs[0]``.
    """

    basis: BasisSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.shape[0] != len(self.basis):
            raise ValueError(
                f"coefficient vector has shape {c.shape}, basis needs ({len(self.basis)},)"
            )
        object.__setattr__(self, "coeffs", c)


@lru_cache(maxsize=None)
def enumerate_basis(q: int, beta_star: int) -> BasisSpec:
    """``BasisSpec(q, beta_star)``, built once per (q, beta_star) and shared:
    C(q + beta_star, q) indices in graded-lex order, zero index first."""
    return BasisSpec(q, beta_star)


def _as_points(t, q: int) -> tuple[np.ndarray, bool]:
    """One point of shape (q,) or an (m, q) batch as an (m, q) array, and
    whether it was one point; any other shape raises ValueError."""
    arr = np.asarray(t, dtype=float)
    if arr.shape == (q,):
        return arr[None, :], True
    if arr.ndim != 2 or arr.shape[1] != q:
        raise ValueError(f"points of shape {arr.shape}; expected ({q},) or (m, {q})")
    return arr, False


def vandermonde(basis: BasisSpec, points, x) -> np.ndarray:
    """Shifted-monomial design matrix for a batch of points.

    Every monomial is its parent in ``basis.parents`` times one coordinate
    offset t_r - x_r: one IEEE product per entry, with no ``**``.

    Parameters
    ----------
    basis : BasisSpec
    points : array-like, shape (m, q) or (q,)
        Evaluation points t.
    x : array-like, shape (q,)
        Expansion center.

    Returns
    -------
    ndarray, shape (m, len(basis))
        Row i holds (points[i] - x)**j for every basis index j, in basis
        order; column 0 is all ones. The array is the transposed view of a
        C-ordered (len(basis), m) table, so it is F-ordered: each column is
        contiguous.
    """
    pts, _ = _as_points(points, basis.q)
    xv = np.asarray(x, dtype=float)
    if xv.shape != (basis.q,):
        raise ValueError(f"center of shape {xv.shape}; expected ({basis.q},)")
    table = np.empty((len(basis), pts.shape[0]))
    table[0] = 1.0
    if basis.max_degree > 0:
        # rows 1..q are the degree-one monomials: the offsets t_r - x_r,
        # the factors of every later row
        np.subtract(pts.T, xv[:, None], out=table[1 : basis.q + 1])
    for k, (parent, r) in enumerate(basis.parents[basis.q :], start=basis.q + 1):
        np.multiply(table[parent], table[r + 1], out=table[k])
    return table.T


def eval_poly(coeffs: PolyCoeffs, t, x):
    """Value of the polynomial at t, shape (q,), or an (m, q) batch of points."""
    pts, single = _as_points(t, coeffs.basis.q)
    values = vandermonde(coeffs.basis, pts, x) @ coeffs.coeffs
    return float(values[0]) if single else values


def poly_gradient(coeffs: PolyCoeffs, t, x):
    """Exact gradient of the polynomial at t, shape (q,), or an (m, q) batch.

    Differentiation lowers exponents analytically: d/dt_r (t-x)**j is
    j_r * (t-x)**(j - e_r), and j - e_r is a basis monomial, so the gradient
    is the Vandermonde of t times a (len(basis), q) matrix of those
    coefficients. Returns shape (q,) for a single point, (m, q) for a batch.
    """
    basis = coeffs.basis
    pts, single = _as_points(t, basis.q)
    lowered = np.zeros((len(basis), basis.q))
    for j, c in zip(basis.indices, coeffs.coeffs):
        for r, e in enumerate(j):
            if e:
                lowered[basis.position[j[:r] + (e - 1,) + j[r + 1 :]], r] = e * c
    grad = vandermonde(basis, pts, x) @ lowered
    return grad[0] if single else grad
