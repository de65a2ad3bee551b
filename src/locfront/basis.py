"""Multivariate monomial bases in shifted form.

Everything downstream (window integrals, LP constraint rows, fitted
polynomials) shares one coefficient layout: the complete basis of monomials
``(t - x)**j`` over all multi-indices ``j`` with total degree at most
``max_degree``, ordered graded-lexicographically with the zero index first.
That ordering makes "value at the expansion center" always the first
coefficient, and makes every lower-degree basis a prefix of a higher-degree
one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, cached_property
from math import comb

import numpy as np


@dataclass(frozen=True)
class MultiIndex:
    """Exponent tuple of a single multivariate monomial."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) < 1:
            raise ValueError("multi-index needs at least one coordinate")
        if any(e < 0 for e in self.exponents):
            raise ValueError(f"negative exponent in {self.exponents}")

    @property
    def q(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)


@dataclass(frozen=True)
class BasisSpec:
    """Complete shifted-monomial basis of total degree <= max_degree in q variables.

    ``indices`` is graded-lexicographic: sorted by degree, then by exponent
    tuple with earlier coordinates dominating, so e.g. for q=2, degree 2 the
    order is (0,0),(1,0),(0,1),(2,0),(1,1),(0,2).
    """

    q: int
    max_degree: int
    indices: tuple[MultiIndex, ...]

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("dimension q must be >= 1")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        expected = comb(self.q + self.max_degree, self.q)
        if len(self.indices) != expected:
            raise ValueError(
                f"basis has {len(self.indices)} indices, expected {expected}"
            )

    def __len__(self) -> int:
        return len(self.indices)

    @cached_property
    def exponent_matrix(self) -> np.ndarray:
        """Integer array of shape (len(self), q), one multi-index per row."""
        arr = np.array([mi.exponents for mi in self.indices], dtype=np.int64)
        arr.setflags(write=False)
        return arr


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
    """All multi-indices with |j| <= beta_star in q variables, graded-lex order.

    Parameters
    ----------
    q : int
        Number of covariates, >= 1.
    beta_star : int
        Total degree bound, >= 0.

    Returns
    -------
    BasisSpec
        Basis with C(q + beta_star, q) indices, zero index first.
    """
    if q < 1:
        raise ValueError("dimension q must be >= 1")
    if beta_star < 0:
        raise ValueError("beta_star must be >= 0")
    raw = [
        j
        for j in itertools.product(range(beta_star + 1), repeat=q)
        if sum(j) <= beta_star
    ]
    raw.sort(key=lambda j: (sum(j), tuple(-e for e in j)))
    return BasisSpec(q=q, max_degree=beta_star, indices=tuple(MultiIndex(j) for j in raw))


def _check_point(t, q: int, name: str) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape[-1] != q:
        raise ValueError(f"{name} has dimension {arr.shape[-1]}, expected {q}")
    return arr


def vandermonde(basis: BasisSpec, points, x) -> np.ndarray:
    """Shifted-monomial design matrix for a batch of points.

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
        order; column 0 is all ones.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != basis.q:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {basis.q}")
    xv = _check_point(x, basis.q, "x")
    diff = pts - xv[None, :]
    # per-axis power tables up to max_degree, then gather per multi-index
    powers = diff[:, :, None] ** np.arange(basis.max_degree + 1)[None, None, :]
    exps = basis.exponent_matrix
    rows = np.ones((pts.shape[0], len(basis)))
    for r in range(basis.q):
        rows *= powers[:, r, exps[:, r]]
    return rows


def eval_poly(coeffs: PolyCoeffs, t, x):
    """Value of the polynomial at t (or an (m, q) batch of points)."""
    tv = np.asarray(t, dtype=float)
    if tv.ndim <= 1:
        return float(vandermonde(coeffs.basis, tv.reshape(1, -1), x)[0] @ coeffs.coeffs)
    return vandermonde(coeffs.basis, tv, x) @ coeffs.coeffs


def poly_gradient(coeffs: PolyCoeffs, t, x):
    """Exact gradient of the polynomial at t (or an (m, q) batch).

    Differentiation lowers exponents analytically: d/dt_r (t-x)**j is
    j_r * (t-x)**(j - e_r). Returns shape (q,) for a single point, (m, q)
    for a batch.
    """
    basis = coeffs.basis
    tv = np.asarray(t, dtype=float)
    single = tv.ndim <= 1
    pts = np.atleast_2d(tv)
    if pts.shape[1] != basis.q:
        raise ValueError(f"t has dimension {pts.shape[1]}, expected {basis.q}")
    xv = _check_point(x, basis.q, "x")
    diff = pts - xv[None, :]
    powers = diff[:, :, None] ** np.arange(basis.max_degree + 1)[None, None, :]
    exps = basis.exponent_matrix
    grad = np.zeros((pts.shape[0], basis.q))
    for r in range(basis.q):
        keep = exps[:, r] > 0
        if not keep.any():
            continue
        terms = np.ones((pts.shape[0], int(keep.sum())))
        for s in range(basis.q):
            # exponent lowered by one on the differentiated axis (> 0 on `keep` rows)
            e = exps[keep, s] - 1 if s == r else exps[keep, s]
            terms *= powers[:, s, e]
        grad[:, r] = terms @ (coeffs.coeffs[keep] * exps[keep, r])
    return grad[0] if single else grad
