"""Data generators for boundary-regression experiments.

Designs (uniform random, equidistant lattice), the built-in boundary
functions, and one-sided error laws whose survival near zero behaves like
c|y|^alpha. All error specs emit nonpositive values so that samples satisfy
Y_i = g(X_i) + eps_i <= g(X_i) under a single sign convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import Dataset, _whole

_DESIGN_KINDS = ("random_uniform", "equidistant_grid")
_ERROR_KINDS = ("exponential_unit", "weibull", "zero")
_MODEL_IDS = ("sine_sum", "cubic_1d")


def lattice_side(n: int, q: int) -> int | None:
    """The integer m with m**q == n, or None; the float root only proposes m,
    so no n is accepted or refused by rounding."""
    m = round(n ** (1.0 / q))
    return next((c for c in (m - 1, m, m + 1) if c >= 1 and c ** q == n), None)


@dataclass(frozen=True)
class DesignSpec:
    """n points in [0,1]^q, the one owner of the design rules; a refusal names
    its config key (``design``, ``q``, ``n_list (n)``), q and the offending n."""

    kind: str
    q: int
    n: int

    def __post_init__(self):
        if self.kind not in _DESIGN_KINDS:
            raise ValueError(f"design must be one of {_DESIGN_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "q", _whole(self.q, "q", 1))
        object.__setattr__(self, "n", _whole(self.n, "n_list (n)", 1))
        if self.kind == "equidistant_grid" and lattice_side(self.n, self.q) is None:
            raise ValueError(f"n_list (n) entries must be perfect q-th powers (q = {self.q}) "
                             f"for design = equidistant_grid, got {self.n}")


@dataclass(frozen=True)
class ErrorSpec:
    """One-sided error law; generated values are <= 0.

    ``weibull`` with shape alpha has magnitude survival exp(-z^alpha), so its
    cdf near zero is z^alpha + O(z^(2 alpha)); ``exponential_unit`` is the
    alpha = 1 case. ``zero`` is a degenerate noiseless law for exact-recovery
    tests; it has no tail index. ``alpha`` is kept as a positive, finite Python
    float.
    """

    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in _ERROR_KINDS:
            raise ValueError(f"error kind must be one of {_ERROR_KINDS}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"error: {self.kind} shape must be in (0, inf), got {self.alpha}")
        object.__setattr__(self, "alpha", 1.0 if self.kind == "exponential_unit"
                           else float(self.alpha))


@dataclass(frozen=True)
class ModelSpec:
    """Boundary function, named by one of the built-in ids."""

    g_id: str

    def __post_init__(self):
        if self.g_id not in _MODEL_IDS:
            raise ValueError(f"model must be one of {_MODEL_IDS}, got {self.g_id!r}")


def lattice(axis: np.ndarray, q: int) -> np.ndarray:
    """Every q-tuple of ``axis`` values as an (len(axis)**q, q) array, the
    first coordinate varying fastest."""
    mesh = np.meshgrid(*([axis] * q), indexing="ij")
    return np.stack([g.ravel(order="F") for g in mesh], axis=1)


def evaluation_grid(q: int, points_per_axis: int) -> np.ndarray:
    """Equidistant lattice on [0,1]^q including the boundary, (N^q, q).

    A single point per axis collapses to the cube center, so a one-point grid
    evaluation coincides with the center-point evaluation. The size is read
    by ``_whole``: one that is not an integer >= 1 (such as ``0`` or ``2.5``)
    raises ValueError.
    """
    size = _whole(points_per_axis, "grid points per axis", 1)
    if size == 1:
        return np.full((1, q), 0.5)
    return lattice(np.linspace(0.0, 1.0, size), q)


def gen_design(spec: DesignSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    """Design points as an (n, q) array.

    random_uniform draws iid uniforms from ``rng``; equidistant_grid is the
    lattice {(i_1/m, ..., i_q/m) : i_r in 1..m} with m = n^(1/q) and is
    independent of ``rng``.
    """
    if spec.kind == "random_uniform":
        if rng is None:
            raise ValueError("random_uniform design needs an rng")
        return rng.uniform(0.0, 1.0, size=(spec.n, spec.q))
    m = lattice_side(spec.n, spec.q)
    return lattice(np.arange(1, m + 1) / m, spec.q)


def sample_errors(spec: ErrorSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n iid draws from the error law, all <= 0, by inverse transform."""
    n = _whole(n, "n", 1)
    if spec.kind == "zero":
        return np.zeros(n)
    u = rng.random(n)
    magnitudes = (-np.log1p(-u)) ** (1.0 / spec.alpha)
    return -magnitudes


def eval_boundary(spec: ModelSpec, x):
    """Boundary value at a point (q,) or a batch (n, q)."""
    xv = np.asarray(x, dtype=float)
    single = xv.ndim <= 1
    pts = np.atleast_2d(xv)
    if spec.g_id == "sine_sum":
        s = pts.sum(axis=1)
        out = 0.5 * np.sin(2.0 * np.pi * s) + 4.0 * s
    else:
        if pts.shape[1] != 1:
            raise ValueError("cubic_1d is a univariate boundary")
        out = (pts[:, 0] - 0.5) ** 3 + 2.0
    return float(out[0]) if single else out


def make_sample(design: np.ndarray, model: ModelSpec, errors) -> Dataset:
    """Dataset with responses Y_i = g(X_i) + eps_i."""
    pts = np.atleast_2d(np.asarray(design, dtype=float))
    eps = np.asarray(errors, dtype=float).ravel()
    if pts.shape[0] != eps.shape[0]:
        raise ValueError(f"{pts.shape[0]} design points but {eps.shape[0]} errors")
    y = eval_boundary(model, pts) + eps
    return Dataset(pts, y)

