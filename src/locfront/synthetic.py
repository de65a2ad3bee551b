"""Data generators for boundary-regression experiments.

Designs (uniform random, equidistant lattice, user-supplied), boundary
functions, and one-sided error laws whose survival near zero behaves like
c|y|^alpha. All error specs emit nonpositive values so that samples satisfy
Y_i = g(X_i) + eps_i <= g(X_i) under a single sign convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimator import Dataset

_DESIGN_KINDS = ("random_uniform", "equidistant_grid", "custom_fixed")
_ERROR_KINDS = ("exponential_unit", "weibull", "zero")
_MODEL_IDS = ("sine_sum", "cubic_1d", "custom")


@dataclass(frozen=True)
class DesignSpec:
    kind: str
    q: int
    n: int
    points: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _DESIGN_KINDS:
            raise ValueError(f"design kind must be one of {_DESIGN_KINDS}")
        if self.q < 1 or self.n < 1:
            raise ValueError("need q >= 1 and n >= 1")
        if self.kind == "equidistant_grid":
            m = self.n ** (1.0 / self.q)
            if abs(m - round(m)) > 1e-9:
                raise ValueError(
                    f"equidistant grid needs n^(1/q) integer; n={self.n}, q={self.q}"
                )
        if self.kind == "custom_fixed":
            pts = np.atleast_2d(np.asarray(self.points, dtype=float))
            if pts.shape != (self.n, self.q):
                raise ValueError(
                    f"custom points have shape {pts.shape}, expected ({self.n}, {self.q})"
                )
            if np.any(pts < 0.0) or np.any(pts > 1.0):
                raise ValueError("custom design points must lie in [0,1]^q")
            object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class ErrorSpec:
    """One-sided error law; generated values are <= 0.

    ``weibull`` with shape alpha has magnitude survival exp(-z^alpha), so its
    cdf near zero is z^alpha + O(z^(2 alpha)); ``exponential_unit`` is the
    alpha = 1 case. ``zero`` is a degenerate noiseless law for exact-recovery
    tests; it has no tail index.
    """

    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in _ERROR_KINDS:
            raise ValueError(f"error kind must be one of {_ERROR_KINDS}")
        if self.kind == "weibull" and self.alpha <= 0:
            raise ValueError("weibull shape must be positive")
        if self.kind == "exponential_unit":
            object.__setattr__(self, "alpha", 1.0)

    def survival(self, y) -> np.ndarray:
        """P(eps > y) for y < 0, i.e. the mass of magnitudes below |y|."""
        if self.kind == "zero":
            raise ValueError("the degenerate zero law has no tail")
        z = np.abs(np.asarray(y, dtype=float))
        return -np.expm1(-(z**self.alpha))


@dataclass(frozen=True)
class ModelSpec:
    """Boundary function: a named built-in or a user callable on cube points."""

    g_id: str
    func: Callable | None = None

    def __post_init__(self):
        if self.g_id not in _MODEL_IDS:
            raise ValueError(f"model must be one of {_MODEL_IDS}")
        if self.g_id == "custom" and self.func is None:
            raise ValueError("custom model needs a callable")


def gen_design(spec: DesignSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    """Design points as an (n, q) array.

    random_uniform draws iid uniforms from ``rng``; equidistant_grid is the
    lattice {(i_1/m, ..., i_q/m) : i_r in 1..m} with m = n^(1/q) and is
    independent of ``rng``; custom_fixed passes the validated points through.
    """
    if spec.kind == "random_uniform":
        if rng is None:
            raise ValueError("random_uniform design needs an rng")
        return rng.uniform(0.0, 1.0, size=(spec.n, spec.q))
    if spec.kind == "equidistant_grid":
        m = round(spec.n ** (1.0 / spec.q))
        axis = np.arange(1, m + 1) / m
        mesh = np.meshgrid(*([axis] * spec.q), indexing="ij")
        # first coordinate varies fastest
        return np.stack([g.ravel(order="F") for g in mesh], axis=1)
    return spec.points.copy()


def sample_errors(spec: ErrorSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n iid draws from the error law, all <= 0, by inverse transform."""
    if n < 1:
        raise ValueError("need n >= 1")
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
    elif spec.g_id == "cubic_1d":
        if pts.shape[1] != 1:
            raise ValueError("cubic_1d is a univariate boundary")
        out = (pts[:, 0] - 0.5) ** 3 + 2.0
    else:
        out = np.array([float(spec.func(p)) for p in pts])
    return float(out[0]) if single else out


def make_sample(design: np.ndarray, model: ModelSpec, errors) -> Dataset:
    """Dataset with responses Y_i = g(X_i) + eps_i."""
    pts = np.atleast_2d(np.asarray(design, dtype=float))
    eps = np.asarray(errors, dtype=float).ravel()
    if pts.shape[0] != eps.shape[0]:
        raise ValueError(f"{pts.shape[0]} design points but {eps.shape[0]} errors")
    y = eval_boundary(model, pts) + eps
    return Dataset(pts, y)


def verify_design_density(points, h: float, d: float) -> int:
    """Minimum point count over a shifted lattice of cubes with edge d*h.

    The continuum condition quantifies over all axis-aligned cubes of edge
    d*h inside the unit cube; this checks the finite family of cubes whose
    lower corners run over a lattice of pitch d*h/2 (plus the flush-to-1
    corner), which every continuum cube contains a half-edge member of.

    Returns the minimum count; the edge d*h must lie in (0, 1].
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if np.any(pts < 0.0) or np.any(pts > 1.0):
        raise ValueError("points must lie in [0,1]^q")
    edge = d * h
    if edge <= 0.0:
        raise ValueError(f"cube edge d*h must be positive, got {edge}")
    if edge > 1.0 + 1e-12:
        raise ValueError(f"cube edge d*h must be <= 1, got {edge}")
    edge = min(edge, 1.0)
    q = pts.shape[1]

    if edge == 1.0:
        corners = np.array([0.0])
    else:
        pitch = edge / 2.0
        corners = np.arange(0.0, 1.0 - edge + 1e-12, pitch)
        corners = np.unique(np.append(corners, 1.0 - edge))

    eps = 1e-12
    member = [
        (pts[:, r][None, :] >= corners[:, None] - eps)
        & (pts[:, r][None, :] <= corners[:, None] + edge + eps)
        for r in range(q)
    ]
    if q == 1:
        counts = member[0].sum(axis=1)
    elif q == 2:
        counts = member[0].astype(np.int64) @ member[1].T.astype(np.int64)
    elif q == 3:
        counts = np.einsum(
            "ai,bi,ci->abc",
            member[0].astype(np.int64),
            member[1].astype(np.int64),
            member[2].astype(np.int64),
        )
    else:
        best = pts.shape[0]
        for combo in itertools.product(range(corners.size), repeat=q):
            inside = np.ones(pts.shape[0], dtype=bool)
            for r, c in enumerate(combo):
                inside &= member[r][c]
            best = min(best, int(inside.sum()))
        return best
    return int(counts.min())
