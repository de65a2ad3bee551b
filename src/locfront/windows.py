"""Max-norm windows on the unit cube and exact monomial integrals over them.

A window is the max-norm ball of radius h around a point x, intersected with
[0,1]^q. The integral of any shifted monomial over that box factorizes per
axis, which gives the LP objective vector in closed form.

``contains_mask`` is the one membership test. ``window_rows`` answers a
window query on a read-only point array through a ``WindowIndex`` (the rows
sorted on the first coordinate, built once per array): a binary search cuts
the slab of rows whose first coordinate can lie in the window, and only that
slab goes through ``contains_mask``. A query costs O(log n + slab) instead of
O(n) and returns exactly the rows a full-array mask selects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSpec


@dataclass(frozen=True)
class Window:
    """Axis-aligned box around ``center`` clipped to the unit cube."""

    center: np.ndarray
    bandwidth: float
    lower: np.ndarray
    upper: np.ndarray

    @property
    def q(self) -> int:
        return self.center.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))


def clip_window(x, h: float) -> Window:
    """Window of half-edge h around x, clipped to [0,1]^q.

    Raises ValueError if x lies outside the unit cube or h <= 0. A bandwidth
    h >= 1 yields the whole cube.
    """
    xv = np.asarray(x, dtype=float)
    if xv.ndim == 0:
        xv = xv.reshape(1)
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    if np.any(xv < 0) or np.any(xv > 1):
        raise ValueError(f"window center {xv.tolist()} outside the unit cube")
    lower = np.maximum(xv - h, 0.0)
    upper = np.minimum(xv + h, 1.0)
    lower.setflags(write=False)
    upper.setflags(write=False)
    xv.setflags(write=False)
    return Window(center=xv, bandwidth=float(h), lower=lower, upper=upper)


def contains_mask(w: Window, points: np.ndarray) -> np.ndarray:
    """Vectorized membership test for an (n, q) array of cube points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != w.q:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {w.q}")
    return np.max(np.abs(pts - w.center[None, :]), axis=1) <= w.bandwidth


@dataclass(frozen=True)
class WindowIndex:
    """Rows of a read-only (n, q) point array sorted on the first coordinate.

    The index stays valid only while ``points`` is unchanged, which a
    read-only array owned by its holder guarantees.
    """

    points: np.ndarray
    order: np.ndarray = field(init=False)  # row numbers by ascending first coordinate
    keys: np.ndarray = field(init=False)  # points[order, 0]

    def __post_init__(self):
        order = np.argsort(self.points[:, 0])
        keys = self.points[order, 0]
        order.setflags(write=False)
        keys.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "keys", keys)


def window_rows(w: Window, index: WindowIndex) -> np.ndarray:
    """Ascending row numbers of the indexed points inside ``w``.

    Equal to ``np.flatnonzero(contains_mask(w, index.points))``. The slab
    [c0 - h, c0 + h] on the first coordinate is widened by a few ulps, more
    than the rounding of both its ends and of the test's ``p - c``, so it holds
    every member; ``contains_mask`` on the slab then decides membership by the
    same float expression as a full scan.
    """
    c0, h = float(w.center[0]), w.bandwidth
    pad = 4.0 * np.finfo(float).eps * (abs(c0) + h)
    lo = np.searchsorted(index.keys, c0 - h - pad, side="left")
    hi = np.searchsorted(index.keys, c0 + h + pad, side="right")
    slab = index.order[lo:hi]
    return np.sort(slab[contains_mask(w, index.points[slab])])


def _axis_integrals(w: Window, max_degree: int) -> np.ndarray:
    """Per-axis antiderivative differences, shape (q, max_degree + 1).

    Entry (r, d) is the integral of (t - x_r)**d over [lower_r, upper_r].
    Offsets on unclipped axes are exactly +-h, so odd-degree entries of a
    symmetric window cancel to exactly zero.
    """
    hi = np.where(w.upper < 1.0, w.bandwidth, 1.0 - w.center)
    lo = np.where(w.lower > 0.0, -w.bandwidth, -w.center)
    d1 = np.arange(1, max_degree + 2)
    # power of the nonpositive lower offset via its magnitude, sign analytic:
    # identical magnitudes then cancel bit-exactly on symmetric axes
    parity = np.where(d1 % 2 == 0, 1.0, -1.0)
    lo_pow = parity * (-lo)[:, None] ** d1
    return (hi[:, None] ** d1 - lo_pow) / d1


def objective_vector(w: Window, basis: BasisSpec) -> np.ndarray:
    """Integrals of all basis monomials over the window, in basis order.

    Entry 0 is the window volume and is strictly positive.
    """
    if basis.q != w.q:
        raise ValueError(f"basis has dimension {basis.q}, expected {w.q}")
    table = _axis_integrals(w, basis.max_degree)
    exps = basis.exponent_matrix
    v = np.ones(len(basis))
    for r in range(basis.q):
        v *= table[r, exps[:, r]]
    return v
