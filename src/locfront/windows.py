"""Max-norm windows on the unit cube and exact monomial integrals over them.

A window is the max-norm ball of radius h around a point x, intersected with
[0,1]^q, and every function here takes it as x (or a batch of centres) and
h. The integral of any shifted monomial over that box factorizes per axis,
which gives the LP objective vector in closed form.

This module owns every window query and the index layout behind it, so
the estimator asks for rows or maxima and never reads the layout.
``check_centers`` is the one check of the bandwidth and the centres.
``within`` is the one membership expression, a per-axis conjunction of
``abs(p_r - c_r) <= h`` that broadcasts over batches of centres;
``contains_mask`` applies it to one window. A ``WindowIndex``, built once
per read-only point array, copies the points sorted on the first coordinate,
axis by axis, and its binary search ``slab`` cuts the positions of the rows
whose first coordinate can lie in a window. ``window_rows`` tests only that
slab, a view of the copy, so a query costs O(log n + slab) instead of O(n)
and returns exactly the rows a full-array mask selects. ``window_maxima``
tests blocks of key-ordered centres with ``within`` on runs of the copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .basis import BasisSpec


def check_centers(centers: np.ndarray, h: float) -> None:
    """Raise ValueError unless h > 0 and each centre (row) is in [0,1]^q; NaN fails."""
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    if not (centers.min(initial=0.0) >= 0.0 and centers.max(initial=1.0) <= 1.0):
        rows = centers.reshape(-1, centers.shape[-1])
        outside = ~np.all((rows >= 0) & (rows <= 1), axis=1)
        raise ValueError(f"window center {rows[outside.argmax()].tolist()} outside the unit cube")


def clip_window(x, h: float) -> tuple[list[float], list[float]]:
    """Lower and upper corners of the window (x, h), as lists of q floats.

    Raises ValueError unless x is one point, of shape (q,), in the unit cube
    and h > 0, so NaN fails both. A bandwidth h >= 1 yields the whole cube.
    The corners are the IEEE operations of ``np.maximum(x - h, 0)`` and
    ``np.minimum(x + h, 1)`` without numpy's per-call cost.
    """
    center = np.array(x, dtype=float, ndmin=1)
    if center.ndim != 1:
        raise ValueError(f"window center must have shape (q,), got shape {center.shape}")
    center = center.tolist()
    if not (h > 0 and all(0.0 <= c <= 1.0 for c in center)):
        check_centers(np.array(center), h)  # raises, naming the bandwidth or the centre
    h = float(h)
    return [max(c - h, 0.0) for c in center], [min(c + h, 1.0) for c in center]


def within(points: np.ndarray, centers: np.ndarray, h: float) -> np.ndarray:
    """Whether each point lies within max-norm distance h of its centre.

    ``points`` and ``centers`` broadcast against each other over their
    leading axes and share the last axis q. The test is the conjunction of
    ``abs(p_r - c_r) <= h`` over the axes r, which decides exactly as
    ``max_r abs(p_r - c_r) <= h`` (both are exact) without a reduction over
    the short q axis.
    """
    inside = np.abs(points[..., 0] - centers[..., 0]) <= h
    for r in range(1, points.shape[-1]):
        inside &= np.abs(points[..., r] - centers[..., r]) <= h
    return inside


def contains_mask(points: np.ndarray, x, h: float) -> np.ndarray:
    """Vectorized membership test of (n, q) cube points in the window (x, h)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    center = np.atleast_1d(np.asarray(x, dtype=float))
    if pts.shape[1] != center.shape[0]:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {center.shape[0]}")
    return within(pts, center, h)


_SLAB_PAD = 4.0 * np.finfo(float).eps  # slab widening per unit of |c0| + h
_BLOCK_CELLS = 1 << 14  # (centre, run row) pairs per block of window_maxima


@dataclass(frozen=True)
class WindowIndex:
    """A read-only (n, q) point array in order of its first coordinate.

    ``coords`` is a (q, n) C-ordered copy of the points in that order, axis by
    axis: ``coords.T`` equals ``points[order]`` and row 0 holds the ascending
    search keys. It costs n*q floats on top of ``points`` and ``order``. The
    index stays valid only while ``points`` is unchanged, which a read-only
    array owned by its holder guarantees. Only ``window_rows`` and
    ``window_maxima`` read the layout.
    """

    points: np.ndarray
    order: np.ndarray = field(init=False)  # row numbers by ascending first coordinate
    coords: np.ndarray = field(init=False)  # coords[r, k] = points[order[k], r]

    def __post_init__(self):
        order = np.argsort(self.points[:, 0])
        coords = self.points.T.take(order, axis=1)
        order.setflags(write=False)
        coords.setflags(write=False)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coords", coords)

    def slab(self, c0, h: float):
        """Positions [lo, hi) in ``order`` of every row whose first coordinate
        can lie within h of c0, a scalar or an array of first coordinates.

        The interval [c0 - h, c0 + h] is widened by a few ulps, more than the
        rounding of both its ends and of the membership test's ``p - c``, so
        the slab holds every member.
        """
        keys = self.coords[0]
        pad = _SLAB_PAD * (abs(c0) + h)
        return keys.searchsorted(c0 - h - pad, "left"), keys.searchsorted(c0 + h + pad, "right")


def window_rows(index: WindowIndex, x, h: float) -> np.ndarray:
    """Ascending row numbers of the indexed points inside the window (x, h).

    Equal to ``np.flatnonzero(contains_mask(index.points, x, h))``: the slab
    holds every member, and ``contains_mask`` on it decides membership by the
    same float expression as a full scan.
    """
    lo, hi = index.slab(float(x[0]), h)
    inside = contains_mask(index.coords[:, lo:hi].T, x, h)
    return np.sort(index.order[lo:hi][inside])


def window_maxima(index: WindowIndex, values: np.ndarray, centers: np.ndarray, h: float):
    """Per centre of the (m, q) batch, the maximum of ``values`` (finite, one
    per indexed point) over the rows ``window_rows`` returns, or -inf if none.

    Centres go in key order, in blocks grown from one centre while their
    count times their run (least slab start to greatest slab end) stays at
    most ``_BLOCK_CELLS``; ``within`` tests each block on its run of the copy.
    """
    check_centers(centers, h)
    by_key = centers[:, 0].argsort()
    starts, ends = (bound.tolist() for bound in index.slab(centers[by_key, 0], h))
    keyed = values.take(index.order)
    maxima, stop = np.empty(centers.shape[0]), 0
    while stop < len(by_key):
        first, lo, hi = stop, starts[stop], ends[stop]
        while (stop := stop + 1) < len(by_key):
            lo_next = starts[stop] if starts[stop] < lo else lo
            hi_next = ends[stop] if ends[stop] > hi else hi
            if (stop + 1 - first) * (hi_next - lo_next) > _BLOCK_CELLS:
                break
            lo, hi = lo_next, hi_next
        block = by_key[first:stop]
        inside = within(index.coords[:, lo:hi].T, centers[block, None, :], h)
        maxima[block] = np.where(inside, keyed[lo:hi], -np.inf).max(axis=1, initial=-np.inf)
    return maxima


def _axis_integrals(center: list[float], h: float, max_degree: int) -> list[list[float]]:
    """Per-axis antiderivative differences, q lists of max_degree + 1 floats.

    Entry [r][d] is the integral of (t - x_r)**d over [lower_r, upper_r] of
    ``clip_window``, (hi**(d+1) - lo**(d+1)) / (d+1) for the offsets hi >= 0
    >= lo of the axis ends from x_r. The powers are running products in
    Python floats (IEEE doubles). The power of lo is that of its magnitude
    with the sign set by parity, and offsets on unclipped axes are exactly
    +-h, so odd-degree entries of a symmetric window cancel to exactly 0.0.
    """
    table = []
    for c, lower, upper in zip(center, *clip_window(center, h)):
        hi = h if upper < 1.0 else 1.0 - c
        lo = h if lower > 0.0 else c  # magnitude of the lower offset
        hi_pow = lo_pow = 1.0
        row = []
        for d1 in range(1, max_degree + 2):
            hi_pow *= hi
            lo_pow *= lo
            row.append((hi_pow - (lo_pow if d1 % 2 == 0 else -lo_pow)) / d1)
        table.append(row)
    return table


def objective_vector(x, h: float, basis: BasisSpec) -> np.ndarray:
    """Integrals of all basis monomials over the window (x, h), in basis order.

    The window is a box, so the integral of (t - x)**j is the product over
    the axes r of the ``_axis_integrals`` entry [r][j_r], taken in axis
    order. Entry 0 is the window volume and is strictly positive.
    """
    center = np.array(x, dtype=float, ndmin=1).tolist()
    if basis.q != len(center):
        raise ValueError(f"basis has dimension {basis.q}, expected {len(center)}")
    table = _axis_integrals(center, float(h), basis.max_degree)
    return np.array([prod(map(list.__getitem__, table, j)) for j in basis.indices])
