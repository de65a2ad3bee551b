"""The local polynomial frontier estimator.

For an evaluation point x, the fit collects the data inside the clipped
max-norm window. At degree 0 it reports their largest response, as
``fit_local_constant`` does, and builds no LP. At degree >= 1 it builds the
design matrix and objective of the LP "minimize the polynomial's integral
over the window subject to lying above every windowed response", solves it,
and reports the polynomial's value at x, by the basis layout its first coefficient.

Fixed-sample degeneracies the asymptotic theory ignores are handled by
explicit policies: an empty window can either error or grow the bandwidth,
and an unbounded LP can either error or retry at a lower degree, down to 0.

Before solving, responses are shifted by their window maximum and the
constant coefficient is shifted back afterwards. The LP then sees the same
right-hand side whatever the offset of the data, so a fit moves exactly with
a constant shift of the responses.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lp
from .basis import PolyCoeffs, _as_points, enumerate_basis, vandermonde
from .windows import WindowIndex, check_centers, objective_vector, window_maxima, window_rows


class EmptyWindowError(ValueError):
    """No data point inside the window and the policy forbids expanding it."""


class UnboundedFitError(RuntimeError):
    """The local LP is unbounded and the policy forbids degrading the degree."""


class DatasetFormatError(ValueError):
    """Malformed dataset file (bad header, field count, or out-of-range value)."""


_FALLBACKS = ("error", "degrade_degree")
_EMPTY_POLICIES = ("error", "expand")
_EXPAND_FACTOR = 1.5  # bandwidth growth per step of the empty-window policy


def _check_policies(fallback: str, empty_window: str) -> None:
    """Refuse a policy name that is not in ``_FALLBACKS`` / ``_EMPTY_POLICIES``."""
    for key, value, allowed in (("fallback", fallback, _FALLBACKS),
                                ("empty_window", empty_window, _EMPTY_POLICIES)):
        if value not in allowed:
            raise ValueError(f"{key} must be one of {allowed}, got {value!r}")


def _whole(value, name: str, least: int) -> int:
    """``value`` as a Python int, the one rule for every count, degree and seed: an
    int or numpy integer >= ``least`` passes; ``2.0`` or ``"2"`` raises, naming ``name``."""
    whole = operator.index(value) if hasattr(value, "__index__") else least - 1
    if whole < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return whole


@dataclass(frozen=True, eq=False)
class Dataset:
    """Covariate points in the unit cube with scalar responses.

    The dataset holds its own read-only copies of both arrays, so the window
    index built from ``points`` on the first window query stays valid; each
    later query costs O(log n + slab) rather than a scan of all n points.
    Points must lie in [0,1]^q and responses must be finite. Datasets compare
    and hash by identity.
    """

    points: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        pts = np.array(np.atleast_2d(self.points), dtype=float)
        y = np.array(np.ravel(self.responses), dtype=float)
        if pts.shape[0] != y.shape[0]:
            raise ValueError(
                f"{pts.shape[0]} points but {y.shape[0]} responses"
            )
        if pts.shape[0] < 1:
            raise ValueError("dataset must hold at least one observation")
        # min and max carry a NaN through, and it fails both comparisons
        if not (pts.min() >= 0.0 and pts.max() <= 1.0):
            raise ValueError("covariate points must lie in [0,1]^q")
        if not np.all(np.isfinite(y)):
            raise ValueError("responses must be finite")
        pts.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "responses", y)

    def __reduce__(self):
        # unpickled and copied datasets go through __post_init__ again, so
        # their arrays are read-only too and their index is built afresh
        return (Dataset, (self.points, self.responses))

    @cached_property
    def index(self) -> WindowIndex:
        """Window index over ``points``, built on first use."""
        return WindowIndex(self.points)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def q(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class EstimatorConfig:
    """Degree (an integer >= 0 by ``_whole``), bandwidth, and policies of a local fit."""

    beta_star: int
    h: float
    fallback: str = "degrade_degree"
    empty_window: str = "error"

    def __post_init__(self):
        object.__setattr__(self, "beta_star", _whole(self.beta_star, "beta_star", 0))
        if not self.h > 0:
            raise ValueError(f"bandwidth must be positive, got {self.h}")
        _check_policies(self.fallback, self.empty_window)


@dataclass(frozen=True)
class FitResult:
    """Value and fitted polynomial of one local fit.

    ``status`` is "exact" for an untouched fit, "degraded" when the degree was
    lowered to restore boundedness, "expanded" when the window had to grow to
    find data. If both fallbacks fire, "degraded" wins, so a status tally's
    ``n_expanded`` counts only expansions without a degradation; the bandwidth
    actually used is always in ``effective_bandwidth``. ``n_active`` is the
    number of data rows in that window, the LP's constraint count and the
    ``n_active`` column of ``locfront fit``'s output, not ``len(active_rows)``.
    ``active_rows`` holds the ascending dataset row numbers the polynomial
    touches, the LP's optimal basis or at degree 0 the first window row at
    the maximum; they can start a fit at a nearby window, unless phase 1
    dropped a redundant row and they are fewer than p.
    """

    value: float
    coeffs: PolyCoeffs
    status: str
    effective_degree: int
    effective_bandwidth: float
    n_active: int
    active_rows: np.ndarray


def _start_positions(rows: np.ndarray, start, p: int):
    """Window positions of the dataset rows ``start``, or None unless there
    are exactly p of them and every one lies in the window ``rows``."""
    if start is None or len(start) != p:
        return None
    positions = np.searchsorted(rows, start)
    # a row past the window's last is clipped onto it and then differs
    if np.array_equal(rows.take(positions, mode="clip"), start):
        return positions
    return None


def fit_at(data: Dataset, x, cfg: EstimatorConfig, start=None) -> FitResult:
    """Fit the frontier polynomial at a single evaluation point.

    Parameters
    ----------
    data : Dataset
    x : array-like, shape (q,)
        Evaluation point in the unit cube.
    cfg : EstimatorConfig
        At ``beta_star`` 0 the fit reads only its window's responses; at >= 1 it builds the
        design matrix and objective once, and each degree retry solves a column prefix of them.
    start : array-like of int, optional
        Dataset row numbers to start the LP from, such as the
        ``active_rows`` of a fit on a nearby window. Used only at a degree
        >= 1 whose basis has as many terms as ``start`` has rows, and only
        when all lie in the window; the fit is the same with or without it,
        up to the choice among tied optimal bases.

    Returns
    -------
    FitResult
        ``value`` is the fitted polynomial evaluated at x.

    Raises
    ------
    ValueError
        ``x`` is not of shape (q,) or lies outside the unit cube.
    EmptyWindowError
        Window holds no data and ``cfg.empty_window == "error"``.
    UnboundedFitError
        LP unbounded at the requested degree and ``cfg.fallback == "error"``.
    """
    xv = np.asarray(x, dtype=float)
    if xv.shape != (data.q,):
        raise ValueError(f"point of shape {xv.shape}; expected ({data.q},)")
    if not all(0.0 <= c <= 1.0 for c in xv.tolist()):
        check_centers(xv, cfg.h)  # raises, naming the centre

    h_eff = float(cfg.h)
    # h >= 1 covers the whole cube, so this terminates for nonempty data
    while True:
        rows = window_rows(data.index, xv, h_eff)
        if rows.size:
            break
        if cfg.empty_window == "error":
            raise EmptyWindowError(f"no data within bandwidth {cfg.h} of {xv.tolist()}")
        h_eff *= _EXPAND_FACTOR

    y = data.responses.take(rows)
    shift = float(y.max())

    degree = cfg.beta_star
    if degree:
        full_basis = enumerate_basis(data.q, degree)
        A_full = vandermonde(full_basis, data.points.take(rows, axis=0), xv)
        v_full = objective_vector(xv, h_eff, full_basis)
    while degree:
        p_k = len(enumerate_basis(data.q, degree))
        outcome = lp.solve(lp.LpProblem(v_full[:p_k], A_full[:, :p_k], y - shift),
                           start=_start_positions(rows, start, p_k))
        if isinstance(outcome, lp.Optimal):
            coeffs, active = outcome.solution.copy(), outcome.active
            coeffs[0] += shift
            break
        # infeasibility is impossible: raising the constant coefficient
        # satisfies every constraint
        if not isinstance(outcome, lp.Unbounded):
            raise RuntimeError(f"local fit LP reported {outcome!r}")
        if cfg.fallback == "error":
            raise UnboundedFitError(f"degree-{degree} fit at {xv.tolist()} is unbounded "
                                    f"({rows.size} points in window)")
        degree -= 1
    if not degree:
        coeffs, active = np.array([shift]), y.argmax(keepdims=True)  # degree 0, no LP

    if degree < cfg.beta_star:
        status = "degraded"
    elif h_eff != cfg.h:  # the window grew
        status = "expanded"
    else:
        status = "exact"
    return FitResult(
        value=float(coeffs[0]),
        coeffs=PolyCoeffs(enumerate_basis(data.q, degree), coeffs),
        status=status,
        effective_degree=degree,
        effective_bandwidth=h_eff,
        n_active=int(rows.size),
        active_rows=rows.take(active),
    )


def fit_local_constant(data: Dataset, x, h: float):
    """Maximum response inside the clipped window around x; no LP involved.

    ``x`` is one point, shape (q,), or an (m, q) batch; one point returns a
    float and a batch an (m,) array, as ``eval_poly`` does. The maxima come
    from one ``windows.window_maxima`` query over the dataset's index, so
    each value equals the maximum over the rows ``window_rows`` returns for
    that centre.

    Raises
    ------
    EmptyWindowError
        Some window holds no data; the message names the first such point.
    """
    centers, single = _as_points(x, data.q)
    fitted = window_maxima(data.index, data.responses, centers, h)
    if fitted.min(initial=0.0) == -np.inf:  # responses are finite: an empty window
        point = centers[fitted.argmin()]
        raise EmptyWindowError(f"no data within bandwidth {h} of {point.tolist()}")
    return float(fitted[0]) if single else fitted


def fit_grid(data: Dataset, grid, cfg: EstimatorConfig, starts=None) -> list[FitResult]:
    """fit_at over a list of points; order of results matches the input.

    The package's one grid loop, for ``locfront fit``, the Monte Carlo runs
    and every ladder rung; a failure is re-raised naming its grid point.
    ``starts``, if given, holds one ``fit_at`` start per point (or None)."""
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if starts is None:
        starts = [None] * pts.shape[0]
    results = []
    for i, (point, start) in enumerate(zip(pts, starts, strict=True)):
        try:
            results.append(fit_at(data, point, cfg, start=start))
        except (ValueError, RuntimeError) as err:
            raise type(err)(f"grid point {i} at {point.tolist()}: {err}") from err
    return results


def load_dataset(path) -> Dataset:
    """Read a dataset from CSV with header x1,...,xq,y.

    Any coordinate outside [0,1], non-finite response or malformed row is
    rejected with the line number in the message.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DatasetFormatError(f"{path}: empty file")
        header = [c.strip() for c in header]
        q = len(header) - 1
        expected = [f"x{i + 1}" for i in range(q)] + ["y"]
        if q < 1 or header != expected:
            raise DatasetFormatError(
                f"{path}: expected header {','.join(expected if q >= 1 else ['x1', 'y'])}, "
                f"got {','.join(header)}"
            )
        points, responses = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != q + 1:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: expected {q + 1} fields, got {len(row)}"
                )
            try:
                values = [float(c) for c in row]
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: non-numeric field in {row}"
                ) from None
            for r, val in enumerate(values[:q]):
                if not 0.0 <= val <= 1.0:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: x{r + 1}={val} outside [0,1]"
                    )
            if not math.isfinite(values[q]):
                raise DatasetFormatError(
                    f"{path}: line {lineno}: y={values[q]} is not finite"
                )
            points.append(values[:q])
            responses.append(values[q])
        if not points:
            raise DatasetFormatError(f"{path}: no data rows")
    return Dataset(np.array(points), np.array(responses))


def save_dataset(data: Dataset, path) -> None:
    """Write a dataset in the same CSV format load_dataset reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(data.q)] + ["y"])
        for pt, y in zip(data.points, data.responses):
            writer.writerow([repr(float(c)) for c in pt] + [repr(float(y))])
