"""The local polynomial frontier estimator.

For an evaluation point x, the fit collects the data inside the clipped
max-norm window, builds the LP "minimize the polynomial's integral over the
window subject to lying above every windowed response", solves it, and
reports the polynomial's value at x, which by the basis layout is the first
coefficient.

Fixed-sample degeneracies the asymptotic theory ignores are handled by
explicit policies: an empty window can either error or grow the bandwidth,
and an unbounded LP can either error or retry at a lower degree (degree 0 is
always bounded once the window holds a point).

Before solving, responses are shifted by their window maximum and the
constant coefficient is shifted back afterwards. The LP then sees the same
right-hand side whatever the offset of the data, so a fit moves exactly with
a constant shift of the responses.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lp
from .basis import PolyCoeffs, enumerate_basis, vandermonde
from .windows import WindowIndex, clip_window, objective_vector, window_rows


class EmptyWindowError(ValueError):
    """No data point inside the window and the policy forbids expanding it."""


class UnboundedFitError(RuntimeError):
    """The local LP is unbounded and the policy forbids degrading the degree."""


class DatasetFormatError(ValueError):
    """Malformed dataset file (bad header, field count, or out-of-cube value)."""


_FALLBACKS = ("error", "degrade_degree")
_EMPTY_POLICIES = ("error", "expand")


@dataclass(frozen=True)
class Dataset:
    """Covariate points in the unit cube with scalar responses.

    The dataset holds its own read-only copies of both arrays, so the window
    index built from ``points`` on the first window query stays valid; each
    later query costs O(log n + slab) rather than a scan of all n points.
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
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValueError("covariate points must lie in [0,1]^q")
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
    """Degree, bandwidth, and degeneracy policies for a local fit."""

    beta_star: int
    h: float
    fallback: str = "degrade_degree"
    empty_window: str = "error"
    expand_factor: float = 1.5

    def __post_init__(self):
        if self.beta_star < 0:
            raise ValueError("beta_star must be >= 0")
        if self.h <= 0:
            raise ValueError("bandwidth must be positive")
        if self.fallback not in _FALLBACKS:
            raise ValueError(f"fallback must be one of {_FALLBACKS}")
        if self.empty_window not in _EMPTY_POLICIES:
            raise ValueError(f"empty_window must be one of {_EMPTY_POLICIES}")
        if self.expand_factor <= 1.0:
            raise ValueError("expand_factor must exceed 1")


@dataclass(frozen=True)
class FitResult:
    """Value and fitted polynomial of one local fit.

    ``status`` is "exact" for an untouched fit, "degraded" when the degree was
    lowered to restore boundedness, "expanded" when the window had to grow to
    find data. If both fallbacks fire, "degraded" wins; the bandwidth actually
    used is always in ``effective_bandwidth``.
    """

    value: float
    coeffs: PolyCoeffs
    status: str
    effective_degree: int
    effective_bandwidth: float
    n_active: int


def fit_at(data: Dataset, x, cfg: EstimatorConfig) -> FitResult:
    """Fit the frontier polynomial at a single evaluation point.

    Parameters
    ----------
    data : Dataset
    x : array-like, shape (q,)
        Evaluation point in the unit cube.
    cfg : EstimatorConfig

    Returns
    -------
    FitResult
        ``value`` is the fitted polynomial evaluated at x.

    Raises
    ------
    EmptyWindowError
        Window holds no data and ``cfg.empty_window == "error"``.
    UnboundedFitError
        LP unbounded at the requested degree and ``cfg.fallback == "error"``.
    """
    xv = np.asarray(x, dtype=float).ravel()
    if xv.shape[0] != data.q:
        raise ValueError(f"point has dimension {xv.shape[0]}, expected {data.q}")

    h_eff = float(cfg.h)
    window = clip_window(xv, h_eff)
    rows = window_rows(window, data.index)
    expanded = False
    if rows.size == 0:
        if cfg.empty_window == "error":
            raise EmptyWindowError(
                f"no data within bandwidth {cfg.h} of {xv.tolist()}"
            )
        # h >= 1 covers the whole cube, so this terminates for nonempty data
        while rows.size == 0:
            h_eff *= cfg.expand_factor
            window = clip_window(xv, h_eff)
            rows = window_rows(window, data.index)
        expanded = True

    pts = data.points[rows]
    y = data.responses[rows]
    n_active = int(rows.size)

    full_basis = enumerate_basis(data.q, cfg.beta_star)
    A_full = vandermonde(full_basis, pts, xv)
    v_full = objective_vector(window, full_basis)
    shift = float(y.max())
    y_shifted = y - shift

    degree = cfg.beta_star
    while True:
        basis_k = enumerate_basis(data.q, degree)
        p_k = len(basis_k)
        outcome = lp.solve(lp.LpProblem(v_full[:p_k], A_full[:, :p_k], y_shifted))
        if isinstance(outcome, lp.Optimal):
            coeffs = outcome.solution.copy()
            coeffs[0] += shift
            if degree < cfg.beta_star:
                status = "degraded"
            elif expanded:
                status = "expanded"
            else:
                status = "exact"
            return FitResult(
                value=float(coeffs[0]),
                coeffs=PolyCoeffs(basis_k, coeffs),
                status=status,
                effective_degree=degree,
                effective_bandwidth=h_eff,
                n_active=n_active,
            )
        if isinstance(outcome, lp.Unbounded):
            if cfg.fallback == "error":
                raise UnboundedFitError(
                    f"degree-{degree} fit at {xv.tolist()} is unbounded "
                    f"({n_active} points in window)"
                )
            degree -= 1  # degree 0 is always bounded: v[0] > 0, ones column
            continue
        # infeasibility is impossible: raising the constant coefficient
        # satisfies every constraint
        raise RuntimeError(f"local fit LP reported {outcome!r}")


def fit_local_constant(data: Dataset, x, h: float) -> float:
    """Maximum response inside the clipped window; no LP involved."""
    xv = np.asarray(x, dtype=float).ravel()
    rows = window_rows(clip_window(xv, h), data.index)
    if rows.size == 0:
        raise EmptyWindowError(f"no data within bandwidth {h} of {xv.tolist()}")
    return float(data.responses[rows].max())


def fit_grid(data: Dataset, grid, cfg: EstimatorConfig) -> list[FitResult]:
    """fit_at over a list of points; order of results matches the input."""
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    results = []
    for i, point in enumerate(pts):
        try:
            results.append(fit_at(data, point, cfg))
        except (ValueError, RuntimeError) as err:
            raise type(err)(
                f"grid point {i} at {point.tolist()}: {err}"
            ) from err
    return results


def load_dataset(path) -> Dataset:
    """Read a dataset from CSV with header x1,...,xq,y.

    Any coordinate outside [0,1] or malformed row is rejected with the line
    number in the message.
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
