"""Bandwidth rules: fixed formulas, a tail-index plug-in, and a ladder rule.

The ladder rule compares fits along a geometric bandwidth sequence and stops
at the first pair whose sup-distance over an evaluation grid exceeds the sum
of their thresholds. The thresholds scale like (log n / (n h^q))^(1/alpha)
with alpha estimated from pilot residuals by a Hill-type estimator at the
lower endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import Dataset, EstimatorConfig, fit_grid, fit_local_constant

# every rung's fit policies: no rung fails for want of data or of boundedness
LADDER_POLICIES = {"fallback": "degrade_degree", "empty_window": "expand"}


def simulation_bandwidth(n: int, q: int, beta_star: int) -> float:
    """n**(-1/(beta_star + 1 + q)), capped at 1."""
    if n < 1 or q < 1 or beta_star < 0:
        raise ValueError("need n >= 1, q >= 1, beta_star >= 0")
    return min(1.0, float(n) ** (-1.0 / (beta_star + 1 + q)))


def balanced_bandwidth(n: int, q: int, alpha: float, beta: float) -> float:
    """(log n / n)**(1/(alpha*beta + q)), capped at 1.

    Balances the smoothing bias against the tail-driven stochastic error for
    a boundary of smoothness ``beta`` under error tail index ``alpha``.
    """
    if n < 3:
        raise ValueError("need n >= 3 so that log(n) > 1")
    if not (alpha > 0 and beta > 0):
        raise ValueError(f"alpha and beta must be positive, got {alpha}, {beta}")
    return min(1.0, (math.log(n) / n) ** (1.0 / (alpha * beta + q)))


def hill_tail_index(residuals, k: int) -> float:
    """Tail index of the residual law at its upper endpoint zero.

    Uses the k smallest magnitudes z_(1) <= ... <= z_(k+1) among strictly
    negative residuals and returns k / sum_i log(z_(k+1) / z_(i)), the Hill
    estimator after mapping the endpoint to an upper Pareto tail.

    Raises ValueError with fewer than k+1 strictly negative residuals or when
    ties make every log ratio vanish.
    """
    if k < 1:
        raise ValueError("order count k must be >= 1")
    res = np.asarray(residuals, dtype=float).ravel()
    magnitudes = -res[res < 0.0]
    if magnitudes.size < k + 1:
        raise ValueError(
            f"need at least {k + 1} strictly negative residuals, have {magnitudes.size}"
        )
    z = np.sort(magnitudes)[: k + 1]
    denom = float(np.log(z[k] / z[:k]).sum())
    if denom <= 0.0:
        raise ValueError("all order statistics tied; log ratios are degenerate")
    return k / denom


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the ladder selection rule.

    ``grid`` is the evaluation grid the fits are compared on, shape
    (n_grid, q). The threshold of ladder index k is
    ``threshold_constant * (log n / (n h_k^q))**(1/alpha_hat)`` with alpha_hat
    from ``hill_tail_index`` on local-constant pilot residuals. ``hill_order``
    (config key ``adaptive_hill_order``) fixes its order count k >= 1; a k
    with fewer than k + 1 strictly negative pilot residuals fails before any
    rung is fitted.
    """

    grid: np.ndarray
    s: float = 0.5
    rho: float = 1.25
    threshold_constant: float = 1.0
    hill_order: int | None = None

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError("s must lie in (0, 1)")
        if not self.rho > 1.0:
            raise ValueError(f"rho must exceed 1, got {self.rho}")
        grid = np.atleast_2d(np.asarray(self.grid, dtype=float))
        if grid.shape[0] < 1:
            raise ValueError("evaluation grid must be nonempty")
        if not self.threshold_constant > 0:
            raise ValueError("threshold_constant must be positive")
        if self.hill_order is not None and self.hill_order < 1:
            raise ValueError(
                f"hill_order (adaptive_hill_order) must be >= 1, got {self.hill_order}"
            )
        object.__setattr__(self, "grid", grid)


@dataclass(frozen=True)
class AdaptiveResult:
    """Selected ladder index plus the full diagnostic table."""

    k_hat: int
    h_selected: float
    bandwidths: np.ndarray
    thresholds: np.ndarray
    grid_estimates: np.ndarray
    trigger: tuple[int, int] | None
    alpha_hat: float

    def diagnostics_rows(self) -> list[dict]:
        """One row per ladder index: k, h_k, threshold, sup-delta to the next fit."""
        deltas = [*np.abs(np.diff(self.grid_estimates, axis=0)).max(axis=1), float("nan")]
        return [
            {"k": k, "h_k": float(h), "zeta_k": float(zeta), "max_delta_next": float(delta)}
            for k, (h, zeta, delta) in enumerate(zip(self.bandwidths, self.thresholds, deltas))
        ]


def select_bandwidth_index(
    grid_estimates, thresholds
) -> tuple[int, tuple[int, int] | None]:
    """Apply the ladder stopping rule to a precomputed table of fits.

    Parameters
    ----------
    grid_estimates : array-like, shape (K+2, n_grid)
        Row k holds the fit with bandwidth h_k at every grid point.
    thresholds : array-like, shape (K+2,)

    Returns
    -------
    (k_hat, trigger)
        k_hat is the smallest k <= K for which some l <= k has
        max|g_{k+1} - g_l| > zeta_l + zeta_{k+1}, or K when none does.
        ``trigger`` is the first (k, l) pair that fired, scanned in ascending
        k then ascending l, or None.
    """
    g = np.atleast_2d(np.asarray(grid_estimates, dtype=float))
    zeta = np.asarray(thresholds, dtype=float).ravel()
    if g.shape[0] != zeta.shape[0]:
        raise ValueError(
            f"{g.shape[0]} estimate rows but {zeta.shape[0]} thresholds"
        )
    if g.shape[0] < 2:
        raise ValueError("ladder needs at least two bandwidths")
    top = g.shape[0] - 2
    for k in range(top + 1):
        for l in range(k + 1):
            if np.max(np.abs(g[k + 1] - g[l])) > zeta[l] + zeta[k + 1]:
                return min(k, top), (k, l)
    return top, None


def _pilot_alpha(data: Dataset, cfg: AdaptiveConfig) -> float:
    """Hill plug-in on residuals of a local-constant pilot fit."""
    h_pilot = simulation_bandwidth(data.n, data.q, 0)
    residuals = data.responses - fit_local_constant(data, data.points, h_pilot)
    n_neg = int((residuals < 0).sum())
    if cfg.hill_order is None:
        k = max(1, min(int(2 * math.sqrt(data.n)), n_neg - 1))
    elif cfg.hill_order < n_neg:
        k = cfg.hill_order
    else:
        raise ValueError(
            f"hill_order (adaptive_hill_order) {cfg.hill_order} needs "
            f"{cfg.hill_order + 1} strictly negative pilot residuals, have {n_neg}"
        )
    return hill_tail_index(residuals, k)


def adaptive_bandwidth(
    data: Dataset, beta_star: int, cfg: AdaptiveConfig
) -> AdaptiveResult:
    """Run the full ladder: fit at every rung, threshold, select.

    The ladder is h_k = n**(s-1) * rho**k for k = 0..K+1 with
    K = floor(log_rho(n**(1-s))), each capped at 1 before fitting. Fits use
    degree degradation and window expansion so a rung never fails outright;
    per-rung failures from deeper numerical trouble propagate with the rung
    index attached.
    """
    n = data.n
    K = int(math.floor((1.0 - cfg.s) * math.log(n) / math.log(cfg.rho))) if n > 1 else 0
    h0 = float(n) ** (cfg.s - 1.0)
    ladder = h0 * cfg.rho ** np.arange(K + 2)
    capped = np.minimum(ladder, 1.0)

    grid = cfg.grid
    if grid.shape[1] != data.q:
        raise ValueError(f"grid has dimension {grid.shape[1]}, expected {data.q}")
    # the pilot needs no rung, so a Hill order the data cannot support fails first
    alpha_hat = _pilot_alpha(data, cfg)
    estimates = np.empty((K + 2, grid.shape[0]))
    for k in range(K + 2):
        fit_cfg = EstimatorConfig(beta_star=beta_star, h=float(capped[k]), **LADDER_POLICIES)
        try:
            estimates[k] = [fit.value for fit in fit_grid(data, grid, fit_cfg)]
        except (ValueError, RuntimeError) as err:
            raise type(err)(f"ladder rung k={k} (h={capped[k]:.4g}): {err}") from err

    thresholds = cfg.threshold_constant * (
        math.log(n) / (n * capped ** data.q)
    ) ** (1.0 / alpha_hat)

    k_hat, trigger = select_bandwidth_index(estimates, thresholds)
    return AdaptiveResult(
        k_hat=k_hat,
        h_selected=float(capped[k_hat]),
        bandwidths=capped,
        thresholds=thresholds,
        grid_estimates=estimates,
        trigger=trigger,
        alpha_hat=alpha_hat,
    )
