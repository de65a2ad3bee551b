"""Independent oracles the tests check production code against.

Each oracle deliberately avoids the code path it verifies: quadrature instead
of antiderivatives, exact rationals instead of floating-point products, direct
rule evaluation instead of the incremental scan, vertex enumeration and scipy's
HiGHS instead of the package's simplex.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog


def quad_monomial_integral(lower, upper, center, exponents) -> float:
    """Adaptive numeric quadrature of prod_r (t_r - x_r)^j_r over a box."""
    total = 1.0
    for a, b, x, j in zip(lower, upper, center, exponents):
        value, _ = quad(lambda t, x=x, j=j: (t - x) ** j, a, b,
                        epsabs=1e-13, epsrel=1e-13)
        total *= value
    return total


def shifted_monomial_row(basis, t, x) -> np.ndarray:
    """(t - x)**j for every basis index j, one coordinate product per monomial."""
    d = np.asarray(t, dtype=float) - np.asarray(x, dtype=float)
    return np.array(
        [math.prod(d[r] ** e for r, e in enumerate(j)) for j in basis.indices],
        dtype=float,
    )


def exact_monomial_row(basis, t, x) -> list[Fraction]:
    """(t - x)**j for every basis index j, in exact rational arithmetic.

    The float coordinates convert to fractions exactly, so the offsets t - x
    and their powers carry no rounding.
    """
    d = [Fraction(a) - Fraction(b) for a, b in zip(t, x)]
    return [math.prod((d[r] ** e for r, e in enumerate(j)), start=Fraction(1))
            for j in basis.indices]


def exact_window_integral(w, exponents) -> tuple[Fraction, Fraction]:
    """Exact integrals of prod_r (t_r - x_r)**j_r and of its absolute value
    over the window.

    Per axis the box runs from x_r - h to x_r + h, clipped to 0 where the
    window's lower end is 0 and to 1 where its upper end is 1 (the ends
    ``clip_window`` chose), with every end exact. Over offsets [lo, hi] with
    lo <= 0 <= hi, the antiderivative gives (hi**(e+1) - lo**(e+1)) / (e+1)
    and (hi**(e+1) + |lo|**(e+1)) / (e+1) for the absolute value.
    """
    h = Fraction(w.bandwidth)
    value = magnitude = Fraction(1)
    for x, lower, upper, e in zip(w.center.tolist(), w.lower.tolist(),
                                  w.upper.tolist(), exponents):
        x = Fraction(x)
        lo = -x if lower == 0.0 else -h
        hi = 1 - x if upper == 1.0 else h
        value *= (hi ** (e + 1) - lo ** (e + 1)) / (e + 1)
        magnitude *= (hi ** (e + 1) + abs(lo) ** (e + 1)) / (e + 1)
    return value, magnitude


def brute_force_ladder_index(grid_estimates, thresholds):
    """Literal evaluation of the ladder stopping rule on a fit table.

    Builds the whole trigger set {k : exists l <= k with
    max|g_{k+1} - g_l| > zeta_l + zeta_{k+1}} and takes min(set) capped at K.
    """
    g = np.atleast_2d(np.asarray(grid_estimates, dtype=float))
    zeta = np.asarray(thresholds, dtype=float).ravel()
    top = g.shape[0] - 2
    triggered = [
        k
        for k in range(top + 1)
        if any(
            float(np.max(np.abs(g[k + 1] - g[l]))) > zeta[l] + zeta[k + 1]
            for l in range(k + 1)
        )
    ]
    return min(triggered) if triggered else top


def brute_force_pilot_alpha(points, responses, hill_order=None) -> float:
    """The adaptive rule's Hill plug-in, computed with explicit loops.

    Each data point's pilot value is the largest response within max-norm
    distance h = n**(-1/(q+1)) of it, found by comparing every pair of points
    coordinate by coordinate. The Hill estimate takes the k+1 smallest
    magnitudes of the strictly negative residuals and sums its log ratios
    exactly; k defaults to 2 sqrt(n), kept below the negative count.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    y = np.asarray(responses, dtype=float)
    n, q = pts.shape
    h = min(1.0, float(n) ** (-1.0 / (q + 1)))
    residuals = []
    for i in range(n):
        best = -math.inf
        for j in range(n):
            if all(abs(pts[j, r] - pts[i, r]) <= h for r in range(q)):
                best = max(best, y[j])
        residuals.append(y[i] - best)
    magnitudes = sorted(-e for e in residuals if e < 0.0)
    if hill_order is None:
        k = max(1, min(int(2 * math.sqrt(n)), len(magnitudes) - 1))
    else:
        k = hill_order
    z = magnitudes[: k + 1]
    return k / math.fsum(math.log(z[k] / z[i]) for i in range(k))


def enumerate_vertices_oracle(prob, feas_tol: float = 1e-9) -> list[np.ndarray]:
    """All basic feasible points of {b : A b >= y}, by exhaustion.

    Every subset of p linearly independent rows is intersected and kept if it
    satisfies the remaining constraints. Only intended for small instances
    (p <= 6, m <= 10); larger problems are rejected.
    """
    A = prob.constraints
    y = prob.rhs
    m, p = A.shape
    if p > 6 or m > 10:
        raise ValueError(f"oracle limited to p <= 6, m <= 10, got p={p}, m={m}")
    scale = max(1.0, float(np.abs(y).max()))
    vertices = []
    for rows in itertools.combinations(range(m), p):
        sub = A[list(rows)]
        sv = np.linalg.svd(sub, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            continue
        b = np.linalg.solve(sub, y[list(rows)])
        if np.all(A @ b >= y - feas_tol * scale):
            vertices.append(b)
    return vertices


def reset_pivot(T, basis, r, k, work) -> None:
    """Reference simplex pivot on (r, k) in six array steps, ending in an
    explicit reset of column k to the unit vector e_r.

    Row r is scaled by its pivot entry; ``work`` gets the strided column k
    broadcast against it, with its own row r multiplied by 0; T loses
    ``work``; column k is then overwritten with zeros and a one at row r.
    """
    T[r] /= T[r, k]
    np.multiply(T[:, k, None], T[r], out=work)
    work[r] *= 0.0
    T -= work
    T[:, k] = 0.0
    T[r, k] = 1.0
    basis[r] = k


def _column_scaled(prob):
    """A with unit max-norm columns d, the objective v / d at unit max-norm, d."""
    A = prob.constraints
    d = np.abs(A).max(axis=0)
    d[d == 0.0] = 1.0
    w = prob.objective / d
    return A / d, w / (float(np.abs(w).max()) or 1.0), d


def highs_reference(prob):
    """HiGHS solution of min v.b s.t. A b >= y; returns (status, b or None).

    HiGHS has absolute tolerances and windowed objective entries shrink like
    h^(q+|j|), so it solves for c = d b with every column of A scaled to unit
    max-norm and the objective to unit max-norm; b is mapped back.
    """
    A, w, d = _column_scaled(prob)
    res = linprog(
        w, A_ub=-A, b_ub=-prob.rhs, bounds=[(None, None)] * w.shape[0], method="highs"
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(
        res.status, f"highs_status_{res.status}"
    )
    return status, (res.x / d if res.status == 0 else None)


def highs_has_certificate(prob) -> bool:
    """Whether HiGHS finds some g >= 0 with A^T g = v (column-scaled)."""
    A, w, _ = _column_scaled(prob)
    res = linprog(
        np.zeros(A.shape[0]), A_eq=A.T, b_eq=w, bounds=[(0, None)] * A.shape[0],
        method="highs",
    )
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS feasibility check ended with {res.message}")
    return res.status == 0


def scale_relative_error(prob, b, b_ref) -> float:
    """Error of a claimed optimum b against a reference optimum b_ref.

    The larger of the worst constraint violation, each relative to
    |A_i| . |b| + |y_i|, and the objective gap relative to
    sum_j |v_j| max(|b_j|, |b_ref_j|); a window of any size is judged alike.
    """
    v, A, y = prob.objective, prob.constraints, prob.rhs
    row_scale = np.abs(A) @ np.abs(b) + np.abs(y)
    slack = (y - A @ b) / np.maximum(row_scale, np.finfo(float).tiny)
    obj_scale = float(np.abs(v) @ np.maximum(np.abs(b), np.abs(b_ref)))
    gap = abs(float(v @ b) - float(v @ b_ref))
    return max(0.0, float(slack.max()), gap / obj_scale if obj_scale > 0.0 else gap)


def dual_residuals(prob, g, b) -> tuple[float, float]:
    """Scale-relative residuals of a dual certificate g for the primal optimum b.

    The first is max_j |A^T g - v|_j / (|A|^T |g| + |v|)_j, the second
    |y.g - v.b| / (|y|.|g| + |v|.|b|). Each residual is at most its scale, so
    a zero scale means an exact equation and counts as 0.
    """
    v, A, y = prob.objective, prob.constraints, prob.rhs
    scale = np.abs(A).T @ np.abs(g) + np.abs(v)
    residual = np.abs(A.T @ g - v)
    feasibility = float(np.max(residual / np.where(scale > 0.0, scale, 1.0)))
    gap_scale = float(np.abs(y) @ np.abs(g) + np.abs(v) @ np.abs(b))
    gap = abs(float(y @ g) - float(v @ b))
    return feasibility, gap / gap_scale if gap_scale > 0.0 else 0.0
