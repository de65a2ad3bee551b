"""Independent oracles the tests check production code against.

Each oracle deliberately avoids the code path it verifies: quadrature instead
of antiderivatives, exhaustive loops instead of vectorized counting, direct
rule evaluation instead of the incremental scan, vertex enumeration and scipy's
HiGHS instead of the package's simplex.
"""

from __future__ import annotations

import itertools
import math

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
        [math.prod(d[r] ** e for r, e in enumerate(mi.exponents)) for mi in basis.indices],
        dtype=float,
    )


def brute_force_min_cube_count(points: np.ndarray, edge: float) -> int:
    """Minimum point count over the shifted lattice of cubes with the given edge.

    Same cube family as the production validator (pitch edge/2 plus the
    flush-to-1 corner), counted with explicit loops.
    """
    pts = np.atleast_2d(points)
    q = pts.shape[1]
    if edge >= 1.0:
        corners_1d = [0.0]
    else:
        pitch = edge / 2.0
        corners_1d = []
        c = 0.0
        while c < 1.0 - edge + 1e-12:
            corners_1d.append(c)
            c += pitch
        if not corners_1d or abs(corners_1d[-1] - (1.0 - edge)) > 1e-12:
            corners_1d.append(1.0 - edge)

    def cubes(prefix):
        if len(prefix) == q:
            yield prefix
            return
        for c in corners_1d:
            yield from cubes(prefix + [c])

    best = None
    eps = 1e-12
    for corner in cubes([]):
        count = 0
        for pt in pts:
            if all(corner[r] - eps <= pt[r] <= corner[r] + edge + eps for r in range(q)):
                count += 1
        best = count if best is None else min(best, count)
    return best


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
