"""Independent oracles the tests check production code against.

Each oracle deliberately avoids the code path it verifies: quadrature instead
of antiderivatives, exact rationals instead of floating-point products, direct
rule evaluation instead of the incremental scan, vertex enumeration and scipy's
HiGHS instead of the package's simplex, ``exact_optimal_check`` re-derives
an optimal basis's solution and multipliers in rationals, and
``concave_envelope`` gives a degree-1 fit's optimum as a convex hull.
``random_lp`` draws the random local LPs those oracles check, and
``count_calls`` records the calls the package makes to one of its functions.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from locfront import lp
from locfront.basis import enumerate_basis
from locfront.windows import objective_vector


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


def exact_window_integral(lower, upper, center, h, exponents) -> tuple[Fraction, Fraction]:
    """Exact integrals of prod_r (t_r - x_r)**j_r and of its absolute value
    over the window of half-edge h around ``center``.

    Per axis the box runs from x_r - h to x_r + h, clipped to 0 where the
    window's lower end is 0 and to 1 where its upper end is 1 (the ends
    ``lower`` and ``upper`` that ``clip_window`` chose), with every end
    exact. Over offsets [lo, hi] with lo <= 0 <= hi, the antiderivative
    gives (hi**(e+1) - lo**(e+1)) / (e+1) and (hi**(e+1) + |lo|**(e+1)) /
    (e+1) for the absolute value.
    """
    h = Fraction(h)
    value = magnitude = Fraction(1)
    for a, b, x, e in zip(lower, upper, center, exponents):
        x = Fraction(x)
        lo = -x if a == 0.0 else -h
        hi = 1 - x if b == 1.0 else h
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


def dict_ratio_simplex(T, basis, max_iter, work) -> str:
    """Reference simplex loop whose ratio test is a dict of the ratios above
    TOL, ``min`` over its values, a list of the rows within TOL of that
    minimum and a ``max`` (Dantzig: largest entry, first on ties) or ``min``
    (Bland: lowest basic index) over them.

    This is ``lp._run_simplex`` as it was before its single-pass ratio test,
    line for line; it calls ``lp._bland_after`` and ``lp._pivot`` through the
    module, so a test that patches them patches both loops.
    """
    TOL = lp.TOL
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    bland_after = lp._bland_after(m + n, max_iter)
    degenerate = 0
    bland = False
    costs = T[-1, :n]
    # views into T, which every pivot updates in place
    columns = T[:m].T
    rhs_column = columns[n]
    for _ in range(max_iter):
        if bland:
            entering = np.flatnonzero(costs < -TOL)
            if entering.size == 0:
                return "optimal"
            k = int(entering[0])
        else:
            k = int(costs.argmin())
            if costs[k] >= -TOL:
                return "optimal"
        col = columns[k].tolist()
        rhs = rhs_column.tolist()
        ratios = {i: rhs[i] / c for i, c in enumerate(col) if c > TOL}
        if not ratios:
            # no entry above TOL; an overflowed, infinite theta is not this test
            return "unbounded"
        theta = min(ratios.values())
        bound = theta + TOL * (1.0 + abs(theta))
        near = [i for i, ratio in ratios.items() if ratio <= bound]
        if bland:
            r = min(near, key=basis.__getitem__)
        else:
            r = max(near, key=col.__getitem__)
        if theta <= TOL:
            degenerate += 1
            if degenerate > bland_after:
                bland = True
        else:
            degenerate = 0
        lp._pivot(T, basis, r, k, work)
    raise lp.SimplexIterationError(
        f"simplex exceeded {max_iter} pivots on a {m}x{n} tableau"
    )


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


def _exact_solve(M, rhs):
    """The solution of the square rational system M z = rhs by Gaussian
    elimination, or None when M is singular."""
    rows = [list(row) + [c] for row, c in zip(M, rhs)]
    p = len(rows)
    for k in range(p):
        pivot = next((i for i in range(k, p) if rows[i][k] != 0), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, p):
            factor = rows[i][k] / rows[k][k]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    z = [Fraction(0)] * p
    for k in reversed(range(p)):
        z[k] = (rows[k][p] - sum(rows[k][j] * z[j] for j in range(k + 1, p))) / rows[k][k]
    return z


def exact_optimal_check(prob, outcome) -> float:
    """Check in exact rationals, on the float inputs, that ``outcome.active``
    is an optimal basis of ``prob``, and return the float value's error.

    A_B, the rows of A in ``outcome.active``, must be square and nonsingular;
    its exact basic solution b* = A_B^-1 y_B must satisfy A b* >= y on every
    row, and its multipliers g_B = A_B^-T v must be >= 0, which together
    prove b* optimal. An outcome with fewer active rows than p is reduced
    first by the zero columns j of A: each needs v_j == 0 and b_j == 0, b*_j
    is 0, and their number must make up the shortfall, so that the other
    columns' A_B is square; any other short basis fails. A failed check
    raises AssertionError. Returns |b_0 - b*_0| for the float solution b,
    relative to the response spread max(y) - min(y) (absolute when the
    spread is 0).
    """
    A = [[Fraction(a) for a in row] for row in prob.constraints.tolist()]
    y = [Fraction(c) for c in prob.rhs.tolist()]
    v = [Fraction(c) for c in prob.objective.tolist()]
    active = outcome.active.tolist()
    p = len(v)
    zero = [j for j in range(p) if not any(row[j] for row in A)] if len(active) < p else []
    assert len(active) + len(zero) == p, \
        f"{len(active)} active rows and {len(zero)} zero columns for {p} coefficients"
    for j in zero:
        assert v[j] == 0 and outcome.solution[j] == 0.0, \
            f"zero column {j} has v_j = {float(v[j])} and b_j = {outcome.solution[j]}"
    kept = [j for j in range(p) if j not in zero]
    A = [[row[j] for j in kept] for row in A]
    A_B = [A[i] for i in active]
    b = _exact_solve(A_B, [y[i] for i in active])
    assert b is not None, f"A_B is singular on the rows {active}"
    violated = [i for i, (row, c) in enumerate(zip(A, y)) if sum(map(Fraction.__mul__, row, b)) < c]
    assert not violated, f"A b* >= y fails on the rows {violated}"
    g = _exact_solve(list(zip(*A_B)), [v[j] for j in kept])
    assert min(g) >= 0, f"negative multiplier g_B = {[float(c) for c in g]}"
    error = abs(Fraction(float(outcome.solution[0])) - dict(zip(kept, b)).get(0, 0))
    spread = max(y) - min(y)
    return float(error / spread if spread else error)


def concave_envelope(points, responses, lower, upper):
    """(value, margin): the upper concave envelope of the lifted window
    points (t_i, y_i) at the centroid c of the box [lower, upper], and c's
    signed distance to the boundary of the convex hull of the t_i, positive
    inside. ``value`` is None unless the margin is positive; the hull of
    points that do not span R^q has no inside, so c is at best on it.

    With the LP's rhs as the responses, this is the optimum of a degree-1
    fit LP, whose objective is v_0 (1, c - x), divided by the window volume
    v_0, and the LP is unbounded exactly when c is outside the hull. At
    q = 1 the envelope is an exact monotone chain in rationals, with c the
    exact midpoint of the float corners. At q = 2 c is the float midpoint,
    the margin comes from qhull's hull of the t_i, and the value from its
    hull of the lifted points together with a copy of each t_i one spread
    below the lowest response, which is solid whenever the t_i span the
    plane; its upward facets are the envelope.
    """
    t = np.asarray(points, dtype=float)
    y = np.asarray(responses, dtype=float)
    q = t.shape[1]
    if q == 1:
        c = (Fraction(lower[0]) + Fraction(upper[0])) / 2
        top = {}
        for a, b in zip(map(Fraction, t[:, 0].tolist()), map(Fraction, y.tolist())):
            top[a] = max(b, top.get(a, b))
        margin = min(c - min(top), max(top) - c)
        if margin <= 0:
            return None, float(margin)
        chain = []  # the upper hull, left to right: every turn is clockwise
        for a in sorted(top):
            while len(chain) >= 2 and (
                    (chain[-1][0] - chain[-2][0]) * (top[a] - chain[-2][1])
                    >= (chain[-1][1] - chain[-2][1]) * (a - chain[-2][0])):
                chain.pop()
            chain.append((a, top[a]))
        (a0, b0), (a1, b1) = next(pair for pair in zip(chain, chain[1:]) if pair[1][0] >= c)
        return float(b0 + (b1 - b0) * (c - a0) / (a1 - a0)), float(margin)
    if q != 2:
        raise ValueError(f"concave_envelope covers q = 1 and 2, got q = {q}")
    c = (np.asarray(lower, dtype=float) + np.asarray(upper, dtype=float)) / 2
    mean = t.mean(axis=0)
    _, sv, axes = np.linalg.svd(t - mean)
    if sv.size < q or sv[-1] <= 1e-12 * max(sv[0], 1e-300):
        # a segment or a point: the distance from c to it
        s = (t - mean) @ axes[0]
        nearest = mean + np.clip((c - mean) @ axes[0], s.min(), s.max()) * axes[0]
        return None, -float(np.linalg.norm(c - nearest))
    facets = ConvexHull(t).equations
    margin = -float((facets[:, :q] @ c + facets[:, q]).max())
    if margin <= 0.0:
        return None, margin
    # shifted to a zero maximum, so qhull sees one scale whatever the offset
    top = y.max()
    low = -2.0 * (np.ptp(y) or 1.0)
    lifted = np.vstack([np.column_stack([t, y - top]), np.column_stack([t, np.full(len(y), low)])])
    normal = ConvexHull(lifted).equations
    up = normal[:, q] > 0.0
    heights = -(normal[up, q + 1] + normal[up, :q] @ c) / normal[up, q]
    return float(heights.min() + top), margin


def random_lp(rng) -> lp.LpProblem:
    """A random dense local LP of up to 10 rows: v is a real window's integral
    vector for a basis of q = 1-3 and degree 0-5, 0-2 or 0-1, and A and y
    are uniform on [-1, 1]."""
    q = int(rng.integers(1, 4))
    max_deg = {1: 5, 2: 2, 3: 1}[q]
    basis = enumerate_basis(q, int(rng.integers(0, max_deg + 1)))
    v = objective_vector(rng.uniform(0, 1, q), rng.uniform(0.05, 0.8), basis)
    m = int(rng.integers(len(basis), 11))
    return lp.LpProblem(v, rng.uniform(-1, 1, (m, len(basis))), rng.uniform(-1, 1, m))


def count_calls(monkeypatch, module, attr, limit=None) -> list[dict]:
    """Patch ``attr`` in every ``locfront`` module that binds the function, as
    the benchmark's tracer does, and return the list each call appends to.

    A call appends its arguments by parameter name, defaults included, and
    then its return value under "result". A call past ``limit`` raises
    AssertionError instead of running, so a looping caller stops.
    """
    calls = []
    original = getattr(importlib.import_module(module), attr)
    signature = inspect.signature(original)

    def counting(*args, **kwargs):
        if limit is not None and len(calls) >= limit:
            raise AssertionError(f"more than {limit} {attr} calls in one test")
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        bound.arguments["result"] = original(*args, **kwargs)
        return bound.arguments["result"]

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "locfront" and getattr(mod, attr, None) is original:
            monkeypatch.setattr(mod, attr, counting)
    return calls
