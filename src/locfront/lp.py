"""Dense LP solver for "minimize v.b subject to A b >= y" with free variables.

The fitting problem is small and dense: a handful of polynomial coefficients
(p <= 10) and one constraint per data row in the window (m up to a few
thousand). It is solved through its dual

    maximize y.g   subject to   A^T g = v,  g >= 0,

a two-phase simplex on a tableau of p equality rows and one column per data
row. Phase 1 finds a g >= 0 with A^T g = v. Such a g exists exactly when v.b
is bounded below on the (nonempty) feasible set, so phase 1 is the
boundedness test and its g is the certificate ``check_bounded`` returns.
Phase 2 maximizes y.g from there: an unbounded dual means the constraints
are infeasible, and an optimal basis B gives the primal solution by one
square solve of A_B b = y_B on its active rows.

Tolerances are scale-free. The entries of a windowed objective shrink like
h^(q+|j|), so the tableau is built with every column of A scaled to unit
max-norm (b = c / d) and with v and y scaled to unit max-norm; solutions and
certificates are mapped back to the caller's scale.

Cycling on degenerate instances (collinear data points) is handled by
switching to Bland's rule after a budget of degenerate pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Pivoting and feasibility tolerance, applied to the scaled tableau.
TOL = 1e-9


class SimplexIterationError(RuntimeError):
    """Pivot limit exceeded; signals numerical trouble, not a problem status."""


@dataclass(frozen=True)
class LpProblem:
    """minimize objective . b   subject to   constraints @ b >= rhs,  b free."""

    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.objective, dtype=float)
        A = np.asarray(self.constraints, dtype=float)
        y = np.asarray(self.rhs, dtype=float)
        if v.ndim != 1 or A.ndim != 2 or y.ndim != 1:
            raise ValueError("objective and rhs must be vectors, constraints a matrix")
        m, p = A.shape
        if m < 1 or p < 1:
            raise ValueError("need at least one constraint and one variable")
        if v.shape[0] != p:
            raise ValueError(f"objective length {v.shape[0]} != {p} columns")
        if y.shape[0] != m:
            raise ValueError(f"rhs length {y.shape[0]} != {m} rows")
        if not (np.isfinite(v).all() and np.isfinite(A).all() and np.isfinite(y).all()):
            raise ValueError("problem data must be finite")
        object.__setattr__(self, "objective", v)
        object.__setattr__(self, "constraints", A)
        object.__setattr__(self, "rhs", y)

    @property
    def shape(self) -> tuple[int, int]:
        return self.constraints.shape


@dataclass(frozen=True)
class Optimal:
    solution: np.ndarray
    objective_value: float


@dataclass(frozen=True)
class Unbounded:
    """No g >= 0 with A^T g = v: v.b has no lower bound on the feasible set.

    Reported whenever the dual is infeasible; a fit LP is always feasible
    (raising the constant coefficient satisfies every row).
    """


@dataclass(frozen=True)
class Infeasible:
    pass


LpOutcome = Optimal | Unbounded | Infeasible


@dataclass(frozen=True)
class BoundednessCertificate:
    """Nonnegative multipliers g with A^T g = v (within tolerance)."""

    multipliers: np.ndarray


def _pivot(T: np.ndarray, basis: list[int], r: int, k: int) -> None:
    T[r] /= T[r, k]
    col = T[:, k].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    # keep the pivot column an exact unit vector
    T[:, k] = 0.0
    T[r, k] = 1.0
    basis[r] = k


def _run_simplex(T: np.ndarray, basis: list[int], max_iter: int) -> str:
    """Iterate to optimality on a tableau with nonnegative rhs column.

    Returns "optimal" or "unbounded"; raises SimplexIterationError on the
    pivot budget. Dantzig entering rule with a largest-pivot tie-break,
    falling back to Bland's rule once the degenerate pivots in a row exceed
    50 times the tableau's rows plus columns.
    """
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    bland_after = 50 * (m + n)
    degenerate = 0
    bland = False
    for _ in range(max_iter):
        costs = T[-1, :n]
        if bland:
            entering = np.nonzero(costs < -TOL)[0]
            if entering.size == 0:
                return "optimal"
            k = int(entering[0])
        else:
            k = int(np.argmin(costs))
            if costs[k] >= -TOL:
                return "optimal"
        col = T[:m, k]
        positive = col > TOL
        if not positive.any():
            return "unbounded"
        ratios = np.divide(T[:m, n], col, out=np.full(m, np.inf), where=positive)
        theta = float(ratios.min())
        near = np.nonzero(ratios <= theta + TOL * (1.0 + abs(theta)))[0]
        if bland:
            basis_arr = np.asarray(basis)
            r = int(near[np.argmin(basis_arr[near])])
        else:
            r = int(near[np.argmax(col[near])])
        if theta <= TOL:
            degenerate += 1
            if degenerate > bland_after:
                bland = True
        else:
            degenerate = 0
        _pivot(T, basis, r, k)
    raise SimplexIterationError(
        f"simplex exceeded {max_iter} pivots on a {m}x{n} tableau"
    )


@dataclass(frozen=True)
class _Scaled:
    """The dual data A^T, v, y at unit max-norm, and the scales to undo."""

    At: np.ndarray
    v: np.ndarray
    y: np.ndarray
    col_scale: np.ndarray
    v_scale: float
    y_scale: float

    @classmethod
    def of(cls, prob: LpProblem) -> "_Scaled":
        d = np.abs(prob.constraints).max(axis=0)
        d[d == 0.0] = 1.0
        w = prob.objective / d
        v_scale = float(np.abs(w).max()) or 1.0
        y_scale = float(np.abs(prob.rhs).max()) or 1.0
        return cls(
            (prob.constraints / d).T, w / v_scale, prob.rhs / y_scale,
            d, v_scale, y_scale,
        )


def _pivot_budget(prob: LpProblem, max_iter: int | None) -> int:
    m, p = prob.shape
    return 500 + 20 * (m + p) if max_iter is None else max_iter


def _phase1(s: _Scaled, max_iter: int):
    """Basic solution of {g >= 0 : A^T g = v} in the scaled problem.

    Returns None when the set is empty. Otherwise returns (T, basis, kept):
    the tableau with its phase-1 cost row, the basic column of each tableau
    row, and the equality rows left after dropping the redundant ones, which
    are linear combinations of the kept rows.
    """
    p, m = s.At.shape
    # Rows are oriented to a nonnegative rhs and start on artificial basics,
    # numbered m..m+p-1. Their columns are not stored: an artificial that
    # leaves the basis never re-enters, and none is needed afterwards.
    sign = np.where(s.v < 0.0, -1.0, 1.0)
    T = np.empty((p + 1, m + 1))
    T[:p, :m] = sign[:, None] * s.At
    T[:p, m] = sign * s.v
    # unit cost on the artificials, reduced against the artificial basis
    T[p] = -T[:p].sum(axis=0)
    basis = list(range(m, m + p))
    if _run_simplex(T, basis, max_iter) != "optimal":
        # the artificial sum is bounded below by zero; anything else is breakdown
        raise SimplexIterationError("phase 1 of the dual ended unbounded")
    if -T[p, m] > 100 * TOL:
        return None

    rows = []
    dropped = []
    for i in range(p):
        if basis[i] >= m:
            # basic artificial at zero: pivot it out or drop the redundant row
            entries = np.abs(T[i, :m])
            k = int(np.argmax(entries))
            if entries[k] <= 10 * TOL:
                dropped.append(basis[i] - m)
                continue
            _pivot(T, basis, i, k)
        rows.append(i)
    kept = [j for j in range(p) if j not in dropped]
    return T[rows + [p]], [basis[i] for i in rows], kept


def solve(prob: LpProblem, max_iter: int | None = None) -> LpOutcome:
    """Solve the LP, reporting Optimal / Unbounded / Infeasible.

    Parameters
    ----------
    prob : LpProblem
    max_iter : int, optional
        Pivot budget of each simplex phase; exceeding it raises
        SimplexIterationError rather than returning an outcome.
    """
    s = _Scaled.of(prob)
    max_iter = _pivot_budget(prob, max_iter)
    start = _phase1(s, max_iter)
    if start is None:
        return Unbounded()
    T, basis, kept = start
    m = s.At.shape[1]

    # phase 2: maximize y.g, i.e. minimize -y.g, costs reduced against the basis
    T[-1] = 0.0
    T[-1, :m] = -s.y
    T[-1] += s.y[basis] @ T[:-1]
    if _run_simplex(T, basis, max_iter) == "unbounded":
        return Infeasible()

    # the active rows hold with equality: A_B b = y_B, redundant coefficients 0
    c = np.zeros(s.At.shape[0])
    c[kept] = np.linalg.solve(s.At[kept][:, basis].T, s.y[basis])
    b = c * s.y_scale / s.col_scale
    return Optimal(solution=b, objective_value=float(prob.objective @ b))


def check_bounded(
    prob: LpProblem, max_iter: int | None = None
) -> BoundednessCertificate | None:
    """Certificate g >= 0 with A^T g = v, or None when no such g exists.

    This is phase 1 of ``solve``: no certificate means ``solve`` reports
    Unbounded.
    """
    s = _Scaled.of(prob)
    start = _phase1(s, _pivot_budget(prob, max_iter))
    if start is None:
        return None
    T, basis, _ = start
    g = np.zeros(s.At.shape[1])
    g[basis] = T[:-1, -1] * s.v_scale
    return BoundednessCertificate(multipliers=g)
