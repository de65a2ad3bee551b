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
switching to Bland's rule after a run of degenerate pivots that is always
shorter than the pivot budget (``_bland_after``).

The tableau has only p + 1 <= 11 rows, so a step costs numpy calls more
than arithmetic, and the solver makes few: the entering column is one
``argmin`` over the cost row, the ratio test and its tie-breaks run in Python
floats (IEEE doubles, as numpy's) over the p rows, a pivot is four array
steps into one work buffer (``_pivot``), and the tableau is written in place.
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
        # counting is cheaper than isfinite(x).all(), a reduction, at this size
        if not all(np.count_nonzero(np.isfinite(x)) == x.size for x in (v, A, y)):
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


def _pivot(T: np.ndarray, basis: list[int], r: int, k: int, work: np.ndarray) -> None:
    """Pivot T on (r, k) in place; ``work`` is a scratch buffer of T's shape.

    Four steps: scale row r, copy column k with its row-r entry set to 0,
    broadcast their outer product into ``work``, subtract it. So row r loses
    0 * itself, as in an update with the pivot entry zeroed, and its zeros
    keep the signs of a plain outer-product update. Column k needs no reset
    to be exactly e_r: T[r, k] is x / x = 1 less 0 * 1, and every other entry
    a becomes a - a * 1 = +0.
    """
    row = T[r]
    row /= row[k]
    col = T[:, k, None].copy()
    col[r] = 0.0
    np.multiply(col, row, out=work)
    T -= work
    basis[r] = k


def _bland_after(size: int, max_iter: int) -> int:
    """Degenerate pivots in a row before Bland's rule: 50 per row and column, below max_iter."""
    return min(50 * size, max_iter // 2)


def _run_simplex(T: np.ndarray, basis: list[int], max_iter: int, work: np.ndarray) -> str:
    """Iterate to optimality on a tableau with nonnegative rhs column.

    Returns "optimal" or "unbounded"; raises SimplexIterationError on the
    pivot budget. Dantzig entering rule; the ratio test runs over the row
    entries above TOL, and among the rows whose ratio is within TOL of the
    smallest it takes the largest pivot entry (the first on ties). After
    more than ``_bland_after`` degenerate pivots in a row it switches to
    Bland's rule: the first improving column enters and the tied row with
    the lowest basic index leaves. ``work`` is the pivot buffer, of T's
    shape.
    """
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    bland_after = _bland_after(m + n, max_iter)
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
        _pivot(T, basis, r, k, work)
    raise SimplexIterationError(
        f"simplex exceeded {max_iter} pivots on a {m}x{n} tableau"
    )


def _scales(prob: LpProblem):
    """(d, v, y, v_scale, y_scale): the scaled dual is (A / d)^T g = v with v
    and y at unit max-norm, and its solution c maps back as c * y_scale / d."""
    d = np.abs(prob.constraints).max(axis=0)
    if 0.0 in d.tolist():  # a zero column is rare; the list test is cheaper than the mask
        d[d == 0.0] = 1.0
    w = prob.objective / d
    v_scale = max(map(abs, w.tolist())) or 1.0
    y_scale = float(np.abs(prob.rhs).max()) or 1.0
    return d, w / v_scale, prob.rhs / y_scale, v_scale, y_scale


def _pivot_budget(prob: LpProblem) -> int:
    """Pivots allowed in each simplex phase."""
    m, p = prob.shape
    return 500 + 20 * (m + p)


def _phase1(A: np.ndarray, d: np.ndarray, v: np.ndarray, max_iter: int):
    """Basic solution of {g >= 0 : (A / d)^T g = v} in the scaled problem.

    Returns None when the set is empty. Otherwise returns (T, basis, kept):
    the tableau with its phase-1 cost row, the basic column of each tableau
    row, and the equality rows left after dropping the redundant ones, which
    are linear combinations of the kept rows. When no row is dropped, T is
    the tableau the pivots ran on and ``kept`` is the full slice.
    """
    m, p = A.shape
    # Rows are oriented to a nonnegative rhs and start on artificial basics,
    # numbered m..m+p-1. Their columns are not stored: an artificial that
    # leaves the basis never re-enters, and none is needed afterwards.
    sign = np.array([-1.0 if c < 0.0 else 1.0 for c in v.tolist()])
    T = np.empty((p + 1, m + 1))
    work = np.empty_like(T)
    # A / -d is -(A / d) bit for bit, so one divide writes the oriented rows
    np.divide(A.T, (sign * d)[:, None], out=T[:p, :m])
    T[:p, m] = sign * v
    # unit cost on the artificials, reduced against the artificial basis
    np.add.reduce(T[:p], axis=0, out=T[p])
    np.negative(T[p], out=T[p])
    basis = list(range(m, m + p))
    if _run_simplex(T, basis, max_iter, work) != "optimal":
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
            _pivot(T, basis, i, k, work)
        rows.append(i)
    if not dropped:
        return T, basis, slice(None)
    kept = [j for j in range(p) if j not in dropped]
    return T[rows + [p]], [basis[i] for i in rows], kept


def solve(prob: LpProblem) -> LpOutcome:
    """Solve the LP, reporting Optimal / Unbounded / Infeasible.

    A simplex phase that exceeds ``_pivot_budget(prob)`` pivots raises
    SimplexIterationError rather than returning an outcome.
    """
    A = prob.constraints
    d, v, y, _, y_scale = _scales(prob)
    max_iter = _pivot_budget(prob)
    start = _phase1(A, d, v, max_iter)
    if start is None:
        return Unbounded()
    T, basis, kept = start

    # phase 2: maximize y.g, i.e. minimize -y.g; the cost row y_B T - y,
    # reduced against the basis, is written in place
    cost = T[-1]
    np.matmul(y.take(basis), T[:-1], out=cost)
    cost[:-1] -= y
    if _run_simplex(T, basis, max_iter, np.empty_like(T)) == "unbounded":
        return Infeasible()

    # the active rows hold with equality: A_B b = y_B, redundant coefficients 0
    c = np.linalg.solve((A.take(basis, axis=0) / d)[:, kept], y.take(basis))
    if c.shape[0] < d.shape[0]:
        full = np.zeros(d.shape[0])
        full[kept] = c
        c = full
    b = c * y_scale / d
    return Optimal(solution=b, objective_value=float(prob.objective @ b))


def check_bounded(prob: LpProblem) -> np.ndarray | None:
    """Certificate g >= 0, shape (m,), with A^T g = v, or None when none exists.

    A^T g = v holds within the solver's tolerance. This is phase 1 of
    ``solve``: no certificate means ``solve`` reports Unbounded.
    """
    d, v, _, v_scale, _ = _scales(prob)
    start = _phase1(prob.constraints, d, v, _pivot_budget(prob))
    if start is None:
        return None
    T, basis, _ = start
    g = np.zeros(prob.shape[0])
    g[basis] = T[:-1, -1] * v_scale
    return g
