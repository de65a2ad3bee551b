"""Dense LP solver for "minimize v.b subject to A b >= y" with free variables.

The fitting problem is small and dense: a handful of polynomial coefficients
(p <= 10) and one constraint per data row in the window (m up to a few
thousand). It is solved through its dual

    maximize y.g   subject to   A^T g = v,  g >= 0,

a two-phase simplex on a tableau of p equality rows and one column per data
row. Phase 1 finds a g >= 0 with A^T g = v. Such a g exists exactly when v.b
is bounded below on the (nonempty) feasible set, so phase 1 is the
boundedness test. Phase 2 maximizes y.g from there: an unbounded dual means
the constraints are infeasible, and an optimal basis B gives the primal
solution by one square solve of A_B b = y_B on its active rows, taken in
ascending order, so b depends on the optimal row set and not on the pivots
that reached it. ``solve`` is the only entry point, and an Optimal outcome
carries its own certificate: the optimal g as ``dual``, and the ascending
active rows as ``active``. g >= 0 with A^T g = v proves v.b bounded below,
and y.g = v.b proves the solution optimal.

A basis of the dual is a set of p data rows, so ``solve`` can start from one
(``start``, say the optimal rows of a fit on a nearby window). Phase 1 then
begins from B^-1 [(A/d)^T | v] with B the start's columns: a row whose basic
value is negative is negated and put on an artificial, and every other row
keeps its start row as its basic variable. That is a repair phase: it pivots
only the rows the start gets wrong, and a start that is already dual
feasible pays no phase-1 pivot. Without a start every row takes an
artificial (the cold start), and a start whose B is singular or
ill-conditioned, or under which a row looks redundant, goes back to it.
Both run the same simplex, redundant-row cleanup and phase 2.

Tolerances are scale-free. The entries of a windowed objective shrink like
h^(q+|j|), so the tableau is built with every column of A scaled to unit
max-norm (b = c / d) and with v and y scaled to unit max-norm; the solution
and its dual are mapped back to the caller's scale.

Cycling on degenerate instances (collinear data points) is handled by
switching to Bland's rule after a run of degenerate pivots that is always
shorter than the pivot budget (``_bland_after``).

The tableau has only p + 1 <= 11 rows, so a step costs numpy calls more
than arithmetic, and the solver makes few: one ``argmin`` over the cost row
picks the entering column, one ``tolist`` each reads that column and the
rhs, and the ratio test is two plain loops over those p Python floats (IEEE
doubles, as numpy's), one for the least ratio and one for the leaving row,
with no dict, list or key function built per step. A pivot is four array
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
    """Optimal b and its dual certificate g, shape (m,): g >= 0, A^T g = v and
    y.g = v.b, each within the solver's tolerance. ``active`` holds the
    ascending row positions of the optimal basis, the rows b meets with
    equality, fewer than p after phase 1 drops a redundant row. ``dual``
    and ``active`` are None only on an outcome built by hand without them."""

    solution: np.ndarray
    objective_value: float
    dual: np.ndarray | None = None
    active: np.ndarray | None = None


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
    pivot budget, or when the ratio test finds no row, which only a tableau
    that is no longer finite allows. Dantzig entering rule; the ratio test
    runs over the row entries above TOL, and among the rows whose ratio is
    within TOL of the smallest it takes the largest pivot entry (the first on
    ties). After more than ``_bland_after`` degenerate pivots in a row it
    switches to Bland's rule: the first improving column enters and the tied
    row with the lowest basic index leaves. ``work`` is the pivot buffer, of
    T's shape.
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
            if costs.item(k) >= -TOL:
                return "optimal"
        col = columns[k].tolist()
        rhs = rhs_column.tolist()
        # theta is the least ratio, kept as min() keeps it: replaced only by a smaller one
        theta = None
        for c, b in zip(col, rhs):
            if c > TOL and (theta is None or b / c < theta):
                theta = b / c
        if theta is None:
            # no entry above TOL; an overflowed, infinite theta is not this test
            return "unbounded"
        bound = theta + TOL * (1.0 + abs(theta))
        r = -1
        for i, c in enumerate(col):
            if c > TOL and rhs[i] / c <= bound and (
                    r < 0 or (basis[i] < basis[r] if bland else c > col[r])):
                r = i
        if r < 0:  # only a NaN or -inf theta passes no row: the tableau overflowed
            raise SimplexIterationError(f"ratio test found no row on a {m}x{n} tableau")
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
    and y at unit max-norm; its g maps back as g * v_scale, and the primal
    solution c as c * y_scale / d."""
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


def _start_tableau(A, d, v, start, T: np.ndarray) -> list[int] | None:
    """Write the phase-1 tableau of the start rows into T; return its basis.

    The rows are B^-1 [(A / d)^T | v] for B = (A / d)^T[:, start], from one
    inverse; the constraint part is (B^-1 / d) A^T, which spares scaling all
    of A. A row whose basic value B^-1 v is negative is negated and put on
    the artificial m + i of its row i; the cost row is the artificials' unit
    cost reduced against that basis. Returns None, for the cold start, when
    B is singular or B^-1 B is off the identity by more than TOL.
    """
    m, p = A.shape
    try:
        inverse = np.linalg.inv((A.take(start, axis=0) / d).T)
    except np.linalg.LinAlgError:
        return None
    np.matmul(inverse / d, A.T, out=T[:p, :m])
    np.matmul(inverse, v, out=T[:p, m])
    # the start columns of the product are B^-1 B; NaN fails the test too
    unit = T[:p].take(start, axis=1)
    unit.flat[:: p + 1] -= 1.0
    if not np.abs(unit, out=unit).max() <= TOL:
        return None
    values = T[:p, m].tolist()
    for i, c in enumerate(values):
        if c < 0.0:
            T[i] *= -1.0
    # unit cost on the artificials, reduced: minus the sum of the negated rows
    np.matmul([-1.0 if c < 0.0 else 0.0 for c in values], T[:p], out=T[p])
    return [m + i if c < 0.0 else int(k) for i, (c, k) in enumerate(zip(values, start))]


def _phase1(A: np.ndarray, d: np.ndarray, v: np.ndarray, max_iter: int, start=None):
    """Basic solution of {g >= 0 : (A / d)^T g = v} in the scaled problem.

    ``start`` is p row positions to begin from (``_start_tableau``), or None;
    a start refused there, or under which a row looks redundant, goes back
    to the cold start. Returns None when the set is empty, else (T, basis,
    kept): the tableau with its phase-1 cost row, the basic column of each
    tableau row, and the list of equality rows left after dropping the
    redundant ones (linear combinations of the kept rows), or ``slice(None)``
    when none was dropped, with T the tableau the pivots ran on.
    """
    m, p = A.shape
    T = np.empty((p + 1, m + 1))
    work = np.empty_like(T)
    # Artificial m + i starts in tableau row i. Their columns are not stored:
    # one that leaves the basis never re-enters (none is needed afterwards),
    # so a basic one is still in its own row.
    if start is None:
        # cold: every row is oriented to a nonnegative rhs, on an artificial
        sign = np.array([-1.0 if c < 0.0 else 1.0 for c in v.tolist()])
        # A / -d is -(A / d) bit for bit, so one divide writes the oriented rows
        np.divide(A.T, (sign * d)[:, None], out=T[:p, :m])
        np.multiply(sign, v, out=T[:p, m])
        # unit cost on the artificials, reduced against the artificial basis
        np.add.reduce(T[:p], axis=0, out=T[p])
        np.negative(T[p], out=T[p])
        basis = list(range(m, m + p))
    else:
        basis = _start_tableau(A, d, v, start, T)
    if basis is not None:
        if _run_simplex(T, basis, max_iter, work) != "optimal":
            # the artificial sum is bounded below by zero; anything else is breakdown
            raise SimplexIterationError("phase 1 of the dual ended unbounded")
        if -T[p, m] > 100 * TOL:
            return None
        rows = []  # the kept tableau rows, and so the kept equality rows
        for i in range(p):
            if basis[i] >= m:
                # basic artificial at zero: pivot it out or drop the redundant row
                entries = np.abs(T[i, :m])
                k = int(np.argmax(entries))
                if entries[k] <= 10 * TOL:
                    continue
                _pivot(T, basis, i, k, work)
            rows.append(i)
        if len(rows) == p:
            return T, basis, slice(None)
        if start is None:
            return T[rows + [p]], [basis[i] for i in rows], rows
    # a refused start, or one under which a row looks redundant: a start
    # basis spans every equality row, so the cold start decides instead
    return _phase1(A, d, v, max_iter)


def solve(prob: LpProblem, start=None) -> LpOutcome:
    """Solve the LP, reporting Optimal / Unbounded / Infeasible.

    ``start`` is an optional start basis: p distinct row positions, such as
    a neighbouring fit's ``Optimal.active``. It changes the pivots taken,
    not the outcome; a start whose rows are singular or ill-conditioned is
    ignored. A simplex phase that exceeds ``_pivot_budget(prob)`` pivots
    raises SimplexIterationError rather than returning an outcome.
    """
    A = prob.constraints
    m, p = A.shape
    if start is not None and len(start) != p:
        raise ValueError(f"a start basis needs {p} rows, got {len(start)}")
    d, v, y, v_scale, y_scale = _scales(prob)
    max_iter = _pivot_budget(prob)
    phase1 = _phase1(A, d, v, max_iter, start)
    if phase1 is None:
        return Unbounded()
    T, basis, kept = phase1

    # phase 2: maximize y.g, i.e. minimize -y.g; the cost row y_B T - y,
    # reduced against the basis, is written in place
    cost = T[-1]
    np.matmul(y.take(basis), T[:-1], out=cost)
    cost[:-1] -= y
    if _run_simplex(T, basis, max_iter, np.empty_like(T)) == "unbounded":
        return Infeasible()

    # the active rows hold with equality: A_B b = y_B, redundant coefficients
    # 0, and the rows are taken in ascending order whatever the pivot path
    active = np.array(sorted(basis), dtype=np.intp)
    c = np.zeros(p)
    c[kept] = np.linalg.solve((A.take(active, axis=0) / d)[:, kept], y.take(active))
    b = c * y_scale / d
    # the optimal basic g of the scaled dual, mapped back to A^T g = v
    g = np.zeros(m)
    g[basis] = T[:-1, -1] * v_scale
    return Optimal(solution=b, objective_value=float(prob.objective @ b), dual=g,
                   active=active)
