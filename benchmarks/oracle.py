"""Independent LP oracle: re-solve captured fit LPs with scipy's HiGHS.

The fit LP is "minimize v.b subject to A b >= y, b free". HiGHS is used only
here, after timing, so the program under test never depends on scipy.
Comparisons are relative to the scale of the terms involved, so a window of
any size is judged by the same tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ROADMAP item 2 counts a fit as wrong when it is more than 1e-6 off the
# reference; the oracle uses the same threshold.
REL_TOL = 1e-6


@dataclass(frozen=True)
class Verdict:
    """Outcome of one comparison; ``rel_err`` is inf on a status mismatch."""

    expected: str
    got: str
    rel_err: float

    @property
    def mismatch(self) -> bool:
        return self.expected != self.got or self.rel_err > REL_TOL


def _status_name(outcome) -> str:
    return type(outcome).__name__.lower()


def reference(v: np.ndarray, A: np.ndarray, y: np.ndarray):
    """HiGHS solution of min v.b s.t. A b >= y; returns (status, x or None).

    HiGHS has absolute optimality tolerances, and the entries of a windowed
    objective shrink like h^(q+|j|). So the problem is handed over with every
    column of A scaled to unit max-norm (b = c / d) and the objective scaled
    to unit max-norm; the solution is mapped back.
    """
    from scipy.optimize import linprog

    d = np.abs(A).max(axis=0)
    d[d == 0.0] = 1.0
    w = v / d
    w_norm = float(np.abs(w).max()) or 1.0
    res = linprog(
        w / w_norm,
        A_ub=-A / d,
        b_ub=-y,
        bounds=[(None, None)] * v.shape[0],
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(
        res.status, f"highs_status_{res.status}"
    )
    return status, (res.x / d if res.status == 0 else None)


def check(problem, outcome) -> Verdict:
    """Compare a solver outcome for ``problem`` (an LpProblem) with HiGHS.

    For two optimal results the error is the larger of the scale-relative
    constraint violation of the claimed solution and the objective gap
    divided by sum_j |v_j| max(|b_j|, |b*_j|).
    """
    v, A, y = problem.objective, problem.constraints, problem.rhs
    expected, x_ref = reference(v, A, y)
    got = _status_name(outcome)
    if expected != got:
        return Verdict(expected, got, float("inf"))
    if got != "optimal":
        return Verdict(expected, got, 0.0)
    b = np.asarray(outcome.solution, dtype=float)
    row_scale = np.abs(A) @ np.abs(b) + np.abs(y)
    slack = (y - A @ b) / np.maximum(row_scale, np.finfo(float).tiny)
    infeasibility = max(0.0, float(slack.max()))
    obj_scale = float(np.abs(v) @ np.maximum(np.abs(b), np.abs(x_ref)))
    gap = abs(float(v @ b) - float(v @ x_ref))
    obj_err = gap / obj_scale if obj_scale > 0.0 else gap
    return Verdict(expected, got, max(infeasibility, obj_err))
