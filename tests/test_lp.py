import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locfront import lp
from locfront.basis import enumerate_basis, vandermonde
from locfront.lp import (
    Infeasible,
    LpProblem,
    Optimal,
    SimplexIterationError,
    Unbounded,
    solve,
)
from locfront.windows import clip_window, objective_vector

from oracles import (
    dual_residuals,
    enumerate_vertices_oracle,
    highs_has_certificate,
    highs_reference,
    reset_pivot,
    scale_relative_error,
)


def random_instance(rng, p=None, m=None):
    """Random dense instance; v comes from a real window integral vector."""
    if p is None:
        q = int(rng.integers(1, 4))
        max_deg = {1: 5, 2: 2, 3: 1}[q]
        deg = int(rng.integers(0, max_deg + 1))
        basis = enumerate_basis(q, deg)
        w = clip_window(rng.uniform(0, 1, q), rng.uniform(0.05, 0.8))
        v = objective_vector(w, basis)
        p = len(basis)
    else:
        v = rng.uniform(-1, 1, p)
    if m is None:
        m = int(rng.integers(p, 11))
    A = rng.uniform(-1, 1, (m, p))
    y = rng.uniform(-1, 1, m)
    return LpProblem(v, A, y)


class TestSolveExamples:
    def test_constant_fit_is_max(self):
        prob = LpProblem([0.2], [[1.0], [1.0], [1.0]], [0.3, 0.9, 0.5])
        out = solve(prob)
        assert isinstance(out, Optimal)
        npt.assert_allclose(out.solution, [0.9], atol=1e-9)
        assert out.objective_value == pytest.approx(0.18, abs=1e-12)

    def test_line_through_two_points(self):
        prob = LpProblem([0.2, 0.0], [[1.0, -0.1], [1.0, 0.1]], [1.0, 2.0])
        out = solve(prob)
        assert isinstance(out, Optimal)
        npt.assert_allclose(out.solution, [1.5, 5.0], atol=1e-9)
        assert out.objective_value == pytest.approx(0.3, abs=1e-12)

    def test_unbounded_single_constraint(self):
        prob = LpProblem([0.2, 0.0], [[1.0, 0.05]], [1.0])
        assert isinstance(solve(prob), Unbounded)

    def test_infeasible(self):
        prob = LpProblem([1.0], [[1.0], [-1.0]], [1.0, 1.0])
        assert isinstance(solve(prob), Infeasible)

    def test_iteration_limit_reported_distinctly(self, monkeypatch):
        prob = LpProblem([0.2, 0.0], [[1.0, -0.1], [1.0, 0.1]], [1.0, 2.0])
        monkeypatch.setattr(lp, "_pivot_budget", lambda prob: 1)
        with pytest.raises(SimplexIterationError):
            solve(prob)

    def test_degenerate_duplicated_rows_terminate(self):
        # two distinct constraints, each duplicated four times
        A = np.array([[1.0, -0.1]] * 4 + [[1.0, 0.1]] * 4)
        y = np.array([1.0] * 4 + [2.0] * 4)
        out = solve(LpProblem([0.2, 0.0], A, y))
        assert isinstance(out, Optimal)
        npt.assert_allclose(out.solution, [1.5, 5.0], atol=1e-7)


class TestBlandSwitch:
    # three degenerate pivots in a row at the start of phase 1
    DEGENERATE = LpProblem(
        [0.0, 0.0, -2.0, 0.0],
        [[0.0, -1.0, 0.0, 0.0], [-1.0, -1.0, 0.0, 2.0], [2.0, -2.0, 1.0, -1.0],
         [1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -2.0, -1.0], [2.0, 0.0, 1.0, 1.0]],
        [2.0, 0.0, -1.0, -2.0, -2.0, 1.0],
    )

    def test_bland_branch_reaches_the_default_outcome(self, monkeypatch):
        pivots = []
        pivot = lp._pivot

        def recording(T, basis, r, k, work):
            pivots.append((r, k))
            pivot(T, basis, r, k, work)

        monkeypatch.setattr(lp, "_pivot", recording)
        default = solve(self.DEGENERATE)
        default_pivots = pivots[:]
        pivots.clear()
        # a budget of 5 lowers the switch to 2 degenerate pivots in a row
        monkeypatch.setattr(lp, "_pivot_budget", lambda prob: 5)
        bland = solve(self.DEGENERATE)
        assert pivots != default_pivots  # Bland's rule chose other pivots
        assert isinstance(default, Optimal) and isinstance(bland, Optimal)
        assert bland.solution.tobytes() == default.solution.tobytes()
        assert bland.objective_value == default.objective_value

    def test_switch_comes_before_the_budget(self):
        for size in range(2, 5001):  # p = 1 coefficient, m = size - 1 rows
            prob = LpProblem([1.0], np.ones((size - 1, 1)), np.zeros(size - 1))
            budget = lp._pivot_budget(prob)
            assert lp._bland_after(size, budget) < budget


class TestProblemValidation:
    def test_shape_mismatches(self):
        with pytest.raises(ValueError):
            LpProblem([1.0, 2.0], [[1.0], [1.0]], [0.0, 0.0])
        with pytest.raises(ValueError):
            LpProblem([1.0], [[1.0], [1.0]], [0.0])
        with pytest.raises(ValueError):
            LpProblem([1.0], np.empty((0, 1)), np.empty(0))

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            for v, A, y in (([bad], [[1.0]], [0.0]), ([1.0], [[1.0], [bad]], [0.0, 0.0]),
                            ([1.0], [[1.0]], [bad])):
                with pytest.raises(ValueError, match="finite"):
                    LpProblem(v, A, y)


class TestCheckBounded:
    """``solve``'s dual certificate: g >= 0 with A^T g = v proves the LP
    bounded, and y.g = v.b proves its solution optimal."""

    def test_constant_column_certificate(self):
        prob = LpProblem([0.2], [[1.0], [1.0], [1.0]], [0.3, 0.9, 0.5])
        out = solve(prob)
        assert isinstance(out, Optimal)
        # all the weight sits on the largest response, the one active row
        npt.assert_allclose(out.dual, [0.0, 0.2, 0.0], atol=1e-12)
        assert prob.rhs @ out.dual == pytest.approx(out.objective_value, abs=1e-12)

    def test_absent_for_unbounded(self):
        prob = LpProblem([0.2, 0.0], [[1.0, 0.05]], [1.0])
        assert isinstance(solve(prob), Unbounded)
        assert not highs_has_certificate(prob)

    def test_two_by_two_certificate(self):
        prob = LpProblem([0.2, 0.0], [[1.0, -0.1], [1.0, 0.1]], [1.0, 2.0])
        out = solve(prob)
        assert isinstance(out, Optimal)
        npt.assert_allclose(out.dual, [0.1, 0.1], atol=1e-12)
        assert max(dual_residuals(prob, out.dual, out.solution)) <= 1e-15


class TestVertexOracle:
    def test_two_constraint_instance(self):
        prob = LpProblem([0.2, 0.0], [[1.0, -0.1], [1.0, 0.1]], [1.0, 2.0])
        vertices = enumerate_vertices_oracle(prob)
        assert len(vertices) == 1
        npt.assert_allclose(vertices[0], [1.5, 5.0], atol=1e-10)

    def test_constant_fit_only_max_feasible(self):
        prob = LpProblem([0.2], [[1.0], [1.0], [1.0]], [0.3, 0.9, 0.5])
        vertices = enumerate_vertices_oracle(prob)
        assert len(vertices) == 1
        assert vertices[0][0] == pytest.approx(0.9, abs=1e-12)

    def test_no_vertex_when_all_sets_infeasible(self):
        # single constraint in two variables: no basic feasible point
        prob = LpProblem([1.0, 0.0], [[1.0, 1.0]], [0.0])
        assert enumerate_vertices_oracle(prob) == []

    def test_size_limits(self):
        rng = np.random.default_rng(1)
        prob = LpProblem(rng.uniform(-1, 1, 7), rng.uniform(-1, 1, (8, 7)), rng.uniform(-1, 1, 8))
        with pytest.raises(ValueError):
            enumerate_vertices_oracle(prob)


class TestRandomInstanceProperties:
    """Scaled-down versions of the acceptance-level randomized checks."""

    def test_duality_consistency(self):
        rng = np.random.default_rng(20)
        optimal = 0
        for _ in range(300):
            prob = random_instance(rng)
            out = solve(prob)
            if isinstance(out, Optimal):
                optimal += 1
                assert out.dual.shape == (prob.shape[0],)
                assert out.dual.min() >= -1e-9
                assert max(dual_residuals(prob, out.dual, out.solution)) <= 1e-9
        assert optimal >= 40  # sanity: the sweep actually checked certificates (47 here)

    def test_oracle_equivalence_and_feasibility(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(400):
            prob = random_instance(rng)
            out = solve(prob)
            if not isinstance(out, Optimal):
                continue
            assert np.all(
                prob.constraints @ out.solution >= prob.rhs - 1e-7
            )
            vertices = enumerate_vertices_oracle(prob)
            if vertices:
                best = min(float(prob.objective @ b) for b in vertices)
                assert out.objective_value == pytest.approx(best, abs=1e-7)
                checked += 1
        assert checked >= 50  # sanity: the sweep actually exercised the oracle


def windowed_lp(rng, q, degree, h):
    """Fit LP of a random window, built as the estimator builds it."""
    basis = enumerate_basis(q, degree)
    x = rng.uniform(0, 1, q)
    w = clip_window(x, h)
    m = int(rng.integers(len(basis), 6 * len(basis) + 20))
    pts = w.lower + (w.upper - w.lower) * rng.uniform(0, 1, (m, q))
    s = pts.sum(axis=1)
    y = 0.5 * np.sin(2 * np.pi * s) + 4 * s - rng.exponential(1.0, m)
    return LpProblem(objective_vector(w, basis), vandermonde(basis, pts, x), y - y.max())


def stress_lp(seed, m=40, h=0.01, degree=6, x=0.5):
    """The degree-6 LPs pinned in benchmarks/tests/test_oracle.py: objective
    entries down to h^7, which an absolute tolerance misjudges."""
    rng = np.random.default_rng(seed)
    t = x + h * rng.uniform(-1.0, 1.0, m)
    y = (t - 0.5) ** 3 + 2.0 - rng.exponential(1.0, m)
    j = np.arange(degree + 1)
    A = (t - x)[:, None] ** j
    v = (h ** (j + 1) - (-h) ** (j + 1)) / (j + 1)
    return LpProblem(v, A, y - y.max())


class TestAgainstHighs:
    """Scale-free correctness against scipy's HiGHS on windowed fit LPs."""

    def test_window_sweep_and_stress_lps(self):
        rng = np.random.default_rng(23)
        problems = [stress_lp(0), stress_lp(10)]
        for q, max_degree in ((1, 6), (2, 4), (3, 3)):
            for degree in range(max_degree + 1):
                for h in (0.01, 0.03, 0.1, 0.3):
                    problems += [windowed_lp(rng, q, degree, h) for _ in range(4)]
        mismatches = []
        for i, prob in enumerate(problems):
            expected, b_ref = highs_reference(prob)
            out = solve(prob)
            got = type(out).__name__.lower()
            if got != expected:
                mismatches.append(f"LP {i}: {got}, HiGHS {expected}")
            elif expected == "optimal":
                err = scale_relative_error(prob, out.solution, b_ref)
                if err > 1e-6:
                    mismatches.append(f"LP {i}: rel_err {err:.3g}")
        assert len(problems) == 258
        assert mismatches == []

    def test_unbounded_matches_highs_on_random_instances(self):
        # an Unbounded verdict carries no certificate, so HiGHS checks it
        rng = np.random.default_rng(24)
        for _ in range(300):
            prob = random_instance(rng)
            out = solve(prob)
            assert isinstance(out, Unbounded) == (not highs_has_certificate(prob))
            assert type(out).__name__.lower() == highs_reference(prob)[0]


small_ints = st.integers(-2, 2)
tie_heavy_lps = st.tuples(st.integers(1, 4), st.integers(1, 10)).flatmap(
    lambda pm: st.tuples(
        st.lists(small_ints, min_size=pm[0], max_size=pm[0]),
        st.lists(
            st.lists(small_ints, min_size=pm[0], max_size=pm[0]),
            min_size=pm[1], max_size=pm[1],
        ),
        st.lists(small_ints, min_size=pm[1], max_size=pm[1]),
    )
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tie_heavy_lps)
def test_tie_heavy_lps_match_highs(data):
    """Entries in {-2, ..., 2}: repeated rows, equal ratios and degenerate
    pivots are common, so both tie-breaks of the ratio test decide pivots."""
    v, A, y = data
    prob = LpProblem(v, A, y)
    out = solve(prob)
    status, b_ref = highs_reference(prob)
    # an infeasible dual is reported as Unbounded whatever the primal, as documented
    expected = status if highs_has_certificate(prob) else "unbounded"
    assert type(out).__name__.lower() == expected
    if expected == "optimal":
        assert scale_relative_error(prob, out.solution, b_ref) <= 1e-9


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tie_heavy_lps)
def test_tie_heavy_certificates(data):
    """solve's dual on tie-heavy LPs: redundant equality rows are common, so
    phase 1 often drops rows, and an Optimal dual must satisfy every row of
    A^T g = v, dropped ones included, and close the duality gap. Unbounded
    must mean that HiGHS finds no certificate either."""
    prob = LpProblem(*data)
    out = solve(prob)
    assert isinstance(out, Unbounded) == (not highs_has_certificate(prob))
    if isinstance(out, Optimal):
        assert out.dual.min() >= -1e-9
        assert max(dual_residuals(prob, out.dual, out.solution)) <= 1e-9


pivot_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
    st.floats(1e-3, 1e3),
    st.floats(-1e3, -1e-3),
)
pivot_cases = st.tuples(st.integers(2, 11), st.integers(1, 25)).flatmap(
    lambda shape: st.tuples(
        st.lists(pivot_entries, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]),
        st.just(shape),
        st.integers(0, shape[0] - 2),  # never the cost row
        st.integers(0, shape[1] - 1),
        st.sampled_from([1.0, -1.0, 0.25, -0.25, 3.0, -7.5, 1e-3, -1e-3]),
    )
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pivot_cases)
def test_pivot_matches_the_reset_reference_byte_for_byte(case):
    """Tableaux with +-0.0 entries and pivots of either sign (phase 1 drives
    artificials out on negative entries): the four-step pivot writes the same
    bytes as the reference with an explicit reset, and column k is exactly e_r."""
    entries, shape, r, k, pivot = case
    T = np.array(entries).reshape(shape)
    T[r, k] = pivot
    expected, basis_ref = T.copy(), list(range(shape[0] - 1))
    reset_pivot(expected, basis_ref, r, k, np.empty(shape))
    basis = list(range(shape[0] - 1))
    lp._pivot(T, basis, r, k, np.full(shape, np.nan))
    assert T.tobytes() == expected.tobytes()
    assert basis == basis_ref
    unit = np.zeros(shape[0])
    unit[r] = 1.0
    assert T[:, k].tobytes() == unit.tobytes()
