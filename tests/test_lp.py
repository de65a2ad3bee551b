import numpy as np
import numpy.testing as npt
import pytest

from locfront.basis import enumerate_basis, vandermonde
from locfront.lp import (
    Infeasible,
    LpProblem,
    Optimal,
    SimplexIterationError,
    Unbounded,
    check_bounded,
    solve,
)
from locfront.windows import clip_window, objective_vector

from oracles import (
    enumerate_vertices_oracle,
    highs_has_certificate,
    highs_reference,
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

    def test_iteration_limit_reported_distinctly(self):
        prob = LpProblem([0.2, 0.0], [[1.0, -0.1], [1.0, 0.1]], [1.0, 2.0])
        with pytest.raises(SimplexIterationError):
            solve(prob, max_iter=1)

    def test_degenerate_duplicated_rows_terminate(self):
        # two distinct constraints, each duplicated four times
        A = np.array([[1.0, -0.1]] * 4 + [[1.0, 0.1]] * 4)
        y = np.array([1.0] * 4 + [2.0] * 4)
        out = solve(LpProblem([0.2, 0.0], A, y))
        assert isinstance(out, Optimal)
        npt.assert_allclose(out.solution, [1.5, 5.0], atol=1e-7)


class TestProblemValidation:
    def test_shape_mismatches(self):
        with pytest.raises(ValueError):
            LpProblem([1.0, 2.0], [[1.0], [1.0]], [0.0, 0.0])
        with pytest.raises(ValueError):
            LpProblem([1.0], [[1.0], [1.0]], [0.0])
        with pytest.raises(ValueError):
            LpProblem([1.0], np.empty((0, 1)), np.empty(0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LpProblem([np.nan], [[1.0]], [0.0])


class TestCheckBounded:
    def test_constant_column_certificate(self):
        prob = LpProblem([0.2], [[1.0], [1.0], [1.0]], [0.3, 0.9, 0.5])
        cert = check_bounded(prob)
        assert cert is not None
        g = cert.multipliers
        assert g.min() >= -1e-9
        assert g.sum() == pytest.approx(0.2, abs=1e-7)

    def test_absent_for_unbounded(self):
        prob = LpProblem([0.2, 0.0], [[1.0, 0.05]], [1.0])
        assert check_bounded(prob) is None

    def test_two_by_two_certificate(self):
        prob = LpProblem([0.2, 0.0], [[1.0, -0.1], [1.0, 0.1]], [1.0, 2.0])
        cert = check_bounded(prob)
        assert cert is not None
        npt.assert_allclose(cert.multipliers, [0.1, 0.1], atol=1e-7)


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
        for _ in range(300):
            prob = random_instance(rng)
            out = solve(prob)
            cert = check_bounded(prob)
            assert (cert is None) == isinstance(out, Unbounded)
            if cert is not None:
                g = cert.multipliers
                assert g.min() >= -1e-9
                residual = prob.constraints.T @ g - prob.objective
                assert np.abs(residual).max() <= 1e-7

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
        # solve and check_bounded share phase 1, so check the verdict itself
        rng = np.random.default_rng(24)
        for _ in range(300):
            prob = random_instance(rng)
            out = solve(prob)
            assert isinstance(out, Unbounded) == (not highs_has_certificate(prob))
            assert type(out).__name__.lower() == highs_reference(prob)[0]
