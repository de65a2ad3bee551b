"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The Monte Carlo criteria anchor to the published simulation tables within a
factor of two; the structural criteria run randomized sweeps against
independent oracles at fixed tolerances. Runtime is dominated by the grid-MSE
and rate-study criteria (a few minutes each on a small machine; worker count
follows LOCFRONT_WORKERS).
"""

import numpy as np

from locfront.basis import PolyCoeffs, enumerate_basis, eval_poly, poly_gradient
from locfront.bandwidth import hill_tail_index, select_bandwidth_index, simulation_bandwidth
from locfront.estimator import Dataset, EstimatorConfig, fit_at, fit_local_constant
from locfront.harness import (
    BandwidthRule,
    ExperimentSpec,
    run_mse,
    run_rate_study,
)
from locfront.lp import Optimal, Unbounded, solve
from locfront.synthetic import ModelSpec
from locfront.windows import clip_window, contains_mask, objective_vector

from oracles import (
    brute_force_ladder_index,
    dual_residuals,
    enumerate_vertices_oracle,
    highs_has_certificate,
    quad_monomial_integral,
    random_lp,
)

TABLE1_Q2 = {
    (0, 100): 1.56, (0, 400): 0.95, (0, 900): 0.62,
    (1, 100): 0.02, (1, 400): 0.006, (1, 900): 0.002,
    (2, 100): 0.07, (2, 400): 0.01, (2, 900): 0.005,
    (3, 100): 0.02, (3, 400): 0.003, (3, 900): 0.001,
}

TABLE1_Q3_REDUCED = {(0, 1000): 0.62, (2, 8000): 0.003}

TABLE2_Q2 = {(1, 400): 0.06, (2, 400): 0.03}


def report(number: int, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_table1_q2_center_mse():
    spec = ExperimentSpec(
        q=2,
        n_list=(100, 400, 900),
        beta_star_list=(0, 1, 2, 3),
        replications=500,
        master_seed=20250808,
        evaluation="center",
    )
    table = run_mse(spec)
    misses = []
    for key, published in TABLE1_Q2.items():
        mse = table.cells[key].mse
        if not published / 2 <= mse <= published * 2:
            misses.append(f"{key}: mse={mse:.5g} vs published {published}")
    # the same run also carries the monotone-in-n harness invariant
    for beta_star in (0, 1, 2, 3):
        series = [table.cells[(beta_star, n)].mse for n in (100, 400, 900)]
        if not (series[0] > series[1] > series[2]):
            misses.append(f"MSE not strictly decreasing in n for beta*={beta_star}: {series}")
    report(
        1,
        not misses,
        "Table 1 (q=2), 12 cells within factor 2 of published values at R=500, MSE decreasing in n"
        + ("" if not misses else f" -- {misses}"),
    )


def test_criterion_02_table1_q3_reduced():
    misses = []
    for (beta_star, n), published in TABLE1_Q3_REDUCED.items():
        spec = ExperimentSpec(
            q=3,
            n_list=(n,),
            beta_star_list=(beta_star,),
            replications=200,
            master_seed=20250809,
            evaluation="center",
        )
        mse = run_mse(spec).cells[(beta_star, n)].mse
        if not published / 2 <= mse <= published * 2:
            misses.append(f"({beta_star},{n}): mse={mse:.5g} vs published {published}")
    report(
        2,
        not misses,
        "Table 1 (q=3) reduced cells within factor 2 at R=200"
        + ("" if not misses else f" -- {misses}"),
    )


def test_criterion_03_table2_q2_grid_mse():
    spec = ExperimentSpec(
        q=2,
        n_list=(400,),
        beta_star_list=(1, 2),
        replications=200,
        master_seed=20250810,
        evaluation="grid",
        grid_points_per_axis=20,
    )
    table = run_mse(spec)
    misses = []
    for key, published in TABLE2_Q2.items():
        mse = table.cells[key].mse
        if not published / 2 <= mse <= published * 2:
            misses.append(f"{key}: mse={mse:.5g} vs published {published}")
    blow_spec = ExperimentSpec(
        q=2,
        n_list=(100,),
        beta_star_list=(3,),
        replications=200,
        master_seed=20250810,
        evaluation="grid",
        grid_points_per_axis=20,
    )
    blow = run_mse(blow_spec).cells[(3, 100)].mse
    if not blow > 1.0:
        misses.append(f"boundary blow-up absent: (3,100) grid MSE {blow:.4g} <= 1")
    report(
        3,
        not misses,
        f"Table 2 (q=2) cells within factor 2 at R=200, N=20; "
        f"(beta*=3, n=100) blow-up = {blow:.3g} > 1"
        + ("" if not misses else f" -- {misses}"),
    )


def test_criterion_04_rate_study_slope():
    spec = ExperimentSpec(
        q=1,
        n_list=(250, 500, 1000, 2000, 4000),
        beta_star_list=(1,),
        replications=100,
        master_seed=20250811,
        model=ModelSpec("cubic_1d"),
        bandwidth=BandwidthRule("balanced", alpha=1.0, beta=2.0),
    )
    result = run_rate_study(spec, eval_grid_size=33)
    expected = result.expected_slope
    lo, hi = expected * 1.3, expected * 0.7
    ok = lo <= result.slope <= hi
    report(
        4,
        ok,
        f"rate-study slope {result.slope:.4f} within +-30% of {expected:.4f} "
        f"(window [{lo:.4f}, {hi:.4f}]; medians "
        + ", ".join(f"{m:.4f}" for m in result.median_sup_errors)
        + ")",
    )


def test_criterion_05_lp_oracle_equivalence_and_duality():
    rng = np.random.default_rng(55)
    bounded_checked = 0
    attempts = 0
    mismatches = []
    while bounded_checked < 1000 and attempts < 100_000:
        attempts += 1
        prob = random_lp(rng)
        out = solve(prob)
        if not isinstance(out, Optimal):
            continue
        vertices = enumerate_vertices_oracle(prob)
        if not vertices:
            mismatches.append("bounded instance without vertices")
            break
        best = min(float(prob.objective @ b) for b in vertices)
        if abs(best - out.objective_value) > 1e-7:
            mismatches.append(f"optimum {out.objective_value} vs oracle {best}")
        # the solver's own dual certificate: g >= 0, A^T g = v, y.g = v.b
        residual, gap = dual_residuals(prob, out.dual, out.solution)
        if out.dual.min() < -1e-9 or residual > 1e-9 or gap > 1e-9:
            mismatches.append(
                f"dual: min g {out.dual.min():.3g}, residual {residual:.3g}, gap {gap:.3g}"
            )
        bounded_checked += 1

    # Unbounded carries no certificate, so an independent solver checks it
    consistent = 0
    for _ in range(1000):
        prob = random_lp(rng)
        if isinstance(solve(prob), Unbounded) == (not highs_has_certificate(prob)):
            consistent += 1
    ok = not mismatches and bounded_checked == 1000 and consistent == 1000
    report(
        5,
        ok,
        f"LP solver vs vertex oracle on {bounded_checked} bounded instances (<=1e-7), "
        f"each with its dual certificate (<=1e-9 scale-relative), "
        f"Unbounded verdict vs HiGHS certificate {consistent}/1000"
        + ("" if not mismatches else f" -- {mismatches[:3]}"),
    )


def _random_fit_case(rng):
    q = int(rng.integers(1, 3))
    n = int(rng.integers(30, 120))
    pts = rng.uniform(0, 1, (n, q))
    s = pts.sum(axis=1)
    y = 0.5 * np.sin(2 * np.pi * s) + 4 * s - rng.exponential(1.0, n)
    data = Dataset(pts, y)
    cfg = EstimatorConfig(
        beta_star=int(rng.integers(0, 4)),
        h=float(rng.uniform(0.15, 0.5)),
        fallback="degrade_degree",
        empty_window="expand",
    )
    x = rng.uniform(0, 1, q)
    return data, x, cfg


def test_criterion_06_estimator_invariant_suite():
    rng = np.random.default_rng(66)
    failures = []

    for i in range(500):
        data, x, cfg = _random_fit_case(rng)
        res = fit_at(data, x, cfg)
        mask = contains_mask(data.points, x, res.effective_bandwidth)
        fitted = np.atleast_1d(eval_poly(res.coeffs, data.points[mask], x))
        if not np.all(fitted >= data.responses[mask] - 1e-7):
            failures.append(f"above-data violated at case {i}")
            break

    for i in range(500):
        data, x, cfg = _random_fit_case(rng)
        res = fit_at(data, x, EstimatorConfig(beta_star=0, h=cfg.h, empty_window="expand"))
        if res.status == "exact" and res.value != fit_local_constant(data, x, cfg.h):
            failures.append(f"degree-0 fast path mismatch at case {i}")
            break

    for i in range(500):
        data, x, cfg = _random_fit_case(rng)
        shift = float(rng.uniform(-5, 5))
        base = fit_at(data, x, cfg)
        moved = fit_at(Dataset(data.points, data.responses + shift), x, cfg)
        if abs(moved.value - base.value - shift) > 1e-9 or moved.status != base.status:
            failures.append(f"translation equivariance violated at case {i}")
            break

    for i in range(500):
        data, x, cfg = _random_fit_case(rng)
        res = fit_at(data, x, cfg)
        if res.status != "exact":
            continue
        v = objective_vector(x, cfg.h, res.coeffs.basis)
        before = float(v @ res.coeffs.coeffs)
        extra = np.clip(x + rng.uniform(-cfg.h, cfg.h, x.shape[0]), 0, 1)
        grown = Dataset(
            np.vstack([data.points, extra[None, :]]),
            np.append(data.responses, float(rng.uniform(-2, 10))),
        )
        res2 = fit_at(grown, x, cfg)
        after = float(
            objective_vector(x, cfg.h, res2.coeffs.basis) @ res2.coeffs.coeffs
        )
        if after < before - 1e-7:
            failures.append(f"objective decreased after adding a constraint at case {i}")
            break

    report(
        6,
        not failures,
        "estimator invariants (above-data, degree-0 fast path, translation, "
        "objective monotonicity) over 500 randomized fits each"
        + ("" if not failures else f" -- {failures}"),
    )


def test_criterion_07_window_integral_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        q = int(rng.integers(1, 4))
        basis = enumerate_basis(q, int(rng.integers(0, 4)))
        x, h = rng.uniform(0, 1, q), rng.uniform(0.02, 1.2)
        lower, upper = clip_window(x, h)
        v = objective_vector(x, h, basis)
        for entry, j in zip(v, basis.indices):
            oracle = quad_monomial_integral(lower, upper, x, j)
            worst = max(worst, abs(entry - oracle))
    report(
        7,
        worst <= 1e-10,
        f"window integrals vs adaptive quadrature over 500 pairs, "
        f"max abs deviation {worst:.2e} <= 1e-10",
    )


def test_criterion_08_markov_gradient_bound():
    rng = np.random.default_rng(88)
    grids = {}
    for q in (1, 2, 3):
        per_axis = 51 if q <= 2 else 21
        axes = [np.linspace(0, 1, per_axis)] * q
        mesh = np.meshgrid(*axes, indexing="ij")
        grids[q] = np.stack([m.ravel() for m in mesh], axis=1)
    violations = 0
    for _ in range(1000):
        q = int(rng.integers(1, 4))
        beta_star = int(rng.integers(1, 4))
        basis = enumerate_basis(q, beta_star)
        coeffs = PolyCoeffs(basis, rng.uniform(-1, 1, len(basis)))
        x = rng.uniform(0, 1, q)
        grid = grids[q]
        values = eval_poly(coeffs, grid, x)
        grads = poly_gradient(coeffs, grid, x)
        grad_max = float(np.max(np.linalg.norm(grads, axis=1)))
        if grad_max > 4.0 * beta_star**2 * float(np.max(np.abs(values))) + 1e-9:
            violations += 1
    report(
        8,
        violations == 0,
        f"Markov gradient bound: {violations} violations over 1000 random polynomials",
    )


def test_criterion_09_bandwidth_formulas():
    h = simulation_bandwidth(100, 2, 3)
    problems = []
    if abs(h - 0.4642) > 1e-4:
        problems.append(f"simulation bandwidth {h:.6f} != 0.4642+-1e-4")
    rng = np.random.default_rng(99)
    estimates = {}
    for alpha in (1.0, 2.0):
        u = rng.random(100_000)
        est = hill_tail_index(-(u ** (1.0 / alpha)), k=1000)
        estimates[alpha] = est
        if abs(est - alpha) > 0.1 * alpha:
            problems.append(f"hill estimate {est:.4f} for alpha={alpha} off by >10%")
    report(
        9,
        not problems,
        f"simulation bandwidth anchor 0.4642 and Hill recovery "
        f"(alpha=1: {estimates[1.0]:.3f}, alpha=2: {estimates[2.0]:.3f})"
        + ("" if not problems else f" -- {problems}"),
    )


def test_criterion_10_adaptive_rule_equivalence():
    rng = np.random.default_rng(1010)
    agreements = 0
    for _ in range(1000):
        rows = int(rng.integers(2, 9))
        grid = int(rng.integers(1, 6))
        g = rng.normal(0, 1, (rows, grid))
        kind = rng.integers(0, 4)
        if kind == 0:
            zetas = np.zeros(rows)
        elif kind == 1:
            zetas = np.full(rows, np.inf)
        elif kind == 2:
            zetas = rng.uniform(0, 0.5, rows)
        else:
            zetas = rng.uniform(0, 3, rows)
        k_fast, _ = select_bandwidth_index(g, zetas)
        if k_fast == brute_force_ladder_index(g, zetas):
            agreements += 1
    report(
        10,
        agreements == 1000,
        f"ladder selection matches brute-force rule on {agreements}/1000 random tables",
    )
