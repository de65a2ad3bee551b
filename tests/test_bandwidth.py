import copy
import math
import pickle

import numpy as np
import pytest

from locfront import lp
from locfront.bandwidth import (
    LADDER_POLICIES,
    AdaptiveConfig,
    _pilot_alpha,
    adaptive_bandwidth,
    balanced_bandwidth,
    hill_tail_index,
    select_bandwidth_index,
    simulation_bandwidth,
)
from locfront.estimator import EstimatorConfig, fit_grid
from locfront.synthetic import ErrorSpec, ModelSpec, evaluation_grid, gen_design, make_sample
from locfront.synthetic import sample_errors
from locfront.synthetic import DesignSpec

from oracles import brute_force_ladder_index, brute_force_pilot_alpha


class TestSimulationBandwidth:
    def test_published_rate_anchor(self):
        assert simulation_bandwidth(100, 2, 3) == pytest.approx(0.4642, abs=1e-4)

    def test_cap(self):
        assert simulation_bandwidth(1, 2, 3) == 1.0

    def test_q3_constant(self):
        assert simulation_bandwidth(8000, 3, 0) == pytest.approx(0.1057, abs=1e-4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            simulation_bandwidth(0, 2, 1)


class TestBalancedBandwidth:
    def test_small_n(self):
        expected = (math.log(20) / 20) ** 0.5
        assert balanced_bandwidth(20, 1, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.387, abs=1e-3)

    def test_log_identity_cross_check(self):
        # same number through exp(log(...)/(alpha*beta+q))
        n, q, alpha, beta = 1000, 2, 1.0, 2.0
        direct = balanced_bandwidth(n, q, alpha, beta)
        via_logs = math.exp(math.log(math.log(n) / n) / (alpha * beta + q))
        assert direct == pytest.approx(via_logs, rel=1e-12)
        assert direct == pytest.approx(0.288, abs=1e-3)

    def test_large_alpha_approaches_cap(self):
        h = balanced_bandwidth(1000, 1, 1e6, 1.0)
        assert 0.99 < h <= 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            balanced_bandwidth(2, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            balanced_bandwidth(100, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            balanced_bandwidth(100, 1, float("nan"), 1.0)
        with pytest.raises(ValueError):
            balanced_bandwidth(100, 1, 1.0, float("nan"))


class TestHill:
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_recovers_exact_power_tail(self, alpha):
        rng = np.random.default_rng(int(alpha))
        u = rng.random(20_000)
        residuals = -(u ** (1.0 / alpha))
        est = hill_tail_index(residuals, k=500)
        assert est == pytest.approx(alpha, rel=0.15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        residuals = -rng.random(500) ** 0.5
        base = hill_tail_index(residuals, k=50)
        for lam in (0.1, 3.0, 250.0):
            assert hill_tail_index(lam * residuals, k=50) == pytest.approx(base, rel=1e-9)

    def test_constant_residuals_error(self):
        with pytest.raises(ValueError, match="tied"):
            hill_tail_index(np.full(50, -0.7), k=10)

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="strictly negative"):
            hill_tail_index(np.array([-0.1, -0.2, 0.0, 0.0]), k=3)
        with pytest.raises(ValueError):
            hill_tail_index(np.array([-0.1, -0.2]), k=0)

    def test_zeros_are_ignored(self):
        rng = np.random.default_rng(9)
        residuals = np.concatenate([-rng.random(300), np.zeros(40)])
        est = hill_tail_index(residuals, k=60)
        assert est > 0


class TestSelectionRule:
    def make_table(self, rng, k_top=None):
        k_top = int(rng.integers(0, 7)) if k_top is None else k_top
        rows = k_top + 2
        grid = int(rng.integers(1, 6))
        g = rng.normal(0, 1, (rows, grid))
        kind = rng.integers(0, 3)
        if kind == 0:
            zetas = rng.uniform(0, 2, rows)
        elif kind == 1:
            zetas = np.zeros(rows)
        else:
            zetas = np.full(rows, np.inf)
        return g, zetas

    def test_infinite_thresholds_select_top(self):
        g = np.random.default_rng(0).normal(0, 1, (6, 4))
        zetas = np.full(6, np.inf)
        k_hat, trigger = select_bandwidth_index(g, zetas)
        assert k_hat == 4 and trigger is None

    def test_zero_thresholds_trigger_immediately(self):
        g = np.array([[0.0], [1.0], [2.0]])
        k_hat, trigger = select_bandwidth_index(g, np.zeros(3))
        assert k_hat == 0
        assert trigger == (0, 0)

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            g, zetas = self.make_table(rng)
            k_hat, _ = select_bandwidth_index(g, zetas)
            assert k_hat == brute_force_ladder_index(g, zetas)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            select_bandwidth_index(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            select_bandwidth_index(np.zeros((1, 2)), np.zeros(1))


def sine_data(n, seed, q=1):
    rng = np.random.default_rng(seed)
    pts = gen_design(DesignSpec("random_uniform", q=q, n=n), rng)
    eps = sample_errors(ErrorSpec("exponential_unit"), n, rng)
    return make_sample(pts, ModelSpec("sine_sum"), eps)


class TestAdaptiveBandwidth:
    def test_ladder_shape_and_caps(self):
        data = sine_data(400, seed=1)
        cfg = AdaptiveConfig(grid_points_per_axis=15, s=0.5, rho=1.25)
        res = adaptive_bandwidth(data, 1, cfg)
        K = res.bandwidths.shape[0] - 2
        expected_K = math.floor(0.5 * math.log(400) / math.log(1.25))
        assert K == expected_K
        assert res.bandwidths.shape == (K + 2,)
        assert np.all(res.bandwidths <= 1.0)
        assert np.all(np.diff(res.bandwidths) >= 0)
        assert res.bandwidths[0] == pytest.approx(400 ** (-0.5), rel=1e-12)

    def test_selected_within_ladder_and_deterministic(self):
        data = sine_data(300, seed=2)
        cfg = AdaptiveConfig(grid_points_per_axis=15, s=0.5, rho=1.25, threshold_constant=1.0)
        res1 = adaptive_bandwidth(data, 1, cfg)
        res2 = adaptive_bandwidth(data, 1, cfg)
        assert res1.k_hat == res2.k_hat
        assert res1.h_selected == res2.h_selected
        assert res1.bandwidths[0] <= res1.h_selected <= 1.0
        assert res1.alpha_hat is not None and res1.alpha_hat > 0
        # selection agrees with the brute-force rule on the emitted table
        assert res1.k_hat == brute_force_ladder_index(res1.grid_estimates, res1.thresholds)

    def test_unreachable_thresholds_select_top_rung(self):
        data = sine_data(200, seed=3)
        cfg = AdaptiveConfig(grid_points_per_axis=7, threshold_constant=1e300)
        res = adaptive_bandwidth(data, 0, cfg)
        assert res.k_hat == res.bandwidths.shape[0] - 2
        assert res.trigger is None

    def test_zero_thresholds_select_bottom(self):
        data = sine_data(200, seed=4)
        cfg = AdaptiveConfig(grid_points_per_axis=7, threshold_constant=1e-300)
        res = adaptive_bandwidth(data, 0, cfg)
        # consecutive local-constant fits differ somewhere on the grid
        assert res.k_hat == 0
        assert res.trigger is not None

    def test_diagnostics_rows(self):
        data = sine_data(150, seed=5)
        cfg = AdaptiveConfig(grid_points_per_axis=5)
        res = adaptive_bandwidth(data, 0, cfg)
        rows = res.diagnostics_rows()
        assert len(rows) == res.bandwidths.shape[0]
        assert [row["zeta_k"] for row in rows] == res.thresholds.tolist()
        assert math.isnan(rows[-1]["max_delta_next"])
        for row in rows[:-1]:
            assert row["max_delta_next"] >= 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(s=1.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(rho=1.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(rho=float("nan"))
        with pytest.raises(ValueError):
            AdaptiveConfig(threshold_constant=float("nan"))
        for key, kwargs in (("adaptive_rho", {"rho": math.inf}),
                            ("adaptive_constant", {"threshold_constant": math.inf}),
                            ("adaptive_s", {"s": math.inf})):
            with pytest.raises(ValueError, match=rf"\({key}\) must be in \(.*, got inf$"):
                AdaptiveConfig(**kwargs)
        with pytest.raises(ValueError, match="adaptive_grid"):
            AdaptiveConfig(grid_points_per_axis=0)
        for order in (0, -2):
            with pytest.raises(ValueError, match="adaptive_hill_order"):
                AdaptiveConfig(hill_order=order)

    def test_config_is_a_plain_value(self):
        # it reaches every run_adaptive worker by pickling, so a copy must
        # equal the original, field for field
        cfg = AdaptiveConfig(grid_points_per_axis=7, s=0.4, hill_order=12)
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert copy.deepcopy(cfg) == cfg
        assert hash(cfg) == hash(AdaptiveConfig(grid_points_per_axis=7, s=0.4, hill_order=12))
        assert cfg != AdaptiveConfig(grid_points_per_axis=8, s=0.4, hill_order=12)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_ladder_is_compared_on_the_lattice_of_the_data_dimension(self, q):
        res = adaptive_bandwidth(sine_data(60, seed=3, q=q), 1,
                                 AdaptiveConfig(grid_points_per_axis=3))
        assert res.grid_estimates.shape == (res.bandwidths.shape[0], 3 ** q)

    @pytest.mark.parametrize(
        "q,n,seed,order", [(1, 60, 11, None), (1, 300, 12, 5), (2, 250, 13, None),
                           (2, 400, 14, 30), (3, 200, 15, None)]
    )
    def test_pilot_matches_brute_force(self, q, n, seed, order):
        data = sine_data(n, seed=seed, q=q)
        cfg = AdaptiveConfig(grid_points_per_axis=1, hill_order=order)
        expected = brute_force_pilot_alpha(data.points, data.responses, order)
        assert _pilot_alpha(data, cfg) == pytest.approx(expected, rel=1e-12)

    def test_order_beyond_negative_residuals_fails_before_any_rung(self, monkeypatch):
        import locfront.estimator as estimator

        data = sine_data(120, seed=7)

        def no_fit(*args):
            raise AssertionError("a rung was fitted")

        monkeypatch.setattr(estimator, "fit_at", no_fit)
        cfg = AdaptiveConfig(grid_points_per_axis=15, hill_order=119)
        with pytest.raises(ValueError, match="adaptive_hill_order"):
            adaptive_bandwidth(data, 1, cfg)

    @pytest.mark.parametrize(
        "q,n,seed,beta_star,s,size",
        [(1, 40, 21, 1, 0.05, 21), (2, 100, 22, 1, 0.2, 5)],
        ids=["q1", "q2"],
    )
    def test_warm_ladder_equals_cold_rungs(self, monkeypatch, q, n, seed, beta_star, s, size):
        """Each rung's LPs start from the optimal rows of the rung below; the
        estimates are the bytes of a cold ``fit_grid`` per rung. A small s
        starts the ladder at windows that hold few points, so it has
        degraded and expanded fits, where the start has the wrong length
        or rows outside the window."""
        data = sine_data(n, seed=seed, q=q)
        warm = []
        solve = lp.solve

        def recording(prob, start=None):
            warm.append(start is not None)
            return solve(prob, start=start)

        monkeypatch.setattr(lp, "solve", recording)
        res = adaptive_bandwidth(data, beta_star, AdaptiveConfig(grid_points_per_axis=size, s=s))
        assert 3 * sum(warm) >= len(warm)  # at least a third of the LPs start warm
        statuses = set()
        cold = np.empty_like(res.grid_estimates)
        grid = evaluation_grid(q, size)
        for k, h in enumerate(res.bandwidths):
            cfg = EstimatorConfig(beta_star=beta_star, h=float(h), **LADDER_POLICIES)
            fits = fit_grid(data, grid, cfg)
            statuses.update(fit.status for fit in fits)
            cold[k] = [fit.value for fit in fits]
        assert {"degraded", "expanded"} <= statuses
        assert cold.tobytes() == res.grid_estimates.tobytes()
