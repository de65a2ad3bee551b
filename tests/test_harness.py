import io
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from locfront.bandwidth import AdaptiveConfig, adaptive_bandwidth, simulation_bandwidth
from locfront import estimator, harness
from locfront.estimator import EstimatorConfig, UnboundedFitError, fit_at
from locfront.harness import (
    BandwidthRule,
    ConfigError,
    ExperimentSpec,
    RateStudyResult,
    build_adaptive_config,
    build_experiment_spec,
    config_int,
    default_workers,
    evaluation_grid,
    parse_config,
    resolve_bandwidth,
    run_adaptive,
    run_mse,
    run_rate_study,
    write_adaptive_csv,
    write_adaptive_diagnostics_csv,
    write_csv,
    write_rate_json,
    write_result_csv,
    write_result_json,
)
from locfront.synthetic import (
    DesignSpec,
    ErrorSpec,
    ModelSpec,
    eval_boundary,
    gen_design,
    make_sample,
    sample_errors,
)


def small_center_spec(**overrides):
    kwargs = dict(
        q=2,
        n_list=(100, 196),
        beta_star_list=(0, 1),
        replications=8,
        master_seed=99,
        evaluation="center",
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            small_center_spec(n_list=())
        with pytest.raises(ValueError):
            small_center_spec(replications=0)
        with pytest.raises(ValueError):
            small_center_spec(master_seed=-1)
        with pytest.raises(ValueError):
            small_center_spec(evaluation="pointwise")
        with pytest.raises(ValueError):
            small_center_spec(design="clustered")

    def test_bandwidth_rule_validation(self):
        with pytest.raises(ValueError):
            BandwidthRule("fixed")
        with pytest.raises(ValueError):
            BandwidthRule("fixed", h=1.5)
        with pytest.raises(ValueError):
            BandwidthRule("balanced", alpha=1.0)
        with pytest.raises(ValueError):
            BandwidthRule("balanced", alpha=float("nan"), beta=2.0)
        with pytest.raises(ValueError):
            BandwidthRule("balanced", alpha=1.0, beta=float("nan"))
        with pytest.raises(ValueError):
            BandwidthRule("magic")

    def test_resolve_bandwidth(self):
        assert resolve_bandwidth(BandwidthRule("fixed", h=0.3), 100, 2, 1) == 0.3
        sim = resolve_bandwidth(BandwidthRule("simulation"), 100, 2, 3)
        assert sim == pytest.approx(0.4642, abs=1e-4)
        bal = resolve_bandwidth(BandwidthRule("balanced", alpha=1.0, beta=2.0), 1000, 2, 1)
        assert bal == pytest.approx(0.288, abs=1e-3)
        with pytest.raises(ValueError):
            resolve_bandwidth(BandwidthRule("adaptive"), 100, 2, 1)


class TestCenterRuns:
    def test_determinism_across_workers(self):
        spec = small_center_spec()
        serial = run_mse(spec, workers=1)
        parallel = run_mse(spec, workers=2)
        assert serial.cells == parallel.cells

    def test_cell_independence(self):
        full = run_mse(small_center_spec(), workers=1)
        single = run_mse(
            small_center_spec(n_list=(196,), beta_star_list=(1,)), workers=1
        )
        assert full.cells[(1, 196)] == single.cells[(1, 196)]

    def test_tallies_sum_to_replications(self):
        table = run_mse(small_center_spec(), workers=1)
        for cell in table.cells.values():
            assert cell.n_exact + cell.n_degraded + cell.n_expanded == cell.replications == 8
            assert cell.mse >= 0

    def test_fixed_design_supported(self):
        spec = small_center_spec(design="equidistant_grid", n_list=(100,))
        table = run_mse(spec, workers=1)
        assert table.cells[(0, 100)].mse >= 0

    def test_noiseless_polynomial_boundary_recovered_exactly(self):
        # cubic boundary, zero errors, beta_star=3: the fit reproduces the
        # boundary up to LP tolerance
        spec = ExperimentSpec(
            q=1,
            n_list=(40,),
            beta_star_list=(3,),
            replications=4,
            master_seed=12,
            error=ErrorSpec("zero"),
            model=ModelSpec("cubic_1d"),
            bandwidth=BandwidthRule("fixed", h=0.2),
        )
        table = run_mse(spec, workers=1)
        assert table.cells[(3, 40)].mse <= 1e-14


class TestGridRuns:
    def test_grid_mse_and_tallies(self):
        spec = small_center_spec(
            evaluation="grid", grid_points_per_axis=4, replications=5, n_list=(100,)
        )
        table = run_mse(spec, workers=1)
        for cell in table.cells.values():
            assert cell.mse >= 0
            assert cell.n_exact + cell.n_degraded + cell.n_expanded == 5

    def test_single_point_grid_equals_center(self):
        base = small_center_spec(n_list=(100,), beta_star_list=(1,), replications=6)
        center = run_mse(base, workers=1)
        grid_spec = small_center_spec(
            n_list=(100,),
            beta_star_list=(1,),
            replications=6,
            evaluation="grid",
            grid_points_per_axis=1,
        )
        grid = run_mse(grid_spec, workers=1)
        assert grid.cells == center.cells

    def test_determinism_across_workers(self):
        spec = small_center_spec(
            evaluation="grid", grid_points_per_axis=3, replications=6, n_list=(100,)
        )
        assert run_mse(spec, workers=1).cells == run_mse(spec, workers=2).cells

    def test_cell_recomputed_from_public_pieces(self):
        # pins the seeding contract and the left-to-right reduction order: a
        # pairwise (np.mean) reducer moves the last bits
        beta_star, n = 1, 100
        spec = small_center_spec(
            evaluation="grid", grid_points_per_axis=5, replications=1,
            n_list=(n,), beta_star_list=(beta_star,),
        )
        rng = np.random.default_rng([spec.master_seed, beta_star, n, 0])
        points = gen_design(DesignSpec(spec.design, spec.q, n), rng)
        data = make_sample(points, spec.model, sample_errors(spec.error, n, rng))
        cfg = EstimatorConfig(
            beta_star=beta_star,
            h=simulation_bandwidth(n, spec.q, beta_star),
            fallback=spec.fallback,
            empty_window=spec.empty_window,
        )
        grid = evaluation_grid(spec.q, 5)
        total = 0.0
        for point, truth in zip(grid, eval_boundary(spec.model, grid)):
            total += (fit_at(data, point, cfg).value - truth) ** 2
        assert run_mse(spec, workers=1).cells[(beta_star, n)].mse == total / len(grid)


class TestFailureLabels:
    def test_failing_replication_names_its_cell(self):
        # three points cannot bound a cubic fit, and fallback="error" forbids
        # degrading it
        spec = ExperimentSpec(
            q=1,
            n_list=(3, 4, 5, 6),
            beta_star_list=(3,),
            replications=2,
            master_seed=8,
            bandwidth=BandwidthRule("fixed", h=0.3),
            fallback="error",
        )
        label = r"^cell \(beta_star=3, n=3\): "
        with pytest.raises(UnboundedFitError, match=label):
            run_mse(spec, workers=1)
        balanced = BandwidthRule("balanced", alpha=1.0, beta=2.0)
        with pytest.raises(UnboundedFitError, match=label):
            run_rate_study(replace(spec, bandwidth=balanced), workers=1)

    def test_every_study_names_the_failing_grid_point(self, monkeypatch):
        # every grid goes through fit_grid, which names the point that failed
        fit_at = estimator.fit_at

        def failing_at_second_point(data, x, cfg):
            if x.tolist() == [0.5, 0.0]:
                raise RuntimeError("planted failure")
            return fit_at(data, x, cfg)

        monkeypatch.setattr(estimator, "fit_at", failing_at_second_point)
        point = r"grid point 1 at \[0\.5, 0\.0\]: planted failure$"
        spec = small_center_spec(n_list=(100,), beta_star_list=(1,), replications=1,
                                 evaluation="grid", grid_points_per_axis=3)
        with pytest.raises(RuntimeError, match=r"^cell \(beta_star=1, n=100\): " + point):
            run_mse(spec, workers=1)
        balanced = replace(spec, n_list=(100, 121, 144, 169),
                           bandwidth=BandwidthRule("balanced", alpha=1.0, beta=2.0))
        with pytest.raises(RuntimeError, match=point):
            run_rate_study(balanced, eval_grid_size=3, workers=1)
        data = harness._make_dataset(spec, 1, 100, 0)
        with pytest.raises(RuntimeError, match=r"^ladder rung k=0 \(h=[^)]*\): " + point):
            adaptive_bandwidth(data, 1, AdaptiveConfig(grid=evaluation_grid(2, 3)))


class TestEvaluationGrid:
    def test_includes_boundary(self):
        grid = evaluation_grid(2, 3)
        assert grid.shape == (9, 2)
        assert [0.0, 0.0] in grid.tolist()
        assert [1.0, 1.0] in grid.tolist()

    def test_single_point_is_center(self):
        grid = evaluation_grid(3, 1)
        assert grid.tolist() == [[0.5, 0.5, 0.5]]

    @pytest.mark.parametrize("k", [0, -3])
    def test_fewer_than_one_point_rejected(self, k):
        with pytest.raises(ValueError, match=f"got {k}"):
            evaluation_grid(2, k)


class TestRateStudy:
    def test_validations(self):
        spec = small_center_spec(
            q=1,
            n_list=(50, 100, 200, 400),
            beta_star_list=(1,),
            bandwidth=BandwidthRule("balanced", alpha=1.0, beta=2.0),
        )
        with pytest.raises(ValueError, match="balanced"):
            run_rate_study(small_center_spec(q=1, n_list=(50, 100, 200, 400), beta_star_list=(1,)))
        with pytest.raises(ValueError, match="4 sample"):
            run_rate_study(
                small_center_spec(
                    q=1,
                    n_list=(50, 100),
                    beta_star_list=(1,),
                    bandwidth=BandwidthRule("balanced", alpha=1.0, beta=2.0),
                )
            )
        with pytest.raises(ValueError, match="one beta_star"):
            run_rate_study(
                small_center_spec(
                    q=1,
                    n_list=(50, 100, 200, 400),
                    bandwidth=BandwidthRule("balanced", alpha=1.0, beta=2.0),
                )
            )
        with pytest.raises(ValueError, match="eval_grid_size"):
            run_rate_study(spec, eval_grid_size=0, workers=1)
        result = run_rate_study(spec, eval_grid_size=9, workers=1)
        assert result.expected_slope == pytest.approx(-2.0 / 3.0)
        assert len(result.median_sup_errors) == 4
        assert all(e > 0 for e in result.median_sup_errors)

    def test_errors_decrease_overall(self):
        spec = ExperimentSpec(
            q=1,
            n_list=(100, 200, 400, 800),
            beta_star_list=(1,),
            replications=6,
            master_seed=5,
            model=ModelSpec("cubic_1d"),
            bandwidth=BandwidthRule("balanced", alpha=1.0, beta=2.0),
        )
        result = run_rate_study(spec, eval_grid_size=9, workers=1)
        assert result.median_sup_errors[-1] < result.median_sup_errors[0]
        assert result.slope < 0

    def test_zero_median_names_its_n(self, monkeypatch):
        # a median of exactly 0 has no logarithm; every replication here
        # returns zero errors at every grid point
        def zero_errors(args):
            return np.zeros(len(args[4])), "exact"

        monkeypatch.setattr(harness, "_replication_errors", zero_errors)
        spec = small_center_spec(q=1, n_list=(50, 100, 200, 400), beta_star_list=(1,),
                                 bandwidth=BandwidthRule("balanced", alpha=1.0, beta=2.0))
        with pytest.raises(ValueError, match="^median sup-error is 0 at n=50;"):
            run_rate_study(spec, eval_grid_size=3, workers=1)


class TestAdaptiveRuns:
    def test_smoke_and_outputs(self, tmp_path):
        spec = ExperimentSpec(
            q=1,
            n_list=(150,),
            beta_star_list=(1,),
            replications=3,
            master_seed=17,
            bandwidth=BandwidthRule("adaptive"),
        )
        cfg = AdaptiveConfig(grid=np.linspace(0.1, 0.9, 7)[:, None])
        runs = run_adaptive(spec, cfg, workers=1)
        assert len(runs) == 3
        for run in runs:
            res = run.result
            assert res.bandwidths[0] <= res.h_selected <= 1.0
            assert np.isfinite(res.h_selected)
        csv_path = tmp_path / "selections.csv"
        write_adaptive_csv(runs, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,replication,k_hat,h_selected,alpha_hat,trigger_k,trigger_l"
        assert len(lines) == 4
        diag_path = tmp_path / "diag.csv"
        write_adaptive_diagnostics_csv(runs[0].result, diag_path)
        assert diag_path.read_text().startswith("k,h_k,zeta_k,max_delta_next")


class TestOutputs:
    def test_csv_and_json(self, tmp_path):
        spec = small_center_spec(replications=3)
        table = run_mse(spec, workers=1)
        csv_path = tmp_path / "results.csv"
        write_result_csv(table, csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "beta_star,n,mse,mc_stderr,n_exact,n_degraded,n_expanded"
        assert len(lines) == 1 + len(table.cells)
        json_path = tmp_path / "results.json"
        write_result_json(table, spec, json_path)
        payload = json.loads(json_path.read_text())
        assert payload["master_seed"] == 99
        assert payload["experiment"]["q"] == 2
        assert len(payload["results"]) == len(table.cells)
        mse_from_csv = float(lines[1].split(",")[2])
        assert mse_from_csv == payload["results"][0]["mse"]


class TestWriters:
    def test_csv_field_formats(self):
        fh = io.StringIO()
        write_csv(fh, ("s", "i", "f", "nan", "empty"), [("exact", 3, 1 / 3, float("nan"), "")])
        assert fh.getvalue() == "s,i,f,nan,empty\nexact,3,0.3333333333333333,nan,\n"

    RATE = RateStudyResult(
        beta_star=1, alpha=1.0, beta=2.0, n_list=(60, 120),
        median_sup_errors=(0.5, 0.25), slope=-1.0, expected_slope=-0.5,
    )

    def test_rate_json_keeps_field_order(self, tmp_path):
        path = tmp_path / "rate.json"
        write_rate_json(self.RATE, path)
        payload = json.loads(path.read_text())
        assert list(payload) == [f.name for f in fields(RateStudyResult)]
        assert payload["n_list"] == [60, 120]
        assert payload["median_sup_errors"] == [0.5, 0.25]

    def test_json_refuses_nan_before_opening_the_file(self, tmp_path):
        path = tmp_path / "rate.json"
        with pytest.raises(ValueError):
            write_rate_json(replace(self.RATE, slope=float("nan")), path)
        assert not path.exists()


class TestRuleChecks:
    """Each run_* entry point checks its rule before any cell runs."""

    @pytest.fixture(autouse=True)
    def no_cells(self, monkeypatch):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "_run_cells", no_cell)

    def test_rate_study_refuses_zero_errors(self):
        # the zero law has no tail index, so the theory slope is undefined
        spec = small_center_spec(q=1, n_list=(50, 100, 200, 400), beta_star_list=(3,),
                                 error=ErrorSpec("zero"), model=ModelSpec("cubic_1d"),
                                 bandwidth=BandwidthRule("balanced", alpha=1.0, beta=2.0))
        with pytest.raises(ValueError, match="^error: the zero law has no tail index"):
            run_rate_study(spec, workers=1)

    def test_mse_refuses_adaptive_rule(self):
        with pytest.raises(ValueError, match="^bandwidth: "):
            run_mse(small_center_spec(bandwidth=BandwidthRule("adaptive")), workers=1)

    @pytest.mark.parametrize(
        "overrides,key",
        [
            ({"bandwidth": BandwidthRule("fixed", h=0.3)}, "bandwidth"),
            ({"fallback": "error"}, "fallback"),
            ({"empty_window": "error"}, "empty_window"),
        ],
    )
    def test_adaptive_refuses_other_rules_and_policies(self, overrides, key):
        spec = small_center_spec(beta_star_list=(1,), bandwidth=BandwidthRule("adaptive"))
        with pytest.raises(ValueError, match=f"^{key}: "):
            run_adaptive(replace(spec, **overrides), AdaptiveConfig(grid=[[0.5, 0.5]]), workers=1)


class TestConfigParsing:
    GOOD = """
        # comment
        q = 2
        n = 100, 400
        beta_star = 0, 1
        replications = 5
        seed = 7
        design = random_uniform
        error = weibull:2.0
        model = sine_sum
        bandwidth = balanced:1,2
        evaluation = grid:6
        fallback = degrade_degree
        empty_window = expand
    """

    def test_round_trip(self):
        spec = build_experiment_spec(parse_config(self.GOOD))
        assert spec.q == 2
        assert spec.n_list == (100, 400)
        assert spec.beta_star_list == (0, 1)
        assert spec.error == ErrorSpec("weibull", alpha=2.0)
        assert spec.bandwidth == BandwidthRule("balanced", alpha=1.0, beta=2.0)
        assert spec.evaluation == "grid"
        assert spec.grid_points_per_axis == 6

    def test_defaults(self):
        spec = build_experiment_spec(
            parse_config("q=1\nn=50\nbeta_star=1\nreplications=2\nseed=0")
        )
        assert spec.design == "random_uniform"
        assert spec.error == ErrorSpec("exponential_unit")
        assert spec.bandwidth == BandwidthRule("simulation")
        assert spec.evaluation == "center"

    @pytest.mark.parametrize(
        "text,match",
        [
            ("shape = 2", "unknown key"),
            ("q = 2\nq = 3", "duplicate"),
            ("q =", "empty value"),
            ("just some words", "expected"),
        ],
    )
    def test_parse_errors(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    @pytest.mark.parametrize(
        "overrides,match",
        [
            ({"error": "weibull:zero"}, "weibull"),
            ({"error": "gaussian"}, "error"),
            ({"bandwidth": "balanced:1"}, "balanced"),
            ({"bandwidth": "tiny"}, "bandwidth"),
            ({"evaluation": "grid:x"}, "grid size"),
            ({"model": "quartic"}, "model"),
            ({"adaptive_grid": "5.5"}, "adaptive_grid"),
            ({"rate_grid": "x"}, "rate_grid"),
            ({"adaptive_s": "x"}, "adaptive_s"),
            ({"adaptive_rho": "x"}, "adaptive_rho"),
            ({"adaptive_constant": "x"}, "adaptive_constant"),
            ({"bandwidth": "balanced:nan,2"}, "balanced"),
            ({"error": "weibull:nan"}, "weibull"),
            ({"adaptive_rho": "nan"}, "rho"),
            ({"adaptive_constant": "nan"}, "threshold_constant"),
            ({"adaptive_hill_order": "0"}, "adaptive_hill_order"),
            ({"adaptive_hill_order": "-4"}, "adaptive_hill_order"),
            ({"q": "0"}, "q must be >= 1"),
            ({"n": "50, 0"}, r"\(n\) entries must be >= 1, got 0"),
            ({"beta_star": "1, -1"}, r"\(beta_star\) entries must be >= 0, got -1"),
            ({"q": "2", "n": "100, 500", "design": "equidistant_grid"},
             r"\(n\) entries must be perfect q-th powers \(q = 2\).*got 500"),
            ({"q": "3", "n": "1000, 100", "design": "equidistant_grid"},
             r"\(n\) entries must be perfect q-th powers \(q = 3\).*got 100$"),
            ({"fallback": "bogus"}, r"^fallback must be one of .*got 'bogus'$"),
            ({"empty_window": "grow"}, r"^empty_window must be one of .*got 'grow'$"),
        ],
    )
    def test_build_errors(self, overrides, match):
        base = {
            "q": "1",
            "n": "50",
            "beta_star": "1",
            "replications": "2",
            "seed": "0",
        }
        base.update(overrides)
        with pytest.raises(ConfigError, match=match):
            spec = build_experiment_spec(base)
            build_adaptive_config(base, spec.q)
            config_int(base, "rate_grid", 33)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            build_experiment_spec(parse_config("q = 2"))

    def test_adaptive_config(self):
        cfg = build_adaptive_config(
            {"adaptive_s": "0.4", "adaptive_rho": "1.5", "adaptive_grid": "5"}, q=1
        )
        assert cfg.s == 0.4
        assert cfg.rho == 1.5
        assert cfg.grid.shape == (5, 1)


class TestWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("LOCFRONT_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("LOCFRONT_WORKERS", "zero")
        with pytest.raises(ConfigError):
            default_workers()
        monkeypatch.delenv("LOCFRONT_WORKERS")
        assert default_workers() >= 1
