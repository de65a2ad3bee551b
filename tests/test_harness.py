import io
import json
import re
from dataclasses import asdict, fields, replace
from itertools import dropwhile, takewhile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    worker_count,
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


# the config keys every experiment must set
REQUIRED = {"q": "1", "n": "50", "beta_star": "1", "replications": "2", "seed": "0"}


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

    @pytest.mark.parametrize("overrides,match", [
        ({"n_list": (100, 196, 100)}, r"^n_list \(n\) entries must be distinct, got 100 "),
        ({"beta_star_list": (1, np.int64(1))},
         r"^beta_star_list \(beta_star\) entries must be distinct, got 1 "),
    ], ids=["n", "beta-star"])
    def test_repeated_entry_refused_naming_key_and_value(self, overrides, match):
        # each entry names one cell, so a repeat would fit a cell twice
        with pytest.raises(ValueError, match=match + "more than once$"):
            small_center_spec(**overrides)

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
        spec = small_center_spec()
        for cell in run_mse(spec, workers=1).cells.values():
            assert cell.n_exact + cell.n_degraded + cell.n_expanded == spec.replications == 8
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

    @pytest.mark.parametrize("spec", [
        small_center_spec(evaluation="grid", grid_points_per_axis=3, replications=6,
                          n_list=(100,)),
        # the deterministic design's degenerate path: phase 1 drops an
        # equality row on 600 of each replication's 1681 LPs
        ExperimentSpec(q=2, n_list=(400,), beta_star_list=(1,), replications=2,
                       master_seed=3, design="equidistant_grid",
                       bandwidth=BandwidthRule("fixed", h=0.03), evaluation="grid",
                       grid_points_per_axis=41),
    ], ids=["random", "equidistant"])
    def test_determinism_across_workers(self, spec):
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

        def failing_at_second_point(data, x, cfg, start=None):
            if x.tolist() == [0.5, 0.0]:
                raise RuntimeError("planted failure")
            return fit_at(data, x, cfg, start=start)

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
            adaptive_bandwidth(data, 1, AdaptiveConfig(grid_points_per_axis=3))


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
        with pytest.raises(ValueError, match="^grid points per axis must be an integer >= 1, got 0$"):
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
        cfg = AdaptiveConfig(grid_points_per_axis=7)
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
            run_adaptive(replace(spec, **overrides), AdaptiveConfig(grid_points_per_axis=1),
                         workers=1)

    @pytest.mark.parametrize(
        "make,match",
        [(lambda: small_center_spec(beta_star_list=()), "^beta_star_list must be nonempty$"),
         (lambda: build_experiment_spec({**REQUIRED, "evaluation": "grid:0"}),
          "^evaluation: grid points per axis must be an integer >= 1, got 0$"),
         (lambda: run_rate_study(small_center_spec(
             q=1, n_list=(400, 200, 100, 50), beta_star_list=(1,),
             bandwidth=BandwidthRule("balanced", alpha=1.0, beta=2.0)), workers=1),
          "^n_list must be increasing$"),
         (lambda: run_adaptive(small_center_spec(bandwidth=BandwidthRule("adaptive")),
                               AdaptiveConfig(grid_points_per_axis=1), workers=1),
          "^adaptive runs use one beta_star at a time$"),
         (lambda: build_experiment_spec({**REQUIRED, "n": "50, x"}),
          "^n: expected comma-separated integers, got '50, x'$"),
         (lambda: build_experiment_spec({**REQUIRED, "bandwidth": "fixed:x"}),
          "^bandwidth: expected a fixed h, got 'x'$"),
         (lambda: build_adaptive_config({"adaptive_grid": "0"}),
          r"^grid_points_per_axis \(adaptive_grid\) must be an integer >= 1, got 0$")],
        ids=["no-beta-star", "grid-0", "decreasing-n", "two-beta-stars", "non-integer-n",
             "non-numeric-fixed-h", "adaptive-grid-0"],
    )
    def test_refused_before_any_cell(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_balanced_rule_refuses_a_small_n_at_config_time(self):
        # each cell's h is resolved when the spec is built, so n = 2 fails
        # before the n = 400 cell runs
        with pytest.raises(ConfigError, match=r"^bandwidth: need n >= 3 .*got n = 2$"):
            build_experiment_spec({**REQUIRED, "n": "400, 2", "bandwidth": "balanced:1,2"})


# every site of the one whole-number rule: (build from a value, the name its
# refusal gives, the least value, where the accepted value is kept)
WHOLE_SITES = {
    "spec-q": (lambda v: small_center_spec(q=v), "q", 1, lambda s: s.q),
    "spec-n": (lambda v: small_center_spec(n_list=(100, v)), "n_list (n)", 1,
               lambda s: s.n_list[1]),
    "spec-beta-star": (lambda v: small_center_spec(beta_star_list=(0, v)),
                       "beta_star_list (beta_star)", 0, lambda s: s.beta_star_list[1]),
    "spec-replications": (lambda v: small_center_spec(replications=v), "replications", 1,
                          lambda s: s.replications),
    "spec-seed": (lambda v: small_center_spec(master_seed=v), "master_seed (seed)", 0,
                  lambda s: s.master_seed),
    # checked on a center spec too, as the JSON echo writes it
    "spec-grid": (lambda v: small_center_spec(grid_points_per_axis=v),
                  "evaluation: grid points per axis", 1, lambda s: s.grid_points_per_axis),
    "estimator-beta-star": (lambda v: EstimatorConfig(beta_star=v, h=0.5), "beta_star", 0,
                            lambda c: c.beta_star),
    "hill-order": (lambda v: AdaptiveConfig(hill_order=v),
                   "hill_order (adaptive_hill_order)", 1, lambda c: c.hill_order),
    "adaptive-grid": (lambda v: AdaptiveConfig(grid_points_per_axis=v),
                      "grid_points_per_axis (adaptive_grid)", 1,
                      lambda c: c.grid_points_per_axis),
    "design-q": (lambda v: DesignSpec("random_uniform", q=v, n=4), "q", 1, lambda d: d.q),
    "design-n": (lambda v: DesignSpec("random_uniform", q=2, n=v), "n_list (n)", 1,
                 lambda d: d.n),
    "workers": (lambda v: worker_count(v, "workers"), "workers", 1, lambda w: w),
}


class TestWholeNumbers:
    """One rule, ``estimator._whole``, for every count and degree: a float or
    a string is refused, never truncated, and a numpy integer is kept as a
    Python int."""

    # worker_count reads decimal text, so "2" is a count there (TestWorkers)
    @pytest.mark.parametrize("site,bad", [
        (site, bad) for site in WHOLE_SITES for bad in (2.0, 1.5, "2", "least-1")
        if (site, bad) != ("workers", "2")])
    def test_refused_naming_the_field(self, site, bad):
        build, name, least, _ = WHOLE_SITES[site]
        value = least - 1 if bad == "least-1" else bad
        match = f"^{re.escape(name)} must be an integer >= {least}, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=match):
            build(value)

    # _whole is the one grid-size rule: evaluation_grid, which the rate study
    # calls, reads its size through it, and so does the spec
    @pytest.mark.parametrize("bad", [2.5, 2.0, "3", 0])
    @pytest.mark.parametrize("entry,prefix", [
        (lambda size: evaluation_grid(2, size), ""),
        (lambda size: small_center_spec(evaluation="grid", grid_points_per_axis=size),
         "evaluation: "),
        (lambda size: run_rate_study(small_center_spec(
            q=1, n_list=(40, 50, 60, 70), beta_star_list=(1,),
            bandwidth=BandwidthRule("balanced", alpha=1.0, beta=2.0)),
            eval_grid_size=size, workers=1), ""),
    ], ids=["evaluation-grid", "experiment-spec", "rate-study"])
    def test_grid_size_refused_naming_it(self, entry, prefix, bad):
        match = f"^{prefix}grid points per axis must be an integer >= 1, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=match):
            entry(bad)

    @pytest.mark.parametrize("site", WHOLE_SITES)
    def test_numpy_integer_kept_as_int(self, site):
        build, _, _, kept = WHOLE_SITES[site]
        value = kept(build(np.int64(2)))
        assert value == 2 and type(value) is int


def _scalar(values, *types):
    """One of ``values`` as a Python number or as one of the numpy ``types``."""
    return st.builds(lambda v, t: t(v), st.sampled_from(values), st.sampled_from(types))


_ints = (int, np.int64, np.int32)
_floats = (float, np.float64, np.float32)
_shapes = _scalar([0.5, 1.0, 2.0, 0.25, 3.0, 0.0, float("inf"), float("-inf"),
                   float("nan")], *_floats)


class TestJsonEcho:
    """``write_result_json`` echoes the spec as strict JSON, so the spec keeps
    its numbers as Python ints and finite Python floats and refuses the rest."""

    @pytest.mark.parametrize("build,kept", [
        (lambda: ErrorSpec("weibull", alpha=np.float32(2.0)), lambda e: e.alpha),
        (lambda: ErrorSpec("zero", alpha=np.float64(0.5)), lambda e: e.alpha),
        (lambda: BandwidthRule("fixed", h=np.float32(0.25)), lambda r: r.h),
        (lambda: BandwidthRule("balanced", alpha=np.float32(1.0), beta=np.float64(2.0)),
         lambda r: r.beta),
    ], ids=["weibull", "zero", "fixed", "balanced"])
    def test_numpy_float_kept_as_float(self, build, kept):
        assert type(kept(build())) is float

    @pytest.mark.parametrize("build,match", [
        (lambda: ErrorSpec("weibull", alpha=float("inf")),
         r"^error: weibull shape must be in \(0, inf\), got inf$"),
        (lambda: ErrorSpec("zero", alpha=np.float32("nan")),
         r"^error: zero shape must be in \(0, inf\), got nan$"),
        (lambda: BandwidthRule("balanced", alpha=float("inf"), beta=2.0),
         r"^bandwidth: balanced alpha must be in \(0, inf\), got inf$"),
        (lambda: BandwidthRule("balanced", alpha=1.0, beta=np.float64("-inf")),
         r"^bandwidth: balanced beta must be in \(0, inf\), got -inf$"),
        (lambda: BandwidthRule("fixed", h=np.float32("nan")),
         r"^bandwidth: fixed h must be in \(0, inf\), got nan$"),
    ], ids=["weibull-inf", "zero-nan", "balanced-alpha-inf", "balanced-beta-minus-inf",
            "fixed-nan"])
    def test_non_finite_float_refused_naming_the_key(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        q=_scalar([1, 2, 1, 0], *_ints),
        n_list=st.lists(_scalar([1, 4, 16, 64, 50, 0], *_ints), min_size=1, max_size=3),
        beta_star_list=st.lists(_scalar([0, 1, 3, 2, -1], *_ints), min_size=1, max_size=2),
        counts=st.tuples(_scalar([1, 3, 0], *_ints), _scalar([0, 7, 2**30], *_ints)),
        design=st.sampled_from(["random_uniform", "equidistant_grid"]),
        error=st.tuples(st.sampled_from(["exponential_unit", "weibull", "zero"]), _shapes),
        bandwidth=st.one_of(
            st.just({"kind": "simulation"}),
            st.fixed_dictionaries({"kind": st.just("fixed"), "h": _shapes}),
            st.fixed_dictionaries({"kind": st.just("balanced"), "alpha": _shapes,
                                   "beta": _shapes}),
        ),
        evaluation=st.sampled_from(["center", "grid"]),
        grid=st.one_of(_scalar([1, 3, 20, 0], *_ints), _scalar([2.0, 2.5], *_floats)),
    )
    def test_every_spec_that_constructs_is_strict_json(
            self, q, n_list, beta_star_list, counts, design, error, bandwidth, evaluation, grid):
        """Every ExperimentSpec that constructs, numpy scalars included, is
        echoed by ``write_result_json`` as strict JSON."""
        try:
            spec = ExperimentSpec(q=q, n_list=tuple(n_list), beta_star_list=tuple(beta_star_list),
                                  replications=counts[0], master_seed=counts[1], design=design,
                                  error=ErrorSpec(*error), bandwidth=BandwidthRule(**bandwidth),
                                  evaluation=evaluation, grid_points_per_axis=grid)
        except ValueError:
            return
        json.dumps(asdict(spec), allow_nan=False)


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
        spec = build_experiment_spec(parse_config(self.GOOD, "simulate"))
        assert spec.q == 2
        assert spec.n_list == (100, 400)
        assert spec.beta_star_list == (0, 1)
        assert spec.error == ErrorSpec("weibull", alpha=2.0)
        assert spec.bandwidth == BandwidthRule("balanced", alpha=1.0, beta=2.0)
        assert spec.evaluation == "grid"
        assert spec.grid_points_per_axis == 6

    def test_defaults(self):
        spec = build_experiment_spec(
            parse_config("q=1\nn=50\nbeta_star=1\nreplications=2\nseed=0", "simulate")
        )
        assert spec.design == "random_uniform"
        assert spec.error == ErrorSpec("exponential_unit")
        assert spec.bandwidth == BandwidthRule("simulation")
        assert spec.evaluation == "center"
        # a key the config leaves out keeps its dataclass field's default
        assert asdict(spec) == asdict(ExperimentSpec(q=1, n_list=(50,), beta_star_list=(1,),
                                                     replications=2, master_seed=0))
        assert build_adaptive_config({}) == AdaptiveConfig()

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
            parse_config(text, "simulate")

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
            ({"q": "0"}, "q must be an integer >= 1, got 0$"),
            ({"n": "50, 0"}, r"n_list \(n\) must be an integer >= 1, got 0$"),
            ({"beta_star": "1, -1"},
             r"beta_star_list \(beta_star\) must be an integer >= 0, got -1$"),
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
            build_experiment_spec(base)
            build_adaptive_config(base)
            config_int(base, "rate_grid", 33)

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            build_experiment_spec(parse_config("q = 2", "simulate"))

    @pytest.mark.parametrize("value", ["gridiron", "grids:4", "grid", "centre", "grid 4"])
    def test_evaluation_is_exactly_center_or_grid_n(self, value):
        with pytest.raises(ConfigError,
                           match=f"^evaluation: expected 'center' or 'grid:<N>', got '{value}'$"):
            build_experiment_spec({**REQUIRED, "evaluation": value})

    def test_readme_table_names_every_config_key(self):
        """The README's config-key table names exactly the keys some study
        command reads, each with the commands that read it, so a key and its
        doc row come together."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = readme.split("### Experiment config format", 1)[1].splitlines()
        rows = dropwhile(lambda line: not line.startswith("|"), lines)
        table = list(takewhile(lambda line: line.startswith("|"), rows))
        # past the header and the separator row, the first cell names the
        # key(s) and the second the commands that read them
        documented = {key: set(re.findall(r"`([^`]+)`", row.split("|")[2]))
                      for row in table[2:] for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
        read_by = harness._COMMAND_KEYS
        assert documented == {key: {command for command in read_by if key in read_by[command]}
                              for key in set().union(*read_by.values())}
        for key, commands in documented.items():
            for command in commands:
                assert parse_config(f"{key} = 1", command) == {key: "1"}

    def test_adaptive_config(self):
        cfg = build_adaptive_config(
            {"adaptive_s": "0.4", "adaptive_rho": "1.5", "adaptive_grid": "5"})
        assert cfg == AdaptiveConfig(grid_points_per_axis=5, s=0.4, rho=1.5)

    def test_adaptive_keys_set_exactly_the_config_fields(self):
        """Each AdaptiveConfig field has one adaptive_* key and no other
        default, so a config that leaves every key out is the dataclass's."""
        assert ({name for name, _ in harness._ADAPTIVE_KNOBS.values()}
                == {f.name for f in fields(AdaptiveConfig)})


class TestWorkers:
    """One rule, an integer >= 1, for every source of the worker count; a
    refusal names its source before any cell runs."""

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("LOCFRONT_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("LOCFRONT_WORKERS", "zero")
        with pytest.raises(ConfigError):
            default_workers()
        monkeypatch.delenv("LOCFRONT_WORKERS")
        assert default_workers() >= 1

    @pytest.mark.parametrize("raw", [3, "3", np.int64(3)], ids=["int", "text", "numpy-int"])
    def test_accepted_counts(self, raw):
        assert worker_count(raw, "workers") == 3

    @pytest.mark.parametrize("value", ["0", "-5", "2.5"])
    def test_env_refusal_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("LOCFRONT_WORKERS", value)
        with pytest.raises(ConfigError,
                           match=f"^LOCFRONT_WORKERS must be an integer >= 1, got '{value}'$"):
            default_workers()

    @pytest.mark.parametrize("workers", [0, -5, 2.5, "two"])
    @pytest.mark.parametrize("study", ["mse", "rate", "adaptive"])
    def test_run_argument_refused_before_any_cell(self, monkeypatch, study, workers):
        def no_cell(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "_make_dataset", no_cell)
        rate_spec = small_center_spec(q=1, n_list=(50, 100, 200, 400), beta_star_list=(1,),
                                      bandwidth=BandwidthRule("balanced", alpha=1.0, beta=2.0))
        adaptive_spec = small_center_spec(beta_star_list=(1,), bandwidth=BandwidthRule("adaptive"))
        run = {
            "mse": lambda: run_mse(small_center_spec(), workers=workers),
            "rate": lambda: run_rate_study(rate_spec, workers=workers),
            "adaptive": lambda: run_adaptive(adaptive_spec, AdaptiveConfig(grid_points_per_axis=1),
                                             workers=workers),
        }[study]
        match = f"^workers must be an integer >= 1, got {re.escape(repr(workers))}$"
        with pytest.raises(ConfigError, match=match):
            run()
