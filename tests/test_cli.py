import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import locfront
from locfront.cli import main
from locfront.estimator import Dataset, EstimatorConfig, fit_at, save_dataset
from locfront.harness import (
    build_experiment_spec,
    parse_config,
    run_mse,
)
from locfront.synthetic import DesignSpec, ErrorSpec, ModelSpec, gen_design, make_sample, sample_errors


@pytest.fixture
def dataset_file(tmp_path):
    rng = np.random.default_rng(31)
    pts = gen_design(DesignSpec("random_uniform", q=1, n=120), rng)
    ds = make_sample(pts, ModelSpec("sine_sum"), sample_errors(ErrorSpec("exponential_unit"), 120, rng))
    path = tmp_path / "data.csv"
    save_dataset(ds, path)
    return path, ds


SIM_CONFIG = """
q = 1
n = 64, 121
beta_star = 0, 1
replications = 4
seed = 5
design = random_uniform
error = exponential
model = sine_sum
bandwidth = simulation
evaluation = center
"""


class TestFitCommand:
    def test_single_point_matches_library(self, dataset_file, capsys):
        path, ds = dataset_file
        code = main(["fit", str(path), "--point", "0.5", "--beta-star", "1",
                     "--bandwidth", "0.2"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "x1,value,status,effective_degree,effective_bandwidth,n_active"
        fields = out[1].split(",")
        direct = fit_at(ds, [0.5], EstimatorConfig(beta_star=1, h=0.2))
        assert float(fields[1]) == direct.value
        assert fields[2] == direct.status

    def test_simulation_bandwidth_default(self, dataset_file, capsys):
        path, _ = dataset_file
        assert main(["fit", str(path), "--point", "0.5"]) == 0
        assert "exact" in capsys.readouterr().out

    def test_grid_output_file(self, dataset_file, tmp_path):
        path, _ = dataset_file
        out = tmp_path / "fits.csv"
        code = main(["fit", str(path), "--grid", "5", "--beta-star", "0",
                     "--bandwidth", "0.3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6

    def test_point_and_grid_conflict(self, dataset_file, capsys):
        path, _ = dataset_file
        code = main(["fit", str(path), "--point", "0.5", "--grid", "3"])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_grid_below_one_exits_2(self, dataset_file, tmp_path, capsys, grid):
        path, _ = dataset_file
        out = tmp_path / "fits.csv"
        code = main(["fit", str(path), "--grid", grid, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ConfigError"
        assert "--grid" in record["message"]
        assert f"got {grid}" in record["message"]

    def test_missing_point_and_grid(self, dataset_file, capsys):
        path, _ = dataset_file
        assert main(["fit", str(path)]) == 2

    def test_bad_dataset_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n2.0,1.0\n")
        code = main(["fit", str(bad), "--point", "0.5"])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "DatasetFormatError"
        assert "line 2" in record["message"]

    def test_non_finite_response_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n0.5,inf\n")
        out = tmp_path / "fits.csv"
        code = main(["fit", str(bad), "--point", "0.5", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "DatasetFormatError"
        assert "line 2" in record["message"]

    def test_failing_point_is_named_and_no_file_written(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        path = tmp_path / "data2.csv"
        save_dataset(Dataset(rng.uniform(size=(30, 2)), rng.uniform(size=30)), path)
        out = tmp_path / "fits.csv"
        code = main(["fit", str(path), "--point", "0.5,0.5", "--point", "0.5,1.5",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "grid point 1" in json.loads(capsys.readouterr().err)["message"]

    def test_bad_bandwidth_string(self, dataset_file, capsys):
        path, _ = dataset_file
        assert main(["fit", str(path), "--point", "0.5", "--bandwidth", "huge"]) == 2

    @pytest.mark.parametrize("bandwidth", ["2", "inf", "0", "-0.1"])
    def test_bandwidth_outside_unit_interval_exits_2(self, dataset_file, tmp_path, capsys,
                                                     bandwidth):
        path, _ = dataset_file
        out = tmp_path / "fits.csv"
        code = main(["fit", str(path), "--point", "0.5", "--bandwidth", bandwidth,
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith("--bandwidth ")
        assert repr(bandwidth) in record["message"]

    @pytest.mark.parametrize(
        "args,error",
        [(["--point", "0.5", "--bandwidth", "nan"], "ConfigError"),
         (["--point", "nan", "--bandwidth", "0.3"], "ValueError")],
        ids=["bandwidth", "point"],
    )
    def test_nan_bandwidth_or_point_exits_2(self, dataset_file, tmp_path, args, error):
        # a NaN that slips past validation loops forever in the empty-window
        # expansion, so run in a child process that a timeout can stop
        path, _ = dataset_file
        out = tmp_path / "fits.csv"
        src = str(Path(locfront.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "locfront.cli", "fit", str(path), *args, "--out", str(out)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2
        assert not out.exists()
        assert json.loads(proc.stderr)["error"] == error


class TestSimulateCommand:
    def test_end_to_end_matches_library(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SIM_CONFIG)
        out_csv = tmp_path / "results.csv"
        out_json = tmp_path / "results.json"
        code = main(["simulate", "--config", str(cfg_path), "--out-csv", str(out_csv),
                     "--out-json", str(out_json), "--workers", "1"])
        assert code == 0
        payload = json.loads(out_json.read_text())
        spec = build_experiment_spec(parse_config(SIM_CONFIG))
        table = run_mse(spec, workers=1)
        expected = {(row["beta_star"], row["n"]): row["mse"] for row in table.rows()}
        for row in payload["results"]:
            assert row["mse"] == expected[(row["beta_star"], row["n"])]
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "beta_star,n,mse,mc_stderr,n_exact,n_degraded,n_expanded"
        assert len(lines) == 5

    def test_bad_config_reports_json_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("q = 2\nwat = 9")
        code = main(["simulate", "--config", str(cfg_path), "--out-csv", "a", "--out-json", "b"])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "wat" in record["message"]

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out-csv", "a", "--out-json", "b"])
        assert code == 2

    def test_bad_sample_size_exits_2_before_any_fit(self, tmp_path, capsys, monkeypatch):
        import locfront.estimator as estimator

        def no_fit(*args):
            raise AssertionError("a cell was fitted")

        monkeypatch.setattr(estimator, "fit_at", no_fit)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SIM_CONFIG.replace("n = 64, 121", "n = 50, 0"))
        out_csv = tmp_path / "results.csv"
        code = main(["simulate", "--config", str(cfg_path), "--out-csv", str(out_csv),
                     "--out-json", str(tmp_path / "results.json"), "--workers", "1"])
        assert code == 2
        assert not out_csv.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "(n)" in record["message"]

    def test_off_lattice_sample_size_exits_2_before_any_fit(self, tmp_path, capsys, monkeypatch):
        import locfront.estimator as estimator

        def no_fit(*args):
            raise AssertionError("a cell was fitted")

        monkeypatch.setattr(estimator, "fit_at", no_fit)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            SIM_CONFIG.replace("q = 1", "q = 2").replace("n = 64, 121", "n = 100, 500")
            .replace("design = random_uniform", "design = equidistant_grid")
        )
        out_csv = tmp_path / "results.csv"
        code = main(["simulate", "--config", str(cfg_path), "--out-csv", str(out_csv),
                     "--out-json", str(tmp_path / "results.json"), "--workers", "1"])
        assert code == 2
        assert not out_csv.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "n_list (n)" in record["message"] and "500" in record["message"]

    def test_adaptive_rule_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SIM_CONFIG.replace("bandwidth = simulation", "bandwidth = adaptive"))
        assert main(["simulate", "--config", str(cfg_path), "--out-csv", "a",
                     "--out-json", "b"]) == 2


RATE_CONFIG = """
q = 1
n = 60, 120, 240, 480
beta_star = 1
replications = 3
seed = 11
model = cubic_1d
bandwidth = balanced:1,2
rate_grid = 7
"""


class TestRateStudyCommand:
    def test_writes_json(self, tmp_path):
        cfg_path = tmp_path / "rate.cfg"
        cfg_path.write_text(RATE_CONFIG)
        out_json = tmp_path / "rate.json"
        code = main(["rate-study", "--config", str(cfg_path), "--out-json", str(out_json),
                     "--workers", "1"])
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["expected_slope"] == pytest.approx(-2 / 3)
        assert len(payload["median_sup_errors"]) == 4
        assert payload["n_list"] == [60, 120, 240, 480]

    @pytest.mark.parametrize(
        "rate_grid,error,match",
        [("0", "ValueError", "eval_grid_size"), ("x", "ConfigError", "rate_grid")],
    )
    def test_bad_rate_grid_exits_2(self, tmp_path, capsys, rate_grid, error, match):
        cfg_path = tmp_path / "rate.cfg"
        cfg_path.write_text(RATE_CONFIG.replace("rate_grid = 7", f"rate_grid = {rate_grid}"))
        out_json = tmp_path / "rate.json"
        code = main(["rate-study", "--config", str(cfg_path), "--out-json", str(out_json),
                     "--workers", "1"])
        assert code == 2
        assert not out_json.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == error
        assert match in record["message"]

    def test_zero_median_exits_2_without_a_file(self, tmp_path, capsys, monkeypatch):
        # noiseless cubic data fitted at degree 3 gives medians of 0 or of
        # rounding noise, and the zero law has no tail index for a theory
        # slope: the study refuses it before any cell is fitted
        import locfront.estimator as estimator

        def no_fit(*args):
            raise AssertionError("a cell was fitted")

        monkeypatch.setattr(estimator, "fit_at", no_fit)
        cfg_path = tmp_path / "rate.cfg"
        cfg_path.write_text(
            RATE_CONFIG.replace("beta_star = 1", "beta_star = 3\nerror = zero")
            .replace("rate_grid = 7", "rate_grid = 3")
        )
        out_json = tmp_path / "rate.json"
        code = main(["rate-study", "--config", str(cfg_path), "--out-json", str(out_json),
                     "--workers", "1"])
        assert code == 2
        assert not out_json.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValueError"
        assert record["message"].startswith("error: ")

    def test_nan_balanced_parameter_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "rate.cfg"
        cfg_path.write_text(RATE_CONFIG.replace("balanced:1,2", "balanced:nan,2"))
        out_json = tmp_path / "rate.json"
        code = main(["rate-study", "--config", str(cfg_path), "--out-json", str(out_json),
                     "--workers", "1"])
        assert code == 2
        assert not out_json.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


ADAPTIVE_CONFIG = """
q = 1
n = 120
beta_star = 1
replications = 2
seed = 21
bandwidth = adaptive
adaptive_s = 0.5
adaptive_rho = 1.3
adaptive_grid = 7
"""


class TestAdaptiveCommand:
    def test_writes_selections_and_diagnostics(self, tmp_path):
        cfg_path = tmp_path / "adapt.cfg"
        cfg_path.write_text(ADAPTIVE_CONFIG)
        out_csv = tmp_path / "selections.csv"
        diag_dir = tmp_path / "diag"
        code = main(["adaptive", "--config", str(cfg_path), "--out-csv", str(out_csv),
                     "--diagnostics-dir", str(diag_dir), "--workers", "1"])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 replications
        diag_files = sorted(p.name for p in diag_dir.iterdir())
        assert diag_files == ["ladder_n120_r0.csv", "ladder_n120_r1.csv"]
        first = (diag_dir / diag_files[0]).read_text().splitlines()
        assert first[0] == "k,h_k,zeta_k,max_delta_next"

    @pytest.mark.parametrize(
        "line", ["adaptive_constant = nan", "adaptive_rho = nan"]
    )
    def test_nan_ladder_parameter_exits_2(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "adapt.cfg"
        cfg_path.write_text(ADAPTIVE_CONFIG.replace("adaptive_rho = 1.3", line))
        out_csv = tmp_path / "selections.csv"
        code = main(["adaptive", "--config", str(cfg_path), "--out-csv", str(out_csv),
                     "--workers", "1"])
        assert code == 2
        assert not out_csv.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_fixed_rule_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "adapt.cfg"
        cfg_path.write_text(ADAPTIVE_CONFIG.replace(
            "bandwidth = adaptive", "bandwidth = fixed:0.3\nfallback = error"))
        out_csv = tmp_path / "selections.csv"
        code = main(["adaptive", "--config", str(cfg_path), "--out-csv", str(out_csv),
                     "--workers", "1"])
        assert code == 2
        assert not out_csv.exists()
        assert json.loads(capsys.readouterr().err)["message"].startswith("bandwidth: ")

    @pytest.mark.parametrize(
        "order,error", [("0", "ConfigError"), ("500", "ValueError")]
    )
    def test_unusable_hill_order_exits_2_before_any_rung(
        self, tmp_path, capsys, monkeypatch, order, error
    ):
        # 0 fails at config parse; 500 exceeds the pilot's negative residuals
        # (n = 120) and fails at the pilot, which runs before the ladder
        import locfront.estimator as estimator

        def no_fit(*args):
            raise AssertionError("a rung was fitted")

        monkeypatch.setattr(estimator, "fit_at", no_fit)
        cfg_path = tmp_path / "adapt.cfg"
        cfg_path.write_text(ADAPTIVE_CONFIG + f"adaptive_hill_order = {order}\n")
        out_csv = tmp_path / "selections.csv"
        code = main(["adaptive", "--config", str(cfg_path), "--out-csv", str(out_csv),
                     "--workers", "1"])
        assert code == 2
        assert not out_csv.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == error
        assert "adaptive_hill_order" in record["message"]
