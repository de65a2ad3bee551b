import json

import numpy as np
import pytest

from locfront.cli import main
from locfront.estimator import EstimatorConfig, fit_at, save_dataset
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

    def test_bad_bandwidth_string(self, dataset_file, capsys):
        path, _ = dataset_file
        assert main(["fit", str(path), "--point", "0.5", "--bandwidth", "huge"]) == 2


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
