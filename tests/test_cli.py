import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import locfront
from locfront import harness
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


def study_argv(command, cfg_path, out):
    """The argv of a study command on a config file, every output at ``out``."""
    outs = {"simulate": ["--out-csv", out, "--out-json", out],
            "rate-study": ["--out-json", out], "adaptive": ["--out-csv", out]}[command]
    return [command, "--config", str(cfg_path), *outs]


@pytest.fixture
def refuse(tmp_path, monkeypatch, capsys):
    """Run a study command on a config text, with every cell forbidden; it
    must exit 2 and leave no file beside the config. Returns the stderr record."""
    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(harness, "_make_dataset", no_cell)

    def run(command, config, *flags):
        cfg_path = tmp_path / "study.cfg"
        cfg_path.write_text(config)
        assert main([*study_argv(command, cfg_path, str(tmp_path / "out")), *flags]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["study.cfg"]
        return json.loads(capsys.readouterr().err)

    return run


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

    @pytest.mark.parametrize(
        "points",
        [["0.5", "0.25,0.5"], ["0.5,0.5", "0.5"], ["0.5", "x"], ["0.5,abc"]],
        ids=["mixed-lengths", "long-first", "non-numeric", "non-numeric-part"],
    )
    def test_bad_point_exits_2_naming_the_flag(self, dataset_file, tmp_path, capsys, points):
        path, _ = dataset_file
        out = tmp_path / "fits.csv"
        flags = [arg for point in points for arg in ("--point", point)]
        assert main(["fit", str(path), *flags, "--out", str(out)]) == 2
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith("--point expects 1 comma-separated numbers, got ")

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


def test_fit_runs_with_numpy_alone(tmp_path):
    """scipy and hypothesis are test-only: ``locfront fit`` runs in a child
    process where importing either fails."""
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,y\n0.1,0.2,1.0\n0.8,0.3,0.5\n0.4,0.9,0.7\n0.6,0.6,0.9\n")
    src = str(Path(locfront.__file__).resolve().parents[1])
    code = ("import sys; sys.modules['scipy'] = None; sys.modules['hypothesis'] = None; "
            "import locfront.cli; sys.exit(locfront.cli.main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, "fit", str(path), "--grid", "3"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 1 + 3 * 3


class TestArgumentErrors:
    """argparse's errors end in the JSON error record and exit 2, as every
    other failure does; ``--help`` still exits 0."""

    @pytest.mark.parametrize(
        "args,flag",
        [(["fit", "{data}", "--point", "0.5", "--fallback", "bogus"], "--fallback"),
         (["fit", "{data}", "--grid", "x"], "--grid"),
         (["fit", "{data}", "--point", "0.5", "--beta-star", "1.5"], "--beta-star"),
         (["simulate", "--out-csv", "a.csv", "--out-json", "a.json"], "--config"),
         (["rate-study", "--config", "c.cfg", "--out-json", "a.json", "--workers", "two"],
          "--workers"),
         (["adaptive", "--out-csv", "a.csv"], "--config"),
         ([], "command"),
         (["bogus"], "command")],
        ids=["choice", "int", "beta-star-int", "required", "workers", "required-adaptive",
             "no-command", "unknown-command"],
    )
    def test_exit_2_with_a_record_naming_the_flag(self, dataset_file, capsys, args, flag):
        path, _ = dataset_file
        assert main([arg.format(data=path) for arg in args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ConfigError"
        assert flag in record["message"]

    @pytest.mark.parametrize("args", [["--help"], ["fit", "--help"], ["adaptive", "-h"]])
    def test_help_exits_0(self, capsys, args):
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 0
        assert "usage: locfront" in capsys.readouterr().out

    @pytest.mark.parametrize("bandwidth", [[], ["--bandwidth", "0.5"]], ids=["simulation", "fixed"])
    def test_negative_beta_star_is_named(self, dataset_file, tmp_path, capsys, bandwidth):
        path, _ = dataset_file
        out = tmp_path / "fits.csv"
        code = main(["fit", str(path), "--point", "0.5", "--beta-star", "-1", *bandwidth,
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "ConfigError", "message": "--beta-star must be >= 0, got -1"}


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
        spec = build_experiment_spec(parse_config(SIM_CONFIG, "simulate"))
        table = run_mse(spec, workers=1)
        expected = {(row["beta_star"], row["n"]): row["mse"] for row in table.rows()}
        for row in payload["results"]:
            assert row["mse"] == expected[(row["beta_star"], row["n"])]
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "beta_star,n,mse,mc_stderr,n_exact,n_degraded,n_expanded"
        assert len(lines) == 5

    def test_bad_config_reports_json_error(self, refuse):
        record = refuse("simulate", "q = 2\nwat = 9")
        assert record["error"] == "ConfigError"
        assert "wat" in record["message"]

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out-csv", "a", "--out-json", "b"])
        assert code == 2

    def test_bad_sample_size_exits_2_before_any_fit(self, refuse):
        record = refuse("simulate", SIM_CONFIG.replace("n = 64, 121", "n = 50, 0"),
                        "--workers", "1")
        assert record["error"] == "ConfigError"
        assert "(n)" in record["message"]

    def test_off_lattice_sample_size_exits_2_before_any_fit(self, refuse):
        record = refuse("simulate", SIM_CONFIG.replace("q = 1", "q = 2")
                        .replace("n = 64, 121", "n = 100, 500")
                        .replace("design = random_uniform", "design = equidistant_grid"),
                        "--workers", "1")
        assert record["error"] == "ConfigError"
        assert "n_list (n)" in record["message"] and "500" in record["message"]

    @pytest.mark.parametrize("old,new,key", [
        ("error = exponential", "error = weibull:inf", "error"),
        ("bandwidth = simulation", "bandwidth = balanced:inf,2", "bandwidth"),
    ], ids=["weibull-inf", "balanced-inf"])
    def test_non_finite_parameter_exits_2_before_any_fit(self, refuse, old, new, key):
        # the JSON echo cannot hold inf, so the spec refuses it before any cell
        record = refuse("simulate", SIM_CONFIG.replace(old, new), "--workers", "1")
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"{key}: ") and "inf" in record["message"]

    def test_adaptive_rule_rejected(self, refuse):
        refuse("simulate", SIM_CONFIG.replace("bandwidth = simulation", "bandwidth = adaptive"))


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
        "config_line,flags,size",
        [("", [], None), ("", ["--eval-grid", "5"], 5), ("rate_grid = 7", ["--eval-grid", "5"], 7)],
        ids=["study-default", "flag", "config-over-flag"],
    )
    def test_grid_size_source(self, tmp_path, config_line, flags, size):
        # with neither rate_grid nor --eval-grid, run_rate_study's default holds
        text = RATE_CONFIG.replace("rate_grid = 7", config_line)
        cfg_path = tmp_path / "rate.cfg"
        cfg_path.write_text(text)
        out_json = tmp_path / "rate.json"
        assert main(["rate-study", "--config", str(cfg_path), "--out-json", str(out_json),
                     "--workers", "1", *flags]) == 0
        spec = build_experiment_spec(parse_config(text, "rate-study"))
        sizes = {} if size is None else {"eval_grid_size": size}
        expected = harness.run_rate_study(spec, workers=1, **sizes)
        assert json.loads(out_json.read_text())["median_sup_errors"] == list(
            expected.median_sup_errors)

    @pytest.mark.parametrize(
        "rate_grid,error,match",
        [("0", "ConfigError", "rate_grid"), ("x", "ConfigError", "rate_grid")],
    )
    def test_bad_rate_grid_exits_2(self, refuse, rate_grid, error, match):
        record = refuse("rate-study", RATE_CONFIG.replace("rate_grid = 7",
                                                          f"rate_grid = {rate_grid}"),
                        "--workers", "1")
        assert record["error"] == error
        assert match in record["message"]

    @pytest.mark.parametrize(
        "config_line,eval_grid,source",
        [("", "0", "--eval-grid"), ("", "-3", "--eval-grid"), ("rate_grid = 0", "5", "rate_grid")],
        ids=["flag-0", "flag-negative", "config-over-flag"],
    )
    def test_grid_size_below_1_names_its_source(self, refuse, config_line, eval_grid, source):
        # refused by the command before any cell, naming the flag or the key
        # that set the size; rate_grid overrides --eval-grid
        record = refuse("rate-study", RATE_CONFIG.replace("rate_grid = 7", config_line),
                        "--workers", "1", "--eval-grid", eval_grid)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"{source}: ")

    def test_zero_median_exits_2_without_a_file(self, refuse):
        # noiseless cubic data fitted at degree 3 gives medians of 0 or of
        # rounding noise, and the zero law has no tail index for a theory
        # slope: the study refuses it before any cell is fitted
        record = refuse("rate-study", RATE_CONFIG.replace("beta_star = 1",
                                                          "beta_star = 3\nerror = zero")
                        .replace("rate_grid = 7", "rate_grid = 3"), "--workers", "1")
        assert record["error"] == "ValueError"
        assert record["message"].startswith("error: ")

    def test_infinite_balanced_parameter_exits_2_before_any_fit(self, refuse):
        record = refuse("rate-study", RATE_CONFIG.replace("balanced:1,2", "balanced:inf,2"),
                        "--workers", "1")
        assert record["error"] == "ConfigError"
        assert record["message"] == "bandwidth: balanced alpha must be in (0, inf), got inf"

    def test_nan_balanced_parameter_exits_2(self, refuse):
        record = refuse("rate-study", RATE_CONFIG.replace("balanced:1,2", "balanced:nan,2"),
                        "--workers", "1")
        assert record["error"] == "ConfigError"


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
    def test_nan_ladder_parameter_exits_2(self, refuse, line):
        record = refuse("adaptive", ADAPTIVE_CONFIG.replace("adaptive_rho = 1.3", line),
                        "--workers", "1")
        assert record["error"] == "ConfigError"

    @pytest.mark.parametrize("line,key", [("adaptive_rho = inf", "adaptive_rho"),
                                          ("adaptive_constant = inf", "adaptive_constant")])
    def test_infinite_ladder_parameter_exits_2_before_any_cell(self, refuse, line, key):
        # an infinite rho gives a two-rung ladder, an infinite constant
        # thresholds that never fire; both are refused before the first cell
        record = refuse("adaptive", ADAPTIVE_CONFIG.replace("adaptive_rho = 1.3", line),
                        "--workers", "1")
        assert record["error"] == "ConfigError"
        assert f"({key})" in record["message"] and record["message"].endswith("got inf")

    @pytest.mark.parametrize("value,message", [
        ("x", "adaptive_grid: expected an integer, got 'x'"),
        ("0", "grid_points_per_axis (adaptive_grid) must be an integer >= 1, got 0")])
    def test_bad_adaptive_grid_exits_2_naming_the_key(self, refuse, value, message):
        record = refuse("adaptive", ADAPTIVE_CONFIG.replace("adaptive_grid = 7",
                                                            f"adaptive_grid = {value}"))
        assert record == {"error": "ConfigError", "message": message}

    def test_fixed_rule_exits_2(self, refuse):
        record = refuse("adaptive", ADAPTIVE_CONFIG.replace(
            "bandwidth = adaptive", "bandwidth = fixed:0.3\nfallback = error"), "--workers", "1")
        assert record["message"].startswith("bandwidth: ")

    @pytest.mark.parametrize(
        "order,error", [("0", "ConfigError"), ("500", "ValueError")]
    )
    def test_unusable_hill_order_exits_2_before_any_rung(self, refuse, order, error):
        # 0 fails at config parse; 500 needs more pilot residuals than n = 120
        # has and fails before the first cell
        record = refuse("adaptive", ADAPTIVE_CONFIG + f"adaptive_hill_order = {order}\n",
                        "--workers", "1")
        assert record["error"] == error
        assert "adaptive_hill_order" in record["message"]

    def test_hill_order_above_a_small_n_exits_2_before_any_ladder(self, refuse):
        # order 40 suits n = 400 but reads 41 residuals, more than n = 30 has
        record = refuse("adaptive", "q = 2\nn = 400, 30\nbeta_star = 1\nreplications = 3\n"
                        "seed = 5\nbandwidth = adaptive\nadaptive_grid = 3\n"
                        "adaptive_hill_order = 40\n", "--workers", "1")
        assert record == {"error": "ValueError", "message": (
            "hill_order (adaptive_hill_order) 40: needs 41 pilot residuals, more than n = 30")}


CONFIGS = {"simulate": SIM_CONFIG, "rate-study": RATE_CONFIG, "adaptive": ADAPTIVE_CONFIG}


class TestWorkerCount:
    """--workers and LOCFRONT_WORKERS pass the one worker rule, an integer
    >= 1; a refusal exits 2 naming its source before any cell runs."""

    @pytest.mark.parametrize("command", ["simulate", "rate-study", "adaptive"])
    @pytest.mark.parametrize("value", ["0", "-5", "1.5", "two"])
    def test_bad_flag(self, refuse, monkeypatch, command, value):
        monkeypatch.delenv("LOCFRONT_WORKERS", raising=False)
        assert refuse(command, CONFIGS[command], "--workers", value) == {
            "error": "ConfigError", "message": f"--workers must be an integer >= 1, got '{value}'"}

    @pytest.mark.parametrize("command", ["simulate", "rate-study", "adaptive"])
    @pytest.mark.parametrize("value", ["0", "-5", "two"])
    def test_bad_environment(self, refuse, monkeypatch, command, value):
        monkeypatch.setenv("LOCFRONT_WORKERS", value)
        assert refuse(command, CONFIGS[command]) == {
            "error": "ConfigError",
            "message": f"LOCFRONT_WORKERS must be an integer >= 1, got '{value}'"}

    def test_flag_overrides_a_bad_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOCFRONT_WORKERS", "0")
        cfg_path = tmp_path / "rate.cfg"
        cfg_path.write_text(RATE_CONFIG)
        out = tmp_path / "rate.json"
        assert main(["rate-study", "--config", str(cfg_path), "--out-json", str(out),
                     "--workers", "1"]) == 0


# a valid value for every config key
KEY_VALUES = {"q": "1", "n": "50", "beta_star": "1", "replications": "2", "seed": "0",
              "design": "random_uniform", "error": "exponential", "model": "sine_sum",
              "bandwidth": "simulation", "fallback": "degrade_degree", "empty_window": "expand",
              "evaluation": "grid:3", "rate_grid": "5", "adaptive_s": "0.5",
              "adaptive_rho": "1.3", "adaptive_constant": "1.0", "adaptive_hill_order": "10",
              "adaptive_grid": "3"}
ADAPTIVE_KEYS = ("adaptive_s", "adaptive_rho", "adaptive_constant", "adaptive_hill_order",
                 "adaptive_grid")


class TestConfigKeys:
    """A study command accepts exactly the config keys it reads: any other
    key exits 2 before any cell, naming its line, the key, the commands that
    read it and the command that does not."""

    @pytest.mark.parametrize("command,key,readers", [
        *(("simulate", key, "adaptive") for key in ADAPTIVE_KEYS),
        ("simulate", "rate_grid", "rate-study"),
        *(("rate-study", key, "adaptive") for key in ADAPTIVE_KEYS),
        ("rate-study", "evaluation", "simulate"),
        ("adaptive", "evaluation", "simulate"),
        ("adaptive", "rate_grid", "rate-study"),
    ])
    def test_key_another_command_reads_exits_2(self, refuse, command, key, readers):
        text = CONFIGS[command] + f"{key} = {KEY_VALUES[key]}\n"
        assert refuse(command, text, "--workers", "1") == {
            "error": "ConfigError",
            "message": f"line {len(text.splitlines())}: key {key!r} is read by {readers}, "
                       f"not {command}"}

    @pytest.mark.parametrize("command", ["simulate", "rate-study", "adaptive"])
    def test_every_accepted_key_is_read(self, tmp_path, monkeypatch, command):
        """A config that sets every key its command accepts has each value
        read by the command's builders before the study runs."""
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        class StudyRan(Exception):
            pass

        def study(*args, **kwargs):
            raise StudyRan

        parse = harness.parse_config
        monkeypatch.setattr(harness, "parse_config", lambda *args: Recording(parse(*args)))
        for name in ("run_mse", "run_rate_study", "run_adaptive"):
            monkeypatch.setattr(harness, name, study)
        accepted = harness._COMMAND_KEYS[command]
        cfg_path = tmp_path / "study.cfg"
        cfg_path.write_text("".join(f"{key} = {KEY_VALUES[key]}\n" for key in sorted(accepted)))
        with pytest.raises(StudyRan):
            main([*study_argv(command, cfg_path, str(tmp_path / "out")), "--workers", "1"])
        assert read == accepted
        assert len(accepted) == {"simulate": 12, "rate-study": 12, "adaptive": 16}[command]

    @pytest.mark.parametrize("command,old,new,message", [
        ("simulate", "n = 64, 121", "n = 100, 100", "n_list (n) entries must be distinct, got 100"),
        ("simulate", "beta_star = 0, 1", "beta_star = 1, 1",
         "beta_star_list (beta_star) entries must be distinct, got 1"),
        ("rate-study", "n = 60, 120, 240, 480", "n = 60, 60, 120, 240",
         "n_list (n) entries must be distinct, got 60"),
        ("adaptive", "n = 120", "n = 200, 200", "n_list (n) entries must be distinct, got 200"),
    ], ids=["simulate-n", "simulate-beta-star", "rate-study-n", "adaptive-n"])
    def test_repeated_entry_exits_2(self, refuse, command, old, new, message):
        record = refuse(command, CONFIGS[command].replace(old, new), "--workers", "1")
        assert record == {"error": "ConfigError", "message": f"{message} more than once"}
