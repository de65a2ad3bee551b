"""The benchmark traces the package by patching module-level functions.

``benchmarks/run.py`` lists them in ``LAYER_NAMES``, counts window queries
through ``windows.contains_mask`` and fits through ``estimator.fit_at``; a
refactor that moves one of these names or changes how often it is called
fails here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from locfront import estimator, windows
from locfront.bandwidth import AdaptiveConfig, adaptive_bandwidth
from locfront.estimator import Dataset, EstimatorConfig, fit_at
from locfront.harness import BandwidthRule, ExperimentSpec, evaluation_grid, run_mse, run_rate_study

RUN = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


def layer_names():
    for node in ast.parse(RUN.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
        if targets == ["LAYER_NAMES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN} assigns no LAYER_NAMES")


@pytest.mark.parametrize("module,attr,span", layer_names())
def test_every_patched_name_is_a_module_function(module, attr, span):
    assert inspect.isfunction(getattr(importlib.import_module(module), attr))


@pytest.fixture
def mask_calls(monkeypatch):
    """Bandwidth of each window ``contains_mask`` is called for."""
    calls = []
    contains_mask = windows.contains_mask

    def counting(w, points):
        calls.append(w.bandwidth)
        return contains_mask(w, points)

    monkeypatch.setattr(windows, "contains_mask", counting)
    return calls


class TestOneMaskPerWindow:
    DATA = Dataset(np.array([[0.5, 0.5], [0.9, 0.9]]), np.array([1.0, 2.0]))
    CFG = EstimatorConfig(beta_star=0, h=0.1, empty_window="expand")

    def test_window_with_data(self, mask_calls):
        fit = fit_at(self.DATA, np.array([0.5, 0.5]), self.CFG)
        assert fit.status == "exact"
        assert mask_calls == [0.1]

    def test_expanded_window(self, mask_calls):
        # the nearest point is 0.4 away in max-norm, so the window grows
        # 0.1 -> 0.15 -> 0.225 -> 0.3375 -> 0.50625: k = 4 expansions
        fit = fit_at(self.DATA, np.array([0.1, 0.1]), self.CFG)
        expected = [0.1]
        while expected[-1] < 0.4:
            expected.append(expected[-1] * 1.5)
        assert fit.status == "expanded"
        assert len(expected) == 5
        assert mask_calls == expected
        assert fit.effective_bandwidth == expected[-1]


@pytest.fixture
def fit_calls(monkeypatch):
    """Bandwidth of each ``estimator.fit_at`` call, the name the benchmark traces."""
    calls = []

    def counting(data, x, cfg):
        calls.append(cfg.h)
        return fit_at(data, x, cfg)

    monkeypatch.setattr(estimator, "fit_at", counting)
    return calls


class TestOneFitPerGridPoint:
    """Every study fits its grids through ``estimator.fit_grid``, one
    ``estimator.fit_at`` call per point, so the benchmark's span sees every fit."""

    def test_mse_fits_every_point_of_every_replication(self, fit_calls):
        spec = ExperimentSpec(q=2, n_list=(100,), beta_star_list=(1,), replications=2,
                              master_seed=4, evaluation="grid", grid_points_per_axis=3)
        run_mse(spec, workers=1)
        assert len(fit_calls) == 9 * 2

    def test_rate_study_fits_every_point_of_every_replication(self, fit_calls):
        spec = ExperimentSpec(q=1, n_list=(40, 50, 60, 70), beta_star_list=(1,),
                              replications=2, master_seed=4,
                              bandwidth=BandwidthRule("balanced", alpha=1.0, beta=2.0))
        run_rate_study(spec, eval_grid_size=3, workers=1)
        assert len(fit_calls) == 3 * 2 * 4

    def test_ladder_fits_every_point_of_every_rung(self, fit_calls):
        rng = np.random.default_rng(4)
        points = rng.uniform(size=(150, 2))
        data = Dataset(points, points.sum(axis=1) - rng.exponential(size=150))
        result = adaptive_bandwidth(data, 1, AdaptiveConfig(grid=evaluation_grid(2, 3)))
        assert fit_calls == [float(h) for h in result.bandwidths for _ in range(9)]


def test_only_the_estimator_calls_fit_at():
    callers = set()
    for path in sorted(Path(estimator.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name == "fit_at":
                    callers.add(path.name)
    assert callers == {"estimator.py"}
