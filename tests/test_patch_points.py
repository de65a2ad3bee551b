"""The benchmark traces the package by patching module-level functions.

``benchmarks/run.py`` lists them in ``LAYER_NAMES``, counts window queries
through ``windows.contains_mask`` and fits through ``estimator.fit_at``. A fit
that solves an LP calls ``vandermonde``, ``objective_vector`` and
``clip_window`` once each, and a fit asked for degree 0 calls none of them; a
refactor that moves one of these names or changes how often it is called
fails here.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from locfront import estimator
from locfront.bandwidth import AdaptiveConfig, adaptive_bandwidth
from locfront.estimator import Dataset, EstimatorConfig, fit_at
from locfront.harness import BandwidthRule, ExperimentSpec, run_mse, run_rate_study

from oracles import count_calls

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


MASK_LIMIT = 10


@pytest.fixture
def mask_calls(monkeypatch):
    """Each window ``contains_mask`` is called for; a fit that queries more
    than ``MASK_LIMIT`` windows fails instead of looping on."""
    return count_calls(monkeypatch, "locfront.windows", "contains_mask", limit=MASK_LIMIT)


class TestOneMaskPerWindow:
    """One ``contains_mask`` call per window queried. A fit asked for degree 0
    solves no LP, so it builds no objective and never calls ``clip_window``."""

    DATA = Dataset(np.array([[0.5, 0.5], [0.9, 0.9]]), np.array([1.0, 2.0]))
    CFG = EstimatorConfig(beta_star=0, h=0.1, empty_window="expand")

    def test_window_with_data(self, monkeypatch, mask_calls):
        clips = count_calls(monkeypatch, "locfront.windows", "clip_window")
        fit = fit_at(self.DATA, np.array([0.5, 0.5]), self.CFG)
        assert fit.status == "exact"
        assert [call["h"] for call in mask_calls] == [0.1]
        assert clips == []

    def test_expanded_window(self, monkeypatch, mask_calls):
        clips = count_calls(monkeypatch, "locfront.windows", "clip_window")
        # the nearest point is 0.4 away in max-norm, so the window grows
        # 0.1 -> 0.15 -> 0.225 -> 0.3375 -> 0.50625: k = 4 expansions
        fit = fit_at(self.DATA, np.array([0.1, 0.1]), self.CFG)
        expected = [0.1]
        while expected[-1] < 0.4:
            expected.append(expected[-1] * 1.5)
        assert fit.status == "expanded"
        assert len(expected) == 5
        assert [call["h"] for call in mask_calls] == expected
        assert fit.effective_bandwidth == expected[-1]
        assert clips == []

    @pytest.mark.parametrize("point", [[float("nan"), 0.5], [1.2, 0.5], [-0.1, 0.5]],
                             ids=["nan", "above-1", "below-0"])
    def test_point_outside_the_cube_refused_before_any_window_query(self, mask_calls, point):
        # a NaN centre finds no data at any bandwidth, so an expanding fit
        # that checked it only after its window loop would never end
        message = rf"window center {re.escape(str(point))} outside the unit cube"
        with pytest.raises(ValueError, match=message):
            fit_at(self.DATA, np.array(point), self.CFG)
        assert mask_calls == []


@pytest.fixture
def fit_calls(monkeypatch):
    """Each ``estimator.fit_at`` call, the name the benchmark traces."""
    return count_calls(monkeypatch, "locfront.estimator", "fit_at")


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
        result = adaptive_bandwidth(data, 1, AdaptiveConfig(grid_points_per_axis=3))
        assert [call["cfg"].h for call in fit_calls] == [
            float(h) for h in result.bandwidths for _ in range(9)]


def test_only_the_estimator_calls_fit_at():
    callers = set()
    for path in sorted(Path(estimator.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name == "fit_at":
                    callers.add(path.name)
    assert callers == {"estimator.py"}


class TestOneCallPerLayerPerFit:
    """Every fit that solves an LP, one asked for degree >= 1, reaches the
    traced layers once each: one ``basis.vandermonde``, one
    ``windows.objective_vector`` and one ``windows.clip_window`` call, and one
    ``lp.solve`` per degree >= 1 tried, so a degree retry is one more solve
    and nothing else. Degree 0 is the window maximum: a fit asked for it
    reaches none of these layers, and a retry down to it solves no LP."""

    @pytest.fixture
    def layers(self, monkeypatch):
        return {name: count_calls(monkeypatch, module, name) for module, name in (
            ("locfront.estimator", "fit_at"), ("locfront.lp", "solve"),
            ("locfront.basis", "vandermonde"), ("locfront.windows", "objective_vector"),
            ("locfront.windows", "clip_window"))}

    def check(self, layers):
        fits = [(call["cfg"].beta_star, call["result"].effective_degree)
                for call in layers["fit_at"]]
        lp_fits = sum(asked >= 1 for asked, _ in fits)
        for name in ("vandermonde", "objective_vector", "clip_window"):
            assert len(layers[name]) == lp_fits
        assert len(layers["solve"]) == sum(asked - max(used, 1) + 1 for asked, used in fits)
        return fits

    def test_degree_retries(self, layers):
        # two points: degree 2 (six coefficients) is unbounded, degree 1 is not
        data = Dataset(np.array([[0.5, 0.5], [0.9, 0.9]]), np.array([1.0, 2.0]))
        estimator.fit_at(data, np.array([0.5, 0.5]), EstimatorConfig(beta_star=2, h=0.5))
        assert self.check(layers) == [(2, 1)]
        assert len(layers["solve"]) == 2

    def test_ladder(self, layers):
        rng = np.random.default_rng(4)
        points = rng.uniform(size=(150, 2))
        data = Dataset(points, points.sum(axis=1) - rng.exponential(size=150))
        adaptive_bandwidth(data, 2, AdaptiveConfig(grid_points_per_axis=3))
        fits = self.check(layers)
        # the ladder retried some degrees, some down to 0
        assert any(used < asked for asked, used in fits)
        assert any(used == 0 for _, used in fits)
