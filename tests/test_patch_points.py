"""The benchmark traces the package by patching module-level functions.

``benchmarks/run.py`` lists them in ``LAYER_NAMES`` and counts window
queries through ``windows.contains_mask``; a refactor that moves one of these
names or changes how often a fit calls it fails here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from locfront import windows
from locfront.estimator import Dataset, EstimatorConfig, fit_at

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
