"""Workload inputs depend only on the seed, and BENCHMARK.json matches run.py."""

import json
import shutil
import subprocess
import sys

import pytest

import run
from conftest import BENCH
from workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(name, tmp_path):
    workload = WORKLOADS[name]

    def snapshot(seed):
        inputs = workload.make_inputs(seed, tmp_path)
        if workload.pooled:
            return inputs.read_text()
        data, lattice, cfg = inputs
        return data.points.tobytes() + data.responses.tobytes() + lattice.tobytes(), cfg

    assert snapshot(7) == snapshot(7)
    assert snapshot(7) != snapshot(8)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "adaptive_ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
