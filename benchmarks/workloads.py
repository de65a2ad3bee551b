"""The two workloads: inputs made from a seed, and one batch of work each.

A batch goes through the public surface: the ``adaptive`` CLI command called
in-process, or ``fit_at`` over a lattice. Every callee is
looked up through its module at call time, so patches made by the tracer
apply. The package is imported lazily because the benchmark first checks
that the checkout holds it.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Default s and rho give 17 rungs at n=1000; a 3x3 comparison grid replaces
# the default 25 points per axis, which would take minutes per replication.
# Four replications, two per worker, give 612 fits per batch, so the tail is
# set by the slow fits of four datasets rather than two.
ADAPTIVE_REPLICATIONS = 4
ADAPTIVE_LADDER_CONFIG = f"""\
q = 2
n = 1000
beta_star = 2
replications = {ADAPTIVE_REPLICATIONS}
seed = {{seed}}
design = random_uniform
error = exponential
model = sine_sum
bandwidth = adaptive
adaptive_grid = 3
"""

GRID_N = 100_000
GRID_H = 0.01
GRID_BETA_STAR = 1
GRID_POINTS_PER_AXIS = 12


@dataclass
class Batch:
    """Whether one batch succeeded, its replication count and its outputs.

    ``outputs`` maps an output file name to its bytes, or holds the fitted
    values for the lattice workload; batches of one input must agree exactly.
    """

    ok: bool
    reps: int
    outputs: dict
    error: str = ""


class CliWorkload:
    """A Monte Carlo workload run as one ``locfront adaptive`` command."""

    pooled = True

    def __init__(self, name: str, why: str, template: str, reps: int):
        self.name = name
        self.why = why
        self.template = template
        self.reps = reps

    def make_inputs(self, seed: int, workdir: Path) -> Path:
        path = workdir / f"{self.name}.cfg"
        path.write_text(self.template.format(seed=seed))
        return path

    def warm_up(self, config: Path) -> None:
        import locfront

        data = locfront.Dataset(np.full((1, 2), 0.5), np.zeros(1))
        locfront.fit_at(data, [0.5, 0.5], locfront.EstimatorConfig(0, 0.5))

    def run(self, config: Path, workers: int, outdir: Path) -> Batch:
        from locfront import cli

        if outdir.exists():
            shutil.rmtree(outdir)
        outdir.mkdir(parents=True)
        argv = ["adaptive", "--config", str(config),
                "--out-csv", str(outdir / "selections.csv"),
                "--diagnostics-dir", str(outdir / "ladder")]
        console, errors = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(errors):
            code = cli.main(argv + ["--workers", str(workers)])
        outputs = {
            str(p.relative_to(outdir)): p.read_bytes()
            for p in sorted(outdir.rglob("*")) if p.is_file()
        }
        return Batch(code == 0, self.reps, outputs, errors.getvalue().strip())


class GridWorkload:
    """One large dataset fitted point by point over a lattice, in-process."""

    pooled = False

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why

    def make_inputs(self, seed: int, workdir: Path):
        import locfront

        rng = np.random.default_rng([seed, GRID_N])
        x = rng.uniform(0.0, 1.0, size=(GRID_N, 2))
        s = x.sum(axis=1)
        y = 0.5 * np.sin(2.0 * np.pi * s) + 4.0 * s - rng.exponential(1.0, GRID_N)
        data = locfront.Dataset(x, y)
        cfg = locfront.EstimatorConfig(
            beta_star=GRID_BETA_STAR, h=GRID_H, empty_window="expand"
        )
        axis = np.linspace(0.0, 1.0, GRID_POINTS_PER_AXIS)
        lattice = np.array([(a, b) for b in axis for a in axis])
        return data, lattice, cfg

    def warm_up(self, inputs) -> None:
        import locfront

        data, lattice, cfg = inputs
        locfront.fit_at(data, lattice[len(lattice) // 2], cfg)

    def run(self, inputs, workers: int, outdir: Path) -> Batch:
        import locfront

        data, lattice, cfg = inputs
        values, statuses = [], []
        try:
            for point in lattice:
                fit = locfront.fit_at(data, point, cfg)
                values.append(fit.value)
                statuses.append((fit.status, fit.n_active))
        except (ValueError, RuntimeError) as err:
            return Batch(False, 1, {}, f"{type(err).__name__}: {err}")
        outputs = {"values": np.array(values).tobytes(), "statuses": repr(statuses)}
        return Batch(True, 1, outputs)


WORKLOADS = {
    w.name: w
    for w in (
        GridWorkload(
            "grid_large_n",
            "one n=1e5 dataset fitted at a 12x12 lattice with h=0.01: the O(n) "
            "window scan dominates and lp is small, so a window index shows "
            "and a new LP solver should not",
        ),
        CliWorkload(
            "adaptive_ladder",
            "ladder selection at n=1000, beta*=2, 4 replications on 2 workers: "
            "17 nested rungs each, LPs of 1 to 1000 rows with degree retries; "
            "lp dominates, and only it runs bandwidth",
            ADAPTIVE_LADDER_CONFIG,
            reps=ADAPTIVE_REPLICATIONS,
        ),
    )
}
