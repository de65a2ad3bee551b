"""Command-line front end.

Subcommands
-----------
fit        Fit the frontier at points or a lattice from a dataset CSV.
simulate   Run a Monte Carlo experiment from a config file (CSV + JSON out).
rate-study Empirical convergence-rate study under the balanced bandwidth.
adaptive   Ladder bandwidth selection per replication, with diagnostics.

All failures exit nonzero after printing a one-line JSON error record to
stderr. Worker-process count comes from --workers or LOCFRONT_WORKERS.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import estimator, harness
from .estimator import DatasetFormatError, EstimatorConfig, fit_grid, load_dataset
from .harness import ConfigError


def _read_config(path: str) -> dict[str, str]:
    with open(path) as fh:
        return harness.parse_config(fh.read())


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: LOCFRONT_WORKERS or all cores)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locfront",
        description="Local polynomial frontier estimation and its Monte Carlo harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit the frontier at points from a dataset CSV")
    fit.add_argument("dataset", help="CSV file with header x1,...,xq,y")
    fit.add_argument(
        "--point",
        action="append",
        default=[],
        metavar="X1,...,XQ",
        help="evaluation point (repeatable)",
    )
    fit.add_argument(
        "--grid",
        type=int,
        default=None,
        metavar="N",
        help="evaluate on an N-per-axis lattice over [0,1]^q instead of --point",
    )
    fit.add_argument("--beta-star", type=int, default=1, help="polynomial total degree")
    fit.add_argument(
        "--bandwidth",
        default="simulation",
        help="'simulation' or a number in (0, 1] (default: simulation rule)",
    )
    fit.add_argument(
        "--fallback",
        choices=estimator._FALLBACKS,
        default="degrade_degree",
        help="policy when the local LP is unbounded",
    )
    fit.add_argument(
        "--empty-window",
        choices=estimator._EMPTY_POLICIES,
        default="expand",
        help="policy when the window holds no data",
    )
    fit.add_argument("--out", default=None, help="write results CSV here instead of stdout")

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    sim.add_argument("--config", required=True, help="experiment config file")
    sim.add_argument("--out-csv", required=True, help="result table CSV path")
    sim.add_argument("--out-json", required=True, help="JSON summary path")
    _add_workers_flag(sim)

    rate = sub.add_parser("rate-study", help="convergence-rate study")
    rate.add_argument("--config", required=True)
    rate.add_argument("--out-json", required=True)
    rate.add_argument(
        "--eval-grid", type=int, default=33, help="sup-error grid points per axis"
    )
    _add_workers_flag(rate)

    adapt = sub.add_parser("adaptive", help="ladder bandwidth selection runs")
    adapt.add_argument("--config", required=True)
    adapt.add_argument("--out-csv", required=True, help="per-replication selections CSV")
    adapt.add_argument(
        "--diagnostics-dir",
        default=None,
        help="write one ladder diagnostics CSV per replication here",
    )
    _add_workers_flag(adapt)

    return parser


def _cmd_fit(args) -> int:
    data = load_dataset(args.dataset)
    try:
        rule = (harness.BandwidthRule("simulation") if args.bandwidth == "simulation"
                else harness.BandwidthRule("fixed", h=float(args.bandwidth)))
    except ValueError:
        raise ConfigError(
            f"--bandwidth must be 'simulation' or a number in (0, 1], got {args.bandwidth!r}"
        ) from None
    cfg = EstimatorConfig(
        beta_star=args.beta_star,
        h=harness.resolve_bandwidth(rule, data.n, data.q, args.beta_star),
        fallback=args.fallback,
        empty_window=args.empty_window,
    )
    if args.grid is not None and args.point:
        raise ConfigError("give either --point(s) or --grid, not both")
    if args.grid is not None:
        try:
            points = harness.evaluation_grid(data.q, args.grid)
        except ValueError as err:
            raise ConfigError(f"--grid: {err}") from None
    elif args.point:
        points = []
        for raw in args.point:
            try:
                points.append([float(part) for part in raw.split(",")])
            except ValueError:
                raise ConfigError(f"--point expects numbers, got {raw!r}") from None
        points = np.asarray(points)
    else:
        raise ConfigError("fit needs --point or --grid")

    header = [f"x{i + 1}" for i in range(data.q)] + [
        "value", "status", "effective_degree", "effective_bandwidth", "n_active"
    ]
    rows = [
        (*map(float, point), res.value, res.status, res.effective_degree,
         res.effective_bandwidth, res.n_active)
        for point, res in zip(points, fit_grid(data, points, cfg))
    ]
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        harness.write_csv(fh, header, rows)
    return 0


def _cmd_simulate(args) -> int:
    cfg = _read_config(args.config)
    spec = harness.build_experiment_spec(cfg)
    table = harness.run_mse(spec, workers=args.workers)
    harness.write_result_csv(table, args.out_csv)
    harness.write_result_json(table, spec, args.out_json)
    # files keep full precision; the console view rounds to 4 significant digits
    print("beta_star       n        mse  mc_stderr  exact  degraded  expanded")
    for row in table.rows():
        print(
            f"{row['beta_star']:>9} {row['n']:>7} {row['mse']:>10.4g} "
            f"{row['mc_stderr']:>10.4g} {row['n_exact']:>6} "
            f"{row['n_degraded']:>9} {row['n_expanded']:>9}"
        )
    return 0


def _cmd_rate_study(args) -> int:
    cfg = _read_config(args.config)
    spec = harness.build_experiment_spec(cfg)
    grid_size = harness.config_int(cfg, "rate_grid", args.eval_grid)
    result = harness.run_rate_study(spec, eval_grid_size=grid_size, workers=args.workers)
    harness.write_rate_json(result, args.out_json)
    return 0


def _cmd_adaptive(args) -> int:
    cfg = _read_config(args.config)
    spec = harness.build_experiment_spec(cfg)
    adaptive_cfg = harness.build_adaptive_config(cfg, spec.q)
    runs = harness.run_adaptive(spec, adaptive_cfg, workers=args.workers)
    harness.write_adaptive_csv(runs, args.out_csv)
    if args.diagnostics_dir:
        os.makedirs(args.diagnostics_dir, exist_ok=True)
        for run in runs:
            path = os.path.join(args.diagnostics_dir, f"ladder_n{run.n}_r{run.replication}.csv")
            harness.write_adaptive_diagnostics_csv(run.result, path)
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "rate-study": _cmd_rate_study,
    "adaptive": _cmd_adaptive,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DatasetFormatError, ValueError, RuntimeError, OSError) as err:
        record = {"error": type(err).__name__, "message": str(err)}
        print(json.dumps(record), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
