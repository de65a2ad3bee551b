"""Monte Carlo harness: declarative experiments, deterministic seeding, tables.

Every replication draws its own generator from the substream keyed by
(master_seed, beta_star, n, replication index), so results are bit-identical
whether replications run sequentially or across a process pool, and removing
a cell from an experiment never changes another cell's numbers.

One pipeline serves every study. ``_replication_errors`` builds a
replication's dataset, resolves h, fits each point of an evaluation grid and
returns the signed errors against the true boundary with the worst fit
status; ``_run_cells`` runs a task for every replication of every
(beta_star, n) cell. ``run_mse`` reduces the errors to a mean square per
replication (center evaluation is the one-point grid), ``run_rate_study`` to
a sup-error per replication and a median per n; ``run_adaptive`` runs the
ladder selection through the same runner.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .bandwidth import (
    LADDER_POLICIES,
    AdaptiveConfig,
    AdaptiveResult,
    adaptive_bandwidth,
    balanced_bandwidth,
    simulation_bandwidth,
)
from .estimator import Dataset, EstimatorConfig, _check_policies, fit_grid
from .estimator import fit_at  # not called here; the benchmark's tracing tests read it
from .synthetic import (
    _DESIGN_KINDS,
    DesignSpec,
    ErrorSpec,
    ModelSpec,
    eval_boundary,
    gen_design,
    lattice,
    lattice_side,
    make_sample,
    sample_errors,
)

WORKERS_ENV = "LOCFRONT_WORKERS"


class ConfigError(ValueError):
    """Bad experiment configuration file."""


@dataclass(frozen=True)
class BandwidthRule:
    """How each cell's bandwidth is produced from (n, q, beta_star)."""

    kind: str  # "fixed" | "simulation" | "balanced" | "adaptive"
    h: float | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("fixed", "simulation", "balanced", "adaptive"):
            raise ValueError(f"unknown bandwidth rule {self.kind!r}")
        if self.kind == "fixed":
            if self.h is None or not 0.0 < self.h <= 1.0:
                raise ValueError("fixed rule needs h in (0, 1]")
        if self.kind == "balanced":
            if self.alpha is None or self.beta is None:
                raise ValueError("balanced rule needs alpha and beta")
            if not (self.alpha > 0 and self.beta > 0):
                raise ValueError("balanced rule needs positive alpha and beta")


def resolve_bandwidth(rule: BandwidthRule, n: int, q: int, beta_star: int) -> float:
    if rule.kind == "fixed":
        return float(rule.h)
    if rule.kind == "simulation":
        return simulation_bandwidth(n, q, beta_star)
    if rule.kind == "balanced":
        return balanced_bandwidth(n, q, rule.alpha, rule.beta)
    raise ValueError("adaptive bandwidths are selected per dataset; use run_adaptive")


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative Monte Carlo experiment over a (beta_star, n) grid."""

    q: int
    n_list: tuple[int, ...]
    beta_star_list: tuple[int, ...]
    replications: int
    master_seed: int
    design: str = "random_uniform"
    error: ErrorSpec = field(default_factory=lambda: ErrorSpec("exponential_unit"))
    model: ModelSpec = field(default_factory=lambda: ModelSpec("sine_sum"))
    bandwidth: BandwidthRule = field(default_factory=lambda: BandwidthRule("simulation"))
    evaluation: str = "center"  # "center" | "grid"
    grid_points_per_axis: int = 20
    fallback: str = "degrade_degree"
    empty_window: str = "expand"

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(
            self, "beta_star_list", tuple(int(b) for b in self.beta_star_list)
        )
        if not self.n_list:
            raise ValueError("n_list must be nonempty")
        if not self.beta_star_list:
            raise ValueError("beta_star_list must be nonempty")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        for name, values, least in (("n_list (n)", self.n_list, 1),
                                    ("beta_star_list (beta_star)", self.beta_star_list, 0)):
            if min(values) < least:
                raise ValueError(f"{name} entries must be >= {least}, got {min(values)}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")
        if self.evaluation not in ("center", "grid"):
            raise ValueError("evaluation must be 'center' or 'grid'")
        if self.evaluation == "grid" and self.grid_points_per_axis < 1:
            raise ValueError("grid evaluation needs at least 1 point per axis")
        if self.design not in _DESIGN_KINDS:
            raise ValueError(f"design must be one of {_DESIGN_KINDS}, got {self.design!r}")
        off_lattice = [n for n in self.n_list
                       if self.design == "equidistant_grid" and lattice_side(n, self.q) is None]
        if off_lattice:
            raise ValueError(f"n_list (n) entries must be perfect q-th powers (q = {self.q}) "
                             f"for design = equidistant_grid, got {off_lattice[0]}")
        _check_policies(self.fallback, self.empty_window)


@dataclass(frozen=True)
class CellResult:
    mse: float
    mc_stderr: float
    replications: int
    n_exact: int
    n_degraded: int
    n_expanded: int


@dataclass(frozen=True)
class ResultTable:
    """MSE summary per (beta_star, n) cell."""

    cells: dict[tuple[int, int], CellResult]

    def rows(self) -> list[dict]:
        """One dict per cell in key order: beta_star, n, then the cell's fields
        but its replication count."""
        return [
            {"beta_star": b, "n": n,
             **{k: v for k, v in asdict(self.cells[(b, n)]).items() if k != "replications"}}
            for b, n in sorted(self.cells)
        ]


def default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw:
        try:
            value = int(raw)
        except ValueError as err:
            raise ConfigError(f"{WORKERS_ENV}={raw!r} is not an integer") from err
        if value < 1:
            raise ConfigError(f"{WORKERS_ENV} must be >= 1")
        return value
    return os.cpu_count() or 1


def _make_dataset(spec: ExperimentSpec, beta_star: int, n: int, r: int) -> Dataset:
    rng = np.random.default_rng([spec.master_seed, beta_star, n, r])
    design = DesignSpec(spec.design, spec.q, n)
    points = gen_design(design, rng)
    errors = sample_errors(spec.error, n, rng)
    return make_sample(points, spec.model, errors)


def evaluation_grid(q: int, points_per_axis: int) -> np.ndarray:
    """Equidistant lattice on [0,1]^q including the boundary, (N^q, q).

    A single point per axis collapses to the cube center, so a one-point grid
    evaluation coincides with the center-point evaluation. Fewer than one
    point per axis raises ValueError.
    """
    if points_per_axis < 1:
        raise ValueError(
            f"evaluation grid needs at least 1 point per axis, got {points_per_axis}"
        )
    if points_per_axis == 1:
        return np.full((1, q), 0.5)
    return lattice(np.linspace(0.0, 1.0, points_per_axis), q)


_STATUS_RANK = {"exact": 0, "expanded": 1, "degraded": 2}


def _replication_errors(args) -> tuple[np.ndarray, str]:
    """Signed errors ghat - g of one replication at every grid point, and its
    worst fit status ("degraded" over "expanded" over "exact")."""
    spec, beta_star, n, r, grid = args
    data = _make_dataset(spec, beta_star, n, r)
    h = resolve_bandwidth(spec.bandwidth, n, spec.q, beta_star)
    cfg = EstimatorConfig(
        beta_star=beta_star, h=h, fallback=spec.fallback, empty_window=spec.empty_window
    )
    fits = fit_grid(data, grid, cfg)
    errors = np.array([fit.value for fit in fits]) - eval_boundary(spec.model, grid)
    return errors, max((fit.status for fit in fits), key=_STATUS_RANK.__getitem__)


def _adaptive_task(args) -> AdaptiveResult:
    spec, beta_star, n, r, cfg = args
    data = _make_dataset(spec, beta_star, n, r)
    return adaptive_bandwidth(data, beta_star, cfg)


def _run_cells(task_fn, spec: ExperimentSpec, extra, workers: int | None) -> list:
    """``(beta_star, n, results)`` per cell, ``results`` holding
    ``task_fn((spec, beta_star, n, r, extra))`` for every replication r.

    Each cell runs on its own process pool when workers > 1. A failing
    replication is re-raised with its cell attached.
    """
    workers = default_workers() if workers is None else workers
    cells = []
    for beta_star in spec.beta_star_list:
        for n in spec.n_list:
            tasks = [(spec, beta_star, n, r, extra) for r in range(spec.replications)]
            try:
                if workers <= 1 or len(tasks) <= 1:
                    results = [task_fn(t) for t in tasks]
                else:
                    chunk = max(1, len(tasks) // (8 * workers))
                    with ProcessPoolExecutor(max_workers=workers) as pool:
                        results = list(pool.map(task_fn, tasks, chunksize=chunk))
            except (ValueError, RuntimeError) as err:
                raise type(err)(f"cell (beta_star={beta_star}, n={n}): {err}") from err
            cells.append((beta_star, n, results))
    return cells


def _mean_square(errors: np.ndarray) -> float:
    # scalar powers summed left to right: np.mean's pairwise sum changes the
    # last bits of the MSE, and an array square (x*x) can differ from a scalar
    # power (C pow) by one ulp
    total = 0.0
    for err in errors:
        total += err ** 2
    return total / errors.size


def _aggregate(results: list[tuple[np.ndarray, str]]) -> CellResult:
    values = np.array([_mean_square(errors) for errors, _ in results])
    statuses = [status for _, status in results]
    stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return CellResult(
        mse=float(values.mean()),
        mc_stderr=stderr,
        replications=len(results),
        n_exact=statuses.count("exact"),
        n_degraded=statuses.count("degraded"),
        n_expanded=statuses.count("expanded"),
    )


def run_mse(spec: ExperimentSpec, workers: int | None = None) -> ResultTable:
    """MSE per cell: replication mean of the squared error averaged over the
    evaluation points (the cube center, or the ``grid_points_per_axis``
    lattice for grid evaluation).

    A replication's status tally is its worst fit ("degraded" over "expanded"
    over "exact"), so tallies sum to the replication count.
    """
    if spec.bandwidth.kind == "adaptive":
        raise ValueError("bandwidth: an adaptive h is selected per dataset; use run_adaptive")
    per_axis = spec.grid_points_per_axis if spec.evaluation == "grid" else 1
    grid = evaluation_grid(spec.q, per_axis)
    cells = _run_cells(_replication_errors, spec, grid, workers)
    return ResultTable({(b, n): _aggregate(results) for b, n, results in cells})


@dataclass(frozen=True)
class RateStudyResult:
    """Log-log slope of median sup-error against sample size."""

    beta_star: int
    alpha: float
    beta: float
    n_list: tuple[int, ...]
    median_sup_errors: tuple[float, ...]
    slope: float
    expected_slope: float


def run_rate_study(
    spec: ExperimentSpec,
    eval_grid_size: int = 33,
    workers: int | None = None,
) -> RateStudyResult:
    """Empirical convergence rate under the balanced bandwidth rule.

    Per sample size, takes the median over replications of the max absolute
    error over an evaluation grid, then regresses log(median) on log(n). The
    theoretical comparison value is -beta/(alpha*beta + q). The ``zero``
    error law has no tail index, so no theory slope, and is refused before
    any cell runs. A median of zero has no logarithm and raises ValueError
    naming its n.
    """
    if spec.bandwidth.kind != "balanced":
        raise ValueError("rate study needs the balanced bandwidth rule")
    if spec.error.kind == "zero":
        raise ValueError("error: the zero law has no tail index, so the rate study "
                         "has no slope to compare; use exponential or weibull:<alpha>")
    if len(spec.n_list) < 4:
        raise ValueError("rate study needs at least 4 sample sizes")
    if len(spec.beta_star_list) != 1:
        raise ValueError("rate study runs one beta_star at a time")
    if sorted(spec.n_list) != list(spec.n_list):
        raise ValueError("n_list must be increasing")
    if eval_grid_size < 1:
        raise ValueError("rate study needs eval_grid_size >= 1")
    grid = evaluation_grid(spec.q, eval_grid_size)
    medians = [
        float(np.median([np.max(np.abs(errors)) for errors, _ in results]))
        for _, _, results in _run_cells(_replication_errors, spec, grid, workers)
    ]
    for n, median in zip(spec.n_list, medians):
        if median == 0.0:
            raise ValueError(f"median sup-error is 0 at n={n}; the log-log slope is undefined")
    slope = float(
        np.polyfit(np.log(np.asarray(spec.n_list, float)), np.log(medians), 1)[0]
    )
    alpha, beta = spec.bandwidth.alpha, spec.bandwidth.beta
    return RateStudyResult(
        beta_star=spec.beta_star_list[0],
        alpha=alpha,
        beta=beta,
        n_list=spec.n_list,
        median_sup_errors=tuple(medians),
        slope=slope,
        expected_slope=-beta / (alpha * beta + spec.q),
    )


@dataclass(frozen=True)
class AdaptiveRun:
    n: int
    replication: int
    result: AdaptiveResult


def run_adaptive(
    spec: ExperimentSpec, cfg: AdaptiveConfig, workers: int | None = None
) -> list[AdaptiveRun]:
    """Ladder-selected bandwidth and diagnostics for every replication; the
    spec must hold the adaptive rule and the ladder's ``LADDER_POLICIES``."""
    if len(spec.beta_star_list) != 1:
        raise ValueError("adaptive runs use one beta_star at a time")
    if spec.bandwidth.kind != "adaptive":
        raise ValueError(f"bandwidth: adaptive runs use 'adaptive', got {spec.bandwidth.kind!r}")
    for key, value in LADDER_POLICIES.items():
        if getattr(spec, key) != value:
            raise ValueError(f"{key}: adaptive runs use {value!r}, got {getattr(spec, key)!r}")
    return [
        AdaptiveRun(n=n, replication=r, result=res)
        for _, n, results in _run_cells(_adaptive_task, spec, cfg, workers)
        for r, res in enumerate(results)
    ]


# ---------------------------------------------------------------------------
# output files


def write_csv(fh, header, rows) -> None:
    """The header line, then one line per row: strings as they are, numbers
    by ``repr`` (full precision, ``nan`` for NaN)."""
    for fields in (header, *rows):
        fh.write(",".join(f if isinstance(f, str) else repr(f) for f in fields) + "\n")


def _write_json(payload, path) -> None:
    # encoded before the file opens, so a NaN leaves no file at all
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_dict_rows(rows: list[dict], path) -> None:
    # the first row's keys are the header, as they are the JSON keys
    with open(path, "w") as fh:
        write_csv(fh, list(rows[0]), [row.values() for row in rows])


def write_result_csv(table: ResultTable, path) -> None:
    _write_dict_rows(table.rows(), path)


def write_result_json(table: ResultTable, spec: ExperimentSpec, path) -> None:
    echo = {"experiment": asdict(spec), "master_seed": spec.master_seed, "results": table.rows()}
    _write_json(echo, path)


def write_rate_json(result: RateStudyResult, path) -> None:
    _write_json(asdict(result), path)


def write_adaptive_csv(runs: list[AdaptiveRun], path) -> None:
    header = ("n", "replication", "k_hat", "h_selected", "alpha_hat", "trigger_k", "trigger_l")
    rows = [
        (run.n, run.replication, run.result.k_hat, run.result.h_selected,
         run.result.alpha_hat, *(run.result.trigger or ("", "")))
        for run in runs
    ]
    with open(path, "w") as fh:
        write_csv(fh, header, rows)


def write_adaptive_diagnostics_csv(result: AdaptiveResult, path) -> None:
    """Per-rung ladder table: k, h_k, zeta_k, max-grid delta to the next fit."""
    _write_dict_rows(result.diagnostics_rows(), path)


# ---------------------------------------------------------------------------
# experiment config files: "key = value" lines, '#' comments


_CONFIG_KEYS = {
    "q", "n", "beta_star", "replications", "seed", "design", "error", "model",
    "bandwidth", "evaluation", "fallback", "empty_window",
    "rate_grid", "adaptive_s", "adaptive_rho", "adaptive_constant",
    "adaptive_grid", "adaptive_hill_order",
}


def parse_config(text: str) -> dict[str, str]:
    """Raw key/value pairs from config text; unknown keys are rejected."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        out[key] = value
    return out


def config_int(cfg: dict[str, str], key: str, default: int | None = None) -> int | None:
    """Integer value of ``key``, or ``default`` when the key is absent."""
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError as err:
        raise ConfigError(f"{key}: expected an integer, got {cfg[key]!r}") from err


def config_float(cfg: dict[str, str], key: str, default: float) -> float:
    """Float value of ``key``, or ``default`` when the key is absent."""
    if key not in cfg:
        return default
    try:
        return float(cfg[key])
    except ValueError as err:
        raise ConfigError(f"{key}: expected a number, got {cfg[key]!r}") from err


def _int_list(value: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in value.split(","))
    except ValueError as err:
        raise ConfigError(f"{key}: expected comma-separated integers, got {value!r}") from err


def _parse_error(value: str) -> ErrorSpec:
    if value == "exponential":
        return ErrorSpec("exponential_unit")
    if value == "zero":
        return ErrorSpec("zero")
    if value.startswith("weibull:"):
        try:
            return ErrorSpec("weibull", alpha=float(value.split(":", 1)[1]))
        except ValueError as err:
            raise ConfigError(f"error: bad weibull shape in {value!r}") from err
    raise ConfigError(f"error: expected 'exponential' or 'weibull:<alpha>', got {value!r}")


def _parse_bandwidth(value: str) -> BandwidthRule:
    if value in ("simulation", "adaptive"):
        return BandwidthRule(value)
    if value.startswith("fixed:"):
        try:
            return BandwidthRule("fixed", h=float(value.split(":", 1)[1]))
        except ValueError as err:
            raise ConfigError(f"bandwidth: bad fixed value in {value!r}") from err
    if value.startswith("balanced:"):
        parts = value.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ConfigError(f"bandwidth: expected 'balanced:<alpha>,<beta>', got {value!r}")
        try:
            return BandwidthRule("balanced", alpha=float(parts[0]), beta=float(parts[1]))
        except ValueError as err:
            raise ConfigError(f"bandwidth: bad balanced parameters in {value!r}") from err
    raise ConfigError(
        f"bandwidth: expected simulation | fixed:<h> | balanced:<a>,<b> | adaptive, got {value!r}"
    )


def build_experiment_spec(cfg: dict[str, str]) -> ExperimentSpec:
    """Assemble an ExperimentSpec from parsed config pairs."""
    for key in ("q", "n", "beta_star", "replications", "seed"):
        if key not in cfg:
            raise ConfigError(f"missing required key {key!r}")
    evaluation = cfg.get("evaluation", "center")
    grid_n = 20
    if evaluation.startswith("grid"):
        if ":" in evaluation:
            try:
                grid_n = int(evaluation.split(":", 1)[1])
            except ValueError as err:
                raise ConfigError(f"evaluation: bad grid size in {evaluation!r}") from err
        evaluation = "grid"
    elif evaluation != "center":
        raise ConfigError(f"evaluation: expected 'center' or 'grid:<N>', got {evaluation!r}")
    try:
        return ExperimentSpec(
            q=config_int(cfg, "q"),
            n_list=_int_list(cfg["n"], "n"),
            beta_star_list=_int_list(cfg["beta_star"], "beta_star"),
            replications=config_int(cfg, "replications"),
            master_seed=config_int(cfg, "seed"),
            design=cfg.get("design", "random_uniform"),
            error=_parse_error(cfg.get("error", "exponential")),
            model=ModelSpec(cfg.get("model", "sine_sum")),
            bandwidth=_parse_bandwidth(cfg.get("bandwidth", "simulation")),
            evaluation=evaluation,
            grid_points_per_axis=grid_n,
            fallback=cfg.get("fallback", "degrade_degree"),
            empty_window=cfg.get("empty_window", "expand"),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


def build_adaptive_config(cfg: dict[str, str], q: int) -> AdaptiveConfig:
    """AdaptiveConfig from the adaptive_* keys (grid defaults to 25 points per axis)."""
    grid_n = config_int(cfg, "adaptive_grid", 25)
    if grid_n < 1:
        raise ConfigError("adaptive_grid must be >= 1")
    try:
        return AdaptiveConfig(
            grid=evaluation_grid(q, grid_n),
            s=config_float(cfg, "adaptive_s", 0.5),
            rho=config_float(cfg, "adaptive_rho", 1.25),
            threshold_constant=config_float(cfg, "adaptive_constant", 1.0),
            hill_order=config_int(cfg, "adaptive_hill_order"),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err
