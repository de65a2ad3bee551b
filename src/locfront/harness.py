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
from .estimator import Dataset, EstimatorConfig, _check_policies, _whole, fit_grid
from .estimator import fit_at  # not called here; the benchmark's tracing tests read it
from .synthetic import (
    DesignSpec,
    ErrorSpec,
    ModelSpec,
    eval_boundary,
    evaluation_grid,
    gen_design,
    make_sample,
    sample_errors,
)

WORKERS_ENV = "LOCFRONT_WORKERS"


class ConfigError(ValueError):
    """Bad experiment configuration file."""


@dataclass(frozen=True)
class BandwidthRule:
    """How each cell's bandwidth is produced from (n, q, beta_star); a given h,
    alpha or beta is kept as a positive, finite Python float."""

    kind: str  # "fixed" | "simulation" | "balanced" | "adaptive"
    h: float | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("fixed", "simulation", "balanced", "adaptive"):
            raise ValueError(f"unknown bandwidth rule {self.kind!r}")
        for key in ("h", "alpha", "beta"):
            if (value := getattr(self, key)) is None:
                continue
            if not 0.0 < value < math.inf:
                raise ValueError(f"bandwidth: {self.kind} {key} must be in (0, inf), got {value}")
            object.__setattr__(self, key, float(value))
        if self.kind == "fixed" and (self.h is None or self.h > 1.0):
            raise ValueError("fixed rule needs h in (0, 1]")
        if self.kind == "balanced" and None in (self.alpha, self.beta):
            raise ValueError("balanced rule needs alpha and beta")


def resolve_bandwidth(rule: BandwidthRule, n: int, q: int, beta_star: int) -> float:
    if rule.kind == "fixed":
        return rule.h
    if rule.kind == "simulation":
        return simulation_bandwidth(n, q, beta_star)
    if rule.kind == "balanced":
        return balanced_bandwidth(n, q, rule.alpha, rule.beta)
    raise ValueError("adaptive bandwidths are selected per dataset; use run_adaptive")


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative Monte Carlo experiment over a (beta_star, n) grid; each field is
    checked before any cell runs by the owner of its rule: ``_whole`` (so ``2.0``
    is refused, not truncated), ``DesignSpec`` and ``resolve_bandwidth``. A
    sample size or degree listed twice is refused, as each names one cell."""

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
        q = _whole(self.q, "q", 1)
        for name, value in (
            ("q", q),
            ("n_list", tuple(DesignSpec(self.design, q, n).n for n in self.n_list)),
            ("beta_star_list", tuple(_whole(b, "beta_star_list (beta_star)", 0)
                                     for b in self.beta_star_list)),
            ("replications", _whole(self.replications, "replications", 1)),
            ("master_seed", _whole(self.master_seed, "master_seed (seed)", 0)),
            ("grid_points_per_axis",
             _whole(self.grid_points_per_axis, "evaluation: grid points per axis", 1)),
        ):
            object.__setattr__(self, name, value)
        for name, key in (("n_list", "n"), ("beta_star_list", "beta_star")):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{name} ({key}) entries must be distinct, "
                                     f"got {value} more than once")
        try:
            for beta_star in () if self.bandwidth.kind == "adaptive" else self.beta_star_list:
                for n in self.n_list:
                    resolve_bandwidth(self.bandwidth, n, self.q, beta_star)
        except ValueError as err:
            raise ValueError(f"bandwidth: {err}") from err
        if self.evaluation not in ("center", "grid"):
            raise ValueError("evaluation must be 'center' or 'grid'")
        _check_policies(self.fallback, self.empty_window)


@dataclass(frozen=True)
class CellResult:
    mse: float
    mc_stderr: float
    n_exact: int
    n_degraded: int
    n_expanded: int


@dataclass(frozen=True)
class ResultTable:
    """MSE summary per (beta_star, n) cell."""

    cells: dict[tuple[int, int], CellResult]

    def rows(self) -> list[dict]:
        """One dict per cell in key order: beta_star, n, then the cell's fields."""
        return [{"beta_star": b, "n": n, **asdict(self.cells[(b, n)])}
                for b, n in sorted(self.cells)]


def worker_count(raw, source: str) -> int:
    """``raw``, an int or its decimal text, as a worker count: an integer >= 1
    by ``_whole``, for ``--workers``, ``LOCFRONT_WORKERS`` and the ``run_*``
    studies' ``workers``; a refusal raises ConfigError naming ``source``."""
    try:
        return _whole(int(raw) if isinstance(raw, str) else raw, source, 1)
    except ValueError:
        raise ConfigError(f"{source} must be an integer >= 1, got {raw!r}") from None


def default_workers() -> int:
    """The worker count of ``LOCFRONT_WORKERS`` when it is set, else every core."""
    raw = os.environ.get(WORKERS_ENV)
    return worker_count(raw, WORKERS_ENV) if raw else os.cpu_count() or 1


def _make_dataset(spec: ExperimentSpec, beta_star: int, n: int, r: int) -> Dataset:
    rng = np.random.default_rng([spec.master_seed, beta_star, n, r])
    design = DesignSpec(spec.design, spec.q, n)
    points = gen_design(design, rng)
    errors = sample_errors(spec.error, n, rng)
    return make_sample(points, spec.model, errors)


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

    Each cell runs on its own process pool when workers > 1; a worker count
    that ``worker_count`` refuses fails before any cell. A failing
    replication is re-raised with its cell attached.
    """
    workers = default_workers() if workers is None else worker_count(workers, "workers")
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
    """Ladder-selected bandwidth and diagnostics for every replication, each ladder compared
    on the q-dimensional lattice of ``cfg.grid_points_per_axis``; the spec must hold the
    adaptive rule and the ladder's ``LADDER_POLICIES``, and a ``cfg.hill_order`` above
    n - 1 for any n is refused before any cell."""
    if len(spec.beta_star_list) != 1:
        raise ValueError("adaptive runs use one beta_star at a time")
    if spec.bandwidth.kind != "adaptive":
        raise ValueError(f"bandwidth: adaptive runs use 'adaptive', got {spec.bandwidth.kind!r}")
    for key, value in LADDER_POLICIES.items():
        if getattr(spec, key) != value:
            raise ValueError(f"{key}: adaptive runs use {value!r}, got {getattr(spec, key)!r}")
    for n in spec.n_list:
        # a Hill estimate of order k reads k + 1 negative residuals of the n
        if cfg.hill_order is not None and cfg.hill_order > n - 1:
            raise ValueError(f"hill_order (adaptive_hill_order) {cfg.hill_order}: needs "
                             f"{cfg.hill_order + 1} pilot residuals, more than n = {n}")
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


def parse_config(text: str, command: str) -> dict[str, str]:
    """Raw key/value pairs from the config text of a study ``command``; a key
    the command does not read is refused at its line, naming the commands
    that read it."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _COMMAND_KEYS[command]:
            readers = [name for name, keys in _COMMAND_KEYS.items() if key in keys]
            if not readers:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            raise ConfigError(f"line {lineno}: key {key!r} is read by {', '.join(readers)}, "
                              f"not {command}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        out[key] = value
    return out


def _read(convert, text: str, key: str, noun: str):
    """``convert(text)``, its ValueError raised as a ConfigError naming ``key``."""
    try:
        return convert(text)
    except ValueError as err:
        raise ConfigError(f"{key}: expected {noun}, got {text!r}") from err


def config_int(cfg: dict[str, str], key: str, default: int | None = None) -> int | None:
    """Integer value of ``key``, or ``default`` when the key is absent."""
    return _read(int, cfg[key], key, "an integer") if key in cfg else default


def config_float(cfg: dict[str, str], key: str) -> float:
    """Float value of ``key``, which ``cfg`` holds."""
    return _read(float, cfg[key], key, "a number")


def _int_list(cfg: dict[str, str], key: str) -> tuple[int, ...]:
    return _read(lambda text: tuple(map(int, text.split(","))), cfg[key], key,
                 "comma-separated integers")


def _parse_error(value: str) -> ErrorSpec:
    kind, colon, shape = value.partition(":")
    if value == "exponential":
        return ErrorSpec("exponential_unit")
    if value == "zero":
        return ErrorSpec("zero")
    if kind == "weibull" and colon:
        return ErrorSpec("weibull", alpha=_read(float, shape, "error", "a weibull shape"))
    raise ConfigError(f"error: expected 'exponential' or 'weibull:<alpha>', got {value!r}")


def _parse_bandwidth(value: str) -> BandwidthRule:
    kind, colon, params = value.partition(":")
    if value in ("simulation", "adaptive"):
        return BandwidthRule(value)
    if kind == "fixed" and colon:
        return BandwidthRule("fixed", h=_read(float, params, "bandwidth", "a fixed h"))
    if kind == "balanced" and len(parts := params.split(",")) == 2:
        alpha, beta = (_read(float, part, "bandwidth", "a balanced parameter") for part in parts)
        return BandwidthRule("balanced", alpha=alpha, beta=beta)
    raise ConfigError(
        f"bandwidth: expected simulation | fixed:<h> | balanced:<a>,<b> | adaptive, got {value!r}"
    )


def _parse_evaluation(value: str) -> dict:
    """The ExperimentSpec fields of ``center`` or ``grid:<N>``, and of nothing else."""
    kind, colon, size = value.partition(":")
    if value == "center":
        return {"evaluation": "center"}
    if kind == "grid" and colon:
        return {"evaluation": "grid",
                "grid_points_per_axis": _read(int, size, "evaluation", "a grid size")}
    raise ConfigError(f"evaluation: expected 'center' or 'grid:<N>', got {value!r}")


# the optional keys: a spec key sets the ExperimentSpec field of its name, an
# adaptive_* key the AdaptiveConfig field named here, and a key the config
# leaves out keeps the field's default
_SPEC_PARSERS = {"design": str, "error": _parse_error, "model": ModelSpec,
                 "bandwidth": _parse_bandwidth, "fallback": str, "empty_window": str}
_ADAPTIVE_KNOBS = {"adaptive_s": ("s", config_float), "adaptive_rho": ("rho", config_float),
                   "adaptive_constant": ("threshold_constant", config_float),
                   "adaptive_hill_order": ("hill_order", config_int),
                   "adaptive_grid": ("grid_points_per_axis", config_int)}
_REQUIRED = ("q", "n", "beta_star", "replications", "seed")
# the keys each study command reads, and so the only keys parse_config lets it
# set: every study builds its ExperimentSpec from the study keys
_STUDY_KEYS = frozenset({*_REQUIRED, *_SPEC_PARSERS})
_COMMAND_KEYS = {"simulate": _STUDY_KEYS | {"evaluation"},
                 "rate-study": _STUDY_KEYS | {"rate_grid"},
                 "adaptive": _STUDY_KEYS | set(_ADAPTIVE_KNOBS)}


def build_experiment_spec(cfg: dict[str, str]) -> ExperimentSpec:
    """Assemble an ExperimentSpec from parsed config pairs."""
    for key in _REQUIRED:
        if key not in cfg:
            raise ConfigError(f"missing required key {key!r}")
    try:
        optional = {key: parse(cfg[key]) for key, parse in _SPEC_PARSERS.items() if key in cfg}
        if "evaluation" in cfg:
            optional.update(_parse_evaluation(cfg["evaluation"]))
        return ExperimentSpec(
            q=config_int(cfg, "q"),
            n_list=_int_list(cfg, "n"),
            beta_star_list=_int_list(cfg, "beta_star"),
            replications=config_int(cfg, "replications"),
            master_seed=config_int(cfg, "seed"),
            **optional,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


def build_adaptive_config(cfg: dict[str, str]) -> AdaptiveConfig:
    """AdaptiveConfig from the adaptive_* keys."""
    knobs = {name: read(cfg, key) for key, (name, read) in _ADAPTIVE_KNOBS.items() if key in cfg}
    try:
        return AdaptiveConfig(**knobs)
    except ValueError as err:
        raise ConfigError(str(err)) from err
