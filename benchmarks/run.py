"""locfront benchmark: one workload, timed (--trace 0) or traced (--trace 1).

    python3 benchmarks/run.py --workload adaptive_ladder --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The timed run repeats the workload's batch on min(2, nproc) workers for
``--seconds`` and reports end-to-end metrics. The traced run repeats it on
one worker, alternating untraced and traced passes, and reports per-layer
metrics from spans recorded around each layer's module-level names.

Both runs then check the results: every batch must write the same bytes
(timed multi-worker against single-worker), and every LP captured in a
single-worker pass is re-solved with scipy's HiGHS. A fit whose LP disagrees
with HiGHS counts as failed. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import (  # noqa: E402
    DurationLog, Tracer, busy_time, instrument, percentile, self_times, tail_level,
)
from workloads import WORKLOADS  # noqa: E402

MIN_BATCHES = 3
# Fresh set-up processes per timed run, spread over the batches.
MIN_SETUPS = 10
WORKERS = min(2, os.cpu_count() or 1)

# (module, attribute, span name); observers are attached in ``_probes``.
LAYER_NAMES = [
    ("locfront.lp", "solve", "lp.solve"),
    ("locfront.windows", "contains_mask", "windows.contains_mask"),
    ("locfront.windows", "clip_window", "windows.clip_window"),
    ("locfront.windows", "objective_vector", "windows.objective_vector"),
    ("locfront.basis", "vandermonde", "basis.vandermonde"),
    ("locfront.estimator", "fit_at", "estimator.fit_at"),
    ("locfront.estimator", "fit_local_constant", "estimator.fit_local_constant"),
    ("locfront.bandwidth", "adaptive_bandwidth", "bandwidth.adaptive_bandwidth"),
    ("locfront.bandwidth", "hill_tail_index", "bandwidth.hill_tail_index"),
    ("locfront.bandwidth", "select_bandwidth_index", "bandwidth.select_bandwidth_index"),
    ("locfront.synthetic", "gen_design", "synthetic.gen_design"),
    ("locfront.synthetic", "sample_errors", "synthetic.sample_errors"),
    ("locfront.synthetic", "make_sample", "synthetic.make_sample"),
    # the per-replication function the harness hands to its pool
    ("locfront.harness", "_adaptive_task", "harness.task"),
    ("locfront.cli", "_read_config", "cli.io"),
    ("locfront.harness", "write_adaptive_csv", "cli.io"),
    ("locfront.harness", "write_adaptive_diagnostics_csv", "cli.io"),
]

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "fits_per_s": "1/s",
    "reps_per_s": "1/s",
    "fit_ms.p50": "ms",
    "fit_ms.p99": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lp.calls": "count",
    "lp.busy_s": "s",
    "lp.ms.p50": "ms",
    "lp.ms.p99": "ms",
    "lp.rows.p50": "rows",
    "lp.rows.max": "rows",
    "lp.cells": "count",
    "lp.ns_per_cell": "ns",
    "lp.unbounded": "count",
    "lp.useful_ratio": "ratio",
    "lp.oracle_max_rel_err": "ratio",
    "lp.oracle_mismatch": "count",
    "windows.contains_mask.calls": "count",
    "windows.contains_mask.busy_s": "s",
    "windows.points_scanned": "count",
    "windows.hit_ratio": "ratio",
    "windows.expand_calls": "count",
    "windows.clip_window.busy_s": "s",
    "windows.objective_vector.busy_s": "s",
    "basis.vandermonde.calls": "count",
    "basis.vandermonde.busy_s": "s",
    "basis.vandermonde.cells": "count",
    "estimator.fit_at.calls": "count",
    "estimator.fit_at.self_s": "s",
    "estimator.degraded": "count",
    "estimator.expanded": "count",
    "estimator.fit_local_constant.busy_s": "s",
    "bandwidth.adaptive_bandwidth.busy_s": "s",
    "bandwidth.rungs": "count",
    "bandwidth.hill_tail_index.busy_s": "s",
    "bandwidth.select_bandwidth_index.busy_s": "s",
    "synthetic.gen_design.busy_s": "s",
    "synthetic.sample_errors.busy_s": "s",
    "synthetic.make_sample.busy_s": "s",
    "harness.tasks": "count",
    "harness.task_ms.p50": "ms",
    "harness.task_ms.p99": "ms",
    "harness.pools_started": "count",
    "harness.parallel_efficiency": "ratio",
    "cli.io_s": "s",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# probes


def _observe_lp(info, args, kwargs, outcome):
    problem = args[0]
    info["rows"], info["cols"] = problem.shape
    info["status"] = type(outcome).__name__
    info["lp"] = (problem, outcome)


def _observe_mask(info, args, kwargs, mask):
    info["scanned"] = int(mask.shape[0])
    info["kept"] = int(mask.sum())


def _observe_vandermonde(info, args, kwargs, matrix):
    info["cells"] = int(matrix.size)


def _observe_fit(info, args, kwargs, fit):
    info["status"] = fit.status


def _observe_ladder(info, args, kwargs, result):
    info["rungs"] = int(result.bandwidths.shape[0])


OBSERVERS = {
    "lp.solve": _observe_lp,
    "windows.contains_mask": _observe_mask,
    "basis.vandermonde": _observe_vandermonde,
    "estimator.fit_at": _observe_fit,
    "bandwidth.adaptive_bandwidth": _observe_ladder,
}


def _probes(span_names=None):
    return [
        (module, attr, span, OBSERVERS.get(span))
        for module, attr, span in LAYER_NAMES
        if span_names is None or span in span_names
    ]


class _CountingPool:
    """Stands in for the harness's ProcessPoolExecutor and counts starts."""

    def __init__(self, real):
        self.real = real
        self.started = 0

    def __call__(self, *args, **kwargs):
        self.started += 1
        return self.real(*args, **kwargs)


# ---------------------------------------------------------------------------
# checks


class _Agreement:
    """Batches of one input that must all write the same results."""

    def __init__(self):
        self.reference = None
        self.problems: list[str] = []

    def check(self, batch, label: str) -> None:
        if not batch.ok:
            self.problems.append(f"{label} failed: {batch.error}")
        elif self.reference is None:
            self.reference = batch
        elif batch.outputs != self.reference.outputs:
            self.problems.append(f"{label} wrote different results")


def _fit_of(spans, sid):
    while sid is not None and spans[sid].name != "estimator.fit_at":
        sid = spans[sid].parent
    return sid


def oracle_check(spans, notes):
    """Re-solve every captured LP; returns (verdicts, ids of failed fits)."""
    import oracle

    verdicts, failed_fits = [], set()
    for sid, span in enumerate(spans):
        if span.name != "lp.solve":
            continue
        verdict = oracle.check(*span.info["lp"])
        verdicts.append(verdict)
        if verdict.mismatch:
            failed_fits.add(_fit_of(spans, sid))
    notes["lps_checked"] = len(verdicts)
    notes["oracle_mismatches"] = [
        f"{v.expected} expected, {v.got} got, rel_err {v.rel_err:.3g}"
        for v in verdicts if v.mismatch
    ][:5]
    return verdicts, failed_fits


def _fit_spans(spans):
    return [s for s in spans if s.name == "estimator.fit_at"]


# ---------------------------------------------------------------------------
# passes


def _single_pass(workload, inputs, workdir, probes):
    """One single-worker batch under ``probes``; returns (batch, wall, spans)."""
    tracer = Tracer()
    with instrument(tracer, probes):
        t0 = time.perf_counter()
        batch = workload.run(inputs, 1, workdir / "single")
        wall = time.perf_counter() - t0
    return batch, wall, tracer.spans


def _setup_seconds(workload_name: str, seed: int) -> float:
    """Wall time of a fresh process that imports, makes inputs and warms up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload_name, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def run_timed(workload, inputs, seed, seconds, workdir, notes):
    """Repeat the batch for ``seconds``, timing every fit inside it and a
    fresh set-up process after it, then check the results in one
    single-worker pass."""
    workers = WORKERS if workload.pooled else 1
    walls, setups, batch_fit_ms = [], [], []
    agreement = _Agreement()
    rss = None
    clock = DurationLog(workdir / "fit_seconds")
    start = time.perf_counter()
    while len(walls) < MIN_BATCHES or time.perf_counter() < start + seconds:
        with instrument(clock, _probes({"estimator.fit_at"})):
            t0 = time.perf_counter()
            batch = workload.run(inputs, workers, workdir / "timed")
            walls.append(time.perf_counter() - t0)
        agreement.check(batch, f"{workers}-worker batch")
        batch_fit_ms.append([1e3 * s for s in clock.take()])
        if rss is None:
            # before set-up processes count as children and before the
            # single-worker pass grows this heap
            rss = _peak_rss_mb()
        # one set-up per batch, and enough that MIN_SETUPS spread over the run
        elapsed = min(1.0, (time.perf_counter() - start) / seconds)
        due = max(len(setups) + 1, math.ceil(MIN_SETUPS * elapsed))
        while len(setups) < due:
            setups.append(_setup_seconds(workload.name, seed))
    clock.close()

    check, _, spans = _single_pass(
        workload, inputs, workdir, _probes({"estimator.fit_at", "lp.solve"})
    )
    agreement.check(check, "check pass")
    _, failed_fits = oracle_check(spans, notes)
    fits = len(_fit_spans(spans))
    recorded = sorted({len(b) for b in batch_fit_ms})
    if recorded != [fits]:
        agreement.problems.append(f"timed batches recorded {recorded} fits, not {fits}")
    # Percentiles are taken per batch and the median over batches reported:
    # a tail pooled over the run is set by the host's worst seconds.
    batch_fit_ms = [b for b in batch_fit_ms if b] or [[0.0]]
    tail = tail_level(fits)

    wall = statistics.median(walls)
    notes.update(
        workers=workers,
        batch_walls_s=[round(w, 4) for w in walls],
        setup_s_runs=[round(t, 4) for t in setups],
        fit_ms_samples_per_batch=fits,
        fit_ms_tail_percentile=round(tail, 3),
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "fits_per_s": fits / wall,
        "reps_per_s": check.reps / wall,
        "fit_ms.p50": statistics.median(percentile(b, 50.0) for b in batch_fit_ms),
        "fit_ms.p99": statistics.median(percentile(b, tail) for b in batch_fit_ms),
        "peak_rss_mb": rss,
    }
    return metrics, fits, failed_fits, agreement.problems


def _pass_stats(spans) -> dict:
    """Per-layer numbers of one traced pass."""
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    lps = by_name.get("lp.solve", [])
    masks = by_name.get("windows.contains_mask", [])
    fits = by_name.get("estimator.fit_at", [])
    vands = by_name.get("basis.vandermonde", [])
    fit_ids = {sid for sid, s in enumerate(spans) if s.name == "estimator.fit_at"}
    selfs = self_times(spans)
    scanned = sum(s.info["scanned"] for s in masks)
    lp_busy = busy_time(spans, "lp.solve")
    cells = sum(s.info["rows"] * s.info["cols"] for s in lps)
    rows = sorted(s.info["rows"] for s in lps)
    counts = {
        "lp.calls": len(lps),
        "lp.rows.p50": percentile(rows, 50.0) if rows else 0,
        "lp.rows.max": rows[-1] if rows else 0,
        "lp.cells": cells,
        "lp.unbounded": sum(s.info["status"] == "Unbounded" for s in lps),
        "lp.useful_ratio": (
            sum(s.info["status"] == "Optimal" for s in lps) / len(lps) if lps else 0.0
        ),
        "windows.contains_mask.calls": len(masks),
        "windows.points_scanned": scanned,
        "windows.hit_ratio": (
            sum(s.info["kept"] for s in masks) / scanned if scanned else 0.0
        ),
        "windows.expand_calls": sum(s.parent in fit_ids for s in masks) - len(fits),
        "basis.vandermonde.calls": len(vands),
        "basis.vandermonde.cells": sum(s.info["cells"] for s in vands),
        "estimator.fit_at.calls": len(fits),
        "estimator.degraded": sum(s.info["status"] == "degraded" for s in fits),
        "estimator.expanded": sum(s.info["status"] == "expanded" for s in fits),
        "bandwidth.rungs": sum(
            s.info["rungs"] for s in by_name.get("bandwidth.adaptive_bandwidth", [])
        ),
        "harness.tasks": len(by_name.get("harness.task", [])),
    }
    times = {
        f"{name}.busy_s": busy_time(spans, name)
        for name in (
            "windows.contains_mask", "windows.clip_window", "windows.objective_vector",
            "basis.vandermonde", "estimator.fit_local_constant",
            "bandwidth.adaptive_bandwidth", "bandwidth.hill_tail_index",
            "bandwidth.select_bandwidth_index", "synthetic.gen_design",
            "synthetic.sample_errors", "synthetic.make_sample",
        )
    }
    times.update({
        "lp.busy_s": lp_busy,
        "lp.ns_per_cell": 1e9 * lp_busy / cells if cells else 0.0,
        "estimator.fit_at.self_s": sum(selfs[sid] for sid in fit_ids),
        "harness.task_s": busy_time(spans, "harness.task"),
        "cli.io_s": busy_time(spans, "cli.io"),
    })
    layers: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        layer = span.name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    samples = {
        "lp.ms": [1e3 * s.duration for s in lps],
        "harness.task_ms": [1e3 * s.duration for s in by_name.get("harness.task", [])],
    }
    return {"counts": counts, "times": times, "layers": layers, "samples": samples}


def run_traced(workload, inputs, seconds, workdir, notes):
    """One untraced multi-worker batch, then untraced and traced
    single-worker passes in turn for ``seconds``."""
    from locfront import harness

    agreement = _Agreement()
    multi_wall = None
    pools = _CountingPool(harness.ProcessPoolExecutor)
    deadline = time.perf_counter() + seconds
    if workload.pooled:
        harness.ProcessPoolExecutor = pools
        try:
            t0 = time.perf_counter()
            batch = workload.run(inputs, WORKERS, workdir / "timed")
            multi_wall = time.perf_counter() - t0
        finally:
            harness.ProcessPoolExecutor = pools.real
        agreement.check(batch, f"{WORKERS}-worker batch")

    untraced, traced, stats = [], [], []
    first_spans = None
    while not traced or time.perf_counter() < deadline:
        batch, wall, _ = _single_pass(workload, inputs, workdir, [])
        untraced.append(wall)
        agreement.check(batch, "untraced 1-worker pass")
        batch, wall, spans = _single_pass(workload, inputs, workdir, _probes())
        traced.append(wall)
        agreement.check(batch, "traced 1-worker pass")
        stats.append(_pass_stats(spans))
        if first_spans is None:
            first_spans = spans
        if stats[-1]["counts"] != stats[0]["counts"]:
            agreement.problems.append("traced passes counted different work")

    verdicts, failed_fits = oracle_check(first_spans, notes)
    fits = stats[0]["counts"]["estimator.fit_at.calls"]
    metrics = dict(stats[0]["counts"])
    for key in stats[0]["times"]:
        metrics[key] = statistics.median(s["times"][key] for s in stats)
    task_s = metrics.pop("harness.task_s")
    layers = {k: statistics.median(s["layers"][k] for s in stats) for k in stats[0]["layers"]}
    total = sum(layers.values())
    notes["layer_self_share"] = {
        layer: round(own / total, 4)
        for layer, own in sorted(layers.items(), key=lambda kv: -kv[1])
    }
    for key in ("lp.ms", "harness.task_ms"):
        pooled = [x for s in stats for x in s["samples"][key]]
        tail = tail_level(len(pooled))
        metrics[f"{key}.p50"] = percentile(pooled, 50.0) if pooled else 0.0
        metrics[f"{key}.p99"] = percentile(pooled, tail) if pooled else 0.0
        notes[f"{key}_samples"] = len(pooled)
        notes[f"{key}_tail_percentile"] = round(tail, 3)
    agreeing = [v.rel_err for v in verdicts if v.expected == v.got]
    metrics["lp.oracle_max_rel_err"] = max(agreeing, default=0.0)
    metrics["lp.oracle_mismatch"] = sum(v.mismatch for v in verdicts)
    metrics["harness.pools_started"] = pools.started
    metrics["harness.parallel_efficiency"] = (
        task_s / (WORKERS * multi_wall) if multi_wall else 0.0
    )
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = overhead
    notes.update(
        traced_passes=len(traced),
        untraced_passes=len(untraced),
        multi_worker_wall_s=multi_wall,
    )
    return metrics, fits, failed_fits, agreement.problems


# ---------------------------------------------------------------------------
# environment record


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "locfront").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu() -> dict:
    info = {"model": platform.processor() or platform.machine(), "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def environment(workload, seed: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "locfront" / "__init__.py").is_file():
        print(f"error: no locfront package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".benchmarks-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        inputs = workload.make_inputs(args.seed, workdir)
        workload.warm_up(inputs)
        if args.setup_only:
            return 0
        notes = environment(workload, args.seed, args.trace)
        if args.trace:
            metrics, fits, failed_fits, problems = run_traced(
                workload, inputs, args.seconds, workdir, notes
            )
        else:
            metrics, fits, failed_fits, problems = run_timed(
                workload, inputs, args.seed, args.seconds, workdir, notes
            )
    units = PER_LAYER if args.trace else END_TO_END
    failed = fits if problems else len(failed_fits)
    notes["failed_frac"] = f"{failed}/{fits}"
    notes["problems"] = problems
    for key, value in notes.items():
        print(f"# {key}: {json.dumps(value)}")
    result = {
        "correct": not problems,
        "attempted": fits,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
