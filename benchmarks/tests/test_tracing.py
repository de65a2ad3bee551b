"""Span bookkeeping: self time, busy time, percentiles and patching."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import locfront
from locfront import estimator, harness, lp
from tracing import (
    DurationLog, Span, Tracer, busy_time, instrument, percentile, self_times, tail_level,
)


def span(name, parent, start, end):
    return Span(name, parent, 0, start, end)


def test_self_time_subtracts_children_on_a_hand_built_tree():
    spans = [
        span("task", None, 0.0, 10.0),
        span("fit", 0, 1.0, 4.0),
        span("lp", 1, 1.5, 2.5),
        span("lp", 1, 3.0, 3.5),
        span("fit", 0, 5.0, 9.0),
        # overlaps its sibling: the union, not the sum, is covered
        span("io", 0, 8.0, 9.5),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 4.5, 3.0 - 1.5, 1.0, 0.5, 4.0, 1.5]


def test_busy_time_counts_outermost_spans_once():
    spans = [
        span("fit", None, 0.0, 2.0),
        span("fit", 0, 0.5, 1.0),
        span("lp", 0, 1.0, 1.5),
        span("fit", None, 3.0, 4.0),
    ]
    assert busy_time(spans, "fit") == 3.0
    assert busy_time(spans, "lp") == 0.5


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(1, 1001))
    assert tail_level(1000) == 99.0
    assert percentile(samples, tail_level(1000)) == 990
    assert percentile(samples[:500], tail_level(500)) == 490
    assert percentile(samples, 50.0) == 500
    # too few samples for ten beyond any level above the median: the maximum
    assert tail_level(12) == 100.0 and tail_level(20) == 50.0


def test_instrument_traces_every_binding_and_restores():
    originals = (estimator.fit_at, harness.fit_at, locfront.fit_at, lp.solve)
    data = locfront.Dataset([[0.2, 0.2], [0.5, 0.6], [0.7, 0.4]], [0.0, 1.0, 0.5])
    cfg = locfront.EstimatorConfig(beta_star=1, h=1.0)
    seen = []
    tracer = Tracer()
    probes = [
        ("locfront.estimator", "fit_at", "fit", None),
        ("locfront.lp", "solve", "lp", lambda info, a, k, out: seen.append(out)),
    ]
    with instrument(tracer, probes):
        assert harness.fit_at is estimator.fit_at is locfront.fit_at
        result = locfront.fit_at(data, [0.5, 0.5], cfg)
    assert (estimator.fit_at, harness.fit_at, locfront.fit_at, lp.solve) == originals
    names = [s.name for s in tracer.spans]
    assert names[0] == "fit" and set(names[1:]) == {"lp"}
    assert all(s.parent == 0 and s.root == 0 for s in tracer.spans[1:])
    assert len(seen) == len(names) - 1 and result.value == locfront.fit_at(
        data, [0.5, 0.5], cfg
    ).value


def test_duration_log_collects_calls_from_forked_workers(tmp_path):
    log = DurationLog(tmp_path / "seconds")
    data = locfront.Dataset([[0.2, 0.2], [0.5, 0.6], [0.7, 0.4]], [0.0, 1.0, 0.5])
    cfg = locfront.EstimatorConfig(beta_star=0, h=1.0)
    tasks = [(data, [0.5, 0.5], cfg)] * 5
    fork = multiprocessing.get_context("fork")
    with instrument(log, [("locfront.estimator", "fit_at", "fit", None)]):
        locfront.fit_at(*tasks[0])
        with ProcessPoolExecutor(2, mp_context=fork) as pool:
            list(pool.map(_fit, tasks))
    assert estimator.fit_at is locfront.fit_at and not hasattr(estimator.fit_at, "__wrapped__")
    seconds = log.take()
    assert len(seconds) == 6 and all(s > 0 for s in seconds)
    locfront.fit_at(*tasks[0])
    assert log.take() == []
    log.close()


def _fit(task):
    return harness.fit_at(*task).value
