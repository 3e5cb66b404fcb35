"""Tests for the benchmark's own helpers (no workload runs here).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import querymix  # noqa: E402
from perfbench.metrics import KIND_METRIC, SELF_TIME, \
    load_spec  # noqa: E402
from perfbench.stats import Ledger, percentile, quartile_spread, \
    samples_beyond, tail_percentile  # noqa: E402
from perfbench.tracing import ROOT as ROOT_KIND  # noqa: E402
from perfbench.tracing import Instrumentation, Patcher, Tracer, \
    timed  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (40, 75.0), (50, 80.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (500, 98.0), (1000, 99.0), (2000, 99.5),
    (10_000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_nearest_rank_percentile():
    values = list(range(1, 201))            # 1..200
    assert percentile(values, 50) == 100
    assert percentile(values, 95) == 190
    assert samples_beyond(200, 95) == 10    # 191..200
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartile_spread_is_relative_to_median():
    assert quartile_spread([10.0] * 10) == 0.0
    spread = quartile_spread([9, 10, 10, 10, 11, 10, 10, 9, 11, 10])
    assert 0.0 < spread < 0.2


# -- self time ---------------------------------------------------------------


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer"):          # 0 .. 10
        clock.now = 2.0
        with tracer.span("inner"):      # 2 .. 5
            clock.now = 3.0
            with tracer.span("leaf", record=False):   # 3 .. 4
                clock.now = 4.0
            clock.now = 5.0
        clock.now = 6.0
        with tracer.span("inner"):      # 6 .. 7
            clock.now = 7.0
        clock.now = 10.0
    assert tracer.self_s["outer"] == pytest.approx(6.0)
    assert tracer.self_s["inner"] == pytest.approx(3.0)
    assert tracer.self_s["leaf"] == pytest.approx(1.0)
    assert sum(tracer.self_s.values()) == pytest.approx(10.0)
    assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 1}
    # only recorded spans are kept; parents point at recorded spans
    assert [(k, s, e, p) for k, s, e, p in tracer.spans] == [
        ("outer", 0.0, 10.0, -1), ("inner", 2.0, 5.0, 0),
        ("inner", 6.0, 7.0, 0)]


def test_wrappers_record_only_inside_the_root():
    clock = FakeClock()
    tracer = Tracer(clock)

    def work():
        clock.now += 1.0
        return 3

    seen = []
    traced = timed(tracer, "layer.op", work,
                   on_result=lambda args, result: seen.append(result))
    assert traced() == 3                    # outside the root: untimed
    assert tracer.self_s == {} and seen == []
    with tracer.root():
        traced()
        clock.now += 0.5
    assert tracer.self_s["layer.op"] == pytest.approx(1.0)
    assert tracer.self_s[ROOT_KIND] == pytest.approx(0.5)
    assert tracer.root_seconds() == pytest.approx(1.5)
    assert seen == [3]


def test_nested_same_kind_counts_once():
    tracer = Tracer(FakeClock())
    seen = []

    def inner():
        return 1

    inner_t = timed(tracer, "store.ingest", inner,
                    on_result=lambda a, r: seen.append("inner"))
    outer_t = timed(tracer, "store.ingest", lambda: inner_t(),
                    on_result=lambda a, r: seen.append("outer"))
    with tracer.root():
        outer_t()
    assert seen == ["outer"]


def test_patcher_restores_and_missing_targets_are_skipped():
    class Target:
        def method(self):
            return "original"

    patcher = Patcher()
    assert patcher.replace(Target, "method", lambda fn: lambda self: "new")
    assert not patcher.replace(Target, "gone", lambda fn: fn)
    assert not patcher.replace(None, "method", lambda fn: fn)
    assert Target().method() == "new"
    patcher.restore()
    assert Target().method() == "original"


def test_instrumentation_marks_vanished_layers_absent(monkeypatch):
    import perfbench.tracing as tracing

    real = tracing.find_class

    def without_flows(module, name):
        return None if name == "FlowAssembler" else real(module, name)

    monkeypatch.setattr(tracing, "find_class", without_flows)
    instrumentation = Instrumentation(Tracer()).install()
    try:
        assert instrumentation.absent == ["flows"]
    finally:
        instrumentation.uninstall()
    from repro.capture.flows import FlowAssembler
    assert not hasattr(FlowAssembler.add_packets, tracing.MARK)


# -- the query mix ----------------------------------------------------------


def test_same_seed_gives_identical_query_sequence():
    first = querymix.query_round(seed=5, span_s=120.0)
    assert querymix.query_round(seed=5, span_s=120.0) == first
    assert querymix.query_round(seed=6, span_s=120.0) != first
    classes = [spec.cls for spec in first]
    assert {c: classes.count(c) for c in querymix.ROUND} == querymix.ROUND
    # a slow query, then seven cheap ones, five times over
    assert [classes[i] for i in range(0, 40, 8)] == list(querymix.SLOW)
    for spec in first:
        assert 0.0 <= spec.offset_s <= 120.0 - querymix.RANGE_S


# -- the ledger ------------------------------------------------------------


def test_ledger_balances_and_catches_unbalanced_counters():
    ledger = Ledger()
    for name, value in {"offered": 100, "captured": 97, "capacity": 3,
                        "stored": 95, "backpressure": 2}.items():
        ledger.set(name, value)
    ledger.require("capture", "offered", "captured", "capacity")
    ledger.require("delivery", "captured", "stored", "backpressure")
    assert ledger.violations() == []

    ledger.set("stored", 96)                # one packet out of nowhere
    problems = ledger.violations()
    assert len(problems) == 1 and problems[0].startswith("delivery")

    ledger.require("cold", "cold.records", "stored")
    assert any("no counter cold.records" in p for p in ledger.violations())


# -- the metric tables and BENCHMARK.json -------------------------------


def test_self_time_metrics_are_per_layer_metrics():
    _, per_layer = load_spec()
    assert set(KIND_METRIC.values()) <= set(SELF_TIME)
    assert set(SELF_TIME) <= set(per_layer)
