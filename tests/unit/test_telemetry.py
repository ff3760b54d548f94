"""Unit tests for the telemetry subsystem: metrics, tracing, export."""

import json

import pytest

from repro import telemetry
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_SET,
    nearest_rank,
)
from repro.telemetry.trace import TraceRecorder


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_reset(self):
        c = Counter("x")
        c.inc(3)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("x")
        g.set(10)
        g.add(-4)
        assert g.value == 6


class TestHistogram:
    def test_aggregates(self):
        h = Histogram("x")
        for v in (3.0, 1.0, 4.0, 1.0, 2.0):
            h.observe(v)
        assert h.count == 5
        assert h.total == 11.0
        assert h.mean == 2.2
        assert h.counts == {3.0: 1, 1.0: 2, 4.0: 1, 2.0: 1}
        s = h.summary()
        assert (s["min"], s["max"]) == (1.0, 4.0)
        # Nearest rank: the 3rd of [1, 1, 2, 3, 4] and the 5th.
        assert (s["p50"], s["p99"]) == (2.0, 4.0)

    def test_percentiles_are_nearest_rank(self):
        h = Histogram("x")
        for v in range(1, 101):
            h.observe(float(v))
        # An observed value, never an interpolated 50.5.
        assert nearest_rank(h.counts, 50) == 50.0
        assert nearest_rank(h.counts, 0) == 1.0
        assert nearest_rank(h.counts, 99) == 99.0
        assert nearest_rank(h.counts, 100) == 100.0

    def test_summary_keys(self):
        h = Histogram("x")
        h.observe(2.0)
        s = h.summary()
        assert set(s) == {"count", "sum", "mean", "min", "max", "p50", "p99"}


class TestNullObjects:
    def test_null_metrics_are_inert(self):
        NULL_COUNTER.inc(100)
        NULL_GAUGE.set(100)
        NULL_HISTOGRAM.observe(100)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0
        assert NULL_HISTOGRAM.count == 0

    def test_disabled_registry_hands_out_null_set(self):
        reg = MetricsRegistry(enabled=False)
        group = reg.group("npu.dma")
        assert group is NULL_SET
        assert group.counter("x") is NULL_COUNTER
        group.bind("y", object(), "missing")  # no-op, no error
        assert reg.snapshot() == {}


class TestMetricsRegistry:
    def test_push_metrics_appear_in_snapshot(self):
        reg = MetricsRegistry(enabled=True)
        g = reg.group("npu.dma")
        g.counter("requests").inc(3)
        snap = reg.snapshot()
        assert snap["npu.dma.requests"] == 3

    def test_histogram_expands_with_suffixes(self):
        reg = MetricsRegistry(enabled=True)
        reg.group("a").histogram("lat").observe(4.0)
        snap = reg.snapshot()
        assert snap["a.lat.count"] == 1
        assert snap["a.lat.mean"] == 4.0

    def test_prefix_collision_gets_numbered(self):
        reg = MetricsRegistry(enabled=True)
        first = reg.group("npu.core")
        second = reg.group("npu.core")
        assert first.prefix == "npu.core"
        assert second.prefix == "npu.core#1"

    def test_binding_pulls_live_value(self):
        class Thing:
            hits = 0

        reg = MetricsRegistry(enabled=True)
        thing = Thing()
        reg.group("t").bind("hits", thing, "hits")
        thing.hits = 42
        assert reg.get("t.hits") == 42

    def test_binding_resolves_callables(self):
        class Thing:
            def depth(self):
                return 7

        reg = MetricsRegistry(enabled=True)
        thing = Thing()
        reg.group("t").bind("depth", thing, "depth")
        assert reg.get("t.depth") == 7

    def test_binding_outlives_callers_reference(self):
        # A scope-end snapshot must still see components the traced code
        # has already dropped (e.g. a SoC local to a script's main()).
        class Thing:
            hits = 1

        reg = MetricsRegistry(enabled=True)
        thing = Thing()
        thing.hits = 9
        reg.group("t").bind("hits", thing, "hits")
        del thing
        assert reg.snapshot()["t.hits"] == 9

    def test_to_json_round_trips(self):
        reg = MetricsRegistry(enabled=True)
        reg.group("a").counter("n").inc()
        assert json.loads(reg.to_json()) == {"a.n": 1}


#: collector -> (record one item tagged *tag* into it, the tags it holds)
SCOPED_COLLECTORS = {
    "metrics": (lambda c, tag: c.group(tag).counter("n").inc(),
                lambda c: [name.split(".")[0] for name in c.snapshot()]),
    "tracer": (lambda c, tag: c.instant(tag, "test"),
               lambda c: [event["name"] for event in c.events]),
    "profiler": (lambda c, tag: c.count(tag),
                 lambda c: list(c.counts)),
    "flows": (lambda c, tag: c.complete(c.allocate(), "dma", 0.0, 1.0, [],
                                        ("dma", "service"), context=tag),
              lambda c: [record.context for record in c.records]),
    "audit": (lambda c, tag: c.record(tag, "event"),
              lambda c: [record["kind"] for record in c.records]),
}


class TestScoped:
    @pytest.mark.parametrize("name", SCOPED_COLLECTORS)
    def test_handle_keeps_its_own_collector(self, name):
        record, tags = SCOPED_COLLECTORS[name]
        saved = getattr(telemetry, name)
        with telemetry.scoped(flow=True) as outer:
            record(getattr(telemetry, name), "outer")
            with telemetry.scoped(flow=True) as inner:
                assert getattr(telemetry, name) is getattr(inner, name)
                record(getattr(telemetry, name), "inner")
                assert tags(getattr(outer, name)) == ["outer"]
            assert tags(getattr(inner, name)) == ["inner"]
        assert tags(getattr(outer, name)) == ["outer"]
        assert getattr(telemetry, name) is saved

    def test_scoped_enables_and_restores(self):
        assert not telemetry.metrics.enabled
        with telemetry.scoped() as scope:
            assert telemetry.metrics.enabled
            assert telemetry.tracer.enabled
            scope.metrics.group("x").counter("n").inc()
            assert scope.metrics.get("x.n") == 1
        assert not telemetry.metrics.enabled
        assert telemetry.metrics.snapshot() == {}

    def test_scoped_trace_false_leaves_tracer_off(self):
        with telemetry.scoped(trace=False):
            assert telemetry.metrics.enabled
            assert not telemetry.tracer.enabled

    def test_scopes_nest_independently(self):
        with telemetry.scoped() as outer:
            outer.metrics.group("o").counter("n").inc()
            with telemetry.scoped() as inner:
                assert inner.metrics.snapshot() == {}
                inner.metrics.group("i").counter("n").inc(2)
                assert inner.metrics.get("i.n") == 2
            assert outer.metrics.get("o.n") == 1
            assert "i.n" not in outer.metrics.snapshot()


class TestTraceRecorder:
    def test_disabled_records_nothing(self):
        rec = TraceRecorder(enabled=False)
        rec.span("a", "cat", ts=0.0, dur=1.0)
        rec.instant("b", "cat")
        assert len(rec) == 0

    def test_span_and_instant_phases(self):
        rec = TraceRecorder(enabled=True)
        rec.span("s", "dma", ts=10.0, dur=5.0, track="dma", bytes=64)
        rec.instant("i", "guarder", ts=11.0, track="guarder")
        phases = [e["ph"] for e in rec.events]
        assert phases == ["X", "i"]
        assert rec.events[0]["args"]["bytes"] == 64

    def test_auto_timestamps_are_monotonic(self):
        rec = TraceRecorder(enabled=True)
        for _ in range(5):
            rec.instant("e", "cat")
        ts = [e["ts"] for e in rec.events]
        assert ts == sorted(ts)

    def test_chrome_trace_is_valid_json_with_monotonic_ts(self):
        rec = TraceRecorder(enabled=True)
        rec.span("late", "a", ts=50.0, dur=1.0, track="t1")
        rec.span("early", "a", ts=10.0, dur=1.0, track="t2")
        rec.instant("mid", "b", ts=20.0, track="t1")
        payload = json.loads(rec.to_chrome_trace())
        events = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        # One thread_name metadata record per track.
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {"t1", "t2"}

    def test_buffer_cap_counts_dropped(self):
        rec = TraceRecorder(enabled=True, max_events=3)
        for i in range(5):
            rec.instant(f"e{i}", "cat")
        assert len(rec) == 3
        assert rec.dropped == 2

    def test_categories_and_spans_by_category(self):
        rec = TraceRecorder(enabled=True)
        rec.span("s1", "dma", ts=0.0, dur=1.0)
        rec.span("s2", "dma", ts=1.0, dur=1.0)
        rec.instant("i1", "noc", ts=2.0)
        assert rec.categories() == {"dma": 2, "noc": 1}

    def test_timeline_lists_events(self):
        rec = TraceRecorder(enabled=True)
        rec.span("burst", "dma", ts=5.0, dur=2.0, track="dma")
        text = rec.to_timeline()
        assert "burst" in text and "dma" in text


class TestEndToEnd:
    """Telemetry over real simulator components."""

    def _run_detailed(self):
        from repro import SoC, SoCConfig
        from repro.workloads.synthetic import synthetic_mlp

        soc = SoC(SoCConfig(protection="snpu"))
        model = synthetic_mlp()
        soc.run_model(model, detailed=True)

    def test_detailed_run_populates_registry(self):
        with telemetry.scoped(trace=False) as scope:
            self._run_detailed()
            snap = scope.metrics.snapshot()
        assert snap["mmu.guarder.checks"] > 0
        assert snap["mmu.guarder.denials"] == 0
        assert any(k.startswith("npu.dma") for k in snap)

    def test_metrics_deterministic_across_runs(self):
        with telemetry.scoped(trace=False) as scope:
            self._run_detailed()
            first = scope.metrics.snapshot()
        with telemetry.scoped(trace=False) as scope:
            self._run_detailed()
            second = scope.metrics.snapshot()
        assert first == second

    def test_trace_deterministic_across_runs(self):
        with telemetry.scoped() as scope:
            self._run_detailed()
            first = scope.tracer.to_chrome_trace()
        with telemetry.scoped() as scope:
            self._run_detailed()
            second = scope.tracer.to_chrome_trace()
        assert first == second

    def test_disabled_mode_is_a_no_op(self):
        before_events = len(telemetry.tracer)
        self._run_detailed()
        assert telemetry.metrics.snapshot() == {}
        assert len(telemetry.tracer) == before_events

    def test_traced_run_covers_multiple_subsystems(self):
        with telemetry.scoped() as scope:
            from repro import SoC, SoCConfig
            from repro.workloads.synthetic import synthetic_mlp

            model = synthetic_mlp()
            soc = SoC(SoCConfig(protection="snpu"))
            handle = soc.submit(model, secure=True)
            soc.run(handle)
            tz = SoC(SoCConfig(protection="trustzone"))
            tz_handle = tz.submit(model, secure=True)
            tz.run(tz_handle, detailed=True)
            tz.release(tz_handle)
            cats = set(scope.tracer.categories())
        assert {"dma", "iotlb", "guarder", "noc", "scheduler"} <= cats


class TestTraceSpans:
    """Chrome-trace export of an empty buffer and event filtering."""

    def test_empty_trace_exports_valid_chrome_json(self):
        rec = TraceRecorder(enabled=True)
        payload = json.loads(rec.to_chrome_trace())
        assert payload["traceEvents"] == []
        assert "otherData" in payload

    def test_filter_by_cat_name_track_and_phase(self):
        rec = TraceRecorder(enabled=True)
        rec.span("burst", "dma", ts=0.0, dur=1.0, track="dma")
        rec.span("walk", "iotlb", ts=1.0, dur=2.0, track="mmu")
        rec.instant("deny", "guarder", ts=2.0, track="mmu")
        assert [e["name"] for e in rec.filter(cat="dma")] == ["burst"]
        assert [e["name"] for e in rec.filter(track="mmu")] == ["walk", "deny"]
        assert [e["name"] for e in rec.filter(ph="i")] == ["deny"]
        assert rec.filter(cat="iotlb", name="walk", track="mmu", ph="X")
        assert not rec.filter(cat="iotlb", track="dma")
