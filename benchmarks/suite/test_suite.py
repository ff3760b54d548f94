"""Tests of the benchmark suite's own logic.

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import leg  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Leg  # noqa: E402


class TickClock:
    """Every reading is 10 ns after the previous one."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        self.now += 10
        return self.now


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_self_time_of_nested_and_reentrant_spans():
    recorder = spans.Recorder(clock=TickClock())
    leaf = recorder.wrap("leaf", lambda: None)

    def countdown(n):
        return traced(n - 1) if n else leaf()

    traced = recorder.wrap("countdown", countdown)
    recorder.wrap("root", lambda: traced(2))()
    data = recorder.to_json()

    own = spans.check(data, "leg")
    # root, countdown(2), countdown(1), countdown(0), leaf
    assert own == [20, 20, 20, 20, 10]
    assert sum(own) == data["end"][0] - data["start"][0]
    totals = spans.layer_totals(
        data, own, {"root": "cli", "countdown": "count", "leaf": "leaf"})
    # Re-entering a layer from inside itself is not another call.
    assert totals["count"] == {"calls": 1, "leaves": 0, "self_ns": 60}
    assert totals["leaf"] == {"calls": 1, "leaves": 1, "self_ns": 10}


def test_subclass_handle_calling_super_is_one_call():
    class IOMMU:
        def handle(self, request):
            return request

    class TrustZoneSMMU(IOMMU):
        def handle(self, request):
            return super().handle(request)

    module = types.ModuleType("fake_mmu")
    module.IOMMU, module.TrustZoneSMMU = IOMMU, TrustZoneSMMU
    recorder = spans.Recorder(clock=TickClock())
    leg._patch(recorder, module, "IOMMU.handle")
    leg._patch(recorder, module, "TrustZoneSMMU.handle")
    smmu = TrustZoneSMMU()
    recorder.wrap("main", lambda: [smmu.handle(i) for i in range(3)])()
    data = recorder.to_json()

    own = spans.check(data, "leg")
    layer_of = {"main": "cli", "IOMMU.handle": "mmu.iommu",
                "TrustZoneSMMU.handle": "mmu.iommu"}
    totals = spans.layer_totals(data, own, layer_of)
    outer = [i for i, p in enumerate(data["parent"]) if p == 0]
    assert totals["mmu.iommu"]["calls"] == 3
    assert totals["mmu.iommu"]["self_ns"] == sum(
        data["end"][i] - data["start"][i] for i in outer)


def test_classmethod_patch_keeps_binding():
    class Report:
        @classmethod
        def build(cls, value):
            return cls, value

    module = types.ModuleType("fake_report")
    module.Report = Report
    recorder = spans.Recorder()
    leg._patch(recorder, module, "Report.build")
    assert Report.build(3) == (Report, 3)
    assert recorder.to_json()["names"] == ["Report.build"]


def test_module_function_patch_rebinds_importers():
    def ingest():
        return "ok"

    home = types.ModuleType("fake_store")
    user = types.ModuleType("fake_user")
    home.ingest = user.ingest = ingest
    sys.modules["fake_store"], sys.modules["fake_user"] = home, user
    try:
        recorder = spans.Recorder()
        leg._patch(recorder, home, "ingest")
        assert user.ingest is home.ingest is not ingest
        assert user.ingest() == "ok"
        assert len(recorder.to_json()["start"]) == 1
    finally:
        del sys.modules["fake_store"], sys.modules["fake_user"]


@pytest.mark.parametrize("change, message", [
    ({"end": [100, 95, 90]}, "negative self time"),
    ({"end": [100, 40, -1]}, "never closed"),
    ({"parent": [-1, 0, -1]}, "outside the root"),
])
def test_check_rejects_broken_spans(change, message):
    data = {"names": ["main", "f"], "name": [0, 1, 1],
            "start": [0, 5, 50], "end": [100, 40, 90], "parent": [-1, 0, 0]}
    spans.check(dict(data), "leg")
    with pytest.raises(spans.HarnessError, match=message):
        spans.check({**data, **change}, "leg")


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def test_summary_best_median_iqr():
    assert run.summarize([3.0, 1.0, 2.0, 5.0, 4.0]) == {
        "best": 1.0, "median": 3.0, "iqr": 3.0, "n": 5}
    assert run.summarize([2.5]) == {
        "best": 2.5, "median": 2.5, "iqr": 0.0, "n": 1}


def test_end_to_end_takes_best_wall_and_median_setup():
    def leg_run(main_s, wall_s, rss_kb):
        return run.LegRun(Leg("x", ()), 0, int(wall_s * 1e9),
                          int(main_s * 1e9), rss_kb, b"", {})

    rounds = [[leg_run(2.0, 2.5, 2048)], [leg_run(1.0, 1.2, 1024)],
              [leg_run(3.0, 3.1, 4096)]]
    values, spread = run.end_to_end("fig13", rounds)
    assert values["wall_s"] == 1.0
    assert values["setup_s"] == pytest.approx(0.2)
    assert values["peak_rss_mb"] == 1.0
    assert spread["wall_s"]["median"] == 2.0


# ----------------------------------------------------------------------
# Paper-shape checks and failed legs
# ----------------------------------------------------------------------
FIG13 = [
    {"exp_id": "fig13a", "columns": ["workload", "guarder", "iotlb-4"],
     "rows": [{"workload": "m", "guarder": 1.0, "iotlb-4": 0.8}]},
    {"exp_id": "fig13b",
     "rows": [{"guarder_requests": 5, "iommu_requests": 100}]},
]
FIG15 = [{"exp_id": "fig15", "rows": [
    {"pair": "a/b", "policy": "partition-0.5", "total": 2.0},
    {"pair": "a/b", "policy": "partition-0.75", "total": 2.2},
    {"pair": "a/b", "policy": "dynamic(split=0.5)", "total": 2.0},
]}]


def encode(payload) -> bytes:
    return json.dumps(payload).encode()


def serve_outputs(prefix: str, p99s) -> dict:
    return {
        prefix + mechanism: encode({"aggregate": {"p99_ms": p99}})
        for mechanism, p99 in zip(workloads.MECHANISMS, p99s)
    }


def test_figure_shapes_accept_the_paper_and_reject_perturbations():
    assert workloads.shape_failures("fig13", {"fig13": encode(FIG13)}) == set()
    assert workloads.shape_failures("fig15", {"fig15": encode(FIG15)}) == set()

    faster = json.loads(json.dumps(FIG13))
    faster[0]["rows"][0]["iotlb-4"] = 1.1
    more = json.loads(json.dumps(FIG13))
    more[1]["rows"][0]["guarder_requests"] = 100
    worse = json.loads(json.dumps(FIG15))
    worse[0]["rows"][2]["total"] = 2.1
    assert workloads.shape_failures("fig13", {"fig13": encode(faster)}) == {"fig13"}
    assert workloads.shape_failures("fig13", {"fig13": encode(more)}) == {"fig13"}
    assert workloads.shape_failures("fig15", {"fig15": encode(worse)}) == {"fig15"}
    assert workloads.shape_failures("fig15", {}) == {"fig15"}


@pytest.mark.parametrize("workload, prefix", [
    ("serve-zoo", "serve-zoo/default/"), ("cluster-1e6", "cluster-1e6/")])
def test_flush_tile_tail_check(workload, prefix):
    ok = serve_outputs(prefix, (81.72, 81.72, 191.7))  # ties are allowed
    assert workloads.shape_failures(workload, ok) == set()
    swapped = serve_outputs(prefix, (191.7, 81.72, 81.72))
    assert workloads.shape_failures(workload, swapped) == set(swapped)
    missing = serve_outputs(prefix, (81.72, 81.72, 191.7))
    missing.pop(prefix + "partition")
    assert workloads.shape_failures(workload, missing) == set(ok)


def fig15_run(output: bytes = None, rc: int = 0) -> run.LegRun:
    return run.LegRun(Leg("fig15", ()), rc, 1, 1, 1, output or encode(FIG15))


def test_digest_mismatch_and_round_drift_count_as_failed_legs():
    good = {"fig15": run.sha256(encode(FIG15))}
    rounds = [[fig15_run()], [fig15_run()]]
    assert run.failures("fig15", rounds, good) == [0, 0]
    assert run.failures("fig15", rounds, {"fig15": "0" * 64}) == [1, 1]
    assert run.failures("fig15", rounds, None) == [0, 0]

    drifted = json.loads(json.dumps(FIG15))
    drifted[0]["rows"][0]["total"] = 2.05
    rounds = [[fig15_run()], [fig15_run(encode(drifted))], [fig15_run(rc=1)]]
    assert run.failures("fig15", rounds, None) == [0, 1, 1]


# ----------------------------------------------------------------------
# A real leg through the runner
# ----------------------------------------------------------------------
def test_real_traced_leg(tmp_path):
    burst = Leg("serve-zoo/burst/partition",
                ("serve", "burst", "--mechanism", "partition", "--format",
                 "json"))
    result = run.run_leg(burst, str(tmp_path), 0, traced=True)

    assert result.rc == 0
    assert json.loads(result.output)["mechanism"] == "partition"
    assert result.main_ns > 0 and result.wall_ns > result.main_ns
    assert result.counts["serving.requests"] == json.loads(
        result.output)["completed"]
    names = result.spans["names"]
    assert names[result.spans["name"][0]] == "repro.cli.main"
    assert {leg.LAYER_OF[n] for n in names} >= {"cli", "serving.queue"}

    layers = run.per_layer([result], best_wall_s=result.main_ns / 1e9)
    assert layers["serving.queue.calls"] == 1
    assert layers["store.ingest.calls"] == 1
    assert [name for name, _ in run.LAYER_METRICS] == list(layers)

    trace_path = tmp_path / "trace.json"
    trace = spans.ChromeTrace(str(trace_path), 0)
    trace.add_leg(result.spans, leg.LAYER_OF, 1, 1, burst.name)
    trace.close()
    events = [e for e in json.loads(trace_path.read_text())["traceEvents"]
              if e["ph"] == "X"]
    assert len(events) == len(result.spans["start"])
    assert all({"name", "ts", "dur", "pid", "tid"} <= set(e) for e in events)
    assert {e["args"]["request"] for e in events} == {burst.name}


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        run.LAYER_METRICS)
