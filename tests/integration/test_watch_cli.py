"""Integration tests for ``repro watch`` and ``repro slo``.

The live-observability acceptance gates: byte-identical output for a
fixed seed, exact window reconciliation (enforced inside the run — a
mismatch raises before anything prints) and the documented exit-code
contract for the SLO gate (0 ok / 1 breach / 2 unusable spec).
"""

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.serving.queueing import ServeSimulator
from repro.serving.workload import SCENARIOS
from repro.telemetry.slo import default_spec, evaluate

ARGS = ["--duration", "200", "--seed", "7"]


class TestWatchCLI:
    def test_table_is_byte_identical_across_runs(self, tmp_path):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in paths:
            assert main(["watch", "nlp-mix", *ARGS, "-o", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_is_byte_identical_across_runs(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main([
                "watch", "nlp-mix", *ARGS, "--format", "json",
                "-o", str(path),
            ]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_timeline_schema(self, tmp_path):
        path = tmp_path / "watch.json"
        assert main([
            "watch", "nlp-mix", *ARGS, "--window", "25",
            "--format", "json", "-o", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["scenario"] == "nlp-mix"
        assert payload["window_ms"] == 25.0
        assert payload["completed"] > 0
        timeline = payload["timeline"]
        assert timeline, "timeline must not be empty"
        # Windows are dense and consecutive from 0.
        assert [rec["window"] for rec in timeline] == list(
            range(len(timeline)))
        for rec in timeline:
            assert set(rec["tenants"]) == {"chat", "embed", "rank"}
            for stats in rec["tenants"].values():
                assert stats["sla_ok"] <= stats["completions"]
        # Per-window completions sum to the run total (the rendered
        # face of the Fraction-exact reconciliation invariant).
        done = sum(
            stats["completions"]
            for rec in timeline for stats in rec["tenants"].values()
        )
        assert done == payload["completed"]

    def test_table_mentions_every_tenant_and_totals(self, capsys):
        assert main(["watch", "nlp-mix", *ARGS]) == 0
        out = capsys.readouterr().out
        for name in ("chat", "embed", "rank"):
            assert name in out
        assert "reconcile exactly" in out

    def test_window_size_changes_row_count(self, tmp_path):
        rows = {}
        for window in ("25", "100"):
            path = tmp_path / f"w{window}.json"
            assert main([
                "watch", "nlp-mix", *ARGS, "--window", window,
                "--format", "json", "-o", str(path),
            ]) == 0
            rows[window] = len(json.loads(path.read_text())["timeline"])
        assert rows["25"] > rows["100"]


#: The pinned values of the windowed nlp-mix run below.
WINDOWED_NLP_MIX = {
    "completed": 76, "windows": 9, "window_completions_sum": 76,
    "window_sla_ok_sum": 48, "flushes": 0, "world_switches": 42,
    "slo_alerts_fired": 0, "slo_window_breaches": 0,
}


def test_windowed_nlp_mix_run_is_pinned():
    """nlp-mix under snpu at seed 7: 400 ms served plain and in 50 ms
    windows.  Windowing serves the same requests, and the window
    timeline and its built-in SLO verdict are bit-exact."""
    scenario = SCENARIOS["nlp-mix"]

    def serve(window_ms):
        with telemetry.scoped(trace=False, profile=False):
            return ServeSimulator(
                scenario, mechanism="snpu", seed=7, duration_ms=400.0,
                window_ms=window_ms,
            ).run()

    plain, windowed = serve(None), serve(50.0)
    timeline = windowed.windows.timeline()
    slo = evaluate(default_spec(
        "nlp-mix", {t.name: t.sla_ms for t in scenario.tenants},
        window_ms=50.0,
    ), timeline)
    tenants = [t for rec in timeline for t in rec["tenants"].values()]
    assert len(windowed.completed) == len(plain.completed)
    assert {
        "completed": len(windowed.completed),
        "windows": len(timeline),
        "window_completions_sum": sum(t["completions"] for t in tenants),
        "window_sla_ok_sum": sum(t["sla_ok"] for t in tenants),
        "flushes": windowed.flushes,
        "world_switches": windowed.world_switches,
        "slo_alerts_fired": len(slo.fired),
        "slo_window_breaches": len(slo.breaches),
    } == WINDOWED_NLP_MIX


class TestSLOCLI:
    def test_committed_spec_passes(self, capsys):
        code = main([
            "slo", "nlp-mix", "--spec", "specs/nlp-mix.slo.json",
            "--duration", "400", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "OK" in out

    def test_breaching_spec_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "tight.json"
        spec.write_text(json.dumps({
            "name": "impossible", "scenario": "nlp-mix",
            "window_ms": 50.0, "fast_windows": 1, "slow_windows": 2,
            "burn_threshold": 0.001,
            "objectives": [
                # p99 floor no real run can meet.
                {"tenant": "chat", "p99_ms": 0.001, "sla_target": 0.999},
            ],
        }))
        code = main([
            "slo", "nlp-mix", "--spec", str(spec),
            "--duration", "200", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 1, out
        assert "BREACHED" in out

    def test_json_report_format(self, tmp_path):
        path = tmp_path / "slo.json"
        code = main([
            "slo", "nlp-mix", "--spec", "specs/nlp-mix.slo.json",
            "--duration", "400", "--seed", "7",
            "--format", "json", "-o", str(path),
        ])
        payload = json.loads(path.read_text())
        assert code == 0
        assert payload["ok"] is True
        assert payload["scenario"] == "nlp-mix"
        assert payload["windows_evaluated"] > 0
