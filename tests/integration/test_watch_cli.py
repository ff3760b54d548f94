"""Integration tests for ``repro watch`` and ``repro slo``.

The live-observability acceptance gates: byte-identical output for a
fixed seed, exact window reconciliation (enforced inside the run — a
mismatch raises before anything prints) and the documented exit-code
contract for the SLO gate (0 ok / 1 breach / 2 unusable spec).
"""

import json

import pytest

from repro.cli import main

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
