"""End-to-end tests for ``repro diagnose`` and its CLI integrations.

Covers the acceptance bar of the diagnosis PR: byte-deterministic
diagnosis output across same-seed invocations, all three input modes
(archived pair, BENCH file vs history, live back-to-back), the exit-code
contract (0 ok / 2 bad input; the argv-only cases are rows of
``test_cli_contract.py``), the diagnosis a failed ``bench diff
--history`` gate attaches, the report comparison page, and ``repro
history`` on an archived metric.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.store import RunStore
from repro.store.ingest import record_from_bench


def _archive_profiles(protections=("none", "trustzone")):
    """Archive one mobilenet profile per protection; returns run ids in
    protection order."""
    for protection in protections:
        assert main([
            "profile", "mobilenet", "--input-size", "64",
            "--protection", protection, "-o", "/dev/null",
        ]) == 0
    store = RunStore()
    by_protection = {
        run["protection"]: run["run_id"] for run in store.runs_by_recency()
    }
    return [by_protection[p] for p in protections]


def _archive_bench_history(store, seconds_series):
    for i, secs in enumerate(seconds_series):
        payload = {
            "bench_id": "demo",
            "config_digest": "c" * 16,
            "source_digest": f"historic-{i}",
            "metrics": {"deterministic": {"rows": 10},
                        "timing": {"run_seconds": secs}},
        }
        store.ingest(record_from_bench(payload, "demo"))


class TestArchivedPairMode:
    def test_diagnose_two_run_ids(self, capsys):
        id_a, id_b = _archive_profiles()
        assert main(["diagnose", id_a, id_b]) == 0
        out = capsys.readouterr().out
        assert "== diagnose[archive]:" in out
        assert "parts sum exactly to the end-to-end delta" in out
        assert "dma.stall.iotlb" in out  # trustzone's signature overhead

    def test_abbreviated_ids_resolve(self, capsys):
        id_a, id_b = _archive_profiles()
        assert main(["diagnose", id_a[:8], id_b[:8]]) == 0
        assert "== diagnose[archive]:" in capsys.readouterr().out

    def test_unknown_id_exits_two(self, capsys):
        _archive_profiles()
        assert main(["diagnose", "feedfeed", "deadbeef"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_same_run_twice_exits_two(self, capsys):
        id_a, _ = _archive_profiles()
        assert main(["diagnose", id_a, id_a]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestLiveMode:
    def test_profile_pair_is_byte_deterministic(self, tmp_path):
        paths = [tmp_path / "d1.json", tmp_path / "d2.json"]
        for path in paths:
            assert main([
                "diagnose", "mobilenet", "--a", "none", "--b", "trustzone",
                "--input-size", "64", "--format", "json", "-o", str(path),
            ]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        payload = json.loads(paths[0].read_text())
        total = payload["total"]["delta"]
        assert total == sum(p["delta"] for p in payload["parts"])
        assert payload["verdicts"]

    def test_serve_scenario_pair(self, capsys):
        assert main([
            "diagnose", "default", "--a", "snpu", "--b", "flush-layer",
            "--duration", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "== diagnose[serve]:" in out
        assert "serve.service" in out

    def test_fig13_alias_profiles_resnet(self, capsys):
        assert main([
            "diagnose", "fig13", "--a", "baseline", "--b", "snpu",
            "--input-size", "64", "--analytic",
        ]) == 0
        out = capsys.readouterr().out
        assert "resnet:none -> resnet:snpu" in out
        assert "fig13 alias" in out


class TestBenchMode:
    def test_bench_file_vs_history(self, tmp_path, capsys):
        _archive_bench_history(RunStore(), [1.0, 1.02, 0.98])
        bench = tmp_path / "BENCH_demo.json"
        bench.write_text(json.dumps({
            "bench_id": "demo", "config_digest": "c" * 16,
            "source_digest": "new",
            "metrics": {"deterministic": {"rows": 10},
                        "timing": {"run_seconds": 1.2}},
        }))
        assert main(["diagnose", str(bench), "--history", "3"]) == 0
        out = capsys.readouterr().out
        assert "== diagnose[bench]: demo@history-median[3] -> demo@new ==" \
            in out
        assert "timing.run_seconds" in out

    def test_failed_history_gate_attaches_diagnosis(self, tmp_path, capsys):
        _archive_bench_history(RunStore(), [1.0, 1.02, 0.98])
        bench = tmp_path / "BENCH_demo.json"
        bench.write_text(json.dumps({
            "bench_id": "demo", "config_digest": "c" * 16,
            "source_digest": "new",
            "metrics": {"deterministic": {"rows": 10},
                        "timing": {"run_seconds": 1.2}},
        }))
        assert main([
            "bench", "diff", str(bench), "--history", "3",
            "--timing-tolerance", "0.1",
        ]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "== diagnose[bench]:" in out
        assert "gate: FAIL: 1 regression(s)" in out


class TestReportComparisonPage:
    def test_report_grows_comparison_section(self, tmp_path, capsys):
        _archive_profiles()
        first, second = tmp_path / "r1.html", tmp_path / "r2.html"
        assert main(["report", "-o", str(first)]) == 0
        assert main(["report", "-o", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        html = first.read_text()
        assert "Run comparison" in html
        assert "parts sum exactly to the end-to-end delta" in html
        assert "<script" not in html

    def test_pinned_compare_pair(self, tmp_path, capsys):
        id_a, id_b = _archive_profiles()
        out = tmp_path / "pinned.html"
        assert main(["report", "--compare", id_a, id_b,
                     "-o", str(out)]) == 0
        capsys.readouterr()
        assert "pinned pair" in out.read_text()


class TestCannedQueries:
    def test_diagnose_pairs_lists_the_pair(self, capsys):
        _archive_profiles()
        assert main(["query", "diagnose-pairs"]) == 0
        out = capsys.readouterr().out
        assert "protection" in out and "(1 row)" in out

    def test_slo_burn_runs_on_empty_archive(self, capsys):
        _archive_profiles()  # store exists, no slo runs
        assert main(["query", "slo-burn"]) == 0
        assert "(0 rows)" in capsys.readouterr().out

    def test_slo_burn_after_breaching_run(self, tmp_path, capsys):
        # A p99 floor no real run can meet guarantees archived alerts.
        spec = tmp_path / "tight.json"
        spec.write_text(json.dumps({
            "name": "impossible", "scenario": "nlp-mix",
            "window_ms": 50.0, "fast_windows": 1, "slow_windows": 2,
            "burn_threshold": 0.001,
            "objectives": [
                {"tenant": "chat", "p99_ms": 0.001, "sla_target": 0.999},
            ],
        }))
        assert main([
            "slo", "nlp-mix", "--spec", str(spec),
            "--duration", "200", "--seed", "7",
        ]) == 1
        assert main(["query", "slo-burn"]) == 0
        out = capsys.readouterr().out
        assert "worst_tenant" in out and "chat" in out
        assert "(1 row)" in out

    def test_canned_list_mentions_new_queries(self, capsys):
        assert main(["query", "--list"]) == 0
        out = capsys.readouterr().out
        assert "slo-burn" in out and "diagnose-pairs" in out


class TestHistoryContract:
    def test_present_metric_exits_zero(self, capsys):
        _archive_profiles()
        assert main(["history", "profile.total_cycles"]) == 0
        out = capsys.readouterr().out
        assert "profile.total_cycles" in out and "(2 rows)" in out
