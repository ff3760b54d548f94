"""End-to-end tests for the run archive CLI surface.

Covers the acceptance bar of the observability PR: byte-identical
``repro report`` output across same-seed invocations, ``repro query``
exit codes, ``--jobs 4`` vs serial producing identical archive rows,
and the ``repro bench diff --history`` gate flagging an injected
regression.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.experiments.parallel import run_parallel
from repro.store import RunStore
from repro.store.ingest import record_from_bench

# Cheap experiments with non-trivial figure data (see
# test_parallel_determinism.py for the choice).
IDS = ["fig16", "tcb"]
PROFILE = "tiny"


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


class TestReportDeterminism:
    def test_same_seed_reports_are_byte_identical(self, tmp_path, capsys):
        assert main(["stats", "alexnet", "--input-size", "32"]) == 0
        first = tmp_path / "r1.html"
        assert main(["report", "-o", str(first)]) == 0
        # Re-run the same configuration (replaces the same archive row)
        # and rebuild: the dashboard must not move by a byte.
        assert main(["stats", "alexnet", "--input-size", "32"]) == 0
        second = tmp_path / "r2.html"
        assert main(["report", "-o", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        html = first.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html  # self-contained, no JS


class TestQueryExitCodes:
    def test_zero_rows_exits_zero(self, capsys):
        assert main(["stats", "alexnet", "--input-size", "32"]) == 0
        capsys.readouterr()
        assert main(
            ["query", "SELECT verb FROM runs WHERE verb = 'nope'"]
        ) == 0
        assert "(0 rows)" in capsys.readouterr().out

    def test_canned_list_exits_zero(self, capsys):
        assert main(["query", "--list"]) == 0
        out = capsys.readouterr().out
        assert "top-regressions" in out and "deny-history" in out


class TestJobsArchiveParity:
    def test_jobs4_archives_identical_rows_to_serial(
        self, tmp_path, monkeypatch
    ):
        serial_store = str(tmp_path / "serial.sqlite")
        pooled_store = str(tmp_path / "pooled.sqlite")
        monkeypatch.setenv("REPRO_STORE", serial_store)
        run_parallel(IDS, profile=PROFILE, jobs=1)
        monkeypatch.setenv("REPRO_STORE", pooled_store)
        run_parallel(IDS, profile=PROFILE, jobs=4)

        serial = RunStore(serial_store).dump()
        pooled = RunStore(pooled_store).dump()
        assert serial == pooled
        assert len(serial["runs"]) == len(IDS)
        verbs = {entry["verb"] for entry in serial["runs"].values()}
        assert verbs == {"experiment"}


class TestBenchHistoryGate:
    def _new_bench(self, tmp_path, run_seconds):
        payload = {
            "bench_id": "demo",
            "metrics": {"deterministic": {"rows": 10},
                        "timing": {"run_seconds": run_seconds}},
        }
        path = tmp_path / "BENCH_demo.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_injected_20pct_regression_fails_gate(self, tmp_path, capsys):
        _archive_bench_history(RunStore(), [1.0, 1.02, 0.98])
        regressed = self._new_bench(tmp_path, 1.20)
        assert main([
            "bench", "diff", regressed, "--history", "3",
            "--timing-tolerance", "0.1",
        ]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "median of last 3" in out

    def test_healthy_run_passes_gate(self, tmp_path, capsys):
        _archive_bench_history(RunStore(), [1.0, 1.02, 0.98])
        healthy = self._new_bench(tmp_path, 1.01)
        assert main([
            "bench", "diff", healthy, "--history", "3",
            "--timing-tolerance", "0.1",
        ]) == 0
        assert "OK" in capsys.readouterr().out

    def test_empty_history_exits_two(self, tmp_path, capsys):
        _archive_bench_history(RunStore(), [1.0])
        other = tmp_path / "BENCH_other.json"
        other.write_text(json.dumps(
            {"bench_id": "other",
             "metrics": {"deterministic": {}, "timing": {"s": 1.0}}}
        ))
        assert main([
            "bench", "diff", str(other), "--history", "3",
        ]) == 2
        assert "no archived runs" in capsys.readouterr().err


class TestFormatDispatch:
    def test_history_verb_reads_archive(self, capsys):
        assert main(["stats", "alexnet", "--input-size", "32"]) == 0
        capsys.readouterr()
        assert main(
            ["history", "mmu.guarder.checks", "--last", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "mmu.guarder.checks" in out and "(1 row)" in out
