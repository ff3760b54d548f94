"""Integration tests for ``repro serve`` and the §IV-B acceptance ordering."""

import functools
import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.driver.scheduler import MultiTaskScheduler
from repro.npu.config import NPUConfig
from repro.serving.queueing import ServeSimulator
from repro.serving.report import ServeReport
from repro.serving.workload import SCENARIOS


class TestServeCLI:
    def test_json_is_bit_identical_across_runs(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main([
                "serve", "default", "--mechanism", "flush-layer",
                "--duration", "300", "--seed", "42",
                "--format", "json", "-o", str(path),
            ])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_payload_schema(self, tmp_path):
        path = tmp_path / "report.json"
        assert main([
            "serve", "default", "--mechanism", "snpu",
            "--duration", "300", "--format", "json", "-o", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["scenario"] == "default"
        assert payload["mechanism"] == "snpu"
        assert payload["seed"] == 0
        assert payload["completed"] > 0
        assert set(payload["tenants"]) == {"cam", "nlp", "batch"}
        assert {"flushes", "flush_share", "world_switches"} <= set(
            payload["overheads"]
        )

    def test_table_reports_flows_and_audit(self, capsys):
        assert main([
            "serve", "default", "--mechanism", "flush-tile",
            "--duration", "200",
        ]) == 0
        out = capsys.readouterr().out
        assert "mechanism=flush-tile" in out
        for name in ("cam", "nlp", "batch"):
            assert name in out
        assert "request flows tracked" in out
        assert "audit records" in out

    def test_trace_file_is_chrome_trace(self, tmp_path):
        trace = tmp_path / "serve.trace.json"
        assert main([
            "serve", "default", "--mechanism", "partition",
            "--duration", "200", "--trace", str(trace),
        ]) == 0
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]

    def test_other_scenarios_serve(self, tmp_path):
        for scenario in ("secure-heavy", "burst"):
            assert main([
                "serve", scenario, "--mechanism", "flush-layer5",
                "--duration", "200", "--format", "json",
                "-o", str(tmp_path / f"{scenario}.json"),
            ]) == 0


class TestRecordOnlyWhatIsRead:
    """Flows are tracked for ``--trace`` alone, and a ledger that reaches
    its cap says so on stderr instead of truncating silently."""

    def test_flows_tracked_only_under_trace(self, tmp_path, capsys):
        argv = ["serve", "default", "--mechanism", "flush-tile",
                "--duration", "100"]
        assert main(argv) == 0
        assert "(0 request flows tracked," in capsys.readouterr().out
        assert main(argv + ["--trace", str(tmp_path / "t.json")]) == 0
        assert "(0 request flows tracked," not in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [[], ["--workers", "2"]],
                             ids=["single", "cluster"])
    def test_audit_cap_warns(self, extra, monkeypatch, capsys):
        monkeypatch.setattr(telemetry, "AuditLedger", functools.partial(
            telemetry.AuditLedger, max_records=3))
        assert main(["serve", "secure-heavy", "--duration", "200",
                     *extra]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1, warnings
        assert "audit records dropped (ledger cap reached)" in warnings[0]

    def test_flow_cap_warns_under_trace(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(telemetry, "FlowTracker", functools.partial(
            telemetry.FlowTracker, max_flows=3))
        assert main(["serve", "secure-heavy", "--duration", "200",
                     "--trace", str(tmp_path / "t.json")]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1, warnings
        assert "flows dropped (tracker cap reached)" in warnings[0]


class TestAcceptanceOrdering:
    """The §IV-B SLA dilemma on the default scenario at its defaults."""

    @pytest.fixture(scope="class")
    def reports(self):
        config = NPUConfig.paper_default()
        scheduler = MultiTaskScheduler(config)  # shared analytic cache
        out = {}
        for mechanism in ("snpu", "partition", "flush-tile"):
            sim = ServeSimulator(
                SCENARIOS["default"], mechanism=mechanism, seed=0,
                config=config, scheduler=scheduler,
            )
            out[mechanism] = ServeReport.build(sim.run())
        return out

    def test_per_tenant_p99_ordering(self, reports):
        for spec in SCENARIOS["default"].tenants:
            snpu = reports["snpu"].tenant(spec.name).p99_ms
            partition = reports["partition"].tenant(spec.name).p99_ms
            tile = reports["flush-tile"].tenant(spec.name).p99_ms
            assert snpu < partition < tile, (
                f"{spec.name}: p99 snpu={snpu:.3f} partition={partition:.3f} "
                f"flush-tile={tile:.3f} violates snpu < partition < flush-tile"
            )

    def test_flush_overhead_only_under_temporal(self, reports):
        assert reports["flush-tile"].flush_share > 0.0
        assert reports["snpu"].flush_share == 0.0
        assert reports["partition"].flush_share == 0.0

    def test_same_stream_under_every_mechanism(self, reports):
        counts = {m: r.aggregate.n for m, r in reports.items()}
        assert len(set(counts.values())) == 1


class TestZeroRequestRendering:
    """--rps 0 serves nothing and renders identically in both formats."""

    def test_table_exits_zero_with_dashes(self, capsys):
        assert main([
            "serve", "default", "--rps", "0", "--duration", "100",
        ]) == 0
        out = capsys.readouterr().out
        # The header must reflect the requested rate, not silently fall
        # back to the scenario's 300 rps.
        assert "rps=0" in out
        for name in ("cam", "nlp", "batch"):
            row = next(
                line for line in out.splitlines()
                if line.strip().startswith(name)
            )
            assert " 0 " in row and "-" in row

    def test_json_exits_zero_with_explicit_nulls(self, tmp_path):
        path = tmp_path / "empty.json"
        assert main([
            "serve", "default", "--rps", "0", "--duration", "100",
            "--format", "json", "-o", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["rps"] == 0.0
        assert payload["completed"] == 0
        assert payload["aggregate"]["n"] == 0
        assert payload["aggregate"]["p99_ms"] is None
        assert payload["aggregate"]["sla_attainment"] is None
        for tenant in payload["tenants"].values():
            assert tenant["n"] == 0
            assert tenant["p99_ms"] is None

    def test_table_and_json_agree_on_zero(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        assert main([
            "serve", "default", "--rps", "0", "--duration", "100",
            "--format", "json", "-o", str(path),
        ]) == 0
        assert main([
            "serve", "default", "--rps", "0", "--duration", "100",
        ]) == 0
        table = capsys.readouterr().out
        payload = json.loads(path.read_text())
        # Same zeros on both sides: no divide-by-zero, no fabricated 0.0
        # latencies in either rendering.
        assert payload["completed"] == 0
        assert "(0 request flows tracked, 0 audit records)" in table


class TestClusterCLI:
    def test_cluster_json_schema(self, tmp_path):
        path = tmp_path / "cluster.json"
        assert main([
            "serve", "default", "--workers", "2", "--requests", "40000",
            "--detail", "150", "--format", "json", "-o", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["workers"] == 2
        assert payload["requests_total"] == 40000
        assert payload["balance"] == "rr"
        assert len(payload["fluid"]) == 2
        assert set(payload["tenants"]) == {"cam", "nlp", "batch"}
        assert all(c["ok"] for c in payload["reconciliation"])
        assert {"wait_clamps", "clamped_cycles"} <= set(
            payload["accounting"]
        )

    def test_cluster_table_mentions_fleet(self, capsys):
        assert main([
            "serve", "default", "--workers", "2", "--requests", "40000",
            "--detail", "150",
        ]) == 0
        out = capsys.readouterr().out
        assert "workers=2" in out
        assert "40000 requests" in out
        assert "reconciliation" in out
        assert "request flows tracked" in out

    def test_autoscale_flag_reports_steps(self, tmp_path):
        path = tmp_path / "scaled.json"
        assert main([
            "serve", "secure-heavy", "--workers", "1", "--autoscale", "2",
            "--detail", "150", "--format", "json", "-o", str(path),
        ]) == 0
        payload = json.loads(path.read_text())
        assert payload["autoscale"][-1]["decision"] == "hold"

    def test_cluster_run_is_archived(self, tmp_path, monkeypatch):
        store = tmp_path / "runs.sqlite"
        monkeypatch.setenv("REPRO_STORE", str(store))
        assert main([
            "serve", "default", "--workers", "2", "--requests", "40000",
            "--detail", "150", "--format", "json",
            "-o", str(tmp_path / "out.json"),
        ]) == 0
        from repro.store.store import RunStore

        runs = RunStore(str(store)).runs_by_recency()
        assert len(runs) == 1
        assert runs[0]["experiment"] == "default:snpu:rr:rr:w2"
        tenants = RunStore(str(store)).children("tenants", runs[0]["run_id"])
        names = {row["tenant"] for row in tenants}
        # Pooled rows plus per-worker breakdowns.
        assert {"cam", "nlp", "batch"} <= names
        assert any(name.startswith("w0/") for name in names)
