"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "resnet"])
        assert args.protection == "snpu"
        assert not args.secure


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "16 GB/s" in out and "256 GMAC/s" in out

    def test_models(self, capsys):
        assert main(["models", "--input-size", "64"]) == 0
        out = capsys.readouterr().out
        for name in ("googlenet", "alexnet", "bert"):
            assert name in out

    def test_run(self, capsys):
        assert main(["run", "yololite", "--input-size", "56"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_run_secure_detailed(self, capsys):
        code = main([
            "run", "yololite", "--secure", "--detailed",
            "--input-size", "56", "--protection", "snpu",
        ])
        assert code == 0
        assert "secure" in capsys.readouterr().out

    def test_attacks(self, capsys):
        assert main(["attacks", "snpu"]) == 0
        out = capsys.readouterr().out
        assert "blocked by" in out
        assert "SECRET LEAKED" not in out

    def test_experiments_single(self, capsys):
        assert main(["experiments", "fig16"]) == 0
        assert "NoC micro-test" in capsys.readouterr().out

    def test_experiments_fig18_and_tcb(self, capsys):
        assert main(["experiments", "fig18", "tcb"]) == 0
        out = capsys.readouterr().out
        assert "S_Spad" in out and "TCB" in out

    def test_experiments_fig13_uses_fast_path_by_default(self, tmp_path):
        """No flag or environment variable selects an engine: fig13's
        detailed runs are priced by the fast path, with no fallback."""
        outdir = tmp_path / "out"
        assert main([
            "experiments", "fig13", "--profile", "tiny", "--no-cache",
            "--outdir", str(outdir),
        ]) == 0
        metrics = json.loads((outdir / "fig13.metrics.json").read_text())
        assert metrics.get("sim.fastpath.fast_layers", 0) > 0
        assert not any(key.startswith("sim.fastpath.fallbacks")
                       for key in metrics)

    def test_disasm(self, capsys):
        assert main(["disasm", "yololite", "--limit", "8"]) == 0
        out = capsys.readouterr().out
        assert "mvin" in out and "instruction mix" in out

    def test_experiments_access_paths(self, capsys):
        assert main(["experiments", "access-paths", "--profile", "tiny"]) == 0
        assert "type2_mmu" in capsys.readouterr().out


class TestParallelAndCache:
    def test_jobs_and_cache_flags_parse(self):
        args = build_parser().parse_args(
            ["experiments", "fig16", "--jobs", "4", "--cache"]
        )
        assert args.jobs == 4 and args.cache
        args = build_parser().parse_args(["experiments", "fig16", "--no-cache"])
        assert args.jobs == 1 and not args.cache

    def test_experiments_with_jobs_prints_timing(self, capsys):
        code = main([
            "experiments", "fig16", "fig18", "--profile", "tiny",
            "--outdir", "", "--jobs", "2", "--no-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "NoC micro-test" in out and "S_Spad" in out
        assert "Per-experiment wall clock" in out

    def test_cached_rerun_reports_hits(self, tmp_path, capsys):
        argv = [
            "experiments", "fig16", "--profile", "tiny", "--outdir", "",
            "--cache", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "cache-hit" in capsys.readouterr().out

    def test_cache_ls_empty(self, tmp_path, capsys):
        code = main(["cache", "ls", "--cache-dir", str(tmp_path / "none")])
        assert code == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_ls_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path)
        main([
            "experiments", "tcb", "--profile", "tiny", "--outdir", "",
            "--cache", "--cache-dir", cache_dir,
        ])
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "tcb" in out and "1 entries" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out


class TestProfileCommand:
    def test_profile_table(self, capsys):
        assert main(["profile", "resnet", "--analytic",
                     "--input-size", "56"]) == 0
        out = capsys.readouterr().out
        assert "pe.compute" in out
        assert "total" in out

    def test_profile_diff_baseline(self, capsys):
        assert main(["profile", "resnet", "--analytic", "--input-size", "56",
                     "--protection", "snpu", "--diff", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "snpu vs none" in out
        assert "end-to-end" in out

    def test_profile_folded_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "p.folded"
        assert main(["profile", "mobilenet", "--analytic",
                     "--input-size", "56", "--format", "folded",
                     "--out", str(out_path)]) == 0
        folded = out_path.read_text()
        assert folded
        for line in folded.strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert ";" in stack and int(count) >= 0

    def test_profile_json(self, capsys):
        import json as _json

        assert main(["profile", "alexnet", "--analytic", "--input-size", "56",
                     "--format", "json"]) == 0
        payload = _json.loads(capsys.readouterr().out)
        assert payload["task"] == "alexnet"
        assert payload["categories_exact"]

    def test_profile_host(self, capsys):
        assert main(["profile", "mobilenet", "--analytic",
                     "--input-size", "56", "--host"]) == 0
        assert "function calls" in capsys.readouterr().out


class TestStatsFormats:
    def test_stats_table(self, capsys):
        assert main(["stats", "yololite", "--input-size", "56"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out
        assert "npu." in out

    def test_stats_json_has_percentiles(self, capsys):
        import json as _json

        assert main(["stats", "yololite", "--input-size", "56",
                     "--format", "json", "--detailed"]) == 0
        payload = _json.loads(capsys.readouterr().out)
        assert any(k.endswith(".p50") for k in payload)
        assert any(k.endswith(".p99") for k in payload)


class TestFlowsCommand:
    def test_flows_table(self, capsys):
        assert main(["flows", "yololite", "--input-size", "56",
                     "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Per-stage decomposition" in out
        assert "Top 3 slowest flows" in out

    def test_flows_json_decomposes_exactly(self, capsys):
        import json as _json

        assert main(["flows", "yololite", "--input-size", "56",
                     "--controller", "iommu-4", "--format", "json"]) == 0
        payload = _json.loads(capsys.readouterr().out)
        assert payload["flows"] > 0
        assert payload["total_cycles"] == pytest.approx(
            payload["queueing_cycles"] + payload["service_cycles"]
            + payload["security_cycles"]
        )
        assert payload["security_cycles"] > 0  # the IOMMU walks cost time

    def test_flows_stage_filter(self, capsys):
        assert main(["flows", "yololite", "--input-size", "56",
                     "--controller", "iommu-4", "--stage", "security"]) == 0
        assert "stage filter: security" in capsys.readouterr().out

    def test_flows_trace_output(self, tmp_path, capsys):
        import json as _json

        trace_path = tmp_path / "flows.json"
        assert main(["flows", "yololite", "--input-size", "56",
                     "--trace", str(trace_path), "-o",
                     str(tmp_path / "report.txt")]) == 0
        payload = _json.loads(trace_path.read_text())
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"s", "f"} <= phases  # Perfetto flow arrows present


class TestAuditCommand:
    def test_audit_summary(self, capsys):
        assert main(["audit", "snpu"]) == 0
        out = capsys.readouterr().out
        assert "audit ledger:" in out
        assert "guarder.deny" in out and "noc.deny" in out

    def test_audit_jsonl_is_worker_count_invariant(self, tmp_path, capsys):
        one = tmp_path / "jobs1.jsonl"
        four = tmp_path / "jobs4.jsonl"
        assert main(["audit", "snpu", "--jobs", "1", "--format", "jsonl",
                     "-o", str(one)]) == 0
        assert main(["audit", "snpu", "--jobs", "4", "--format", "jsonl",
                     "-o", str(four)]) == 0
        capsys.readouterr()
        assert one.read_bytes() == four.read_bytes()
        import json as _json

        records = [_json.loads(line)
                   for line in one.read_text().splitlines()]
        assert all(r["origin"].startswith("snpu/") for r in records)
