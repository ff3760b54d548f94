"""Unit tests for the perf-regression gate (``repro bench diff``)."""

import copy
import json
import os

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.telemetry.regression import (
    DEFAULT_TIMING_TOLERANCE,
    MetricDelta,
    compare_bench,
    compare_bench_files,
    higher_is_better,
)

BASELINE = {
    "benchmark": "test",
    "metrics": {
        "deterministic": {
            "resnet.snpu.cycles": 4_000_000.0,
            "resnet.snpu.layers": 11,
        },
        "timing": {
            "resnet.snpu.host_seconds": 0.5,
            "profile_runs_per_sec": 12.0,
        },
    },
}


class TestDirection:
    def test_lower_is_better_by_default(self):
        assert not higher_is_better("resnet.snpu.cycles")
        assert not higher_is_better("host_seconds")

    def test_throughput_style_names(self):
        assert higher_is_better("profile_runs_per_sec")
        assert higher_is_better("cache.hits")
        assert higher_is_better("speedup_vs_serial")


class TestMetricDelta:
    def test_unchanged(self):
        d = MetricDelta("m", "timing", 2.0, 2.0, 0.25)
        assert d.ratio == 1.0
        assert d.change == 0.0
        assert not d.regressed and not d.improved

    def test_zero_old_nonzero_new_is_infinite_regression(self):
        d = MetricDelta("m", "deterministic", 0.0, 1.0, 0.0)
        assert d.change == float("inf")
        assert d.regressed

    def test_throughput_drop_regresses(self):
        d = MetricDelta("runs_per_sec", "timing", 10.0, 6.0, 0.25)
        assert d.change == pytest.approx(0.4)
        assert d.regressed

    def test_describe_mentions_flag(self):
        d = MetricDelta("m.cycles", "deterministic", 100.0, 120.0, 0.0)
        assert "REGRESSED" in d.describe()


class TestCompareBench:
    def test_identical_payloads_are_ok(self):
        comparison = compare_bench(BASELINE, copy.deepcopy(BASELINE))
        assert comparison.ok
        assert not comparison.regressions
        assert "OK" in comparison.format_table()

    def test_injected_20pct_cycle_regression_is_flagged(self):
        """Acceptance criterion: a 20% cycle-count inflation must fail."""
        new = copy.deepcopy(BASELINE)
        new["metrics"]["deterministic"]["resnet.snpu.cycles"] *= 1.20
        comparison = compare_bench(BASELINE, new)
        assert not comparison.ok
        names = [d.name for d in comparison.regressions]
        assert names == ["resnet.snpu.cycles"]
        assert "FAIL" in comparison.format_table()

    def test_deterministic_tolerance_is_zero_by_default(self):
        new = copy.deepcopy(BASELINE)
        new["metrics"]["deterministic"]["resnet.snpu.cycles"] += 1.0
        assert not compare_bench(BASELINE, new).ok

    def test_timing_noise_within_tolerance_passes(self):
        new = copy.deepcopy(BASELINE)
        new["metrics"]["timing"]["resnet.snpu.host_seconds"] *= 1.20
        comparison = compare_bench(BASELINE, new)
        assert comparison.ok  # 20% < default 25% timing tolerance

    def test_timing_regression_beyond_tolerance_fails(self):
        new = copy.deepcopy(BASELINE)
        new["metrics"]["timing"]["resnet.snpu.host_seconds"] *= 1.40
        comparison = compare_bench(BASELINE, new)
        assert not comparison.ok
        assert comparison.regressions[0].name == "resnet.snpu.host_seconds"
        assert comparison.regressions[0].tolerance == DEFAULT_TIMING_TOLERANCE

    def test_throughput_drop_beyond_tolerance_fails(self):
        new = copy.deepcopy(BASELINE)
        new["metrics"]["timing"]["profile_runs_per_sec"] = 6.0  # -50%
        assert not compare_bench(BASELINE, new).ok

    def test_missing_metric_fails_the_gate(self):
        new = copy.deepcopy(BASELINE)
        del new["metrics"]["deterministic"]["resnet.snpu.layers"]
        comparison = compare_bench(BASELINE, new)
        assert comparison.missing == ["resnet.snpu.layers"]
        assert not comparison.ok

    def test_added_metric_is_informational(self):
        new = copy.deepcopy(BASELINE)
        new["metrics"]["deterministic"]["extra"] = 1.0
        comparison = compare_bench(BASELINE, new)
        assert comparison.added == ["extra"]
        assert comparison.ok

    def test_other_payload_shapes_are_rejected(self):
        for payload, fragment in [
            ({"benchmark": "x", "wall_seconds": 1.0},
             "not a two-section BENCH payload"),
            ({"metrics": {"wall_seconds": 1.0}},
             "not a two-section BENCH payload"),
            ({"metrics": {"timing": [1.0]}}, "metrics.timing is not an object"),
            ({"metrics": {"timing": {"s": "1.0"}}}, "timing.s is '1.0', not a"),
            ({"metrics": {"deterministic": {"ok": True}}}, "is True, not a"),
        ]:
            with pytest.raises(ConfigError, match=fragment):
                compare_bench(BASELINE, payload)


class TestCliBenchDiff:
    def _write(self, tmp_path, name, payload):
        path = os.path.join(tmp_path, name)
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path

    def test_self_diff_exits_zero(self, tmp_path, capsys):
        old = self._write(str(tmp_path), "old.json", BASELINE)
        assert main(["bench", "diff", old, old]) == 0
        assert "OK: no regressions" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        """The CLI gate flags the injected 20% regression (exit 1)."""
        new_payload = copy.deepcopy(BASELINE)
        new_payload["metrics"]["deterministic"]["resnet.snpu.cycles"] *= 1.2
        old = self._write(str(tmp_path), "old.json", BASELINE)
        new = self._write(str(tmp_path), "new.json", new_payload)
        assert main(["bench", "diff", old, new]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_tolerance_flag_loosens_gate(self, tmp_path):
        new_payload = copy.deepcopy(BASELINE)
        new_payload["metrics"]["timing"]["resnet.snpu.host_seconds"] *= 3.0
        old = self._write(str(tmp_path), "old.json", BASELINE)
        new = self._write(str(tmp_path), "new.json", new_payload)
        assert main(["bench", "diff", old, new]) == 1
        assert (
            main(["bench", "diff", old, new, "--timing-tolerance", "5.0"])
            == 0
        )


def test_compare_bench_files_roundtrip(tmp_path):
    old = tmp_path / "old.json"
    old.write_text(json.dumps(BASELINE))
    comparison = compare_bench_files(str(old), str(old))
    assert comparison.ok


def test_committed_baseline_self_diffs_clean():
    """The suite's committed BASELINE.json is valid and self-consistent."""
    root = os.path.join(os.path.dirname(__file__), "..", "..")
    path = os.path.normpath(
        os.path.join(root, "benchmarks", "suite", "BASELINE.json"))
    comparison = compare_bench_files(path, path)
    assert comparison.ok
    kinds = {d.kind for d in comparison.deltas}
    assert kinds == {"deterministic", "timing"}
