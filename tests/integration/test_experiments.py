"""The experiment result container, and which runners build a cycle
ledger (the paper claims live in ``test_claims.py``)."""

import pytest

from repro.cli import main
from repro.experiments import claims
from repro.experiments.all import run_one
from repro.experiments.runner import ExperimentResult
from repro.errors import ConfigError
from repro.telemetry.profiler import CycleProfiler


class TestRunner:
    def test_format_table(self):
        result = ExperimentResult("x", "title", ["a", "b"])
        result.add_row(a=1, b=2.5)
        text = result.format()
        assert "title" in text and "2.500" in text

    def test_missing_column_rejected(self):
        result = ExperimentResult("x", "t", ["a", "b"])
        with pytest.raises(ConfigError):
            result.add_row(a=1)

    def test_column_and_row_access(self):
        result = ExperimentResult("x", "t", ["a", "b"])
        result.add_row(a=1, b=2)
        result.add_row(a=3, b=4)
        assert result.column("b") == [2, 4]
        assert result.row_for("a", 3)["b"] == 4
        with pytest.raises(ConfigError):
            result.column("z")


@pytest.fixture
def profiled_runs(monkeypatch):
    """The (task, mode) of every profiler run a block opens."""
    opened = []
    begin_run = CycleProfiler.begin_run

    def spy(self, task, mode):
        run = begin_run(self, task, mode)
        if run is not None:
            opened.append((task, mode))
        return run

    monkeypatch.setattr(CycleProfiler, "begin_run", spy)
    return opened


class TestProfilerLedger:
    """Runs that read only the metrics registry build no cycle ledger."""

    @pytest.mark.parametrize("call", [
        lambda: run_one("fig01", "tiny"),
        lambda: claims.evaluate("fig01", "tiny"),
        lambda: main(["run", "alexnet", "--input-size", "32"]),
        lambda: main(["stats", "alexnet", "--input-size", "32"]),
    ], ids=["run_one", "claims-evaluate", "cli-run", "cli-stats"])
    def test_metrics_only_runs_open_no_profiler_run(self, call, profiled_runs):
        call()
        assert profiled_runs == []

    def test_profile_verb_still_profiles(self, profiled_runs):
        assert main(["profile", "alexnet", "--input-size", "32"]) == 0
        assert profiled_runs
