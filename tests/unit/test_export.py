"""Unit tests for experiment export (JSON)."""

import json

import pytest

from repro.experiments.export import to_dict, to_json, write
from repro.experiments.runner import ExperimentResult


@pytest.fixture
def result() -> ExperimentResult:
    r = ExperimentResult("figX", "demo", ["workload", "value"])
    r.add_row(workload="a", value=1.5)
    r.add_row(workload="b", value=2.5)
    r.notes.append("a note")
    return r


class TestExport:
    def test_to_dict(self, result):
        d = to_dict(result)
        assert d["exp_id"] == "figX"
        assert d["rows"][1]["value"] == 2.5
        assert d["notes"] == ["a note"]

    def test_json_roundtrip(self, result):
        parsed = json.loads(to_json(result))
        assert parsed["columns"] == ["workload", "value"]
        assert len(parsed["rows"]) == 2

    def test_write(self, result, tmp_path):
        path = tmp_path / "out.json"
        write(result, str(path))
        assert json.loads(path.read_text()) == to_dict(result)

    def test_real_experiment_exports(self):
        from repro.experiments import fig16

        result = fig16.run(sizes=(1, 16))
        parsed = json.loads(to_json(result))
        assert parsed["exp_id"] == "fig16"
        assert len(parsed["rows"]) == 2
