"""The experiment result container (the paper claims live in
``test_claims.py``)."""

import pytest

from repro.experiments.runner import ExperimentResult
from repro.errors import ConfigError


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
