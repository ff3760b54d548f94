"""Unit tests for the experiment registry and its scheduler."""

import pytest

from repro.errors import ConfigError
from repro.experiments.registry import ExperimentRegistry


def _noop(profile):
    return None


@pytest.fixture
def registry() -> ExperimentRegistry:
    reg = ExperimentRegistry()
    reg.register("cheap", _noop, cost=1.0)
    reg.register("heavy", _noop, cost=10.0)
    reg.register("mid", _noop, cost=5.0)
    reg.register("also-cheap", _noop, cost=1.0)
    reg.register("extra", _noop, cost=2.0, in_all=False)
    return reg


class TestRegistration:
    def test_lookup_and_contains(self, registry):
        assert "heavy" in registry
        assert registry.get("heavy").cost == 10.0
        assert "nope" not in registry

    def test_unknown_id_raises(self, registry):
        with pytest.raises(ConfigError, match="unknown experiment 'nope'"):
            registry.get("nope")

    def test_duplicate_id_rejected(self, registry):
        with pytest.raises(ConfigError, match="already registered"):
            registry.register("heavy", _noop)

    def test_ids_filters_in_all(self, registry):
        assert "extra" in registry.ids()
        assert "extra" not in registry.ids(all_only=True)


class TestSchedule:
    def test_costliest_first(self, registry):
        """Descending cost; equal costs keep registration order."""
        order = [s.exp_id for s in registry.schedule()]
        assert order == ["heavy", "mid", "cheap", "also-cheap"]

    def test_requested_subset_only(self, registry):
        order = [s.exp_id for s in registry.schedule(["cheap", "extra"])]
        assert order == ["extra", "cheap"]

    def test_duplicates_collapse(self, registry):
        assert len(registry.schedule(["cheap", "cheap"])) == 1
