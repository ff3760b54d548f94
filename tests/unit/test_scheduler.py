"""Unit tests for the multi-task scheduler (temporal + spatial sharing)."""

import pytest

from repro.driver.scheduler import MultiTaskScheduler
from repro.errors import ConfigError
from repro.npu.config import NPUConfig
from repro.workloads import zoo
from repro.workloads.synthetic import synthetic_cnn, synthetic_mlp


@pytest.fixture
def scheduler(config) -> MultiTaskScheduler:
    return MultiTaskScheduler(config)


class TestFlushPolicy:
    def test_granularity_ordering(self, scheduler):
        model = zoo.yololite(56)
        tile = scheduler.flush_slowdown(model, "tile")
        layer = scheduler.flush_slowdown(model, "layer")
        layer5 = scheduler.flush_slowdown(model, "layer5")
        assert tile < layer < layer5 <= 1.0

    def test_tile_flush_costs_double_digits(self, scheduler):
        # Fig. 14: fine-grained flushing is a substantial slowdown.
        model = zoo.mobilenet(56)
        assert scheduler.flush_slowdown(model, "tile") < 0.9


class TestRunCaching:
    def test_repeat_run_is_memoised(self, scheduler):
        model = synthetic_mlp()
        first = scheduler.run(model)
        second = scheduler.run(model)
        assert first is second

    def test_cache_distinguishes_model_content(self, scheduler):
        a = scheduler.run(synthetic_mlp(features=128))
        b = scheduler.run(synthetic_mlp(features=256))
        assert a.cycles != b.cycles

    def test_zero_budget_is_not_the_default(self, scheduler):
        with pytest.raises(ConfigError, match="too small"):
            scheduler.run(synthetic_mlp(), budget=0)


class TestFinishWithSwitch:
    def test_finished_before_switch(self):
        co = [10.0, 10.0]
        assert MultiTaskScheduler._finish_with_switch(co, [5.0, 5.0], 100.0) == 20.0

    def test_switch_mid_layer(self):
        co = [10.0, 10.0]
        post = [4.0, 4.0]
        # Switch at t=15: half of layer 1 remains, at post speed (2.0),
        # nothing after.
        assert MultiTaskScheduler._finish_with_switch(co, post, 15.0) == 17.0

    def test_switch_before_start(self):
        co = [10.0]
        post = [4.0]
        assert MultiTaskScheduler._finish_with_switch(co, post, 0.0) == 4.0


class TestSpatialSharing:
    def test_partition_requires_split(self, scheduler):
        with pytest.raises(ConfigError):
            scheduler.spatial_pair(synthetic_mlp(), synthetic_cnn(), "partition")

    def test_invalid_split(self, scheduler):
        with pytest.raises(ConfigError):
            scheduler.spatial_pair(
                synthetic_mlp(), synthetic_cnn(), "partition", 1.5
            )

    def test_unknown_policy(self, scheduler):
        with pytest.raises(ConfigError):
            scheduler.spatial_pair(synthetic_mlp(), synthetic_cnn(), "magic")

    def test_corun_slower_than_solo(self, scheduler):
        a, b = zoo.yololite(56), zoo.mobilenet(56)
        result = scheduler.spatial_pair(a, b, "partition", 0.5)
        assert result.norm_a >= 0.99
        assert result.norm_b >= 0.99
        assert result.t_a_solo > 0 and result.t_b_solo > 0

    def test_dynamic_never_worse_than_static(self, scheduler):
        a, b = zoo.yololite(56), zoo.mobilenet(56)
        statics = [
            scheduler.spatial_pair(a, b, "partition", s).total_norm
            for s in (0.25, 0.5, 0.75)
        ]
        dynamic = scheduler.spatial_pair(a, b, "dynamic").total_norm
        assert dynamic <= min(statics) + 1e-9

    def test_events_describe_timeline(self, scheduler):
        a, b = zoo.yololite(56), zoo.mobilenet(56)
        result = scheduler.spatial_pair(a, b, "partition", 0.5)
        assert result.events[0].time == 0.0
        assert result.events[-1].time == max(result.t_a, result.t_b)

    def test_extreme_splits_hurt_the_starved_task(self, scheduler):
        a, b = zoo.googlenet(56), zoo.mobilenet(56)
        generous = scheduler.spatial_pair(a, b, "partition", 0.75)
        starved = scheduler.spatial_pair(a, b, "partition", 0.125)
        assert starved.norm_a >= generous.norm_a - 0.02
