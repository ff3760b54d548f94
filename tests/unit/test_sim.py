"""Unit tests for the simulation kernel: clock, event engine, resources."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.sim.clock import Clock
from repro.sim.engine import SimEngine
from repro.sim.resources import BandwidthResource


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_advance(self):
        clock = Clock()
        assert clock.advance(10) == 10
        assert clock.advance(5) == 15

    def test_advance_negative_rejected(self):
        with pytest.raises(SimulationError):
            Clock().advance(-1)

    def test_advance_to_is_monotonic(self):
        clock = Clock(100)
        clock.advance_to(50)  # no-op
        assert clock.now == 100
        clock.advance_to(150)
        assert clock.now == 150

    def test_reset(self):
        clock = Clock(42)
        clock.reset()
        assert clock.now == 0.0


class TestSimEngine:
    def test_events_fire_in_time_order(self):
        engine = SimEngine()
        order = []
        engine.schedule(5, lambda: order.append("b"))
        engine.schedule(1, lambda: order.append("a"))
        engine.schedule(9, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 9

    def test_same_time_fires_in_insertion_order(self):
        engine = SimEngine()
        order = []
        for tag in "abc":
            engine.schedule(3, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_events_can_schedule_events(self):
        engine = SimEngine()
        seen = []

        def first():
            seen.append(engine.now)
            engine.schedule(10, lambda: seen.append(engine.now))

        engine.schedule(5, first)
        engine.run()
        assert seen == [5, 15]

    def test_run_until(self):
        engine = SimEngine()
        fired = []
        engine.schedule(5, lambda: fired.append(5))
        engine.schedule(50, lambda: fired.append(50))
        engine.run(until=10)
        assert fired == [5]
        assert engine.now == 10
        assert engine.pending() == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimEngine().schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        engine = SimEngine()
        engine.schedule(10, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(5, lambda: None)

    def test_livelock_guard(self):
        engine = SimEngine()

        def forever():
            engine.schedule(1, forever)

        engine.schedule(0, forever)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert SimEngine().step() is False

    def test_event_budget_is_exact(self):
        # Exactly max_events may fire; needing one more is the error.
        engine = SimEngine()
        fired = []
        for i in range(10):
            engine.schedule(i + 1, lambda i=i: fired.append(i))
        engine.run(max_events=10)
        assert len(fired) == 10

        engine = SimEngine()
        for i in range(11):
            engine.schedule(i + 1, lambda: None)
        with pytest.raises(SimulationError):
            engine.run(max_events=10)

    def test_cancelled_event_does_not_fire(self):
        engine = SimEngine()
        fired = []
        keep = engine.schedule(5, lambda: fired.append("keep"))
        drop = engine.schedule(3, lambda: fired.append("drop"))
        drop.cancel()
        engine.run()
        assert fired == ["keep"]
        assert keep.cancelled is False
        assert drop.cancelled is True

    def test_cancelled_event_does_not_advance_clock(self):
        engine = SimEngine()
        engine.schedule(5, lambda: None)
        late = engine.schedule(100, lambda: None)
        late.cancel()
        engine.run()
        assert engine.now == 5

    def test_cancelled_events_excluded_from_pending(self):
        engine = SimEngine()
        engine.schedule(1, lambda: None)
        cancelled = engine.schedule(2, lambda: None)
        cancelled.cancel()
        assert engine.pending() == 1

    def test_cancelled_events_do_not_count_against_budget(self):
        engine = SimEngine()
        fired = []
        for i in range(10):
            engine.schedule(i + 1, lambda: None).cancel()
        engine.schedule(20, lambda: fired.append("real"))
        engine.run(max_events=1)
        assert fired == ["real"]

    def test_cancel_inside_handler(self):
        # An event may cancel a later one while the queue is running.
        engine = SimEngine()
        fired = []
        victim = engine.schedule(10, lambda: fired.append("victim"))
        engine.schedule(1, lambda: victim.cancel())
        engine.run()
        assert fired == []
        assert engine.now == 1


class TestBandwidthResource:
    def test_cycles_for(self):
        bw = BandwidthResource(16.0)
        assert bw.cycles_for(160) == 10.0
        assert bw.cycles_for(160, share=0.5) == 20.0

    def test_serialized_transfers(self):
        bw = BandwidthResource(16.0)
        assert bw.acquire(0, 160) == 10.0
        # Arrives at t=0 but the channel is busy until 10.
        assert bw.acquire(0, 160) == 20.0
        # Arrives after the channel is free.
        assert bw.acquire(100, 16) == 101.0

    def test_stats(self):
        bw = BandwidthResource(16.0)
        bw.acquire(0, 320)
        assert bw.bytes_moved == 320
        assert bw.busy_cycles == 20.0
        bw.reset()
        assert bw.bytes_moved == 0

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigError):
            BandwidthResource(0)

    def test_invalid_share(self):
        with pytest.raises(ConfigError):
            BandwidthResource(16).cycles_for(10, share=0)
        with pytest.raises(ConfigError):
            BandwidthResource(16).cycles_for(10, share=1.5)
