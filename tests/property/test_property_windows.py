"""Property-based tests for the window-aggregation determinism contract.

Two invariants back the whole observability layer:

* **Reconciliation** — per-window partial sums equal the end-of-run
  total, exactly (ints and :class:`fractions.Fraction`, never float),
  for any event stream.
* **Feed-independence** — bucket maps do not depend on feed order.

``window_of`` itself is checked against its exact-rational definition,
``floor(Fraction(cycle) / Fraction(window_cycles))``, on boundaries,
their neighbouring floats and the values that must raise.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.telemetry.windows import (
    TumblingCounter,
    WindowReservoir,
    sliding_sum,
    window_of,
)

#: (cycle, amount) event streams; cycles land on awkward floats on
#: purpose — boundary bucketing must still be exact.
events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False),
        st.one_of(st.integers(0, 50),
                  st.fractions(min_value=0, max_value=50)),
    ),
    max_size=200,
)

window_sizes = st.one_of(
    st.floats(min_value=0.1, max_value=1e4, allow_nan=False,
              allow_infinity=False),
    st.just(100.0),
)


@given(events, window_sizes)
@settings(max_examples=150, deadline=None)
def test_window_partials_reconcile_exactly(stream, window_cycles):
    counter = TumblingCounter("x", window_cycles)
    total = Fraction(0)
    for cycle, amount in stream:
        counter.add(cycle, amount)
        total += Fraction(amount)
    counter.reconcile(total)
    assert sum(counter.buckets.values(), Fraction(0)) == total


@given(events, window_sizes)
@settings(max_examples=100, deadline=None)
def test_bucketing_is_feed_order_independent(stream, window_cycles):
    forward = TumblingCounter("x", window_cycles)
    backward = TumblingCounter("x", window_cycles)
    for cycle, amount in stream:
        forward.add(cycle, amount)
    for cycle, amount in reversed(stream):
        backward.add(cycle, amount)
    assert forward.buckets == backward.buckets
    assert forward.total == backward.total


@given(events, window_sizes)
@settings(max_examples=100, deadline=None)
def test_every_event_lands_in_exactly_one_window(stream, window_cycles):
    counter = TumblingCounter("x", window_cycles)
    for cycle, amount in stream:
        w = counter.add(cycle, amount)
        assert w == window_of(cycle, window_cycles)
        # Window w covers [w*W, (w+1)*W).
        assert Fraction(w) * Fraction(window_cycles) <= Fraction(cycle)
        assert Fraction(cycle) < Fraction(w + 1) * Fraction(window_cycles)


@given(events, window_sizes, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_sliding_sum_matches_bucket_sum(stream, window_cycles, span):
    counter = TumblingCounter("x", window_cycles)
    for cycle, amount in stream:
        counter.add(cycle, amount)
    last = counter.last_window()
    for window in range(max(0, last - 3), last + 1):
        expected = sum(
            (counter.bucket(w) for w in range(window - span + 1, window + 1)),
            Fraction(0),
        )
        assert sliding_sum(counter, window, span) == expected


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False,
                      allow_infinity=False),
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
                      allow_infinity=False),
        ),
        max_size=150,
    ),
    st.floats(min_value=1.0, max_value=1e4, allow_nan=False,
              allow_infinity=False),
)
@settings(max_examples=80, deadline=None)
def test_reservoir_counts_and_sums_reconcile(stream, window_cycles):
    reservoir = WindowReservoir("lat", window_cycles)
    total = Fraction(0)
    for cycle, value in stream:
        reservoir.observe(cycle, value)
        total += Fraction(value)
    reservoir.reconcile(len(stream), total)
    # Each window counts exactly the events bucketed into it.
    per_window = {}
    for cycle, _value in stream:
        w = window_of(cycle, window_cycles)
        per_window[w] = per_window.get(w, 0) + 1
    assert {w: reservoir.count(w) for w in per_window} == per_window


def _fraction_window(cycle, window_cycles):
    """The exact-rational definition ``window_of`` must equal."""
    if window_cycles <= 0:
        raise ConfigError("window_cycles must be positive")
    return math.floor(Fraction(cycle) / Fraction(window_cycles))


finite = st.floats(allow_nan=False, allow_infinity=False)
any_cycle = st.one_of(st.integers(-10**30, 10**30), finite, st.fractions())
positive_window = st.one_of(
    st.integers(1, 10**30),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.fractions(min_value=0).filter(lambda f: f > 0),
)


@given(any_cycle, positive_window)
@settings(max_examples=500, deadline=None)
# Exact k*W boundaries (the boundary opens window k) ...
@example(300.0, 100.0)
@example(3 * Fraction(0.1), 0.1)
@example(Fraction(7, 3), Fraction(7, 9))
@example(-200, 100.0)
@example(2.0 ** -1074 * 3, 2.0 ** -1074)
# ... and the floats on either side of them.
@example(math.nextafter(300.0, 0.0), 100.0)
@example(math.nextafter(300.0, math.inf), 100.0)
@example(0.3, 0.1)
@example(0.30000000000000004, 0.1)
@example(math.nextafter(-200.0, 0.0), 100)
@example(math.nextafter(-200.0, -math.inf), 100)
def test_window_of_equals_the_fraction_floor(cycle, window_cycles):
    assert window_of(cycle, window_cycles) == _fraction_window(
        cycle, window_cycles)


@pytest.mark.parametrize("window_cycles", [100.0, math.nan, math.inf,
                                           -math.inf, 0.0])
@pytest.mark.parametrize("cycle", [1.0, math.nan, math.inf, -math.inf])
def test_window_of_raises_what_the_fraction_floor_raises(cycle,
                                                         window_cycles):
    try:
        expected = _fraction_window(cycle, window_cycles)
    except Exception as exc:  # noqa: BLE001 - the type is the contract
        with pytest.raises(Exception) as raised:
            window_of(cycle, window_cycles)
        assert type(raised.value) is type(exc)
    else:
        assert window_of(cycle, window_cycles) == expected
