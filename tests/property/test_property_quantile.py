"""One quantile definition: nearest rank over an exact histogram.

Every percentile the repo reports (metric snapshots, window timelines,
flow stages, serving reports) is :func:`repro.telemetry.metrics.
nearest_rank` over a ``{value: multiplicity}`` sample.  The oracle below
is the sorted-list nearest rank the serving report used before the
histogram became exact, kept verbatim: the counted form must return the
very value it returns on every multiset, including the empty one.
"""

import math
from collections import Counter
from typing import List, Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.telemetry.metrics import Histogram
from repro.telemetry.metrics import nearest_rank as counted_nearest_rank


def nearest_rank(sorted_values: List[float], pct: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending-sorted sample.

    An empty sample has no percentile: returns None (a caller that wants
    a sentinel picks its own — 0.0 here would masquerade as a latency)."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


#: Multisets with many repeated values: a few small integers mixed with
#: arbitrary (non-NaN) floats.
samples = st.lists(
    st.one_of(st.integers(-3, 3).map(float),
              st.floats(allow_nan=False)),
    max_size=80,
)
percents = st.floats(min_value=0.0, max_value=100.0)


@given(samples, percents)
@settings(max_examples=400, deadline=None)
@example([], 50.0)
@example([2.0, 1.0, 2.0, 2.0], 0.0)
@example([2.0, 1.0, 2.0, 2.0], 100.0)
@example([1.0, 1.0, 3.0], 66.67)
def test_counted_nearest_rank_equals_the_sorted_oracle(values, pct):
    expected = nearest_rank(sorted(values), pct)
    got = counted_nearest_rank(Counter(values), pct)
    assert got == expected
    assert (got is None) == (not values)


@given(samples)
@settings(max_examples=200, deadline=None)
@example([])
@example([5.0, 5.0, 5.0, -1.0])
def test_histogram_summary_reads_the_oracle(values):
    hist = Histogram("x")
    for value in values:
        hist.observe(value)
    summary = hist.summary()
    assert summary["count"] == len(values)
    ordered = sorted(values)
    if not ordered:
        # An empty histogram's snapshot is all zeros.
        assert set(summary.values()) == {0}
        return
    assert (summary["min"], summary["max"]) == (ordered[0], ordered[-1])
    assert summary["p50"] == nearest_rank(ordered, 50)
    assert summary["p99"] == nearest_rank(ordered, 99)
