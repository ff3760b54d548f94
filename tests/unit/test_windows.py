"""Unit tests for the sliding-window primitives (:mod:`repro.telemetry.windows`)."""

from fractions import Fraction

import pytest

from repro.errors import ConfigError, ReconciliationError
from repro.telemetry.windows import (
    TumblingCounter,
    WindowReservoir,
    merge_bucket_maps,
    sliding_sum,
    window_of,
)


class TestWindowOf:
    def test_basic_bucketing(self):
        assert window_of(0.0, 100.0) == 0
        assert window_of(99.999, 100.0) == 0
        assert window_of(100.0, 100.0) == 1  # boundary belongs to the right
        assert window_of(250.0, 100.0) == 2

    def test_boundary_is_exact_not_float(self):
        # 0.1 * 3 != 0.3 in floats; Fraction arithmetic must not care.
        assert window_of(0.30000000000000004, 0.1) == 3
        assert window_of(300.0, 100.0) == 3

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ConfigError):
            window_of(1.0, 0.0)
        with pytest.raises(ConfigError):
            window_of(1.0, -5.0)


class TestTumblingCounter:
    def test_add_buckets_and_totals(self):
        c = TumblingCounter("x", 10.0)
        assert c.add(0.0) == 0
        assert c.add(9.5, 2) == 0
        assert c.add(10.0, 4) == 1
        assert c.bucket(0) == 3
        assert c.bucket(1) == 4
        assert c.bucket(7) == 0
        assert c.total == 7
        assert c.last_window() == 1
        # Integer amounts keep integer buckets and totals.
        assert all(type(v) is int for v in c.buckets.values())
        assert type(c.total) is int

    def test_buckets_are_fraction_exact(self):
        c = TumblingCounter("x", 1.0)
        for _ in range(10):
            c.add(0.0, 0.1)
        # Float accumulation would give 0.9999999999999999.
        assert c.bucket(0) == Fraction(10, 10) or c.bucket(0) == sum(
            [Fraction(0.1)] * 10, Fraction(0)
        )
        c.reconcile(c.total)  # internally consistent by construction

    def test_series_is_dense(self):
        c = TumblingCounter("x", 10.0)
        c.add(5.0)
        c.add(35.0, 2)
        assert c.series() == [Fraction(1), Fraction(0), Fraction(0),
                              Fraction(2)]

    def test_empty_counter(self):
        c = TumblingCounter("x", 10.0)
        assert c.last_window() == -1
        assert c.series() == []
        c.reconcile(0)

    def test_ingest_merges_partials(self):
        a = TumblingCounter("x", 10.0)
        a.add(5.0, 3)
        b = TumblingCounter("x", 10.0)
        b.add(5.0, 1)
        b.add(25.0, 2)
        a.ingest(b.buckets)
        assert a.bucket(0) == 4
        assert a.bucket(2) == 2
        assert a.total == 6

    def test_reconcile_raises_on_mismatch(self):
        c = TumblingCounter("x", 10.0)
        c.add(0.0, 5)
        c.reconcile(5)
        with pytest.raises(ReconciliationError):
            c.reconcile(6)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ConfigError):
            TumblingCounter("x", 0.0)

    def test_mixed_int_and_fraction_amounts_reconcile_exactly(self):
        amounts = [1, Fraction(1, 3), 0.1, 2, 0.1, Fraction(2, 3), 0.1, 5]
        c = TumblingCounter("x", 10.0)
        for i, amount in enumerate(amounts):
            c.add(float(i % 2) * 10.0, amount)
        exact = [Fraction(a) for a in amounts]
        assert c.bucket(0) == sum(exact[0::2])
        assert c.bucket(1) == sum(exact[1::2])
        assert c.total == sum(exact)
        c.reconcile(sum(exact))
        with pytest.raises(ReconciliationError):
            # Three float adds of 0.1 round; the windows must not.
            c.reconcile(sum(Fraction(a) for a in amounts if a != 0.1)
                        + Fraction(0.1 + 0.1 + 0.1))
        # Ingesting a mixed map keeps the same exact sums.
        merged = TumblingCounter("x", 10.0)
        merged.ingest({0: 3, 1: Fraction(1, 3)})
        merged.ingest(c.buckets)
        assert merged.bucket(0) == 3 + sum(exact[0::2])
        assert merged.total == 3 + Fraction(1, 3) + sum(exact)
        merged.reconcile(3 + Fraction(1, 3) + sum(exact))


class TestSlidingSum:
    def test_trailing_span(self):
        c = TumblingCounter("x", 10.0)
        for w, amount in enumerate([1, 2, 3, 4]):
            c.add(w * 10.0, amount)
        assert sliding_sum(c, 3, 1) == 4
        assert sliding_sum(c, 3, 2) == 7
        assert sliding_sum(c, 3, 4) == 10
        # Span extending left of window 0 reads empty buckets.
        assert sliding_sum(c, 0, 4) == 1

    def test_rejects_nonpositive_span(self):
        c = TumblingCounter("x", 10.0)
        with pytest.raises(ConfigError):
            sliding_sum(c, 0, 0)


class TestWindowReservoir:
    def test_percentile_none_when_window_empty(self):
        r = WindowReservoir("lat", 10.0)
        assert r.percentile(0, 99.0) is None
        assert r.mean(0) is None
        r.observe(15.0, 7.0)
        assert r.percentile(0, 99.0) is None  # window 0 still empty
        assert r.percentile(1, 99.0) == 7.0

    def test_counts_and_sums_per_window(self):
        r = WindowReservoir("lat", 10.0)
        r.observe(0.0, 1.0)
        r.observe(5.0, 2.0)
        r.observe(10.0, 4.0)
        assert r.count(0) == 2
        assert r.window_sum(0) == 3
        assert r.count(1) == 1
        assert r.total_count == 3
        assert r.total_sum == 7
        assert r.last_window() == 1
        r.reconcile(3, 7)

    def test_windows_never_mix_samples(self):
        r = WindowReservoir("lat", 10.0, max_samples=4)
        for i in range(20):
            r.observe(5.0, 100.0)  # window 0: all 100s
        for i in range(20):
            r.observe(15.0, 1.0)  # window 1: all 1s
        assert r.percentile(0, 50.0) == 100.0
        assert r.percentile(1, 50.0) == 1.0

    def test_retained_samples_deterministic_per_window(self):
        def fill(name):
            r = WindowReservoir(name, 10.0, max_samples=8)
            for i in range(100):
                r.observe(float(i % 30), float(i))
            return r

        a, b = fill("lat"), fill("lat")
        for w in range(3):
            assert a._hists[w].samples == b._hists[w].samples
        # Different windows of the same reservoir retain different sets
        # (epoch-seeded), even though they saw value streams of equal
        # length — seed differs per (name, window).
        assert a._hists[0].epoch != a._hists[1].epoch

    def test_value_mass_is_exact(self):
        r = WindowReservoir("lat", 10.0)
        values = [0.1, 0.2, 0.30000000000000004, 5e-324, 1e300]
        for value in values:
            r.observe(0.0, value)
        exact = sum(Fraction(v) for v in values)
        assert r.window_sum(0) == r.total_sum == exact
        assert r.mean(0) == float(exact / len(values))
        r.reconcile(len(values), exact)
        with pytest.raises(ReconciliationError):
            r.reconcile(len(values), sum(values))

    def test_reconcile_raises_on_mismatch(self):
        r = WindowReservoir("lat", 10.0)
        r.observe(0.0, 2.0)
        r.reconcile(1, 2)
        with pytest.raises(ReconciliationError):
            r.reconcile(2, 2)
        with pytest.raises(ReconciliationError):
            r.reconcile(1, 3)


class TestMergeBucketMaps:
    def test_merges_by_window(self):
        merged = merge_bucket_maps(
            [{0: Fraction(1), 2: Fraction(2)}, {0: Fraction(3)}]
        )
        assert merged == {0: Fraction(4), 2: Fraction(2)}

    def test_empty_input(self):
        assert merge_bucket_maps([]) == {}
