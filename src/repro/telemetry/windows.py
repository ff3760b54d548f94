"""Deterministic sliding-window aggregation keyed on simulated cycles.

Post-hoc reports (``repro stats``/``profile``/``flows``) answer "what
happened over the whole run"; the online layer built here answers "what
is happening *now*" — the signal an autoscaler, an SLO burn-rate alert
or a streaming security detector needs.  Everything is keyed on
**simulated cycles**, never wall-clock, so a timeline is as
reproducible as the simulation that produced it.

Three primitives:

* :class:`TumblingCounter` — counts/sums bucketed into fixed-size
  windows (window ``w`` covers ``[w*W, (w+1)*W)`` cycles).  Buckets are
  exact: plain ints while every amount is an int, a
  :class:`fractions.Fraction` once a bucket takes a non-integer amount.
  So the **reconciliation invariant** — the sum of per-window partials
  equals the end-of-run total, *exactly*, not approximately — is
  checkable with ``==`` and enforced by
  :meth:`TumblingCounter.reconcile`.
* :func:`sliding_sum` — a sliding view over the trailing *span*
  tumbling buckets (the multi-window burn-rate alerts in
  :mod:`repro.telemetry.slo` are built on this).
* :class:`WindowReservoir` — per-window latency values with exact
  nearest-rank percentiles.  Each window gets its own exact
  :class:`~repro.telemetry.metrics.Histogram`, so percentiles never mix
  observations across a window boundary.  Its value mass is held
  exactly, as an integer count of ``2**-1074`` units (every float is a
  whole number of them), so no observation builds a Fraction.

Window indices are integer floors over exact integer ratios
(:func:`window_of`), so bucketing builds no Fraction either.

Determinism contract: window boundaries depend only on the event's
cycle stamp and the window size, never on feed order (property-tested
in ``tests/property/test_property_windows.py``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional, Union

from repro.errors import ConfigError, ReconciliationError
from repro.telemetry.metrics import Histogram, nearest_rank

Number = Union[int, float, Fraction]
#: An exact bucket value: an int while every amount was one.
Exact = Union[int, Fraction]

#: Value mass is counted in units of 2**-_UNIT_BITS, the smallest
#: positive float, so every float is an exact whole number of units.
_UNIT_BITS = 1074


def window_of(cycle: Number, window_cycles: Number) -> int:
    """Index of the tumbling window containing *cycle*.

    Window ``w`` covers ``[w * window_cycles, (w + 1) * window_cycles)``.
    An integer floor over both values' exact integer ratios, equal to
    ``floor(Fraction(cycle) / Fraction(window_cycles))``, so a cycle
    landing precisely on a boundary buckets identically on every host.
    """
    if window_cycles <= 0:
        raise ConfigError(f"window_cycles must be positive, got {window_cycles}")
    num, den = cycle.as_integer_ratio()
    w_num, w_den = window_cycles.as_integer_ratio()
    return (num * w_den) // (den * w_num)


def _exact(amount: Number) -> Exact:
    """*amount* as an exact bucket value: ints stay ints."""
    return amount if type(amount) is int else Fraction(amount)


def _float_units(value: float) -> int:
    """``float(value)`` as an exact integer count of 2**-_UNIT_BITS."""
    num, den = float(value).as_integer_ratio()
    return num << (_UNIT_BITS + 1 - den.bit_length())


def exact_sum(values: Iterable[float]) -> Fraction:
    """The exact sum of ``float(v)`` over *values*, built in integer
    units rather than one Fraction per value."""
    return Fraction(sum(map(_float_units, values)), 1 << _UNIT_BITS)


class TumblingCounter:
    """Exact event counts/sums bucketed into tumbling windows."""

    __slots__ = ("name", "window_cycles", "buckets", "total")

    def __init__(self, name: str, window_cycles: float):
        if window_cycles <= 0:
            raise ConfigError(
                f"{name}: window_cycles must be positive, got {window_cycles}"
            )
        self.name = name
        self.window_cycles = float(window_cycles)
        #: Sparse ``window index -> exact partial sum``.
        self.buckets: Dict[int, Exact] = {}
        #: Exact running total over every :meth:`add`.
        self.total: Exact = 0

    def add(self, cycle: float, amount: Number = 1) -> int:
        """Record *amount* at *cycle*; returns the bucketed window index."""
        w = window_of(cycle, self.window_cycles)
        exact = _exact(amount)
        buckets = self.buckets
        buckets[w] = buckets.get(w, 0) + exact
        self.total += exact
        return w

    def bucket(self, window: int) -> Exact:
        return self.buckets.get(window, 0)

    def last_window(self) -> int:
        """Highest populated window index (-1 while empty)."""
        return max(self.buckets) if self.buckets else -1

    # ------------------------------------------------------------------
    def reconcile(self, expected_total: Number) -> None:
        """Raise unless the window partials sum exactly to *expected_total*.

        *expected_total* must itself be exact (an int count, or a
        :class:`Fraction` accumulated alongside the events) — comparing
        against a float-accumulated total would blame the windows for
        the caller's rounding.
        """
        partial = sum(self.buckets.values())
        if partial != self.total:
            raise ReconciliationError(
                f"{self.name}: internal total {self.total} != bucket sum "
                f"{partial}"
            )
        if partial != Fraction(expected_total):
            raise ReconciliationError(
                f"{self.name}: window partial sums total {partial}, "
                f"end-of-run total is {Fraction(expected_total)}"
            )


def sliding_sum(counter: TumblingCounter, window: int, span: int) -> Fraction:
    """Sum of the trailing *span* buckets ending at *window* (inclusive).

    The sliding view over tumbling buckets: ``span=1`` is the tumbling
    value itself; larger spans give the smoothed signal multi-window
    burn-rate alerting evaluates.
    """
    if span <= 0:
        raise ConfigError(f"span must be positive, got {span}")
    return sum(
        (counter.bucket(w) for w in range(window - span + 1, window + 1)),
        Fraction(0),
    )


class WindowReservoir:
    """Per-window value histograms with exact nearest-rank percentiles.

    One exact :class:`~repro.telemetry.metrics.Histogram` per populated
    window, so a window's percentiles are a pure function of the values
    observed in it.  Alongside it an exact sum per window is kept (the
    sum of the observed floats, as integer 2**-1074 units), so latency
    mass reconciles exactly with end-of-run totals.
    """

    __slots__ = ("name", "window_cycles", "_hists", "_units", "total_count")

    def __init__(self, name: str, window_cycles: float):
        if window_cycles <= 0:
            raise ConfigError(
                f"{name}: window_cycles must be positive, got {window_cycles}"
            )
        self.name = name
        self.window_cycles = float(window_cycles)
        self._hists: Dict[int, Histogram] = {}
        #: Sparse ``window index -> value mass in 2**-_UNIT_BITS units``.
        self._units: Dict[int, int] = {}
        self.total_count = 0

    def observe(self, cycle: float, value: float) -> int:
        w = window_of(cycle, self.window_cycles)
        hist = self._hists.get(w)
        if hist is None:
            hist = self._hists[w] = Histogram(self.name)
        hist.observe(value)
        self._units[w] = self._units.get(w, 0) + _float_units(value)
        self.total_count += 1
        return w

    # ------------------------------------------------------------------
    def count(self, window: int) -> int:
        hist = self._hists.get(window)
        return hist.count if hist is not None else 0

    def window_sum(self, window: int) -> Fraction:
        return Fraction(self._units.get(window, 0), 1 << _UNIT_BITS)

    @property
    def total_sum(self) -> Fraction:
        """Exact value mass over every window."""
        return Fraction(sum(self._units.values()), 1 << _UNIT_BITS)

    def percentile(self, window: int, p: float) -> Optional[float]:
        """Nearest-rank percentile of one window; None when it saw nothing."""
        hist = self._hists.get(window)
        return nearest_rank(hist.counts, p) if hist is not None else None

    def mean(self, window: int) -> Optional[float]:
        n = self.count(window)
        if not n:
            return None
        # int / int rounds correctly, as float(Fraction) does.
        return self._units[window] / (n << _UNIT_BITS)

    def last_window(self) -> int:
        return max(self._hists) if self._hists else -1

    # ------------------------------------------------------------------
    def reconcile(self, expected_count: int,
                  expected_sum: Optional[Number] = None) -> None:
        """Raise unless per-window counts (and, when given, exact value
        sums) reconcile with the end-of-run totals."""
        count = sum(hist.count for hist in self._hists.values())
        if count != self.total_count or count != int(expected_count):
            raise ReconciliationError(
                f"{self.name}: window counts sum to {count}, end-of-run "
                f"count is {expected_count}"
            )
        if expected_sum is not None:
            partial = self.total_sum
            if partial != Fraction(expected_sum):
                raise ReconciliationError(
                    f"{self.name}: window value sums total {partial}, "
                    f"end-of-run total is {Fraction(expected_sum)}"
                )


def fraction_to_jsonable(value: Exact) -> Union[int, float]:
    """Render an exact bucket value for JSON: int when integral, else
    the nearest float (display only — invariants are checked upstream
    on the exact values)."""
    if value.denominator == 1:
        return int(value)
    return float(value)
