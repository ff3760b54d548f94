"""Perf-trajectory comparison: ``repro bench diff <old.json> <new.json>``.

A BENCH payload (the results file ``benchmarks/suite/run.py --out``
writes through ``benchmarks/_common.write_bench``) holds two sections
under its ``metrics`` block, and :func:`metric_sections` is the one
parser of that shape:

* ``deterministic`` — simulated cycle counts, event counts, row counts.
  These are pure IEEE-754 float math over fixed inputs, so they must be
  **bit-identical** between runs on any host: any change is a
  regression (or an unflagged behaviour change).
* ``timing`` — host wall-clock seconds and throughputs.  Noisy by
  nature: compared with a relative tolerance (default 25%).

Metric direction: larger is worse, except names ending in ``_per_sec``
or containing ``speedup``/``hits`` (throughput-style), where smaller is
worse.  Any other payload shape is a :class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError

#: Default relative tolerance for host-timing metrics.
DEFAULT_TIMING_TOLERANCE = 0.25

_HIGHER_IS_BETTER_MARKERS = ("_per_sec", "speedup", "hits", "per_second")


def higher_is_better(name: str) -> bool:
    return any(marker in name for marker in _HIGHER_IS_BETTER_MARKERS)


@dataclass
class MetricDelta:
    """One metric's old-vs-new comparison."""

    name: str
    kind: str  # "deterministic" | "timing"
    old: float
    new: float
    tolerance: float

    @property
    def ratio(self) -> float:
        """new/old (1.0 = unchanged); inf when old == 0 and new != 0."""
        if self.old == 0:
            return 1.0 if self.new == 0 else float("inf")
        return self.new / self.old

    @property
    def change(self) -> float:
        """Signed relative change of the *bad* direction (positive = worse)."""
        if self.old == 0:
            return 0.0 if self.new == 0 else float("inf")
        rel = (self.new - self.old) / abs(self.old)
        return -rel if higher_is_better(self.name) else rel

    @property
    def regressed(self) -> bool:
        return self.change > self.tolerance

    @property
    def improved(self) -> bool:
        return self.change < -self.tolerance

    def describe(self) -> str:
        flag = "REGRESSED" if self.regressed else (
            "improved" if self.improved else "ok"
        )
        return (
            f"{self.name}: {self.old:g} -> {self.new:g} "
            f"({self.change:+.1%}, tol {self.tolerance:.0%}) {flag}"
        )


@dataclass
class BenchComparison:
    """The full old-vs-new verdict of one BENCH file pair."""

    deltas: List[MetricDelta] = field(default_factory=list)
    #: Metrics present in old but missing from new (treated as failures:
    #: a benchmark silently losing coverage must not pass the gate).
    missing: List[str] = field(default_factory=list)
    #: Metrics new introduces (informational).
    added: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def summary(self) -> str:
        """One-line verdict — shared by :meth:`format_table` and the
        diagnosis a failed ``--history`` gate attaches."""
        if self.ok:
            return "OK: no regressions"
        return (
            f"FAIL: {len(self.regressions)} regression(s)"
            + (
                f", {len(self.missing)} missing metric(s)"
                if self.missing else ""
            )
        )

    def format_table(self) -> str:
        lines = []
        width = max((len(d.name) for d in self.deltas), default=8)
        for delta in self.deltas:
            flag = (
                "REGRESSED"
                if delta.regressed
                else ("improved" if delta.improved else "")
            )
            change = (
                f"{delta.change:+8.1%}"
                if delta.change not in (float("inf"),)
                else "    +inf"
            )
            lines.append(
                f"  {delta.name.ljust(width)}  {delta.old:>14g}  "
                f"{delta.new:>14g}  {change}  {flag}".rstrip()
            )
        for name in self.missing:
            lines.append(f"  {name.ljust(width)}  MISSING from new file")
        for name in self.added:
            lines.append(f"  {name.ljust(width)}  (new metric)")
        verdict = self.summary()
        header = (
            f"  {'metric'.ljust(width)}  {'old':>14}  {'new':>14}  "
            f"{'change':>8}"
        )
        return "\n".join([header] + lines + ["", verdict]) + "\n"


#: The two metric sections of a BENCH payload, in report order.
SECTIONS = ("deterministic", "timing")


def metric_sections(
    payload: Dict[str, Any], source: str = "bench payload",
) -> Dict[str, Dict[str, float]]:
    """The ``deterministic`` and ``timing`` sections of one BENCH payload.

    The payload carries ``{"metrics": {"deterministic": {...}, "timing":
    {...}}}``; a missing or null section is empty.  ConfigError, naming
    *source*, for any other shape or a metric that is not a number.
    """
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict) or not any(
        kind in metrics for kind in SECTIONS
    ):
        raise ConfigError(
            f"{source} is not a two-section BENCH payload (a \"metrics\" "
            f"object of \"deterministic\" and \"timing\" metrics)")
    sections = {}
    for kind in SECTIONS:
        section = metrics.get(kind) or {}
        if not isinstance(section, dict):
            raise ConfigError(f"{source}: metrics.{kind} is not an object")
        for name, value in section.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(
                    f"{source}: metric {kind}.{name} is {value!r}, "
                    f"not a number")
        sections[kind] = section
    return sections


def compare_bench(
    old: Dict[str, Any],
    new: Dict[str, Any],
    timing_tolerance: float = DEFAULT_TIMING_TOLERANCE,
) -> BenchComparison:
    """Compare two BENCH payloads; see the module docstring for rules."""
    comparison = BenchComparison()
    old_sections = metric_sections(old)
    new_sections = metric_sections(new)
    for kind in SECTIONS:
        old_metrics = old_sections[kind]
        new_metrics = new_sections[kind]
        tolerance = 0.0 if kind == "deterministic" else timing_tolerance
        for name in sorted(old_metrics):
            if name not in new_metrics:
                comparison.missing.append(name)
                continue
            comparison.deltas.append(
                MetricDelta(
                    name=name,
                    kind=kind,
                    old=float(old_metrics[name]),
                    new=float(new_metrics[name]),
                    tolerance=tolerance,
                )
            )
        comparison.added.extend(
            sorted(set(new_metrics) - set(old_metrics))
        )
    return comparison


def median_baseline(
    histories: List[Dict[str, Dict[str, float]]],
) -> Dict[str, Any]:
    """Fold N archived bench runs into one median-per-metric baseline.

    *histories* is what :meth:`repro.store.RunStore.bench_history`
    returns: one ``{"deterministic": {...}, "timing": {...}}`` sections
    dict per archived run, oldest first.  A metric only enters the
    baseline if at least one run carries it; the median is over the runs
    that do — a metric added mid-history is gated against the runs that
    know it, not failed for predating itself.
    """
    sections: Dict[str, Dict[str, float]] = {
        "deterministic": {}, "timing": {},
    }
    samples: Dict[str, Dict[str, List[float]]] = {
        "deterministic": {}, "timing": {},
    }
    for history in histories:
        for kind in ("deterministic", "timing"):
            for name, value in (history.get(kind) or {}).items():
                samples[kind].setdefault(name, []).append(float(value))
    for kind in ("deterministic", "timing"):
        for name, values in samples[kind].items():
            sections[kind][name] = statistics.median(values)
    return {"metrics": sections}


def compare_bench_history(
    histories: List[Dict[str, Dict[str, float]]],
    new: Dict[str, Any],
    timing_tolerance: float = DEFAULT_TIMING_TOLERANCE,
) -> BenchComparison:
    """Gate *new* against the median of N archived runs.

    Turns the point check (one committed baseline) into a trajectory
    check: a regression must beat the *typical* recent run, so a single
    lucky (or unlucky) archived run can neither mask nor fake one.
    """
    return compare_bench(
        median_baseline(histories), new, timing_tolerance=timing_tolerance,
    )


def load_bench(path: str) -> Dict[str, Any]:
    """Read one BENCH file; ConfigError unless it holds a two-section
    BENCH payload (:func:`metric_sections`)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read bench file {path!r}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"bench file {path!r} holds a "
                          f"{type(payload).__name__}, not a JSON object")
    metric_sections(payload, f"bench file {path!r}")
    return payload


def compare_bench_files(
    old_path: str,
    new_path: str,
    timing_tolerance: float = DEFAULT_TIMING_TOLERANCE,
) -> BenchComparison:
    return compare_bench(
        load_bench(old_path), load_bench(new_path),
        timing_tolerance=timing_tolerance,
    )
