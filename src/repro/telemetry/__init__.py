"""Unified observability layer: metrics registry + event tracing.

Usage (library)::

    from repro import telemetry

    with telemetry.scoped() as tel:          # fresh collectors, auto-restored
        soc = SoC(SoCConfig(protection="snpu"))
        soc.run_model(model, detailed=True)
        print(tel.metrics.snapshot()["mmu.guarder.checks"])
        open("trace.json", "w").write(tel.tracer.to_chrome_trace())

Usage (CLI)::

    repro stats mobilenet --detailed         # metrics table + metrics.json
    repro trace examples/quickstart.py       # Chrome-trace of a script

The five module-level collectors (``metrics``, ``tracer``, ``profiler``,
``flows``, ``audit``) are **disabled by default** and cost near nothing
while disabled.  ``scoped()`` rebinds them to fresh collectors for the
length of a block and yields those, so its handle keeps reading the
block's records after it exits.  Components register their metric groups
at construction time, so build the system you want to observe *inside*
the block.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator

from repro.telemetry.audit import AuditLedger
from repro.telemetry.flow import FlowRecord, FlowTracker, StageSpan
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricSet,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_SET,
)
from repro.telemetry.profiler import (
    CATEGORIES,
    CATEGORY_TREE,
    CycleProfiler,
    LayerAttribution,
    RunProfile,
    split_exact,
)
from repro.telemetry.sentinel import (
    DetectionReport,
    Flag,
    SecuritySentinel,
)
from repro.telemetry.slo import (
    AlertEvent,
    Breach,
    SLOObjective,
    SLOReport,
    SLOSpec,
    evaluate as evaluate_slo,
)
from repro.telemetry.trace import TraceRecorder
from repro.telemetry.windows import (
    TumblingCounter,
    WindowReservoir,
    sliding_sum,
    window_of,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSet",
    "MetricsRegistry",
    "TraceRecorder",
    "CycleProfiler",
    "AuditLedger",
    "FlowRecord",
    "FlowTracker",
    "StageSpan",
    "LayerAttribution",
    "RunProfile",
    "CATEGORIES",
    "CATEGORY_TREE",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_SET",
    "split_exact",
    "TumblingCounter",
    "WindowReservoir",
    "window_of",
    "sliding_sum",
    "SLOSpec",
    "SLOObjective",
    "SLOReport",
    "AlertEvent",
    "Breach",
    "evaluate_slo",
    "SecuritySentinel",
    "DetectionReport",
    "Flag",
    "metrics",
    "tracer",
    "profiler",
    "flows",
    "audit",
    "reset",
    "scoped",
]


@dataclass
class TelemetryScope:
    """The five telemetry collectors, as :func:`scoped` yields them."""

    metrics: MetricsRegistry
    tracer: TraceRecorder
    profiler: CycleProfiler
    flows: FlowTracker
    audit: AuditLedger


# The current collectors, disabled outside a ``scoped()`` block.  The block
# rebinds these names, so instrumented code reads ``telemetry.audit`` (etc.)
# at call time and never imports the objects themselves.
metrics = MetricsRegistry()
tracer = TraceRecorder()
profiler = CycleProfiler()
flows = FlowTracker()
audit = AuditLedger()


def _install(scope: TelemetryScope) -> TelemetryScope:
    """Rebind the module collectors to *scope*'s; returns the replaced ones."""
    global metrics, tracer, profiler, flows, audit
    replaced = TelemetryScope(metrics, tracer, profiler, flows, audit)
    metrics, tracer, profiler = scope.metrics, scope.tracer, scope.profiler
    flows, audit = scope.flows, scope.audit
    return replaced


def reset() -> None:
    """Install fresh, disabled collectors (a pool worker's starting state)."""
    _install(TelemetryScope(
        MetricsRegistry(), TraceRecorder(), CycleProfiler(), FlowTracker(),
        AuditLedger(),
    ))


@contextlib.contextmanager
def scoped(
    trace: bool = True,
    profile: bool = True,
    flow: bool = False,
    audit_log: bool = True,
) -> Iterator[TelemetryScope]:
    """Run a block against five fresh collectors.

    The metrics registry is always on; the tracer, profiler, flow tracker
    and audit ledger are on as their flags say.  The module globals point
    at the new collectors inside the block and at the previous ones again
    after it, so scopes nest and never leak registrations — each
    experiment's ``metrics.json`` contains only its own system.  The
    yielded handle holds the block's own collectors and stays readable
    after exit.  Flow tracking (per-request span records) is opt-in; the
    audit ledger is on by default (it records only decisions, never
    per-packet traffic).
    """
    scope = TelemetryScope(
        metrics=MetricsRegistry(enabled=True),
        tracer=TraceRecorder(enabled=bool(trace)),
        profiler=CycleProfiler(enabled=bool(profile)),
        flows=FlowTracker(enabled=bool(flow)),
        audit=AuditLedger(enabled=bool(audit_log)),
    )
    saved = _install(scope)
    try:
        yield scope
    finally:
        _install(saved)
