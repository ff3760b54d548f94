"""Causal request-flow tracing: one record per DMA/NoC request.

The aggregate telemetry (metrics, profiler) answers *how much* time each
mechanism cost in total; the :class:`FlowTracker` answers *which request*
paid it.  Every :class:`~repro.common.types.DmaRequest` the DMA engine
issues (and every NoC packet the fabric injects) is assigned a **flow
ID** that rides the request/flit through the access controllers, the NoC
and the memory hierarchy.  When the request completes, the issuing
engine hands the tracker the end-to-end latency plus an ordered list of
``(stage, component, cycles)`` claims, and the tracker turns them into a
:class:`FlowRecord` — a span chain whose per-stage *queueing*, *service*
and *security* components **sum exactly to the end-to-end latency**.

Exactness reuses the profiler's :func:`~repro.telemetry.profiler.split_exact`
discipline: claims are clamped in order against the cycles still
unaccounted for, the remainder lands on a designated residual stage, and
every quantity is stored as an exact rational (:class:`fractions.Fraction`)
— so ``sum(stage.queueing + stage.service + stage.security) ==
Fraction(total)`` holds bit-for-bit, by construction, for every
completed flow (property-tested over the model zoo × protection
configs).

Components along the path that *see* a flow but do not own its timeline
(the IOMMU walker, the L2, the DRAM channel) annotate it instead via
:meth:`FlowTracker.accumulate` — per-flow walk counts, hit/miss bytes —
without touching the partition.

Like every telemetry collector the tracker is **disabled by default**;
``telemetry.scoped(flow=True)`` builds an enabled one for a block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.profiler import split_exact

_ZERO = Fraction(0)

#: Decomposition components of one stage span.
COMPONENTS = ("queueing", "service", "security")


@dataclass
class StageSpan:
    """One stage of a flow: a named interval with an exact decomposition."""

    stage: str
    enter: float
    exit: float
    queueing: Fraction = _ZERO
    service: Fraction = _ZERO
    security: Fraction = _ZERO

    @property
    def total(self) -> Fraction:
        return self.queueing + self.service + self.security

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "enter": self.enter,
            "exit": self.exit,
            "queueing": float(self.queueing),
            "service": float(self.service),
            "security": float(self.security),
        }


@dataclass
class FlowRecord:
    """One completed request flow: identity, span chain, annotations."""

    flow_id: int
    kind: str  # "dma" | "noc"
    issue_ts: float
    end_ts: float
    #: Exact end-to-end latency; ``sum(span totals) == total`` always.
    total: Fraction
    world: str = ""
    stream: str = ""
    nbytes: int = 0
    #: Issuing context (the NPU layer name for DMA flows).
    context: str = ""
    stages: List[StageSpan] = field(default_factory=list)
    #: Free-form accumulated annotations (walk counts, hit bytes, ...).
    meta: Dict[str, float] = field(default_factory=dict)

    @property
    def security_cycles(self) -> Fraction:
        return sum((s.security for s in self.stages), _ZERO)

    @property
    def queueing_cycles(self) -> Fraction:
        return sum((s.queueing for s in self.stages), _ZERO)

    @property
    def service_cycles(self) -> Fraction:
        return sum((s.service for s in self.stages), _ZERO)

    def stage(self, name: str) -> Optional[StageSpan]:
        for span in self.stages:
            if span.stage == name:
                return span
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "flow": self.flow_id,
            "kind": self.kind,
            "world": self.world,
            "stream": self.stream,
            "bytes": self.nbytes,
            "context": self.context,
            "issue_ts": self.issue_ts,
            "end_ts": self.end_ts,
            "total": float(self.total),
            "stages": [s.to_dict() for s in self.stages],
            "meta": dict(sorted(self.meta.items())),
        }


class FlowTracker:
    """Allocates flow IDs and assembles exact per-request span chains."""

    def __init__(self, enabled: bool = False, max_flows: int = 200_000):
        self.enabled = enabled
        #: Hard cap on retained records; completions beyond it are counted
        #: in ``dropped`` (IDs keep allocating so audit stamps stay valid).
        self.max_flows = max_flows
        self.dropped = 0
        self._records: Dict[int, FlowRecord] = {}
        #: Annotations accumulated before the flow completes.
        self._pending_meta: Dict[int, Dict[str, float]] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def allocate(self) -> Optional[int]:
        """Hand out the next flow ID (None while disabled)."""
        if not self.enabled:
            return None
        flow_id = self._next_id
        self._next_id += 1
        return flow_id

    def accumulate(self, flow_id: Optional[int], key: str, amount: float) -> None:
        """Add *amount* to annotation *key* of a (possibly in-flight) flow."""
        if not self.enabled or flow_id is None:
            return
        record = self._records.get(flow_id)
        meta = (
            record.meta
            if record is not None
            else self._pending_meta.setdefault(flow_id, {})
        )
        meta[key] = meta.get(key, 0.0) + amount

    def complete(
        self,
        flow_id: Optional[int],
        kind: str,
        issue_ts: float,
        total: float,
        parts: Sequence[Tuple[str, str, float]],
        residual: Tuple[str, str],
        world: str = "",
        stream: str = "",
        nbytes: int = 0,
        context: str = "",
        track: str = "",
    ) -> Optional[FlowRecord]:
        """Close a flow with an exact stage decomposition.

        *parts* is an ordered list of ``(stage, component, cycles)``
        claims (component ∈ ``COMPONENTS``); whatever the claims leave
        unaccounted lands on the *residual* ``(stage, component)``.  Stage
        spans get back-to-back timestamps starting at *issue_ts*, in
        first-claim order.  Emits Chrome-trace flow arrows (``ph s/t/f``)
        when the tracer is live so Perfetto links the causal chain across
        tracks.
        """
        if not self.enabled or flow_id is None:
            return None
        exact = split_exact(
            total,
            [(f"{stage}\x00{comp}", cyc) for stage, comp, cyc in parts],
            f"{residual[0]}\x00{residual[1]}",
        )
        stage_order: List[str] = []
        for stage, _comp, _cyc in list(parts) + [residual + (0.0,)]:
            if stage not in stage_order:
                stage_order.append(stage)
        spans: List[StageSpan] = []
        cursor = issue_ts
        for stage in stage_order:
            span = StageSpan(stage=stage, enter=cursor, exit=cursor)
            for comp in COMPONENTS:
                value = exact.get(f"{stage}\x00{comp}")
                if value is not None:
                    setattr(span, comp, value)
            if span.total == _ZERO:
                continue
            span.exit = cursor + float(span.total)
            cursor = span.exit
            spans.append(span)
        record = FlowRecord(
            flow_id=flow_id,
            kind=kind,
            issue_ts=issue_ts,
            end_ts=issue_ts + float(total),
            total=Fraction(float(total)),
            world=world,
            stream=stream,
            nbytes=nbytes,
            context=context,
            stages=spans,
        )
        record.meta.update(self._pending_meta.pop(flow_id, {}))
        if len(self._records) >= self.max_flows:
            self.dropped += 1
            return None
        self._records[flow_id] = record
        self._emit_trace(record, track or kind)
        return record

    def abort(self, flow_id: Optional[int]) -> None:
        """Drop an in-flight flow (e.g. its request was denied)."""
        if flow_id is not None:
            self._pending_meta.pop(flow_id, None)

    # ------------------------------------------------------------------
    def _emit_trace(self, record: FlowRecord, issue_track: str) -> None:
        """Chrome-trace spans + flow arrows for one completed flow."""
        from repro import telemetry

        tracer = telemetry.tracer
        if not tracer.enabled:
            return
        flow_track = f"flow.{record.kind}"
        name = f"flow#{record.flow_id}"
        tracer.flow_point(
            name, "flow", "s", record.flow_id, ts=record.issue_ts,
            track=issue_track,
        )
        for span in record.stages:
            tracer.span(
                span.stage, "flow", ts=span.enter,
                dur=span.exit - span.enter, track=flow_track,
                flow=record.flow_id,
                security=float(span.security), queueing=float(span.queueing),
            )
            tracer.flow_point(
                name, "flow", "t", record.flow_id, ts=span.enter,
                track=flow_track,
            )
        tracer.flow_point(
            name, "flow", "f", record.flow_id, ts=record.end_ts,
            track=flow_track,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def records(self) -> List[FlowRecord]:
        """Completed flows in allocation order."""
        return [self._records[k] for k in sorted(self._records)]

    def get(self, flow_id: int) -> Optional[FlowRecord]:
        return self._records.get(flow_id)
