"""Flow analysis: per-request latency decomposition reports.

Consumes the :class:`~repro.telemetry.flow.FlowTracker`'s records and
folds them into a :class:`FlowReport` — the object behind ``repro flows``:

* **Decomposition** — end-to-end latency split into queueing / service /
  security cycles, in total and per stage, exactly (the records carry
  rational components that sum to the end-to-end latency by
  construction, so the report's totals do too).
* **Stage percentiles** — exact nearest-rank p50/p95/p99 of each
  stage's span duration (:func:`~repro.telemetry.metrics.nearest_rank`).
* **Per-layer critical paths** — flows grouped by issuing context (the
  NPU layer name); each group reports its dominant ("critical") stage.
* **Top-K slowest flows** — with their full stage breakdowns, the
  drill-down view for "where did the slow requests spend their time".
* **Slowest-decile security share** — the fraction of the slowest 10 %
  of flows' time spent in security checks; under an IOTLB-4 IOMMU the
  walk time dominates this decile, under the Guarder it is exactly zero
  (the Fig. 13 mechanism difference, per-request).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry.flow import FlowRecord
from repro.telemetry.metrics import nearest_rank

_ZERO = Fraction(0)

#: Percentiles reported per stage.
PERCENTILES = (50, 95, 99)


@dataclass
class StageStat:
    """Aggregate over every span of one stage name."""

    stage: str
    count: int = 0
    queueing: Fraction = _ZERO
    service: Fraction = _ZERO
    security: Fraction = _ZERO
    #: Span duration (as a float) -> how many spans took it.
    durations: Counter = field(default_factory=Counter)

    @property
    def total(self) -> Fraction:
        return self.queueing + self.service + self.security

    def add(self, queueing: Fraction, service: Fraction,
            security: Fraction) -> None:
        self.count += 1
        self.queueing += queueing
        self.service += service
        self.security += security
        self.durations[float(queueing + service + security)] += 1

    def percentiles(self) -> Dict[str, float]:
        return {f"p{p}": nearest_rank(self.durations, p) for p in PERCENTILES}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "count": self.count,
            "total": float(self.total),
            "queueing": float(self.queueing),
            "service": float(self.service),
            "security": float(self.security),
            **self.percentiles(),
        }


@dataclass
class LayerCriticalPath:
    """Stage totals of one issuing context, with its dominant stage."""

    context: str
    flows: int
    total: Fraction
    stage_totals: Dict[str, Fraction]

    @property
    def critical_stage(self) -> str:
        if not self.stage_totals:
            return ""
        return max(self.stage_totals.items(), key=lambda kv: (kv[1], kv[0]))[0]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "context": self.context,
            "flows": self.flows,
            "total": float(self.total),
            "critical_stage": self.critical_stage,
            "stages": {k: float(v) for k, v in self.stage_totals.items()},
        }


class FlowReport:
    """Latency-decomposition report over a set of flow records."""

    def __init__(
        self,
        records: Sequence[FlowRecord],
        top: int = 10,
        stage: Optional[str] = None,
    ):
        #: Stage-name filter: when set, only flows containing that stage
        #: are reported, and the top-K ranking orders by that stage's span.
        self.stage_filter = stage
        if stage is not None:
            records = [r for r in records if r.stage(stage) is not None]
        self.records = list(records)
        self.top = top
        self.stages: Dict[str, StageStat] = {}
        self.layers: Dict[str, LayerCriticalPath] = {}
        self.total = _ZERO
        self.queueing = _ZERO
        self.service = _ZERO
        self.security = _ZERO
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        layer_stage: Dict[str, Dict[str, Fraction]] = {}
        layer_flows: Dict[str, int] = {}
        layer_total: Dict[str, Fraction] = {}
        for record in self.records:
            self.total += record.total
            for span in record.stages:
                stat = self.stages.get(span.stage)
                if stat is None:
                    stat = self.stages[span.stage] = StageStat(span.stage)
                stat.add(span.queueing, span.service, span.security)
                self.queueing += span.queueing
                self.service += span.service
                self.security += span.security
                ctx = record.context or record.kind
                bucket = layer_stage.setdefault(ctx, {})
                bucket[span.stage] = bucket.get(span.stage, _ZERO) + span.total
            ctx = record.context or record.kind
            layer_flows[ctx] = layer_flows.get(ctx, 0) + 1
            layer_total[ctx] = layer_total.get(ctx, _ZERO) + record.total
        for ctx, totals in layer_stage.items():
            self.layers[ctx] = LayerCriticalPath(
                context=ctx,
                flows=layer_flows.get(ctx, 0),
                total=layer_total.get(ctx, _ZERO),
                stage_totals=dict(sorted(totals.items())),
            )

    # ------------------------------------------------------------------
    def _rank_key(self, record: FlowRecord) -> Fraction:
        if self.stage_filter is not None:
            span = record.stage(self.stage_filter)
            return span.total if span is not None else _ZERO
        return record.total

    def slowest(self, k: Optional[int] = None) -> List[FlowRecord]:
        """The *k* slowest flows (by total, or by the filtered stage)."""
        k = self.top if k is None else k
        ranked = sorted(
            self.records, key=lambda r: (-self._rank_key(r), r.flow_id)
        )
        return ranked[:k]

    def slowest_decile(self) -> List[FlowRecord]:
        """The slowest 10 % of flows (at least one when any exist)."""
        if not self.records:
            return []
        n = max(1, len(self.records) // 10)
        return self.slowest(n)

    def decile_security_share(self) -> float:
        """Security-cycle share of the slowest decile's total time."""
        decile = self.slowest_decile()
        total = sum((r.total for r in decile), _ZERO)
        if total == _ZERO:
            return 0.0
        sec = sum((r.security_cycles for r in decile), _ZERO)
        return float(sec / total)

    def decile_stage_totals(self) -> Dict[str, Fraction]:
        """Per-stage time totals over the slowest decile."""
        out: Dict[str, Fraction] = {}
        for record in self.slowest_decile():
            for span in record.stages:
                out[span.stage] = out.get(span.stage, _ZERO) + span.total
        return dict(sorted(out.items()))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        decile = self.slowest_decile()
        payload = {
            "flows": len(self.records),
            "stage_filter": self.stage_filter,
            "total_cycles": float(self.total),
            "queueing_cycles": float(self.queueing),
            "service_cycles": float(self.service),
            "security_cycles": float(self.security),
            "security_share": (
                float(self.security / self.total) if self.total else 0.0
            ),
            "stages": [
                self.stages[name].to_dict() for name in sorted(self.stages)
            ],
            "layers": [
                self.layers[name].to_dict() for name in sorted(self.layers)
            ],
            "slowest_decile": {
                "flows": len(decile),
                "security_share": self.decile_security_share(),
                "stages": {
                    k: float(v) for k, v in self.decile_stage_totals().items()
                },
            },
            "top": [r.to_dict() for r in self.slowest()],
        }
        return json.dumps(payload, indent=2, sort_keys=False)

    def _stage_rows(self) -> List[List[str]]:
        rows = []
        for name in sorted(self.stages):
            s = self.stages[name]
            pct = s.percentiles()
            rows.append([
                name, str(s.count), f"{float(s.total):.1f}",
                f"{float(s.queueing):.1f}", f"{float(s.service):.1f}",
                f"{float(s.security):.1f}", f"{pct['p50']:.1f}",
                f"{pct['p95']:.1f}", f"{pct['p99']:.1f}",
            ])
        return rows

    def _top_rows(self) -> List[List[str]]:
        rows = []
        for r in self.slowest():
            breakdown = " ".join(
                f"{s.stage}={float(s.total):.1f}" for s in r.stages
            )
            rows.append([
                str(r.flow_id), r.kind, r.context or "-", r.stream or "-",
                f"{float(r.total):.1f}", f"{float(r.security_cycles):.1f}",
                breakdown,
            ])
        return rows

    _STAGE_HEADER = ["stage", "count", "total", "queueing", "service",
                     "security", "p50", "p95", "p99"]
    _TOP_HEADER = ["flow", "kind", "context", "stream", "total",
                   "security", "stages"]
    _LAYER_HEADER = ["context", "flows", "total", "critical stage"]

    def _layer_rows(self) -> List[List[str]]:
        ranked = sorted(
            self.layers.values(), key=lambda l: (-l.total, l.context)
        )
        return [
            [l.context, str(l.flows), f"{float(l.total):.1f}",
             l.critical_stage]
            for l in ranked
        ]

    def to_table(self) -> str:
        def table(header: List[str], rows: List[List[str]]) -> List[str]:
            widths = [
                max(len(header[i]), *(len(r[i]) for r in rows))
                if rows else len(header[i])
                for i in range(len(header))
            ]
            fmt = "  ".join(f"{{:<{w}}}" for w in widths)
            lines = [fmt.format(*header), fmt.format(*["-" * w for w in widths])]
            lines += [fmt.format(*row) for row in rows]
            return lines

        lines = [
            f"flows: {len(self.records)}"
            + (f" (stage filter: {self.stage_filter})" if self.stage_filter else ""),
            f"total cycles: {float(self.total):.1f}  "
            f"(queueing {float(self.queueing):.1f}, "
            f"service {float(self.service):.1f}, "
            f"security {float(self.security):.1f})",
            f"slowest-decile security share: "
            f"{self.decile_security_share():.1%}",
            "",
            "Per-stage decomposition:",
        ]
        lines += table(self._STAGE_HEADER, self._stage_rows())
        lines += ["", "Per-layer critical paths:"]
        lines += table(self._LAYER_HEADER, self._layer_rows())
        lines += ["", f"Top {min(self.top, len(self.records))} slowest flows:"]
        lines += table(self._TOP_HEADER, self._top_rows())
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        def md(header: List[str], rows: List[List[str]]) -> List[str]:
            lines = [
                "| " + " | ".join(header) + " |",
                "| " + " | ".join("---" for _ in header) + " |",
            ]
            lines += ["| " + " | ".join(row) + " |" for row in rows]
            return lines

        lines = [
            "# Flow latency decomposition",
            "",
            f"- flows: {len(self.records)}"
            + (f" (stage filter: `{self.stage_filter}`)" if self.stage_filter else ""),
            f"- total cycles: {float(self.total):.1f}",
            f"- queueing / service / security: "
            f"{float(self.queueing):.1f} / {float(self.service):.1f} / "
            f"{float(self.security):.1f}",
            f"- slowest-decile security share: "
            f"{self.decile_security_share():.1%}",
            "",
            "## Per-stage decomposition",
            "",
        ]
        lines += md(self._STAGE_HEADER, self._stage_rows())
        lines += ["", "## Per-layer critical paths", ""]
        lines += md(self._LAYER_HEADER, self._layer_rows())
        lines += ["", f"## Top {min(self.top, len(self.records))} slowest flows", ""]
        lines += md(self._TOP_HEADER, self._top_rows())
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "md":
            return self.to_markdown()
        return self.to_table()


def verify_decomposition(records: Sequence[FlowRecord]) -> None:
    """Assert the exactness invariant over *records* (raises on breach).

    For every completed flow the sum of per-stage queueing + service +
    security components must equal the end-to-end latency exactly —
    the property the property-test suite checks over the model zoo ×
    protection configs.
    """
    for record in records:
        parts = sum((s.total for s in record.stages), _ZERO)
        if parts != record.total:
            raise AssertionError(
                f"flow {record.flow_id}: stage components sum to {parts}, "
                f"end-to-end latency is {record.total}"
            )
