"""Causal cross-run diagnosis: exact delta attribution between two runs.

The archive (``repro.store``) can *flag* that two runs differ and the
profiler (``repro.telemetry.profiler``) can decompose *one* run; this
module explains the difference.  Given any two runs — two archived
run_ids, a BENCH file vs its archived history median, or two live
configurations run back-to-back — :class:`Diagnosis` decomposes the
end-to-end cycle/latency delta into **Fraction-exact parts that sum to
the total by construction**, then ranks them into a plain-language
verdict table ("dma.stall.iotlb +18% of delta, concentrated in layers
4–7").

Exactness invariant
-------------------

``sum(part.delta for part in parts) == total_b - total_a`` holds
bit-for-bit (:meth:`Diagnosis.verify` raises :class:`DiagnosisError`
otherwise, and every builder calls it).  Parts are the *decomposition*;
flow-stage percentile shifts, per-tenant p99/SLA deltas, audit deny
deltas and attack detection-latency changes ride along as context
sections that deliberately do **not** participate in the sum.

Determinism contract
--------------------

A diagnosis contains only quantities derived from seeded simulation or
archived canonical rows — no wall-clock, no hostname, no environment —
so the same pair diagnosed twice renders byte-identical output in every
format (``tests/integration/test_cli_contract.py`` compares two JSON
dumps).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import DiagnosisError, StoreError
from repro.store.store import RunStore, numeric
from repro.telemetry.profiler import CATEGORIES, parse_fraction

_ZERO = Fraction(0)

#: Verdict thresholds on a part's share of the end-to-end delta.
_DOMINATES = Fraction(1, 2)
_DRIVES = Fraction(3, 20)
#: A category delta is "concentrated" when a strict sub-span of layers
#: carries *more than* this share of it (strict, so a perfectly uniform
#: spread never counts as concentrated).
_CONCENTRATION = Fraction(3, 4)

#: Fallback end-to-end metrics for archived runs without an exact
#: category tree or serve cycle decomposition (first present in both
#: runs wins).
PRIMARY_METRICS = (
    "profile.total_cycles",
    "run.cycles",
    "serve.makespan_cycles",
    "serve.makespan_ms",
    "flows.total",
    "watch.completed",
    "audit.records",
    "attacks.total",
    "slo.alerts",
)


# ----------------------------------------------------------------------
# The diagnosis object
# ----------------------------------------------------------------------
@dataclass
class DiagnosisPart:
    """One exact component of the end-to-end delta."""

    name: str
    a: Fraction
    b: Fraction

    @property
    def delta(self) -> Fraction:
        return self.b - self.a


@dataclass
class Diagnosis:
    """An exact decomposition of the delta between two runs.

    ``parts`` sum bit-for-bit to ``total_b - total_a``; the remaining
    sections (flow shifts, tenant deltas, audit deltas, detections,
    scalars) are context, not addends.
    """

    kind: str  # "profile" | "archive" | "serve" | "bench"
    label_a: str
    label_b: str
    unit: str
    total_a: Fraction
    total_b: Fraction
    parts: List[DiagnosisPart]
    concentrations: Dict[str, str] = field(default_factory=dict)
    flow_shifts: List[Dict[str, Any]] = field(default_factory=list)
    tenant_deltas: List[Dict[str, Any]] = field(default_factory=list)
    audit_deltas: List[Dict[str, Any]] = field(default_factory=list)
    detections: List[Dict[str, Any]] = field(default_factory=list)
    scalars: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    # -- invariants ----------------------------------------------------
    @property
    def total_delta(self) -> Fraction:
        return self.total_b - self.total_a

    def verify(self) -> "Diagnosis":
        """Assert the exact-sum invariant (always a bug when it fails)."""
        parts_sum = sum((p.delta for p in self.parts), _ZERO)
        if parts_sum != self.total_delta:
            raise DiagnosisError(
                f"diagnosis parts sum {parts_sum} != end-to-end delta "
                f"{self.total_delta} ({self.label_a} vs {self.label_b})"
            )
        return self

    # -- ranking -------------------------------------------------------
    def share(self, part: DiagnosisPart) -> Optional[Fraction]:
        """Exact share of the end-to-end delta (None when the runs tied
        end-to-end — a share of zero would hide offsetting parts)."""
        if self.total_delta == 0:
            return None
        return part.delta / self.total_delta

    def ranked(self) -> List[DiagnosisPart]:
        """Parts by descending |delta| (name-ascending tiebreak)."""
        return sorted(self.parts, key=lambda p: (-abs(p.delta), p.name))

    def verdicts(self) -> List[str]:
        """Ranked plain-language explanation of the delta."""
        out: List[str] = []
        for part in self.ranked():
            if part.delta == 0:
                continue
            share = self.share(part)
            if share is None:
                clause = "offsetting part (no net end-to-end delta)"
            elif share >= _DOMINATES:
                clause = f"{_pct(share)} of delta — dominates the delta"
            elif share >= _DRIVES:
                clause = f"{_pct(share)} of delta — drives the delta"
            elif share < 0:
                clause = f"{_pct(share)} of delta — offsets the delta"
            else:
                clause = f"{_pct(share)} of delta — minor contributor"
            rel = ""
            if part.a != 0:
                rel = f" ({_pct(part.delta / part.a)} vs a)"
            where = self.concentrations.get(part.name)
            tail = f", concentrated in {where}" if where else ""
            out.append(
                f"{part.name} {_qty(part.delta)} {self.unit}{rel}: "
                f"{clause}{tail}"
            )
        if not out:
            out.append(
                f"no delta: {self.label_b} matches {self.label_a} exactly"
            )
        return out

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-portable view; exact rationals ride along as num/den."""
        ranked = self.ranked()
        return {
            "kind": self.kind,
            "a": self.label_a,
            "b": self.label_b,
            "unit": self.unit,
            "total": {
                "a": float(self.total_a),
                "b": float(self.total_b),
                "delta": float(self.total_delta),
                "a_exact": _encode(self.total_a),
                "b_exact": _encode(self.total_b),
                "delta_exact": _encode(self.total_delta),
                "pct": (
                    float(self.total_delta / self.total_a)
                    if self.total_a != 0 else None
                ),
            },
            "parts": [
                {
                    "name": p.name,
                    "a": float(p.a),
                    "b": float(p.b),
                    "delta": float(p.delta),
                    "a_exact": _encode(p.a),
                    "b_exact": _encode(p.b),
                    "delta_exact": _encode(p.delta),
                    "share": (
                        float(self.share(p))
                        if self.share(p) is not None else None
                    ),
                    "concentration": self.concentrations.get(p.name),
                }
                for p in ranked
            ],
            "flow_shifts": list(self.flow_shifts),
            "tenant_deltas": list(self.tenant_deltas),
            "audit_deltas": list(self.audit_deltas),
            "detections": list(self.detections),
            "scalars": list(self.scalars),
            "notes": list(self.notes),
            "verdicts": self.verdicts(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    # -- rendering -----------------------------------------------------
    def render(self, fmt: str = "table") -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "md":
            return self._render_md()
        return self._render_table()

    def _headline(self) -> str:
        pct = (
            f", {_pct(Fraction(self.total_delta, self.total_a))}"
            if self.total_a != 0 else ""
        )
        return (
            f"end-to-end: {_num(float(self.total_a))} -> "
            f"{_num(float(self.total_b))} {self.unit} "
            f"({_qty(self.total_delta)}{pct})"
        )

    def _render_table(self) -> str:
        lines = [
            f"== diagnose[{self.kind}]: {self.label_a} -> {self.label_b} ==",
            self._headline(),
            "",
        ]
        ranked = [p for p in self.ranked() if p.delta != 0]
        if ranked:
            rows = [
                (
                    str(i + 1), p.name, _num(float(p.a)), _num(float(p.b)),
                    _qty(p.delta),
                    "-" if self.share(p) is None else _pct(self.share(p)),
                )
                for i, p in enumerate(ranked)
            ]
            lines += _columns(
                ("#", "part", "a", "b", "delta", "share"), rows
            )
            lines.append(
                "(parts sum exactly to the end-to-end delta: "
                f"{_encode(self.total_delta)} {self.unit})"
            )
        else:
            lines.append("(no part of the decomposition moved)")
        lines += ["", "verdicts:"]
        for i, verdict in enumerate(self.verdicts()):
            lines.append(f"  {i + 1}. {verdict}")
        lines += self._render_context()
        for note in self.notes:
            lines += ["", f"note: {note}"]
        return "\n".join(lines) + "\n"

    def _render_context(self) -> List[str]:
        lines: List[str] = []
        if self.flow_shifts:
            lines += ["", "flow-stage percentile shifts:"]
            rows = [
                (
                    s["stage"],
                    _num(s.get("p50_a")), _num(s.get("p50_b")),
                    _num(s.get("p95_a")), _num(s.get("p95_b")),
                    _num(s.get("p99_a")), _num(s.get("p99_b")),
                )
                for s in self.flow_shifts
            ]
            lines += _columns(
                ("stage", "p50 a", "p50 b", "p95 a", "p95 b",
                 "p99 a", "p99 b"),
                rows, indent="  ",
            )
        if self.tenant_deltas:
            lines += ["", "per-tenant deltas:"]
            rows = [
                (
                    t["tenant"], str(t.get("n_a", 0)), str(t.get("n_b", 0)),
                    _num(t.get("p99_ms_a")), _num(t.get("p99_ms_b")),
                    _num(t.get("p99_ms_delta")),
                    _num(t.get("sla_a")), _num(t.get("sla_b")),
                )
                for t in self.tenant_deltas
            ]
            lines += _columns(
                ("tenant", "n a", "n b", "p99 a", "p99 b", "Δp99",
                 "sla a", "sla b"),
                rows, indent="  ",
            )
        if self.audit_deltas:
            lines += ["", "audit deltas:"]
            rows = [
                (
                    a["kind"], str(a.get("denies_a", 0)),
                    str(a.get("denies_b", 0)),
                    "new denies" if a.get("new_denies") else "",
                )
                for a in self.audit_deltas
            ]
            lines += _columns(
                ("kind", "denies a", "denies b", ""), rows, indent="  "
            )
        if self.detections:
            lines += ["", "detection changes:"]
            rows = [
                (
                    d["protection"], d["attack"],
                    str(d.get("outcome_a", "-")), str(d.get("outcome_b", "-")),
                    _num(d.get("latency_a")), _num(d.get("latency_b")),
                )
                for d in self.detections
            ]
            lines += _columns(
                ("protection", "attack", "outcome a", "outcome b",
                 "latency a", "latency b"),
                rows, indent="  ",
            )
        if self.scalars:
            lines += ["", "other deltas:"]
            rows = [
                (
                    s["name"], _num(s.get("a")), _num(s.get("b")),
                    _num(s.get("delta")),
                )
                for s in self.scalars
            ]
            lines += _columns(("name", "a", "b", "delta"), rows, indent="  ")
        return lines

    def _render_md(self) -> str:
        lines = [
            f"## Diagnosis: {self.label_a} vs {self.label_b} ({self.kind})",
            "",
            self._headline(),
            "",
            "| # | part | a | b | delta | share |",
            "|---:|---|---:|---:|---:|---:|",
        ]
        for i, p in enumerate(pp for pp in self.ranked() if pp.delta != 0):
            share = self.share(p)
            lines.append(
                f"| {i + 1} | {p.name} | {_num(float(p.a))} "
                f"| {_num(float(p.b))} | {_qty(p.delta)} "
                f"| {'-' if share is None else _pct(share)} |"
            )
        lines += ["", "Verdicts:", ""]
        for verdict in self.verdicts():
            lines.append(f"1. {verdict}")
        for note in self.notes:
            lines += ["", f"> {note}"]
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Formatting helpers
# ----------------------------------------------------------------------
def _encode(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _num(value: Optional[float]) -> str:
    if value is None:
        return "-"
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.6g}"


def _qty(value: Fraction) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return f"{int(as_float):+,}"
    return f"{as_float:+,.6g}"


def _pct(share: Fraction) -> str:
    return f"{float(share):+.1%}"


def _columns(
    columns: Sequence[str],
    rows: List[Tuple[str, ...]],
    indent: str = "  ",
) -> List[str]:
    widths = [
        max(len(columns[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(columns))
    ]
    lines = [
        indent + "  ".join(c.ljust(w) for c, w in zip(columns, widths)),
        indent + "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            indent + "  ".join(v.ljust(w) for v, w in zip(row, widths))
        )
    return lines


def _category_order(names: Sequence[str]) -> List[str]:
    """Category-tree order first, unknown names sorted after."""
    known = [c for c in CATEGORIES if c in names]
    return known + sorted(set(names) - set(CATEGORIES))


# ----------------------------------------------------------------------
# Builders: live profiles
# ----------------------------------------------------------------------
def diagnose_profiles(a: Any, b: Any) -> Diagnosis:
    """Diagnose two :class:`~repro.analysis.profile.ModelProfile` runs.

    Parts are the per-category exact deltas; per-category layer
    concentration is computed when both runs attributed the same layer
    sequence.
    """
    names = _category_order(set(a.categories) | set(b.categories))
    parts = [
        DiagnosisPart(
            name=name,
            a=a.categories.get(name, _ZERO),
            b=b.categories.get(name, _ZERO),
        )
        for name in names
    ]
    parts = [p for p in parts if p.a != 0 or p.b != 0]
    concentrations: Dict[str, str] = {}
    for part in parts:
        if part.delta == 0:
            continue
        where = _layer_concentration(part.name, a.layers, b.layers)
        if where:
            concentrations[part.name] = where
    scalars = [
        {
            "name": f"count.{key}",
            "a": a.counts.get(key, 0),
            "b": b.counts.get(key, 0),
            "delta": b.counts.get(key, 0) - a.counts.get(key, 0),
        }
        for key in sorted(set(a.counts) | set(b.counts))
        if a.counts.get(key, 0) != b.counts.get(key, 0)
    ]
    notes = []
    if a.task != b.task:
        notes.append(f"comparing different workloads: {a.task} vs {b.task}")
    if a.mode != b.mode:
        notes.append(f"comparing different modes: {a.mode} vs {b.mode}")
    return Diagnosis(
        kind="profile",
        label_a=f"{a.task}:{a.protection}",
        label_b=f"{b.task}:{b.protection}",
        unit="cycles",
        total_a=a.total,
        total_b=b.total,
        parts=parts,
        concentrations=concentrations,
        scalars=scalars,
        notes=notes,
    ).verify()


def _layer_concentration(
    category: str, layers_a: Sequence[Any], layers_b: Sequence[Any]
) -> Optional[str]:
    """Smallest contiguous layer span carrying more than 3/4 of the
    category's delta — None unless it is a *strict* sub-span (a delta
    spread over every layer is not "concentrated")."""
    if not layers_a or len(layers_a) != len(layers_b):
        return None
    deltas = [
        lb.parts.get(category, _ZERO) - la.parts.get(category, _ZERO)
        for la, lb in zip(layers_a, layers_b)
    ]
    total = sum(deltas, _ZERO)
    if total == 0:
        return None
    count = len(deltas)
    best: Optional[Tuple[int, int]] = None
    for start in range(count):
        acc = _ZERO
        for end in range(start, count):
            acc += deltas[end]
            if acc / total > _CONCENTRATION:
                if best is None or (end - start) < (best[1] - best[0]):
                    best = (start, end)
                break
    if best is None or best == (0, count - 1):
        return None
    start, end = best
    first = layers_b[start].index
    last = layers_b[end].index
    if first == last:
        return f"layer {first}"
    return f"layers {first}–{last}"


# ----------------------------------------------------------------------
# Builders: live serving runs
# ----------------------------------------------------------------------
def diagnose_serve(a: Any, b: Any) -> Diagnosis:
    """Diagnose two :class:`~repro.serving.report.ServeReport` runs.

    The decomposed total is **busy cycles** (service + flush + world
    switch), summed exactly from its components — on the spatial 2-slot
    server busy time can exceed the makespan, so makespan is context
    (a scalar), not the decomposable quantity.
    """
    from repro.serving.report import diff_tenant_reports

    def _parts(report: Any) -> Dict[str, Fraction]:
        out = report.outcome
        return {
            "serve.service": Fraction(out.service_cycles),
            "serve.flush": Fraction(out.flush_cycles),
            "serve.world_switch": Fraction(out.world_cycles),
        }

    parts_a, parts_b = _parts(a), _parts(b)
    parts = [
        DiagnosisPart(name=name, a=parts_a[name], b=parts_b[name])
        for name in ("serve.service", "serve.flush", "serve.world_switch")
    ]
    scalars = []
    for name, va, vb in (
        ("makespan_ms", a.makespan_ms, b.makespan_ms),
        ("completed", len(a.outcome.completed), len(b.outcome.completed)),
        ("flushes", a.outcome.flushes, b.outcome.flushes),
        ("world_switches", a.outcome.world_switches,
         b.outcome.world_switches),
    ):
        if va != vb:
            scalars.append({"name": name, "a": va, "b": vb,
                            "delta": vb - va})
    notes = []
    if a.outcome.scenario != b.outcome.scenario:
        notes.append(
            f"comparing different scenarios: {a.outcome.scenario} vs "
            f"{b.outcome.scenario}"
        )
    return Diagnosis(
        kind="serve",
        label_a=f"{a.outcome.scenario}:{a.outcome.mechanism}",
        label_b=f"{b.outcome.scenario}:{b.outcome.mechanism}",
        unit="cycles",
        total_a=sum((p.a for p in parts), _ZERO),
        total_b=sum((p.b for p in parts), _ZERO),
        parts=[p for p in parts if p.a != 0 or p.b != 0],
        tenant_deltas=diff_tenant_reports(a, b),
        scalars=scalars,
        notes=notes,
    ).verify()


# ----------------------------------------------------------------------
# Builders: archived run pairs
# ----------------------------------------------------------------------
def diagnose_archived(
    store: RunStore, id_a: str, id_b: str
) -> Diagnosis:
    """Diagnose two archived runs by (possibly abbreviated) run_id.

    Prefers the exact profiler category tree when both runs archived
    one; falls back to the serve busy-cycle decomposition, then to a
    single end-to-end part from the first :data:`PRIMARY_METRICS`
    present in both.  Raises :class:`StoreError` (CLI exit 2) for
    unknown ids or incomparable runs.
    """
    run_a = store.resolve_run(id_a)
    run_b = store.resolve_run(id_b)
    label_a = _run_label(run_a)
    label_b = _run_label(run_b)
    if run_a["run_id"] == run_b["run_id"]:
        raise StoreError(
            f"both ids resolve to the same archived run {label_a}"
        )
    notes: List[str] = []
    if (run_a["verb"], run_a["experiment"]) != \
            (run_b["verb"], run_b["experiment"]):
        notes.append(
            f"comparing across experiments: {run_a['verb']}:"
            f"{run_a['experiment']} vs {run_b['verb']}:{run_b['experiment']}"
        )

    cats_a = _archived_categories(store, run_a["run_id"])
    cats_b = _archived_categories(store, run_b["run_id"])
    metrics_a = _archived_metrics(store, run_a["run_id"])
    metrics_b = _archived_metrics(store, run_b["run_id"])
    if cats_a and cats_b:
        names = _category_order(set(cats_a) | set(cats_b))
        parts = [
            DiagnosisPart(
                name=name,
                a=cats_a.get(name, _ZERO),
                b=cats_b.get(name, _ZERO),
            )
            for name in names
        ]
        total_a = sum(cats_a.values(), _ZERO)
        total_b = sum(cats_b.values(), _ZERO)
        unit = "cycles"
    else:
        parts, total_a, total_b, unit = _metric_parts(
            metrics_a, metrics_b, label_a, label_b, notes
        )

    diagnosis = Diagnosis(
        kind="archive",
        label_a=label_a,
        label_b=label_b,
        unit=unit,
        total_a=total_a,
        total_b=total_b,
        parts=[p for p in parts if p.a != 0 or p.b != 0],
        flow_shifts=_flow_shifts(
            store.children("flow_stages", run_a["run_id"]),
            store.children("flow_stages", run_b["run_id"]),
        ),
        tenant_deltas=_tenant_deltas(
            store.children("tenants", run_a["run_id"]),
            store.children("tenants", run_b["run_id"]),
        ),
        audit_deltas=_audit_deltas(
            store.children("audit_summary", run_a["run_id"]),
            store.children("audit_summary", run_b["run_id"]),
        ),
        detections=_detection_deltas(
            store.children("attacks", run_a["run_id"]),
            store.children("attacks", run_b["run_id"]),
        ),
        notes=notes,
    )
    return diagnosis.verify()


#: Exact serve busy-cycle decomposition, archived by record_from_serve.
_SERVE_CYCLE_METRICS = (
    ("serve.service", "serve.service_cycles"),
    ("serve.flush", "serve.flush_cycles"),
    ("serve.world_switch", "serve.world_cycles"),
)


def _metric_parts(
    metrics_a: Dict[str, Fraction],
    metrics_b: Dict[str, Fraction],
    label_a: str,
    label_b: str,
    notes: List[str],
) -> Tuple[List[DiagnosisPart], Fraction, Fraction, str]:
    if all(m in metrics_a and m in metrics_b
           for _, m in _SERVE_CYCLE_METRICS):
        parts = [
            DiagnosisPart(name=name, a=metrics_a[m], b=metrics_b[m])
            for name, m in _SERVE_CYCLE_METRICS
        ]
        return (
            parts,
            sum((p.a for p in parts), _ZERO),
            sum((p.b for p in parts), _ZERO),
            "cycles",
        )
    for name in PRIMARY_METRICS:
        if name in metrics_a and name in metrics_b:
            notes.append(
                f"no exact category tree archived for both runs; "
                f"falling back to end-to-end metric {name!r}"
            )
            part = DiagnosisPart(
                name=name, a=metrics_a[name], b=metrics_b[name]
            )
            unit = "ms" if name.endswith("_ms") else "cycles" \
                if "cycles" in name else "count"
            return [part], part.a, part.b, unit
    raise StoreError(
        f"runs {label_a} and {label_b} share no comparable end-to-end "
        f"metric (tried profile categories, serve cycles, "
        f"{', '.join(PRIMARY_METRICS)})"
    )


def _run_label(run: Dict[str, Any]) -> str:
    protection = run["protection"] or "-"
    return (
        f"{run['verb']}:{run['experiment']}:{protection}"
        f"@{run['run_id'][:8]}"
    )


def _archived_categories(
    store: RunStore, run_id: str
) -> Dict[str, Fraction]:
    return {
        row["category"]: parse_fraction(row["cycles"])
        for row in store.children("profile_categories", run_id)
    }


def _archived_metrics(store: RunStore, run_id: str) -> Dict[str, Fraction]:
    out: Dict[str, Fraction] = {}
    for row in store.children("metrics", run_id):
        value = numeric(row["value"])
        if value is None:
            continue
        text = row["value"]
        try:
            out[row["name"]] = (
                parse_fraction(text) if "/" in text else Fraction(text)
            )
        except (ValueError, ZeroDivisionError):  # pragma: no cover
            continue
    return out


# ----------------------------------------------------------------------
# Context sections from archived children
# ----------------------------------------------------------------------
def _flow_shifts(
    rows_a: List[Dict[str, Any]], rows_b: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    by_a = {r["stage"]: r for r in rows_a}
    by_b = {r["stage"]: r for r in rows_b}
    out = []
    for stage in sorted(set(by_a) | set(by_b)):
        ra, rb = by_a.get(stage, {}), by_b.get(stage, {})
        entry: Dict[str, Any] = {
            "stage": stage,
            "flows_a": int(ra.get("flows", 0)),
            "flows_b": int(rb.get("flows", 0)),
        }
        moved = entry["flows_a"] != entry["flows_b"]
        for pct in ("p50", "p95", "p99"):
            va = numeric(ra.get(pct)) if ra else None
            vb = numeric(rb.get(pct)) if rb else None
            entry[f"{pct}_a"] = va
            entry[f"{pct}_b"] = vb
            entry[f"{pct}_delta"] = (
                vb - va if va is not None and vb is not None else None
            )
            if entry[f"{pct}_delta"]:
                moved = True
        if moved:
            out.append(entry)
    return out


def _tenant_deltas(
    rows_a: List[Dict[str, Any]], rows_b: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    by_a = {r["tenant"]: r for r in rows_a}
    by_b = {r["tenant"]: r for r in rows_b}
    out = []
    for tenant in sorted(set(by_a) | set(by_b)):
        ra, rb = by_a.get(tenant, {}), by_b.get(tenant, {})
        p99_a = numeric(ra.get("p99_ms")) if ra else None
        p99_b = numeric(rb.get("p99_ms")) if rb else None
        sla_a = numeric(ra.get("sla_attainment")) if ra else None
        sla_b = numeric(rb.get("sla_attainment")) if rb else None
        entry = {
            "tenant": tenant,
            "n_a": int(ra.get("n", 0)),
            "n_b": int(rb.get("n", 0)),
            "p99_ms_a": p99_a,
            "p99_ms_b": p99_b,
            "p99_ms_delta": (
                p99_b - p99_a
                if p99_a is not None and p99_b is not None else None
            ),
            "sla_a": sla_a,
            "sla_b": sla_b,
            "sla_delta": (
                sla_b - sla_a
                if sla_a is not None and sla_b is not None else None
            ),
        }
        if (entry["p99_ms_delta"] or entry["sla_delta"]
                or entry["n_a"] != entry["n_b"]):
            out.append(entry)
    return out


def _audit_deltas(
    rows_a: List[Dict[str, Any]], rows_b: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    by_a = {r["kind"]: r for r in rows_a}
    by_b = {r["kind"]: r for r in rows_b}
    out = []
    for kind in sorted(set(by_a) | set(by_b)):
        ra, rb = by_a.get(kind, {}), by_b.get(kind, {})
        denies_a = int(ra.get("denies", 0))
        denies_b = int(rb.get("denies", 0))
        records_a = int(ra.get("records", 0))
        records_b = int(rb.get("records", 0))
        if denies_a == denies_b and records_a == records_b:
            continue
        out.append({
            "kind": kind,
            "records_a": records_a,
            "records_b": records_b,
            "denies_a": denies_a,
            "denies_b": denies_b,
            "denies_delta": denies_b - denies_a,
            "new_denies": denies_b > 0 and denies_a == 0,
        })
    return out


def _detection_deltas(
    rows_a: List[Dict[str, Any]], rows_b: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    by_a = {(r["protection"], r["attack"]): r for r in rows_a}
    by_b = {(r["protection"], r["attack"]): r for r in rows_b}
    out = []
    for key in sorted(set(by_a) | set(by_b)):
        ra, rb = by_a.get(key, {}), by_b.get(key, {})
        lat_a = numeric(ra.get("detection_latency")) if ra else None
        lat_b = numeric(rb.get("detection_latency")) if rb else None
        outcome_a = ra.get("outcome")
        outcome_b = rb.get("outcome")
        if outcome_a == outcome_b and lat_a == lat_b:
            continue
        out.append({
            "protection": key[0],
            "attack": key[1],
            "outcome_a": outcome_a,
            "outcome_b": outcome_b,
            "latency_a": lat_a,
            "latency_b": lat_b,
            "latency_delta": (
                lat_b - lat_a
                if lat_a is not None and lat_b is not None else None
            ),
        })
    return out


# ----------------------------------------------------------------------
# Builders: bench file vs archived history
# ----------------------------------------------------------------------
def diagnose_bench(
    histories: List[Dict[str, Dict[str, float]]],
    payload: Dict[str, Any],
    bench_id: str,
    comparison: Optional[Any] = None,
) -> Diagnosis:
    """Diagnose a fresh BENCH payload against its history median.

    Parts are per-metric ``median -> new`` deltas over the metrics
    present on both sides; the totals are the exact sums of those
    per-metric values (mixed units — the ranking, not the total, is the
    interesting output here, and a note says so).  Pass the failed
    :class:`~repro.telemetry.regression.BenchComparison` to carry the
    gate's per-metric verdicts along as notes.
    """
    from repro.telemetry.regression import (
        SECTIONS, median_baseline, metric_sections,
    )

    # median_baseline returns a full BENCH-shaped payload ({"metrics":
    # {...}}); read both sides through the one section parser.
    baseline = metric_sections(median_baseline(histories))
    fresh = metric_sections(payload)
    parts: List[DiagnosisPart] = []
    notes = [
        "bench parts mix units (counts + seconds); rank and per-metric "
        "percentages are the signal, the summed total is bookkeeping"
    ]
    if comparison is not None:
        notes.append(f"gate: {comparison.summary()}")
        for delta in comparison.regressions:
            notes.append(f"gate: {delta.describe()}")
        for name in comparison.missing:
            notes.append(f"gate: {name} MISSING from the new run")
    for kind in SECTIONS:
        base_metrics = baseline[kind]
        new_metrics = fresh[kind]
        for name in sorted(set(base_metrics) | set(new_metrics)):
            if name in base_metrics and name in new_metrics:
                parts.append(DiagnosisPart(
                    name=f"{kind}.{name}",
                    a=Fraction(base_metrics[name]),
                    b=Fraction(new_metrics[name]),
                ))
            else:
                side = "history" if name in base_metrics else "new run"
                notes.append(
                    f"metric {kind}.{name} only present in the {side}; "
                    f"excluded from the decomposition"
                )
    return Diagnosis(
        kind="bench",
        label_a=f"{bench_id}@history-median[{len(histories)}]",
        label_b=f"{bench_id}@new",
        unit="mixed",
        total_a=sum((p.a for p in parts), _ZERO),
        total_b=sum((p.b for p in parts), _ZERO),
        parts=parts,
        notes=notes,
    ).verify()

