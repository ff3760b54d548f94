"""Per-tenant SLA reporting for one serving run.

Percentiles are nearest rank (:func:`repro.telemetry.metrics.nearest_rank`,
the repo's one percentile definition: the value at ceil(p/100 * n),
1-indexed, of the sorted sample) — exact, deterministic, and never an
interpolated value that no request actually experienced.  A tenant with
**zero completed requests** reports ``None`` percentiles and an
explicit ``0/0`` SLA (``sla_attainment=None``) — never a fabricated
0.0 ms latency or a vacuous 100% attainment.  ``to_dict`` contains only
quantities derived from the seeded simulation (no wall-clock, no
environment), and ``render("json")`` dumps it with sorted keys — so the
same ``--seed`` produces bit-identical JSON on every run, which the
determinism tests rely on.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.serving.queueing import CompletedRequest, ServeOutcome
from repro.serving.workload import Scenario
from repro.telemetry.metrics import nearest_rank


@dataclass
class TenantReport:
    """Latency/SLA statistics of one tenant (or the aggregate)."""

    tenant: str
    world: str
    sla_ms: Optional[float]
    n: int
    #: All None when the tenant completed nothing (0/0 SLA, no sample).
    mean_ms: Optional[float]
    p50_ms: Optional[float]
    p95_ms: Optional[float]
    p99_ms: Optional[float]
    max_ms: Optional[float]
    sla_attainment: Optional[float]
    mean_wait_ms: Optional[float]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "world": self.world,
            "sla_ms": self.sla_ms,
            "n": self.n,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
            "sla_attainment": self.sla_attainment,
            "mean_wait_ms": self.mean_wait_ms,
        }


def tenant_stats(
    name: str,
    world: str,
    sla_ms: Optional[float],
    completed: List[CompletedRequest],
    cycles_per_ms: float,
) -> TenantReport:
    latencies = sorted(c.latency for c in completed)
    n = len(latencies)
    if n == 0:
        # 0 completions: there is no latency distribution to summarise
        # and 0-of-0 SLA attainment is undefined, not 100%.
        return TenantReport(
            tenant=name, world=world, sla_ms=sla_ms, n=0,
            mean_ms=None, p50_ms=None, p95_ms=None, p99_ms=None,
            max_ms=None, sla_attainment=None, mean_wait_ms=None,
        )
    mean = sum(latencies) / n
    mean_wait = sum(c.wait for c in completed) / n
    ok = sum(1 for c in completed if c.sla_ok)
    counts = Counter(latencies)
    p50 = nearest_rank(counts, 50.0)
    p95 = nearest_rank(counts, 95.0)
    p99 = nearest_rank(counts, 99.0)
    assert p50 is not None and p95 is not None and p99 is not None
    return TenantReport(
        tenant=name,
        world=world,
        sla_ms=sla_ms,
        n=n,
        mean_ms=mean / cycles_per_ms,
        p50_ms=p50 / cycles_per_ms,
        p95_ms=p95 / cycles_per_ms,
        p99_ms=p99 / cycles_per_ms,
        max_ms=latencies[-1] / cycles_per_ms,
        sla_attainment=ok / n,
        mean_wait_ms=mean_wait / cycles_per_ms,
    )


@dataclass
class ServeReport:
    """The full SLA report: per-tenant stats + overhead decomposition."""

    outcome: ServeOutcome
    tenants: List[TenantReport]
    aggregate: TenantReport
    flush_share: float
    world_share: float
    makespan_ms: float

    @classmethod
    def build(
        cls, outcome: ServeOutcome, scenario: Optional[Scenario] = None
    ) -> "ServeReport":
        cycles_per_ms = outcome.freq_ghz * 1e6
        by_tenant: Dict[str, List[CompletedRequest]] = {}
        worlds: Dict[str, str] = {}
        slas: Dict[str, Optional[float]] = {}
        if scenario is not None:
            # Seed the tenant set from the scenario so a tenant that
            # completed *nothing* still appears (n=0, null percentiles)
            # instead of silently vanishing from the report.
            for spec in scenario.tenants:
                by_tenant[spec.name] = []
                worlds[spec.name] = spec.world
                slas[spec.name] = spec.sla_ms
        for comp in outcome.completed:
            by_tenant.setdefault(comp.request.tenant, []).append(comp)
            worlds[comp.request.tenant] = comp.request.world
            slas[comp.request.tenant] = (
                comp.request.sla_cycles / cycles_per_ms
            )
        tenants = [
            tenant_stats(
                name, worlds[name], slas[name], by_tenant[name], cycles_per_ms
            )
            for name in sorted(by_tenant)
        ]
        aggregate = tenant_stats(
            "all", "-", None, outcome.completed, cycles_per_ms
        )
        busy = outcome.busy_cycles
        return cls(
            outcome=outcome,
            tenants=tenants,
            aggregate=aggregate,
            flush_share=(outcome.flush_cycles / busy) if busy else 0.0,
            world_share=(outcome.world_cycles / busy) if busy else 0.0,
            makespan_ms=outcome.makespan / cycles_per_ms,
        )

    def tenant(self, name: str) -> TenantReport:
        for report in self.tenants:
            if report.tenant == name:
                return report
        raise KeyError(name)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out = self.outcome
        return {
            "scenario": out.scenario,
            "mechanism": out.mechanism,
            "policy": out.policy,
            "rps": out.rps,
            "duration_ms": out.duration_ms,
            "seed": out.seed,
            "completed": len(out.completed),
            "makespan_ms": self.makespan_ms,
            "overheads": {
                "flushes": out.flushes,
                "flush_cycles": out.flush_cycles,
                "flush_share": self.flush_share,
                "world_switches": out.world_switches,
                "world_cycles": out.world_cycles,
                "world_switch_share": self.world_share,
            },
            "accounting": {
                "wait_clamps": out.wait_clamps,
                "clamped_cycles": out.clamped_cycles,
            },
            "tenants": {t.tenant: t.to_dict() for t in self.tenants},
            "aggregate": self.aggregate.to_dict(),
            **(
                {"windows": out.windows.to_dict()}
                if out.windows is not None else {}
            ),
        }

    def render(self, fmt: str = "table") -> str:
        if fmt == "json":
            return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        return self._render_table()

    def _render_table(self) -> str:
        out = self.outcome
        lines = [
            f"== serve: scenario={out.scenario} mechanism={out.mechanism} "
            f"policy={out.policy} rps={out.rps:g} "
            f"duration={out.duration_ms:g}ms seed={out.seed} =="
        ]
        columns = ("tenant", "world", "sla_ms", "n", "p50_ms", "p95_ms",
                   "p99_ms", "sla%", "wait_ms")
        def fmt(value: Optional[float], spec: str) -> str:
            return "-" if value is None else format(value, spec)

        rows = []
        for report in self.tenants + [self.aggregate]:
            rows.append((
                report.tenant,
                report.world,
                fmt(report.sla_ms, ".1f"),
                str(report.n),
                fmt(report.p50_ms, ".3f"),
                fmt(report.p95_ms, ".3f"),
                fmt(report.p99_ms, ".3f"),
                fmt(report.sla_attainment, ".1%"),
                fmt(report.mean_wait_ms, ".3f"),
            ))
        widths = [
            max(len(columns[i]), max(len(row[i]) for row in rows))
            for i in range(len(columns))
        ]
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(columns, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        lines.append(
            f"overheads: {out.flushes} flushes "
            f"({self.flush_share:.2%} of busy cycles), "
            f"{out.world_switches} world switches "
            f"({self.world_share:.2%}); makespan {self.makespan_ms:.1f} ms"
        )
        if out.wait_clamps:
            lines.append(
                f"accounting: {out.wait_clamps} wait residuals clamped "
                f"({out.clamped_cycles:.3g} cycles of float noise)"
            )
        return "\n".join(lines) + "\n"


def diff_tenant_reports(
    a: "ServeReport", b: "ServeReport"
) -> List[Dict[str, Any]]:
    """Per-tenant p99/SLA deltas between two serve reports.

    None-safe: a tenant with no completions on one side keeps its None
    percentiles and reports a None delta — a fabricated 0.0 ms baseline
    would invert the sign of every comparison against it.  Rows are
    sorted by tenant name; only tenants present in at least one report
    appear.
    """
    names = sorted(
        {t.tenant for t in a.tenants} | {t.tenant for t in b.tenants}
    )

    def lookup(report: "ServeReport", name: str) -> Optional[TenantReport]:
        try:
            return report.tenant(name)
        except KeyError:
            return None

    def delta(x: Optional[float], y: Optional[float]) -> Optional[float]:
        if x is None or y is None:
            return None
        return y - x

    rows: List[Dict[str, Any]] = []
    for name in names:
        ta, tb = lookup(a, name), lookup(b, name)
        p99_a = ta.p99_ms if ta else None
        p99_b = tb.p99_ms if tb else None
        sla_a = ta.sla_attainment if ta else None
        sla_b = tb.sla_attainment if tb else None
        rows.append({
            "tenant": name,
            "n_a": ta.n if ta else 0,
            "n_b": tb.n if tb else 0,
            "p99_ms_a": p99_a,
            "p99_ms_b": p99_b,
            "p99_ms_delta": delta(p99_a, p99_b),
            "sla_a": sla_a,
            "sla_b": sla_b,
            "sla_delta": delta(sla_a, sla_b),
        })
    return rows
