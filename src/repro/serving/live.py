"""Per-window live view of one serving run.

:class:`ServeWindows` is the streaming counterpart of
:class:`repro.serving.report.ServeReport`: while the simulator runs it
buckets every arrival, completion, flush and world switch into tumbling
windows of ``window_ms`` simulated milliseconds
(:mod:`repro.telemetry.windows`), keeps a per-tenant exact latency
histogram per window (nearest-rank p50/p99 over every request that
completed in it), and — when an audit ledger is live — counts per-tenant
denials from the decision stream.  ``repro watch`` renders the timeline
as it would have scrolled past an operator; ``repro slo`` evaluates SLO
specs against it.

The **reconciliation invariant** is enforced at close: every per-window
partial sum (arrivals, completions, SLA hits, latency mass, flush and
world-switch counts) must agree *exactly* — not approximately — with the
end-of-run :class:`ServeOutcome` totals.  A mismatch raises
:class:`~repro.errors.ReconciliationError` and means the simulator
double-counted or dropped an event, never that floats rounded.  The
invariants are held in integers: counts are ints, latency mass is an
integer count of 2**-1074 units (:func:`~repro.telemetry.windows.exact_sum`),
and a window's flush cycles are its flush count times the exact
per-flush cost, so no event builds a Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, List, Optional

from repro.errors import ReconciliationError
from repro.telemetry.windows import (
    TumblingCounter,
    WindowReservoir,
    exact_sum,
    fraction_to_jsonable,
)


class ServeWindows:
    """Streaming per-window aggregation for one serving run."""

    def __init__(
        self,
        tenant_names: List[str],
        window_ms: float,
        cycles_per_ms: float,
        switch_cost: float,
        world_cost: float,
    ):
        self.window_ms = float(window_ms)
        self.cycles_per_ms = float(cycles_per_ms)
        self.window_cycles = float(window_ms) * float(cycles_per_ms)
        #: Exact per-event costs: a window's flush cycles are its flush
        #: count times this Fraction, bit-for-bit.
        self.switch_cost = Fraction(switch_cost)
        self.world_cost = Fraction(world_cost)
        self.tenant_names = sorted(tenant_names)
        w = self.window_cycles
        self.arrivals = {
            t: TumblingCounter(f"serve.arrivals.{t}", w)
            for t in self.tenant_names
        }
        self.completions = {
            t: TumblingCounter(f"serve.completions.{t}", w)
            for t in self.tenant_names
        }
        self.sla_ok = {
            t: TumblingCounter(f"serve.sla_ok.{t}", w)
            for t in self.tenant_names
        }
        self.denies = {
            t: TumblingCounter(f"serve.denies.{t}", w)
            for t in self.tenant_names
        }
        self.latency = {
            t: WindowReservoir(f"serve.latency.{t}", w)
            for t in self.tenant_names
        }
        self.flushes = TumblingCounter("serve.flushes", w)
        self.world_switches = TumblingCounter("serve.world_switches", w)
        self.closed_at: Optional[float] = None

    # -- event hooks (called by the simulator as simulated time advances)
    def on_arrival(self, cycle: float, tenant: str) -> None:
        self.arrivals[tenant].add(cycle)

    def on_completion(self, cycle: float, tenant: str, latency: float,
                      sla_ok: bool) -> None:
        self.completions[tenant].add(cycle)
        if sla_ok:
            self.sla_ok[tenant].add(cycle)
        self.latency[tenant].observe(cycle, latency)

    def on_flush(self, cycle: float) -> None:
        self.flushes.add(cycle)

    def on_world_switch(self, cycle: float) -> None:
        self.world_switches.add(cycle)

    def on_audit(self, record: Dict[str, Any]) -> None:
        """Audit-ledger subscriber: count denials against the tenant the
        decision names (records without a tenant detail are skipped)."""
        if record.get("decision") != "deny":
            return
        tenant = (record.get("detail") or {}).get("tenant")
        counter = self.denies.get(str(tenant)) if tenant is not None else None
        if counter is not None:
            counter.add(float(record["cycle"]))

    # ------------------------------------------------------------------
    def close(self, makespan: float) -> None:
        """Seal the timeline: the last window is the one containing the
        final simulated cycle (a makespan landing exactly on a boundary
        does not open an empty trailing window)."""
        self.closed_at = float(makespan)

    def last_window(self) -> int:
        populated = [c.last_window() for c in self._all_counters()]
        populated.append(-1)
        if self.closed_at is not None and self.closed_at > 0:
            frac = Fraction(self.closed_at) / Fraction(self.window_cycles)
            populated.append(math.ceil(frac) - 1)
        return max(populated)

    def _all_counters(self) -> List[TumblingCounter]:
        out = [self.flushes, self.world_switches]
        for per_tenant in (self.arrivals, self.completions, self.sla_ok,
                           self.denies):
            out.extend(per_tenant.values())
        return out

    # ------------------------------------------------------------------
    def reconcile(self, outcome) -> None:
        """Enforce the streaming invariant against end-of-run totals.

        Counts are compared as exact integers and latency mass as an
        exact sum.  Flush *cycles* need no check of their own: each
        window's is its flush count times ``Fraction(switch_cost)``, so
        they sum to ``outcome.flushes x cost`` once the counts reconcile
        (the float accumulator in the outcome rounds, the windows never
        do).
        """
        by_tenant_ok: Dict[str, int] = {t: 0 for t in self.tenant_names}
        latencies: Dict[str, List[float]] = {t: [] for t in self.tenant_names}
        for comp in outcome.completed:
            tenant = comp.request.tenant
            if comp.sla_ok:
                by_tenant_ok[tenant] += 1
            latencies[tenant].append(comp.latency)
        for tenant in self.tenant_names:
            completed = len(latencies[tenant])
            self.completions[tenant].reconcile(completed)
            self.sla_ok[tenant].reconcile(by_tenant_ok[tenant])
            self.latency[tenant].reconcile(
                completed, exact_sum(latencies[tenant])
            )
        self.flushes.reconcile(outcome.flushes)
        self.world_switches.reconcile(outcome.world_switches)
        total_arrivals = sum(
            int(c.total) for c in self.arrivals.values()
        )
        expected_arrivals = len(outcome.completed)
        if total_arrivals != expected_arrivals:
            raise ReconciliationError(
                f"serve.arrivals: windows saw {total_arrivals} arrivals, "
                f"run completed {expected_arrivals} (the serving simulator "
                f"drains every queue, so these must match)"
            )

    # ------------------------------------------------------------------
    def window_record(self, window: int) -> Dict[str, Any]:
        """One dense timeline entry (JSON-stable value types)."""
        tenants: Dict[str, Any] = {}
        for tenant in self.tenant_names:
            completions = int(self.completions[tenant].bucket(window))
            reservoir = self.latency[tenant]
            per_ms = self.cycles_per_ms
            p50 = reservoir.percentile(window, 50.0)
            p99 = reservoir.percentile(window, 99.0)
            mean = reservoir.mean(window)
            tenants[tenant] = {
                "arrivals": int(self.arrivals[tenant].bucket(window)),
                "completions": completions,
                "sla_ok": int(self.sla_ok[tenant].bucket(window)),
                "denies": int(self.denies[tenant].bucket(window)),
                # Null percentiles when the tenant completed nothing in
                # this window — never 0.0, never a stale previous-window
                # value (each window has its own histogram).
                "p50_ms": None if p50 is None else p50 / per_ms,
                "p99_ms": None if p99 is None else p99 / per_ms,
                "mean_ms": None if mean is None else mean / per_ms,
            }
        return {
            "window": window,
            "start_cycle": window * self.window_cycles,
            "end_cycle": (window + 1) * self.window_cycles,
            "flushes": int(self.flushes.bucket(window)),
            "flush_cycles": fraction_to_jsonable(
                self.flushes.bucket(window) * self.switch_cost
            ),
            "world_switches": int(self.world_switches.bucket(window)),
            "tenants": tenants,
        }

    def timeline(self) -> List[Dict[str, Any]]:
        """Dense per-window records from window 0 through the last."""
        return [self.window_record(w) for w in range(self.last_window() + 1)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "window_ms": self.window_ms,
            "window_cycles": self.window_cycles,
            "windows": self.last_window() + 1,
            "timeline": self.timeline(),
        }
