"""Sharded multi-NPU cluster serving (its fluid leg: ROADMAP item 5).

One NPU answers §IV-B's dilemma for one device; production serves
millions of requests across a *fleet*.  This module puts N single-NPU
workers (each an unmodified :class:`ServeSimulator`) behind a cluster
scheduler with pluggable load-balancing policies:

* ``rr`` — every (tenant, model) stream is split evenly across all
  workers; the cluster behaves like N clones of the scenario.
* ``least-loaded`` — streams are water-filled onto workers so every
  worker carries the same aggregate rate, splitting streams only when
  needed.
* ``tenant-affinity`` — whole tenants are packed LPT-greedy onto the
  least-loaded worker, amortizing secure-world setup (a worker that
  never mixes worlds never pays a world switch).
* ``model-affinity`` — whole model streams are packed LPT-greedy,
  amortizing weight residency.

**Fluid + sampled-detailed split.**  Serving ``--requests 1e6`` by
simulating every request would take hours; instead the cluster runs a
*fluid* approximation over the full horizon (per-worker utilization and
an M/M/1-style latency estimate from the analytic per-model service
cycles) and routes a deterministic, seed-stable *sample* — the first
``detail_ms`` of every worker's stream — through the detailed per-NPU
path, flow tracker, audit ledger and all.  A reconciliation pass then
checks that the sampled detailed results and the fluid totals agree
within declared bounds (Poisson noise on rates, a 35 % band on
per-request service accounting, a floor and a 10x ceiling on mean
latency) and raises
:class:`ReconciliationError` when they diverge — the fluid numbers are
only trustworthy while the detailed sample vouches for them.

**Autoscaling.**  :func:`autoscale` grows the fleet from
``min_workers`` until every tenant's pooled p99 meets its SLA at the
target attainment, doubling while attainment is catastrophic and
stepping by one near the knee — the same p99/SLA signals
``serving.report`` already emits, consumed at cluster level.

Determinism: worker ``w`` serves a derived scenario named
``f"{scenario.name}#w{w}"`` — the workload generator's string seeding
makes every worker's stream independent and platform-stable, and
assignment iterates streams in sorted order, so the report bytes depend
only on (scenario, mechanism, policy, balance, workers, seed), never on
policy-internal iteration order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.driver.scheduler import MultiTaskScheduler
from repro.errors import ConfigError, ReconciliationError
from repro.npu.config import NPUConfig
from repro.serving.queueing import (
    MECHANISMS,
    CompletedRequest,
    RateOracle,
    ServeSimulator,
)
from repro.serving.report import ServeReport, TenantReport, tenant_stats
from repro.serving.workload import Scenario, build_model

CLUSTER_POLICIES = ("rr", "least-loaded", "tenant-affinity", "model-affinity")

#: Default length (ms) of the detailed sample routed through the
#: per-NPU path on every worker.  2000 ms matches the paper-profile
#: single-NPU horizon, so the pooled percentiles carry the same
#: statistical weight as the committed serve-sweep goldens.
DEFAULT_DETAIL_MS = 2000.0

_RATE_EPS = 1e-12


@dataclass(frozen=True)
class Stream:
    """One (tenant, model) arrival stream and its share of cluster rps."""

    tenant: str
    model: str
    rate: float  # fraction of the cluster's aggregate rps


def build_streams(scenario: Scenario) -> List[Stream]:
    """Expand *scenario* into per-(tenant, model) rate fractions."""
    streams: List[Stream] = []
    for spec in scenario.tenants:
        total_w = sum(w for _, w in spec.models)
        for model, w in spec.models:
            streams.append(Stream(spec.name, model, spec.share * w / total_w))
    return streams


Assignment = List[Dict[str, Dict[str, float]]]  # worker -> tenant -> model -> rate


def assign_streams(
    streams: List[Stream], workers: int, balance: str
) -> Assignment:
    """Distribute *streams* over *workers* under one balancing policy.

    Returns ``assignment[w][tenant][model] = rate fraction``.  Input
    order never matters: streams are re-sorted internally, so two
    callers holding the same stream set in different orders produce
    identical assignments (the determinism contract the property tests
    pin down).
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if balance not in CLUSTER_POLICIES:
        raise ConfigError(
            f"unknown balance policy {balance!r}; choose from "
            f"{', '.join(CLUSTER_POLICIES)}"
        )
    assignment: Assignment = [{} for _ in range(workers)]

    def add(widx: int, stream: Stream, rate: float) -> None:
        if rate <= _RATE_EPS:
            return
        tenant = assignment[widx].setdefault(stream.tenant, {})
        tenant[stream.model] = tenant.get(stream.model, 0.0) + rate

    ordered = sorted(streams, key=lambda s: (s.tenant, s.model))
    if balance == "rr":
        for stream in ordered:
            for w in range(workers):
                add(w, stream, stream.rate / workers)
        return assignment
    if balance == "least-loaded":
        # Water-filling: largest streams first, each poured into the
        # least-loaded worker up to the even-split target, splitting a
        # stream only when it overflows the target.
        target = sum(s.rate for s in ordered) / workers
        loads = [0.0] * workers
        for stream in sorted(
            ordered, key=lambda s: (-s.rate, s.tenant, s.model)
        ):
            remaining = stream.rate
            while remaining > _RATE_EPS:
                w = min(range(workers), key=lambda i: (loads[i], i))
                room = target - loads[w]
                take = remaining if room <= _RATE_EPS else min(remaining, room)
                add(w, stream, take)
                loads[w] += take
                remaining -= take
        return assignment
    # Affinity policies: group streams, then LPT-greedy whole groups
    # onto the least-loaded worker (no splitting — that is the point).
    key = (lambda s: s.tenant) if balance == "tenant-affinity" else (
        lambda s: s.model
    )
    groups: Dict[str, List[Stream]] = {}
    for stream in ordered:
        groups.setdefault(key(stream), []).append(stream)
    loads = [0.0] * workers
    for name in sorted(
        groups, key=lambda g: (-sum(s.rate for s in groups[g]), g)
    ):
        w = min(range(workers), key=lambda i: (loads[i], i))
        for stream in groups[name]:
            add(w, stream, stream.rate)
        loads[w] += sum(s.rate for s in groups[name])
    return assignment


def worker_scenario(
    scenario: Scenario, idx: int, assigned: Dict[str, Dict[str, float]]
) -> Optional[Scenario]:
    """Derive worker *idx*'s scenario from its stream assignment.

    Tenant shares are renormalized to the worker's aggregate rate (the
    last share absorbs float drift so they sum to exactly 1) and each
    tenant's model mix is restricted to the models routed here, weighted
    by assigned rate.  Returns None for a worker with no streams.
    """
    names = [t.name for t in scenario.tenants if assigned.get(t.name)]
    if not names:
        return None
    worker_rate = sum(sum(m.values()) for m in assigned.values())
    shares = [
        sum(assigned[name].values()) / worker_rate for name in names
    ]
    shares[-1] = 1.0 - sum(shares[:-1])
    tenants = []
    for name, share in zip(names, shares):
        spec = scenario.tenant(name)
        models = tuple(
            (model, assigned[name][model])
            for model, _ in spec.models
            if model in assigned[name]
        )
        tenants.append(replace(spec, models=models, share=share))
    return Scenario(
        name=f"{scenario.name}#w{idx}",
        description=f"worker {idx} shard of {scenario.name}",
        tenants=tuple(tenants),
        rps=worker_rate,
        duration_ms=scenario.duration_ms,
    )


# ----------------------------------------------------------------------
# Fluid approximation
# ----------------------------------------------------------------------
@dataclass
class WorkerFluid:
    """Fluid-model summary of one worker over the full horizon."""

    worker: int
    rate_rps: float
    requests: int
    #: Mix-weighted service cycles per request when the request has the
    #: worker to itself (the accounting rate the detailed path records).
    service_mean_cycles: float
    #: Mix-weighted cycles per request at the *loaded* rate — flushed
    #: quanta for temporal sharing, expected co-run pair time for
    #: spatial (this is what utilization must be charged at; using the
    #: alone rate would overstate a spatial worker's capacity ~2x).
    loaded_mean_cycles: float
    overhead_mean_cycles: float
    utilization: float
    latency_est_ms: Optional[float]  # None when saturated
    saturated: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "worker": self.worker,
            "rate_rps": self.rate_rps,
            "requests": self.requests,
            "service_mean_cycles": self.service_mean_cycles,
            "loaded_mean_cycles": self.loaded_mean_cycles,
            "overhead_mean_cycles": self.overhead_mean_cycles,
            "utilization": self.utilization,
            "latency_est_ms": self.latency_est_ms,
            "saturated": self.saturated,
        }


def _service_cycles_by_model(
    scheduler: MultiTaskScheduler,
    models: Dict[str, Any],
    mechanism: str,
) -> Tuple[Dict[str, float], Optional[RateOracle]]:
    """Per-model *alone* service cycles + the oracle (spatial only)."""
    if mechanism in ("snpu", "partition"):
        oracle = RateOracle(scheduler, models, mechanism)
        return {key: oracle.alone(key) for key in models}, oracle
    granularity = mechanism.split("-", 1)[1]
    return {
        key: sum(scheduler.quanta(model, granularity, flushed=True))
        for key, model in models.items()
    }, None


def _collision_prob(weights: List[float]) -> float:
    """P(two consecutive draws differ) = 1 - sum p_i^2."""
    total = sum(weights)
    if total <= 0:
        return 0.0
    return 1.0 - sum((w / total) ** 2 for w in weights)


def allocate_requests(total: int, weights: List[float]) -> List[int]:
    """Largest-remainder integer split of *total* proportional to weights."""
    if total <= 0 or sum(weights) <= 0:
        return [0] * len(weights)
    scale = sum(weights)
    exact = [total * w / scale for w in weights]
    base = [int(math.floor(e)) for e in exact]
    order = sorted(
        range(len(weights)), key=lambda i: (-(exact[i] - base[i]), i)
    )
    for i in order[: total - sum(base)]:
        base[i] += 1
    return base


# ----------------------------------------------------------------------
# Autoscaling
# ----------------------------------------------------------------------
@dataclass
class AutoscaleStep:
    """One autoscaler iteration: fleet size, signals, decision."""

    workers: int
    min_attainment: Optional[float]
    worst_p99_over_sla: Optional[float]  # max over tenants of p99/sla
    ok: bool
    decision: str  # "hold" | "double" | "step"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "min_attainment": self.min_attainment,
            "worst_p99_over_sla": self.worst_p99_over_sla,
            "ok": self.ok,
            "decision": self.decision,
        }


# ----------------------------------------------------------------------
# The cluster simulator + report
# ----------------------------------------------------------------------
@dataclass
class ClusterReport:
    """Cluster-level SLA report: fluid totals + pooled detailed stats."""

    scenario: str
    mechanism: str
    policy: str
    balance: str
    workers: int
    rps: float
    duration_ms: float
    detail_ms: float
    seed: int
    freq_ghz: float
    requests_total: int
    requests_detailed: int
    fluid: List[WorkerFluid]
    worker_reports: List[Optional[ServeReport]]
    tenants: List[TenantReport]
    aggregate: TenantReport
    reconciliation: List[Dict[str, Any]]
    wait_clamps: int
    clamped_cycles: float
    autoscale_steps: List[AutoscaleStep] = field(default_factory=list)

    def tenant(self, name: str) -> TenantReport:
        for report in self.tenants:
            if report.tenant == name:
                return report
        raise KeyError(name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "mechanism": self.mechanism,
            "policy": self.policy,
            "balance": self.balance,
            "workers": self.workers,
            "rps": self.rps,
            "duration_ms": self.duration_ms,
            "detail_ms": self.detail_ms,
            "seed": self.seed,
            "requests_total": self.requests_total,
            "requests_detailed": self.requests_detailed,
            "fluid": [f.to_dict() for f in self.fluid],
            "workers_detail": [
                (None if rep is None else rep.to_dict())
                for rep in self.worker_reports
            ],
            "tenants": {t.tenant: t.to_dict() for t in self.tenants},
            "aggregate": self.aggregate.to_dict(),
            "reconciliation": self.reconciliation,
            "accounting": {
                "wait_clamps": self.wait_clamps,
                "clamped_cycles": self.clamped_cycles,
            },
            **(
                {"autoscale": [s.to_dict() for s in self.autoscale_steps]}
                if self.autoscale_steps else {}
            ),
        }

    def render(self, fmt: str = "table") -> str:
        if fmt == "json":
            return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        return self._render_table()

    def _render_table(self) -> str:
        lines = [
            f"== cluster: scenario={self.scenario} "
            f"mechanism={self.mechanism} policy={self.policy} "
            f"balance={self.balance} workers={self.workers} "
            f"rps={self.rps:g} duration={self.duration_ms:g}ms "
            f"seed={self.seed} ==",
            f"fluid: {self.requests_total} requests over the horizon; "
            f"detailed sample: {self.requests_detailed} requests "
            f"({self.detail_ms:g} ms per worker)",
        ]

        def fnum(value: Optional[float], spec: str) -> str:
            return "-" if value is None else format(value, spec)

        columns = ("worker", "rps", "requests", "util", "est_ms")
        rows = []
        for f in self.fluid:
            rows.append((
                f"w{f.worker}",
                f"{f.rate_rps:.1f}",
                str(f.requests),
                f"{f.utilization:.2f}",
                "sat" if f.saturated else fnum(f.latency_est_ms, ".3f"),
            ))
        widths = [
            max(len(columns[i]), max((len(r[i]) for r in rows), default=0))
            for i in range(len(columns))
        ]
        lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))

        lines.append("pooled detailed sample (per tenant):")
        tcols = ("tenant", "world", "sla_ms", "n", "p50_ms", "p95_ms",
                 "p99_ms", "sla%")
        trows = []
        for rep in self.tenants + [self.aggregate]:
            trows.append((
                rep.tenant, rep.world,
                fnum(rep.sla_ms, ".1f"), str(rep.n),
                fnum(rep.p50_ms, ".3f"), fnum(rep.p95_ms, ".3f"),
                fnum(rep.p99_ms, ".3f"),
                fnum(rep.sla_attainment, ".1%"),
            ))
        twidths = [
            max(len(tcols[i]), max((len(r[i]) for r in trows), default=0))
            for i in range(len(tcols))
        ]
        lines.append("  ".join(c.ljust(w) for c, w in zip(tcols, twidths)))
        lines.append("  ".join("-" * w for w in twidths))
        for row in trows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, twidths)))
        worst = max(
            (c["observed"] / c["bound"] for c in self.reconciliation
             if c["bound"]), default=0.0,
        )
        lines.append(
            f"reconciliation: {len(self.reconciliation)} checks passed "
            f"(worst at {worst:.0%} of bound)"
        )
        if self.wait_clamps:
            lines.append(
                f"accounting: {self.wait_clamps} wait residuals clamped "
                f"({self.clamped_cycles:.3g} cycles of float noise)"
            )
        for step in self.autoscale_steps:
            lines.append(
                f"autoscale: workers={step.workers} "
                f"attainment={fnum(step.min_attainment, '.1%')} "
                f"p99/sla={fnum(step.worst_p99_over_sla, '.2f')} "
                f"-> {step.decision}"
            )
        return "\n".join(lines) + "\n"


class ClusterSimulator:
    """Serve one scenario across N workers: fluid totals + sampled detail."""

    def __init__(
        self,
        scenario: Scenario,
        mechanism: str = "snpu",
        policy: str = "rr",
        balance: str = "rr",
        workers: int = 1,
        rps: Optional[float] = None,
        duration_ms: Optional[float] = None,
        requests: Optional[int] = None,
        seed: int = 0,
        config: Optional[NPUConfig] = None,
        scheduler: Optional[MultiTaskScheduler] = None,
        detail_ms: float = DEFAULT_DETAIL_MS,
    ):
        if mechanism not in MECHANISMS:
            raise ConfigError(
                f"unknown mechanism {mechanism!r}; choose from "
                f"{', '.join(MECHANISMS)}"
            )
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if balance not in CLUSTER_POLICIES:
            raise ConfigError(
                f"unknown balance policy {balance!r}; choose from "
                f"{', '.join(CLUSTER_POLICIES)}"
            )
        if detail_ms <= 0:
            raise ConfigError(f"detail_ms must be positive, got {detail_ms}")
        self.scenario = scenario
        self.mechanism = mechanism
        self.policy = policy
        self.balance = balance
        self.workers = int(workers)
        self.seed = int(seed)
        self.config = config or NPUConfig.paper_default()
        self.scheduler = scheduler or MultiTaskScheduler(self.config)
        #: Aggregate cluster rate.  The default scales the scenario's
        #: single-NPU design load by the fleet size, so every worker
        #: sees the load the scenario was calibrated for.
        self.rps = (
            scenario.rps * self.workers if rps is None else float(rps)
        )
        if self.rps < 0:
            raise ConfigError(f"rps must be non-negative, got {self.rps}")
        if requests is not None:
            requests = int(requests)
            if requests < 0:
                raise ConfigError(
                    f"requests must be non-negative, got {requests}"
                )
            if requests > 0 and self.rps <= 0:
                raise ConfigError("requests > 0 needs a positive rps")
            self.duration_ms = (
                requests / self.rps * 1000.0 if requests else 0.0
            ) or scenario.duration_ms
            self.requests_target: Optional[int] = requests
        else:
            self.duration_ms = (
                scenario.duration_ms if duration_ms is None
                else float(duration_ms)
            )
            if self.duration_ms <= 0:
                raise ConfigError(
                    f"duration_ms must be positive, got {self.duration_ms}"
                )
            self.requests_target = None
        self.detail_ms = min(self.duration_ms, float(detail_ms))

    # ------------------------------------------------------------------
    def run(self) -> ClusterReport:
        assignment = assign_streams(
            build_streams(self.scenario), self.workers, self.balance
        )
        scenarios = [
            worker_scenario(self.scenario, idx, assignment[idx])
            for idx in range(self.workers)
        ]
        worker_rates = [
            self.rps * sum(sum(m.values()) for m in assignment[idx].values())
            for idx in range(self.workers)
        ]
        horizon_s = self.duration_ms / 1000.0
        total_requests = (
            self.requests_target
            if self.requests_target is not None
            else int(round(self.rps * horizon_s))
        )
        per_worker_requests = allocate_requests(total_requests, worker_rates)

        fluid = [
            self._fluid_worker(
                idx, scenarios[idx], worker_rates[idx],
                per_worker_requests[idx],
            )
            for idx in range(self.workers)
        ]
        worker_reports: List[Optional[ServeReport]] = []
        for idx in range(self.workers):
            if scenarios[idx] is None or worker_rates[idx] <= 0:
                worker_reports.append(None)
                continue
            sim = ServeSimulator(
                scenarios[idx],
                mechanism=self.mechanism,
                policy=self.policy,
                rps=worker_rates[idx],
                duration_ms=self.detail_ms,
                seed=self.seed,
                config=self.config,
                scheduler=self.scheduler,
            )
            worker_reports.append(
                ServeReport.build(sim.run(), scenario=scenarios[idx])
            )

        pooled: Dict[str, List[CompletedRequest]] = {}
        worlds: Dict[str, str] = {}
        slas: Dict[str, Optional[float]] = {}
        for spec in self.scenario.tenants:
            pooled[spec.name] = []
            worlds[spec.name] = spec.world
            slas[spec.name] = spec.sla_ms
        all_completed: List[CompletedRequest] = []
        wait_clamps = 0
        clamped_cycles = 0.0
        for rep in worker_reports:
            if rep is None:
                continue
            wait_clamps += rep.outcome.wait_clamps
            clamped_cycles += rep.outcome.clamped_cycles
            for comp in rep.outcome.completed:
                pooled[comp.request.tenant].append(comp)
                all_completed.append(comp)
        cycles_per_ms = self.config.freq_ghz * 1e6
        tenants = [
            tenant_stats(
                name, worlds[name], slas[name], pooled[name], cycles_per_ms
            )
            for name in sorted(pooled)
        ]
        aggregate = tenant_stats(
            "all", "-", None, all_completed, cycles_per_ms
        )

        checks = self._reconcile(
            assignment, worker_rates, fluid, worker_reports, tenants
        )
        return ClusterReport(
            scenario=self.scenario.name,
            mechanism=self.mechanism,
            policy=self.policy,
            balance=self.balance,
            workers=self.workers,
            rps=self.rps,
            duration_ms=self.duration_ms,
            detail_ms=self.detail_ms,
            seed=self.seed,
            freq_ghz=self.config.freq_ghz,
            requests_total=total_requests,
            requests_detailed=len(all_completed),
            fluid=fluid,
            worker_reports=worker_reports,
            tenants=tenants,
            aggregate=aggregate,
            reconciliation=checks,
            wait_clamps=wait_clamps,
            clamped_cycles=clamped_cycles,
        )

    # ------------------------------------------------------------------
    def _fluid_worker(
        self,
        idx: int,
        scenario: Optional[Scenario],
        rate_rps: float,
        requests: int,
    ) -> WorkerFluid:
        if scenario is None or rate_rps <= 0:
            return WorkerFluid(
                worker=idx, rate_rps=0.0, requests=0,
                service_mean_cycles=0.0, loaded_mean_cycles=0.0,
                overhead_mean_cycles=0.0, utilization=0.0,
                latency_est_ms=0.0, saturated=False,
            )
        models = {key: build_model(key) for key in scenario.model_keys()}
        per_model, oracle = _service_cycles_by_model(
            self.scheduler, models, self.mechanism
        )
        # Mix-weighted mean service cycles per request, and the marginal
        # model-draw distribution (for the expected co-run time).
        service_mean = 0.0
        model_probs: Dict[str, float] = {}
        tenant_rates: List[float] = []
        world_rates: Dict[str, float] = {}
        for spec in scenario.tenants:
            total_w = sum(w for _, w in spec.models)
            tenant_rates.append(spec.share)
            world_rates[spec.world] = (
                world_rates.get(spec.world, 0.0) + spec.share
            )
            for model, w in spec.models:
                prob = spec.share * (w / total_w)
                model_probs[model] = model_probs.get(model, 0.0) + prob
                service_mean += prob * per_model[model]
        if oracle is not None:
            # Spatial: under load both slots are busy, so a request is
            # served at its expected *pair* rate, not its alone rate —
            # charging capacity at the alone rate would overstate a
            # spatial worker's throughput roughly 2x.
            loaded_mean = sum(
                p_i * p_j * oracle.pair(m_i, m_j)[0]
                for m_i, p_i in sorted(model_probs.items())
                for m_j, p_j in sorted(model_probs.items())
            )
        else:
            loaded_mean = service_mean
        # Expected switch overhead per request: consecutive requests
        # change protection domain with P = 1 - sum p_t^2 (temporal pays
        # scrub + context switch), and change world with the analogous
        # probability (both sharing axes pay one context switch).
        switch_cost = self.config.flush_cycles
        world_cost = float(self.config.context_switch_cycles)
        p_domain = _collision_prob(tenant_rates)
        p_world = _collision_prob(list(world_rates.values()))
        overhead = p_world * world_cost
        if self.mechanism.startswith("flush-"):
            overhead += p_domain * switch_cost
        # Capacity: temporal mechanisms serve one request at a time;
        # spatial mechanisms co-run two slots (at the loaded pair rate).
        capacity = 1.0 if self.mechanism.startswith("flush-") else 2.0
        lam = rate_rps / (self.config.freq_ghz * 1e9)  # requests/cycle
        rho = lam * (loaded_mean + overhead) / capacity
        saturated = rho >= 0.999
        if saturated:
            latency_est_ms: Optional[float] = None
        else:
            latency_cycles = (loaded_mean + overhead) / (1.0 - rho)
            latency_est_ms = latency_cycles / (self.config.freq_ghz * 1e6)
        return WorkerFluid(
            worker=idx, rate_rps=rate_rps, requests=requests,
            service_mean_cycles=service_mean,
            loaded_mean_cycles=loaded_mean,
            overhead_mean_cycles=overhead,
            utilization=rho, latency_est_ms=latency_est_ms,
            saturated=saturated,
        )

    # ------------------------------------------------------------------
    def _reconcile(
        self,
        assignment: Assignment,
        worker_rates: List[float],
        fluid: List[WorkerFluid],
        worker_reports: List[Optional[ServeReport]],
        tenants: List[TenantReport],
    ) -> List[Dict[str, Any]]:
        """Check the detailed sample against the fluid totals.

        Every check appends a row ``{check, subject, observed, bound,
        ok}``; the first violation raises :class:`ReconciliationError`
        carrying the full context.  Bounds are declared, not tuned:
        arrival counts get Poisson noise (4 sigma, floored at 25 %),
        per-request service accounting a 35 % band, mean latency a
        service-floor and a 10x ceiling that only applies while every
        worker is below 90 % utilization.
        """
        checks: List[Dict[str, Any]] = []
        detail_s = self.detail_ms / 1000.0

        def record(check: str, subject: str, observed: float,
                   bound: float) -> None:
            ok = observed <= bound
            checks.append({
                "check": check, "subject": subject,
                "observed": observed, "bound": bound, "ok": ok,
            })
            if not ok:
                raise ReconciliationError(
                    f"cluster fluid/detailed mismatch: {check} for "
                    f"{subject}: observed {observed:.4g} exceeds bound "
                    f"{bound:.4g}"
                )

        # 1. Per-tenant arrival rates: pooled detailed completions vs
        # the fluid rate (Poisson counting noise).
        for rep in tenants:
            tenant_rate = self.rps * sum(
                sum(assignment[w].get(rep.tenant, {}).values())
                for w in range(self.workers)
            )
            expected_n = tenant_rate * detail_s
            if expected_n < 5.0:
                continue
            bound = max(0.25, 4.0 / math.sqrt(expected_n))
            rel_err = abs(rep.n - expected_n) / expected_n
            record("tenant_rate", rep.tenant, rel_err, bound)

        # 2. Per-worker service accounting: the detailed busy cycles
        # must match requests x fluid per-request cost.  Robust to
        # saturation (unlike a utilization ratio, whose denominator
        # stretches with the queue), it pins the fluid S_mean to what
        # the detailed path actually charged.
        for idx, rep in enumerate(worker_reports):
            n = rep.aggregate.n if rep is not None else 0
            if rep is None or n < 20:
                continue
            f = fluid[idx]
            expected = n * (f.service_mean_cycles + f.overhead_mean_cycles)
            if expected <= 0:
                continue
            rel_err = abs(rep.outcome.busy_cycles - expected) / expected
            record("service_accounting", f"w{idx}", rel_err, 0.35)

        # 3. Mean latency: the detailed sample can never beat half the
        # fluid service floor (requests pay their service time), and —
        # while no worker saturates — must stay within 10x the fluid
        # M/M/1 estimate.
        all_below_knee = all(f.utilization <= 0.9 for f in fluid)
        for idx, rep in enumerate(worker_reports):
            if rep is None or rep.aggregate.mean_ms is None:
                continue
            f = fluid[idx]
            service_floor_ms = (
                0.5 * f.service_mean_cycles
                / (self.config.freq_ghz * 1e6)
            )
            record(
                "latency_floor", f"w{idx}",
                service_floor_ms, rep.aggregate.mean_ms,
            )
            if all_below_knee and f.latency_est_ms:
                record(
                    "latency_ceiling", f"w{idx}",
                    rep.aggregate.mean_ms, 10.0 * f.latency_est_ms,
                )
        return checks


def autoscale(
    scenario: Scenario,
    mechanism: str = "snpu",
    policy: str = "rr",
    balance: str = "rr",
    rps: Optional[float] = None,
    duration_ms: Optional[float] = None,
    requests: Optional[int] = None,
    seed: int = 0,
    config: Optional[NPUConfig] = None,
    scheduler: Optional[MultiTaskScheduler] = None,
    detail_ms: float = DEFAULT_DETAIL_MS,
    min_workers: int = 1,
    max_workers: int = 16,
    target_attainment: float = 0.95,
) -> ClusterReport:
    """Grow the fleet until pooled p99/SLA signals meet the target.

    The *total* offered load is held fixed at the ``min_workers``
    cluster's rate (autoscaling absorbs a given load, it does not invent
    more), so each doubling halves per-worker pressure.  The decision
    rule reads the pooled per-tenant report: attainment below 50 % is
    catastrophic (double), otherwise step by one; hold when every tenant
    meets ``p99 <= sla_ms`` and attainment >= target.
    """
    if min_workers < 1 or max_workers < min_workers:
        raise ConfigError(
            f"need 1 <= min_workers <= max_workers, got "
            f"{min_workers}..{max_workers}"
        )
    config = config or NPUConfig.paper_default()
    scheduler = scheduler or MultiTaskScheduler(config)
    total_rps = scenario.rps * min_workers if rps is None else float(rps)
    steps: List[AutoscaleStep] = []
    n = min_workers
    while True:
        sim = ClusterSimulator(
            scenario, mechanism=mechanism, policy=policy, balance=balance,
            workers=n, rps=total_rps, duration_ms=duration_ms,
            requests=requests, seed=seed, config=config,
            scheduler=scheduler, detail_ms=detail_ms,
        )
        report = sim.run()
        attainments = [
            t.sla_attainment for t in report.tenants
            if t.sla_attainment is not None
        ]
        ratios = [
            t.p99_ms / t.sla_ms for t in report.tenants
            if t.p99_ms is not None and t.sla_ms
        ]
        min_att = min(attainments) if attainments else None
        worst = max(ratios) if ratios else None
        ok = (
            min_att is not None and min_att >= target_attainment
            and worst is not None and worst <= 1.0
        )
        if ok or n >= max_workers:
            steps.append(AutoscaleStep(n, min_att, worst, ok, "hold"))
            report.autoscale_steps = steps
            return report
        decision = (
            "double" if (min_att is not None and min_att < 0.5) else "step"
        )
        steps.append(AutoscaleStep(n, min_att, worst, ok, decision))
        n = min(max_workers, n * 2 if decision == "double" else n + 1)
