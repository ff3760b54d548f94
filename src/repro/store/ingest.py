"""Per-verb :class:`RunRecord` builders.

Each CLI verb (and the experiments runner / benchmark suite) calls one
builder here with the objects it already produced, then hands the record
to :func:`repro.store.ingest_quietly`.  Builders only *read* report
objects — they never re-run anything — and they normalise every value
through the store's canonical encoding, so the archived bytes depend
only on the run's seeded content.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.store.store import RunRecord, flatten_metrics


def record_from_run(
    model: str,
    protection: str,
    secure: bool,
    input_size: int,
    cycles: float,
    utilization: float,
    dma_bytes: float,
    metrics: Optional[Dict[str, Any]] = None,
) -> RunRecord:
    """``repro run``: one workload on one protection mechanism."""
    return RunRecord(
        verb="run",
        experiment=f"{model}:{input_size}",
        protection=protection,
        seed=0,
        payload={
            "model": model, "input_size": input_size, "secure": secure,
            "cycles": cycles, "utilization": utilization,
            "dma_bytes": dma_bytes,
        },
        metrics={
            "run.cycles": cycles,
            "run.utilization": utilization,
            "run.dma_bytes": dma_bytes,
            **flatten_metrics(metrics or {}),
        },
    )


def record_from_stats(
    model: str,
    protection: str,
    secure: bool,
    input_size: int,
    cycles: float,
    snapshot: Dict[str, Any],
) -> RunRecord:
    """``repro stats``: full metrics-registry snapshot of one run."""
    return RunRecord(
        verb="stats",
        experiment=f"{model}:{input_size}",
        protection=protection,
        seed=0,
        payload={
            "model": model, "input_size": input_size, "secure": secure,
            "cycles": cycles,
        },
        metrics=flatten_metrics(snapshot),
    )


def _tenant_rows(report: Any) -> List[Dict[str, Any]]:
    rows = []
    for tenant in report.tenants:
        rows.append({
            "tenant": tenant.tenant,
            "n": tenant.n,
            "p50_ms": tenant.p50_ms,
            "p95_ms": tenant.p95_ms,
            "p99_ms": tenant.p99_ms,
            "sla_attainment": tenant.sla_attainment,
        })
    return rows


def _window_rows(timeline: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [dict(rec) for rec in timeline]


def record_from_serve(
    report: Any,  # ServeReport
    seed: int,
) -> RunRecord:
    """``repro serve``: per-tenant SLA stats (+ windows when present)."""
    out = report.outcome
    metrics: Dict[str, Any] = {
        "serve.completed": len(out.completed),
        "serve.makespan_ms": report.makespan_ms,
        "serve.makespan_cycles": out.makespan,
        "serve.flushes": out.flushes,
        "serve.flush_share": report.flush_share,
        # The exact busy-cycle decomposition (service + flush + world)
        # that `repro diagnose` rebuilds for archived serve pairs.
        "serve.service_cycles": out.service_cycles,
        "serve.flush_cycles": out.flush_cycles,
        "serve.world_cycles": out.world_cycles,
        "serve.world_switches": out.world_switches,
        "serve.world_switch_share": report.world_share,
    }
    for tenant in report.tenants + [report.aggregate]:
        prefix = f"serve.tenant.{tenant.tenant}"
        metrics[f"{prefix}.p99_ms"] = tenant.p99_ms
        metrics[f"{prefix}.sla_attainment"] = tenant.sla_attainment
    return RunRecord(
        verb="serve",
        experiment=f"{out.scenario}:{out.mechanism}:{out.policy}",
        protection=out.mechanism,
        seed=seed,
        payload={
            "scenario": out.scenario, "mechanism": out.mechanism,
            "policy": out.policy, "rps": out.rps,
            "duration_ms": out.duration_ms,
        },
        metrics=metrics,
        tenants=_tenant_rows(report),
        windows=(
            _window_rows(out.windows.timeline())
            if out.windows is not None else []
        ),
    )


def record_from_cluster(
    report: Any,  # ClusterReport
    seed: int,
) -> RunRecord:
    """``repro serve --workers N``: fluid totals + pooled detailed stats.

    The experiment string embeds the balance policy and fleet size so a
    cluster run never collides with the plain serve record of the same
    scenario/mechanism/policy.  The ``serve.*`` cycle metrics are the
    sums over workers' detailed samples — the exact decomposition
    ``repro diagnose`` rebuilds, so archived cluster pairs diagnose the
    same way single-NPU serve pairs do.  Tenant rows carry the pooled
    stats plus per-worker ``w{i}/{tenant}`` breakdowns.
    """
    service = flush = world = 0.0
    flushes = world_switches = completed = 0
    for rep in report.worker_reports:
        if rep is None:
            continue
        out = rep.outcome
        service += out.service_cycles
        flush += out.flush_cycles
        world += out.world_cycles
        flushes += out.flushes
        world_switches += out.world_switches
        completed += len(out.completed)
    metrics: Dict[str, Any] = {
        "serve.completed": completed,
        "serve.requests_total": report.requests_total,
        "serve.workers": report.workers,
        "serve.flushes": flushes,
        "serve.service_cycles": service,
        "serve.flush_cycles": flush,
        "serve.world_cycles": world,
        "serve.world_switches": world_switches,
        "serve.wait_clamps": report.wait_clamps,
    }
    for tenant in report.tenants + [report.aggregate]:
        prefix = f"serve.tenant.{tenant.tenant}"
        metrics[f"{prefix}.p99_ms"] = tenant.p99_ms
        metrics[f"{prefix}.sla_attainment"] = tenant.sla_attainment
    tenants = _tenant_rows(report)
    for idx, rep in enumerate(report.worker_reports):
        if rep is None:
            continue
        for row in _tenant_rows(rep):
            tenants.append({**row, "tenant": f"w{idx}/{row['tenant']}"})
    return RunRecord(
        verb="serve",
        experiment=(
            f"{report.scenario}:{report.mechanism}:{report.policy}"
            f":{report.balance}:w{report.workers}"
        ),
        protection=report.mechanism,
        seed=seed,
        payload={
            "scenario": report.scenario, "mechanism": report.mechanism,
            "policy": report.policy, "balance": report.balance,
            "workers": report.workers, "rps": report.rps,
            "duration_ms": report.duration_ms,
            "detail_ms": report.detail_ms,
            "requests_total": report.requests_total,
            "requests_detailed": report.requests_detailed,
        },
        metrics=metrics,
        tenants=tenants,
    )


def record_from_watch(
    outcome: Any,  # ServeOutcome with .windows
    seed: int,
) -> RunRecord:
    """``repro watch``: the per-window timeline of one serving run."""
    windows = outcome.windows
    timeline = windows.timeline() if windows is not None else []
    return RunRecord(
        verb="watch",
        experiment=f"{outcome.scenario}:{outcome.mechanism}:{outcome.policy}",
        protection=outcome.mechanism,
        seed=seed,
        payload={
            "scenario": outcome.scenario, "mechanism": outcome.mechanism,
            "policy": outcome.policy, "rps": outcome.rps,
            "duration_ms": outcome.duration_ms,
            "window_ms": windows.window_ms if windows is not None else None,
        },
        metrics={
            "watch.completed": len(outcome.completed),
            "watch.windows": len(timeline),
            "watch.flushes": outcome.flushes,
            "watch.world_switches": outcome.world_switches,
        },
        windows=_window_rows(timeline),
    )


def record_from_slo(
    report: Any,  # SLOReport
    scenario: str,
    mechanism: str,
    policy: str,
    seed: int,
) -> RunRecord:
    """``repro slo``: burn-rate alerts + static-ceiling breaches."""
    alerts: List[Dict[str, Any]] = []
    for event in report.alerts:
        alerts.append({
            "idx": len(alerts),
            "tenant": event.tenant,
            "alert": "burn_rate",
            "state": event.state,
            "cycle": event.cycle,
        })
    for breach in report.breaches:
        alerts.append({
            "idx": len(alerts),
            "tenant": breach.tenant,
            "alert": breach.kind,
            "state": "BREACH",
            "cycle": breach.cycle,
        })
    return RunRecord(
        verb="slo",
        experiment=f"{scenario}:{mechanism}:{policy}",
        protection=mechanism,
        seed=seed,
        payload={"scenario": scenario, "ok": report.ok},
        metrics={
            "slo.alerts": len(report.alerts),
            "slo.fired": len(report.fired),
            "slo.breaches": len(report.breaches),
            "slo.ok": report.ok,
        },
        slo_alerts=alerts,
    )


def record_from_attacks(
    results_by_protection: Dict[str, List[Any]],  # AttackResult lists
) -> RunRecord:
    """``repro attacks``: the verdict matrix with detection latencies."""
    attacks: List[Dict[str, Any]] = []
    leaked = 0
    detected = 0
    for protection, results in sorted(results_by_protection.items()):
        for result in results:
            leaked += int(result.succeeded)
            detected += int(result.detected)
            attacks.append({
                "protection": protection,
                "attack": result.name,
                "outcome": "leaked" if result.succeeded else "blocked",
                "blocked_by": result.blocked_by or "",
                "detection_latency": result.detection_latency,
            })
    return RunRecord(
        verb="attacks",
        experiment="matrix",
        protection="+".join(sorted(results_by_protection)),
        seed=0,
        payload={"protections": sorted(results_by_protection)},
        metrics={
            "attacks.total": len(attacks),
            "attacks.leaked": leaked,
            "attacks.detected": detected,
        },
        attacks=attacks,
    )


def record_from_audit(
    ledger: Any,  # AuditLedger
    protections: List[str],
) -> RunRecord:
    """``repro audit``: per-kind record/deny counts of the merged ledger."""
    summary = [
        {
            "kind": kind,
            "records": count,
            "denies": len(ledger.find(kind=kind, decision="deny")),
        }
        for kind, count in ledger.kinds().items()
    ]
    denies = sum(row["denies"] for row in summary)
    return RunRecord(
        verb="audit",
        experiment="matrix",
        protection="+".join(protections),
        seed=0,
        payload={"protections": list(protections)},
        metrics={
            "audit.records": len(ledger),
            "audit.denies": denies,
            "audit.kinds": len(summary),
        },
        audit_summary=summary,
    )


def record_from_profile(profile: Any) -> RunRecord:  # ModelProfile
    """``repro profile``: Fraction-exact cycle-attribution leaves."""
    return RunRecord(
        verb="profile",
        experiment=f"{profile.task}:{profile.mode}",
        protection=profile.protection,
        seed=0,
        payload={
            "task": profile.task, "mode": profile.mode,
            "secure": profile.secure, "total_cycles": float(profile.total),
            "total_cycles_exact": profile.total,
        },
        metrics={
            "profile.total_cycles": float(profile.total),
            "profile.run_cycles": profile.run_cycles,
        },
        profile_categories=dict(profile.categories),
    )


def record_from_flows(
    report: Any,  # FlowReport
    model: str,
    controller: str,
    input_size: int,
) -> RunRecord:
    """``repro flows``: per-stage latency percentiles."""
    stages = []
    for name in sorted(report.stages):
        stat = report.stages[name]
        pct = stat.percentiles()
        stages.append({
            "stage": name,
            "flows": stat.count,
            "p50": pct.get("p50"),
            "p95": pct.get("p95"),
            "p99": pct.get("p99"),
        })
    return RunRecord(
        verb="flows",
        experiment=f"{model}:{controller}",
        protection=controller,
        seed=0,
        payload={
            "model": model, "controller": controller,
            "input_size": input_size, "flows": len(report.records),
        },
        metrics={
            "flows.records": len(report.records),
            "flows.total": float(report.total),
            "flows.queueing": float(report.queueing),
            "flows.service": float(report.service),
            "flows.security": float(report.security),
        },
        flow_stages=stages,
    )


def record_from_experiment(
    exp_id: str,
    profile: str,
    seed: int,
    figure_payload: Dict[str, Any],
    metrics: Optional[Dict[str, Any]] = None,
) -> RunRecord:
    """One registry experiment (the runner ingests these in the parent
    process after ``run_parallel`` ordering, so ``--jobs N`` archives
    exactly what serial runs archive)."""
    return RunRecord(
        verb="experiment",
        experiment=exp_id,
        protection="",
        seed=seed,
        payload={"profile": profile},
        metrics=flatten_metrics(metrics or {}),
        figures=[{"exp_id": exp_id, **figure_payload}],
    )


def record_from_bench(payload: Dict[str, Any], bench_id: str) -> RunRecord:
    """One BENCH payload (called by ``benchmarks/_common.py``).

    Host wall-clock numbers *do* land in the child rows (they are the
    trend the sparklines and ``--history`` gates track) — but only in
    child rows of a run whose identity is content-derived, so archiving
    them never perturbs another run's bytes.
    """
    # Imported here: every verb loads this module, only bench payloads
    # need the parser (and the statistics module it pulls in).
    from repro.telemetry.regression import metric_sections

    bench_rows = [
        {"name": name, "kind": kind, "value": value}
        for kind, section in metric_sections(payload).items()
        for name, value in section.items()
    ]
    return RunRecord(
        verb="bench",
        experiment=bench_id,
        protection="",
        seed=0,
        config_digest=payload.get("config_digest"),
        source_digest=payload.get("source_digest"),
        payload={"benchmark": payload.get("benchmark", bench_id)},
        bench=bench_rows,
    )
