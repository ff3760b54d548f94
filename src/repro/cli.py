"""Command-line interface.

::

    python -m repro models                 # list the workload zoo
    python -m repro info                   # Table II configuration
    python -m repro run resnet --secure    # run a model on a protection
    python -m repro attacks                # execute the attack matrix
    python -m repro experiments fig13 fig14   # regenerate figures
    python -m repro stats resnet           # run + dump the metrics registry
    python -m repro trace examples/quickstart.py   # record a Chrome trace
    python -m repro flows mobilenet --controller iommu-4 --top 10
    python -m repro audit --jobs 4 -o audit.jsonl  # security audit ledger
    python -m repro serve default --mechanism snpu --rps 240 --duration 400
    python -m repro watch nlp-mix --seed 7 --window 50   # live window timeline
    python -m repro slo nlp-mix --spec specs/nlp-mix.slo.json  # exit 1 on breach
    python -m repro diagnose resnet --a baseline --b snpu   # exact overhead
    python -m repro profile resnet --host  # cProfile the simulator itself
    python -m repro bench diff benchmarks/suite/BASELINE.json new.json
    python -m repro bench diff new.json --history 3   # vs archived runs
    python -m repro query p99-by-tenant    # canned query over the archive
    python -m repro history serve.completed --last 10
    python -m repro report -o dashboard.html   # byte-deterministic HTML
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro import telemetry
from repro.errors import AllocationError, ConfigError, ReproError, StoreError
from repro.npu.config import NPUConfig
from repro.workloads import zoo


def _cmd_models(args: argparse.Namespace) -> int:
    for name, builder in zoo.MODEL_BUILDERS.items():
        model = builder(args.input_size) if name != "bert" else zoo.bert()
        print(model.summary())
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    cfg = NPUConfig.paper_default()
    print("SoC configuration (Table II):")
    print(f"  systolic array dimension : {cfg.array_dim}")
    print(f"  scratchpad per tile      : {cfg.spad_bytes // 1024} KiB "
          f"({cfg.spad_line_bytes * 8}-bit lines)")
    print(f"  accumulator per tile     : {cfg.acc_bytes_total // 1024} KiB "
          f"({cfg.acc_line_bytes * 8}-bit lines)")
    print(f"  accelerator tiles        : {cfg.num_cores}")
    print(f"  shared L2                : {cfg.l2_bytes // (1024 * 1024)} MiB, "
          f"{cfg.l2_banks} banks")
    print(f"  DRAM bandwidth           : {cfg.dram_gbps:.0f} GB/s")
    print(f"  frequency                : {cfg.freq_ghz:.0f} GHz")
    print(f"  peak throughput          : {cfg.peak_gops:.0f} GMAC/s")
    return 0


def _resolve_model(name: str, input_size: int):
    """Build a zoo model by name; ConfigError if the name is unknown."""
    if name not in zoo.MODEL_BUILDERS:
        raise ConfigError(f"unknown model {name!r}; choose from "
                          f"{', '.join(zoo.MODEL_BUILDERS)}")
    if name == "bert":
        return zoo.bert(seq_len=128, layers=6)
    if name == "gpt":
        return zoo.gpt_decoder(seq_len=128, layers=6)
    return zoo.MODEL_BUILDERS[name](input_size)


def _cmd_run(args: argparse.Namespace) -> int:
    model = _resolve_model(args.model, args.input_size)
    from repro.soc import SoC, SoCConfig
    from repro.store import ingest_quietly
    from repro.store.ingest import record_from_run

    with telemetry.scoped(trace=False, profile=False) as scope:
        soc = SoC(SoCConfig(protection=args.protection))
        print(model.summary())
        handle = soc.submit(model, secure=args.secure)
        result = soc.run(handle, detailed=args.detailed)
        soc.release(handle)
        snapshot = scope.metrics.snapshot()
    ingest_quietly(record_from_run(
        model=args.model, protection=args.protection, secure=args.secure,
        input_size=args.input_size, cycles=result.cycles,
        utilization=result.utilization, dma_bytes=result.dma_bytes,
        metrics=snapshot,
    ))
    print(
        f"{args.protection}{' secure' if args.secure else ''}: "
        f"{result.cycles:,.0f} cycles "
        f"({result.cycles / 1e6 / NPUConfig.paper_default().freq_ghz:.2f} ms "
        f"at 1 GHz), {result.utilization:.1%} of peak, "
        f"{result.dma_bytes / 1e6:.1f} MB DMA"
    )
    if args.detailed and result.check_stats.translations:
        stats = result.check_stats
        print(
            f"access control: {stats.translations:,} translations, "
            f"{stats.misses:,} IOTLB misses, {stats.page_walks:,} walks"
        )
    return 0


def _check_protections(values: List[str]) -> List[str]:
    """Validate attack-matrix protection names; ConfigError on a bad one.

    (argparse's ``choices`` cannot express "zero or more of these, both
    when absent": it validates the empty/default list itself.)
    """
    values = values or ["none", "snpu"]
    for value in values:
        if value not in ("none", "snpu"):
            raise ConfigError(
                f"unknown protection {value!r}; choose none or snpu")
    return values


def _cmd_attacks(args: argparse.Namespace) -> int:
    from repro.security.attacks import run_all_attacks
    from repro.store import ingest_quietly
    from repro.store.ingest import record_from_attacks

    protections = _check_protections(args.protections)
    matrix = {}
    for protection in protections:
        print(f"== protection: {protection} ==")
        matrix[protection] = run_all_attacks(protection)
        for result in matrix[protection]:
            outcome = (
                "SECRET LEAKED"
                if result.succeeded
                else f"blocked by {result.blocked_by}"
            )
            latency = result.detection_latency
            if latency is not None:
                detect = f"detected at +{latency:g} cycles"
            else:
                detect = "undetected (below all checks)"
            print(f"  {result.name:28s} {outcome:42s} [{detect}]")
    ingest_quietly(record_from_attacks(matrix))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.all import REGISTRY, run_all
    from repro.experiments.parallel import run_parallel

    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    ids = args.ids or ["all"]
    for exp_id in ids:
        if exp_id not in REGISTRY and exp_id != "all":
            raise ConfigError(f"unknown experiment {exp_id!r}; choose from "
                              f"{', '.join(REGISTRY.ids() + ['all'])}")
    if "all" in ids:
        run_all(args.profile, outdir=args.outdir, jobs=args.jobs)
        return 0
    run = run_parallel(ids, profile=args.profile, jobs=args.jobs,
                       outdir=args.outdir)
    for outcome in run.outcomes:
        for result in outcome.results:
            print(result)
            print()
    if args.jobs > 1:
        print(run.timing_table())
        print()
    if args.outdir:
        print(f"(figure data + metrics written to {args.outdir}/)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run one workload and dump the telemetry registry's snapshot."""
    model = _resolve_model(args.model, args.input_size)
    from repro.soc import SoC, SoCConfig
    from repro.store import ingest_quietly
    from repro.store.ingest import record_from_stats

    with telemetry.scoped(trace=False, profile=False) as scope:
        soc = SoC(SoCConfig(protection=args.protection))
        result = soc.run_model(
            model, secure=args.secure, detailed=args.detailed
        )
        snapshot = scope.metrics.snapshot()
    ingest_quietly(record_from_stats(
        model=args.model, protection=args.protection, secure=args.secure,
        input_size=args.input_size, cycles=result.cycles, snapshot=snapshot,
    ))

    def render_table() -> str:
        lines = [
            f"{model.name} on {args.protection}"
            f"{' secure' if args.secure else ''}: "
            f"{result.cycles:,.0f} cycles",
            "",
        ]
        width = max((len(k) for k in snapshot), default=0)
        for name in sorted(snapshot):
            value = snapshot[name]
            shown = (
                f"{value:,.3f}" if isinstance(value, float) else f"{value:,}"
            )
            lines.append(f"  {name.ljust(width)}  {shown}")
        return "\n".join(lines)

    print(_format_payload(args.format, {
        "json": lambda: json.dumps(
            snapshot, indent=2, default=str, sort_keys=True
        ),
        "table": render_table,
    }))
    return 0


def _trace_scenario(model) -> None:
    """Composite workload that touches every traced subsystem: a secure
    sNPU run (Guarder + Monitor + route verification), a TrustZone
    detailed run (DMA bursts + IOTLB walks + world switches), and raw NoC
    packets including one peephole rejection."""
    from repro.common.types import World
    from repro.errors import NoCAuthError
    from repro.soc import SoC, SoCConfig

    soc = SoC(SoCConfig(protection="snpu"))
    handle = soc.submit(model, secure=True)
    soc.run(handle)

    tz = SoC(SoCConfig(protection="trustzone"))
    tz_handle = tz.submit(model, secure=True)
    tz.run(tz_handle, detailed=True)
    tz.release(tz_handle)

    fabric = soc.complex.fabric
    fabric.transfer(0, 3, 4096)
    fabric.transfer(3, 0, 1024)
    fabric.routers[1].set_world(World.SECURE, issuer=World.SECURE)
    try:
        fabric.transfer(0, 1, 256)  # normal -> secure: peephole rejects
    except NoCAuthError:
        pass


def _cmd_trace(args: argparse.Namespace) -> int:
    """Record a Chrome-trace of a script or a built-in scenario."""
    target = args.target
    with telemetry.scoped(trace=True) as scope:
        if target.endswith(".py"):
            if not os.path.exists(target):
                raise ConfigError(f"no such script {target!r}")
            import runpy

            try:
                runpy.run_path(target, run_name="__main__")
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    raise ConfigError(
                        f"script {target!r} exited with {exc.code}"
                    ) from None
            except Exception as exc:  # noqa: BLE001 - surface one line
                raise ConfigError(f"script {target!r} failed: "
                                  f"{type(exc).__name__}: {exc}") from None
        elif target in zoo.MODEL_BUILDERS:
            _trace_scenario(_resolve_model(target, args.input_size))
        else:
            raise ConfigError(
                f"trace target must be a .py script or a model name "
                f"({', '.join(zoo.MODEL_BUILDERS)})")
        payload = scope.tracer.to_chrome_trace(indent=2)
        snapshot = scope.metrics.snapshot()
        categories = scope.tracer.categories()
        timeline = scope.tracer.to_timeline() if args.timeline else None
        dropped = scope.tracer.dropped

    with open(args.out, "w") as fh:
        fh.write(payload)
    metrics_path = os.path.join(
        os.path.dirname(args.out) or ".", "metrics.json"
    )
    with open(metrics_path, "w") as fh:
        json.dump(snapshot, fh, indent=2, default=str, sort_keys=True)

    if timeline:
        print(timeline)
        print()
    total = sum(categories.values())
    cats = ", ".join(f"{c}={n}" for c, n in sorted(categories.items()))
    print(f"{total} trace events ({cats}), {dropped} dropped")
    if dropped:
        # The drop count also rides in the trace file itself (otherData
        # -> dropped_events), so a saved trace declares its own gaps.
        print(
            f"warning: {dropped} trace events dropped (recorder buffer "
            f"full); the trace is incomplete",
            file=sys.stderr,
        )
    print(f"trace written to {args.out} "
          f"(open with https://ui.perfetto.dev or chrome://tracing)")
    print(f"metrics written to {metrics_path}")
    return 0


#: Access controllers selectable by ``repro flows --controller``.
FLOW_CONTROLLERS = ("guarder", "none", "iommu-4", "iommu-8", "iommu-16",
                    "iommu-32")


def _flow_controller(name: str, program):
    """Build the access controller *name* for a detailed flow run."""
    from repro.experiments.fig13 import _guarder_for_run, _identity_table
    from repro.mmu.base import NoProtection
    from repro.mmu.iommu import IOMMU

    if name == "guarder":
        return _guarder_for_run()
    if name == "none":
        return NoProtection()
    entries = int(name.split("-", 1)[1])
    return IOMMU(_identity_table(program), iotlb_entries=entries)


def _cmd_flows(args: argparse.Namespace) -> int:
    """Per-request latency decomposition of one detailed workload run."""
    from repro.analysis.flows import FlowReport, verify_decomposition
    from repro.driver.compiler import TilingCompiler
    from repro.memory.dram import DRAMModel
    from repro.npu.core import NPUCore

    if args.top < 1:
        raise ConfigError(f"--top must be >= 1, got {args.top}")
    model = _resolve_model(args.model, args.input_size)
    config = NPUConfig.paper_default()
    program = TilingCompiler(config).compile(model)
    with telemetry.scoped(
        trace=bool(args.trace), profile=False, flow=True
    ) as scope:
        dram = DRAMModel(config.dram_bytes_per_cycle)
        controller = _flow_controller(args.controller, program)
        NPUCore(config, controller, dram).run_detailed(program)
        records = scope.flows.records
        dropped = scope.flows.dropped
        trace_payload = (
            scope.tracer.to_chrome_trace(indent=2) if args.trace else None
        )
    # The decomposition invariant holds for every completed flow; a
    # breach here is a simulator bug, not a reporting artifact.
    verify_decomposition(records)
    report = FlowReport(records, top=args.top, stage=args.stage)
    if args.stage and args.stage not in report.stages and not report.records:
        print(f"no flow contains stage {args.stage!r}", file=sys.stderr)
    if dropped:
        print(f"warning: {dropped} flows dropped (tracker cap reached); "
              f"the report is incomplete", file=sys.stderr)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(trace_payload)
        print(f"flow trace written to {args.trace} "
              f"(open with https://ui.perfetto.dev)", file=sys.stderr)
    payload = _format_payload(args.format, {
        fmt: (lambda f=fmt: report.render(f))
        for fmt in ("table", "md", "json")
    })
    from repro.store import ingest_quietly
    from repro.store.ingest import record_from_flows

    ingest_quietly(record_from_flows(
        report, model=args.model, controller=args.controller,
        input_size=args.input_size,
    ))
    _emit(payload, args.out)
    return 0


def _audit_worker(item):
    """Run one (protection, attack) cell; returns (origin, records).

    Module-level so ``repro audit --jobs N`` can ship it to a pool
    worker; each attack runs under its own telemetry scope and carries
    its ledger records out in the result.
    """
    protection, name = item
    from repro.security.attacks import ALL_ATTACKS

    result = ALL_ATTACKS[name](protection)
    return f"{protection}/{name}", result.audit_records


def _cmd_audit(args: argparse.Namespace) -> int:
    """Replay the attack matrix and emit the merged audit ledger."""
    from repro.security.attacks import ALL_ATTACKS
    from repro.telemetry.audit import AuditLedger

    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    protections = _check_protections(args.protections)
    items = [
        (protection, name)
        for protection in protections
        for name in ALL_ATTACKS
    ]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        from repro.sim.worker import init_worker

        with ProcessPoolExecutor(
            max_workers=args.jobs, initializer=init_worker
        ) as pool:
            produced = list(pool.map(_audit_worker, items))
    else:
        produced = [_audit_worker(item) for item in items]

    # Each cell ingests under a stable origin, so the merged ledger's
    # bytes are identical however many workers produced it.
    ledger = AuditLedger(enabled=True)
    for origin, records in produced:
        ledger.ingest(records, origin=origin)

    def render_summary() -> str:
        lines = [f"audit ledger: {len(ledger)} records from "
                 f"{len(items)} attack runs"]
        width = max((len(k) for k in ledger.kinds()), default=0)
        for kind, count in ledger.kinds().items():
            denies = len(ledger.find(kind=kind, decision="deny"))
            lines.append(f"  {kind.ljust(width)}  {count:4d} records"
                         + (f"  ({denies} denies)" if denies else ""))
        return "\n".join(lines) + "\n"

    payload = _format_payload(args.format, {
        "summary": render_summary,
        "jsonl": ledger.to_jsonl,
    })
    from repro.store import ingest_quietly
    from repro.store.ingest import record_from_audit

    ingest_quietly(record_from_audit(ledger, protections))
    _emit(payload, args.out)
    return 0


def _warn_dropped(scope: telemetry.TelemetryScope) -> None:
    """One stderr warning per serve-run ledger that reached its cap."""
    if scope.audit.dropped:
        print(f"warning: {scope.audit.dropped} audit records dropped (ledger "
              f"cap reached); the audit count is incomplete", file=sys.stderr)
    if scope.flows.dropped:
        print(f"warning: {scope.flows.dropped} flows dropped (tracker cap "
              f"reached); the flow trace is incomplete", file=sys.stderr)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve a multi-tenant traffic scenario and print the SLA report."""
    from repro.serving.queueing import ServeSimulator
    from repro.serving.report import ServeReport
    from repro.serving.workload import SCENARIOS

    # The cluster path handles fleets, request-count targets and
    # autoscaling; a plain ``--workers 1`` invocation stays on the
    # original single-NPU path (byte-identical output).
    if args.workers != 1 or args.requests is not None or args.autoscale:
        return _cmd_serve_cluster(args)
    scenario = SCENARIOS[args.scenario]
    # The trace is the flow records' one reader: track flows only for it.
    with telemetry.scoped(
        trace=bool(args.trace), profile=False, flow=bool(args.trace)
    ) as scope:
        simulator = ServeSimulator(
            scenario,
            mechanism=args.mechanism,
            policy=args.policy,
            rps=args.rps,
            duration_ms=args.duration,
            seed=args.seed,
        )
        outcome = simulator.run()
        report = ServeReport.build(outcome, scenario=scenario)
        n_flows = len(scope.flows)
        n_audit = len(scope.audit)
        _warn_dropped(scope)
        trace_payload = (
            scope.tracer.to_chrome_trace(indent=2) if args.trace else None
        )
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(trace_payload)
        print(f"flow trace written to {args.trace} "
              f"(open with https://ui.perfetto.dev)", file=sys.stderr)
    payload = _format_payload(args.format, {
        fmt: (lambda f=fmt: report.render(f))
        for fmt in ("table", "json")
    })
    from repro.store import ingest_quietly
    from repro.store.ingest import record_from_serve

    ingest_quietly(record_from_serve(report, seed=args.seed))
    _emit(payload, args.out)
    if args.format == "table":
        print(f"({n_flows} request flows tracked, "
              f"{n_audit} audit records)")
    return 0


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    """Serve a scenario across N NPU workers (fluid + sampled detail)."""
    from repro.serving.cluster import ClusterSimulator, autoscale
    from repro.serving.workload import SCENARIOS

    if args.trace:
        raise ConfigError("--trace needs the single-NPU path (no --workers "
                          "above 1, --requests or --autoscale)")
    scenario = SCENARIOS[args.scenario]
    requests = None if args.requests is None else int(args.requests)
    with telemetry.scoped(trace=False, profile=False) as scope:
        if args.autoscale:
            report = autoscale(
                scenario,
                mechanism=args.mechanism,
                policy=args.policy,
                balance=args.balance,
                rps=args.rps,
                duration_ms=args.duration,
                requests=requests,
                seed=args.seed,
                detail_ms=args.detail,
                min_workers=args.workers,
                max_workers=args.autoscale,
            )
        else:
            simulator = ClusterSimulator(
                scenario,
                mechanism=args.mechanism,
                policy=args.policy,
                balance=args.balance,
                workers=args.workers,
                rps=args.rps,
                duration_ms=args.duration,
                requests=requests,
                seed=args.seed,
                detail_ms=args.detail,
            )
            report = simulator.run()
        n_flows = len(scope.flows)
        n_audit = len(scope.audit)
        _warn_dropped(scope)
    payload = _format_payload(args.format, {
        fmt: (lambda f=fmt: report.render(f))
        for fmt in ("table", "json")
    })
    from repro.store import ingest_quietly
    from repro.store.ingest import record_from_cluster

    ingest_quietly(record_from_cluster(report, seed=args.seed))
    _emit(payload, args.out)
    if args.format == "table":
        print(f"({n_flows} request flows tracked, "
              f"{n_audit} audit records)")
    return 0


def _serve_windowed(args: argparse.Namespace, window_ms: float):
    """Run one windowed serving simulation for ``watch``/``slo``."""
    from repro.serving.queueing import ServeSimulator
    from repro.serving.workload import SCENARIOS

    scenario = SCENARIOS[args.scenario]
    with telemetry.scoped(trace=False, profile=False):
        simulator = ServeSimulator(
            scenario,
            mechanism=args.mechanism,
            policy=args.policy,
            rps=args.rps,
            duration_ms=args.duration,
            seed=args.seed,
            window_ms=window_ms,
        )
        outcome = simulator.run()
    return scenario, outcome


def _cmd_watch(args: argparse.Namespace) -> int:
    """Live per-window timeline of one serving run.

    The output is byte-deterministic for a fixed seed
    (``tests/integration/test_cli_contract.py`` runs it twice and compares
    bytes); the per-window partial sums are reconciled exactly against
    the run totals before anything prints.
    """
    scenario, outcome = _serve_windowed(args, args.window)
    windows = outcome.windows
    assert windows is not None
    timeline = windows.timeline()

    def render_json() -> str:
        payload = {
            "scenario": outcome.scenario,
            "mechanism": outcome.mechanism,
            "policy": outcome.policy,
            "seed": outcome.seed,
            "rps": outcome.rps,
            "duration_ms": outcome.duration_ms,
            "window_ms": windows.window_ms,
            "completed": len(outcome.completed),
            "makespan_cycles": outcome.makespan,
            "timeline": timeline,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def render_table() -> str:
        cycles_per_ms = outcome.freq_ghz * 1e6
        names = windows.tenant_names
        lines = [
            f"== watch: scenario={outcome.scenario} "
            f"mechanism={outcome.mechanism} "
            f"policy={outcome.policy} rps={outcome.rps:g} "
            f"duration={outcome.duration_ms:g}ms "
            f"window={windows.window_ms:g}ms "
            f"seed={outcome.seed} ==",
            "win  t_ms      arr  done  ok    deny  flush  wsw   p99_ms",
        ]
        for rec in timeline:
            tenants = rec["tenants"]
            arr = sum(t["arrivals"] for t in tenants.values())
            done = sum(t["completions"] for t in tenants.values())
            ok = sum(t["sla_ok"] for t in tenants.values())
            deny = sum(t["denies"] for t in tenants.values())
            p99s = " ".join(
                f"{name}=" + (
                    "-" if tenants[name]["p99_ms"] is None
                    else f"{tenants[name]['p99_ms']:.2f}"
                )
                for name in names
            )
            lines.append(
                f"{rec['window']:>3d}  "
                f"{rec['end_cycle'] / cycles_per_ms:<8g} "
                f"{arr:>4d} {done:>5d} {ok:>5d} {deny:>5d} "
                f"{rec['flushes']:>6d} {rec['world_switches']:>4d}   {p99s}"
            )
        lines.append(
            f"totals: {len(outcome.completed)} completed over "
            f"{len(timeline)} windows; {outcome.flushes} flushes, "
            f"{outcome.world_switches} world switches; window partial sums "
            f"reconcile exactly with run totals"
        )
        return "\n".join(lines) + "\n"

    payload = _format_payload(args.format, {
        "json": render_json,
        "table": render_table,
    })
    from repro.store import ingest_quietly
    from repro.store.ingest import record_from_watch

    ingest_quietly(record_from_watch(outcome, seed=args.seed))
    _emit(payload, args.out)
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """Evaluate an SLO spec against a live run; exit 1 on breach."""
    from repro.telemetry.slo import SLOSpec, evaluate

    spec = SLOSpec.load(args.spec)
    if spec.scenario and spec.scenario != args.scenario:
        raise ConfigError(f"spec {args.spec!r} targets scenario "
                          f"{spec.scenario!r}, not {args.scenario!r}")
    scenario, outcome = _serve_windowed(args, spec.window_ms)
    assert outcome.windows is not None
    report = evaluate(spec, outcome.windows.timeline())
    payload = _format_payload(args.format, {
        fmt: (lambda f=fmt: report.render(f))
        for fmt in ("table", "json")
    })
    from repro.store import ingest_quietly
    from repro.store.ingest import record_from_slo

    ingest_quietly(record_from_slo(
        report, scenario=args.scenario, mechanism=args.mechanism,
        policy=args.policy, seed=args.seed,
    ))
    _emit(payload, args.out)
    return 0 if report.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Cycle-attribution report, or host profile."""
    from repro.analysis.profile import profile_host, profile_model

    if args.top < 1:
        raise ConfigError(f"--top must be >= 1, got {args.top}")
    model = _resolve_model(args.model, args.input_size)

    if args.host:
        report = profile_host(
            model, protection=args.protection,
            detailed=not args.analytic, secure=args.secure, top=args.top,
        )
        _emit(report, args.out)
        return 0

    profile = profile_model(
        model, protection=args.protection, detailed=not args.analytic,
        secure=args.secure,
    )
    from repro.store import ingest_quietly
    from repro.store.ingest import record_from_profile

    ingest_quietly(record_from_profile(profile))
    payload = _format_payload(args.format, {
        "json": profile.to_json,
        "md": profile.to_markdown,
        "folded": profile.to_folded,
        "table": profile.to_table,
    })
    _emit(payload, args.out)
    return 0


def _format_payload(fmt: str, renderers) -> str:
    """Shared ``--format`` dispatch for every report-emitting verb.

    *renderers* maps format name -> zero-arg callable producing the
    payload; an unknown format is a ConfigError.
    """
    renderer = renderers.get(fmt)
    if renderer is None:
        raise ConfigError(f"unknown format {fmt!r}; choose from "
                          f"{', '.join(sorted(renderers))}")
    return renderer()


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(payload if payload.endswith("\n") else payload + "\n")
        print(f"written to {out}")
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")


def _bench_id_of(path: str, payload: dict) -> str:
    """The archive's bench_id for one BENCH file: the field
    ``benchmarks/_common.write_bench`` stamps into every file."""
    bench_id = payload.get("bench_id")
    if not bench_id:
        raise ConfigError(f"bench file {path!r} has no \"bench_id\" field "
                          f"to find its archived runs by")
    return str(bench_id)


def _cmd_bench(args: argparse.Namespace) -> int:
    """Compare BENCH_*.json perf trajectories (regression gate).

    Two files -> pairwise diff (the classic committed-baseline check).
    With ``--history N`` the *last* file is additionally gated against
    the median of the last N archived runs of the same benchmark; one
    file + ``--history N`` runs the history gate alone.  Exit 1 on any
    regression.
    """
    from repro.telemetry.regression import (
        compare_bench_files, compare_bench_history, load_bench,
    )

    files = list(args.files)
    if len(files) > 2:
        raise ConfigError("bench diff takes at most two files (old new)")
    if len(files) == 1 and not args.history:
        raise ConfigError(
            "bench diff needs two files, or one file with --history N")
    if args.history:
        new_path = files[-1]
        payload = load_bench(new_path)
        bench_id = _bench_id_of(new_path, payload)

    ok = True
    if len(files) == 2:
        comparison = compare_bench_files(
            files[0], files[1], timing_tolerance=args.timing_tolerance,
        )
        print(f"bench diff: {files[0]} -> {files[1]}")
        print(comparison.format_table(), end="")
        ok = ok and comparison.ok

    if args.history:
        from repro.store import RunStore

        histories = RunStore(args.store).bench_history(
            bench_id, last=args.history
        )
        if not histories:
            raise ConfigError(
                f"no archived runs of benchmark {bench_id!r} to gate "
                f"against (benchmarks/suite/run.py --out archives one)")
        comparison = compare_bench_history(
            histories, payload, timing_tolerance=args.timing_tolerance,
        )
        print(f"bench history gate: median of last {len(histories)} "
              f"archived {bench_id!r} run(s) -> {new_path}")
        print(comparison.format_table(), end="")
        if not comparison.ok:
            # A failed gate explains itself: attach the exact
            # decomposition of new-vs-median so the culprit metric is
            # named, not just flagged.
            from repro.analysis.diagnose import diagnose_bench

            diagnosis = diagnose_bench(
                histories, payload, bench_id, comparison=comparison
            )
            print()
            print(diagnosis.render("table"), end="")
        ok = ok and comparison.ok
    return 0 if ok else 1


def _cmd_diagnose(args: argparse.Namespace) -> int:
    """Explain the delta between two runs as an exact decomposition.

    Three pair sources share one engine (``repro.analysis.diagnose``):
    two archived run ids; one fresh BENCH_*.json vs the median of its
    archived history (``--history N``); or two live configurations run
    back-to-back (``repro diagnose fig13 --a snpu --b trustzone``).
    """
    targets = list(args.targets)
    live = args.side_a is not None or args.side_b is not None
    if len(targets) == 2 and not live:
        from repro.analysis.diagnose import diagnose_archived
        from repro.store import RunStore

        diagnosis = diagnose_archived(
            RunStore(args.store), targets[0], targets[1]
        )
    elif len(targets) == 1 and targets[0].endswith(".json"):
        diagnosis = _diagnose_bench_file(args, targets[0])
    elif len(targets) == 1 and live:
        if args.side_a is None or args.side_b is None:
            raise ConfigError("live diagnose needs both --a and --b")
        diagnosis = _diagnose_live(args, targets[0])
    else:
        raise ConfigError(
            "diagnose takes two archived run ids, one BENCH_*.json with "
            "--history N, or one model/scenario/fig13 with --a and --b")
    payload = _format_payload(args.format, {
        fmt: (lambda f=fmt: diagnosis.render(f))
        for fmt in ("table", "md", "json")
    })
    _emit(payload, args.out)
    return 0


def _diagnose_bench_file(args: argparse.Namespace, path: str):
    """Bench mode: fresh BENCH file vs its archived history median."""
    from repro.analysis.diagnose import diagnose_bench
    from repro.store import RunStore
    from repro.telemetry.regression import load_bench

    if not args.history:
        raise ConfigError("diagnosing a bench file needs --history N")
    payload = load_bench(path)
    bench_id = _bench_id_of(path, payload)
    histories = RunStore(args.store).bench_history(
        bench_id, last=args.history
    )
    if not histories:
        raise ConfigError(
            f"no archived runs of benchmark {bench_id!r} to diagnose "
            f"against (benchmarks/suite/run.py --out archives one)")
    return diagnose_bench(histories, payload, bench_id)


def _diagnose_live(args: argparse.Namespace, target: str):
    """Live mode: run both configurations back-to-back, then diagnose.

    A serving scenario name compares two mechanisms; a zoo model (or the
    ``fig13`` alias, which profiles resnet) compares two protections.
    """
    from repro.serving.workload import SCENARIOS

    if target in SCENARIOS:
        from repro.analysis.diagnose import diagnose_serve
        from repro.serving.queueing import MECHANISMS, ServeSimulator
        from repro.serving.report import ServeReport

        for side in (args.side_a, args.side_b):
            if side not in MECHANISMS:
                raise ConfigError(f"unknown mechanism {side!r}; choose from "
                                  f"{', '.join(MECHANISMS)}")
        scenario = SCENARIOS[target]
        reports = []
        for mechanism in (args.side_a, args.side_b):
            with telemetry.scoped(trace=False, profile=False):
                outcome = ServeSimulator(
                    scenario, mechanism=mechanism, policy=args.policy,
                    rps=args.rps, duration_ms=args.duration, seed=args.seed,
                ).run()
            reports.append(ServeReport.build(outcome, scenario=scenario))
        return diagnose_serve(reports[0], reports[1])

    from repro.analysis.diagnose import diagnose_profiles
    from repro.analysis.profile import profile_model

    model_name = "resnet" if target == "fig13" else target
    if model_name not in zoo.MODEL_BUILDERS:
        raise ConfigError(
            f"unknown diagnose target {target!r}; choose a model "
            f"({', '.join(zoo.MODEL_BUILDERS)}), a serving scenario "
            f"({', '.join(sorted(SCENARIOS))}) or fig13")
    model = _resolve_model(model_name, args.input_size)
    profiles = []
    for side in (args.side_a, args.side_b):
        protection = "none" if side == "baseline" else side
        if protection not in ("none", "trustzone", "snpu"):
            raise ConfigError(f"unknown protection {side!r}; choose "
                              f"baseline, none, trustzone or snpu")
        profiles.append(profile_model(
            model, protection=protection, detailed=not args.analytic,
            secure=args.secure and protection != "none",
        ))
    diagnosis = diagnose_profiles(profiles[0], profiles[1])
    if target == "fig13":
        diagnosis.notes.append(
            "fig13 alias: resnet profiled under each protection (the "
            "mechanism-overhead comparison behind the paper's Fig. 13)"
        )
    return diagnosis


def _cmd_query(args: argparse.Namespace) -> int:
    """Canned or raw read-only SQL over the run archive."""
    from repro.store import RunStore
    from repro.store.queries import CANNED, format_rows, run_query

    if args.list or not args.query:
        width = max(len(name) for name in CANNED)
        print("canned queries (or pass raw read-only SQL):")
        for name in sorted(CANNED):
            print(f"  {name.ljust(width)}  {CANNED[name][0]}")
        return 0
    columns, rows = run_query(RunStore(args.store), args.query)
    _emit(format_rows(columns, rows), args.out)
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    """Per-metric trend table across archived runs."""
    from repro.store import RunStore
    from repro.store.queries import history_table

    _emit(history_table(RunStore(args.store), args.metric, last=args.last),
          args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render the self-contained HTML dashboard of the run archive."""
    from repro.store import RunStore
    from repro.store.report import build_report, default_goldens_dir

    goldens = args.goldens if args.goldens is not None \
        else default_goldens_dir()
    html_payload = build_report(
        RunStore(args.store), goldens, compare=args.compare
    )
    with open(args.out, "w") as fh:
        fh.write(html_payload)
    print(f"dashboard written to {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation import validate_all

    return 0 if validate_all(args.profile) else 1


def _cmd_disasm(args: argparse.Namespace) -> int:
    import itertools

    from repro.driver.compiler import TilingCompiler
    from repro.npu.config import NPUConfig
    from repro.npu.instructions import (
        disassemble, instruction_histogram, lower_program,
    )

    if args.limit < 0:
        raise ConfigError(f"--limit must be >= 0, got {args.limit}")
    if args.model in ("bert", "gpt"):
        model = zoo.MODEL_BUILDERS[args.model](64, 2)
    else:
        model = _resolve_model(args.model, args.input_size)
    program = TilingCompiler(NPUConfig.paper_default()).compile(model)
    stream = lower_program(program)
    if args.limit:
        stream = itertools.islice(stream, args.limit)
    for instr in stream:
        print(disassemble(instr))
    histogram = instruction_histogram(program)
    print(f"\ninstruction mix: "
          + ", ".join(f"{k}={v:,}" for k, v in sorted(histogram.items())))
    return 0


def _add_serving_flags(p_serve, p_watch, p_slo, p_diag) -> None:
    """The flags of ``serve``, ``watch``, ``slo`` and ``diagnose`` that
    name serving scenarios, mechanisms and policies."""
    from repro.serving.cluster import CLUSTER_POLICIES, DEFAULT_DETAIL_MS
    from repro.serving.policies import POLICIES
    from repro.serving.queueing import MECHANISMS
    from repro.serving.workload import SCENARIOS

    p_serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="NPU workers in the cluster (default 1: the single-NPU "
             "path, byte-identical to previous releases)",
    )
    p_serve.add_argument(
        "--balance", choices=CLUSTER_POLICIES, default="rr",
        help="cluster load-balancing policy (default rr)",
    )
    p_serve.add_argument(
        "--requests", type=float, default=None, metavar="R",
        help="total request target, e.g. 1e6 (fluid horizon + a "
             "seed-stable detailed sample; implies the cluster path)",
    )
    p_serve.add_argument(
        "--detail", type=float, default=DEFAULT_DETAIL_MS, metavar="MS",
        help="detailed-sample window per worker in ms "
             f"(default {DEFAULT_DETAIL_MS:g})",
    )
    p_serve.add_argument(
        "--autoscale", type=int, default=None, metavar="MAXW",
        help="autoscale the fleet from --workers up to MAXW workers "
             "until every tenant meets its SLA at p99",
    )
    p_serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="also write a Chrome-trace with per-request flow arrows "
             "(needs the single-NPU path: not with --workers above 1, "
             "--requests or --autoscale)",
    )
    p_watch.add_argument(
        "--window", type=float, default=50.0, metavar="MS",
        help="tumbling-window size in simulated ms (default 50)",
    )
    p_slo.add_argument(
        "--spec", required=True, metavar="PATH",
        help="JSON SLO spec (see specs/nlp-mix.slo.json)",
    )
    for p in (p_serve, p_watch, p_slo):
        p.add_argument(
            "scenario", nargs="?", default="default",
            choices=sorted(SCENARIOS),
            help="tenant population to serve (default: default)",
        )
        p.add_argument(
            "--mechanism", choices=MECHANISMS, default="snpu",
            help="isolation mechanism under test (default snpu)",
        )
    for p in (p_serve, p_watch, p_slo, p_diag):
        p.add_argument(
            "--policy", choices=POLICIES, default="rr",
            help="dispatch policy (default rr)",
        )
        p.add_argument(
            "--rps", type=float, default=None, metavar="R",
            help="aggregate request rate (default: the scenario's)",
        )
        p.add_argument(
            "--duration", type=float, default=None, metavar="MS",
            help="admission-window length in ms (default: the scenario's)",
        )
        p.add_argument("--seed", type=int, default=0,
                       help="workload seed (same seed => identical bytes)")


def build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser.  Given the *verb* about to be parsed, it
    leaves out the serving flags of the verbs that are not it."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="sNPU (ISCA 2024) architectural-simulation reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_models = sub.add_parser("models", help="list the workload zoo")
    p_models.set_defaults(func=_cmd_models)

    p_info = sub.add_parser("info", help="print the Table II configuration")
    p_info.set_defaults(func=_cmd_info)

    p_run = sub.add_parser("run", help="run one workload on a protection")
    p_run.add_argument("model", help=", ".join(zoo.MODEL_BUILDERS))
    p_run.add_argument(
        "--protection", choices=("none", "trustzone", "snpu"), default="snpu"
    )
    p_run.add_argument("--secure", action="store_true")
    p_run.add_argument("--detailed", action="store_true",
                       help="simulate every DMA descriptor (slower)")
    p_run.set_defaults(func=_cmd_run)

    p_attacks = sub.add_parser("attacks", help="execute the attack matrix")
    p_attacks.add_argument("protections", nargs="*", metavar="PROTECTION",
                           help="none and/or snpu (default: both)")
    p_attacks.set_defaults(func=_cmd_attacks)

    p_exp = sub.add_parser("experiments", help="regenerate tables/figures")
    p_exp.add_argument("ids", nargs="*", metavar="ID",
                       help="experiment ids, or all (default: all)")
    p_exp.add_argument("--profile", choices=zoo.PROFILES,
                       default="eval")
    p_exp.add_argument(
        "--outdir", default="results", metavar="DIR",
        help="write <exp_id>.json + <exp_id>.metrics.json here "
             "(empty string disables)",
    )
    p_exp.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="run experiments across N worker processes (default 1)",
    )
    p_exp.add_argument(
        "--no-cache", action="store_true",
        help="no effect: experiments always run fresh (accepted so "
             "existing scripts keep working)",
    )
    p_exp.set_defaults(func=_cmd_experiments)

    p_stats = sub.add_parser(
        "stats", help="run a workload and dump the metrics registry"
    )
    p_stats.add_argument("model", help=", ".join(zoo.MODEL_BUILDERS))
    p_stats.add_argument(
        "--protection", choices=("none", "trustzone", "snpu"), default="snpu"
    )
    p_stats.add_argument("--secure", action="store_true")
    p_stats.add_argument("--detailed", action="store_true",
                         help="simulate every DMA descriptor (slower)")
    p_stats.set_defaults(func=_cmd_stats)

    p_trace = sub.add_parser(
        "trace", help="record a Chrome-trace (Perfetto) of a run"
    )
    p_trace.add_argument(
        "target", nargs="?", default="mobilenet",
        help="a .py script to run under tracing, or a model name for the "
             "built-in multi-subsystem scenario",
    )
    p_trace.add_argument("--timeline", action="store_true",
                         help="also print a plain-text timeline")
    p_trace.set_defaults(func=_cmd_trace)

    p_flows = sub.add_parser(
        "flows",
        help="per-request latency decomposition of a detailed run",
    )
    p_flows.add_argument("model", help=", ".join(zoo.MODEL_BUILDERS))
    p_flows.add_argument(
        "--controller", choices=FLOW_CONTROLLERS, default="guarder",
        help="access-control mechanism on the DMA path (default guarder)",
    )
    p_flows.add_argument("--top", type=int, default=10, metavar="K",
                         help="slowest flows to list (default 10)")
    p_flows.add_argument(
        "--stage", default=None, metavar="NAME",
        help="only flows containing this stage; rank the top-K by its span",
    )
    p_flows.add_argument(
        "--trace", default=None, metavar="PATH",
        help="also write a Chrome-trace with flow arrows (Perfetto)",
    )
    p_flows.set_defaults(func=_cmd_flows)

    p_audit = sub.add_parser(
        "audit",
        help="replay the attack matrix and emit the security audit ledger",
    )
    p_audit.add_argument("protections", nargs="*", metavar="PROTECTION",
                         help="none and/or snpu (default: both)")
    p_audit.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="run attacks across N worker processes (default 1; the "
             "ledger bytes are identical for any N)",
    )
    p_audit.set_defaults(func=_cmd_audit)

    p_serve = sub.add_parser(
        "serve",
        help="serve a multi-tenant traffic scenario (per-tenant SLA report)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_watch = sub.add_parser(
        "watch",
        help="live per-window timeline of a serving run "
             "(sliding-window metrics keyed on simulated cycles)",
    )
    p_watch.set_defaults(func=_cmd_watch)

    p_slo = sub.add_parser(
        "slo",
        help="evaluate an SLO spec against a live serving run "
             "(exit codes: README, Install & run)",
    )
    p_slo.set_defaults(func=_cmd_slo)

    p_prof = sub.add_parser(
        "profile",
        help="cycle-attribution report (or --host: profile the simulator)",
    )
    p_prof.add_argument("model", help=", ".join(zoo.MODEL_BUILDERS))
    p_prof.add_argument(
        "--protection", choices=("none", "trustzone", "snpu"), default="snpu"
    )
    p_prof.add_argument("--secure", action="store_true")
    p_prof.add_argument(
        "--analytic", action="store_true",
        help="use the analytic timing path (default: detailed)",
    )
    p_prof.add_argument(
        "--host", action="store_true",
        help="cProfile the simulator itself (host wall-clock hot loops)",
    )
    p_prof.add_argument("--top", type=int, default=15,
                        help="functions to show with --host (default 15)")
    p_prof.set_defaults(func=_cmd_profile)

    p_bench = sub.add_parser(
        "bench", help="perf-trajectory tools (BENCH_*.json)"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bdiff = bench_sub.add_parser(
        "diff", help="compare two BENCH files; exit 1 on regression"
    )
    p_bdiff.add_argument(
        "files", nargs="+", metavar="FILE",
        help="old new (pairwise diff), or one fresh file with --history",
    )
    p_bdiff.add_argument(
        "--timing-tolerance", type=float, default=0.25, metavar="FRAC",
        help="relative tolerance for host-timing metrics (default 0.25)",
    )
    p_bdiff.add_argument(
        "--history", type=int, default=0, metavar="N",
        help="also gate the fresh file against the median of the last N "
             "archived runs of the same benchmark",
    )
    p_bdiff.set_defaults(func=_cmd_bench)

    p_diag = sub.add_parser(
        "diagnose",
        help="explain the delta between two runs "
             "(exact cross-run decomposition + ranked verdicts)",
    )
    p_diag.add_argument(
        "targets", nargs="+", metavar="TARGET",
        help="two archived run ids; or one BENCH_*.json with --history N; "
             "or one model/scenario/fig13 with --a and --b",
    )
    p_diag.add_argument(
        "--a", dest="side_a", default=None, metavar="CONFIG",
        help="left-hand live config (protection for models, mechanism "
             "for scenarios)",
    )
    p_diag.add_argument(
        "--b", dest="side_b", default=None, metavar="CONFIG",
        help="right-hand live config (protection for models, mechanism "
             "for scenarios)",
    )
    p_diag.add_argument(
        "--history", type=int, default=0, metavar="N",
        help="bench mode: diagnose against the median of the last N "
             "archived runs of the same benchmark",
    )
    p_diag.add_argument(
        "--analytic", action="store_true",
        help="profile the model sides analytically (default: detailed)",
    )
    p_diag.add_argument("--secure", action="store_true")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_query = sub.add_parser(
        "query",
        help="query the run archive (canned queries or raw read-only SQL)",
    )
    p_query.add_argument(
        "query", nargs="?", default=None,
        help="canned query name (see --list) or a read-only SQL statement",
    )
    p_query.add_argument("--list", action="store_true",
                         help="list the canned queries")
    p_query.set_defaults(func=_cmd_query)

    p_hist = sub.add_parser(
        "history",
        help="one metric's trend across archived runs",
    )
    p_hist.add_argument("metric",
                        help="metric name (e.g. serve.completed or a "
                             "bench metric)")
    p_hist.add_argument("--last", type=int, default=None, metavar="N",
                        help="only the most recent N archived values")
    p_hist.set_defaults(func=_cmd_history)

    p_report = sub.add_parser(
        "report",
        help="self-contained HTML dashboard of the run archive "
             "(byte-deterministic, no JS)",
    )
    p_report.add_argument(
        "--goldens", default=None, metavar="DIR",
        help="golden-figure directory for the status section "
             "(default tests/golden when present)",
    )
    p_report.add_argument(
        "--compare", nargs=2, default=None, metavar=("RUN_A", "RUN_B"),
        help="pin the run-comparison page to these two archived run ids "
             "(default: every comparable pair, capped)",
    )
    p_report.set_defaults(func=_cmd_report)

    p_val = sub.add_parser(
        "validate", help="cross-check the analytic vs detailed timing paths"
    )
    p_val.add_argument("--profile", choices=zoo.PROFILES,
                       default="tiny")
    p_val.set_defaults(func=_cmd_validate)

    p_dis = sub.add_parser(
        "disasm", help="lower a workload to its NPU instruction stream"
    )
    p_dis.add_argument("model", help=", ".join(zoo.MODEL_BUILDERS))
    p_dis.add_argument("--limit", type=int, default=40,
                       help="instructions to print (0 = all)")
    p_dis.set_defaults(func=_cmd_disasm)

    # Flags several verbs share, each defined once (with its per-verb
    # default where one differs).
    for p, size in ((p_models, 224), (p_dis, 64), (p_run, 112),
                    (p_stats, 112), (p_trace, 112), (p_flows, 112),
                    (p_prof, 112), (p_diag, 112)):
        p.add_argument("--input-size", type=int, default=size)
    # The serving verbs' flags take their choices and defaults from
    # repro.serving, which loads the driver; the other verbs never parse
    # them, so they are added only when one of these verbs is parsed.
    if verb is None or verb in ("serve", "watch", "slo", "diagnose"):
        _add_serving_flags(p_serve, p_watch, p_slo, p_diag)
    for p, fmt in ((p_audit, "summary"), (p_stats, "table"), (p_flows, "table"),
                   (p_serve, "table"), (p_watch, "table"), (p_slo, "table"),
                   (p_prof, "table"), (p_diag, "table")):
        p.add_argument(
            "--format", default=fmt, metavar="FMT",
            help=f"output format (default {fmt}); an unknown one lists "
                 f"the choices",
        )
    for p, out in ((p_trace, "trace.json"), (p_report, "report.html"),
                   (p_flows, None), (p_audit, None), (p_serve, None),
                   (p_watch, None), (p_slo, None), (p_prof, None),
                   (p_diag, None), (p_query, None), (p_hist, None)):
        p.add_argument(
            "-o", "--out", default=out, metavar="PATH",
            help=f"output file (default {out})" if out
            else "write the output here instead of stdout",
        )
    for p in (p_bdiff, p_diag, p_query, p_hist, p_report):
        p.add_argument(
            "--store", default=None, metavar="PATH",
            help="run archive (default $REPRO_STORE or "
                 "~/.cache/repro/runs.sqlite)",
        )
    return parser


#: The exit-code contract (README, "Install & run"): 0 ok; 1 the
#: verdict failed, which only a handler returns; otherwise the first row
#: matching the escaping error.  Any other exception keeps its traceback.
_EXIT_CODES = (
    (ConfigError, 2), (StoreError, 2), (AllocationError, 2), (OSError, 2),
    (ReproError, 3),
)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES
                    if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
