"""Run every experiment and print every table/figure.

Usage::

    python -m repro.experiments.all [profile] [outdir]

``profile`` is one of :data:`repro.workloads.zoo.PROFILES`: ``eval``
(default, reduced resolution), ``tiny`` or ``paper`` (full input
shapes).  With ``outdir`` set, each experiment also writes
``<exp_id>.json`` (figure data) and ``<exp_id>.metrics.json`` (the
telemetry snapshot captured while it ran) into that directory.

Experiments are declared in :data:`REGISTRY` with relative cost hints
(measured ``eval`` wall-clock); ``repro all --jobs N`` uses those to
schedule a process pool (see :mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Optional

from repro import telemetry
from repro.experiments.registry import ExperimentRegistry
from repro.experiments.runner import ExperimentResult


def _lazy(module: str, attr: str = "run",
          takes_profile: bool = True) -> Callable[[str], object]:
    """A runner that imports ``repro.experiments.<module>`` when it runs,
    so a process pays only for the experiments it runs."""

    def runner(profile: str):
        fn = getattr(
            importlib.import_module(f"repro.experiments.{module}"), attr
        )
        return fn(profile) if takes_profile else fn()

    return runner


#: Experiment registry: the single dispatch point for ``repro
#: experiments``, :func:`run_all` and the parallel executor.  Cost hints
#: are measured ``eval``-profile seconds (relative values are what
#: matters: the scheduler dispatches costliest-first).
REGISTRY = ExperimentRegistry()
REGISTRY.register("fig01", _lazy("fig01"), cost=1.2,
                  description="accelerator utilization (Fig. 1)")
REGISTRY.register("fig13", _lazy("fig13"), cost=11.5,
                  description="access control: perf + request counts")
REGISTRY.register("fig13-energy", _lazy("fig13", "run_energy"), cost=4.1,
                  description="checking-energy companion to Fig. 13(b)")
REGISTRY.register("fig14", _lazy("fig14"), cost=0.5,
                  description="flush granularity")
REGISTRY.register("fig15", _lazy("fig15"), cost=9.0,
                  description="partition vs dynamic scratchpad")
REGISTRY.register("fig16", _lazy("fig16", takes_profile=False), cost=0.1,
                  description="NoC micro-test")
REGISTRY.register("fig17", _lazy("fig17"), cost=0.4,
                  description="NoC application overhead")
REGISTRY.register("fig18", _lazy("fig18", takes_profile=False), cost=0.1,
                  description="hardware cost")
REGISTRY.register("table1", _lazy("table1"), cost=9.5,
                  description="isolation matrix (Table I)")
REGISTRY.register("tcb", _lazy("tcb", takes_profile=False), cost=0.1,
                  description="TCB size")
REGISTRY.register("sensitivity", _lazy("sensitivity"), cost=3.4,
                  description="sensitivity sweeps")
REGISTRY.register("serve-sweep", _lazy("serve"), cost=6.0,
                  description="multi-tenant serving SLA sweep (§IV-B)")
REGISTRY.register("cluster-sweep", _lazy("cluster"), cost=8.0,
                  description="sharded multi-NPU cluster serving sweep")
REGISTRY.register("access-paths", _lazy("access_paths"), cost=3.0,
                  in_all=False, description="access-path microbenchmarks")
REGISTRY.register("watch", _lazy("watch"), cost=1.0,
                  description="live observability window timeline")


def run_one(exp_id: str, profile: str = "eval") -> List[ExperimentResult]:
    """Run one experiment under a scoped telemetry registry.

    Every simulator object the experiment constructs registers its metrics
    into a fresh registry, so the snapshot attached to the result (and
    written to ``<exp_id>.metrics.json``) covers exactly this experiment.
    """
    spec = REGISTRY.get(exp_id)
    with telemetry.scoped(trace=False, profile=False) as scope:
        out = spec.runner(profile)
        snapshot = scope.metrics.snapshot()
    results = list(out) if isinstance(out, tuple) else [out]
    for result in results:
        result.metrics = dict(snapshot)
    return results


def run_all(
    profile: str = "eval",
    outdir: Optional[str] = None,
    jobs: int = 1,
) -> None:
    """Run every registered experiment and print each table.

    With ``jobs > 1`` the experiments fan out across a process pool; the
    printed figure data is identical to a serial run.
    """
    from repro.experiments.parallel import run_parallel

    run = run_parallel(None, profile=profile, jobs=jobs, outdir=outdir)
    for outcome in run.outcomes:
        for result in outcome.results:
            print(result)
            print()
    print(run.timing_table())
    print()
    print(
        f"(all experiments in {run.wall_seconds:.1f}s, profile={profile}, "
        f"jobs={run.jobs})"
    )
    if outdir:
        print(f"(figure data + metrics written to {outdir}/)")


if __name__ == "__main__":
    run_all(
        sys.argv[1] if len(sys.argv) > 1 else "eval",
        sys.argv[2] if len(sys.argv) > 2 else None,
    )
