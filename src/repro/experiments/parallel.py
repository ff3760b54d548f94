"""Process-pool experiment executor.

``repro all --jobs N`` fans the registered experiments out across *N*
worker processes.  Two properties make the fan-out trustworthy:

* **Determinism** — an experiment depends only on ``(exp_id, profile)``:
  its simulations draw from their own seeded ``random.Random``
  instances, it runs inside its own ``telemetry.scoped`` block, and a
  pool worker's globals were reset by
  :func:`repro.sim.worker.init_worker`.  Every ``--outdir`` file is
  therefore byte-identical between ``--jobs 1`` and ``--jobs N``
  (``tests/integration/test_parallel_determinism.py`` enforces it).
  The archive records :func:`repro.sim.worker.stable_seed` of the pair
  as the run's seed.
* **Scheduling** — the registry's cost hints order the batch
  costliest-first, so the makespan approaches the cost of the single
  most expensive experiment.

Each result carries the telemetry snapshot of the experiment that
produced it (:func:`repro.experiments.all.run_one` stamps it);
``--outdir`` writes it as ``<exp_id>.metrics.json``.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.experiments import export
from repro.experiments.runner import ExperimentResult
from repro.sim.worker import init_worker, stable_seed
from repro.store import ingest_quietly
from repro.store.ingest import record_from_experiment


def _experiment_record(outcome: "ExperimentOutcome", profile: str):
    """The golden-comparable archive row of one outcome (figure data
    stripped of its metrics section, same shape as tests/golden)."""
    payloads = []
    for result in outcome.results:
        payload = export.to_dict(result)
        payload.pop("metrics", None)
        payloads.append(payload)
    return record_from_experiment(
        exp_id=outcome.exp_id,
        profile=profile,
        seed=stable_seed(outcome.exp_id, profile),
        figure_payload={"profile": profile, "results": payloads},
        metrics=outcome.results[0].metrics,
    )


@dataclass
class ExperimentOutcome:
    """One experiment's results plus execution metadata."""

    exp_id: str
    results: List[ExperimentResult]
    #: Wall-clock seconds the run took.
    elapsed: float


@dataclass
class ParallelRun:
    """Everything ``run_parallel`` learned about one batch."""

    outcomes: List[ExperimentOutcome]
    profile: str
    jobs: int
    wall_seconds: float

    def timing_table(self) -> ExperimentResult:
        """Per-experiment timing as a printable table."""
        table = ExperimentResult(
            exp_id="timing",
            title=f"Per-experiment wall clock (profile={self.profile}, "
                  f"jobs={self.jobs})",
            columns=["experiment", "seconds", "rows"],
        )
        for outcome in self.outcomes:
            table.add_row(
                experiment=outcome.exp_id,
                seconds=outcome.elapsed,
                rows=sum(len(r.rows) for r in outcome.results),
            )
        busy = sum(o.elapsed for o in self.outcomes)
        table.notes.append(
            f"total wall {self.wall_seconds:.1f}s, busy {busy:.1f}s"
        )
        return table


def _execute(exp_id: str, profile: str) -> ExperimentOutcome:
    """Run one experiment.

    Runs in a pool worker (or inline for ``--jobs 1`` — the same code
    path, which is what makes the two modes bit-identical).
    """
    from repro.experiments.all import run_one

    started = time.time()
    results = run_one(exp_id, profile)
    return ExperimentOutcome(
        exp_id=exp_id,
        results=results,
        elapsed=time.time() - started,
    )


def _write_outdir(outdir: str, outcome: ExperimentOutcome) -> None:
    os.makedirs(outdir, exist_ok=True)
    for result in outcome.results:
        export.write(result, os.path.join(outdir, f"{result.exp_id}.json"))
    path = os.path.join(outdir, f"{outcome.exp_id}.metrics.json")
    with open(path, "w") as fh:
        json.dump(outcome.results[0].metrics, fh, indent=2, default=str,
                  sort_keys=True)


def run_parallel(
    exp_ids: Optional[Iterable[str]] = None,
    profile: str = "eval",
    jobs: int = 1,
    outdir: Optional[str] = None,
) -> ParallelRun:
    """Execute experiments across *jobs* processes.

    *exp_ids* defaults to every registered ``in_all`` experiment.
    Outcomes come back in registry schedule order regardless of which
    worker finished first, so printed output is stable.
    """
    from repro.experiments.all import REGISTRY

    order = [spec.exp_id for spec in REGISTRY.schedule(exp_ids)]
    profiles = [profile] * len(order)
    started = time.time()

    if jobs == 1 or len(order) <= 1:
        outcomes = list(map(_execute, order, profiles))
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs,
            initializer=init_worker,
        ) as pool:
            outcomes = list(pool.map(_execute, order, profiles))

    if outdir:
        for outcome in outcomes:
            _write_outdir(outdir, outcome)

    # Archive every outcome into the run store from the *parent* process
    # only, in schedule order: pool workers never touch the sqlite file
    # (no contention) and the archived rows are the same for --jobs 1
    # and --jobs N (test_store_cli enforces byte-equality).
    for outcome in outcomes:
        ingest_quietly(_experiment_record(outcome, profile))

    return ParallelRun(
        outcomes=outcomes,
        profile=profile,
        jobs=jobs,
        wall_seconds=time.time() - started,
    )
