"""Process-pool experiment executor with content-addressed caching.

``repro all --jobs N`` fans the registered experiments out across *N*
worker processes.  Three properties make the fan-out trustworthy:

* **Determinism** — every experiment runs under a deterministic seed
  derived only from ``(exp_id, profile)`` (see
  :func:`repro.sim.worker.stable_seed`), inside its own
  ``telemetry.scoped`` block, in a worker whose globals were reset by
  :func:`repro.sim.worker.init_worker`.  Row data is therefore
  bit-identical between ``--jobs 1`` and ``--jobs N``
  (``tests/integration/test_parallel_determinism.py`` enforces it).
* **Scheduling** — the registry's cost hints drive longest-first
  dispatch and declared dependencies are honoured, so the makespan
  approaches the cost of the single most expensive experiment.
* **Caching** — results are stored in a content-addressed on-disk cache
  (:mod:`repro.experiments.cache`); an unchanged (experiment, profile,
  config, source tree) is served from disk and reported as a hit.

Each outcome carries the telemetry snapshot of the process that ran it;
``--outdir`` writes it as ``<exp_id>.metrics.json``.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.experiments import export
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.runner import ExperimentResult
from repro.sim.worker import init_worker, seed_rngs, stable_seed
from repro.store import ingest_quietly
from repro.store.ingest import record_from_experiment

PAYLOAD_VERSION = 1


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
        metrics=outcome.metrics,
    )


@dataclass
class ExperimentOutcome:
    """One experiment's results plus execution metadata."""

    exp_id: str
    results: List[ExperimentResult]
    #: Telemetry snapshot captured in whichever process ran it.
    metrics: Dict[str, Any]
    #: Wall-clock seconds of the *producing* run (a cache hit reports
    #: the original runtime, not the time to load the entry).
    elapsed: float
    cached: bool = False
    pid: int = 0


@dataclass
class ParallelRun:
    """Everything ``run_parallel`` learned about one batch."""

    outcomes: List[ExperimentOutcome]
    profile: str
    jobs: int
    wall_seconds: float
    cache_hits: int = 0
    cache_misses: int = 0

    def timing_table(self) -> ExperimentResult:
        """Per-experiment timing as a printable table."""
        table = ExperimentResult(
            exp_id="timing",
            title=f"Per-experiment wall clock (profile={self.profile}, "
                  f"jobs={self.jobs})",
            columns=["experiment", "status", "seconds", "rows"],
        )
        for outcome in self.outcomes:
            table.add_row(
                experiment=outcome.exp_id,
                status="cache-hit" if outcome.cached else "ran",
                seconds=outcome.elapsed,
                rows=sum(len(r.rows) for r in outcome.results),
            )
        busy = sum(o.elapsed for o in self.outcomes if not o.cached)
        table.notes.append(
            f"total wall {self.wall_seconds:.1f}s, busy {busy:.1f}s, "
            f"{self.cache_hits} cache hit(s), {self.cache_misses} miss(es)"
        )
        return table


def _execute(exp_id: str, profile: str) -> Dict[str, Any]:
    """Run one experiment and return a process-portable payload.

    Runs in a pool worker (or inline for ``--jobs 1`` — same code path,
    same seeding, which is what makes the two modes bit-identical).
    """
    from repro.experiments.all import run_one

    seed_rngs(stable_seed(exp_id, profile))
    started = time.time()
    results = run_one(exp_id, profile)
    metrics = dict(results[0].metrics) if results else {}
    return {
        "version": PAYLOAD_VERSION,
        "exp_id": exp_id,
        "profile": profile,
        "elapsed": time.time() - started,
        "pid": os.getpid(),
        "metrics": metrics,
        "results": [export.to_dict(r) for r in results],
    }


def _outcome_from_payload(
    payload: Dict[str, Any], cached: bool
) -> ExperimentOutcome:
    return ExperimentOutcome(
        exp_id=payload["exp_id"],
        results=[export.from_dict(d) for d in payload["results"]],
        metrics=dict(payload.get("metrics", {})),
        elapsed=float(payload.get("elapsed", 0.0)),
        cached=cached,
        pid=int(payload.get("pid", 0)),
    )


def _write_outdir(outdir: str, outcome: ExperimentOutcome) -> None:
    os.makedirs(outdir, exist_ok=True)
    for result in outcome.results:
        export.write(result, os.path.join(outdir, f"{result.exp_id}.json"))
    path = os.path.join(outdir, f"{outcome.exp_id}.metrics.json")
    with open(path, "w") as fh:
        json.dump(outcome.metrics, fh, indent=2, default=str, sort_keys=True)


def run_parallel(
    exp_ids: Optional[Iterable[str]] = None,
    profile: str = "eval",
    jobs: int = 1,
    outdir: Optional[str] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
) -> ParallelRun:
    """Execute experiments across *jobs* processes, cache-aware.

    *exp_ids* defaults to every registered ``in_all`` experiment.
    Outcomes come back in registry schedule order regardless of which
    worker finished first, so printed output is stable.
    """
    from repro.experiments.all import REGISTRY

    if jobs < 1:
        jobs = 1
    schedule = REGISTRY.schedule(exp_ids)
    order = {spec.exp_id: i for i, spec in enumerate(schedule)}
    started = time.time()

    cache = ResultCache(cache_dir) if use_cache else None
    outcomes: Dict[str, ExperimentOutcome] = {}
    keys: Dict[str, str] = {}
    to_run: List[str] = []
    for spec in schedule:
        if cache is not None:
            keys[spec.exp_id] = cache_key(spec.exp_id, profile)
            payload = cache.get(keys[spec.exp_id])
            if payload is not None and payload.get("profile") == profile:
                outcomes[spec.exp_id] = _outcome_from_payload(payload, cached=True)
                continue
        to_run.append(spec.exp_id)

    def finish(payload: Dict[str, Any]) -> None:
        exp_id = payload["exp_id"]
        if cache is not None:
            cache.put(keys[exp_id], payload)
        outcomes[exp_id] = _outcome_from_payload(payload, cached=False)

    if jobs == 1 or len(to_run) <= 1:
        for exp_id in to_run:
            finish(_execute(exp_id, profile))
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs,
            initializer=init_worker,
            initargs=(stable_seed("repro-worker", profile),),
        ) as pool:
            pending = list(to_run)
            running: Dict[concurrent.futures.Future, str] = {}
            while pending or running:
                for exp_id in REGISTRY.ready(outcomes, pending, batch=order):
                    future = pool.submit(_execute, exp_id, profile)
                    running[future] = exp_id
                    pending.remove(exp_id)
                if not running:  # pragma: no cover - schedule() rejects cycles
                    raise RuntimeError("deadlocked experiment dependencies")
                finished, _ = concurrent.futures.wait(
                    running, return_when=concurrent.futures.FIRST_COMPLETED
                )
                for future in finished:
                    del running[future]
                    finish(future.result())

    ordered = sorted(outcomes.values(), key=lambda o: order[o.exp_id])
    if outdir:
        for outcome in ordered:
            _write_outdir(outdir, outcome)

    # Archive every outcome into the run store from the *parent* process
    # only, after schedule ordering: pool workers never touch the sqlite
    # file (no contention) and the archived rows are the same for
    # --jobs 1 and --jobs N (test_store_cli enforces byte-equality).
    for outcome in ordered:
        ingest_quietly(_experiment_record(outcome, profile))

    hits = sum(1 for o in ordered if o.cached)
    return ParallelRun(
        outcomes=ordered,
        profile=profile,
        jobs=jobs,
        wall_seconds=time.time() - started,
        cache_hits=hits,
        cache_misses=len(ordered) - hits,
    )
