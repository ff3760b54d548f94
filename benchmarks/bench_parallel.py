"""Benchmark the parallel cached experiment runner.

Runs the full registered experiment set three ways and writes
``BENCH_parallel.json`` at the repo root:

1. ``--jobs 1``, cache disabled — the serial baseline,
2. ``--jobs N``, cold cache — the process-pool speedup (and populates
   the cache),
3. ``--jobs N``, warm cache — every experiment must be a hit.

Along the way it asserts that the serial and parallel runs produced
row-for-row identical figure data (the determinism contract).

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py [jobs] [profile]

Defaults: ``jobs`` = 4, ``profile`` = eval.  Honest numbers only: the
emitted JSON records ``cpu_count`` — a pool cannot beat the serial run
on a single-core container, and the file says so.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

from _common import write_bench
from repro.experiments import export
from repro.experiments.parallel import run_parallel


def _figure_data(run):
    out = []
    for outcome in run.outcomes:
        payloads = [export.to_dict(r) for r in outcome.results]
        for payload in payloads:
            payload.pop("metrics", None)
        out.append(payloads)
    return out


def main(jobs: int = 4, profile: str = "eval") -> int:
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        print(f"serial baseline (jobs=1, no cache, profile={profile})...")
        serial = run_parallel(None, profile=profile, jobs=1, use_cache=False)
        print(f"  {serial.wall_seconds:.1f}s")

        print(f"parallel cold (jobs={jobs}, cold cache)...")
        parallel = run_parallel(
            None, profile=profile, jobs=jobs, use_cache=True,
            cache_dir=cache_dir,
        )
        print(f"  {parallel.wall_seconds:.1f}s, "
              f"{parallel.cache_misses} misses")

        print(f"cached (jobs={jobs}, warm cache)...")
        cached = run_parallel(
            None, profile=profile, jobs=jobs, use_cache=True,
            cache_dir=cache_dir,
        )
        print(f"  {cached.wall_seconds:.1f}s, {cached.cache_hits} hits")

        identical = _figure_data(serial) == _figure_data(parallel)
        all_hits = cached.cache_hits == len(cached.outcomes)
        speedup = serial.wall_seconds / parallel.wall_seconds

        payload = {
            "benchmark": "repro all --jobs N vs --jobs 1",
            "profile": profile,
            "jobs": jobs,
            "experiments": [o.exp_id for o in serial.outcomes],
            "serial_seconds": round(serial.wall_seconds, 3),
            "parallel_seconds": round(parallel.wall_seconds, 3),
            "speedup": round(speedup, 3),
            "cached_seconds": round(cached.wall_seconds, 3),
            "cache_hits_on_second_run": cached.cache_hits,
            "all_experiments_cache_hit": all_hits,
            "rows_identical_serial_vs_parallel": identical,
            "per_experiment_seconds": {
                o.exp_id: round(o.elapsed, 3) for o in serial.outcomes
            },
            "note": (
                "speedup scales with cpu_count; on a single-core runner "
                "the pool only adds process overhead"
            ),
        }
        out_path = write_bench("parallel", payload)

        print(f"\nserial   {serial.wall_seconds:7.1f}s")
        print(f"parallel {parallel.wall_seconds:7.1f}s  "
              f"({speedup:.2f}x, jobs={jobs}, cpus={os.cpu_count()})")
        print(f"cached   {cached.wall_seconds:7.1f}s  "
              f"({cached.cache_hits}/{len(cached.outcomes)} hits)")
        print(f"identical rows: {identical}")
        print(f"written to {out_path}")
        if not identical or not all_hits:
            print("DETERMINISM OR CACHE FAILURE", file=sys.stderr)
            return 1
        return 0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 4,
        sys.argv[2] if len(sys.argv) > 2 else "eval",
    ))
