"""The parallel executor must be bit-identical to the serial path.

Runs a small batch twice — ``jobs=1`` and ``jobs=4`` — and asserts
row-for-row identical figure data, notes, *and* telemetry counters, the
acceptance bar for ``repro all --jobs N``.  Also covers the cache
round-trip: a cached re-run must reproduce the same rows and report
every experiment as a hit.
"""

from __future__ import annotations

from repro.experiments import export
from repro.experiments.parallel import run_parallel

# Small, fast experiments with non-trivial telemetry (fig17 builds the
# flit-level NoC; tcb walks the source tree; fig14/fig16 exercise the
# scratchpad + mesh models).
IDS = ["fig14", "fig16", "fig17", "tcb"]
PROFILE = "tiny"


def _figure_data(run):
    """Rows/columns/notes per result (metrics are compared separately —
    a cached payload JSON-round-trips them, which may stringify exotic
    values; the figure data itself must survive bit-for-bit)."""
    out = []
    for outcome in run.outcomes:
        payloads = [export.to_dict(r) for r in outcome.results]
        for payload in payloads:
            payload.pop("metrics", None)
        out.append(payloads)
    return out


def _counters(run):
    """Metrics-relevant counters per experiment (drop non-numerics)."""
    return [
        {
            k: v for k, v in outcome.metrics.items()
            if isinstance(v, (int, float))
        }
        for outcome in run.outcomes
    ]


class TestSerialVsParallel:
    def test_jobs4_bit_identical_to_jobs1(self):
        serial = run_parallel(IDS, profile=PROFILE, jobs=1, use_cache=False)
        pooled = run_parallel(IDS, profile=PROFILE, jobs=4, use_cache=False)

        assert [o.exp_id for o in serial.outcomes] == [
            o.exp_id for o in pooled.outcomes
        ]
        assert _figure_data(serial) == _figure_data(pooled)
        assert serial.outcomes[0].metrics  # telemetry actually captured
        assert sum(
            c.get("sim.engine.events_fired", 0) for c in _counters(serial)
        ) > 0
        assert _counters(serial) == _counters(pooled)
        assert pooled.cache_hits == 0 and serial.cache_hits == 0


class TestCacheRoundTrip:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = run_parallel(
            IDS, profile=PROFILE, jobs=1, use_cache=True, cache_dir=cache_dir
        )
        second = run_parallel(
            IDS, profile=PROFILE, jobs=2, use_cache=True, cache_dir=cache_dir
        )
        assert first.cache_hits == 0
        assert first.cache_misses == len(IDS)
        assert second.cache_hits == len(IDS)
        assert second.cache_misses == 0
        assert all(o.cached for o in second.outcomes)
        assert _figure_data(first) == _figure_data(second)
