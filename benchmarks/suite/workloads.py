"""The suite's four workloads: the CLI legs each one runs, the output each
leg is judged by, and the paper-shape checks on those outputs.

Every leg is one ``repro`` verb.  A leg's *output* is what a user keeps
from it: the figure JSON (``metrics`` stripped: it is the telemetry
snapshot, not the figure), the serve/cluster JSON on stdout, or the
report HTML.  Outputs must be byte-identical across rounds, match the
recorded sha256 at the recorded seed, and keep the paper's shape.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

WORKLOADS = ("fig13", "fig15", "serve-zoo", "cluster-1e6")
SERVING = ("serve-zoo", "cluster-1e6")
SCENARIOS = ("default", "secure-heavy", "nlp-mix", "burst")
MECHANISMS = ("snpu", "partition", "flush-tile")

#: Counters read from ``<exp>.metrics.json``; ``#N`` instance suffixes
#: (one per simulator object) are summed.
COUNTERS = (
    "npu.core.layers_run", "mmu.iommu.page_walks", "mmu.iommu.iotlb_hits",
    "mmu.iommu.iotlb_misses", "mmu.guarder.checks",
    "sim.fastpath.fast_layers", "sim.fastpath.fallbacks",
)


@dataclass(frozen=True)
class Leg:
    """One CLI invocation of a workload round."""

    #: Stable id: the request id of the leg's spans and its digest key.
    name: str
    argv: Tuple[str, ...]
    #: Output files; empty means the output is stdout.
    files: Tuple[str, ...] = ()
    #: The experiment's telemetry snapshot, for the per-layer counts.
    metrics: str = ""


def legs(workload: str, seed: int, round_dir: str) -> List[Leg]:
    """The legs of one round of *workload*, writing under *round_dir*.

    The figure experiments take no seed (each derives its own from the
    experiment id), so *seed* only varies the serving workloads.
    """
    if workload in ("fig13", "fig15"):
        out = os.path.join(round_dir, "out")
        parts = ("fig13a", "fig13b") if workload == "fig13" else ("fig15",)
        return [Leg(
            workload,
            ("experiments", workload, "--profile", "eval", "--no-cache",
             "--outdir", out),
            tuple(os.path.join(out, f"{part}.json") for part in parts),
            os.path.join(out, f"{workload}.metrics.json"),
        )]
    seed_args = ("--seed", str(seed), "--format", "json")
    if workload == "serve-zoo":
        report = os.path.join(round_dir, "report.html")
        return [
            Leg(f"serve-zoo/{scenario}/{mechanism}",
                ("serve", scenario, "--mechanism", mechanism) + seed_args)
            for scenario in SCENARIOS for mechanism in MECHANISMS
        ] + [Leg("serve-zoo/report", ("report", "-o", report), (report,))]
    if workload == "cluster-1e6":
        return [
            Leg(f"cluster-1e6/{mechanism}",
                ("serve", "default", "--workers", "8", "--requests", "1e6",
                 "--mechanism", mechanism) + seed_args)
            for mechanism in MECHANISMS
        ]
    raise KeyError(workload)


def read_output(leg: Leg, stdout: bytes) -> bytes:
    """The bytes a leg is judged by (raises OSError/ValueError if absent)."""
    if not leg.files:
        return stdout
    if not leg.files[0].endswith(".json"):
        with open(leg.files[0], "rb") as fh:
            return fh.read()
    results = []
    for path in leg.files:
        with open(path) as fh:
            payload = json.load(fh)
        payload.pop("metrics", None)
        results.append(payload)
    return json.dumps(results, indent=1, sort_keys=True).encode()


def read_counts(leg: Leg, output: bytes) -> Dict[str, float]:
    """Exact counts a leg's outputs already carry."""
    counts = dict.fromkeys(COUNTERS, 0)
    if leg.metrics:
        with open(leg.metrics) as fh:
            snapshot = json.load(fh)
        for key, value in snapshot.items():
            base = re.sub(r"#\d+", "", key)
            if base in counts:
                counts[base] += value
    elif leg.argv[0] == "serve":
        payload = json.loads(output)
        # Detailed-simulated requests only: a cluster's requests_total
        # is mostly fluid accounting.
        counts["serving.requests"] = payload.get(
            "requests_detailed", payload.get("completed")
        )
        counts["serving.recon_checks"] = len(payload.get("reconciliation", ()))
    return counts


# ----------------------------------------------------------------------
# Paper-shape checks
# ----------------------------------------------------------------------
def fig13_ok(results: List[dict]) -> bool:
    """(a) the Guarder is 1.0 and no IOTLB size beats it; (b) it needs
    fewer translation requests than the per-packet IOMMU."""
    perf, reqs = results
    return all(
        row["guarder"] == 1.0
        and all(row[c] <= 1.0 for c in perf["columns"] if c.startswith("iotlb-"))
        for row in perf["rows"]
    ) and all(
        row["guarder_requests"] < row["iommu_requests"] for row in reqs["rows"]
    )


def fig15_ok(results: List[dict]) -> bool:
    """Per pair, the dynamic total is no worse than every static split."""
    totals: Dict[str, Dict[str, List[float]]] = {}
    for row in results[0]["rows"]:
        kind = "dynamic" if row["policy"].startswith("dynamic") else "partition"
        totals.setdefault(row["pair"], {}).setdefault(kind, []).append(row["total"])
    return all(
        len(t.get("dynamic", ())) == 1 and t.get("partition")
        and t["dynamic"][0] <= min(t["partition"])
        for t in totals.values()
    )


def flush_tail_worst(reports: Dict[str, dict]) -> bool:
    """The pooled p99 of flush-tile is no better than snpu's or
    partition's (ties allowed): temporal sharing pays the tail.

    The per-tenant ordering snpu <= partition <= flush-tile is not
    checked: over seeds 0-19 it fails in 16 of 40 single-NPU and
    cluster runs, by up to 5 %, within the sampling noise of a p99 set
    by a handful of requests (see README.md).
    """
    p99 = [reports[m]["aggregate"]["p99_ms"] for m in MECHANISMS]
    return None not in p99 and max(p99[0], p99[1]) <= p99[2]


def shape_failures(workload: str, outputs: Dict[str, bytes]) -> Set[str]:
    """Names of the legs whose outputs break the paper's shape."""
    if workload in ("fig13", "fig15"):
        ok = fig13_ok if workload == "fig13" else fig15_ok
        output = outputs.get(workload)
        return set() if output is not None and ok(json.loads(output)) \
            else {workload}
    prefix = "serve-zoo/default/" if workload == "serve-zoo" else "cluster-1e6/"
    names = {m: prefix + m for m in MECHANISMS}
    if all(name in outputs for name in names.values()) and flush_tail_worst(
        {m: json.loads(outputs[name]) for m, name in names.items()}
    ):
        return set()
    return set(names.values())
