"""Cold-process benchmark suite over the real ``repro`` CLI verbs.

    python3 benchmarks/suite/run.py [--seed N] [--out FILE] [--trace 0|1|FILE]
                                    [--seconds S] [--workload W ...] [WORKLOAD ...]

Each leg (one CLI verb) runs in a fresh Python process, and every round
gets a fresh ``REPRO_STORE``, ``REPRO_CACHE_DIR`` and output directory
with ``REPRO_FASTPATH`` removed, so every number is what a user pays
for a cold CLI run.  One client, closed loop: one leg process at a
time.  Untraced rounds interleave the workloads, rotating which goes
first; by default there are five, with ``--seconds S`` they repeat
until the next would end after S seconds (at least two).  Then, unless
``--trace 0``, one traced round wraps the layer callables (``leg.py``)
for per-layer self time; ``--trace FILE`` also writes its spans as a
Chrome trace (``--trace 1``: ``.bench_work/trace.json``).

Prints every metric by name with its unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics, or the per-layer ones when a traced round ran.  Metric names
carry a ``<workload>.`` prefix when more than one workload ran.
``--out FILE`` writes the two-section results file ``repro bench diff``
reads.  Exit 0 when every leg passed, 1 when a leg failed, 2 when the
harness itself could not measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import spans
from leg import LAYER_OF
from workloads import SERVING, WORKLOADS, Leg, legs, read_counts, \
    read_output, shape_failures

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(HERE, "digests.json")

ROUNDS = 5
MIN_ROUNDS = 2
LEG_TIMEOUT_S = 150

#: End-to-end metrics every workload reports (BENCHMARK.json's list).
E2E_METRICS = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
#: Reported only in the results file: throughput exists for the serving
#: workloads alone, and a healthy error rate is 0.
EXTRA_METRICS = (("sim_requests_per_sec", "req/s"), ("error_rate", "ratio"))
#: Per-layer metrics of the traced round (BENCHMARK.json's list).
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("experiments.self_s", "s"),
    ("driver.compiler.calls", "count"),
    ("driver.compiler.self_s", "s"),
    ("driver.scheduler.calls", "count"),
    ("driver.scheduler.self_s", "s"),
    ("driver.scheduler.hit_ratio", "ratio"),
    ("npu.core.analytic.calls", "count"),
    ("npu.core.analytic.self_s", "s"),
    ("npu.core.detailed.calls", "count"),
    ("npu.core.detailed.self_s", "s"),
    ("npu.core.detailed.layers", "count"),
    ("mmu.iommu.calls", "count"),
    ("mmu.iommu.self_s", "s"),
    ("mmu.iommu.page_walks", "count"),
    ("mmu.iommu.iotlb_hit_ratio", "ratio"),
    ("mmu.guarder.calls", "count"),
    ("mmu.guarder.self_s", "s"),
    ("mmu.guarder.checks", "count"),
    ("sim.fastpath.calls", "count"),
    ("sim.fastpath.self_s", "s"),
    ("sim.fastpath.fast_layers", "count"),
    ("sim.fastpath.fallbacks", "count"),
    ("serving.oracle.calls", "count"),
    ("serving.oracle.self_s", "s"),
    ("serving.oracle.hit_ratio", "ratio"),
    ("serving.queue.calls", "count"),
    ("serving.queue.self_s", "s"),
    ("serving.queue.requests", "count"),
    ("serving.queue.us_per_request", "us"),
    ("serving.cluster.self_s", "s"),
    ("serving.cluster.recon_checks", "count"),
    ("serving.report.self_s", "s"),
    ("store.ingest.calls", "count"),
    ("store.ingest.self_s", "s"),
    ("store.report.self_s", "s"),
    ("trace_overhead", "x"),
)
#: Units whose values repeat exactly run to run.
EXACT_UNITS = ("count", "ratio")


@dataclass
class LegRun:
    leg: Leg
    #: Exit code; None when the leg timed out or wrote no result.
    rc: Optional[int]
    wall_ns: int
    main_ns: int = 0
    maxrss_kb: int = 0
    output: Optional[bytes] = None
    counts: Dict[str, float] = field(default_factory=dict)
    spans: Optional[dict] = None


def leg_env(round_dir: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_FASTPATH", None)
    env["PYTHONPATH"] = SRC
    env["REPRO_STORE"] = os.path.join(round_dir, "runs.sqlite")
    env["REPRO_CACHE_DIR"] = os.path.join(round_dir, "cache")
    return env


def run_leg(leg: Leg, round_dir: str, index: int, traced: bool) -> LegRun:
    """Run one leg in a fresh process and collect what it left behind."""
    result_path = os.path.join(round_dir, f"leg{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "leg.py"), result_path,
           "1" if traced else "0", *leg.argv]
    started = time.perf_counter_ns()
    try:
        proc = subprocess.run(
            cmd, env=leg_env(round_dir), cwd=round_dir, capture_output=True,
            timeout=LEG_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return LegRun(leg, None, time.perf_counter_ns() - started)
    run = LegRun(leg, proc.returncode, time.perf_counter_ns() - started)
    try:
        with open(result_path) as fh:
            result = json.load(fh)
        run.output = read_output(leg, proc.stdout)
        run.counts = read_counts(leg, run.output)
    except (OSError, ValueError):
        run.rc = None
        return run
    run.main_ns = result["main_ns"]
    run.maxrss_kb = result["maxrss_kb"]
    run.spans = result["spans"]
    return run


def run_round(
    workload: str, seed: int, work: str, traced: bool = False
) -> List[LegRun]:
    round_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work)
    try:
        return [
            run_leg(leg, round_dir, index, traced)
            for index, leg in enumerate(legs(workload, seed, round_dir))
        ]
    finally:
        shutil.rmtree(round_dir, ignore_errors=True)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def failures(
    workload: str, rounds: List[List[LegRun]],
    digests: Optional[Dict[str, str]],
) -> List[int]:
    """Failed legs per round.

    A leg fails when it exits nonzero, when its output differs from its
    first round's, when *digests* (the recorded seed's sha256s, or None
    at other seeds) disagree with it, or when its workload's paper-shape
    check rejects it.
    """
    reference: Dict[str, bytes] = {}
    counts = []
    for runs in rounds:
        failed = set()
        outputs = {}
        for run in runs:
            name = run.leg.name
            if run.rc != 0 or run.output is None:
                failed.add(name)
                continue
            outputs[name] = run.output
            if run.output != reference.setdefault(name, run.output):
                failed.add(name)
            if digests is not None and digests.get(name) != sha256(run.output):
                failed.add(name)
        failed |= shape_failures(workload, outputs)
        counts.append(len(failed))
    return counts


def summarize(values: List[float]) -> Dict[str, float]:
    """Best (minimum), median, interquartile range and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"best": min(values), "median": statistics.median(values),
            "iqr": q3 - q1, "n": len(values)}


def round_samples(runs: List[LegRun]) -> Dict[str, float]:
    main_s = sum(run.main_ns for run in runs) / 1e9
    return {
        "wall_s": main_s,
        "setup_s": sum(run.wall_ns for run in runs) / 1e9 - main_s,
        "peak_rss_mb": statistics.mean(run.maxrss_kb for run in runs) / 1024,
    }


def end_to_end(
    workload: str, rounds: List[List[LegRun]]
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """The workload's end-to-end values and each timing's summary.

    ``wall_s`` and ``peak_rss_mb`` are best-of-rounds: noise on a shared
    host only ever slows a run.  ``setup_s`` is the median, which a
    single slow process start cannot move.
    """
    samples = [round_samples(runs) for runs in rounds]
    spread = {
        name: summarize([s[name] for s in samples]) for name, _ in E2E_METRICS
    }
    values = {
        "wall_s": spread["wall_s"]["best"],
        "setup_s": spread["setup_s"]["median"],
        "peak_rss_mb": spread["peak_rss_mb"]["best"],
    }
    if workload in SERVING:
        requests = sum(run.counts.get("serving.requests", 0)
                       for run in rounds[0])
        values["sim_requests_per_sec"] = requests / values["wall_s"]
    return values, spread


def per_layer(runs: List[LegRun], best_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one workload's traced round.

    Raises :class:`spans.HarnessError` when a leg's spans are
    inconsistent (see :func:`spans.check`).
    """
    totals: Dict[str, Dict[str, int]] = {}
    counts: Dict[str, float] = {}
    for run in runs:
        if run.spans is None:
            raise spans.HarnessError(f"{run.leg.name}: traced leg left no spans")
        own = spans.check(run.spans, run.leg.name)
        for layer, entry in spans.layer_totals(run.spans, own, LAYER_OF).items():
            for key, value in entry.items():
                totals.setdefault(layer, {}).setdefault(key, 0)
                totals[layer][key] += value
        for key, value in run.counts.items():
            counts[key] = counts.get(key, 0) + value

    def total(layer: str, key: str) -> int:
        return totals.get(layer, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: Dict[str, float] = {}
    for layer in set(LAYER_OF.values()):
        values[f"{layer}.calls"] = total(layer, "calls")
        values[f"{layer}.self_s"] = total(layer, "self_ns") / 1e9
        values[f"{layer}.hit_ratio"] = ratio(
            total(layer, "leaves"), total(layer, "calls"))
    hits = counts.get("mmu.iommu.iotlb_hits", 0)
    requests = counts.get("serving.requests", 0)
    values.update({
        "npu.core.detailed.layers": counts.get("npu.core.layers_run", 0),
        "mmu.iommu.page_walks": counts.get("mmu.iommu.page_walks", 0),
        "mmu.iommu.iotlb_hit_ratio": ratio(
            hits, hits + counts.get("mmu.iommu.iotlb_misses", 0)),
        "mmu.guarder.checks": counts.get("mmu.guarder.checks", 0),
        "sim.fastpath.fast_layers": counts.get("sim.fastpath.fast_layers", 0),
        "sim.fastpath.fallbacks": counts.get("sim.fastpath.fallbacks", 0),
        "serving.queue.requests": requests,
        "serving.queue.us_per_request": ratio(
            total("serving.queue", "self_ns") / 1e3, requests),
        "serving.cluster.recon_checks": counts.get("serving.recon_checks", 0),
        "trace_overhead": round_samples(runs)["wall_s"] / best_wall_s,
    })
    return {name: values[name] for name, _ in LAYER_METRICS}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Cold-process benchmark of the repro CLI verbs.")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(WORKLOADS)} (default: all)")
    parser.add_argument("--workload", action="append", default=[],
                        dest="more", metavar="WORKLOAD",
                        help="same as a positional WORKLOAD")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"time-box the untraced rounds (default: "
                             f"{ROUNDS} rounds)")
    parser.add_argument("--trace", default=None, metavar="0|1|FILE",
                        help="0: no traced round; FILE: write its Chrome "
                             "trace there")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the results file (repro bench diff)")
    args = parser.parse_args(argv)
    args.workloads = list(dict.fromkeys(args.workloads + args.more)) \
        or list(WORKLOADS)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}")
    return args


def untraced_rounds(
    args: argparse.Namespace, work: str
) -> Dict[str, List[List[LegRun]]]:
    rounds: Dict[str, List[List[LegRun]]] = {w: [] for w in args.workloads}
    started = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - started
        if args.seconds is None:
            if done == ROUNDS:
                break
        elif done >= MIN_ROUNDS and elapsed * (done + 1) / done > args.seconds:
            break
        shift = done % len(args.workloads)
        for workload in args.workloads[shift:] + args.workloads[:shift]:
            rounds[workload].append(run_round(workload, args.seed, work))
        done += 1
    return rounds


def traced_round(
    args: argparse.Namespace, work: str, trace_path: Optional[str]
) -> Dict[str, List[LegRun]]:
    trace = spans.ChromeTrace(trace_path, time.perf_counter_ns()) \
        if trace_path else None
    runs = {}
    try:
        for pid, workload in enumerate(args.workloads, start=1):
            runs[workload] = run_round(workload, args.seed, work, traced=True)
            if trace is None:
                continue
            trace.name_process(pid, workload)
            for tid, run in enumerate(runs[workload], start=1):
                if run.spans is not None:
                    trace.add_leg(run.spans, LAYER_OF, pid, tid, run.leg.name)
    finally:
        if trace is not None:
            trace.close()
    return runs


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    traced = args.trace != "0"
    trace_path = None
    if traced and args.trace is not None:
        trace_path = os.path.join(WORK_ROOT, "trace.json") \
            if args.trace == "1" else args.trace
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    digests = recorded["sha256"] if args.seed == recorded["seed"] else None

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        # Bytecode is compiled once per checkout, not on every user run.
        subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                       check=True, stdout=subprocess.DEVNULL)
        rounds = untraced_rounds(args, work)
        traced_runs = traced_round(args, work, trace_path) if traced else {}
        report = build_report(args, rounds, traced_runs, digests)
    except spans.HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace_path:
        print(f"trace written to {trace_path} (open with "
              "https://ui.perfetto.dev)", file=sys.stderr)
    if args.out:
        write_results(args, report)
    print_report(report)
    metrics = report["layers"] if traced else report["end_to_end"]
    prefix = len(args.workloads) > 1
    line = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            (f"{workload}.{name}" if prefix else name):
                {"value": value, "unit": report["units"][name]}
            for workload, values in metrics.items()
            for name, value in values.items()
        },
    }
    print(json.dumps(line, sort_keys=True))
    return 0 if report["failed"] == 0 else 1


def build_report(
    args: argparse.Namespace,
    rounds: Dict[str, List[List[LegRun]]],
    traced_runs: Dict[str, List[LegRun]],
    digests: Optional[Dict[str, str]],
) -> dict:
    report = {
        "rounds": len(rounds[args.workloads[0]]),
        "attempted": 0, "failed": 0,
        "end_to_end": {}, "extra": {}, "spread": {}, "layers": {},
        "outputs": {}, "digests_match": {},
        "units": dict(E2E_METRICS + EXTRA_METRICS + LAYER_METRICS),
    }
    for workload in args.workloads:
        all_rounds = rounds[workload] + (
            [traced_runs[workload]] if workload in traced_runs else [])
        failed = failures(workload, all_rounds, digests)
        attempted = sum(len(runs) for runs in all_rounds)
        report["attempted"] += attempted
        report["failed"] += sum(failed)
        values, spread = end_to_end(workload, rounds[workload])
        report["end_to_end"][workload] = {
            name: values[name] for name, _ in E2E_METRICS}
        report["extra"][workload] = {
            name: values[name] for name in ("sim_requests_per_sec",)
            if name in values}
        report["extra"][workload]["error_rate"] = sum(failed) / attempted
        report["spread"][workload] = spread
        if workload in traced_runs:
            report["layers"][workload] = per_layer(
                traced_runs[workload], values["wall_s"])
        report["outputs"].update({
            run.leg.name: sha256(run.output)
            for run in rounds[workload][0] if run.output is not None})
        if digests is not None:
            report["digests_match"][workload] = all(
                digests.get(run.leg.name) == sha256(run.output or b"")
                for run in rounds[workload][0])
    return report


def print_report(report: dict) -> None:
    print(f"{report['rounds']} untraced round(s); best / median / IQR "
          "over rounds")
    for workload, values in report["end_to_end"].items():
        print(f"\n{workload}")
        for name, value in {**values, **report["extra"][workload]}.items():
            unit = report["units"][name]
            line = f"  {name:<24} {value:>14.6g} {unit:<6}"
            spread = report["spread"][workload].get(name)
            if spread is not None:
                line += (f"  median {spread['median']:.6g}  IQR "
                         f"{spread['iqr']:.3g}  n={spread['n']}")
            print(line)
        for name, value in report["layers"].get(workload, {}).items():
            print(f"  {name:<32} {value:>14.6g} {report['units'][name]}")


def write_results(args: argparse.Namespace, report: dict) -> None:
    """The results file: exact values are gated bit for bit, host
    timings by ``--timing-tolerance``; spreads and traced self times
    ride along ungated."""
    sys.path[:0] = [SRC, os.path.join(ROOT, "benchmarks")]
    from _common import write_bench

    deterministic, timing, layers = {}, {}, {}
    for workload in args.workloads:
        for name, value in report["extra"][workload].items():
            (timing if name == "sim_requests_per_sec" else deterministic)[
                f"{workload}.{name}"] = value
        for name, value in report["end_to_end"][workload].items():
            timing[f"{workload}.{name}"] = value
        if workload in report["digests_match"]:
            deterministic[f"{workload}.digests_match"] = float(
                report["digests_match"][workload])
        for name, value in report["layers"].get(workload, {}).items():
            exact = report["units"][name] in EXACT_UNITS
            (deterministic if exact else layers)[f"{workload}.{name}"] = value
    write_bench("suite", {
        "benchmark": "cold-process CLI suite (benchmarks/suite)",
        "seed": args.seed,
        "rounds": report["rounds"],
        "workloads": args.workloads,
        "metrics": {"deterministic": deterministic, "timing": timing},
        "layers": layers,
        "spread": {
            f"{workload}.{name}": summary
            for workload, spread in report["spread"].items()
            for name, summary in spread.items()
        },
        "units": report["units"],
        "outputs": report["outputs"],
    }, out_path=args.out)


if __name__ == "__main__":
    sys.exit(main())
