"""The paper's evaluation claims (§VI), stated once as a table of rows.

Each :class:`Claim` names the experiment it reads (a registry id, or
``ablations`` for the design-choice sweeps below), quotes the words it
checks, measures one value from the experiment's result and states one
predicate over that value.  ``tests/integration/test_claims.py`` runs
every experiment once at each profile in :data:`repro.workloads.zoo.
PROFILES` and checks all of its rows.

A claim that the model does not reproduce at some profile is a known
deviation (EXPERIMENTS.md, "Known modelling deviations"): ``recorded``
maps that profile to the measured value, rounded by :func:`rounded`.
There the row passes only while the value still equals the record and
the predicate still fails, so it breaks if the deviation moves either way
or goes away.

Nothing on ``repro``'s import path imports this module.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro import telemetry
from repro.analysis.hwcost import baseline_npu_cost, multi_domain_spad_cost
from repro.driver.compiler import TilingCompiler
from repro.experiments.all import REGISTRY
from repro.experiments.fig13 import (
    DEFAULT_ENTRIES, _guarder_for_run, _identity_table,
)
from repro.memory.dram import DRAMModel
from repro.memory.encryption import MemoryEncryptionEngine
from repro.memory.l2cache import L2Cache
from repro.mmu.iommu import IOMMU
from repro.noc.mesh import Mesh
from repro.noc.network import WormholeNetwork
from repro.noc.router import NoCFabric, NoCPolicy
from repro.npu.config import NPUConfig
from repro.npu.core import NPUCore, run_sweep
from repro.workloads import zoo


@dataclass(frozen=True)
class Claim:
    """One checked statement about one experiment's result."""

    claim_id: str
    exp_id: str
    quote: str
    measure: Callable[[Any], Any]
    holds: Callable[[Any], bool]
    #: profile -> :func:`rounded` value of a known deviation.
    recorded: Mapping[str, Any] = field(default_factory=dict)


def rounded(value: Any) -> Any:
    """*value* with every float cut to four significant digits."""
    if isinstance(value, float):
        return float(f"{value:.4g}")
    if isinstance(value, (tuple, list)):
        return tuple(rounded(v) for v in value)
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    return value


def problem(claim: Claim, value: Any, profile: str) -> Optional[str]:
    """Why *claim* fails on the measured *value* at *profile*, or None."""
    if profile not in claim.recorded:
        return None if claim.holds(value) else "violated"
    record = claim.recorded[profile]
    if claim.holds(value):
        return f"recorded deviation {record!r} vanished: the claim now holds"
    if rounded(value) != record:
        return f"recorded deviation {record!r} moved"
    return None


def check(exp_id: str, profile: str, result: Any) -> List[str]:
    """One line per row of *exp_id* that *result* breaks at *profile*."""
    lines = []
    for claim in CLAIMS:
        if claim.exp_id != exp_id:
            continue
        value = claim.measure(result)
        why = problem(claim, value, profile)
        if why:
            lines.append(
                f"{claim.claim_id} [{why}] {claim.quote!r}: "
                f"measured {rounded(value)!r}"
            )
    return lines


def evaluate(exp_id: str, profile: str) -> Any:
    """Run *exp_id* once at *profile* under its own telemetry scope."""
    with telemetry.scoped(trace=False, profile=False):
        if exp_id == "ablations":
            return run_ablations(profile)
        return REGISTRY.get(exp_id).runner(profile)


# -- ablations: one design parameter swept per entry ---------------------

def run_ablations(profile: str = "eval") -> Dict[str, Any]:
    """Sweep the mechanism parameters DESIGN.md calls out.

    The CNN inputs follow *profile*; at ``tiny`` they are the 56x56
    resnet and yololite the sweeps were first written against.
    """
    config = NPUConfig.paper_default()
    models = {m.name: m for m in zoo.paper_models(profile)}
    compiler = TilingCompiler(config)
    dram = DRAMModel(config.dram_bytes_per_cycle)
    walk_cycles = (20, 80, 320)

    def guarded() -> NPUCore:
        return NPUCore(config, _guarder_for_run(), dram)

    resnet = compiler.compile(models["resnet"])
    base, *walks = run_sweep(
        [guarded()] + [
            NPUCore(config, IOMMU(_identity_table(resnet), 16, walk_cycles=w), dram)
            for w in walk_cycles
        ],
        resnet,
    )

    yolo = compiler.compile(models["yololite"])
    plain = guarded().run_detailed(yolo).cycles
    encrypted = guarded()
    encrypted.dma.encryption = MemoryEncryptionEngine(b"k" * 16, dram)
    cached = guarded()
    cached.dma.l2 = L2Cache()

    switch = {}
    for cost in (100, 500, 2000):
        cfg = config.with_(context_switch_cycles=cost)
        program = TilingCompiler(cfg).compile(models["yololite"])
        core = NPUCore(cfg, _guarder_for_run(), DRAMModel(cfg.dram_bytes_per_cycle))
        switch[cost] = (
            core.run_analytic(program).cycles
            / core.run_analytic(program, flush="tile").cycles
        )

    contention = []  # (plain, peephole) worst latency per flow count
    for flows in (1, 2, 4, 8):
        nets = [WormholeNetwork(Mesh(2, 5), peephole=p) for p in (False, True)]
        for net in nets:
            for _ in range(flows):
                net.transfer(0, 4, 4096)  # all share the row-0 links
        contention.append(tuple(max(o.latency for o in n.outcomes) for n in nets))

    spad_kbits = baseline_npu_cost(config).ram_kbits
    return {
        "walk-latency": {
            w: base.cycles / run.cycles for w, run in zip(walk_cycles, walks)
        },
        "register-demand": {
            name: len(compiler.compile(m).chunks) for name, m in models.items()
        },
        "domain-bits": {
            bits: multi_domain_spad_cost(config, bits).ram_kbits / spad_kbits
            for bits in (1, 2, 3, 4)
        },
        "encryption": encrypted.run_detailed(yolo).cycles / plain - 1.0,
        # (cycles without, cycles with, hit rate)
        "shared-l2": (plain, cached.run_detailed(yolo).cycles, cached.dma.l2.hit_rate),
        "context-switch": switch,
        "noc-contention": contention,
        # (unauthorized, peephole) cycles per (hop latency, destination)
        "noc-hop-latency": [
            tuple(
                NoCFabric(Mesh(2, 5), policy, hop).transfer(0, dst, 1024)
                for policy in (NoCPolicy.UNAUTHORIZED, NoCPolicy.PEEPHOLE)
            )
            for hop in (1, 2, 4) for dst in (1, 4, 9)
        ],
    }


# -- measures ------------------------------------------------------------

def _col(result, column: str) -> List[Any]:
    return [row[column] for row in result.rows]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _pairs(result, column: str, other: str) -> List[tuple]:
    return list(zip(_col(result, column), _col(result, other)))


def _is(expected: Any) -> Callable[[Any], bool]:
    return lambda value: value == expected


def _fig15_totals(result) -> Dict[str, Dict[str, float]]:
    """pair -> policy -> total, in the figure's row order."""
    totals: Dict[str, Dict[str, float]] = defaultdict(dict)
    for row in result.rows:
        totals[row["pair"]][row["policy"]] = row["total"]
    return totals


def _fig15_dynamic_gap(result) -> float:
    """Largest dynamic total minus the pair's best static total."""
    gaps = []
    for totals in _fig15_totals(result).values():
        static = [t for p, t in totals.items() if p.startswith("partition")]
        dynamic = [t for p, t in totals.items() if p.startswith("dynamic")]
        gaps.append(dynamic[0] - min(static))
    return max(gaps)


def _fig15_winners(result) -> tuple:
    """The static split with the lowest total, per pair."""
    winners = []
    for totals in _fig15_totals(result).values():
        static = {p: t for p, t in totals.items() if p.startswith("partition")}
        winners.append(min(static, key=static.get))
    return tuple(winners)


def _fig15_swing(result, pair: str) -> float:
    values = [
        r["nonsecure_task"] for r in result.rows
        if r["pair"] == pair and r["policy"].startswith("partition")
    ]
    return max(values) - min(values)


def _verdicts(mechanism: str) -> Callable[[Any], tuple]:
    """Table I's five verdicts for one mechanism."""
    def measure(result) -> tuple:
        row = result.row_for("mechanism", mechanism)
        return tuple(row[c] for c in (
            "temporal", "spatial", "utilization", "performance", "sla"))
    return measure


def _component(name: str, column: str) -> Callable[[Any], Any]:
    return lambda result: result.row_for("component", name)[column]


def _untrusted_ratio(result) -> float:
    untrusted = sum(
        row["loc"] for row in result.rows
        if row["trusted"] == "no" and row["component"].startswith("paper")
    )
    return untrusted / result.row_for("component", "paper: NPU Monitor (total)")["loc"]


def _repro_untrusted_ratio(result) -> float:
    untrusted = result.row_for(
        "component", "repro: driver+compiler+workloads (measured)")["loc"]
    return untrusted / result.row_for(
        "component", "repro: repro.monitor (measured)")["loc"]


#: Every checked claim, grouped by the experiment it reads.
CLAIMS: Sequence[Claim] = (
    # Fig. 1 -------------------------------------------------------------
    Claim("fig01/six-workloads", "fig01",
          "six different state-of-the-art DNN inference models",
          lambda r: len(r.rows), _is(6)),
    Claim("fig01/most-below-half", "fig01",
          "Most ML workloads utilize less than 50% of the computational resource",
          lambda r: sum(u < 0.5 for u in _col(r, "util_tpu_like")),
          lambda n: n >= 4),
    Claim("fig01/scale-up-lowers", "fig01",
          "the larger the NPU, the lower single-task utilization falls",
          lambda r: max(t - g for g, t in _pairs(r, "util_gemmini", "util_tpu_like")),
          lambda d: d <= 0.05),
    Claim("fig01/utilization-range", "fig01", "utilization is a fraction of peak",
          lambda r: _col(r, "util_gemmini") + _col(r, "util_tpu_like"),
          lambda us: all(0 < u <= 1 for u in us)),
    # Fig. 13: r is (fig13a, fig13b) ------------------------------------
    Claim("fig13a/guarder-free", "fig13", "the Guarder has no performance loss",
          lambda r: _col(r[0], "guarder"), lambda gs: all(g == 1.0 for g in gs)),
    Claim("fig13a/more-entries-help", "fig13",
          "the IOMMU's loss shrinks as the IOTLB grows",
          lambda r: [[row[f"iotlb-{e}"] for e in DEFAULT_ENTRIES] for row in r[0].rows],
          lambda rows: all(
              a <= b + 1e-9 for row in rows for a, b in zip(row, row[1:]))),
    Claim("fig13a/iotlb4-mean", "fig13",
          "with four entries the loss will be up to nearly 20%",
          lambda r: _mean(_col(r[0], "iotlb-4")), lambda m: 0.72 <= m <= 0.92),
    Claim("fig13a/iotlb32-mean", "fig13",
          "nearly 10% ... even with 32 IOTLB entries",
          lambda r: _mean(_col(r[0], "iotlb-32")), lambda m: 0.78 <= m <= 0.95),
    Claim("fig13a/iotlb4-floor", "fig13",
          "up to nearly 20%: no workload loses 40%",
          lambda r: min(_col(r[0], "iotlb-4")), lambda m: m >= 0.60),
    Claim("fig13b/request-ratio", "fig13",
          "approximately 5% of the translation requests compared to IOMMU",
          lambda r: _mean(_col(r[1], "ratio")), lambda m: m <= 0.10),
    Claim("fig13b/fewer-requests", "fig13",
          "every workload needs fewer Guarder requests than IOMMU requests",
          lambda r: max(g - i for g, i in
                        _pairs(r[1], "guarder_requests", "iommu_requests")),
          lambda d: d < 0),
    # §VI-B energy -------------------------------------------------------
    Claim("fig13-energy/iommu-floor", "fig13-energy",
          "IOMMU checking costs at least 2% of transfer energy",
          lambda r: min(_col(r, "iommu_overhead")), lambda m: m >= 0.02),
    Claim("fig13-energy/iommu-ceiling", "fig13-energy", "as high as 10%",
          lambda r: max(_col(r, "iommu_overhead")), lambda m: m <= 0.20,
          recorded={"paper": 0.2035}),
    Claim("fig13-energy/guarder-negligible", "fig13-energy",
          "the Guarder's checking energy is negligible",
          lambda r: max(_col(r, "guarder_overhead")), lambda m: m < 0.005),
    Claim("fig13-energy/guarder-vs-iommu", "fig13-energy",
          "the Guarder is orders of magnitude below the IOMMU",
          lambda r: max(g / i for g, i in
                        _pairs(r, "guarder_overhead", "iommu_overhead")),
          lambda m: m < 1 / 50),
    # Fig. 14 ------------------------------------------------------------
    Claim("fig14/tile-mean", "fig14",
          "about 25% slowdown under the tile granularity",
          lambda r: _mean(_col(r, "tile")), lambda m: 0.70 <= m <= 0.88),
    Claim("fig14/finer-costs-more", "fig14",
          "finer flushing granularity costs more",
          lambda r: [(row["tile"], row["layer"], row["layer5"]) for row in r.rows],
          lambda rows: all(t < l <= l5 <= 1.0 for t, l, l5 in rows)),
    Claim("fig14/layer5-minor", "fig14",
          "coarse-grained flushing has minor overhead",
          lambda r: min(_col(r, "layer5")), lambda m: m >= 0.98),
    # Fig. 15 ------------------------------------------------------------
    Claim("fig15/policies", "fig15",
          "three pairs, each under three static splits and sNPU's dynamic",
          lambda r: [len(p) for p in _fig15_totals(r).values()], _is([4, 4, 4])),
    Claim("fig15/dynamic-best", "fig15",
          "dynamic allocation is never worse than a static split",
          _fig15_dynamic_gap, lambda d: d <= 1e-9),
    Claim("fig15/no-universal-split", "fig15",
          "no single static partition suits every pair of workloads",
          _fig15_winners, lambda winners: len(set(winners)) > 1,
          recorded={p: ("partition-0.5",) * 3 for p in zoo.PROFILES}),
    Claim("fig15/bert-swings", "fig15",
          "bert fluctuates violently; yololite is insensitive",
          lambda r: (_fig15_swing(r, "resnet/bert"),
                     _fig15_swing(r, "googlenet/yololite")),
          lambda s: s[0] > s[1]),
    # Fig. 16 ------------------------------------------------------------
    Claim("fig16/peephole-free", "fig16",
          "peephole has no performance loss compared to the unauthorized NoC",
          lambda r: _pairs(r, "peephole", "unauthorized"),
          lambda rows: all(p == u for p, u in rows)),
    Claim("fig16/software-slower", "fig16",
          "memory sharing is slower at every transfer size",
          lambda r: min(s - p for s, p in _pairs(r, "software", "peephole")),
          lambda d: d > 0),
    Claim("fig16/triple-bandwidth", "fig16",
          "nearly reduce latency by two-thirds, leading to a triple improvement",
          lambda r: r.row_for("lines", 256)["software_over_peephole"],
          lambda x: 2.3 <= x <= 3.8),
    Claim("fig16/small-transfers-worse", "fig16",
          "small transfers pay the memory round trip most",
          lambda r: (r.row_for("lines", 1)["software_over_peephole"],
                     r.row_for("lines", 256)["software_over_peephole"]),
          lambda s: s[0] > s[1]),
    # Fig. 17 ------------------------------------------------------------
    Claim("fig17/peephole-free", "fig17", "no loss versus the unauthorized NoC",
          lambda r: _col(r, "peephole"), lambda ps: all(p == 1.0 for p in ps)),
    Claim("fig17/software-loses", "fig17", "the software NoC always loses",
          lambda r: max(_col(r, "software")), lambda m: m < 1.0),
    Claim("fig17/software-mean", "fig17",
          "nearly 20% reduction in overall execution time",
          lambda r: _mean(_col(r, "software")), lambda m: 0.60 <= m <= 0.92),
    # Fig. 18 ------------------------------------------------------------
    Claim("fig18/spad-ram", "fig18",
          "only an additional 1% of RAM resources (S_Spad)",
          _component("S_Spad", "ram_pct"), lambda x: 0.2 < x < 1.5),
    Claim("fig18/snpu-luts", "fig18", "negligible impact on LUTs",
          _component("sNPU", "luts_pct"), lambda x: x < 5.0),
    Claim("fig18/snpu-ffs", "fig18", "negligible impact on ... FFs",
          _component("sNPU", "ffs_pct"), lambda x: x < 5.0),
    Claim("fig18/snpu-ram", "fig18", "the whole sNPU stays near 1% of RAM",
          _component("sNPU", "ram_pct"), lambda x: x < 1.5),
    Claim("fig18/iommu-larger", "fig18",
          "the TrustZone NPU's IOMMU consumes more resources",
          lambda r: [_component("IOMMU", m)(r) - _component("sNPU", m)(r)
                     for m in ("luts_pct", "ffs_pct", "ram_pct")],
          lambda ds: all(d > 0 for d in ds)),
    # Table I: temporal, spatial, utilization, performance, SLA ---------
    Claim("table1/partition", "table1", "partition: Yes Yes Low Low Good",
          _verdicts("partition"), _is(("Yes", "Yes", "Low", "Low", "Good"))),
    Claim("table1/flush-coarse", "table1",
          "flush (coarse-grained): Yes No Low Good Poor",
          _verdicts("flush (coarse-grained)"),
          _is(("Yes", "No", "Low", "Good", "Poor"))),
    Claim("table1/flush-fine", "table1",
          "flush (fine-grained): Yes No Low Low Good",
          _verdicts("flush (fine-grained)"),
          _is(("Yes", "No", "Low", "Low", "Good")),
          recorded={"paper": ("Yes", "No", "Low", "Low", "Poor")}),
    Claim("table1/snpu", "table1", "sNPU: Yes Yes High Good Good",
          _verdicts("sNPU"), _is(("Yes", "Yes", "High", "Good", "Good"))),
    # §VI-F TCB ----------------------------------------------------------
    Claim("tcb/paper-monitor", "tcb",
          "The NPU Monitor code consists of only 12,854 LoC",
          _component("paper: NPU Monitor (total)", "loc"), _is(12_854)),
    Claim("tcb/untrusted-ratio", "tcb",
          "the total TCB size for NPU Monitor is minor",
          _untrusted_ratio, lambda x: x > 50),
    Claim("tcb/repro-monitor", "tcb", "this repo's Monitor is small too",
          _component("repro: repro.monitor (measured)", "loc"),
          lambda n: n < 3000),
    Claim("tcb/repro-untrusted", "tcb",
          "the Monitor stays a small fraction of the stack in both the "
          "paper and this repo",
          _repro_untrusted_ratio, lambda x: x > 1),
    # Scratchpad sensitivity (the mechanism behind Fig. 15) -------------
    Claim("sensitivity/spread", "sensitivity",
          "Diverse workloads exhibit varying behaviors upon the size of scratchpads",
          lambda r: max(_col(r, "swing")) / min(_col(r, "swing")), lambda x: x > 3),
    Claim("sensitivity/bert-violent", "sensitivity",
          "the performance of alexnet and bert fluctuate violently",
          lambda r: r.row_for("workload", "bert")["swing"], lambda x: x > 1.0),
    Claim("sensitivity/starving-never-helps", "sensitivity",
          "1/8 of the scratchpad is never faster than all of it",
          lambda r: min(a - b for a, b in _pairs(r, "spad-0.125", "spad-1")),
          lambda d: d >= -1e-9),
    Claim("sensitivity/eighth-vs-quarter", "sensitivity",
          "1/8 of the scratchpad is no faster than 1/4 (within 0.02)",
          lambda r: min(a - b for a, b in _pairs(r, "spad-0.125", "spad-0.25")),
          lambda d: d >= -0.02),
    # Access paths (the Fig. 2 taxonomy) ---------------------------------
    Claim("access-paths/guarder-baseline", "access-paths",
          "the Guarder is the zero-cost path",
          lambda r: _col(r, "guarder"), lambda gs: all(g == 1.0 for g in gs)),
    Claim("access-paths/type1-loses", "access-paths",
          "the Type-1 IOMMU costs runtime",
          lambda r: max(_col(r, "type1_iommu")), lambda m: m < 1.0),
    Claim("access-paths/type2-costliest", "access-paths",
          "Type-2's staged system-DMA copy costs more than Type-1",
          lambda r: max(t2 - t1 for t1, t2 in _pairs(r, "type1_iommu", "type2_mmu")),
          lambda d: d < 0),
    Claim("access-paths/type3-loses", "access-paths",
          "the Type-3 CPU assist costs runtime",
          lambda r: max(_col(r, "type3_cpu")), lambda m: m < 1.0),
    Claim("access-paths/type2-mean", "access-paths",
          "staging roughly doubles the traffic",
          lambda r: _mean(_col(r, "type2_mmu")), lambda m: m < 0.7),
    Claim("access-paths/type3-mildest", "access-paths",
          "Type-3's CPU assist is milder than Type-1",
          lambda r: (_mean(_col(r, "type3_cpu")), _mean(_col(r, "type1_iommu"))),
          lambda m: m[0] > m[1]),
    # Ablations: a is run_ablations(profile) ----------------------------
    Claim("ablation/walk-latency-order", "ablations",
          "IOMMU loss scales with page-walk latency",
          lambda a: a["walk-latency"], lambda n: n[20] > n[80] > n[320]),
    Claim("ablation/cheap-walks", "ablations", "cheap walks nearly close the gap",
          lambda a: a["walk-latency"][20], lambda x: x > 0.9),
    Claim("ablation/expensive-walks", "ablations", "expensive walks blow it open",
          lambda a: a["walk-latency"][320], lambda x: x < 0.8),
    Claim("ablation/register-demand", "ablations",
          "a task needs at most 4 translation registers, so 8 fit two tasks",
          lambda a: max(a["register-demand"].values()), lambda n: n <= 4),
    Claim("ablation/domain-bits-grow", "ablations",
          "more ID bits cost more scratchpad RAM",
          lambda a: [a["domain-bits"][b] for b in (1, 2, 3, 4)],
          lambda o: o[0] < o[1] < o[2] < o[3]),
    Claim("ablation/domain-bits-linear", "ablations",
          "the RAM cost is linear in ID bits (within 1%)",
          lambda a: a["domain-bits"][2] / (2 * a["domain-bits"][1]),
          lambda x: abs(x - 1) <= 0.01),
    Claim("ablation/domain-bits-small", "ablations",
          "even 15 domains cost < 4% RAM",
          lambda a: a["domain-bits"][4], lambda x: x < 0.04),
    Claim("ablation/encryption", "ablations",
          "sNPU + memory encryption stays cheap (§VII)",
          lambda a: a["encryption"], lambda x: 0.0 < x < 0.30),
    Claim("ablation/context-switch", "ablations",
          "the tile-flush penalty scales with the switch cost",
          lambda a: a["context-switch"], lambda n: n[100] > n[500] > n[2000]),
    Claim("ablation/shared-l2-faster", "ablations",
          "the shared L2 captures cross-layer reuse",
          lambda a: a["shared-l2"][1] / a["shared-l2"][0], lambda x: x < 1.0),
    Claim("ablation/shared-l2-hit-rate", "ablations",
          "some accesses hit the L2, not all",
          lambda a: a["shared-l2"][2], lambda x: 0.0 < x < 1.0),
    Claim("ablation/contention-peephole-free", "ablations",
          "authentication is free even under contention",
          lambda a: a["noc-contention"], lambda rows: all(p == q for p, q in rows)),
    Claim("ablation/contention-grows", "ablations",
          "concurrent flows contend for mesh links",
          lambda a: [p for p, _ in a["noc-contention"]], lambda ls: ls == sorted(ls)),
    Claim("ablation/contention-serializes", "ablations",
          "a shared link serializes: 8 flows take over 4x one flow",
          lambda a: a["noc-contention"][-1][0] / a["noc-contention"][0][0],
          lambda x: x > 4),
    Claim("ablation/hop-latency-peephole-free", "ablations",
          "peephole == unauthorized at every hop latency and distance",
          lambda a: a["noc-hop-latency"], lambda rows: all(u == p for u, p in rows)),
)

#: Experiment ids the table reads, in table order.
EXPERIMENTS = tuple(dict.fromkeys(claim.exp_id for claim in CLAIMS))
