"""Fig. 13 — protected memory access: IOMMU (IOTLB-N) vs NPU Guarder.

(a) normalized end-to-end performance of the six workloads under each
    access-control mechanism (baseline = Guarder = unprotected speed),
(b) translation/check request counts: the Guarder translates once per DMA
    descriptor, the IOMMU once per 64-byte packet (paper: Guarder needs
    ~5 % of the IOMMU's requests).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro import telemetry
from repro.common.types import AddressRange, Permission, World
from repro.driver.compiler import TilingCompiler
from repro.experiments.runner import ExperimentResult
from repro.memory.dram import DRAMModel
from repro.memory.pagetable import PageTable
from repro.mmu.guarder import NPUGuarder
from repro.mmu.iommu import IOMMU
from repro.npu.config import NPUConfig
from repro.npu.core import NPUCore, run_sweep
from repro.workloads import zoo

DEFAULT_ENTRIES: Tuple[int, ...] = (4, 8, 16, 32)


def _guarder_for_run() -> NPUGuarder:
    """A Guarder with a single permissive platform mapping (performance
    runs exercise timing, not policy)."""
    guarder = NPUGuarder()
    guarder.set_checking_register(
        0, AddressRange(0, 1 << 40), Permission.RW, World.NORMAL,
        issuer=World.SECURE,
    )
    guarder.set_translation_register(0, vbase=0, pbase=0, size=1 << 40)
    return guarder


def _identity_table(program) -> PageTable:
    table = PageTable()
    for vrange in program.chunks.values():
        base = vrange.base & ~4095
        table.map_range(base, base, vrange.size + 8192)
    return table


def run(
    profile: str = "eval",
    entries: Sequence[int] = DEFAULT_ENTRIES,
    config: Optional[NPUConfig] = None,
) -> Tuple[ExperimentResult, ExperimentResult]:
    """Return (fig13a, fig13b)."""
    config = config or NPUConfig.paper_default()
    compiler = TilingCompiler(config)
    dram = DRAMModel(config.dram_bytes_per_cycle)

    perf = ExperimentResult(
        exp_id="fig13a",
        title="Normalized performance under different access control",
        columns=["workload", "guarder"] + [f"iotlb-{e}" for e in entries],
    )
    reqs = ExperimentResult(
        exp_id="fig13b",
        title="Translation requests: Guarder vs per-packet IOMMU",
        columns=["workload", "guarder_requests", "iommu_requests", "ratio"],
    )

    for model in zoo.paper_models(profile):
        program = compiler.compile(model)
        # One identity table per model: the IOMMU never mutates it, so the
        # per-entries runs can share it instead of rebuilding 4 copies.
        table = _identity_table(program)
        controllers = [_guarder_for_run()] + [
            IOMMU(table, iotlb_entries=n) for n in entries
        ]
        guarder_run, *iommu_runs = run_sweep(
            [NPUCore(config, ctrl, dram) for ctrl in controllers], program
        )

        row = {"workload": model.name, "guarder": 1.0}
        iommu_requests = 0
        for n, iommu_run in zip(entries, iommu_runs):
            row[f"iotlb-{n}"] = guarder_run.cycles / iommu_run.cycles
            iommu_requests = iommu_run.check_stats.translations
        perf.rows.append(row)
        reqs.add_row(
            workload=model.name,
            guarder_requests=guarder_run.check_stats.translations,
            iommu_requests=iommu_requests,
            ratio=guarder_run.check_stats.translations / iommu_requests,
        )

    means = {
        f"iotlb-{e}": sum(r[f"iotlb-{e}"] for r in perf.rows) / len(perf.rows)
        for e in entries
    }
    perf.notes.append(
        "means: "
        + ", ".join(f"{k}={v:.3f}" for k, v in means.items())
        + " (paper: ~0.80 with 4 entries, ~0.90 with 32; Guarder 1.0)"
    )
    mean_ratio = sum(r["ratio"] for r in reqs.rows) / len(reqs.rows)
    reqs.notes.append(
        f"mean request ratio {mean_ratio:.1%} (paper: ~5% of IOMMU requests)"
    )
    if telemetry.flows.enabled:
        # Per-request view of the same mechanism difference: the run's
        # DMA flows decompose into queueing/service/security exactly, and
        # the security share is where the IOMMU's walks land.
        from repro.analysis.flows import FlowReport

        report = FlowReport(telemetry.flows.records)
        perf.notes.append(
            f"flow tracing: {len(report.records)} DMA flows, security "
            f"share {float(report.security / report.total) if report.total else 0.0:.1%}, "
            f"slowest-decile security share "
            f"{report.decile_security_share():.1%}"
        )
    return perf, reqs


def run_energy(
    profile: str = "eval", config: Optional[NPUConfig] = None
) -> ExperimentResult:
    """Checking-energy companion to Fig. 13(b) (§VI-B's energy argument).

    Reports each mechanism's checking energy as a fraction of the DMA
    transfer energy (the paper: IOMMU "as high as 10%", Guarder
    negligible).
    """
    from repro.analysis.energy import guarder_energy, iommu_energy

    config = config or NPUConfig.paper_default()
    compiler = TilingCompiler(config)
    dram = DRAMModel(config.dram_bytes_per_cycle)
    result = ExperimentResult(
        exp_id="fig13-energy",
        title="Checking energy as a fraction of DMA transfer energy",
        columns=["workload", "iommu_overhead", "guarder_overhead"],
    )
    for model in zoo.paper_models(profile):
        program = compiler.compile(model)
        iommu = IOMMU(_identity_table(program), iotlb_entries=32)
        guarder_run, iommu_run = run_sweep(
            [NPUCore(config, _guarder_for_run(), dram),
             NPUCore(config, iommu, dram)],
            program,
        )
        result.add_row(
            workload=model.name,
            iommu_overhead=iommu_energy(
                iommu_run.check_stats, iommu_run.dma_bytes
            ).overhead,
            guarder_overhead=guarder_energy(
                guarder_run.check_stats, guarder_run.dma_bytes
            ).overhead,
        )
    mean_iommu = sum(r["iommu_overhead"] for r in result.rows) / len(result.rows)
    result.notes.append(
        f"mean IOMMU checking-energy overhead {mean_iommu:.1%} (paper: 'as "
        f"high as 10%'); Guarder is orders of magnitude below"
    )
    return result


if __name__ == "__main__":
    a, b = run()
    print(a)
    print()
    print(b)
    print()
    print(run_energy())
