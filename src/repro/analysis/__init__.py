"""Static analyses: FLOPS utilization, FPGA resource cost, TCB accounting,
and the exact cross-run diagnosis."""

import importlib

#: Public name -> the module that defines it.  Loaded on first access
#: (PEP 562): the utilization report imports the driver and the
#: diagnosis engine the store layer, and ``repro report`` needs neither
#: of the first.
_EXPORTS = {
    "utilization_report": "repro.analysis.utilization",
    "UtilizationRow": "repro.analysis.utilization",
    "ResourceCost": "repro.analysis.hwcost",
    "baseline_npu_cost": "repro.analysis.hwcost",
    "snpu_extension_cost": "repro.analysis.hwcost",
    "iommu_cost": "repro.analysis.hwcost",
    "hardware_cost_report": "repro.analysis.hwcost",
    "tcb_report": "repro.analysis.tcb",
    "TCBComponent": "repro.analysis.tcb",
    "count_package_loc": "repro.analysis.tcb",
    "Diagnosis": "repro.analysis.diagnose",
    "DiagnosisPart": "repro.analysis.diagnose",
    "diagnose_profiles": "repro.analysis.diagnose",
    "diagnose_serve": "repro.analysis.diagnose",
    "diagnose_archived": "repro.analysis.diagnose",
    "diagnose_bench": "repro.analysis.diagnose",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
