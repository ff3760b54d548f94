"""sNPU: Trusted Execution Environments on Integrated NPUs (ISCA 2024).

A production-quality architectural-simulation reproduction of the paper's
system: a Gemmini-style integrated NPU with the sNPU security extensions
(NPU Guarder, NPU Isolator, NPU Monitor), the comparative baselines
(Normal NPU, TrustZone NPU), and a benchmark harness regenerating every
table and figure of the evaluation.

Quick start::

    from repro import SoC, SoCConfig
    from repro.workloads import zoo

    soc = SoC(SoCConfig(protection="snpu"))
    result = soc.run_model(zoo.mobilenet(112))
    print(f"{result.cycles:.0f} cycles, {result.utilization:.1%} of peak")
"""

import importlib

__version__ = "1.0.0"

#: Public name -> the module that defines it.  Loaded on first access
#: (PEP 562), so ``import repro`` costs nothing until a name is used and
#: a verb that never builds an SoC never imports one.
_EXPORTS = {
    "SoC": "repro.soc",
    "SoCConfig": "repro.soc",
    "TaskHandle": "repro.soc",
    "NPUConfig": "repro.npu.config",
    "NPUCore": "repro.npu.core",
    "RunResult": "repro.npu.core",
    "World": "repro.common.types",
    "Permission": "repro.common.types",
    "AddressRange": "repro.common.types",
    "DmaRequest": "repro.common.types",
    "errors": "repro.errors",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    module = importlib.import_module(_EXPORTS[name])
    # ``errors`` is a module; every other name is defined in its module.
    value = module if name == "errors" else getattr(module, name)
    globals()[name] = value
    return value
