"""One benchmark leg: a single ``repro`` CLI invocation in its own process.

    python benchmarks/suite/leg.py RESULT.json TRACED(0|1) VERB [ARGS ...]

Calls ``repro.cli.main(argv)``, exits with its code and writes
RESULT.json with the nanoseconds spent inside ``main`` (the parent times
the whole process, so the difference is interpreter start-up, imports
and teardown) and the process's peak RSS.  With TRACED=1 it first wraps
every callable in :data:`WRAPPED` from outside the program and adds the
recorded spans (see ``spans.py``).
"""

from __future__ import annotations

import importlib.abc
import importlib.util
import json
import resource
import sys
import time
from typing import Dict, List

from spans import Recorder

#: The root span: everything a leg does inside the CLI.
ROOT = ("cli", "repro.cli", "main")

#: ``(layer, module, attribute)`` of every wrapped callable.  A method
#: is patched on its class; a function is patched on its module and in
#: every loaded module that already imported it by name.
WRAPPED = (
    ("experiments", "repro.experiments.all", "run_one"),
    ("driver.compiler", "repro.driver.compiler", "TilingCompiler.compile"),
    ("driver.scheduler", "repro.driver.scheduler", "MultiTaskScheduler.run"),
    ("npu.core.analytic", "repro.npu.core", "NPUCore.run_analytic"),
    ("npu.core.detailed", "repro.npu.core", "NPUCore.run_detailed"),
    ("mmu.iommu", "repro.mmu.iommu", "IOMMU.handle"),
    ("mmu.iommu", "repro.mmu.smmu", "TrustZoneSMMU.handle"),
    ("mmu.guarder", "repro.mmu.guarder", "NPUGuarder.handle"),
    ("sim.fastpath", "repro.sim.fastpath", "FastRun.layer"),
    ("serving.oracle", "repro.serving.queueing", "RateOracle.pair"),
    ("serving.queue", "repro.serving.queueing", "ServeSimulator.run"),
    ("serving.cluster", "repro.serving.cluster", "ClusterSimulator.run"),
    ("serving.report", "repro.serving.report", "ServeReport.build"),
    ("serving.report", "repro.serving.report", "ServeReport.render"),
    ("serving.report", "repro.serving.cluster", "ClusterReport.render"),
    ("store.ingest", "repro.store", "ingest_quietly"),
    ("store.report", "repro.store.report", "build_report"),
)


def span_name(module: str, attr: str) -> str:
    return attr if "." in attr else f"{module}.{attr}"


#: Span name -> layer, for the parent's per-layer fold.
LAYER_OF = {
    span_name(module, attr): layer for layer, module, attr in (ROOT,) + WRAPPED
}


def _patch(recorder: Recorder, mod, attr: str) -> None:
    name = span_name(mod.__name__, attr)
    owner, _, fn_name = attr.rpartition(".")
    if owner:
        cls = getattr(mod, owner)
        raw = cls.__dict__[fn_name]
        if isinstance(raw, classmethod):
            setattr(cls, fn_name, classmethod(recorder.wrap(name, raw.__func__)))
        else:
            setattr(cls, fn_name, recorder.wrap(name, raw))
        return
    original = getattr(mod, fn_name)
    traced = recorder.wrap(name, original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__dict__", {}).get(fn_name) is original:
            setattr(loaded, fn_name, traced)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patches a wrapped module right after it first executes.

    The CLI imports most layers lazily inside ``main``; importing them
    up front would move that import time out of the traced ``main``
    and understate the tracing overhead.
    """

    def __init__(self, recorder: Recorder, pending: Dict[str, List[str]]):
        self.recorder = recorder
        self.pending = pending

    def find_spec(self, fullname, path=None, target=None):
        attrs = self.pending.pop(fullname, None)
        if attrs is None:
            return None
        spec = importlib.util.find_spec(fullname)
        execute = spec.loader.exec_module

        def exec_and_patch(module) -> None:
            execute(module)
            for attr in attrs:
                _patch(self.recorder, module, attr)

        spec.loader.exec_module = exec_and_patch
        return spec


def install(recorder: Recorder) -> None:
    """Wrap every callable of :data:`WRAPPED` and the root ``main``."""
    pending: Dict[str, List[str]] = {}
    for _, module, attr in (ROOT,) + WRAPPED:
        pending.setdefault(module, []).append(attr)
    for module in [m for m in pending if m in sys.modules]:
        for attr in pending.pop(module):
            _patch(recorder, sys.modules[module], attr)
    sys.meta_path.insert(0, _PatchOnImport(recorder, pending))


def main(argv) -> int:
    result_path, traced, cli_argv = argv[0], argv[1] == "1", argv[2:]
    import repro.cli

    recorder = Recorder() if traced else None
    if recorder is not None:
        install(recorder)
    started = time.perf_counter_ns()
    rc = repro.cli.main(cli_argv)
    main_ns = time.perf_counter_ns() - started
    sys.stdout.flush()
    with open(result_path, "w") as fh:
        json.dump({
            "main_ns": main_ns,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": recorder.to_json() if recorder is not None else None,
        }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
