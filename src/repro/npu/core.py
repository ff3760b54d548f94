"""A single NPU core executing op schedules.

Two timing paths produce the figures:

* :meth:`NPUCore.run_analytic` — folds each layer's uniform block math
  through the double-buffered pipeline model.  Exact for stall-free
  controllers (Guarder / NoProtection), and fast enough to sweep budgets
  and granularities (Figs. 1, 14, 15, 17).
* :meth:`NPUCore.run_detailed` — walks every tile iteration and pushes
  every DMA request through the access controller, so IOTLB hits/misses
  and page walks emerge from the actual page-touch sequence (Fig. 13).
  Layers that :mod:`repro.sim.fastpath` proves contention-free are
  replayed from their schedule instead, bit-identically.  With
  ``functional=True`` it also moves real bytes, which the security
  tests rely on.  :func:`run_sweep` runs one program under several
  cores (one per controller) layer by layer, so each layer's schedule
  is folded once for all of them; ``run_detailed`` is its one-core case.

A consistency test asserts the two paths agree under the Guarder.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro import telemetry
from repro.common.types import CheckStats, World
from repro.errors import ConfigError, PrivilegeError
from repro.memory.dram import DRAMModel
from repro.mmu.base import AccessController
from repro.npu.config import NPUConfig
from repro.npu.dma import DMAEngine
from repro.npu.isa import LayerSchedule, NPUProgram
from repro.npu.scratchpad import Scratchpad, SpadIsolationMode
from repro.npu.systolic import SystolicArray
from repro.sim import fastpath as _fastpath

#: Supported flush granularities of the TrustZone-NPU baseline (Fig. 14).
FLUSH_GRANULARITIES = ("tile", "layer", "layer5")


@dataclass
class LayerResult:
    """Per-layer timing outcome."""

    name: str
    index: int
    cycles: float
    load_bytes: float
    store_bytes: float
    compute_cycles: float
    macs: int
    flush_cycles: float = 0.0

    @property
    def dma_bytes(self) -> float:
        return self.load_bytes + self.store_bytes


@dataclass
class RunResult:
    """End-to-end outcome of executing one program on one core."""

    task_name: str
    cycles: float
    macs: int
    layers: List[LayerResult]
    peak_macs_per_cycle: int
    check_stats: CheckStats = field(default_factory=CheckStats)
    flush_overhead_cycles: float = 0.0
    dma_requests: int = 0
    dma_packets: int = 0

    @property
    def utilization(self) -> float:
        """Fraction of peak MAC throughput achieved (Fig. 1)."""
        if self.cycles <= 0:
            return 0.0
        return self.macs / (self.peak_macs_per_cycle * self.cycles)

    @property
    def dma_bytes(self) -> float:
        return sum(layer.dma_bytes for layer in self.layers)

    def normalized_to(self, baseline: "RunResult") -> float:
        """Normalized performance vs *baseline* (1.0 = same speed)."""
        if self.cycles <= 0:
            return 0.0
        return baseline.cycles / self.cycles


class NPUCore:
    """One Gemmini-style accelerator tile."""

    def __init__(
        self,
        config: NPUConfig,
        controller: AccessController,
        dram: DRAMModel,
        core_id: int = 0,
        spad_mode: SpadIsolationMode = SpadIsolationMode.NONE,
        functional: bool = False,
    ):
        self.config = config
        self.controller = controller
        self.dram = dram
        self.core_id = core_id
        self._world = World.NORMAL
        self.systolic = SystolicArray(config)
        self.scratchpad = Scratchpad(
            config.spad_lines, config.spad_line_bytes, mode=spad_mode
        )
        self.accumulator = Scratchpad(
            config.acc_lines, config.acc_line_bytes, mode=spad_mode
        )
        self.dma = DMAEngine(
            config,
            controller,
            dram,
            scratchpad=self.scratchpad,
            accumulator=self.accumulator,
            functional=functional,
        )
        #: Attached adversary (see :mod:`repro.security.attacks`); any
        #: non-None value routes detailed runs off the analytic fast path.
        self.attacker = None
        tel = telemetry.metrics.group("npu.core")
        self._m_layers = tel.counter("layers_run")
        self._m_cycles = tel.gauge("cycles_total")
        self._m_flush = tel.gauge("flush_cycles_total")
        self._h_layer = tel.histogram("layer_cycles")
        self._track = f"core{core_id}"
        #: Layer spans' timebase: cumulative cycles across runs on this core.
        self._cursor = 0.0

    def _record_layer(self, name: str, cycles: float, flush_cycles: float) -> None:
        """Telemetry for one finished layer (span + counters)."""
        self._m_layers.inc()
        self._m_cycles.add(cycles)
        self._m_flush.add(flush_cycles)
        self._h_layer.observe(cycles)
        tracer = telemetry.tracer
        if tracer.enabled:
            tracer.span(
                name, "core", ts=self._cursor, dur=cycles, track=self._track
            )
            if flush_cycles > 0:
                tracer.span(
                    "flush", "flush", ts=self._cursor + cycles - flush_cycles,
                    dur=flush_cycles, track=self._track,
                )
        self._cursor += cycles

    # ------------------------------------------------------------------
    # Secure world state (the core's ID bit, §IV-B)
    # ------------------------------------------------------------------
    @property
    def world(self) -> World:
        return self._world

    def set_world(self, world: World, issuer: World) -> None:
        """Secure instruction: set the core's ID state.

        Only the secure world (the NPU Monitor's context setter) may issue
        it; the untrusted driver attempting this raises
        :class:`~repro.errors.PrivilegeError`.
        """
        if issuer is not World.SECURE:
            audit = telemetry.audit
            if audit.enabled:
                audit.record(
                    "privilege.deny", "deny", world=issuer.name,
                    op="core.set_world", core=self.core_id,
                )
            raise PrivilegeError(
                "set_world is a secure instruction; the normal-world driver "
                "cannot change the NPU core's ID state"
            )
        self._world = world

    # ------------------------------------------------------------------
    # Analytic timing path
    # ------------------------------------------------------------------
    def _boundary_parts(
        self, layer: LayerSchedule, share: float
    ) -> tuple:
        """(scrub, context_switch, refetch) cycles of one flush boundary.

        scrub of the used lines + fixed driver/control overhead + re-fetch
        of any scratchpad-resident data the schedule relied on.  Split out
        so the cycle profiler can attribute each component separately.
        """
        scrub = self.config.scrub_cycles(layer.spad_lines_used)
        refetch = (
            self.dram.transfer_cycles(layer.resident_bytes, share)
            if layer.resident_bytes
            else 0.0
        )
        return scrub, self.config.context_switch_cycles, refetch

    def _boundary_cost(self, layer: LayerSchedule, share: float) -> float:
        """Cycles of one flush context switch at a preemption boundary."""
        scrub, ctx, refetch = self._boundary_parts(layer, share)
        return scrub + ctx + refetch

    def _layer_cycles_analytic(
        self,
        layer: LayerSchedule,
        share: float,
        flush: Optional[str],
        spad_mode_overhead: float = 0.0,
    ) -> tuple:
        """Return (total_cycles, flush_cycles, info) for one layer.

        *info* carries the profiler's side-channel observations: total DMA
        busy cycles, descriptor-issue cycles, total compute cycles and the
        number of flush boundaries charged — everything the attribution
        and overlap-efficiency reports need without re-deriving the
        pipeline math.
        """
        iters = layer.n_iterations
        blocks = max(layer.n_blocks, 1)
        issue = DMAEngine.ISSUE_CYCLES
        load = (
            (layer.n_load_requests / iters) * issue
            + self.dram.transfer_cycles(layer.load_bytes_per_iter, share)
        )
        # Output blocks drain once per accumulation (end_of_block), not per
        # iteration - mirror the detailed path's block-granular stores.
        store_block = (
            (layer.n_store_requests / blocks) * issue
            + self.dram.transfer_cycles(layer.store_bytes / blocks, share)
        )
        compute = layer.compute_cycles_per_iter + spad_mode_overhead
        slot = max(load, compute)
        slot_store = max(load, compute, store_block)
        info = {
            "dma_busy": iters * load + blocks * store_block,
            "issue_cycles": (
                (layer.n_load_requests + layer.n_store_requests) * issue
            ),
            "compute_busy": iters * compute,
            "boundaries": 0,
        }

        if flush == "tile":
            # Each output block is its own pipeline segment followed by a
            # full context switch.
            iters_per_quantum = iters / blocks
            segment = (
                max(iters_per_quantum - 1, 0) * slot
                + slot_store
                + load
                + store_block
            )
            boundary = self._boundary_cost(layer, share)
            total = blocks * (segment + boundary)
            info["boundaries"] = blocks
            return total, blocks * boundary, info
        # One pipeline segment for the whole layer.
        total = (
            (iters - blocks) * slot + blocks * slot_store + load + store_block
        )
        if flush == "layer":
            boundary = self._boundary_cost(layer, share)
            info["boundaries"] = 1
            return total + boundary, boundary, info
        return total, 0.0, info

    def run_analytic(
        self,
        program: NPUProgram,
        share: float = 1.0,
        flush: Optional[str] = None,
    ) -> RunResult:
        """Fast timing over the layer summaries (no controller involved).

        ``flush`` ∈ {None, "tile", "layer", "layer5"} charges the flush
        baseline's context-switch costs at the corresponding boundaries.
        """
        if flush is not None and flush not in FLUSH_GRANULARITIES:
            raise ConfigError(f"unknown flush granularity {flush!r}")
        profiler = telemetry.profiler
        prof = profiler.begin_run(program.task_name, "analytic")
        layers: List[LayerResult] = []
        total = 0.0
        flush_total = 0.0
        for i, layer in enumerate(program.layers):
            per_layer_flush = flush if flush != "layer5" else None
            cycles, fcycles, info = self._layer_cycles_analytic(
                layer, share, per_layer_flush
            )
            if flush == "layer5" and (i + 1) % 5 == 0:
                boundary = self._boundary_cost(layer, share)
                cycles += boundary
                fcycles += boundary
                info["boundaries"] += 1
            if prof is not None:
                scrub, ctx, refetch = self._boundary_parts(layer, share)
                n_bound = info["boundaries"]
                profiler.layer(
                    layer.name,
                    layer.index,
                    cycles,
                    [
                        ("flush.scrub", n_bound * scrub),
                        ("flush.context_switch", n_bound * ctx),
                        ("flush.refetch", n_bound * refetch),
                        ("pe.compute", info["compute_busy"]),
                        ("dma.issue", info["issue_cycles"]),
                    ],
                    residual="dma.transfer",
                    stats={
                        "dma_busy": info["dma_busy"],
                        "compute_busy": info["compute_busy"],
                        "macs": float(layer.macs),
                        "page_walks": 0.0,
                    },
                    run=prof,
                )
            layers.append(
                LayerResult(
                    name=layer.name,
                    index=layer.index,
                    cycles=cycles,
                    load_bytes=layer.load_bytes,
                    store_bytes=layer.store_bytes,
                    compute_cycles=layer.compute_cycles,
                    macs=layer.macs,
                    flush_cycles=fcycles,
                )
            )
            total += cycles
            flush_total += fcycles
            self._record_layer(layer.name, cycles, fcycles)
        if prof is not None:
            profiler.end_run(prof)
        return RunResult(
            task_name=program.task_name,
            cycles=total,
            macs=program.total_macs,
            layers=layers,
            peak_macs_per_cycle=self.config.peak_macs_per_cycle,
            flush_overhead_cycles=flush_total,
        )

    # ------------------------------------------------------------------
    # Detailed timing path
    # ------------------------------------------------------------------
    def _functional_compute(self, iteration) -> None:
        """Model the compute stage's scratchpad traffic in functional mode.

        The systolic array reads the freshly loaded operand lines and
        writes the (placeholder) result into the accumulator lines the
        upcoming store will drain — exercising the scratchpad's isolation
        rules exactly where the hardware would.
        """
        import numpy as np

        world = self._world
        for transfer in iteration.loads:
            spad = (
                self.accumulator if transfer.to_accumulator else self.scratchpad
            )
            lines = min(transfer.lines, spad.lines - transfer.spad_line)
            if lines > 0:
                spad.read(transfer.spad_line, lines, world)
        for transfer in iteration.stores:
            spad = (
                self.accumulator if transfer.to_accumulator else self.scratchpad
            )
            lines = min(transfer.lines, spad.lines - transfer.spad_line)
            if lines > 0:
                result = np.full(
                    (lines, spad.line_bytes), 0x42, dtype=np.uint8
                )
                spad.write(transfer.spad_line, result, world)

    def run_detailed(
        self,
        program: NPUProgram,
        share: float = 1.0,
        flush: Optional[str] = None,
    ) -> RunResult:
        """Walk every tile iteration through the DMA engine + controller
        (the one-core case of :func:`run_sweep`)."""
        return run_sweep([self], program, share, flush)[0]


class _DetailedRun:
    """One core's detailed run inside a sweep, advanced layer by layer."""

    def __init__(
        self, core: NPUCore, program: NPUProgram, share: float,
        flush: Optional[str],
    ):
        self.core = core
        self.program = program
        self.share = share
        self.flush = flush
        core.controller.reset_stats()
        core.dma.stats.reset()
        self.profiler = telemetry.profiler
        #: This run's profiler ledger (None while the profiler is off).
        self.prof = self.profiler.begin_run(program.task_name, "detailed")
        self.fast_run = _fastpath.begin_run(core, share, flush)
        self.layers: List[LayerResult] = []
        self.total = 0.0
        self.flush_total = 0.0

    def layer(self, i: int, shared: _fastpath.LayerFold) -> None:
        """Run layer *i* of the program, fast path first."""
        core = self.core
        share, flush = self.share, self.flush
        layer = shared.layer
        # Flow records born in this layer carry its name, which is what
        # the per-layer critical-path report groups by.
        core.dma.flow_context = layer.name
        profiling = self.prof is not None
        if profiling:
            # Baselines first: the replay below advances these counters.
            dma_stats, ctrl_stats = core.dma.stats, core.controller.stats
            stall0 = dma_stats.stall_cycles
            issue0 = dma_stats.issue_cycles
            crypto0 = dma_stats.crypto_cycles
            cursor0 = core.dma.cursor
            checks0 = ctrl_stats.checks
            walks0 = ctrl_stats.page_walks
        layer_cycles = 0.0
        layer_flush = 0.0
        seg_sum = 0.0
        seg_first_load = None
        seg_last_store = 0.0
        comp_sum = 0.0
        n_bound = 0
        fast_run = self.fast_run
        fast_res = fast_run.layer(shared) if fast_run is not None else None
        if fast_res is not None:
            # Analytic replay: segment state stays at init values, so the
            # post-loop/flush blocks below are no-ops (fast runs never
            # carry a flush granularity).
            layer_cycles, comp_sum = fast_res
        else:
            dma = core.dma
            for it in layer.iterations():
                load = sum(dma.execute(t, share) for t in it.loads)
                if dma.functional:
                    core._functional_compute(it)
                store = sum(dma.execute(t, share) for t in it.stores)
                compute = it.compute_cycles
                core.systolic.record(compute, it.macs)
                comp_sum += compute
                if seg_first_load is None:
                    seg_first_load = load
                seg_sum += max(load, compute, store)
                seg_last_store = store
                if flush == "tile" and it.end_of_block:
                    boundary = core._boundary_cost(layer, share)
                    layer_cycles += (
                        seg_sum + (seg_first_load or 0.0) + seg_last_store + boundary
                    )
                    layer_flush += boundary
                    n_bound += 1
                    seg_sum, seg_first_load, seg_last_store = 0.0, None, 0.0
        if seg_first_load is not None or seg_sum:
            layer_cycles += seg_sum + (seg_first_load or 0.0) + seg_last_store
        if flush == "layer" or (flush == "layer5" and (i + 1) % 5 == 0):
            boundary = core._boundary_cost(layer, share)
            layer_cycles += boundary
            layer_flush += boundary
            n_bound += 1
        if profiling:
            scrub, ctx, refetch = core._boundary_parts(layer, share)
            checks_delta = ctrl_stats.checks - checks0
            self.profiler.layer(
                layer.name,
                layer.index,
                layer_cycles,
                [
                    ("flush.scrub", n_bound * scrub),
                    ("flush.context_switch", n_bound * ctx),
                    ("flush.refetch", n_bound * refetch),
                    ("pe.compute", comp_sum),
                    ("dma.stall.iotlb", dma_stats.stall_cycles - stall0),
                    ("dma.stall.crypto", dma_stats.crypto_cycles - crypto0),
                    ("dma.issue", dma_stats.issue_cycles - issue0),
                    (
                        "guarder.check",
                        checks_delta * core.controller.CHECK_CYCLES,
                    ),
                ],
                residual="dma.transfer",
                stats={
                    "dma_busy": core.dma.cursor - cursor0,
                    "compute_busy": comp_sum,
                    "macs": float(layer.macs),
                    "page_walks": float(ctrl_stats.page_walks - walks0),
                    "checks": float(checks_delta),
                },
                run=self.prof,
            )
        self.layers.append(
            LayerResult(
                name=layer.name,
                index=layer.index,
                cycles=layer_cycles,
                load_bytes=layer.load_bytes,
                store_bytes=layer.store_bytes,
                compute_cycles=layer.compute_cycles,
                macs=layer.macs,
                flush_cycles=layer_flush,
            )
        )
        self.total += layer_cycles
        self.flush_total += layer_flush
        core._record_layer(layer.name, layer_cycles, layer_flush)

    def end(self) -> None:
        """Archive this run's profiler ledger (finished or not)."""
        if self.prof is not None:
            self.profiler.end_run(self.prof)

    def result(self) -> RunResult:
        core = self.core
        stats_copy = CheckStats()
        stats_copy.merge(core.controller.stats)
        return RunResult(
            task_name=self.program.task_name,
            cycles=self.total,
            macs=self.program.total_macs,
            layers=self.layers,
            peak_macs_per_cycle=core.config.peak_macs_per_cycle,
            check_stats=stats_copy,
            flush_overhead_cycles=self.flush_total,
            dma_requests=core.dma.stats.requests,
            dma_packets=core.dma.stats.packets,
        )


def run_sweep(
    cores: Sequence[NPUCore],
    program: NPUProgram,
    share: float = 1.0,
    flush: Optional[str] = None,
) -> List[RunResult]:
    """Run *program* on every core, layer by layer; one result per core.

    Each result equals what ``core.run_detailed(program, share, flush)``
    returns for the same fresh core, but the sweep walks the program
    once: the first core whose fast path needs a layer folds it, every
    core proves and replays that fold against its own controller, and
    the fold is dropped before the next layer.  Paging cores whose
    IOTLBs nest inside the deepest one share one LRU-stack walk of the
    layer's pages.  The cores must not share a controller.  A fault in
    any core ends the sweep with that core's exception; every profiler
    run it opened is archived first.
    """
    if flush is not None and flush not in FLUSH_GRANULARITIES:
        raise ConfigError(f"unknown flush granularity {flush!r}")
    if len({id(core.controller) for core in cores}) != len(cores):
        raise ConfigError("run_sweep needs one controller per core")
    runs: List[_DetailedRun] = []
    controllers = [core.controller for core in cores]
    try:
        for core in cores:
            runs.append(_DetailedRun(core, program, share, flush))
        for i, layer in enumerate(program.layers):
            # Rebinding drops the previous layer's fold before any core
            # can fold this one.  The deepest IOTLB is recorded before
            # any core replays the layer: every IOTLB on top of it shares
            # its stack walk.
            shared = _fastpath.LayerFold(
                layer, _fastpath.deepest_iotlb(controllers))
            for run in runs:
                run.layer(i, shared)
    finally:
        for run in runs:
            run.end()
    return [run.result() for run in runs]
