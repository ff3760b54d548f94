"""Edge cases of the fast-path fallback predicate, and run isolation.

Every fallback scenario here must force the event simulator — observable
through the ``sim.fastpath.fallbacks`` counter (plus its per-reason
children) — while producing exactly the result the event path produces.
Covers flush-granularity runs, attacker-attached cores, world switches
mid-run, per-transfer telemetry collectors, functional data movement,
and unknown controller subclasses.  The fast path keeps no state across
``run_detailed`` calls: a repeated run equals the event run, a later
run re-proves the controller it is given, and no layer object gains an
attribute.  A sweep (``run_sweep``) folds each layer once for all its
cores, proves a page table its paging cores share once per layer, and
drops the fold before the next layer.
"""

from __future__ import annotations

import weakref

import pytest

from repro import telemetry
from repro.common.types import AddressRange, Permission, World
from repro.memory.dram import DRAMModel
from repro.mmu.base import NoProtection
from repro.mmu.guarder import NPUGuarder
from repro.npu.config import NPUConfig
from repro.npu.core import FLUSH_GRANULARITIES, NPUCore, run_sweep
from repro.sim import fastpath
from repro.workloads.synthetic import synthetic_cnn, synthetic_mlp


def _guarder() -> NPUGuarder:
    guarder = NPUGuarder()
    guarder.set_checking_register(
        0, AddressRange(0, 1 << 40), Permission.RW, World.NORMAL,
        issuer=World.SECURE,
    )
    guarder.set_translation_register(0, vbase=0, pbase=0, size=1 << 40)
    return guarder


def _counters(snapshot) -> dict:
    prefix = fastpath.GROUP_PREFIX + "."
    return {
        str(key)[len(prefix):]: value
        for key, value in snapshot.items()
        if str(key).startswith(prefix)
    }


def _run(program, config, *, controller=None, flush=None, share=1.0,
         attacker=False, functional=False, trace_buffer=False):
    with telemetry.scoped(trace=False) as scope:
        ctrl = controller if controller is not None else _guarder()
        core = NPUCore(
            config, ctrl, DRAMModel(config.dram_bytes_per_cycle),
            functional=functional,
        )
        if attacker:
            core.attacker = object()
        if trace_buffer:
            core.dma.trace = []
        result = core.run_detailed(program, share=share, flush=flush)
        snapshot = scope.metrics.snapshot()
    return result, _counters(snapshot)


def _event_run(program, config):
    """The reference: a clean Guarder run pinned to the event simulator."""
    with fastpath.forced(False):
        with telemetry.scoped(trace=False):
            core = NPUCore(
                config, _guarder(), DRAMModel(config.dram_bytes_per_cycle)
            )
            return core.run_detailed(program)


@pytest.mark.parametrize("flush", FLUSH_GRANULARITIES)
def test_flush_granularity_forces_event_path(flush, config, compiler):
    program = compiler.compile(synthetic_mlp())
    result, counters = _run(program, config, flush=flush)
    if flush != "layer5":  # mlp has < 5 layers: no layer5 boundary fires
        assert result.flush_overhead_cycles > 0
    assert counters.get("fast_layers", 0) == 0
    assert counters == {"fallbacks": 1, "fallbacks.flush": 1}


def test_attacker_attached_forces_event_path(config, compiler):
    program = compiler.compile(synthetic_mlp())
    _, counters = _run(program, config, attacker=True)
    assert counters == {"fallbacks": 1, "fallbacks.attacker": 1}


def test_attacker_run_matches_event_path_exactly(config, compiler):
    """An attacker-attached run must equal a fast-disabled run bit for
    bit (the attacker object itself performs no DMA here)."""
    program = compiler.compile(synthetic_mlp())
    with_attacker, _ = _run(program, config, attacker=True)
    assert with_attacker.cycles == _event_run(program, config).cycles


def test_functional_mode_forces_event_path(config, compiler):
    program = compiler.compile(synthetic_mlp())
    _, counters = _run(program, config, controller=NoProtection(),
                       functional=True)
    assert counters == {"fallbacks": 1, "fallbacks.functional": 1}


def test_dma_trace_buffer_forces_event_path(config, compiler):
    program = compiler.compile(synthetic_mlp())
    _, counters = _run(program, config, trace_buffer=True)
    assert counters == {"fallbacks": 1, "fallbacks.dma_trace": 1}


def test_nonpositive_share_forces_event_path(config, compiler):
    program = compiler.compile(synthetic_mlp())
    from repro.errors import ConfigError

    with telemetry.scoped(trace=False) as scope:
        core = NPUCore(
            config, _guarder(), DRAMModel(config.dram_bytes_per_cycle)
        )
        with pytest.raises(ConfigError):
            core.run_detailed(program, share=0.0)
        counters = _counters(scope.metrics.snapshot())
    assert counters == {"fallbacks": 1, "fallbacks.share": 1}


def test_tracer_enabled_forces_event_path(config, compiler):
    program = compiler.compile(synthetic_mlp())
    with telemetry.scoped(trace=True) as scope:
        core = NPUCore(
            config, _guarder(), DRAMModel(config.dram_bytes_per_cycle)
        )
        core.run_detailed(program)
        counters = _counters(scope.metrics.snapshot())
    assert counters == {"fallbacks": 1, "fallbacks.telemetry": 1}


def test_unknown_controller_subclass_forces_event_path(config, compiler):
    """Exact-type dispatch: a subclass may override handle() arbitrarily,
    so the analytic model must refuse to reason about it."""

    class CustomGuarder(NPUGuarder):
        pass

    ctrl = CustomGuarder()
    ctrl.set_checking_register(
        0, AddressRange(0, 1 << 40), Permission.RW, World.NORMAL,
        issuer=World.SECURE,
    )
    ctrl.set_translation_register(0, vbase=0, pbase=0, size=1 << 40)
    program = compiler.compile(synthetic_mlp())
    _, counters = _run(program, config, controller=ctrl)
    assert counters == {"fallbacks": 1, "fallbacks.controller": 1}


def test_world_switch_mid_run_forces_event_path(config, compiler):
    """A world switch after the run began (device handed to the other
    world mid-task) poisons every subsequent layer's eligibility."""
    from repro.memory.pagetable import PageTable
    from repro.mmu.smmu import TrustZoneSMMU

    program = compiler.compile(synthetic_mlp())
    table = PageTable()
    for rng in program.chunks.values():
        base = rng.base & ~0xFFF
        table.map_range(base, base, rng.size + 8192)
    smmu = TrustZoneSMMU(table, iotlb_entries=16)
    core = NPUCore(config, smmu, DRAMModel(config.dram_bytes_per_cycle))
    with telemetry.scoped(trace=False) as scope:
        fast_run = fastpath.begin_run(core, 1.0, None)
        assert fast_run is not None
        layer = program.layers[0]
        assert fast_run.layer(fastpath.LayerFold(layer)) is not None  # clean: runs fast
        smmu.switch_world(World.SECURE)
        smmu.switch_world(World.NORMAL)  # back, but switches advanced
        assert fast_run.layer(fastpath.LayerFold(layer)) is None
        counters = _counters(scope.metrics.snapshot())
    assert counters.get("fallbacks.world_switch", 0) == 1
    assert counters.get("fast_layers", 0) == 1


def test_secure_task_on_normal_device_falls_back(config, compiler):
    """fold.worlds != {device_world}: the analytic model refuses, and the
    event path raises the architectural violation."""
    from repro.memory.pagetable import PageTable
    from repro.mmu.smmu import TrustZoneSMMU

    program = compiler.compile(synthetic_mlp(), world=World.SECURE)
    table = PageTable()
    for rng in program.chunks.values():
        base = rng.base & ~0xFFF
        table.map_range(base, base, rng.size + 8192,
                        world=World.SECURE)
    smmu = TrustZoneSMMU(table, iotlb_entries=16)  # device world: NORMAL
    core = NPUCore(config, smmu, DRAMModel(config.dram_bytes_per_cycle))
    with telemetry.scoped(trace=False) as scope:
        with pytest.raises(Exception):
            core.run_detailed(program)
        counters = _counters(scope.metrics.snapshot())
    assert counters.get("fallbacks.world_switch", 0) >= 1
    assert counters.get("fast_layers", 0) == 0


def test_repeated_fast_run_is_bit_identical(config, compiler):
    """Running one program twice takes the fast path on every layer both
    times, and the second run's timing is bit-identical to the first."""
    program = compiler.compile(synthetic_mlp())
    first, first_counts = _run(program, config)
    second, second_counts = _run(program, config)
    n_layers = len(program.layers)
    assert first_counts == second_counts == {"fast_layers": n_layers}
    assert second.cycles == first.cycles
    assert [lay.cycles for lay in second.layers] == [
        lay.cycles for lay in first.layers
    ]


def test_repeated_fast_run_equals_event_run(config, compiler):
    """A repeated fast run equals the event simulator layer by layer."""
    program = compiler.compile(synthetic_mlp())
    _run(program, config)
    repeated, _ = _run(program, config)
    event = _event_run(program, config)
    assert repeated.cycles == event.cycles
    assert [lay.cycles for lay in repeated.layers] == [
        lay.cycles for lay in event.layers
    ]


def test_guarder_that_now_denies_falls_back(config, compiler):
    """A clean fast run proves nothing about the next run's Guarder: a
    later run whose registers deny the schedule must fall back."""
    program = compiler.compile(synthetic_mlp())
    _run(program, config)
    denying = NPUGuarder()
    denying.set_checking_register(
        0, AddressRange(0, 1 << 40), Permission.READ, World.NORMAL,
        issuer=World.SECURE,
    )
    denying.set_translation_register(0, vbase=0, pbase=0, size=1 << 40)
    with telemetry.scoped(trace=False) as scope:
        core = NPUCore(config, denying, DRAMModel(config.dram_bytes_per_cycle))
        with pytest.raises(Exception):
            core.run_detailed(program)
        counters = _counters(scope.metrics.snapshot())
    assert counters.get("fallbacks.guarder_unprovable", 0) >= 1


def test_iommu_run_leaves_layers_unchanged(config, compiler):
    """The fast path drops each layer's fold when the layer ends: after
    an IOMMU run no layer object has gained an attribute."""
    from repro.memory.pagetable import PageTable
    from repro.mmu.iommu import IOMMU

    program = compiler.compile(synthetic_cnn())
    table = PageTable()
    for rng in program.chunks.values():
        base = rng.base & ~0xFFF
        table.map_range(base, base, rng.size + 8192)
    before = [sorted(vars(layer)) for layer in program.layers]
    _, counters = _run(program, config,
                       controller=IOMMU(table, iotlb_entries=16))
    assert counters == {"fast_layers": len(program.layers)}
    assert [sorted(vars(layer)) for layer in program.layers] == before


# ----------------------------------------------------------------------
# Sweeps: one fold per layer, shared by every core, dropped per layer
# ----------------------------------------------------------------------
def _identity_table(program):
    from repro.memory.pagetable import PageTable

    table = PageTable()
    for rng in program.chunks.values():
        base = rng.base & ~0xFFF
        table.map_range(base, base, rng.size + 8192)
    return table


def _five_cores(program, config):
    """A Guarder, NoProtection, two IOMMUs and an sMMU: all fast."""
    from repro.mmu.iommu import IOMMU
    from repro.mmu.smmu import TrustZoneSMMU

    table = _identity_table(program)
    dram = DRAMModel(config.dram_bytes_per_cycle)
    controllers = [_guarder(), NoProtection(), IOMMU(table, iotlb_entries=4),
                   IOMMU(table, iotlb_entries=32),
                   TrustZoneSMMU(table, iotlb_entries=16)]
    return [NPUCore(config, ctrl, dram) for ctrl in controllers]


def test_sweep_folds_each_layer_once(config, compiler, monkeypatch):
    """Five cores in one sweep fold each layer once; the same five cores
    run one at a time fold it five times."""
    program = compiler.compile(synthetic_mlp())
    names = [layer.name for layer in program.layers]
    folded = []
    real = fastpath._fold_layer

    def counting(layer):
        folded.append(layer.name)
        return real(layer)

    monkeypatch.setattr(fastpath, "_fold_layer", counting)
    with telemetry.scoped(trace=False) as scope:
        run_sweep(_five_cores(program, config), program)
        counters = _counters(scope.metrics.snapshot())
    assert folded == names
    assert counters == {"fast_layers": 5 * len(names)}
    folded.clear()
    with telemetry.scoped(trace=False):
        for core in _five_cores(program, config):
            core.run_detailed(program)
    assert folded == names * 5


def test_sweep_drops_each_fold_before_the_next(config, compiler,
                                               monkeypatch):
    """No fold outlives its layer: when layer i+1 is folded, layer i's
    fold is already dead, and none survives the sweep."""

    class WeakFold(fastpath._Fold):
        __slots__ = ("__weakref__",)

    monkeypatch.setattr(fastpath, "_Fold", WeakFold)
    refs = []
    alive_at_fold = []
    real = fastpath._fold_layer

    def tracking(layer):
        alive_at_fold.append([ref() is not None for ref in refs])
        fold = real(layer)
        refs.append(weakref.ref(fold))
        return fold

    monkeypatch.setattr(fastpath, "_fold_layer", tracking)
    program = compiler.compile(synthetic_cnn())
    with telemetry.scoped(trace=False):
        run_sweep(_five_cores(program, config), program)
    assert len(refs) == len(program.layers) > 1
    assert alive_at_fold == [[False] * i for i in range(len(refs))]
    assert all(ref() is None for ref in refs)


def test_fold_error_counts_once_per_run(config, compiler, monkeypatch):
    """A layer whose fold raises is folded once per sweep, counts
    ``fold_error`` once in each core's run, and takes the event path."""
    program = compiler.compile(synthetic_mlp())
    broken = program.layers[1].name
    real = fastpath._fold_layer
    attempts = []

    def failing(layer):
        attempts.append(layer.name)
        if layer.name == broken:
            raise RuntimeError("unfoldable")
        return real(layer)

    monkeypatch.setattr(fastpath, "_fold_layer", failing)
    with telemetry.scoped(trace=False) as scope:
        cores = _five_cores(program, config)[:3]
        results = run_sweep(cores, program)
        counters = _counters(scope.metrics.snapshot())
    assert attempts.count(broken) == 1
    n_layers = len(program.layers)
    assert counters == {
        "fast_layers": 3 * (n_layers - 1),
        "fallbacks": 3,
        "fallbacks.fold_error": 3,
    }
    with fastpath.forced(False), telemetry.scoped(trace=False):
        event = [core.run_detailed(program)
                 for core in _five_cores(program, config)[:3]]
    assert [r.cycles for r in results] == [r.cycles for r in event]


def test_fault_mid_sweep_raises_and_closes_every_run(config, compiler):
    """A holey page table faults one core mid-sweep: the sweep raises
    that core's TranslationFault at the layer its own run faults on, and
    archives every profiler run it opened."""
    from repro.errors import TranslationFault
    from repro.memory.pagetable import PageTable
    from repro.mmu.iommu import IOMMU

    program = compiler.compile(synthetic_cnn())
    holey = PageTable()
    for _name, rng in sorted(program.chunks.items())[:-1]:
        base = rng.base & ~0xFFF
        holey.map_range(base, base, rng.size + 8192)
    dram = DRAMModel(config.dram_bytes_per_cycle)

    with telemetry.scoped(trace=False) as solo:
        core = NPUCore(config, IOMMU(holey, iotlb_entries=16), dram)
        with pytest.raises(TranslationFault):
            core.run_detailed(program)
    fault_layer = len(solo.profiler.runs[0].layers)

    with telemetry.scoped(trace=False) as scope:
        cores = [
            NPUCore(config, _guarder(), dram),
            NPUCore(config, IOMMU(holey, iotlb_entries=16), dram),
            NPUCore(config, IOMMU(_identity_table(program), 16), dram),
        ]
        with pytest.raises(TranslationFault):
            run_sweep(cores, program)
        profiler = scope.profiler
        assert profiler.end_run() is None  # no run left open
    # Cores before the faulting one finished its layer; it and every core
    # after it stopped there.
    assert [len(run.layers) for run in profiler.runs] == [
        fault_layer + 1, fault_layer, fault_layer,
    ]
    assert vars(cores[1].dma.stats) == vars(core.dma.stats)


def test_sweep_rejects_a_shared_controller(config, compiler):
    from repro.errors import ConfigError

    program = compiler.compile(synthetic_mlp())
    ctrl = _guarder()
    dram = DRAMModel(config.dram_bytes_per_cycle)
    with pytest.raises(ConfigError, match="one controller per core"):
        run_sweep([NPUCore(config, ctrl, dram), NPUCore(config, ctrl, dram)],
                  program)


# ----------------------------------------------------------------------
# Sweeps: one paging proof per shared page table, kept on the fold
# ----------------------------------------------------------------------
def _counting_proofs(monkeypatch):
    proofs = []
    real = fastpath._paging_provable

    def counting(ctrl, fold, eff_worlds):
        proofs.append(ctrl)
        return real(ctrl, fold, eff_worlds)

    monkeypatch.setattr(fastpath, "_paging_provable", counting)
    return proofs


def test_shared_table_is_proved_once_per_layer(config, compiler,
                                               monkeypatch):
    """Four IOMMUs over one page table prove each layer once, still
    count their own fast layers, and end as four one-core runs do."""
    from repro.mmu.iommu import IOMMU

    program = compiler.compile(synthetic_cnn())
    dram = DRAMModel(config.dram_bytes_per_cycle)
    proofs = _counting_proofs(monkeypatch)

    def cores():
        table = _identity_table(program)
        return [NPUCore(config, IOMMU(table, iotlb_entries=n), dram)
                for n in (4, 8, 16, 32)]

    with telemetry.scoped(trace=False) as scope:
        swept = run_sweep(cores(), program)
        counters = _counters(scope.metrics.snapshot())
    assert len(proofs) == len(program.layers)
    assert counters == {"fast_layers": 4 * len(program.layers)}
    with telemetry.scoped(trace=False):
        single = [core.run_detailed(program) for core in cores()]
    assert [r.cycles for r in swept] == [r.cycles for r in single]
    assert ([r.check_stats for r in swept]
            == [r.check_stats for r in single])


@pytest.mark.parametrize("split", ["tables", "enforce_world", "subclass"])
def test_distinct_proof_inputs_are_proved_per_core(config, compiler,
                                                   monkeypatch, split):
    """Cores with distinct page tables, one table under a different
    ``enforce_world``, or one table of a ``PageTable`` subclass (whose
    ``lookup`` may differ) each prove every layer themselves."""
    from repro.memory.pagetable import PageTable
    from repro.mmu.iommu import IOMMU

    class SubTable(PageTable):
        pass

    program = compiler.compile(synthetic_cnn())
    dram = DRAMModel(config.dram_bytes_per_cycle)
    table = _identity_table(program)
    if split == "tables":
        ctrls = [IOMMU(_identity_table(program), iotlb_entries=16)
                 for _ in range(4)]
    elif split == "enforce_world":
        ctrls = [IOMMU(table, iotlb_entries=16, enforce_world=enforce)
                 for enforce in (True, False)]
    else:
        sub = SubTable()
        sub._entries = table._entries
        ctrls = [IOMMU(sub, iotlb_entries=n) for n in (4, 32)]
    proofs = _counting_proofs(monkeypatch)
    with telemetry.scoped(trace=False) as scope:
        run_sweep([NPUCore(config, ctrl, dram) for ctrl in ctrls], program)
        counters = _counters(scope.metrics.snapshot())
    assert len(proofs) == len(ctrls) * len(program.layers)
    assert counters == {"fast_layers": len(ctrls) * len(program.layers)}
