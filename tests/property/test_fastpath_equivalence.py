"""Differential-equivalence harness for the analytic fast path.

Acceptance criterion of :mod:`repro.sim.fastpath`: running any workload
on the default (fast) path must be **observably indistinguishable** from
the event simulator, pinned with ``fastpath.forced(False)`` —
bit-identical cycles (not approximately equal: ``==`` on floats),
bit-identical per-layer results, DMA/controller statistics, IOTLB
state, profiler attribution (Fraction-exact category splits), metrics
snapshots and audit ledger.  The fallback predicate is property-tested:
any schedule the analytic model cannot prove clean must route to the
event path (bumping ``sim.fastpath.fallbacks``) and still produce
identical outcomes — including identical exceptions and identical
partially-mutated statistics when the run faults.  A sweep of one
program under many controllers (``run_sweep``) equals the same fresh
cores run one at a time, on either timing path, and one LRU-stack walk
serves every nested IOTLB exactly as the event path's own IOTLB does.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.common.types import AddressRange, DmaRequest, Permission, World
from repro.driver.compiler import TilingCompiler
from repro.memory.dram import DRAMModel
from repro.memory.pagetable import PageTable, PageTableEntry
from repro.mmu.base import NoProtection
from repro.mmu.guarder import NPUGuarder
from repro.mmu.iommu import IOMMU
from repro.mmu.smmu import TrustZoneSMMU
from repro.npu.config import NPUConfig
from repro.npu.core import NPUCore, run_sweep
from repro.sim import fastpath
from repro.soc import SoC, SoCConfig
from repro.workloads import zoo
from repro.workloads.synthetic import synthetic_cnn, synthetic_mlp

WORKLOADS = sorted(zoo.MODEL_BUILDERS)
PROTECTIONS = ("none", "trustzone", "snpu")

ZERO = Fraction(0)


def _build(model_name):
    if model_name in ("bert", "gpt"):
        return zoo.MODEL_BUILDERS[model_name](64, 2)
    return zoo.MODEL_BUILDERS[model_name](56)


def _fast_counters(snapshot) -> dict:
    """``sim.fastpath.*`` counters of a metrics snapshot, prefix stripped."""
    prefix = fastpath.GROUP_PREFIX + "."
    return {
        key[len(prefix):]: value
        for key, value in snapshot.items()
        if str(key).startswith(prefix)
    }


def _profiler_state(scope):
    """The profiler's observable state, Fraction-exact."""
    runs = [
        (
            run.task,
            run.mode,
            [
                (lay.name, lay.index, lay.total,
                 tuple(sorted(lay.parts.items())),
                 tuple(sorted(lay.stats.items())))
                for lay in run.layers
            ],
            tuple(sorted(run.extras.items())),
        )
        for run in scope.profiler.runs
    ]
    return runs, dict(scope.profiler.counts)


def _run_soc(model_name, protection, fast, secure=False):
    """One full SoC detailed run; returns (observables, fast counters)."""
    model = _build(model_name)
    with fastpath.forced(fast):
        with telemetry.scoped(trace=False) as scope:
            soc = SoC(SoCConfig(protection=protection))
            handle = soc.submit(model, secure=secure)
            try:
                result = soc.run(handle, detailed=True)
            finally:
                soc.release(handle)
            prof_runs, prof_counts = _profiler_state(scope)
            audit_state = (telemetry.audit.records, telemetry.audit.clock)
            snapshot = scope.metrics.snapshot()
    fast_counts = _fast_counters(snapshot)
    prefix = fastpath.GROUP_PREFIX + "."
    metrics = {
        key: value for key, value in snapshot.items()
        if not str(key).startswith(prefix)
    }
    observables = dict(
        cycles=result.cycles,
        macs=result.macs,
        flush=result.flush_overhead_cycles,
        layers=[
            (lay.name, lay.index, lay.cycles, lay.load_bytes,
             lay.store_bytes, lay.compute_cycles, lay.macs, lay.flush_cycles)
            for lay in result.layers
        ],
        check_stats=vars(result.check_stats).copy(),
        dma_requests=result.dma_requests,
        dma_packets=result.dma_packets,
        prof_runs=prof_runs,
        prof_counts=prof_counts,
        audit=audit_state,
        metrics=metrics,
    )
    return observables, fast_counts


def _assert_identical(slow, fast):
    """Key-by-key equality so a failure names the drifting observable."""
    assert slow.keys() == fast.keys()
    for key in slow:
        assert slow[key] == fast[key], f"observable {key!r} differs"


@pytest.mark.parametrize("protection", PROTECTIONS)
@pytest.mark.parametrize("model_name", WORKLOADS)
def test_differential_zoo(model_name, protection):
    """Fast path ≡ event simulator for every zoo model × protection."""
    slow, slow_counts = _run_soc(model_name, protection, fast=False)
    fast, fast_counts = _run_soc(model_name, protection, fast=True)
    _assert_identical(slow, fast)
    # The event-simulator leg must not have consulted the fast path at
    # all, and the fast leg must have actually used it (these runs are
    # contention-free by construction, so zero fallbacks).
    assert slow_counts == {}
    assert fast_counts.get("fast_layers", 0) == len(slow["layers"])
    assert fast_counts.get("fallbacks", 0) == 0


@pytest.mark.parametrize("protection", ("trustzone", "snpu"))
@pytest.mark.parametrize("model_name", ("mobilenet", "bert"))
def test_differential_secure_world(model_name, protection):
    """Secure-world submissions (world switches at run boundaries, secure
    PTEs/registers) stay bit-identical across timing paths."""
    slow, _ = _run_soc(model_name, protection, fast=False, secure=True)
    fast, fast_counts = _run_soc(model_name, protection, fast=True,
                                 secure=True)
    _assert_identical(slow, fast)
    assert fast_counts.get("fast_layers", 0) > 0


def test_profiler_splits_fraction_exact():
    """Fast-path profiler attributions keep the exact-partition invariant
    and equal the event path's Fractions member-by-member."""
    slow, _ = _run_soc("resnet", "trustzone", fast=False)
    fast, _ = _run_soc("resnet", "trustzone", fast=True)
    assert slow["prof_runs"] == fast["prof_runs"]
    for run in fast["prof_runs"]:
        for _name, _index, total, parts, _stats in run[2]:
            assert sum((p for _, p in parts), ZERO) == total


# ----------------------------------------------------------------------
# Fallback predicate: property-tested over dirty scenarios
# ----------------------------------------------------------------------
def _identity_table(program) -> PageTable:
    table = PageTable()
    for rng in program.chunks.values():
        base = rng.base & ~0xFFF
        table.map_range(base, base, rng.size + 8192)
    return table


def _holey_table(program) -> PageTable:
    """Identity table with the last chunk unmapped (provably faults)."""
    table = PageTable()
    chunks = sorted(program.chunks.items())
    for _name, rng in chunks[:-1]:
        base = rng.base & ~0xFFF
        table.map_range(base, base, rng.size + 8192)
    return table


def _permissive_guarder(cls=NPUGuarder) -> NPUGuarder:
    guarder = cls()
    guarder.set_checking_register(
        0, AddressRange(0, 1 << 40), Permission.RW, World.NORMAL,
        issuer=World.SECURE,
    )
    guarder.set_translation_register(0, vbase=0, pbase=0, size=1 << 40)
    return guarder


def _restricted_guarder() -> NPUGuarder:
    """Covers translation but write-checks fail: provably denies."""
    guarder = NPUGuarder()
    guarder.set_checking_register(
        0, AddressRange(0, 1 << 40), Permission.READ, World.NORMAL,
        issuer=World.SECURE,
    )
    guarder.set_translation_register(0, vbase=0, pbase=0, size=1 << 40)
    return guarder


def _split_guarder() -> NPUGuarder:
    """Two register pairs splitting the address space: exercises the
    first-covering-register precheck (hull shortcut does not apply)."""
    guarder = NPUGuarder()
    half = 1 << 32
    guarder.set_checking_register(
        0, AddressRange(0, half), Permission.RW, World.NORMAL,
        issuer=World.SECURE,
    )
    guarder.set_checking_register(
        1, AddressRange(half, (1 << 40) - half), Permission.RW, World.NORMAL,
        issuer=World.SECURE,
    )
    guarder.set_translation_register(0, vbase=0, pbase=0, size=half)
    guarder.set_translation_register(1, vbase=half, pbase=half,
                                     size=(1 << 40) - half)
    return guarder


CONTROLLERS = ("none", "guarder", "guarder-deny", "guarder-split",
               "iommu", "iommu-hole", "smmu", "smmu-mismatch")
#: Scenarios that must fault identically on both paths.
_FAULTING = ("guarder-deny", "iommu-hole")


def _make_controller(kind, program):
    if kind == "none":
        return NoProtection()
    if kind == "guarder":
        return _permissive_guarder()
    if kind == "guarder-deny":
        return _restricted_guarder()
    if kind == "guarder-split":
        return _split_guarder()
    if kind == "iommu":
        return IOMMU(_identity_table(program), iotlb_entries=16)
    if kind == "iommu-hole":
        return IOMMU(_holey_table(program), iotlb_entries=16)
    smmu = TrustZoneSMMU(_identity_table(program), iotlb_entries=16)
    if kind == "smmu-mismatch":
        # Device left in the normal world while the task's requests are
        # secure is modelled by switching the device and compiling the
        # task for the normal world: fold.worlds != {device_world}.
        smmu.switch_world(World.SECURE)
    return smmu


def _core_state(core) -> dict:
    """A core's final DMA, systolic, controller and IOTLB state."""
    dma, ctrl = core.dma, core.controller
    hist = dma._h_transfer
    state = dict(
        dma_stats=vars(dma.stats).copy(),
        cursor=dma.cursor,
        busy=core.systolic.busy_cycles,
        macs_done=core.systolic.macs_done,
        check_stats=vars(ctrl.stats).copy(),
        histogram=(hist.count, hist.total, dict(hist.counts)),
    )
    if isinstance(ctrl, IOMMU):
        state["iotlb"] = (
            list(ctrl.iotlb._cache.items()),
            ctrl.iotlb.hits,
            ctrl.iotlb.misses,
            ctrl._last_vpage,
            ctrl._walk_cursor,
            ctrl._pending_walk_cycles,
        )
    return state


def _run_core(builder, kind, flush, share, attacker, fast):
    """Compile + run one scenario on a bare core; capture everything."""
    with fastpath.forced(fast):
        with telemetry.scoped(trace=False) as scope:
            config = NPUConfig.paper_default()
            program = TilingCompiler(config).compile(builder())
            ctrl = _make_controller(kind, program)
            core = NPUCore(config, ctrl, DRAMModel(config.dram_bytes_per_cycle))
            if attacker:
                core.attacker = object()
            error = None
            result = None
            try:
                result = core.run_detailed(program, share=share, flush=flush)
            except Exception as exc:  # noqa: BLE001 - compared across legs
                error = type(exc).__name__
            state = dict(
                error=error,
                cycles=None if result is None else result.cycles,
                layers=None if result is None else [
                    (lay.name, lay.cycles, lay.flush_cycles)
                    for lay in result.layers
                ],
                audit=(telemetry.audit.records, telemetry.audit.clock),
                **_core_state(core),
            )
            prof_runs, prof_counts = _profiler_state(scope)
            state["prof_runs"] = prof_runs
            state["prof_counts"] = prof_counts
            snapshot = scope.metrics.snapshot()
    fast_counts = _fast_counters(snapshot)
    prefix = fastpath.GROUP_PREFIX + "."
    state["metrics"] = {
        key: value for key, value in snapshot.items()
        if not str(key).startswith(prefix)
    }
    return state, fast_counts


@settings(max_examples=30, deadline=None)
@given(
    builder=st.sampled_from((synthetic_mlp, synthetic_cnn)),
    kind=st.sampled_from(CONTROLLERS),
    flush=st.sampled_from((None, "tile", "layer", "layer5")),
    share=st.sampled_from((1.0, 0.5)),
    attacker=st.booleans(),
)
def test_fallback_predicate_property(builder, kind, flush, share, attacker):
    """For ANY scenario — clean or not — both paths are bit-identical,
    and anything the analytic model cannot prove routes to the event
    simulator (visible in the fallback counter)."""
    slow, slow_counts = _run_core(builder, kind, flush, share, attacker,
                                  fast=False)
    fast, fast_counts = _run_core(builder, kind, flush, share, attacker,
                                  fast=True)
    assert slow.keys() == fast.keys()
    for key in slow:
        assert slow[key] == fast[key], f"observable {key!r} differs"
    assert slow_counts == {}

    n_layers = len(slow["layers"] or ())
    run_level = flush is not None or attacker
    if run_level:
        # Whole run ineligible: one fallback, zero fast layers.
        assert fast_counts.get("fast_layers", 0) == 0
        assert fast_counts.get("fallbacks", 0) == 1
    elif kind in _FAULTING:
        # The precheck must refuse to prove the faulting layer; the event
        # path then reproduces the exact exception and partial state.
        assert slow["error"] is not None
        assert fast_counts.get("fallbacks", 0) >= 1
    elif kind == "smmu-mismatch":
        # A normal-world task on a secure-world device runs clean on the
        # event path, but the analytic model must refuse to prove a run
        # whose request worlds differ from the device world.
        assert slow["error"] is None
        assert fast_counts.get("fast_layers", 0) == 0
        assert fast_counts.get("fallbacks", 0) == n_layers
    else:
        assert slow["error"] is None
        assert fast_counts.get("fast_layers", 0) == n_layers
        assert fast_counts.get("fallbacks", 0) == 0


def test_unprovable_schedule_routes_to_event_path():
    """A page-table hole is unprovable: the fast leg must fall back and
    then fault exactly like the event leg (same exception, same partial
    DMA/controller statistics, same audit denial record)."""
    slow, _ = _run_core(synthetic_mlp, "iommu-hole", None, 1.0, False,
                        fast=False)
    fast, fast_counts = _run_core(synthetic_mlp, "iommu-hole", None, 1.0,
                                  False, fast=True)
    assert slow["error"] == fast["error"] is not None
    for key in slow:
        assert slow[key] == fast[key], f"observable {key!r} differs"
    assert fast_counts.get("fallbacks.iommu_unprovable", 0) >= 1


# ----------------------------------------------------------------------
# Sweeps: one program under many controllers, layer by layer
# ----------------------------------------------------------------------
class _OpaqueGuarder(NPUGuarder):
    """An unknown controller subclass: its runs take the event path."""


#: The sweep's controllers, in core order.
SWEEP_CONTROLLERS = ("guarder", "guarder-split", "none", "iommu-4",
                     "iommu-32", "smmu", "opaque")
TINY_ZOO = [model.name for model in zoo.paper_models("tiny")]


def _sweep_controller(kind, program):
    if kind.startswith("iommu-"):
        entries = int(kind.split("-")[1])
        return IOMMU(_identity_table(program), iotlb_entries=entries)
    if kind == "opaque":
        return _permissive_guarder(_OpaqueGuarder)
    return _make_controller(kind, program)


def _sweep(model_name, flush, *, sweep, fast=True):
    """Every sweep controller's core on one tiny-zoo model, run as one
    ``run_sweep`` (*sweep*) or one ``run_detailed`` at a time."""
    model = next(m for m in zoo.paper_models("tiny") if m.name == model_name)
    with fastpath.forced(fast):
        with telemetry.scoped(trace=False) as scope:
            config = NPUConfig.paper_default()
            program = TilingCompiler(config).compile(model)
            dram = DRAMModel(config.dram_bytes_per_cycle)
            cores = [NPUCore(config, _sweep_controller(kind, program), dram)
                     for kind in SWEEP_CONTROLLERS]
            if sweep:
                results = run_sweep(cores, program, flush=flush)
            else:
                results = [core.run_detailed(program, flush=flush)
                           for core in cores]
            prof_runs, prof_counts = _profiler_state(scope)
            state = dict(
                results=[dataclasses.asdict(result) for result in results],
                cores=[_core_state(core) for core in cores],
                prof_runs=prof_runs,
                prof_counts=prof_counts,
                audit=(list(scope.audit.records), scope.audit.clock),
            )
            snapshot = scope.metrics.snapshot()
    prefix = fastpath.GROUP_PREFIX + "."
    state["metrics"] = {
        key: value for key, value in snapshot.items()
        if not str(key).startswith(prefix)
    }
    return state, _fast_counters(snapshot), len(program.layers)


@pytest.mark.parametrize("model_name", TINY_ZOO)
def test_sweep_equals_runs_one_at_a_time(model_name):
    """A sweep leaves every core, result, profiler run, counter and the
    audit clock exactly as the same cores run one at a time, on the
    fast path and on the event simulator."""
    swept, swept_counts, n_layers = _sweep(model_name, None, sweep=True)
    single, single_counts, _ = _sweep(model_name, None, sweep=False)
    event, event_counts, _ = _sweep(model_name, None, sweep=False,
                                    fast=False)
    _assert_identical(single, swept)
    _assert_identical(event, swept)
    assert swept_counts == single_counts
    assert event_counts == {}
    # Every known controller replays every layer; the opaque one is
    # refused once, at run level.
    assert swept_counts == {
        "fast_layers": (len(SWEEP_CONTROLLERS) - 1) * n_layers,
        "fallbacks": 1,
        "fallbacks.controller": 1,
    }


@pytest.mark.parametrize("model_name", TINY_ZOO[:2])
def test_flush_sweep_equals_runs_one_at_a_time(model_name):
    """Under ``flush="tile"`` every layer of every core takes the event
    path, interleaved across cores, and still matches."""
    swept, swept_counts, _ = _sweep(model_name, "tile", sweep=True)
    single, single_counts, _ = _sweep(model_name, "tile", sweep=False)
    _assert_identical(single, swept)
    assert swept_counts == single_counts == {
        "fallbacks": len(SWEEP_CONTROLLERS),
        "fallbacks.flush": len(SWEEP_CONTROLLERS),
    }


# ----------------------------------------------------------------------
# Stack walk: one LRU-stack walk per layer serves every nested IOTLB
# ----------------------------------------------------------------------
#: A small page universe, so streams re-touch pages at every depth.
_UNIVERSE = 48

_transfer_pages = st.one_of(
    # A contiguous run.
    st.tuples(st.integers(0, _UNIVERSE - 1), st.integers(1, 12)).map(
        lambda run: tuple(range(run[0], run[0] + run[1]))),
    # Any pages: jumps and pages repeated inside one transfer.
    st.lists(st.integers(0, _UNIVERSE - 1), min_size=1, max_size=8).map(
        tuple),
)


@st.composite
def _walk_cases(draw):
    sizes = sorted(draw(st.sets(st.integers(1, 32), min_size=1,
                                max_size=4)))
    start = draw(st.lists(st.integers(0, _UNIVERSE - 1), unique=True,
                          max_size=sizes[-1]))
    last = draw(st.one_of(st.just(-2), st.integers(-1, _UNIVERSE)))
    iters = draw(st.lists(
        st.tuples(st.lists(_transfer_pages, max_size=3),
                  st.lists(_transfer_pages, max_size=2)),
        min_size=1, max_size=40))
    cost = 2.0 * draw(st.integers(0, 60))
    return sizes, start, last, iters, cost


def _event_transfers(iommu, iters):
    """``(pending, hits, walks)`` per transfer on the event path's own
    IOTLB and ``_translate_page`` stall rule."""
    request = DmaRequest(vaddr=0, size=64, is_write=False)
    out = []
    for loads, stores in iters:
        for pages in loads + stores:
            hits, misses = iommu.iotlb.hits, iommu.iotlb.misses
            iommu._pending_walk_cycles = 0.0
            for vpage in pages:
                iommu._translate_page(vpage, request)
                iommu._last_vpage = vpage
            out.append((iommu._pending_walk_cycles,
                        iommu.iotlb.hits - hits,
                        iommu.iotlb.misses - misses))
    return out


@settings(max_examples=150, deadline=None)
@given(case=_walk_cases())
def test_stack_walk_serves_every_nested_iotlb(case):
    """One walk from the deepest IOTLB gives every nested IOTLB exactly
    the event path's per-transfer stalls, hits and walks, and leaves it
    with the same keys, order and PTE objects."""
    sizes, start, last, iters, cost = case
    config = NPUConfig.paper_default()
    table = PageTable()
    mapped = _UNIVERSE + 12  # contiguous runs reach past the universe
    table.map_range(0, 0, mapped * 4096)
    fold = fastpath._Fold()
    fold.iters = [
        (tuple((64, pages) for pages in loads),
         tuple((64, pages) for pages in stores), 1.0, 0)
        for loads, stores in iters
    ]
    walk = fastpath._stack_walk(fold, tuple(start), last, sizes[-1])
    # The precheck's map covers exactly the touched pages, and the proof
    # needs carried-over entries among them to be the table's own PTEs.
    pte_map = {vpage: table.lookup(vpage)
               for loads, stores in iters for pages in loads + stores
               for vpage in pages}
    carried = {vpage: pte_map.get(vpage) or PageTableEntry(ppage=vpage)
               for vpage in start}

    def warm(entries):
        iommu = IOMMU(table, iotlb_entries=entries, walk_cycles=cost)
        for vpage in start[-entries:]:
            iommu.iotlb.insert(vpage, carried[vpage])
        iommu._last_vpage = last
        return iommu

    records = [record for loads, stores, _c, _m in walk.iters
               for record in loads + stores]
    with telemetry.scoped(trace=False):
        for entries in sizes:
            event = warm(entries)
            expected = _event_transfers(event, iters)
            # The walk's records, read the way the replay reads them.
            assert [
                (bisect_left(found, entries), n - bisect_left(found, entries))
                for _size, n, _jumps, found, _found_jumps in records
            ] == [(hits, walks) for _pending, hits, walks in expected]
            # The replay itself: per-transfer cycles carry the stalls.
            fast = warm(entries)
            core = NPUCore(config, fast, DRAMModel(config.dram_bytes_per_cycle))
            fastpath._replay_paging(core, fold, walk, pte_map, 1.0, fast)
            stream = core.dma.dram.transfer_cycles(64, 1.0)
            cycles = [core.dma.ISSUE_CYCLES + pending + stream
                      for pending, _hits, _walks in expected]
            hist = core.dma._h_transfer
            assert hist.counts == Counter(cycles)
            assert (hist.count, hist.total) == (len(cycles), sum(cycles))
            assert list(fast.iotlb._cache) == list(event.iotlb._cache)
            assert all(fast.iotlb._cache[vpage] is pte
                       for vpage, pte in event.iotlb._cache.items())
            assert (fast._last_vpage, fast._walk_cursor,
                    fast._pending_walk_cycles, fast.stats.walk_cycles,
                    fast.iotlb.hits, fast.iotlb.misses) == (
                event._last_vpage, event._walk_cursor,
                event._pending_walk_cycles, event.stats.walk_cycles,
                event.iotlb.hits, event.iotlb.misses)


def _warm_apart(cores, program):
    """Give each IOMMU its own IOTLB, none the top of another's."""
    table = cores[0].controller.page_table
    pages = sorted(table._entries)
    for n, core in enumerate(cores):
        iommu = core.controller
        for vpage in pages[n::len(cores)][:iommu.iotlb.entries]:
            iommu.iotlb.insert(vpage, table.lookup(vpage))
        iommu._last_vpage = pages[n]


@pytest.mark.parametrize("model_name", TINY_ZOO[:2])
def test_sweep_from_non_nested_iotlbs(model_name, monkeypatch):
    """IOMMUs that start the sweep from unrelated IOTLB states each walk
    from their own state, and end bit-identical to the same cores run
    one at a time and on the event simulator."""
    model = next(m for m in zoo.paper_models("tiny") if m.name == model_name)
    config = NPUConfig.paper_default()
    program = TilingCompiler(config).compile(model)
    walks = []
    real = fastpath._stack_walk

    def counting(*args):
        walks.append(args[1:])
        return real(*args)

    monkeypatch.setattr(fastpath, "_stack_walk", counting)

    def run(sweep, fast=True):
        with fastpath.forced(fast), telemetry.scoped(trace=False) as scope:
            table = _identity_table(program)
            dram = DRAMModel(config.dram_bytes_per_cycle)
            cores = [NPUCore(config, IOMMU(table, iotlb_entries=n), dram)
                     for n in (4, 8, 16, 32)]
            _warm_apart(cores, program)
            if sweep:
                results = run_sweep(cores, program)
            else:
                results = [core.run_detailed(program) for core in cores]
            state = dict(
                results=[dataclasses.asdict(result) for result in results],
                cores=[_core_state(core) for core in cores],
            )
            counts = _fast_counters(scope.metrics.snapshot())
        return state, counts

    swept, swept_counts = run(sweep=True)
    n_walks = len(walks)
    single, single_counts = run(sweep=False)
    event, event_counts = run(sweep=False, fast=False)
    _assert_identical(single, swept)
    _assert_identical(event, swept)
    assert swept_counts == single_counts == {
        "fast_layers": 4 * len(program.layers)}
    assert event_counts == {}
    # The first layer cannot share a walk: four states, four walks.
    assert n_walks > len(program.layers)
    assert len({start for start in walks[:4]}) == 4
