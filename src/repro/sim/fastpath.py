"""Closed-form fast path for the detailed timing engine.

The event simulator (:meth:`repro.npu.core.NPUCore.run_detailed`) walks
every tile iteration and pushes every DMA descriptor through the access
controller.  For the vast majority of layers nothing on that walk can
perturb timing: the controller is stall-free (Guarder / NoProtection) or
its page walks are a pure function of the page-touch sequence and the
current IOTLB state, no flush boundary interrupts the pipeline, no world
switch is in flight, and no attacker, tracer or functional data movement
observes individual packets.  This module computes those layers directly
from the tiling compiler's schedule and *replays* every mutated
accumulator in the exact operation order of the event path, so the result
is bit-identical by construction, not merely close.

Design rules that make the equivalence hold exactly:

* **Sequential replay, not closed-form sums.**  Float accumulators
  (``dma.cursor``, ``stats.stream_cycles``, IOTLB walk stalls, systolic
  busy cycles, the per-layer segment pipeline) are replayed as local
  variables updated with the same operand values in the same order as
  the event path, then written back at layer end.  Only integer-valued
  quantities (request/packet/byte counters) are batched, which is exact
  below 2**53.
* **Conservative eligibility.**  A layer runs on the fast path only when
  the predicate below *proves* the event path would take no data-dependent
  branch the replay does not model: every page mapped with sufficient
  permissions (IOMMU/sMMU), every transfer covered by an allowing register
  pair (Guarder), no flush granularity, no world switch in flight, no
  attacker attached, telemetry collectors that observe per-transfer events
  disabled.  Anything unprovable routes to the event simulator and bumps
  the ``sim.fastpath.fallbacks`` counter (plus a per-reason counter).
* **One fold per layer per sweep.**  :func:`repro.npu.core.run_sweep`
  walks one program under several cores layer by layer.  The first core
  whose :class:`FastRun` needs a layer folds it into a
  :class:`LayerFold`; every core then proves and replays that fold
  against its own controller, and the sweep drops it before the next
  layer.  Paging cores that share a flat :class:`PageTable` with equal
  ``enforce_world`` and effective worlds share one precheck proof, kept
  on the fold.  Nothing is cached on layer objects, across sweeps or in
  module globals, so peak memory is one layer's fold and no cache can go
  stale (``run_detailed`` is the one-core sweep).

Every detailed run tries the fast path; the event simulator is the
fallback and the reference.  :func:`forced` pins the event path for
the differential tests.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro import telemetry
from repro.common.types import Permission, World
from repro.memory.pagetable import PageTable
from repro.mmu.base import NoProtection
from repro.mmu.guarder import NPUGuarder
from repro.mmu.iommu import IOMMU
from repro.mmu.smmu import TrustZoneSMMU
from repro.telemetry.metrics import NULL_HISTOGRAM

#: Metric group holding the fast-path counters
#: (``sim.fastpath.fast_layers``, ``sim.fastpath.fallbacks``, ...).
GROUP_PREFIX = "sim.fastpath"

#: Set only inside :func:`forced`; True pins the event simulator.
_EVENT_ONLY = False

_READ = Permission.READ
_WRITE = Permission.WRITE
# Raw int masks for the page-need union: the fold and the paging
# precheck run over hundreds of thousands of pages, where IntFlag
# __or__/__and__ dominate — plain ints carry the same lattice.
_READ_I = int(Permission.READ)
_WRITE_I = int(Permission.WRITE)
#: IntFlag member -> raw mask without the enum ``.value`` descriptor.
_PERM_MASK = {member: int(member) for member in Permission}


@contextmanager
def forced(on: bool) -> Iterator[None]:
    """Pin the timing engine for a ``with`` block (test only).

    ``forced(False)`` sends every detailed run to the event simulator
    without touching the fallback counters: the reference leg of the
    differential tests.  ``forced(True)`` is the default.
    """
    global _EVENT_ONLY
    saved = _EVENT_ONLY
    _EVENT_ONLY = not on
    try:
        yield
    finally:
        _EVENT_ONLY = saved


# ----------------------------------------------------------------------
# Telemetry counters
# ----------------------------------------------------------------------
def _metric_group():
    """The live ``sim.fastpath`` metric set of the current scope.

    ``MetricsRegistry.group`` registers a *fresh* group per call, so the
    already-registered set is reused when the current registry state has
    one; otherwise one is registered into the active scope.  Returns None
    while metrics are disabled (counting would be invisible anyway).
    """
    reg = telemetry.metrics
    if not reg.enabled:
        return None
    current = reg._groups.get(GROUP_PREFIX)
    if current is not None:
        return current
    return reg.group(GROUP_PREFIX)


def _count(name: str, n: int = 1) -> None:
    group = _metric_group()
    if group is not None:
        group.counter(name).inc(n)


def _fallback(reason: str) -> None:
    """Record one routing decision to the event simulator."""
    _count("fallbacks")
    _count(f"fallbacks.{reason}")


# ----------------------------------------------------------------------
# Schedule fold (one per layer per sweep, dropped when the layer ends)
# ----------------------------------------------------------------------
class _Fold:
    """Everything the precheck and the replay need, from one factory walk."""

    __slots__ = (
        "iters", "subreq", "packets", "bytes_in", "bytes_out", "macs",
        "page_need", "worlds", "hulls", "distinct",
    )

    def __init__(self) -> None:
        #: Per iteration: (loads, stores, compute_cycles, macs) where each
        #: transfer is (size, pages).
        self.iters: List[tuple] = []
        self.subreq = 0
        self.packets = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.macs = 0
        #: vpage -> union of required permission masks (IOMMU precheck).
        self.page_need: Dict[int, int] = {}
        self.worlds: set = set()
        #: (is_write, world) -> [min_vaddr, max_end] (Guarder hull check).
        self.hulls: Dict[tuple, list] = {}
        #: Distinct (vaddr, span, is_write, world) keys (Guarder precheck).
        self.distinct: Dict[tuple, None] = {}


def _fold_transfer(fold: _Fold, transfer) -> tuple:
    req = transfer.request
    size = req.size
    is_write = req.is_write
    world = req.world
    if req.rows > 1:
        span = (req.rows - 1) * req.row_stride + req.row_bytes
    else:
        span = size
    pages = tuple(IOMMU._page_sequence(req))
    need = _WRITE_I if is_write else _READ_I
    page_need = fold.page_need
    for page in pages:
        prior = page_need.get(page)
        page_need[page] = need if prior is None else (prior | need)
    fold.worlds.add(world)
    fold.subreq += req.sub_requests
    fold.packets += req.num_packets
    if is_write:
        fold.bytes_out += size
    else:
        fold.bytes_in += size
    key = (req.vaddr, span, is_write, world)
    fold.distinct[key] = None
    hull = fold.hulls.get((is_write, world))
    end = req.vaddr + span
    if hull is None:
        fold.hulls[(is_write, world)] = [req.vaddr, end]
    else:
        if req.vaddr < hull[0]:
            hull[0] = req.vaddr
        if end > hull[1]:
            hull[1] = end
    return (size, pages)


def _fold_layer(layer) -> _Fold:
    fold = _Fold()
    for it in layer.iterations():
        loads = tuple(_fold_transfer(fold, t) for t in it.loads)
        stores = tuple(_fold_transfer(fold, t) for t in it.stores)
        fold.iters.append((loads, stores, it.compute_cycles, it.macs))
        fold.macs += it.macs
    return fold


class LayerFold:
    """One layer of a sweep, folded on first use and shared by its cores.

    The fold reads only the layer's schedule, never a controller, so
    every core of a sweep can prove and replay the same one.  A fold
    that raises is remembered as failed: each run still counts its own
    ``fold_error`` fallback, but the layer is not folded again.
    """

    __slots__ = ("layer", "_fold", "_failed", "_proofs")

    def __init__(self, layer) -> None:
        self.layer = layer
        self._fold: Optional[_Fold] = None
        self._failed = False
        #: ``(page table, enforce_world, eff_worlds) -> pte map or None``.
        self._proofs: Dict[tuple, Optional[dict]] = {}

    def get(self) -> Optional[_Fold]:
        """The layer's fold, or None when folding it raised."""
        if self._fold is None and not self._failed:
            try:
                self._fold = _fold_layer(self.layer)
            except Exception:
                self._failed = True
        return self._fold

    def paging_proof(self, ctrl: IOMMU, eff_worlds) -> Optional[dict]:
        """:func:`_paging_provable` for *ctrl* against this fold.

        The proof reads only the page table, ``enforce_world``, the
        effective worlds and the fold, so cores whose flat
        :class:`PageTable` is the same object share one.  Only the exact
        type is shared: a subclass may override ``lookup()``.
        """
        table = ctrl.page_table
        if type(table) is not PageTable:
            return _paging_provable(ctrl, self._fold, eff_worlds)
        key = (table, ctrl.enforce_world, eff_worlds)
        if key not in self._proofs:
            self._proofs[key] = _paging_provable(ctrl, self._fold, eff_worlds)
        return self._proofs[key]


# ----------------------------------------------------------------------
# Eligibility prechecks
# ----------------------------------------------------------------------
def _guarder_provable(ctrl: NPUGuarder, fold: _Fold) -> bool:
    """True when every transfer provably passes the Guarder's datapath."""
    tregs = [r for r in ctrl.translation if r is not None]
    cregs = [c for c in ctrl.checking if c is not None]
    if not tregs or not cregs:
        return False
    if len(tregs) == 1 and len(cregs) == 1:
        # One register pair: first-covering == only-covering, so the
        # per-group hull decides for every transfer inside it.
        treg, creg = tregs[0], cregs[0]
        for (is_write, world), (lo, hi) in fold.hulls.items():
            span = hi - lo
            if not treg.covers(lo, span):
                return False
            pbase = treg.translate(lo)
            need = _WRITE if is_write else _READ
            if not (creg.covers(pbase, span) and creg.allows(need, world)):
                return False
        return True
    translation = ctrl.translation
    checking = ctrl.checking
    for vaddr, span, is_write, world in fold.distinct:
        reg = None
        for r in translation:
            if r is not None and r.covers(vaddr, span):
                reg = r
                break
        if reg is None:
            return False
        pbase = reg.translate(vaddr)
        need = _WRITE if is_write else _READ
        allowed = False
        for c in checking:
            if c is not None and c.covers(pbase, span):
                allowed = c.allows(need, world)
                break
        if not allowed:
            return False
    return True


def _paging_provable(ctrl: IOMMU, fold: _Fold, eff_worlds) -> Optional[dict]:
    """PTEs for every touched page iff the IOMMU provably never faults."""
    table = ctrl.page_table
    # The flat table's lookup is a dict get; bypass the wrapper for the
    # exact type only (subclasses may override lookup()).
    if type(table) is PageTable:
        lookup = table._entries.get
    else:
        lookup = table.lookup
    enforce = ctrl.enforce_world
    secure = World.SECURE
    perm_mask = _PERM_MASK
    pte_map: Dict[int, object] = {}
    for vpage, need in fold.page_need.items():
        pte = lookup(vpage)
        if pte is None:
            return None
        # need is a raw int mask; IntFlag.allows == (perm & need) == need.
        mask = perm_mask.get(pte.perm)
        if mask is None:
            mask = pte.perm.value
        if mask & need != need:
            return None
        if enforce and pte.world is secure:
            for world in eff_worlds:
                if world is not secure:
                    return None
        pte_map[vpage] = pte
    return pte_map


# ----------------------------------------------------------------------
# Replay kernels
# ----------------------------------------------------------------------
def _replay_stall_free(core, fold: _Fold, share: float
                       ) -> Tuple[float, float]:
    """Replay one layer under a stall-free controller.

    Mirrors, per transfer: ``cycles = ISSUE + 0.0 + stream`` and the DMA
    engine's accumulator updates; per iteration: the segment pipeline of
    ``run_detailed``.  All float state is carried in locals updated in
    event order and written back once.  Stream cycles are a pure
    function of (size, share), so each distinct size is priced once.
    """
    dma = core.dma
    stats = dma.stats
    observe = dma._h_transfer.observe
    issue = dma.ISSUE_CYCLES
    cursor = dma.cursor
    stream_acc = stats.stream_cycles
    issue_acc = stats.issue_cycles
    systolic = core.systolic
    busy = systolic.busy_cycles
    transfer_cycles = dma.dram.transfer_cycles
    stream_cache: Dict[int, float] = {}
    stream_get = stream_cache.get
    seg_sum = 0.0
    seg_first = None
    seg_last = 0.0
    comp_sum = 0.0
    clock = None  # cursor value stamped on the audit ledger's clock
    extra = 0.0  # stall-free: outcome.extra_cycles is always 0.0
    for loads, stores, compute, macs in fold.iters:
        load = 0
        for size, _pages in loads:
            stream = stream_get(size)
            if stream is None:
                stream = transfer_cycles(size, share)
                stream_cache[size] = stream
            cycles = issue + extra + stream
            issue_acc += issue
            stream_acc += stream
            clock = cursor
            cursor += cycles
            observe(cycles, cycle=cursor)
            load = load + cycles
        store = 0
        for size, _pages in stores:
            stream = stream_get(size)
            if stream is None:
                stream = transfer_cycles(size, share)
                stream_cache[size] = stream
            cycles = issue + extra + stream
            issue_acc += issue
            stream_acc += stream
            clock = cursor
            cursor += cycles
            observe(cycles, cycle=cursor)
            store = store + cycles
        busy += compute
        comp_sum += compute
        if seg_first is None:
            seg_first = load
        seg_sum += max(load, compute, store)
        seg_last = store
    layer_cycles = seg_sum + (seg_first or 0.0) + seg_last
    audit = telemetry.audit
    if audit.enabled and clock is not None:
        audit.clock = clock
    dma.cursor = cursor
    stats.stream_cycles = stream_acc
    stats.issue_cycles = issue_acc
    stats.requests += fold.subreq
    stats.packets += fold.packets
    stats.bytes_in += fold.bytes_in
    stats.bytes_out += fold.bytes_out
    systolic.busy_cycles = busy
    systolic.macs_done += fold.macs
    return layer_cycles, comp_sum


def _replay_paging(core, fold: _Fold, pte_map, share: float,
                   ctrl: IOMMU) -> Tuple[float, float]:
    """Replay one layer under a precheck-proven IOMMU/sMMU.

    The IOTLB is replayed on an ``OrderedDict`` copy (``move_to_end`` /
    ``popitem(last=False)`` — the cache's own LRU primitives) swapped
    back in at layer end; walk stalls replay sequentially with the exact
    sequential-overlap rule of :meth:`IOMMU._translate_page`.  The DMA
    transfer histogram's ``observe`` is inlined field for field (same
    accumulator order, same reservoir RNG draws) — this loop runs once
    per page of every transfer and dominates the fast path's cost.
    """
    dma = core.dma
    stats = dma.stats
    hist = dma._h_transfer
    h_count = hist.count
    h_epoch = hist._epoch_count
    h_total = hist.total
    h_min = hist.min
    h_max = hist.max
    samples = hist.samples
    samples_append = samples.append
    max_samples = hist.max_samples
    getrandbits = hist._rng.getrandbits
    issue = dma.ISSUE_CYCLES
    cursor = dma.cursor
    stream_acc = stats.stream_cycles
    issue_acc = stats.issue_cycles
    stall_acc = stats.stall_cycles
    systolic = core.systolic
    busy = systolic.busy_cycles
    cstats = ctrl.stats
    iotlb = ctrl.iotlb
    tlb = OrderedDict(iotlb._cache)
    entries = iotlb.entries
    walk_cost = ctrl.walk_cycles
    walk_seq = walk_cost * ctrl.SEQUENTIAL_OVERLAP
    last_vpage = ctrl._last_vpage
    walk_cycles_acc = cstats.walk_cycles
    walk_cursor = ctrl._walk_cursor
    hits = 0
    walks = 0
    pending = ctrl._pending_walk_cycles
    transfer_cycles = dma.dram.transfer_cycles
    stream_cache: Dict[int, float] = {}
    seg_sum = 0.0
    seg_first = None
    seg_last = 0.0
    comp_sum = 0.0
    clock = None  # cursor value stamped on the audit ledger's clock
    tlb_move_end = tlb.move_to_end
    tlb_pop_first = tlb.popitem
    tlb_len = len(tlb)
    stream_get = stream_cache.get
    for loads, stores, compute, macs in fold.iters:
        load = 0
        for size, pages in loads:
            clock = cursor
            pending = 0.0
            for vpage in pages:
                if vpage in tlb:
                    tlb_move_end(vpage)
                    hits += 1
                else:
                    walks += 1
                    stall = walk_seq if vpage == last_vpage + 1 else walk_cost
                    walk_cycles_acc += stall
                    pending += stall
                    walk_cursor += stall
                    if tlb_len >= entries:
                        tlb_pop_first(False)
                    else:
                        tlb_len += 1
                    tlb[vpage] = None
                last_vpage = vpage
            stall_acc += pending
            stream = stream_get(size)
            if stream is None:
                stream = transfer_cycles(size, share)
                stream_cache[size] = stream
            cycles = issue + pending + stream
            issue_acc += issue
            stream_acc += stream
            cursor += cycles
            # Inlined hist.observe(cycles, cycle=cursor):
            h_count += 1
            h_epoch += 1
            h_total += cycles
            if h_min is None or cycles < h_min:
                h_min = cycles
            if h_max is None or cycles > h_max:
                h_max = cycles
            if len(samples) < max_samples:
                samples_append((cursor, cycles))
            elif max_samples > 0:
                # Inlined Random.randrange -> _randbelow_with_getrandbits:
                # identical getrandbits call sequence, identical draws.
                k = h_epoch.bit_length()
                slot = getrandbits(k)
                while slot >= h_epoch:
                    slot = getrandbits(k)
                if slot < max_samples:
                    samples[slot] = (cursor, cycles)
            load = load + cycles
        store = 0
        for size, pages in stores:
            clock = cursor
            pending = 0.0
            for vpage in pages:
                if vpage in tlb:
                    tlb_move_end(vpage)
                    hits += 1
                else:
                    walks += 1
                    stall = walk_seq if vpage == last_vpage + 1 else walk_cost
                    walk_cycles_acc += stall
                    pending += stall
                    walk_cursor += stall
                    if tlb_len >= entries:
                        tlb_pop_first(False)
                    else:
                        tlb_len += 1
                    tlb[vpage] = None
                last_vpage = vpage
            stall_acc += pending
            stream = stream_get(size)
            if stream is None:
                stream = transfer_cycles(size, share)
                stream_cache[size] = stream
            cycles = issue + pending + stream
            issue_acc += issue
            stream_acc += stream
            cursor += cycles
            # Inlined hist.observe(cycles, cycle=cursor):
            h_count += 1
            h_epoch += 1
            h_total += cycles
            if h_min is None or cycles < h_min:
                h_min = cycles
            if h_max is None or cycles > h_max:
                h_max = cycles
            if len(samples) < max_samples:
                samples_append((cursor, cycles))
            elif max_samples > 0:
                # Inlined Random.randrange -> _randbelow_with_getrandbits:
                # identical getrandbits call sequence, identical draws.
                k = h_epoch.bit_length()
                slot = getrandbits(k)
                while slot >= h_epoch:
                    slot = getrandbits(k)
                if slot < max_samples:
                    samples[slot] = (cursor, cycles)
            store = store + cycles
        busy += compute
        comp_sum += compute
        if seg_first is None:
            seg_first = load
        seg_sum += max(load, compute, store)
        seg_last = store
    layer_cycles = seg_sum + (seg_first or 0.0) + seg_last
    audit = telemetry.audit
    if audit.enabled and clock is not None:
        audit.clock = clock
    dma.cursor = cursor
    stats.stream_cycles = stream_acc
    stats.issue_cycles = issue_acc
    stats.stall_cycles = stall_acc
    stats.requests += fold.subreq
    stats.packets += fold.packets
    stats.bytes_in += fold.bytes_in
    stats.bytes_out += fold.bytes_out
    systolic.busy_cycles = busy
    systolic.macs_done += fold.macs
    cstats.translations += fold.packets
    cstats.checks += fold.packets
    cstats.misses += walks
    cstats.page_walks += walks
    cstats.walk_cycles = walk_cycles_acc
    iotlb.hits += hits
    iotlb.misses += walks
    # Pages inserted during replay carry a None sentinel (the PTE value is
    # never read while replaying); resolve them from pte_map on swap-in.
    # Carried-over entries keep their original PTE objects.
    iotlb._cache = OrderedDict(
        (p, v if v is not None else pte_map[p]) for p, v in tlb.items()
    )
    if hist is not NULL_HISTOGRAM:
        # The null histogram's observe() is a no-op: leave the shared
        # singleton untouched, exactly like the event path does.
        hist.count = h_count
        hist._epoch_count = h_epoch
        hist.total = h_total
        hist.min = h_min
        hist.max = h_max
    ctrl._pending_walk_cycles = pending
    ctrl._last_vpage = last_vpage
    ctrl._walk_cursor = walk_cursor
    if walks:
        telemetry.profiler.count("iotlb.walks", walks)
    return layer_cycles, comp_sum


# ----------------------------------------------------------------------
# Run-level dispatch
# ----------------------------------------------------------------------
_KINDS = {NoProtection: "none", NPUGuarder: "guarder",
          IOMMU: "iommu", TrustZoneSMMU: "smmu"}


class FastRun:
    """One core's fast-path context for its run in a sweep.

    :meth:`layer` proves and replays a sweep's shared :class:`LayerFold`
    against this core's controller and counts this run's fallbacks.
    :func:`begin_run` returns None instead of a context when the whole
    run must take the event path.
    """

    __slots__ = ("core", "share", "ctrl", "kind", "switches0")

    def __init__(self, core, share, ctrl, kind) -> None:
        self.core = core
        self.share = share
        self.ctrl = ctrl
        self.kind = kind
        self.switches0 = getattr(ctrl, "world_switches", 0)

    def layer(self, shared: LayerFold) -> Optional[Tuple[float, float]]:
        """(layer_cycles, comp_sum) on the fast path, else None."""
        if shared.layer.iteration_factory is None:
            _fallback("no_iterations")
            return None
        fold = shared.get()
        if fold is None:
            _fallback("fold_error")
            return None
        kind = self.kind
        ctrl = self.ctrl
        if kind in ("none", "guarder"):
            if kind == "guarder" and not _guarder_provable(ctrl, fold):
                _fallback("guarder_unprovable")
                return None
            result = _replay_stall_free(self.core, fold, self.share)
            if kind == "guarder":
                ctrl.stats.translations += fold.subreq
                ctrl.stats.checks += fold.subreq
                telemetry.profiler.count("guarder.checks", fold.subreq)
            _count("fast_layers")
            return result

        # Paging controllers (IOMMU / TrustZone sMMU).
        if kind == "smmu":
            if ctrl.world_switches != self.switches0:
                _fallback("world_switch")
                return None
            if fold.worlds != {ctrl.device_world}:
                # A pending device/world transition (including the
                # secure-task-on-normal-device fault) is the event
                # simulator's business.
                _fallback("world_switch")
                return None
            eff_worlds = (ctrl.device_world,)
        else:
            eff_worlds = tuple(fold.worlds)
        pte_map = shared.paging_proof(ctrl, eff_worlds)
        if pte_map is None:
            _fallback("iommu_unprovable")
            return None
        result = _replay_paging(self.core, fold, pte_map, self.share, ctrl)
        _count("fast_layers")
        return result


def begin_run(core, share: float, flush: Optional[str]) -> Optional[FastRun]:
    """Run-level eligibility gate; None (counted) when the whole run
    must take the event path, None (uncounted) under ``forced(False)``."""
    if _EVENT_ONLY:
        return None
    if flush is not None:
        _fallback("flush")
        return None
    if not share > 0:
        _fallback("share")
        return None
    if telemetry.tracer.enabled or telemetry.flows.enabled:
        # Both observe every individual transfer.  The audit ledger does
        # not: clean requests only stamp its clock (replayed below), and
        # the fast path proves no denial records can occur.
        _fallback("telemetry")
        return None
    dma = core.dma
    if dma.functional:
        _fallback("functional")
        return None
    if dma.encryption is not None:
        _fallback("encryption")
        return None
    if dma.l2 is not None:
        _fallback("l2")
        return None
    if dma.trace is not None:
        _fallback("dma_trace")
        return None
    if getattr(core, "attacker", None) is not None:
        _fallback("attacker")
        return None
    ctrl = core.controller
    kind = _KINDS.get(type(ctrl))
    if kind is None:
        # Unknown controller subclass: its handle() may do anything.
        _fallback("controller")
        return None
    return FastRun(core, share, ctrl, kind)
