"""IOMMU with IOTLB: the paging-based access-control baseline.

This models the sMMU/IOMMU in front of a Type-1 integrated NPU (Fig. 2):

* every 64-byte memory packet performs an IOTLB lookup and a permission
  check (the per-packet cost Fig. 13(b) counts),
* an IOTLB miss triggers a multi-level IO page-table walk whose serialized
  DRAM accesses stall the DMA stream (the 10–20 % loss of Fig. 13(a)),
* the NS bit stored in the PTE implements the TrustZone extension
  (see :mod:`repro.mmu.smmu`).

The IOTLB is a true LRU cache over page numbers, simulated against the
exact page-touch sequence the tiling compiler generates, so the ping-pong
behaviour between the input/weight/output streams with few entries is
emergent, not scripted.  Consecutive packets to the same page are folded
into one lookup for miss simulation (they can never miss), keeping the
simulation fast while the per-packet *counters* stay exact.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro import telemetry
from repro.common.types import (
    DmaRequest,
    PAGE_SIZE,
    Permission,
    World,
    page_of,
    pages_of_range,
)
from repro.errors import AccessViolation, ConfigError, TranslationFault
from repro.memory.pagetable import PageTable, PageTableEntry
from repro.mmu.base import AccessController, TranslationOutcome


class IOTLB:
    """Fully associative LRU translation cache keyed by virtual page."""

    def __init__(self, entries: int):
        if entries < 1:
            raise ConfigError(f"IOTLB needs >= 1 entry, got {entries}")
        self.entries = entries
        self._cache: "OrderedDict[int, PageTableEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, vpage: int) -> Optional[PageTableEntry]:
        pte = self._cache.get(vpage)
        if pte is not None:
            self._cache.move_to_end(vpage)
            self.hits += 1
        else:
            self.misses += 1
        return pte

    def insert(self, vpage: int, pte: PageTableEntry) -> None:
        if vpage in self._cache:
            self._cache.move_to_end(vpage)
            self._cache[vpage] = pte
            return
        if len(self._cache) >= self.entries:
            self._cache.popitem(last=False)
        self._cache[vpage] = pte

    def invalidate(self, vpage: Optional[int] = None) -> None:
        """Flush one page or (with None) the entire IOTLB."""
        if vpage is None:
            self._cache.clear()
        else:
            self._cache.pop(vpage, None)

    @property
    def occupancy(self) -> int:
        return len(self._cache)


class IOMMU(AccessController):
    """Per-packet translating IOMMU with an LRU IOTLB.

    Parameters
    ----------
    page_table:
        The IO page table the walker descends on a miss.
    iotlb_entries:
        Number of IOTLB entries ("IOTLB-4" ... "IOTLB-32" in Fig. 13).
    walk_cycles:
        Stall cycles of one page walk.  None (the default) reads
        :attr:`DEFAULT_WALK_CYCLES` when the IOMMU is built, so assigning
        the class attribute changes every IOMMU built afterwards.
    enforce_world:
        When True the PTE's NS bit is checked against the request world.
    functional:
        Build exact physical runs for functional data movement (slower;
        only the security/functional tests need it).
    """

    #: Default page-walk stall: a 3-level IO page table whose upper levels
    #: hit the walker's page-walk cache - about one serialized DRAM access
    #: plus walker overhead.
    DEFAULT_WALK_CYCLES = 48.0
    #: Fraction of a walk exposed when the missed page continues a
    #: sequential stream: the walker overlaps the next-page walk with the
    #: current page's ~256-cycle transfer, hiding about half of it (one
    #: outstanding walk, issued after the stream crosses the boundary).
    SEQUENTIAL_OVERLAP = 0.5

    def __init__(
        self,
        page_table: PageTable,
        iotlb_entries: int = 16,
        walk_cycles: Optional[float] = None,
        enforce_world: bool = True,
        functional: bool = False,
    ):
        super().__init__()
        self.page_table = page_table
        self.iotlb = IOTLB(iotlb_entries)
        self.walk_cycles = float(
            self.DEFAULT_WALK_CYCLES if walk_cycles is None else walk_cycles
        )
        self.enforce_world = enforce_world
        self.functional = functional
        self.name = f"iommu-{iotlb_entries}"
        self._pending_walk_cycles = 0.0
        self._last_vpage = -2
        tel = telemetry.metrics.group("mmu.iommu")
        tel.bind("translations", self.stats, "translations")
        tel.bind("checks", self.stats, "checks")
        tel.bind("page_walks", self.stats, "page_walks")
        tel.bind("walk_cycles", self.stats, "walk_cycles")
        tel.bind("violations", self.stats, "violations")
        tel.bind("iotlb_hits", self.iotlb, "hits")
        tel.bind("iotlb_misses", self.iotlb, "misses")
        tel.bind("iotlb_occupancy", self.iotlb, "occupancy")
        #: Walk cursor: cumulative stall cycles, the walk spans' timebase.
        self._walk_cursor = 0.0

    # ------------------------------------------------------------------
    def _world_allows(self, pte_world: World, request_world: World) -> bool:
        # TrustZone rule: secure initiators may touch both worlds; normal
        # initiators may only touch normal pages.
        return not (pte_world is World.SECURE and request_world is not World.SECURE)

    def _translate_page(self, vpage: int, request: DmaRequest) -> PageTableEntry:
        """IOTLB lookup + walk-on-miss for one page; charges stall cycles."""
        pte = self.iotlb.lookup(vpage)
        if pte is None:
            self.stats.misses += 1
            self.stats.page_walks += 1
            stall = self.walk_cycles
            if vpage == self._last_vpage + 1:
                stall *= self.SEQUENTIAL_OVERLAP
            self.stats.walk_cycles += stall
            self._pending_walk_cycles += stall
            telemetry.profiler.count("iotlb.walks")
            flows = telemetry.flows
            if flows.enabled and request.flow_id is not None:
                flows.accumulate(request.flow_id, "iotlb_walks", 1)
                flows.accumulate(request.flow_id, "walk_cycles", stall)
            tracer = telemetry.tracer
            if tracer.enabled:
                tracer.span(
                    "iotlb.walk", "iotlb", ts=self._walk_cursor, dur=stall,
                    track="iommu", vpage=vpage,
                )
            self._walk_cursor += stall
            pte = self.page_table.lookup(vpage)
            if pte is None:
                self.stats.violations += 1
                self._audit_deny(request, "unmapped", vpage)
                raise TranslationFault(
                    f"IOMMU: no mapping for vpage {vpage:#x} "
                    f"({request.stream} {'write' if request.is_write else 'read'})"
                )
            self.iotlb.insert(vpage, pte)
        return pte

    def _audit_deny(self, request: DmaRequest, reason: str, vpage: int) -> None:
        audit = telemetry.audit
        if audit.enabled:
            audit.record(
                "iommu.deny", "deny", world=request.world.name,
                flow=request.flow_id, reason=reason, vpage=vpage,
                stream=request.stream, controller=self.name,
            )

    def _check_pte(self, pte: PageTableEntry, request: DmaRequest, vpage: int) -> None:
        need = self.required_permission(request)
        if not pte.perm.allows(need):
            self.stats.violations += 1
            self._audit_deny(request, "permission", vpage)
            raise AccessViolation(
                f"IOMMU: permission {pte.perm!r} denies {need!r} on vpage {vpage:#x}"
            )
        if self.enforce_world and not self._world_allows(pte.world, request.world):
            self.stats.violations += 1
            self._audit_deny(request, "world", vpage)
            raise AccessViolation(
                f"IOMMU: world {request.world.name} cannot access "
                f"{pte.world.name} vpage {vpage:#x}"
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _page_sequence(request: DmaRequest) -> List[int]:
        """Deduplicated page-touch order of the request's packets.

        Folding immediately repeated pages is exact for LRU miss counting:
        a page cannot be evicted between two back-to-back packets.
        """
        if request.rows <= 1:
            return pages_of_range(request.vaddr, request.size)
        if request.row_stride < PAGE_SIZE:
            span = (request.rows - 1) * request.row_stride + request.row_bytes
            return pages_of_range(request.vaddr, span)
        # Widely strided rows: each row touches its own page(s).
        seq: List[int] = []
        last = -1
        for base, size in request.row_ranges():
            for page in pages_of_range(base, size):
                if page != last:
                    seq.append(page)
                    last = page
        return seq

    def _precise_runs(self, request: DmaRequest) -> List[tuple]:
        """Exact physical runs for functional copies (no stat side effects)."""
        runs: List[tuple] = []
        for base, size in request.row_ranges():
            offset = 0
            while offset < size:
                cur = base + offset
                vpage = page_of(cur)
                pte = self.page_table.lookup(vpage)
                if pte is None:
                    raise TranslationFault(
                        f"IOMMU: no mapping for vpage {vpage:#x}"
                    )
                in_page = cur % PAGE_SIZE
                run = min(size - offset, PAGE_SIZE - in_page)
                paddr = pte.ppage * PAGE_SIZE + in_page
                if runs and runs[-1][0] + runs[-1][1] == paddr:
                    runs[-1] = (runs[-1][0], runs[-1][1] + run)
                else:
                    runs.append((paddr, run))
                offset += run
        return runs

    def handle(self, request: DmaRequest) -> TranslationOutcome:
        # Per-packet bookkeeping: every 64 B packet performs one IOTLB
        # lookup and one permission check (Fig. 13(b) counts these).
        npackets = request.num_packets
        self.stats.translations += npackets
        self.stats.checks += npackets

        self._pending_walk_cycles = 0.0
        first_pte: Optional[PageTableEntry] = None
        for vpage in self._page_sequence(request):
            pte = self._translate_page(vpage, request)
            self._last_vpage = vpage
            self._check_pte(pte, request, vpage)
            if first_pte is None:
                first_pte = pte
        if first_pte is None:  # pragma: no cover - size>0 is enforced upstream
            raise TranslationFault("IOMMU: empty request")

        if self.functional:
            runs = self._precise_runs(request)
        else:
            paddr = first_pte.ppage * PAGE_SIZE + request.vaddr % PAGE_SIZE
            runs = [(paddr, request.size)]
        return TranslationOutcome(runs=runs, extra_cycles=self._pending_walk_cycles)

    def reset_stats(self) -> None:
        super().reset_stats()
        self._pending_walk_cycles = 0.0
        self.iotlb.hits = 0
        self.iotlb.misses = 0

    def invalidate_iotlb(self) -> None:
        """Full IOTLB shootdown (context switch / world switch)."""
        self.iotlb.invalidate()
        telemetry.profiler.count("iotlb.shootdowns")
        tracer = telemetry.tracer
        if tracer.enabled:
            tracer.instant(
                "iotlb.shootdown", "iotlb", ts=self._walk_cursor, track="iommu"
            )
