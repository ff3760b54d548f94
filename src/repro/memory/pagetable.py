"""Page tables for the IOMMU baseline.

The TrustZone-NPU baseline translates DMA packets through an IO page table
identical in structure to a CPU page table (multi-level radix tree).  The
simulator stores the table as a flat ``{virtual page -> PTE}`` dict — the
radix structure only matters for *walk cost*, which the IOMMU computes from
``levels`` and an optional page-walk cache model.

PTEs carry a world bit: the TrustZone sMMU extension stores the NS bit in
the page table ("an additional secure bit is used in the sMMU", §II-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.types import PAGE_SIZE, Permission, World, page_of
from repro.errors import ConfigError


@dataclass(frozen=True)
class PageTableEntry:
    """One valid leaf mapping: virtual page -> physical page."""

    ppage: int
    perm: Permission = Permission.RW
    world: World = World.NORMAL


class PageTable:
    """Flat functional model of a multi-level IO page table."""

    def __init__(self, levels: int = 3):
        if levels < 1:
            raise ConfigError(f"page table needs >= 1 level, got {levels}")
        self.levels = levels
        self._entries: Dict[int, PageTableEntry] = {}

    def map_page(
        self,
        vpage: int,
        ppage: int,
        perm: Permission = Permission.RW,
        world: World = World.NORMAL,
    ) -> None:
        self._entries[vpage] = PageTableEntry(ppage=ppage, perm=perm, world=world)

    def map_range(
        self,
        vaddr: int,
        paddr: int,
        size: int,
        perm: Permission = Permission.RW,
        world: World = World.NORMAL,
    ) -> None:
        """Map a page-aligned virtual range onto a physical range 1:1."""
        if vaddr % PAGE_SIZE or paddr % PAGE_SIZE:
            raise ConfigError(
                f"map_range requires page-aligned addresses "
                f"(vaddr={vaddr:#x}, paddr={paddr:#x})"
            )
        npages = -(-size // PAGE_SIZE)
        vbase, pbase = page_of(vaddr), page_of(paddr)
        for i in range(npages):
            self.map_page(vbase + i, pbase + i, perm=perm, world=world)

    def unmap_range(self, vaddr: int, size: int) -> None:
        vbase = page_of(vaddr)
        npages = -(-size // PAGE_SIZE)
        for i in range(npages):
            self._entries.pop(vbase + i, None)

    def lookup(self, vpage: int) -> Optional[PageTableEntry]:
        return self._entries.get(vpage)

    def translate(self, vaddr: int) -> Optional[int]:
        """Translate one byte address; None when unmapped."""
        pte = self.lookup(page_of(vaddr))
        if pte is None:
            return None
        return pte.ppage * PAGE_SIZE + vaddr % PAGE_SIZE

    def __len__(self) -> int:
        return len(self._entries)
