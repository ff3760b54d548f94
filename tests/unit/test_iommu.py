"""Unit tests for the IOMMU / IOTLB baseline."""

import pytest

from repro.common.types import DmaRequest, PAGE_SIZE, Permission, World
from repro.errors import AccessViolation, ConfigError, TranslationFault
from repro.memory.pagetable import PageTable, PageTableEntry
from repro.mmu.iommu import IOMMU, IOTLB


def make_iommu(entries=4, pages=64, world=World.NORMAL, perm=Permission.RW,
               **kwargs) -> IOMMU:
    table = PageTable()
    table.map_range(0, 0x100000, pages * PAGE_SIZE, perm=perm, world=world)
    return IOMMU(table, iotlb_entries=entries, **kwargs)


class TestIOTLB:
    def test_miss_then_hit(self):
        tlb = IOTLB(2)
        assert tlb.lookup(1) is None
        tlb.insert(1, PageTableEntry(ppage=10))
        assert tlb.lookup(1).ppage == 10
        assert tlb.misses == 1 and tlb.hits == 1

    def test_lru_eviction(self):
        tlb = IOTLB(2)
        for page in (1, 2):
            tlb.insert(page, PageTableEntry(ppage=page))
        tlb.lookup(1)  # 1 is now most recent
        tlb.insert(3, PageTableEntry(ppage=3))  # evicts 2
        assert tlb.lookup(2) is None
        assert tlb.lookup(1) is not None
        assert tlb.lookup(3) is not None

    def test_invalidate_all(self):
        tlb = IOTLB(4)
        tlb.insert(1, PageTableEntry(ppage=1))
        tlb.invalidate()
        assert tlb.occupancy == 0

    def test_invalidate_one(self):
        tlb = IOTLB(4)
        tlb.insert(1, PageTableEntry(ppage=1))
        tlb.insert(2, PageTableEntry(ppage=2))
        tlb.invalidate(1)
        assert tlb.lookup(1) is None
        assert tlb.lookup(2) is not None

    def test_zero_entries_rejected(self):
        with pytest.raises(ConfigError):
            IOTLB(0)

    def test_reinsert_updates(self):
        tlb = IOTLB(1)
        tlb.insert(1, PageTableEntry(ppage=1))
        tlb.insert(1, PageTableEntry(ppage=99))
        assert tlb.lookup(1).ppage == 99


class TestIOMMUTranslation:
    def test_per_packet_counting(self):
        iommu = make_iommu()
        req = DmaRequest(vaddr=0, size=256, is_write=False)  # 4 packets
        iommu.handle(req)
        assert iommu.stats.translations == 4
        assert iommu.stats.checks == 4

    def test_first_touch_misses_then_hits(self):
        iommu = make_iommu()
        req = DmaRequest(vaddr=0, size=64, is_write=False)
        out1 = iommu.handle(req)
        assert iommu.stats.misses == 1
        assert out1.extra_cycles > 0
        out2 = iommu.handle(req)
        assert iommu.stats.misses == 1  # hit: no new miss
        assert out2.extra_cycles == 0.0

    def test_sequential_walk_overlap(self):
        iommu = make_iommu(entries=16)
        # Touch page 0 then page 1: the second walk is sequential.
        iommu.handle(DmaRequest(vaddr=0, size=64, is_write=False))
        first = iommu.stats.walk_cycles
        iommu.handle(DmaRequest(vaddr=PAGE_SIZE, size=64, is_write=False))
        second = iommu.stats.walk_cycles - first
        assert second == pytest.approx(first * IOMMU.SEQUENTIAL_OVERLAP)

    def test_default_walk_cost_is_read_at_construction(self, monkeypatch):
        """``IOMMU.DEFAULT_WALK_CYCLES`` is the one override point of the
        walk cost: an IOMMU or sMMU built after it is assigned walks at
        the new cost."""
        from repro.mmu.smmu import TrustZoneSMMU

        monkeypatch.setattr(IOMMU, "DEFAULT_WALK_CYCLES", 96.0)
        table = PageTable()
        table.map_range(0, 0x100000, 4 * PAGE_SIZE)
        for mmu in (IOMMU(table), TrustZoneSMMU(table)):
            outcome = mmu.handle(DmaRequest(vaddr=0, size=64, is_write=False))
            assert mmu.walk_cycles == 96.0
            assert outcome.extra_cycles == mmu.stats.walk_cycles == 96.0

    def test_unmapped_faults(self):
        iommu = make_iommu(pages=1)
        with pytest.raises(TranslationFault):
            iommu.handle(DmaRequest(vaddr=PAGE_SIZE, size=64, is_write=False))
        assert iommu.stats.violations == 1

    def test_physical_address_offset(self):
        iommu = make_iommu()
        out = iommu.handle(DmaRequest(vaddr=0x123, size=8, is_write=False))
        assert out.paddr == 0x100000 + 0x123

    def test_write_to_readonly_rejected(self):
        iommu = make_iommu(perm=Permission.READ)
        with pytest.raises(AccessViolation):
            iommu.handle(DmaRequest(vaddr=0, size=64, is_write=True))

    def test_normal_world_blocked_from_secure_pages(self):
        iommu = make_iommu(world=World.SECURE)
        with pytest.raises(AccessViolation):
            iommu.handle(
                DmaRequest(vaddr=0, size=64, is_write=False, world=World.NORMAL)
            )

    def test_secure_world_allowed_on_secure_pages(self):
        iommu = make_iommu(world=World.SECURE)
        iommu.handle(
            DmaRequest(vaddr=0, size=64, is_write=False, world=World.SECURE)
        )

    def test_secure_world_allowed_on_normal_pages(self):
        iommu = make_iommu(world=World.NORMAL)
        iommu.handle(
            DmaRequest(vaddr=0, size=64, is_write=False, world=World.SECURE)
        )

    def test_world_enforcement_can_be_disabled(self):
        iommu = make_iommu(world=World.SECURE, enforce_world=False)
        iommu.handle(DmaRequest(vaddr=0, size=64, is_write=False))


class TestIOMMUPageSequence:
    def test_contiguous_sequence(self):
        req = DmaRequest(vaddr=0, size=2 * PAGE_SIZE, is_write=False)
        assert IOMMU._page_sequence(req) == [0, 1]

    def test_small_stride_folds_to_span(self):
        req = DmaRequest(
            vaddr=0, size=8 * 64, is_write=False,
            rows=8, row_bytes=64, row_stride=256,
        )
        assert IOMMU._page_sequence(req) == [0]

    def test_wide_stride_per_row(self):
        req = DmaRequest(
            vaddr=0, size=3 * 64, is_write=False,
            rows=3, row_bytes=64, row_stride=2 * PAGE_SIZE,
        )
        assert IOMMU._page_sequence(req) == [0, 2, 4]

    def test_functional_runs_are_exact(self):
        iommu = make_iommu(functional=True)
        req = DmaRequest(
            vaddr=PAGE_SIZE - 32, size=64, is_write=False,
        )
        out = iommu.handle(req)
        assert out.runs == [(0x100000 + PAGE_SIZE - 32, 64)]
        assert out.total_bytes == 64

    def test_functional_runs_split_on_discontiguity(self):
        table = PageTable()
        table.map_page(0, 100)
        table.map_page(1, 200)  # physically discontiguous
        iommu = IOMMU(table, iotlb_entries=4, functional=True)
        out = iommu.handle(
            DmaRequest(vaddr=PAGE_SIZE - 32, size=64, is_write=False)
        )
        assert out.runs == [
            (100 * PAGE_SIZE + PAGE_SIZE - 32, 32),
            (200 * PAGE_SIZE, 32),
        ]

    def test_reset_stats_clears_tlb_counters(self):
        iommu = make_iommu()
        iommu.handle(DmaRequest(vaddr=0, size=64, is_write=False))
        iommu.reset_stats()
        assert iommu.stats.translations == 0
        assert iommu.iotlb.hits == 0 and iommu.iotlb.misses == 0

    def test_invalidate_iotlb_forces_rewalk(self):
        iommu = make_iommu()
        req = DmaRequest(vaddr=0, size=64, is_write=False)
        iommu.handle(req)
        iommu.invalidate_iotlb()
        iommu.handle(req)
        assert iommu.stats.misses == 2

    def test_smaller_tlb_never_fewer_misses(self):
        def misses(entries):
            iommu = make_iommu(entries=entries)
            # A cyclic pattern over 8 pages, repeated.
            for _ in range(3):
                for page in range(8):
                    iommu.handle(
                        DmaRequest(
                            vaddr=page * PAGE_SIZE, size=64, is_write=False
                        )
                    )
            return iommu.stats.misses

        assert misses(4) >= misses(8) >= misses(16)
