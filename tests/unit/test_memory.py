"""Unit tests for the memory substrate: map, DRAM, page table, allocator."""

import pytest

from repro.common.types import AddressRange, PAGE_SIZE, Permission, World
from repro.errors import AllocationError, ConfigError
from repro.memory.allocator import Chunk, ChunkAllocator
from repro.memory.dram import DRAMModel
from repro.memory.pagetable import PageTable
from repro.memory.regions import MemoryMap, Region


class TestMemoryMap:
    def test_default_has_three_regions(self, memmap):
        names = [r.name for r in memmap.regions]
        assert names == ["normal", "npu_reserved", "secure"]

    def test_regions_are_disjoint(self, memmap):
        regions = memmap.regions
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                assert not a.range.overlaps(b.range)

    def test_world_of(self, memmap):
        secure = memmap.region("secure")
        assert memmap.world_of(secure.range.base) is World.SECURE
        normal = memmap.region("normal")
        assert memmap.world_of(normal.range.base) is World.NORMAL
        assert memmap.world_of(0) is None

    def test_secure_ranges(self, memmap):
        ranges = memmap.secure_ranges()
        assert len(ranges) == 1
        assert ranges[0] == memmap.region("secure").range

    def test_overlapping_region_rejected(self, memmap):
        base = memmap.region("normal").range.base
        with pytest.raises(ConfigError):
            memmap.add(Region("dup", AddressRange(base, 16), World.NORMAL))

    def test_duplicate_name_rejected(self):
        m = MemoryMap()
        m.add(Region("a", AddressRange(0, 16), World.NORMAL))
        with pytest.raises(ConfigError):
            m.add(Region("a", AddressRange(100, 16), World.NORMAL))

    def test_unknown_region_name(self, memmap):
        with pytest.raises(ConfigError):
            memmap.region("nope")

    def test_region_of_requires_full_containment(self, memmap):
        normal = memmap.region("normal")
        end = normal.range.end
        assert memmap.region_of(end - 1, 1) is normal
        assert memmap.region_of(end - 1, 2) is not normal


class TestDRAM:
    def test_write_read_roundtrip(self, dram):
        dram.write(0x8000_0000, b"hello world")
        assert dram.read(0x8000_0000, 11) == b"hello world"

    def test_cross_page_write(self, dram):
        addr = PAGE_SIZE - 4
        dram.write(addr, b"12345678")
        assert dram.read(addr, 8) == b"12345678"

    def test_unwritten_reads_zero(self, dram):
        assert dram.read(0x1234, 8) == bytes(8)

    def test_zero(self, dram):
        dram.write(100, b"\xff" * 32)
        dram.zero(100, 32)
        assert dram.read(100, 32) == bytes(32)

    def test_sparse_residency(self, dram):
        dram.write(0, b"x")
        dram.write(100 * PAGE_SIZE, b"y")
        assert dram.resident_bytes == 2 * PAGE_SIZE

    def test_transfer_cycles(self, dram):
        assert dram.transfer_cycles(160) == 10.0
        assert dram.transfer_cycles(160, share=0.5) == 20.0

    def test_transfer_cycles_follow_bandwidth(self):
        dram = DRAMModel(32.0)
        assert dram.transfer_cycles(160) == 5.0
        assert dram.transfer_cycles(160, share=0.5) == 10.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            DRAMModel(access_latency=-1)

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigError):
            DRAMModel(0)

    def test_invalid_share(self, dram):
        for share in (0, 1.5):
            with pytest.raises(ConfigError):
                dram.transfer_cycles(10, share=share)


class TestPageTable:
    def test_map_and_translate(self):
        table = PageTable()
        table.map_range(0x10000, 0x80000, 2 * PAGE_SIZE)
        assert table.translate(0x10004) == 0x80004
        assert table.translate(0x10000 + PAGE_SIZE) == 0x80000 + PAGE_SIZE
        assert table.translate(0x10000 + 2 * PAGE_SIZE) is None

    def test_unaligned_map_rejected(self):
        with pytest.raises(ConfigError):
            PageTable().map_range(0x10001, 0x80000, PAGE_SIZE)

    def test_unmap(self):
        table = PageTable()
        table.map_range(0, 0x80000, PAGE_SIZE)
        table.unmap_range(0, PAGE_SIZE)
        assert table.translate(0) is None

    def test_world_and_perm_stored(self):
        table = PageTable()
        table.map_range(
            0, 0x80000, PAGE_SIZE, perm=Permission.READ, world=World.SECURE
        )
        pte = table.lookup(0)
        assert pte.perm is Permission.READ
        assert pte.world is World.SECURE

    def test_invalid_levels(self):
        with pytest.raises(ConfigError):
            PageTable(levels=0)

    def test_len(self):
        table = PageTable()
        table.map_range(0, 0, 3 * PAGE_SIZE)
        assert len(table) == 3


class TestChunkAllocator:
    def make(self, size=1 << 20) -> ChunkAllocator:
        return ChunkAllocator(AddressRange(0x1000, size))

    def test_alloc_within_range(self):
        alloc = self.make()
        chunk = alloc.alloc(100)
        assert alloc.range.contains(chunk.base, chunk.size)

    def test_alloc_alignment(self):
        alloc = self.make()
        chunk = alloc.alloc(100)
        assert chunk.base % 64 == 0
        assert chunk.size % 64 == 0

    def test_allocations_disjoint(self):
        alloc = self.make()
        chunks = [alloc.alloc(1000) for _ in range(10)]
        for i, a in enumerate(chunks):
            for b in chunks[i + 1 :]:
                assert a.end <= b.base or b.end <= a.base

    def test_out_of_memory(self):
        alloc = self.make(size=4096)
        with pytest.raises(AllocationError):
            alloc.alloc(8192)

    def test_free_and_reuse(self):
        alloc = self.make(size=4096)
        chunk = alloc.alloc(4096)
        with pytest.raises(AllocationError):
            alloc.alloc(64)
        alloc.free(chunk)
        assert alloc.alloc(4096).base == chunk.base

    def test_coalescing(self):
        alloc = self.make(size=4096)
        a = alloc.alloc(1024)
        b = alloc.alloc(1024)
        c = alloc.alloc(2048)
        alloc.free(a)
        alloc.free(c)
        alloc.free(b)  # middle last: all three must merge
        assert alloc.largest_hole == 4096
        assert alloc.fragmentation == 0.0

    def test_double_free_rejected(self):
        alloc = self.make()
        chunk = alloc.alloc(64)
        alloc.free(chunk)
        with pytest.raises(AllocationError):
            alloc.free(chunk)

    def test_zero_alloc_rejected(self):
        with pytest.raises(AllocationError):
            self.make().alloc(0)

    def test_owns(self):
        alloc = self.make()
        chunk = alloc.alloc(128)
        assert alloc.owns(chunk.base, 128)
        assert not alloc.owns(chunk.end, 1)

    def test_accounting(self):
        alloc = self.make(size=4096)
        alloc.alloc(1024)
        assert alloc.used_bytes == 1024
        assert alloc.free_bytes == 3072

    def test_bad_alignment_config(self):
        with pytest.raises(ConfigError):
            ChunkAllocator(AddressRange(0, 64), alignment=3)

    def test_reset(self):
        alloc = self.make()
        alloc.alloc(64)
        alloc.reset()
        assert alloc.used_bytes == 0
        assert alloc.allocated_chunks == []
