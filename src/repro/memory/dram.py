"""DRAM model: functional backing store plus channel timing.

Timing follows Table II: a single channel delivering ``bandwidth_gbps`` at a
1 GHz SoC clock, i.e. ``bandwidth_gbps`` bytes per cycle, with a fixed
random-access latency charged to serialized accesses such as IOMMU page
walks.

The functional store is sparse (a dict of 4 KiB pages) so that a multi-GiB
address space costs nothing until it is touched.  Functional storage is only
exercised by security/functional tests; the performance benches run with the
DMA engine in timing-only mode.
"""

from __future__ import annotations

from typing import Dict

from repro import telemetry
from repro.common.types import PAGE_SIZE, DmaRequest
from repro.errors import ConfigError


class DRAMModel:
    """Sparse functional memory with a shared-bandwidth timing model."""

    def __init__(self, bytes_per_cycle: float = 16.0, access_latency: int = 40):
        if access_latency < 0:
            raise ConfigError(f"negative DRAM latency {access_latency}")
        if bytes_per_cycle <= 0:
            raise ConfigError(f"bandwidth must be positive, got {bytes_per_cycle}")
        self.bytes_per_cycle = float(bytes_per_cycle)
        #: Latency in cycles of one serialized random access (page-walk step).
        self.access_latency = int(access_latency)
        self._pages: Dict[int, bytearray] = {}
        self.reads = 0
        self.writes = 0
        tel = telemetry.metrics.group("memory.dram")
        tel.bind("reads", self, "reads")
        tel.bind("writes", self, "writes")
        tel.bind("resident_bytes", self, "resident_bytes")

    # ------------------------------------------------------------------
    # Functional access
    # ------------------------------------------------------------------
    def _page(self, page_no: int) -> bytearray:
        page = self._pages.get(page_no)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_no] = page
        return page

    def write(self, addr: int, data: bytes) -> None:
        """Store *data* at physical address *addr* (crossing pages freely)."""
        self.writes += 1
        offset = 0
        while offset < len(data):
            cur = addr + offset
            page_no, in_page = divmod(cur, PAGE_SIZE)
            run = min(len(data) - offset, PAGE_SIZE - in_page)
            self._page(page_no)[in_page : in_page + run] = data[
                offset : offset + run
            ]
            offset += run

    def read(self, addr: int, size: int) -> bytes:
        """Load *size* bytes from physical address *addr*."""
        self.reads += 1
        out = bytearray(size)
        offset = 0
        while offset < size:
            cur = addr + offset
            page_no, in_page = divmod(cur, PAGE_SIZE)
            run = min(size - offset, PAGE_SIZE - in_page)
            page = self._pages.get(page_no)
            if page is not None:
                out[offset : offset + run] = page[in_page : in_page + run]
            offset += run
        return bytes(out)

    def zero(self, addr: int, size: int) -> None:
        """Clear ``[addr, addr+size)`` (used by flush-style mechanisms)."""
        self.write(addr, bytes(size))

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def transfer_cycles(self, nbytes: float, share: float = 1.0) -> float:
        """Streaming transfer time for *nbytes* at a bandwidth *share*
        (two concurrently active tasks split the channel)."""
        if share <= 0 or share > 1:
            raise ConfigError(f"bandwidth share must be in (0, 1], got {share}")
        return nbytes / (self.bytes_per_cycle * share)

    def record_flow(self, request: DmaRequest, nbytes: float) -> None:
        """Annotate *request*'s flow with the bytes it moved on this channel."""
        flows = telemetry.flows
        if flows.enabled and request.flow_id is not None:
            flows.accumulate(request.flow_id, "dram_bytes", float(nbytes))

    @property
    def resident_bytes(self) -> int:
        """Bytes of functional storage actually allocated."""
        return len(self._pages) * PAGE_SIZE
