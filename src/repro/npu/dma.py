"""The NPU's DMA engine.

The engine receives tile-granular :class:`~repro.common.types.DmaRequest`
descriptors, pushes each through the configured
:class:`~repro.mmu.base.AccessController` (translation + permission check),
splits it into 64-byte memory packets and streams them over the DRAM
channel.  Timing:

``cycles = issue_overhead + controller_stalls + bytes / (bandwidth * share)``

where ``controller_stalls`` is zero for the Guarder and the accumulated
page-walk time for the IOMMU — the mechanism difference Fig. 13(a)
measures.

In *functional* mode the engine actually copies bytes between the DRAM
model and the scratchpad, which is what lets the attack scenarios observe
real data movement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import telemetry
from repro.common.types import PACKET_BYTES, World
from repro.errors import ConfigError
from repro.memory.dram import DRAMModel
from repro.memory.encryption import MemoryEncryptionEngine
from repro.memory.l2cache import L2Cache
from repro.mmu.base import AccessController
from repro.npu.config import NPUConfig
from repro.npu.isa import SpadTransfer
from repro.npu.scratchpad import Scratchpad


@dataclass
class DMAStats:
    requests: int = 0
    packets: int = 0
    bytes_in: float = 0.0
    bytes_out: float = 0.0
    stall_cycles: float = 0.0
    #: Fixed descriptor-issue overhead accumulated across transfers.
    issue_cycles: float = 0.0
    #: Pure streaming time (DRAM/L2 byte movement), no overheads.
    stream_cycles: float = 0.0
    #: Memory-encryption-engine cycles on the DRAM path.
    crypto_cycles: float = 0.0

    def reset(self) -> None:
        self.requests = 0
        self.packets = 0
        self.bytes_in = 0.0
        self.bytes_out = 0.0
        self.stall_cycles = 0.0
        self.issue_cycles = 0.0
        self.stream_cycles = 0.0
        self.crypto_cycles = 0.0


@dataclass(frozen=True)
class TraceRecord:
    """One traced DMA transfer (for offline analysis / CSV export)."""

    index: int
    vaddr: int
    size: int
    is_write: bool
    stream: str
    cycles: float

    def csv_row(self) -> str:
        rw = "W" if self.is_write else "R"
        return (
            f"{self.index},{self.vaddr:#x},{self.size},{rw},"
            f"{self.stream},{self.cycles:.1f}"
        )


class DMAEngine:
    """Moves tiles between system memory and the scratchpads."""

    #: Fixed cycles to issue one DMA descriptor.
    ISSUE_CYCLES = 4.0

    def __init__(
        self,
        config: NPUConfig,
        controller: AccessController,
        dram: DRAMModel,
        scratchpad: Optional[Scratchpad] = None,
        accumulator: Optional[Scratchpad] = None,
        functional: bool = False,
        encryption: Optional[MemoryEncryptionEngine] = None,
        l2: Optional[L2Cache] = None,
    ):
        if functional and scratchpad is None:
            raise ConfigError("functional DMA needs a scratchpad to copy into")
        self.config = config
        self.controller = controller
        self.dram = dram
        self.scratchpad = scratchpad
        self.accumulator = accumulator
        self.functional = functional
        #: Optional memory encryption engine on the DRAM path (§VII):
        #: data at rest is ciphertext; loads decrypt + integrity-check.
        self.encryption = encryption
        #: Optional explicit shared-L2 model (Table II); hits are served
        #: at L2 bandwidth instead of the DRAM channel.
        self.l2 = l2
        self.stats = DMAStats()
        #: Trace buffer; None = tracing off (see :meth:`start_trace`).
        self.trace: Optional[list] = None
        #: Cycle cursor of this engine's private timeline (sum of transfer
        #: latencies); the timebase for its telemetry spans.
        self.cursor = 0.0
        #: Issuing context stamped onto flow records (the NPU core sets it
        #: to the current layer name on the detailed timing path).
        self.flow_context = ""
        tel = telemetry.metrics.group("npu.dma")
        self._track = tel.prefix.replace("npu.", "")
        tel.bind("requests", self.stats, "requests")
        tel.bind("packets", self.stats, "packets")
        tel.bind("bytes_in", self.stats, "bytes_in")
        tel.bind("bytes_out", self.stats, "bytes_out")
        tel.bind("stall_cycles", self.stats, "stall_cycles")
        tel.bind("issue_cycles", self.stats, "issue_cycles")
        tel.bind("stream_cycles", self.stats, "stream_cycles")
        tel.bind("crypto_cycles", self.stats, "crypto_cycles")
        self._h_transfer = tel.histogram("transfer_cycles")

    def _target_spad(self, transfer: SpadTransfer) -> Scratchpad:
        spad = self.accumulator if transfer.to_accumulator else self.scratchpad
        if spad is None:
            raise ConfigError("transfer targets a scratchpad that does not exist")
        return spad

    def execute(self, transfer: SpadTransfer, share: float = 1.0) -> float:
        """Run one transfer; returns its latency in cycles.

        Security violations raised by the access controller propagate to
        the caller — a blocked DMA never moves data nor time.
        """
        request = transfer.request
        flows = telemetry.flows
        request.flow_id = flows.allocate() if flows.enabled else None
        audit = telemetry.audit
        if audit.enabled:
            # Downstream denials are stamped with this request's time.
            audit.clock = self.cursor
        try:
            outcome = self.controller.handle(request)
        except Exception:
            flows.abort(request.flow_id)
            raise

        self.stats.requests += request.sub_requests
        self.stats.packets += request.num_packets
        if request.is_write:
            self.stats.bytes_out += request.size
        else:
            self.stats.bytes_in += request.size
        self.stats.stall_cycles += outcome.extra_cycles

        if self.l2 is not None:
            hit_bytes, miss_bytes = self.l2.access(request)
            stream_cycles = self.l2.transfer_cycles(
                hit_bytes
            ) + self.dram.transfer_cycles(miss_bytes, share)
            self.dram.record_flow(request, miss_bytes)
        else:
            stream_cycles = self.dram.transfer_cycles(request.size, share)
            self.dram.record_flow(request, request.size)
        cycles = self.ISSUE_CYCLES + outcome.extra_cycles + stream_cycles
        self.stats.issue_cycles += self.ISSUE_CYCLES
        self.stats.stream_cycles += stream_cycles
        crypto = 0.0
        if self.encryption is not None:
            crypto = self.encryption.extra_cycles(request.size)
            cycles += crypto
            self.stats.crypto_cycles += crypto

        tracer = telemetry.tracer
        if tracer.enabled:
            tracer.span(
                f"dma.{request.stream}", "dma", ts=self.cursor, dur=cycles,
                track=self._track, bytes=request.size,
                rw="W" if request.is_write else "R",
                stalls=outcome.extra_cycles,
            )
        if flows.enabled and request.flow_id is not None:
            # Span chain on this engine's timeline: descriptor issue, the
            # controller's security stalls (page walks; zero under the
            # Guarder), the memory stream, then the encryption engine.
            # split_exact inside complete() guarantees the components sum
            # bit-exactly to this transfer's end-to-end latency.
            flows.complete(
                request.flow_id, "dma", self.cursor, cycles,
                parts=[
                    ("issue", "service", self.ISSUE_CYCLES),
                    ("security", "security", outcome.extra_cycles),
                    ("memory", "service", stream_cycles),
                    ("crypto", "service", crypto),
                ],
                residual=("memory", "service"),
                world=request.world.name,
                stream=request.stream,
                nbytes=request.size,
                context=self.flow_context,
                track=self._track,
            )
        self.cursor += cycles
        self._h_transfer.observe(cycles)

        if self.trace is not None:
            self.trace.append(
                TraceRecord(
                    index=len(self.trace),
                    vaddr=request.vaddr,
                    size=request.size,
                    is_write=request.is_write,
                    stream=request.stream,
                    cycles=cycles,
                )
            )
        if self.functional:
            self._copy(transfer, outcome.runs)
        return cycles

    # ------------------------------------------------------------------
    def start_trace(self) -> None:
        """Begin recording every transfer (cleared on each call)."""
        self.trace = []

    def stop_trace(self) -> list:
        """Stop tracing; returns the recorded transfers."""
        trace, self.trace = self.trace or [], None
        return trace

    @staticmethod
    def trace_csv(records: list) -> str:
        """Render trace records as CSV (header + one row per transfer)."""
        lines = ["index,vaddr,size,rw,stream,cycles"]
        lines += [record.csv_row() for record in records]
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    def _mem_write(self, paddr: int, data: bytes) -> None:
        if self.encryption is not None:
            self.encryption.write(paddr, data)
        else:
            self.dram.write(paddr, data)

    def _mem_read(self, paddr: int, size: int) -> bytes:
        if self.encryption is not None:
            return self.encryption.read(paddr, size)
        return self.dram.read(paddr, size)

    def _copy(self, transfer: SpadTransfer, runs) -> None:
        import numpy as np

        spad = self._target_spad(transfer)
        nbytes = transfer.lines * spad.line_bytes
        if transfer.request.is_write:
            payload = spad.read(
                transfer.spad_line, transfer.lines, transfer.request.world
            )
            flat = payload.reshape(-1).tobytes()
            offset = 0
            for paddr, size in runs:
                chunk = flat[offset : offset + size]
                self._mem_write(paddr, chunk)
                offset += size
                if offset >= len(flat):
                    break
        else:
            collected = bytearray()
            for paddr, size in runs:
                collected += self._mem_read(paddr, size)
                if len(collected) >= nbytes:
                    break
            collected = collected[:nbytes]
            if len(collected) < nbytes:
                collected += bytes(nbytes - len(collected))
            payload = np.frombuffer(bytes(collected), dtype=np.uint8).reshape(
                transfer.lines, spad.line_bytes
            )
            spad.write(transfer.spad_line, payload, transfer.request.world)
