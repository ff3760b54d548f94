"""NPU Guarder: tile-based translation and checking registers (§IV-A, §V).

The Guarder replaces per-packet paging with two small register files placed
*inside* the NPU core, before the DMA engine:

* **checking registers** — each records a contiguous *physical* region, its
  access authority (R/W) and the world allowed to touch it.  They encode
  the platform memory map (normal DRAM / NPU-reserved heap / secure region)
  and are rarely rewritten; only the secure controller (the NPU Monitor via
  a secure instruction) may program them.
* **translation registers** — each maps one virtual tile/chunk range onto a
  physical range.  They may be updated before each NPU calculation.  The
  untrusted driver programs them for non-secure tasks; the Monitor's
  context setter programs them for secure tasks.

A DMA request is translated and checked **once per request** (not per
64-byte packet), which is why the Guarder adds zero stall cycles and needs
~5 % of the IOMMU's lookup count (Fig. 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import telemetry
from repro.common.types import AddressRange, DmaRequest, Permission, World
from repro.errors import (
    AccessViolation,
    ConfigError,
    PrivilegeError,
    TranslationFault,
)
from repro.mmu.base import AccessController, TranslationOutcome


@dataclass
class CheckingRegister:
    """One coarse-grained physical-region authority record."""

    range: AddressRange
    perm: Permission
    world: World
    valid: bool = True

    def covers(self, addr: int, size: int) -> bool:
        return self.valid and self.range.contains(addr, size)

    def allows(self, need: Permission, world: World) -> bool:
        if not self.perm.allows(need):
            return False
        if self.world is World.SECURE and world is not World.SECURE:
            return False
        return True


@dataclass
class TranslationRegister:
    """One fine-grained VA range -> PA range mapping (tile level)."""

    vbase: int
    pbase: int
    size: int
    valid: bool = True

    def covers(self, vaddr: int, size: int) -> bool:
        return self.valid and self.vbase <= vaddr and vaddr + size <= self.vbase + self.size

    def translate(self, vaddr: int) -> int:
        return self.pbase + (vaddr - self.vbase)


class NPUGuarder(AccessController):
    """Register-based, request-granular DMA translation and checking.

    Parameters
    ----------
    num_checking:
        Checking-register file size (platform regions; 8 is generous).
    num_translation:
        Translation-register file size (concurrent tile mappings).
    """

    name = "guarder"

    def __init__(self, num_checking: int = 8, num_translation: int = 16):
        super().__init__()
        if num_checking < 1 or num_translation < 1:
            raise ConfigError("Guarder needs at least one register of each kind")
        self.checking: List[Optional[CheckingRegister]] = [None] * num_checking
        self.translation: List[Optional[TranslationRegister]] = [None] * num_translation
        #: Register reprogramming events (energy accounting; cheap but nonzero).
        self.checking_writes = 0
        self.translation_writes = 0
        tel = telemetry.metrics.group("mmu.guarder")
        tel.bind("translations", self.stats, "translations")
        tel.bind("checks", self.stats, "checks")
        tel.bind("denials", self.stats, "violations")
        tel.bind("checking_writes", self, "checking_writes")
        tel.bind("translation_writes", self, "translation_writes")

    # ------------------------------------------------------------------
    # Configuration (the secure controller / driver programs these)
    # ------------------------------------------------------------------
    def set_checking_register(
        self,
        index: int,
        range_: AddressRange,
        perm: Permission,
        world: World,
        issuer: World = World.NORMAL,
    ) -> None:
        """Program a checking register — a secure instruction.

        "the secure context (e.g., ID states and checking registers) can
        only be set by the secure CPU" (§IV-C); the untrusted driver
        attempting it faults.
        """
        if issuer is not World.SECURE:
            audit = telemetry.audit
            if audit.enabled:
                audit.record(
                    "privilege.deny", "deny", world=issuer.name,
                    op="guarder.set_checking_register", index=index,
                )
            raise PrivilegeError(
                "checking registers can only be programmed by the secure world"
            )
        self._check_index(index, self.checking, "checking")
        self.checking[index] = CheckingRegister(range=range_, perm=perm, world=world)
        self.checking_writes += 1
        audit = telemetry.audit
        if audit.enabled:
            audit.record(
                "guarder.program", "allow", world=issuer.name,
                register="checking", index=index, region_world=world.name,
                base=range_.base, size=range_.size,
            )
        tracer = telemetry.tracer
        if tracer.enabled:
            tracer.instant(
                "guarder.program_checking", "guarder", track="guarder",
                index=index, world=world.name,
            )

    def clear_checking_register(self, index: int, issuer: World = World.NORMAL) -> None:
        if issuer is not World.SECURE:
            raise PrivilegeError(
                "checking registers can only be cleared by the secure world"
            )
        self._check_index(index, self.checking, "checking")
        self.checking[index] = None

    def set_translation_register(
        self, index: int, vbase: int, pbase: int, size: int
    ) -> None:
        self._check_index(index, self.translation, "translation")
        if size <= 0:
            raise ConfigError(f"translation register size must be positive, got {size}")
        self.translation[index] = TranslationRegister(vbase=vbase, pbase=pbase, size=size)
        self.translation_writes += 1
        audit = telemetry.audit
        if audit.enabled:
            audit.record(
                "guarder.program", "allow",
                register="translation", index=index, size=size,
            )
        tracer = telemetry.tracer
        if tracer.enabled:
            tracer.instant(
                "guarder.program_translation", "guarder", track="guarder",
                index=index, size=size,
            )

    def clear_translation_register(self, index: int) -> None:
        self._check_index(index, self.translation, "translation")
        self.translation[index] = None

    def clear_all_translations(self) -> None:
        self.translation = [None] * len(self.translation)

    @staticmethod
    def _check_index(index: int, file_: list, kind: str) -> None:
        if not 0 <= index < len(file_):
            raise ConfigError(
                f"{kind} register index {index} out of range 0..{len(file_) - 1}"
            )

    # ------------------------------------------------------------------
    # The datapath
    # ------------------------------------------------------------------
    def _find_translation(
        self, vaddr: int, size: int, request: DmaRequest
    ) -> TranslationRegister:
        for reg in self.translation:
            if reg is not None and reg.covers(vaddr, size):
                return reg
        self.stats.violations += 1
        self._trace_denial("translation_miss", vaddr, request)
        raise TranslationFault(
            f"Guarder: no translation register covers "
            f"[{vaddr:#x}, {vaddr + size:#x})"
        )

    def _trace_denial(self, reason: str, addr: int, request: DmaRequest) -> None:
        audit = telemetry.audit
        if audit.enabled:
            audit.record(
                "guarder.deny", "deny", world=request.world.name,
                flow=request.flow_id, reason=reason, addr=addr,
                stream=request.stream,
            )
        tracer = telemetry.tracer
        if tracer.enabled:
            tracer.instant(
                "guarder.denial", "guarder", track="guarder",
                reason=reason, addr=hex(addr),
            )

    def _check_physical(self, paddr: int, size: int, request: DmaRequest) -> None:
        need = self.required_permission(request)
        for reg in self.checking:
            if reg is not None and reg.covers(paddr, size):
                if reg.allows(need, request.world):
                    return
                self.stats.violations += 1
                self._trace_denial("permission", paddr, request)
                raise AccessViolation(
                    f"Guarder: checking register denies {need!r} by "
                    f"{request.world.name} at [{paddr:#x}, {paddr + size:#x}) "
                    f"(region world {reg.world.name}, perm {reg.perm!r})"
                )
        # Default deny: a physical range no register covers is unreachable.
        self.stats.violations += 1
        self._trace_denial("uncovered", paddr, request)
        raise AccessViolation(
            f"Guarder: no checking register covers [{paddr:#x}, {paddr + size:#x})"
        )

    def handle(self, request: DmaRequest) -> TranslationOutcome:
        # One translation + one check per architectural DMA descriptor —
        # request-granular instead of packet-granular (Fig. 13(b)).
        self.stats.translations += request.sub_requests
        self.stats.checks += request.sub_requests
        telemetry.profiler.count("guarder.checks", request.sub_requests)

        # The request's virtual footprint (including strided rows) must lie
        # inside one translation register, which maps a whole tile/chunk.
        if request.rows > 1:
            span = (request.rows - 1) * request.row_stride + request.row_bytes
        else:
            span = request.size
        reg = self._find_translation(request.vaddr, span, request)
        pbase = reg.translate(request.vaddr)
        self._check_physical(pbase, span, request)

        runs = [
            (reg.translate(vaddr), size) for vaddr, size in request.row_ranges()
        ]
        return TranslationOutcome(runs=runs, extra_cycles=0.0)
