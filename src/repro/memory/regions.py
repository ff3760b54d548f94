"""Physical memory map of the simulated SoC.

The map mirrors a TrustZone-style mobile SoC (§II-A, §IV-A):

* a **normal** DRAM region for the untrusted OS and applications,
* an **NPU-reserved** region (the ION/CMA-style contiguous DMA heap the
  NPU driver allocates chunks from),
* a **secure** region holding the monitor, secure-task models/data and the
  secure NPU DMA buffers (the "TrustZone secure memory area" the Guarder's
  checking register protects).

Every region carries the :class:`~repro.common.types.World` that owns it;
access controllers consult the map to decide whether a physical access from
a given world is legal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.types import AddressRange, Permission, World
from repro.errors import ConfigError

#: Default base of DRAM in the physical address space (RISC-V convention).
DRAM_BASE = 0x8000_0000

#: Default region sizes (bytes). Small enough for functional tests, large
#: enough that every workload's chunks fit.
DEFAULT_NORMAL_SIZE = 192 << 20
DEFAULT_NPU_RESERVED_SIZE = 192 << 20
DEFAULT_SECURE_SIZE = 128 << 20


@dataclass(frozen=True)
class Region:
    """A named physical region with an owning world and access permissions."""

    name: str
    range: AddressRange
    world: World
    perm: Permission = Permission.RW

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.range.contains(addr, size)


class MemoryMap:
    """Ordered collection of non-overlapping physical regions."""

    def __init__(self, regions: Optional[List[Region]] = None):
        self._regions: List[Region] = []
        for region in regions or []:
            self.add(region)

    @classmethod
    def default(
        cls,
        normal_size: int = DEFAULT_NORMAL_SIZE,
        npu_reserved_size: int = DEFAULT_NPU_RESERVED_SIZE,
        secure_size: int = DEFAULT_SECURE_SIZE,
    ) -> "MemoryMap":
        """Build the default mobile-SoC style map used by every experiment."""
        base = DRAM_BASE
        normal = Region("normal", AddressRange(base, normal_size), World.NORMAL)
        base += normal_size
        reserved = Region(
            "npu_reserved", AddressRange(base, npu_reserved_size), World.NORMAL
        )
        base += npu_reserved_size
        secure = Region("secure", AddressRange(base, secure_size), World.SECURE)
        return cls([normal, reserved, secure])

    def add(self, region: Region) -> None:
        for existing in self._regions:
            if existing.range.overlaps(region.range):
                raise ConfigError(
                    f"region {region.name!r} overlaps {existing.name!r}"
                )
            if existing.name == region.name:
                raise ConfigError(f"duplicate region name {region.name!r}")
        self._regions.append(region)

    @property
    def regions(self) -> List[Region]:
        return list(self._regions)

    def region(self, name: str) -> Region:
        for region in self._regions:
            if region.name == name:
                return region
        raise ConfigError(f"no region named {name!r}")

    def region_of(self, addr: int, size: int = 1) -> Optional[Region]:
        """Region fully containing ``[addr, addr+size)`` or None."""
        for region in self._regions:
            if region.contains(addr, size):
                return region
        return None

    def world_of(self, addr: int, size: int = 1) -> Optional[World]:
        region = self.region_of(addr, size)
        return region.world if region else None

    def secure_ranges(self) -> List[AddressRange]:
        """Physical ranges that belong to the secure world."""
        return [r.range for r in self._regions if r.world is World.SECURE]
