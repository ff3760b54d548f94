"""TrustZone sMMU: the industry's coarse-grained NPU TEE baseline (§II-D).

A smartphone vendor "extends the sMMU of the NPU with the TrustZone
extension: an additional secure bit is used in the sMMU to indicate whether
the corresponding NPU is a secure device or not".  Consequences modelled
here:

* the whole NPU is either a secure device or a normal device
  (``device_world``) — there is no per-task granularity,
* switching worlds requires an IOTLB shootdown and clearing all sensitive
  NPU context (the scheduler charges the scratchpad save/clear cost),
* a normal-world device faults on secure PTEs, a secure device may touch
  both worlds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro import telemetry
from repro.common.types import DmaRequest, World
from repro.errors import AccessViolation
from repro.memory.pagetable import PageTable
from repro.mmu.base import TranslationOutcome
from repro.mmu.iommu import IOMMU


class TrustZoneSMMU(IOMMU):
    """IOMMU whose effective world is a single device-level NS bit."""

    def __init__(
        self,
        page_table: PageTable,
        iotlb_entries: int = 16,
        walk_cycles: Optional[float] = None,
    ):
        super().__init__(
            page_table,
            iotlb_entries=iotlb_entries,
            walk_cycles=walk_cycles,
            enforce_world=True,
        )
        self.device_world = World.NORMAL
        self.world_switches = 0
        self.name = f"tz-smmu-{iotlb_entries}"
        telemetry.metrics.group("mmu.smmu").bind(
            "world_switches", self, "world_switches"
        )

    def switch_world(self, world: World) -> None:
        """Flip the device NS bit.

        The TrustZone NPU design requires "clearing all sensitive NPU
        context during mode switching"; the sMMU's share of that is a full
        IOTLB shootdown.  Scratchpad clearing is charged by the scheduler,
        which owns the scratchpad.
        """
        if world is not self.device_world:
            self.world_switches += 1
            telemetry.profiler.count("smmu.world_switches")
            self.invalidate_iotlb()
            audit = telemetry.audit
            if audit.enabled:
                audit.record(
                    "smmu.world_switch", "allow",
                    world=world.name, from_world=self.device_world.name,
                )
            self.device_world = world
            tracer = telemetry.tracer
            if tracer.enabled:
                tracer.instant(
                    "smmu.world_switch", "world_switch", track="iommu",
                    to=world.name,
                )

    def handle(self, request: DmaRequest) -> TranslationOutcome:
        # The device has a single identity: a request "from a secure task"
        # on a normal-world device is impossible by construction, and a
        # normal task cannot run while the device is secure.  The effective
        # initiator world is the device's.
        if request.world is World.SECURE and self.device_world is World.NORMAL:
            self.stats.violations += 1
            self._audit_deny(request, "device_world", request.vaddr // 4096)
            raise AccessViolation(
                "TrustZone sMMU: secure task offloaded while the NPU is a "
                "normal-world device"
            )
        effective = replace(request, world=self.device_world)
        return super().handle(effective)
