"""Multiple secure domains — the paper's §VII extension.

"The sNPU design is flexible and can be extended to support multiple
secure domains...  Increasing the ID-bits for each NPU core allows for
more secure domains, but it comes with the tradeoff of increased hardware
resource usage, particularly in the scratchpad."

This module generalizes the one-bit ID state to ``domain_bits``-wide
domain IDs:

* domain ``0`` is the normal world (public),
* domains ``1 .. 2**bits - 1`` are independent secure domains,
* the access rules generalize the §IV-B ones: on the exclusive scratchpad
  reads require an exact domain match and writes re-tag; on the shared
  scratchpad a core may only touch lines of its own domain or public
  lines, and touching a public line claims it for the core's domain,
* the per-line cost grows linearly in ``domain_bits`` (see
  :func:`repro.analysis.hwcost.multi_domain_spad_cost` and the ablation
  benchmark).

``DomainManager`` is the Monitor-side allocator handing out domain IDs to
secure tasks, bounded by the hardware's ID width.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.common.types import World
from repro.errors import (
    AllocationError,
    ConfigError,
    PrivilegeError,
    ScratchpadIsolationError,
)

if TYPE_CHECKING:
    import numpy as np

#: The public / normal-world domain.
DOMAIN_NORMAL = 0


class MultiDomainScratchpad:
    """Scratchpad whose per-line ID state is a ``domain_bits``-wide tag."""

    def __init__(
        self,
        lines: int,
        line_bytes: int,
        domain_bits: int = 2,
        shared: bool = False,
    ):
        if lines < 1 or line_bytes < 1:
            raise ConfigError(f"bad scratchpad geometry {lines}x{line_bytes}")
        if not 1 <= domain_bits <= 8:
            raise ConfigError(f"domain_bits must be in 1..8, got {domain_bits}")
        import numpy as np

        self.lines = lines
        self.line_bytes = line_bytes
        self.domain_bits = domain_bits
        self.shared = shared
        self.data = np.zeros((lines, line_bytes), dtype=np.uint8)
        self.domain = np.zeros(lines, dtype=np.uint8)
        self.violations = 0

    @property
    def num_domains(self) -> int:
        """Total domains including the normal world."""
        return 1 << self.domain_bits

    def _check_domain(self, domain: int) -> None:
        if not 0 <= domain < self.num_domains:
            raise ConfigError(
                f"domain {domain} outside 0..{self.num_domains - 1} "
                f"({self.domain_bits}-bit IDs)"
            )

    def _check_range(self, line: int, nlines: int) -> None:
        if nlines < 1 or line < 0 or line + nlines > self.lines:
            raise ConfigError(
                f"scratchpad access [{line}, {line + nlines}) outside "
                f"0..{self.lines}"
            )

    # ------------------------------------------------------------------
    def read(self, line: int, nlines: int, domain: int) -> np.ndarray:
        self._check_domain(domain)
        self._check_range(line, nlines)
        tags = self.domain[line : line + nlines]
        if self.shared:
            # May touch own-domain or public lines only.
            foreign = (tags != domain) & (tags != DOMAIN_NORMAL)
            if foreign.any():
                self.violations += 1
                raise ScratchpadIsolationError(
                    f"domain {domain} read of foreign-domain lines "
                    f"[{line}, {line + nlines})"
                )
            if domain != DOMAIN_NORMAL:
                # Touching public lines claims them.
                self.domain[line : line + nlines] = domain
        else:
            if not (tags == domain).all():
                self.violations += 1
                raise ScratchpadIsolationError(
                    f"domain {domain} read of lines [{line}, {line + nlines}) "
                    f"with mismatched domain tags"
                )
        return self.data[line : line + nlines].copy()

    def write(self, line: int, payload: np.ndarray, domain: int) -> None:
        import numpy as np

        self._check_domain(domain)
        payload = np.ascontiguousarray(payload, dtype=np.uint8)
        if payload.ndim == 1:
            if payload.size % self.line_bytes:
                raise ConfigError("payload is not whole lines")
            payload = payload.reshape(-1, self.line_bytes)
        nlines = payload.shape[0]
        self._check_range(line, nlines)
        if self.shared:
            tags = self.domain[line : line + nlines]
            foreign = (tags != domain) & (tags != DOMAIN_NORMAL)
            if foreign.any():
                self.violations += 1
                raise ScratchpadIsolationError(
                    f"domain {domain} write to foreign-domain lines "
                    f"[{line}, {line + nlines})"
                )
        self.domain[line : line + nlines] = domain
        self.data[line : line + nlines] = payload

    def reset_domain(self, line: int, nlines: int, issuer: World) -> None:
        """Secure instruction: downgrade lines to public, scrubbing them."""
        if issuer is not World.SECURE:
            raise PrivilegeError("reset_domain is a secure instruction")
        self._check_range(line, nlines)
        self.data[line : line + nlines] = 0
        self.domain[line : line + nlines] = DOMAIN_NORMAL

    def lines_of_domain(self, domain: int) -> int:
        return int((self.domain == domain).sum())


class DomainRouterFabric:
    """Peephole NoC whose authentication identity is a full domain ID.

    Generalizes :class:`repro.noc.router.NoCFabric`'s one-bit world check:
    the head flit carries the sender core's domain, and the receiver's
    peephole rejects any mismatch — so two *secure* tenants are isolated
    from each other on the NoC, not only from the normal world.  Timing is
    identical to the one-bit fabric (the check still rides the head flit).
    """

    def __init__(self, mesh, hop_cycles: int = 2, flit_bytes: int = 16):
        from repro.noc.router import NoCFabric, NoCPolicy

        self._fabric = NoCFabric(
            mesh, policy=NoCPolicy.UNAUTHORIZED,
            hop_cycles=hop_cycles, flit_bytes=flit_bytes,
        )
        self.domains = [DOMAIN_NORMAL] * mesh.size
        self.rejections = 0

    def set_domain(self, core_id: int, domain: int, issuer: World) -> None:
        if issuer is not World.SECURE:
            raise PrivilegeError("router domains are set by the secure world")
        self.domains[core_id] = domain

    def transfer(self, src: int, dst: int, nbytes: int) -> float:
        from repro.errors import NoCAuthError

        if self.domains[src] != self.domains[dst]:
            self.rejections += 1
            raise NoCAuthError(
                f"peephole: core {dst} (domain {self.domains[dst]}) rejected "
                f"packet from core {src} (domain {self.domains[src]})"
            )
        return self._fabric.transfer(src, dst, nbytes)

    def latency_cycles(self, src: int, dst: int, nbytes: int) -> float:
        return self._fabric.latency_cycles(src, dst, nbytes)


class DomainManager:
    """Monitor-side allocation of hardware domain IDs to secure tasks."""

    def __init__(self, domain_bits: int = 2):
        if not 1 <= domain_bits <= 8:
            raise ConfigError(f"domain_bits must be in 1..8, got {domain_bits}")
        self.domain_bits = domain_bits
        self._owners: Dict[int, int] = {}  # domain -> task_id

    @property
    def capacity(self) -> int:
        """Concurrently supported secure domains (domain 0 is the normal
        world and never allocated)."""
        return (1 << self.domain_bits) - 1

    def allocate(self, task_id: int) -> int:
        """Assign a free secure domain to *task_id*."""
        for domain in range(1, self.capacity + 1):
            if domain not in self._owners:
                self._owners[domain] = task_id
                return domain
        raise AllocationError(
            f"all {self.capacity} secure domains are in use "
            f"({self.domain_bits}-bit hardware IDs)"
        )

    def release(self, domain: int) -> None:
        if domain not in self._owners:
            raise AllocationError(f"domain {domain} is not allocated")
        del self._owners[domain]

    def owner_of(self, domain: int) -> Optional[int]:
        return self._owners.get(domain)

    @property
    def in_use(self) -> int:
        return len(self._owners)
