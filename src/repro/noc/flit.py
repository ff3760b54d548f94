"""NoC packets.

"Most NoC networks utilize a package-based protocol.  A package typically
consists of a head flit, several body flits, and a tail flit.  The head
flit contains route information, specifying the path between the source
and target cores" (§IV-B).  The sNPU extension adds the sender's identity
(its ID/world bit) to the head flit, which the receiving router's peephole
authenticates.  A packet is timed by its flit count (:meth:`Packet.n_flits`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.types import World
from repro.errors import ConfigError


@dataclass
class Packet:
    """One NoC packet: head + body flits + tail.

    ``world`` is the sender identity the head flit carries to the
    receiver's peephole.
    """

    src: int
    dst: int
    nbytes: int
    world: World
    #: Flow ID allocated at injection (telemetry; None = flow tracing off).
    flow_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ConfigError(f"packet with negative payload {self.nbytes}")

    def n_flits(self, flit_bytes: int = 16) -> int:
        return max(1, -(-self.nbytes // flit_bytes))
