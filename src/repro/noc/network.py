"""Contention-aware NoC network: concurrent wormhole transfers.

:class:`~repro.noc.router.NoCFabric` times one transfer in isolation; this
module adds **link arbitration** so concurrent flows contend for shared
mesh links — the regime multi-core NPUs actually run in ("NoC is
indispensable for the multi-core NPUs, as it enables scalable computing
resources", §IV-B).

Model: a wormhole packet occupies each directed link of its X-Y path for
the duration of its flit train.  Links grant in request order (greedy
arbitration); a packet's head waits until every link of its path is free
from its arrival onward (conservative circuit-style reservation — real
wormhole can overlap more, so this bounds contention from above).  The
peephole check happens at the destination's head-flit arrival exactly as
in the single-transfer fabric, and a rejected packet releases its links
immediately after the head flit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.common.types import World
from repro.errors import ConfigError, NoCAuthError
from repro.noc.mesh import Mesh

Link = Tuple[int, int]


@dataclass
class TransferOutcome:
    """One completed (or rejected) transfer through the network."""

    src: int
    dst: int
    nbytes: int
    arrival: float
    start: float
    finish: float
    rejected: bool = False

    @property
    def latency(self) -> float:
        return self.finish - self.arrival

    @property
    def queueing(self) -> float:
        return self.start - self.arrival


class WormholeNetwork:
    """Greedy link-reserving wormhole network over a 2-D mesh."""

    def __init__(
        self,
        mesh: Mesh,
        hop_cycles: int = 2,
        flit_bytes: int = 16,
        peephole: bool = True,
    ):
        if hop_cycles < 1 or flit_bytes < 1:
            raise ConfigError("hop_cycles and flit_bytes must be >= 1")
        self.mesh = mesh
        self.hop_cycles = hop_cycles
        self.flit_bytes = flit_bytes
        self.peephole = peephole
        self.worlds: List[World] = [World.NORMAL] * mesh.size
        self._link_free: Dict[Link, float] = {}
        self.outcomes: List[TransferOutcome] = []
        tel = telemetry.metrics.group("noc.network")
        tel.bind("transfers", self, "delivered_packets")
        tel.bind("rejected", self, "rejected_packets")
        tel.bind("bytes_delivered", self, "bytes_delivered")
        tel.bind("throughput", self, "aggregate_throughput")
        self._h_latency = tel.histogram("latency_cycles")
        self._h_queueing = tel.histogram("queueing_cycles")

    @property
    def delivered_packets(self) -> int:
        return sum(1 for o in self.outcomes if not o.rejected)

    @property
    def rejected_packets(self) -> int:
        return sum(1 for o in self.outcomes if o.rejected)

    @property
    def bytes_delivered(self) -> int:
        return sum(o.nbytes for o in self.outcomes if not o.rejected)

    def set_world(self, core_id: int, world: World, issuer: World) -> None:
        from repro.errors import PrivilegeError

        if issuer is not World.SECURE:
            raise PrivilegeError("core identities are set by the secure world")
        self.worlds[core_id] = world

    # ------------------------------------------------------------------
    def _links(self, src: int, dst: int) -> List[Link]:
        path = self.mesh.path(src, dst)
        return list(zip(path, path[1:]))

    def transfer(self, src: int, dst: int, nbytes: int, arrival: float = 0.0) -> TransferOutcome:
        """Submit one transfer arriving at *arrival*; returns its outcome.

        Raises :class:`~repro.errors.NoCAuthError` on a peephole rejection
        (the outcome is still recorded, with ``rejected=True``).
        """
        if nbytes < 0 or arrival < 0:
            raise ConfigError("negative transfer size or arrival time")
        links = self._links(src, dst)
        n_flits = max(1, -(-nbytes // self.flit_bytes))
        flows = telemetry.flows
        flow_id = flows.allocate() if flows.enabled else None

        # The head may start once every path link is free (greedy grant).
        start = arrival
        for link in links:
            start = max(start, self._link_free.get(link, 0.0))

        head_at_dst = start + len(links) * self.hop_cycles
        if self.peephole and self.worlds[src] is not self.worlds[dst]:
            # The head flit traversed the path and was rejected; the links
            # are released right behind it.
            for i, link in enumerate(links):
                self._link_free[link] = start + (i + 1) * self.hop_cycles
            outcome = TransferOutcome(
                src=src, dst=dst, nbytes=nbytes, arrival=arrival,
                start=start, finish=head_at_dst, rejected=True,
            )
            self.outcomes.append(outcome)
            flows.abort(flow_id)
            audit = telemetry.audit
            if audit.enabled:
                audit.record(
                    "noc.deny", "deny", cycle=arrival,
                    world=self.worlds[src].name, flow=flow_id,
                    reason="world_mismatch", router=dst, src=src,
                )
            raise NoCAuthError(
                f"network: core {dst} ({self.worlds[dst].name}) rejected "
                f"packet from core {src} ({self.worlds[src].name})"
            )

        finish = head_at_dst + n_flits
        # Each link stays busy until the tail flit has crossed it.
        for i, link in enumerate(links):
            self._link_free[link] = start + (i + 1) * self.hop_cycles + n_flits
        outcome = TransferOutcome(
            src=src, dst=dst, nbytes=nbytes, arrival=arrival,
            start=start, finish=finish,
        )
        self.outcomes.append(outcome)
        self._h_latency.observe(outcome.latency)
        self._h_queueing.observe(outcome.queueing)
        if flows.enabled and flow_id is not None:
            # Real queueing here: link arbitration holds the head at the
            # injection port until the whole path is free.
            flows.complete(
                flow_id, "noc", arrival, outcome.latency,
                parts=[
                    ("inject", "queueing", outcome.queueing),
                    ("route", "service", len(links) * self.hop_cycles),
                    ("peephole", "security", 0.0),
                    ("serialization", "service", float(n_flits)),
                ],
                residual=("serialization", "service"),
                world=self.worlds[src].name,
                stream=f"{src}->{dst}",
                nbytes=nbytes,
                context="noc.network",
                track="noc",
            )
        return outcome

    # ------------------------------------------------------------------
    def aggregate_throughput(self) -> float:
        """Delivered bytes per cycle over the busy window."""
        delivered = [o for o in self.outcomes if not o.rejected]
        if not delivered:
            return 0.0
        span = max(o.finish for o in delivered) - min(o.arrival for o in delivered)
        return sum(o.nbytes for o in delivered) / span if span else 0.0

    def reset(self) -> None:
        self._link_free.clear()
        self.outcomes.clear()
