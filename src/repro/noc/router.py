"""Router controllers with the peephole authentication FSM (Fig. 12, §V).

Each NPU core owns a router controller with a send engine and a receive
engine.  A transfer proceeds: the sender leaves ``IDLE``, enters
``PEEPHOLE`` (generates the authentication identity — the core's ID/world
bit — and places it in the head flit), then ``TRANSFER`` streams body
flits, one per cycle, wormhole style.  The receiver authenticates the head
flit's identity against its own ID state: mismatch rejects the packet
(:class:`~repro.errors.NoCAuthError`) before any body flit is accepted.

"Notably, authentication occurs only once.  After verified, the router map
locks, preventing other cores from using this channel" — a successful
authentication locks the receive channel to the sender; other senders are
rejected until the channel is released.  The check rides the head flit's
normal processing, so the peephole adds **zero cycles** over the
unauthorized NoC — the property Fig. 16 demonstrates.

A packet's timing is therefore a closed form, whatever the policy: the
head flit arrives ``hops * hop_cycles`` after injection and the tail
``n_flits`` cycles later.  :class:`NoCFabric` keeps one cycle cursor and
sends its packets one after another from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import telemetry
from repro.common.types import World
from repro.errors import ConfigError, NoCAuthError, PrivilegeError
from repro.noc.flit import Packet
from repro.noc.mesh import Mesh


class NoCPolicy(enum.Enum):
    UNAUTHORIZED = "unauthorized"
    PEEPHOLE = "peephole"


class RouterState(enum.Enum):
    IDLE = "idle"
    PEEPHOLE = "peephole"
    TRANSFER = "transfer"


@dataclass
class RouterStats:
    packets_sent: int = 0
    packets_received: int = 0
    packets_rejected: int = 0
    flits_moved: int = 0


class RouterController:
    """Send/receive engines of one core's router."""

    def __init__(self, fabric: "NoCFabric", core_id: int, world: World = World.NORMAL):
        self.fabric = fabric
        self.core_id = core_id
        self.world = world
        self.state = RouterState.IDLE
        #: Receive channel lock: sender id after a successful authentication.
        self.locked_src: Optional[int] = None
        self.stats = RouterStats()

    def set_world(self, world: World, issuer: World) -> None:
        """The router's identity follows the core's ID state (secure insn)."""
        if issuer is not World.SECURE:
            audit = telemetry.audit
            if audit.enabled:
                audit.record(
                    "privilege.deny", "deny", world=issuer.name,
                    op="router.set_world", router=self.core_id,
                )
            raise PrivilegeError("router identity follows the core's secure ID state")
        self.world = world

    def release_channel(self, issuer: World) -> None:
        """Unlock the receive channel (task teardown, via the Monitor)."""
        if self.locked_src is not None and self.world is World.SECURE:
            if issuer is not World.SECURE:
                audit = telemetry.audit
                if audit.enabled:
                    audit.record(
                        "privilege.deny", "deny", world=issuer.name,
                        op="router.release_channel", router=self.core_id,
                    )
                raise PrivilegeError("a secure channel is released by the secure world")
        if self.locked_src is not None:
            audit = telemetry.audit
            if audit.enabled:
                audit.record(
                    "noc.release", "allow", world=self.world.name,
                    router=self.core_id, src=self.locked_src,
                )
        self.locked_src = None

    # ------------------------------------------------------------------
    def _audit_reject(self, packet: Packet, reason: str) -> None:
        audit = telemetry.audit
        if audit.enabled:
            audit.record(
                "noc.deny", "deny", world=packet.world.name,
                flow=packet.flow_id, reason=reason,
                router=self.core_id, src=packet.src,
            )

    def authenticate(self, packet: Packet) -> None:
        """Receive-engine peephole check on the head flit."""
        if self.fabric.policy is not NoCPolicy.PEEPHOLE:
            return
        if packet.world is not self.world:
            self.stats.packets_rejected += 1
            self._audit_reject(packet, "world_mismatch")
            raise NoCAuthError(
                f"router {self.core_id} ({self.world.name}) rejected packet "
                f"from core {packet.src} ({packet.world.name})"
            )
        if self.locked_src is not None and self.locked_src != packet.src:
            self.stats.packets_rejected += 1
            self._audit_reject(packet, "channel_locked")
            raise NoCAuthError(
                f"router {self.core_id} channel is locked to core "
                f"{self.locked_src}; core {packet.src} rejected"
            )
        if self.locked_src is None:
            audit = telemetry.audit
            if audit.enabled:
                audit.record(
                    "noc.grant", "allow", world=packet.world.name,
                    flow=packet.flow_id, router=self.core_id, src=packet.src,
                )
        self.locked_src = packet.src


class NoCFabric:
    """The mesh fabric: wires routers together and times each packet in
    closed form on its own cycle cursor."""

    def __init__(
        self,
        mesh: Mesh,
        policy: NoCPolicy = NoCPolicy.UNAUTHORIZED,
        hop_cycles: int = 2,
        flit_bytes: int = 16,
    ):
        if hop_cycles < 1 or flit_bytes < 1:
            raise ConfigError("hop_cycles and flit_bytes must be >= 1")
        self.mesh = mesh
        self.policy = policy
        self.hop_cycles = hop_cycles
        self.flit_bytes = flit_bytes
        #: Cycle cursor: packets inject here, one after another; a
        #: delivery moves it to the tail's arrival, a rejection to the
        #: head's.
        self.now = 0.0
        self.routers: List[RouterController] = [
            RouterController(self, i) for i in range(mesh.size)
        ]
        tel = telemetry.metrics.group("noc.fabric")
        tel.bind("packets_sent", self, "packets_sent")
        tel.bind("packets_received", self, "packets_received")
        tel.bind("packets_rejected", self, "packets_rejected")
        tel.bind("flits_moved", self, "flits_moved")

    # ------------------------------------------------------------------
    # Fabric-wide aggregates over the per-router stats (telemetry view)
    # ------------------------------------------------------------------
    @property
    def packets_sent(self) -> int:
        return sum(r.stats.packets_sent for r in self.routers)

    @property
    def packets_received(self) -> int:
        return sum(r.stats.packets_received for r in self.routers)

    @property
    def packets_rejected(self) -> int:
        return sum(r.stats.packets_rejected for r in self.routers)

    @property
    def flits_moved(self) -> int:
        return sum(r.stats.flits_moved for r in self.routers)

    # ------------------------------------------------------------------
    def _wormhole(self, src: int, dst: int, nbytes: int) -> Tuple[int, int]:
        """Cycles for the head flit to traverse the hops, and the flits
        that drain behind it, one per cycle."""
        hops = self.mesh.hops(src, dst)
        n_flits = Packet(src, dst, nbytes, self.routers[src].world).n_flits(
            self.flit_bytes
        )
        return hops * self.hop_cycles, n_flits

    def latency_cycles(self, src: int, dst: int, nbytes: int) -> float:
        """Wormhole latency of one packet: the head traverses the hops,
        then one flit per cycle drains behind it."""
        route, n_flits = self._wormhole(src, dst, nbytes)
        return route + n_flits

    def transfer(self, src: int, dst: int, nbytes: int) -> float:
        """Send one packet at the cursor; returns its latency.

        Raises :class:`~repro.errors.NoCAuthError` when the receiving
        peephole rejects the packet; rejection happens at head-flit arrival
        and no body flit crosses the link.
        """
        sender = self.routers[src]
        receiver = self.routers[dst]
        route, n_flits = self._wormhole(src, dst, nbytes)
        flows = telemetry.flows
        packet = Packet(
            src=src,
            dst=dst,
            nbytes=nbytes,
            world=sender.world,
            flow_id=flows.allocate() if flows.enabled else None,
        )
        start = self.now
        head = start + route
        audit = telemetry.audit
        if audit.enabled:
            # Stamp the peephole's decision with this packet's injection.
            audit.clock = start

        sender.state = RouterState.PEEPHOLE  # generate the identity
        sender.state = RouterState.TRANSFER  # the head flit reaches dst
        try:
            receiver.authenticate(packet)
        except NoCAuthError:
            sender.state = RouterState.IDLE
            self.now = head
            flows.abort(packet.flow_id)
            telemetry.profiler.count("noc.rejects")
            tracer = telemetry.tracer
            if tracer.enabled:
                tracer.instant(
                    "noc.reject", "noc", ts=head, track="noc",
                    src=src, dst=dst,
                )
            raise
        receiver.state = RouterState.TRANSFER
        sender.stats.flits_moved += n_flits
        receiver.stats.flits_moved += n_flits

        # Wormhole: the tail flit lands n_flits cycles after the head.
        self.now = head + n_flits
        duration = self.now - start
        sender.state = RouterState.IDLE
        receiver.state = RouterState.IDLE
        sender.stats.packets_sent += 1
        receiver.stats.packets_received += 1
        profiler = telemetry.profiler
        if profiler.enabled:
            # Head-flit route traversal vs body-flit drain behind it.
            profiler.attribute("noc.hop", min(route, duration))
            profiler.attribute("noc.serialization", max(duration - route, 0.0))
            profiler.count("noc.packets")
        tracer = telemetry.tracer
        if tracer.enabled:
            tracer.span(
                f"pkt {src}->{dst}", "noc", ts=start, dur=duration,
                track="noc", bytes=nbytes, flits=n_flits,
                world=packet.world.name,
            )
        if flows.enabled and packet.flow_id is not None:
            # Peephole authentication rides the head flit's normal
            # processing — zero cycles of security time by design
            # (Fig. 16); the zero-width span is kept in the parts
            # list so the decomposition names the stage explicitly.
            flows.complete(
                packet.flow_id, "noc", start, duration,
                parts=[
                    ("route", "service", min(route, duration)),
                    ("peephole", "security", 0.0),
                    ("serialization", "service", max(duration - route, 0.0)),
                ],
                residual=("serialization", "service"),
                world=packet.world.name,
                stream=f"{src}->{dst}",
                nbytes=nbytes,
                context="noc",
                track="noc",
            )
        return duration
