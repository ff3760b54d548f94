"""Mesh NoC with the peephole authentication mechanism (§IV-B, §V).

A packet costs its hop traversal plus one cycle per flit, whether or not
the receiver authenticates it: :class:`NoCFabric` times each packet in
closed form, and :class:`WormholeNetwork` adds link contention between
concurrent transfers.
"""

from repro.noc.flit import Packet
from repro.noc.mesh import Mesh
from repro.noc.router import NoCPolicy, RouterController, NoCFabric
from repro.noc.software_noc import SoftwareNoC
from repro.noc.network import WormholeNetwork, TransferOutcome

__all__ = [
    "Packet",
    "Mesh",
    "NoCPolicy",
    "RouterController",
    "NoCFabric",
    "SoftwareNoC",
    "WormholeNetwork",
    "TransferOutcome",
]
