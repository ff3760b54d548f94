"""Unit tests for the contention-aware wormhole network."""

import pytest

from repro import telemetry
from repro.common.types import World
from repro.errors import ConfigError, NoCAuthError, PrivilegeError
from repro.noc.mesh import Mesh
from repro.noc.network import WormholeNetwork
from repro.noc.router import NoCFabric, NoCPolicy


@pytest.fixture
def net() -> WormholeNetwork:
    return WormholeNetwork(Mesh(2, 5), peephole=False)


class TestIsolatedTransfers:
    def test_matches_single_transfer_fabric(self, net):
        fabric = NoCFabric(Mesh(2, 5), NoCPolicy.UNAUTHORIZED)
        for src, dst, nbytes in ((0, 1, 64), (0, 9, 1024), (4, 5, 16)):
            expected = fabric.latency_cycles(src, dst, nbytes)
            outcome = net.transfer(src, dst, nbytes)
            assert outcome.latency == expected
            net.reset()

    def test_no_queueing_when_idle(self, net):
        outcome = net.transfer(0, 4, 512, arrival=100.0)
        assert outcome.queueing == 0.0
        assert outcome.start == 100.0


class TestContention:
    def test_disjoint_paths_do_not_interact(self, net):
        a = net.transfer(0, 1, 1024)          # row 0, left edge
        b = net.transfer(8, 9, 1024)          # row 1, right edge
        assert a.queueing == 0.0
        assert b.queueing == 0.0

    def test_shared_link_serializes(self, net):
        a = net.transfer(0, 2, 1024)  # uses links (0,1), (1,2)
        b = net.transfer(0, 2, 1024)  # same path, same arrival
        assert b.start >= a.finish - 2 * net.hop_cycles
        assert b.queueing > 0.0

    def test_contention_grows_latency_monotonically(self, net):
        latencies = []
        for _ in range(5):
            latencies.append(net.transfer(0, 4, 4096).latency)
        assert latencies == sorted(latencies)
        assert latencies[-1] > latencies[0]

    def test_throughput_bounded_by_link_bandwidth(self, net):
        # Many flows over one shared link cannot exceed one flit/cycle.
        for _ in range(10):
            net.transfer(0, 1, 1600)
        assert net.aggregate_throughput() <= net.flit_bytes + 1e-9

    def test_cross_traffic_delays_only_overlapping_paths(self, net):
        net.transfer(0, 4, 4096)              # occupies row 0 links
        crossing = net.transfer(1, 3, 64)     # overlaps row 0
        disjoint = net.transfer(5, 9, 64)     # row 1: untouched
        assert crossing.queueing > 0.0
        assert disjoint.queueing == 0.0


class TestPeepholeInNetwork:
    def test_cross_world_rejected_and_links_released(self):
        net = WormholeNetwork(Mesh(2, 2), peephole=True)
        net.set_world(0, World.SECURE, issuer=World.SECURE)
        with pytest.raises(NoCAuthError):
            net.transfer(0, 1, 4096)
        assert net.outcomes[0].rejected
        # The rejected head released the links: a legal transfer right
        # after queues only behind the head flit, not the 256-flit body.
        net.set_world(1, World.SECURE, issuer=World.SECURE)
        follow = net.transfer(0, 1, 64)
        assert follow.queueing <= net.hop_cycles

    def test_same_world_flows(self):
        net = WormholeNetwork(Mesh(2, 2), peephole=True)
        outcome = net.transfer(0, 1, 64)
        assert not outcome.rejected

    def test_identity_is_privileged(self):
        net = WormholeNetwork(Mesh(2, 2))
        with pytest.raises(PrivilegeError):
            net.set_world(0, World.SECURE, issuer=World.NORMAL)


class TestTelemetry:
    def test_histograms_observe_each_delivered_transfer(self):
        with telemetry.scoped(trace=False, profile=False) as scope:
            net = WormholeNetwork(Mesh(2, 2), peephole=True)
            net.set_world(0, World.SECURE, issuer=World.SECURE)
            with pytest.raises(NoCAuthError):
                net.transfer(0, 1, 4096)  # rejected: not a delivery
            net.set_world(1, World.SECURE, issuer=World.SECURE)
            delivered = [net.transfer(0, 1, 64 * n) for n in range(1, 6)]
            snapshot = scope.metrics.snapshot()
        assert snapshot["noc.network.transfers"] == 5
        for name in ("latency", "queueing"):
            values = [getattr(outcome, name) for outcome in delivered]
            prefix = f"noc.network.{name}_cycles"
            assert snapshot[f"{prefix}.count"] == 5
            assert snapshot[f"{prefix}.sum"] == sum(values)
            assert snapshot[f"{prefix}.max"] == max(values) > 0.0


class TestValidation:
    def test_bad_geometry(self):
        with pytest.raises(ConfigError):
            WormholeNetwork(Mesh(2, 2), hop_cycles=0)

    def test_negative_arrival(self, net):
        with pytest.raises(ConfigError):
            net.transfer(0, 1, 64, arrival=-1.0)

    def test_empty_throughput(self, net):
        assert net.aggregate_throughput() == 0.0
