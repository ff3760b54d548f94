"""Flow propagation through the NoC: spans, flows, audit decisions."""

import pytest

from repro import telemetry
from repro.analysis.flows import verify_decomposition
from repro.common.types import World
from repro.errors import NoCAuthError
from repro.noc.mesh import Mesh
from repro.noc.network import WormholeNetwork
from repro.noc.router import NoCFabric, NoCPolicy


class TestFabricFlows:
    def test_trace_scenario_observables_are_pinned(self):
        """``repro trace <model>``'s packets: two deliveries, then a
        normal-world packet into a secure router, with every record the
        fabric emits."""
        with telemetry.scoped(trace=True, flow=True, audit_log=True) as scope:
            fabric = NoCFabric(Mesh(2, 5), NoCPolicy.PEEPHOLE)
            latencies = [fabric.transfer(0, 3, 4096)]
            cursors = [fabric.now]
            latencies.append(fabric.transfer(3, 0, 1024))
            cursors.append(fabric.now)
            fabric.routers[1].set_world(World.SECURE, issuer=World.SECURE)
            with pytest.raises(NoCAuthError):
                fabric.transfer(0, 1, 256)
            cursors.append(fabric.now)
            events = [e for e in scope.tracer.events if e["cat"] == "noc"]
            flows = scope.flows.records
            decisions = scope.audit.records
            metrics = scope.metrics.snapshot()
        assert latencies == [262.0, 70.0]
        assert cursors == [262.0, 332.0, 334.0]
        assert [(e["name"], e["ph"], e["ts"], e.get("dur")) for e in events] == [
            ("pkt 0->3", "X", 0.0, 262.0),
            ("pkt 3->0", "X", 262.0, 70.0),
            ("noc.reject", "i", 334.0, None),
        ]
        assert [
            [(s.stage, s.enter, s.exit, float(s.service)) for s in r.stages]
            for r in flows
        ] == [
            [("route", 0.0, 6.0, 6.0), ("serialization", 6.0, 262.0, 256.0)],
            [("route", 262.0, 268.0, 6.0),
             ("serialization", 268.0, 332.0, 64.0)],
        ]
        assert [(d["kind"], d["cycle"]) for d in decisions] == [
            ("noc.grant", 0.0), ("noc.grant", 262.0), ("noc.deny", 332.0),
        ]
        assert {k: v for k, v in metrics.items()
                if k.startswith("noc.fabric.")} == {
            "noc.fabric.packets_sent": 2,
            "noc.fabric.packets_received": 2,
            "noc.fabric.packets_rejected": 1,
            "noc.fabric.flits_moved": 640,
        }

    def test_multi_hop_transfer_records_one_flow(self):
        with telemetry.scoped(trace=False, flow=True) as scope:
            fabric = NoCFabric(Mesh(2, 2), NoCPolicy.PEEPHOLE)
            latency = fabric.transfer(0, 3, nbytes=256)
            records = scope.flows.records
        (record,) = records
        assert record.kind == "noc"
        assert record.stream == "0->3"
        assert float(record.total) == latency
        verify_decomposition(records)

    def test_peephole_stage_costs_zero_security_cycles(self):
        with telemetry.scoped(trace=False, flow=True) as scope:
            fabric = NoCFabric(Mesh(2, 2), NoCPolicy.PEEPHOLE)
            fabric.transfer(0, 3, nbytes=256)
            (record,) = scope.flows.records
        assert float(record.security_cycles) == 0.0

    def test_grant_carries_the_flow_id(self):
        with telemetry.scoped(trace=False, flow=True) as scope:
            fabric = NoCFabric(Mesh(2, 2), NoCPolicy.PEEPHOLE)
            fabric.transfer(0, 3, nbytes=64)
            grants = scope.audit.find(kind="noc.grant", decision="allow")
            (record,) = scope.flows.records
        assert len(grants) == 1
        assert grants[0]["flow"] == record.flow_id

    def test_rejected_packet_lands_in_the_audit_ledger(self):
        with telemetry.scoped(trace=False, flow=True) as scope:
            fabric = NoCFabric(Mesh(2, 2), NoCPolicy.PEEPHOLE)
            fabric.routers[3].set_world(World.SECURE, issuer=World.SECURE)
            with pytest.raises(NoCAuthError):
                fabric.transfer(0, 3, nbytes=64)
            denials = scope.audit.find(kind="noc.deny", decision="deny")
            records = scope.flows.records
        assert len(denials) == 1
        assert denials[0]["world"] == "NORMAL"
        assert denials[0]["detail"]["reason"] == "world_mismatch"
        assert denials[0]["flow"] is not None
        # The denied flow never completes: no record, but the ID was spent.
        assert records == []

    def test_channel_lock_rejection_is_audited(self):
        with telemetry.scoped(trace=False, flow=True) as scope:
            fabric = NoCFabric(Mesh(2, 2), NoCPolicy.PEEPHOLE)
            fabric.transfer(1, 3, nbytes=64)  # locks 3's channel to 1
            with pytest.raises(NoCAuthError):
                fabric.transfer(0, 3, nbytes=64)
            denials = scope.audit.find(kind="noc.deny")
        assert denials[0]["detail"]["reason"] == "channel_locked"


class TestWormholeNetworkFlows:
    def test_contended_flow_decomposes_queueing_exactly(self):
        with telemetry.scoped(trace=False, flow=True) as scope:
            net = WormholeNetwork(Mesh(2, 5), peephole=False)
            net.transfer(0, 2, 1024)
            contended = net.transfer(0, 2, 1024)
            records = scope.flows.records
        assert len(records) == 2
        verify_decomposition(records)
        second = records[1]
        assert float(second.queueing_cycles) == contended.queueing > 0.0

    def test_network_rejection_is_audited_with_flow(self):
        with telemetry.scoped(trace=False, flow=True) as scope:
            net = WormholeNetwork(Mesh(2, 2), peephole=True)
            net.set_world(3, World.SECURE, issuer=World.SECURE)
            with pytest.raises(NoCAuthError):
                net.transfer(0, 3, 64)
            denials = scope.audit.find(kind="noc.deny", decision="deny")
        assert len(denials) == 1
        assert denials[0]["flow"] is not None
