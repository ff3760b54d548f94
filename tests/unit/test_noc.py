"""Unit tests for the NoC: packets, mesh, peephole routers, software NoC."""

import pytest

from repro.common.types import World
from repro.errors import ConfigError, NoCAuthError, PrivilegeError
from repro.memory.dram import DRAMModel
from repro.noc.flit import Packet
from repro.noc.mesh import Mesh
from repro.noc.router import NoCFabric, NoCPolicy, RouterState
from repro.noc.software_noc import SoftwareNoC


class TestFlits:
    def test_single_flit_packet(self):
        for nbytes in (0, 8, 16):
            packet = Packet(src=0, dst=1, nbytes=nbytes, world=World.NORMAL)
            assert packet.n_flits(16) == 1

    def test_flit_count(self):
        packet = Packet(src=0, dst=1, nbytes=100, world=World.NORMAL)
        assert packet.n_flits(16) == 7

    def test_negative_payload_rejected(self):
        with pytest.raises(ConfigError):
            Packet(src=0, dst=1, nbytes=-1, world=World.NORMAL)


class TestMesh:
    @pytest.fixture
    def mesh(self) -> Mesh:
        return Mesh(2, 5)

    def test_coords_roundtrip(self, mesh):
        for core in range(mesh.size):
            r, c = mesh.coords(core)
            assert mesh.core_id(r, c) == core

    def test_hops_manhattan(self, mesh):
        assert mesh.hops(0, 0) == 0
        assert mesh.hops(0, 4) == 4
        assert mesh.hops(0, 9) == 5  # (0,0) -> (1,4)

    def test_path_endpoints_and_length(self, mesh):
        path = mesh.path(0, 9)
        assert path[0] == 0 and path[-1] == 9
        assert len(path) == mesh.hops(0, 9) + 1

    def test_rectangle_detection(self, mesh):
        assert mesh.is_rectangle([0, 1, 5, 6], 2, 2)
        assert not mesh.is_rectangle([0, 1, 2, 3], 2, 2)
        assert mesh.is_rectangle([0, 1, 2, 3], 1, 4)
        assert not mesh.is_rectangle([0, 1, 5, 7], 2, 2)
        assert not mesh.is_rectangle([0, 0, 1, 5], 2, 2)  # duplicates
        assert not mesh.is_rectangle([0, 1, 5], 2, 2)  # wrong count

    def test_out_of_range(self, mesh):
        with pytest.raises(ConfigError):
            mesh.coords(10)
        with pytest.raises(ConfigError):
            Mesh(0, 3)


class TestRouterFabric:
    def make(self, policy=NoCPolicy.PEEPHOLE) -> NoCFabric:
        return NoCFabric(Mesh(2, 2), policy=policy, hop_cycles=2, flit_bytes=16)

    def test_latency_wormhole(self):
        fabric = self.make(NoCPolicy.UNAUTHORIZED)
        # 1 hop * 2 cycles + 4 flits
        assert fabric.transfer(0, 1, 64) == 2 + 4
        assert fabric.latency_cycles(0, 1, 64) == 6

    def test_peephole_costs_zero_extra(self):
        for nbytes in (16, 64, 1024):
            unauth = self.make(NoCPolicy.UNAUTHORIZED).transfer(0, 1, nbytes)
            peephole = self.make(NoCPolicy.PEEPHOLE)
            peephole.routers[0].set_world(World.SECURE, issuer=World.SECURE)
            peephole.routers[1].set_world(World.SECURE, issuer=World.SECURE)
            assert peephole.transfer(0, 1, nbytes) == unauth

    def test_peephole_rejects_world_mismatch(self):
        fabric = self.make()
        fabric.routers[0].set_world(World.SECURE, issuer=World.SECURE)
        with pytest.raises(NoCAuthError):
            fabric.transfer(0, 1, 64)
        assert fabric.routers[1].stats.packets_rejected == 1
        # Nothing was delivered.
        assert fabric.routers[1].stats.packets_received == 0
        assert fabric.routers[1].stats.flits_moved == 0

    def test_unauthorized_delivers_across_worlds(self):
        fabric = self.make(NoCPolicy.UNAUTHORIZED)
        fabric.routers[0].set_world(World.SECURE, issuer=World.SECURE)
        fabric.transfer(0, 1, 64)
        assert fabric.routers[1].stats.packets_received == 1

    def test_channel_locks_after_auth(self):
        fabric = self.make()
        fabric.transfer(0, 1, 64)
        assert fabric.routers[1].locked_src == 0
        with pytest.raises(NoCAuthError):
            fabric.transfer(2, 1, 64)
        # The locked pair keeps flowing.
        fabric.transfer(0, 1, 64)

    def test_release_channel(self):
        fabric = self.make()
        fabric.transfer(0, 1, 64)
        fabric.routers[1].release_channel(issuer=World.SECURE)
        fabric.transfer(2, 1, 64)  # now allowed

    def test_secure_channel_release_is_privileged(self):
        fabric = self.make()
        for i in (0, 1):
            fabric.routers[i].set_world(World.SECURE, issuer=World.SECURE)
        fabric.transfer(0, 1, 64)
        with pytest.raises(PrivilegeError):
            fabric.routers[1].release_channel(issuer=World.NORMAL)

    def test_router_identity_is_privileged(self):
        fabric = self.make()
        with pytest.raises(PrivilegeError):
            fabric.routers[0].set_world(World.SECURE, issuer=World.NORMAL)

    def test_routers_return_to_idle(self):
        fabric = self.make()
        fabric.transfer(0, 1, 64)
        assert fabric.routers[0].state is RouterState.IDLE
        assert fabric.routers[1].state is RouterState.IDLE

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            NoCFabric(Mesh(1, 1), hop_cycles=0)


class TestSoftwareNoC:
    def test_latency_includes_two_passes(self):
        dram = DRAMModel(16.0, access_latency=40)
        noc = SoftwareNoC(dram, sync_overhead_cycles=100)
        # store + load at 16 B/cycle plus 2 accesses plus sync.
        assert noc.latency_cycles(1600) == 100 + 100 + 80 + 100

    def test_much_slower_than_direct(self):
        dram = DRAMModel(16.0)
        noc = SoftwareNoC(dram)
        fabric = NoCFabric(Mesh(2, 2), NoCPolicy.UNAUTHORIZED)
        assert noc.latency_cycles(4096) > 2 * fabric.latency_cycles(0, 1, 4096)

    def test_extra_dram_traffic(self):
        noc = SoftwareNoC(DRAMModel(16.0))
        assert noc.extra_dram_bytes(100) == 200

    def test_stats(self):
        noc = SoftwareNoC(DRAMModel(16.0))
        noc.transfer(128)
        assert noc.transfers == 1 and noc.bytes_moved == 128

    def test_negative_sync_rejected(self):
        with pytest.raises(ConfigError):
            SoftwareNoC(DRAMModel(16.0), sync_overhead_cycles=-1)
