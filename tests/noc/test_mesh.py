"""Tests for mesh construction and analytic latency."""

import pytest

from repro.errors import NocError
from repro.noc.mesh import Mesh
from repro.noc.packet import FLIT_BYTES, HEADER_FLITS, Packet


class TestConstruction:
    def test_bad_dimensions(self):
        with pytest.raises(NocError):
            Mesh(0, 3)

    def test_bad_planes(self):
        with pytest.raises(NocError):
            Mesh(2, 2, planes=0)

    def test_router_lookup(self):
        mesh = Mesh(2, 3, planes=2)
        router = mesh.router(1, 2, plane=1)
        assert (router.row, router.col, router.plane) == (1, 2, 1)

    def test_missing_router(self):
        with pytest.raises(NocError):
            Mesh(2, 2).router(5, 5)

    @pytest.mark.parametrize("row, col, plane", [(-1, 0, 0), (0, 2, 0), (0, 0, 2)])
    def test_router_outside_mesh_or_planes(self, row, col, plane):
        with pytest.raises(NocError):
            Mesh(2, 2, planes=2).router(row, col, plane)

    def test_router_carries_the_mesh_pipeline(self):
        mesh = Mesh(2, 2, pipeline_cycles=7)
        assert mesh.router(0, 1) == mesh.router(0, 1)
        assert mesh.router(0, 1).pipeline_cycles == 7

    def test_check_position(self):
        mesh = Mesh(3, 3)
        with pytest.raises(NocError):
            mesh.check_position((3, 0))


class TestPacket:
    def test_size_flits_rounds_up(self):
        pkt = Packet(packet_id=0, src=(0, 0), dst=(0, 1), plane=0, payload_bytes=9)
        assert pkt.size_flits == HEADER_FLITS + 2

    def test_zero_payload_has_header_only(self):
        pkt = Packet(packet_id=0, src=(0, 0), dst=(0, 1), plane=0, payload_bytes=0)
        assert pkt.size_flits == HEADER_FLITS

    def test_negative_payload_rejected(self):
        with pytest.raises(NocError):
            Packet(packet_id=0, src=(0, 0), dst=(0, 1), plane=0, payload_bytes=-1)

    def test_is_local(self):
        assert Packet(0, (1, 1), (1, 1), 0, 8).is_local


class TestLatency:
    def test_hops_is_manhattan(self):
        mesh = Mesh(3, 3)
        assert mesh.hops((0, 0), (2, 2)) == 4

    def test_zero_load_latency_structure(self):
        mesh = Mesh(3, 3, pipeline_cycles=4)
        pkt = Packet(0, (0, 0), (0, 2), 0, payload_bytes=8 * FLIT_BYTES)
        # 2 hops -> (2+1)*4 head cycles + (1+8-1) serialization
        assert mesh.zero_load_latency_cycles(pkt) == 3 * 4 + 8

    def test_latency_monotone_in_distance(self):
        mesh = Mesh(4, 4)
        near = Packet(0, (0, 0), (0, 1), 0, 64)
        far = Packet(1, (0, 0), (3, 3), 0, 64)
        assert mesh.zero_load_latency_cycles(far) > mesh.zero_load_latency_cycles(near)

    def test_latency_monotone_in_size(self):
        mesh = Mesh(4, 4)
        small = Packet(0, (0, 0), (1, 1), 0, 64)
        large = Packet(1, (0, 0), (1, 1), 0, 64 * 100)
        assert mesh.zero_load_latency_cycles(large) > mesh.zero_load_latency_cycles(small)

    def test_seconds_scale_with_clock(self):
        fast = Mesh(2, 2, clock_hz=100e6)
        slow = Mesh(2, 2, clock_hz=50e6)
        pkt = Packet(0, (0, 0), (1, 1), 0, 1024)
        assert slow.zero_load_latency_s(pkt) == pytest.approx(
            2 * fast.zero_load_latency_s(pkt)
        )

    def test_large_transfer_approaches_link_bandwidth(self):
        mesh = Mesh(2, 2, clock_hz=78e6)
        nbytes = 10 * 1024 * 1024
        t = mesh.transfer_time_s((0, 0), (1, 1), nbytes)
        ideal = nbytes / mesh.link_bandwidth_bytes_per_s()
        assert t == pytest.approx(ideal, rel=0.01)

    def test_negative_transfer_rejected(self):
        with pytest.raises(NocError):
            Mesh(2, 2).transfer_time_s((0, 0), (1, 1), -1)
