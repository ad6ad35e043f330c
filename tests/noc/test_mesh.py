"""Tests for mesh construction and the closed-form latency."""

import pytest

from repro.errors import NocError
from repro.noc.analytic import FLIT_BYTES, HEADER_FLITS, AnalyticNocModel
from repro.noc.mesh import Mesh
from tests.noc.reference import Packet, PlaneMesh


class TestConstruction:
    def test_bad_dimensions(self):
        with pytest.raises(NocError):
            Mesh(0, 3)

    def test_bad_planes(self):
        with pytest.raises(NocError):
            PlaneMesh(2, 2, planes=0)

    def test_router_lookup(self):
        mesh = PlaneMesh(2, 3, planes=2)
        router = mesh.router(1, 2, plane=1)
        assert (router.row, router.col, router.plane) == (1, 2, 1)

    def test_missing_router(self):
        with pytest.raises(NocError):
            PlaneMesh(2, 2).router(5, 5)

    @pytest.mark.parametrize("row, col, plane", [(-1, 0, 0), (0, 2, 0), (0, 0, 2)])
    def test_router_outside_mesh_or_planes(self, row, col, plane):
        with pytest.raises(NocError):
            PlaneMesh(2, 2, planes=2).router(row, col, plane)

    def test_router_carries_the_mesh_pipeline(self):
        mesh = PlaneMesh(2, 2, pipeline_cycles=7)
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
        model = AnalyticNocModel(Mesh(3, 3))
        assert model.hops((0, 0), (2, 2)) == 4

    def test_zero_load_latency_structure(self):
        model = AnalyticNocModel(Mesh(3, 3, pipeline_cycles=4))
        # 2 hops -> (2+1)*4 head cycles + (1+8-1) serialization
        assert model.latency_cycles((0, 0), (0, 2), 8 * FLIT_BYTES) == 3 * 4 + 8

    def test_latency_monotone_in_distance(self):
        model = AnalyticNocModel(Mesh(4, 4))
        near = model.latency_cycles((0, 0), (0, 1), 64)
        far = model.latency_cycles((0, 0), (3, 3), 64)
        assert far > near

    def test_latency_monotone_in_size(self):
        model = AnalyticNocModel(Mesh(4, 4))
        small = model.latency_cycles((0, 0), (1, 1), 64)
        large = model.latency_cycles((0, 0), (1, 1), 64 * 100)
        assert large > small

    def test_seconds_scale_with_clock(self):
        fast = AnalyticNocModel(Mesh(2, 2, clock_hz=100e6))
        slow = AnalyticNocModel(Mesh(2, 2, clock_hz=50e6))
        assert slow.transfer_time_s((0, 0), (1, 1), 1024) == pytest.approx(
            2 * fast.transfer_time_s((0, 0), (1, 1), 1024)
        )

    def test_large_transfer_approaches_link_bandwidth(self):
        mesh = Mesh(2, 2, clock_hz=78e6)
        nbytes = 10 * 1024 * 1024
        t = AnalyticNocModel(mesh).transfer_time_s((0, 0), (1, 1), nbytes)
        ideal = nbytes / (FLIT_BYTES * mesh.clock_hz)
        assert t == pytest.approx(ideal, rel=0.01)

    def test_negative_transfer_rejected(self):
        with pytest.raises(NocError):
            AnalyticNocModel(Mesh(2, 2)).transfer_time_s((0, 0), (1, 1), -1)
