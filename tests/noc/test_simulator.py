"""Tests for the contention-aware flit-level reference simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NocError
from repro.noc.analytic import AnalyticNocModel
from tests.noc.reference import NocSimulator, Packet, PlaneMesh


def make_sim(rows=4, cols=4, planes=2):
    return NocSimulator(PlaneMesh(rows, cols, planes=planes))


def zero_load(sim, packet):
    """The closed-form latency of ``packet`` on ``sim``'s idle mesh."""
    return AnalyticNocModel(sim.mesh).latency_cycles(
        packet.src, packet.dst, packet.payload_bytes
    )


class TestBasics:
    def test_single_packet_matches_zero_load(self):
        sim = make_sim()
        pkt = Packet(0, (0, 0), (2, 3), 0, 256)
        sim.inject(pkt)
        (record,) = sim.run()
        assert record.latency_cycles == zero_load(sim, pkt)

    def test_local_packet_delivery(self):
        sim = make_sim()
        pkt = Packet(0, (1, 1), (1, 1), 0, 64)
        sim.inject(pkt)
        (record,) = sim.run()
        assert record.links_used == ()
        assert record.latency_cycles > 0

    def test_invalid_plane_rejected(self):
        sim = make_sim(planes=1)
        with pytest.raises(NocError):
            sim.inject(Packet(0, (0, 0), (1, 1), plane=5, payload_bytes=8))

    def test_negative_injection_cycle_rejected(self):
        sim = make_sim()
        with pytest.raises(NocError):
            sim.inject(Packet(0, (0, 0), (1, 1), 0, 8), at_cycle=-1)

    def test_off_mesh_position_rejected(self):
        sim = make_sim(rows=2, cols=2)
        with pytest.raises(NocError):
            sim.inject(Packet(0, (0, 0), (5, 5), 0, 8))


class TestContention:
    def test_shared_link_serializes(self):
        sim = make_sim()
        a = Packet(0, (0, 0), (0, 3), 0, 512)
        b = Packet(1, (0, 0), (0, 3), 0, 512)
        sim.inject(a)
        sim.inject(b)
        records = sim.run()
        solo = zero_load(sim, a)
        latencies = sorted(r.latency_cycles for r in records)
        assert latencies[0] == solo
        assert latencies[1] > solo  # queued behind the first packet

    def test_different_planes_do_not_contend(self):
        sim = make_sim(planes=2)
        a = Packet(0, (0, 0), (0, 3), 0, 512)
        b = Packet(1, (0, 0), (0, 3), 1, 512)
        sim.inject(a)
        sim.inject(b)
        records = sim.run()
        solo = zero_load(sim, a)
        assert all(r.latency_cycles == solo for r in records)

    def test_disjoint_paths_do_not_contend(self):
        sim = make_sim()
        a = Packet(0, (0, 0), (0, 1), 0, 512)
        b = Packet(1, (3, 3), (3, 2), 0, 512)
        sim.inject(a)
        sim.inject(b)
        records = sim.run()
        for record in records:
            assert record.latency_cycles == zero_load(sim, record.packet)

    def test_no_link_overlap_invariant(self):
        """No two packets may hold the same (link, plane) at once —
        check via reservation windows reconstructed from delivery."""
        sim = make_sim()
        for i in range(10):
            sim.inject(Packet(i, (0, 0), (0, 3), 0, 128), at_cycle=i)
        records = sim.run()
        # All packets share the same path; deliveries must be strictly
        # spaced by at least the packet serialization latency.
        times = sorted(r.delivered_at for r in records)
        min_gap = records[0].packet.size_flits
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= min_gap

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                st.integers(0, 1),
                st.integers(0, 512),
                st.integers(0, 50),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_every_packet_delivered_no_earlier_than_zero_load(self, specs):
        sim = make_sim()
        for index, (src, dst, plane, nbytes, cycle) in enumerate(specs):
            sim.inject(Packet(index, src, dst, plane, nbytes), at_cycle=cycle)
        records = sim.run()
        assert len(records) == len(specs)
        for record in records:
            floor = zero_load(sim, record.packet)
            assert record.latency_cycles >= floor


class TestThroughput:
    def test_throughput_zero_without_traffic(self):
        assert make_sim().aggregate_throughput_bytes_per_cycle() == 0.0

    def test_throughput_positive_with_traffic(self):
        sim = make_sim()
        for i in range(4):
            sim.inject(Packet(i, (0, 0), (1, 1), 0, 256), at_cycle=0)
        sim.run()
        assert sim.aggregate_throughput_bytes_per_cycle() > 0
