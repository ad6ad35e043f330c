"""Tests for the DFXC/ICAP device model."""

import pytest

from repro.errors import ReconfigurationError
from repro.noc.mesh import Mesh
from repro.runtime.prc import PrcDevice


def make_prc(sim, fetch=1.2, clock=78e6):
    mesh = Mesh(3, 3, clock_hz=clock)
    return PrcDevice(
        sim,
        mesh,
        mem_position=(0, 1),
        aux_position=(0, 2),
        clock_hz=clock,
        fetch_bytes_per_cycle=fetch,
    )


class TestLatencyModel:
    def test_transfer_time_scales_with_size(self, sim):
        prc = make_prc(sim)
        assert prc.transfer_seconds(2 * 300_000) > 1.9 * prc.transfer_seconds(300_000)

    def test_fetch_bound_dominates(self, sim):
        prc = make_prc(sim, fetch=0.5)
        size = 300 * 1024
        expected = size / 0.5 / 78e6
        assert prc.transfer_seconds(size) == pytest.approx(expected, rel=0.05)

    def test_compressed_bitstream_is_proportionally_faster(self, sim):
        prc = make_prc(sim)
        raw, packed = 3_500_000, 330_000
        assert prc.transfer_seconds(raw) > 9 * prc.transfer_seconds(packed)

    def test_zero_size_rejected(self, sim):
        with pytest.raises(ReconfigurationError):
            make_prc(sim).transfer_seconds(0)

    def test_bad_fetch_rate_rejected(self, sim):
        with pytest.raises(ReconfigurationError):
            make_prc(sim, fetch=0)


class TestSerialization:
    def test_single_reconfiguration(self, sim):
        prc = make_prc(sim)
        proc = sim.process(prc.reconfigure("rt0", "fft", 300_000))
        sim.run()
        assert proc.value.tile_name == "rt0"
        assert proc.value.duration_s == pytest.approx(
            prc.transfer_seconds(300_000)
        )

    def test_concurrent_requests_serialize_on_icap(self, sim):
        prc = make_prc(sim)
        a = sim.process(prc.reconfigure("rt0", "fft", 300_000))
        b = sim.process(prc.reconfigure("rt1", "gemm", 300_000))
        sim.run()
        ra, rb = a.value, b.value
        # The second transfer starts only after the first ends.
        first, second = sorted((ra, rb), key=lambda r: r.start_s)
        assert second.start_s >= first.end_s

    def test_records_accumulate(self, sim):
        prc = make_prc(sim)
        for i in range(3):
            sim.process(prc.reconfigure("rt0", f"m{i}", 100_000))
        sim.run()
        assert len(prc.records) == 3
        assert prc.total_reconfiguration_time_s() == pytest.approx(
            sum(r.duration_s for r in prc.records)
        )

    def test_busy_flag(self, sim):
        prc = make_prc(sim)
        assert not prc.busy
        sim.process(prc.reconfigure("rt0", "fft", 300_000))
        sim.run(until=prc.transfer_seconds(300_000) / 2)
        assert prc.busy
        sim.run()
        assert not prc.busy
