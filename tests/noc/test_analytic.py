"""Analytic NoC model vs the flit-level reference.

The closed form is the only NoC model the product runs, so the
contract is tight: at zero load it must match the flit-level replay of
``tests/noc/reference.py`` *exactly* (the fig4 deployments serialize
fetches on the single ICAP, so zero load is their actual operating
point), a deployment priced by the replay must equal the default one
bit for bit, and on contended fig4-style traffic a closed form scaled
by a fitted contention factor must stay within
:data:`~tests.noc.reference.ANALYTIC_TOLERANCE` of the replay. The
vectorized batch path of the reference simulator is pinned
record-for-record against its sequential loop here too.
"""

import random

import pytest

from repro.core.designs import wami_deployment_socs
from repro.noc.analytic import AnalyticNocModel
from repro.noc.mesh import Mesh
from repro.sim.kernel import Simulator
from repro.soc.tiles import TileKind
from tests.noc.reference import (
    ANALYTIC_TOLERANCE,
    NocSimulator,
    Packet,
    PlaneMesh,
    cycle_transfer_latency_cycles,
    fit_contention_factor,
    wami_transfer_demands,
)

#: Representative partial-bitstream burst sizes (bytes): tiny control
#: packets up to multi-MB uncompressed partials.
FETCH_SIZES = [1, 7, 8, 9, 4096, 123_457, 3_000_000]


def fig4_fetch_endpoints():
    """(mesh, mem, aux) of each fig4 deployment SoC's fetch path."""
    for name, config in sorted(wami_deployment_socs().items()):
        mesh = Mesh(rows=config.rows, cols=config.cols)
        mem = config.position_of(config.tiles_of_kind(TileKind.MEM)[0].name)
        aux = config.position_of(config.tiles_of_kind(TileKind.AUX)[0].name)
        yield name, config, mesh, mem, aux


class TestZeroLoadExactness:
    def test_matches_cycle_simulator_on_fig4_fetch_paths(self):
        for name, _config, mesh, mem, aux in fig4_fetch_endpoints():
            model = AnalyticNocModel(mesh)
            for size in FETCH_SIZES:
                analytic = model.latency_cycles(mem, aux, size)
                cycle = cycle_transfer_latency_cycles(mesh, mem, aux, size)
                assert analytic == cycle, (name, size)

    def test_matches_cycle_simulator_in_seconds(self):
        for _name, _config, mesh, mem, aux in fig4_fetch_endpoints():
            model = AnalyticNocModel(mesh)
            for size in FETCH_SIZES:
                assert model.transfer_time_s(mem, aux, size) == (
                    cycle_transfer_latency_cycles(mesh, mem, aux, size)
                    / mesh.clock_hz
                )

    def test_local_delivery_matches(self):
        mesh = Mesh(rows=2, cols=2)
        model = AnalyticNocModel(mesh)
        for size in FETCH_SIZES:
            assert model.latency_cycles((0, 0), (0, 0), size) == (
                cycle_transfer_latency_cycles(mesh, (0, 0), (0, 0), size)
            )


class TestCalibration:
    def fig4_packets(self, config, mesh):
        """The per-frame WAMI transfers as simultaneous DMA packets."""
        positions = {}
        index = 0
        packets = []
        for demand in wami_transfer_demands():
            src = positions.setdefault(
                demand.producer_task, (index % mesh.rows, index % mesh.cols)
            )
            index += 1
            dst = positions.setdefault(
                demand.consumer_task, (index % mesh.rows, index % mesh.cols)
            )
            index += 1
            packets.append(
                Packet(
                    packet_id=len(packets),
                    src=src,
                    dst=dst,
                    plane=0,
                    payload_bytes=demand.payload_bytes,
                )
            )
        return packets

    def test_calibrated_model_within_tolerance_of_contended_replay(self):
        _name, config, mesh, _mem, _aux = next(iter(fig4_fetch_endpoints()))
        simulator = NocSimulator(PlaneMesh.of(mesh))
        for packet in self.fig4_packets(config, mesh):
            simulator.inject(packet)  # all at cycle 0: real contention
        records = [r for r in simulator.run() if not r.packet.is_local]
        assert any(r.stall_cycles > 0 for r in records)
        factor = fit_contention_factor(mesh, records)
        assert factor > 0
        model = AnalyticNocModel(mesh)
        predicted_total = sum(
            int(
                round(
                    model.latency_cycles(
                        record.packet.src,
                        record.packet.dst,
                        record.packet.payload_bytes,
                    )
                    * (1.0 + factor)
                )
            )
            for record in records
        )
        measured_total = sum(record.latency_cycles for record in records)
        # The calibrated closed form tracks the replay in aggregate.
        assert (
            abs(predicted_total - measured_total) / measured_total
            <= ANALYTIC_TOLERANCE
        )

    def test_uncontended_records_calibrate_to_zero(self):
        mesh = PlaneMesh(rows=3, cols=3)
        simulator = NocSimulator(mesh)
        simulator.inject(
            Packet(packet_id=0, src=(0, 0), dst=(2, 2), plane=0, payload_bytes=4096)
        )
        assert fit_contention_factor(mesh, simulator.run()) == 0.0


class TestVectorizedSimulator:
    def random_batch(self, rng, mesh, count, planes=2):
        packets = []
        for index in range(count):
            src = (rng.randrange(mesh.rows), rng.randrange(mesh.cols))
            dst = (rng.randrange(mesh.rows), rng.randrange(mesh.cols))
            packets.append(
                (
                    Packet(
                        packet_id=index,
                        src=src,
                        dst=dst,
                        plane=rng.randrange(planes),
                        payload_bytes=rng.randrange(0, 10_000),
                    ),
                    rng.randrange(0, 50),
                )
            )
        return packets

    @pytest.mark.parametrize("count", [1, 4, 24])
    def test_matches_sequential_reference(self, count):
        rng = random.Random(count)
        mesh = PlaneMesh(rows=4, cols=4, planes=2)
        batch = self.random_batch(rng, mesh, count)
        fast = NocSimulator(mesh)
        reference = NocSimulator(mesh, vectorize=False)
        for packet, at in batch:
            fast.inject(packet, at_cycle=at)
            reference.inject(packet, at_cycle=at)
        assert fast.run() == reference.run()
        assert fast._link_free == reference._link_free

    def test_disjoint_paths_take_the_fast_path_identically(self):
        mesh = PlaneMesh(rows=4, cols=4, planes=2)
        # Row-local transfers on distinct rows/planes: link-disjoint by
        # construction, so the batch vectorizes — and must still update
        # link bookkeeping so a later contended batch sees busy links.
        batch = [
            Packet(packet_id=0, src=(0, 0), dst=(0, 3), plane=0, payload_bytes=512),
            Packet(packet_id=1, src=(1, 0), dst=(1, 3), plane=0, payload_bytes=512),
            Packet(packet_id=2, src=(0, 0), dst=(0, 3), plane=1, payload_bytes=512),
            Packet(packet_id=3, src=(2, 2), dst=(2, 2), plane=0, payload_bytes=64),
        ]
        fast = NocSimulator(mesh)
        reference = NocSimulator(mesh, vectorize=False)
        for packet in batch:
            fast.inject(packet)
            reference.inject(packet)
        assert fast.run() == reference.run()
        assert fast._link_free == reference._link_free
        # Second wave reusing the now-busy links: the fast simulator
        # must fall back to the exact sequential loop.
        rerun = Packet(packet_id=4, src=(0, 0), dst=(0, 3), plane=0, payload_bytes=512)
        fast.inject(rerun, at_cycle=1)
        reference.inject(rerun, at_cycle=1)
        # run() returns the cumulative record list in delivery order.
        fast_records = fast.run()
        assert fast_records == reference.run()
        stalled = [r for r in fast_records if r.packet.packet_id == 4]
        assert stalled and stalled[0].stall_cycles > 0


def replay_transfer_time_s(model, src, dst, num_bytes):
    """``AnalyticNocModel.transfer_time_s`` priced by the flit-level replay."""
    return (
        cycle_transfer_latency_cycles(model.mesh, src, dst, num_bytes)
        / model.mesh.clock_hz
    )


class TestPrcBackends:
    def make_prc(self):
        from repro.runtime.prc import PrcDevice

        sim = Simulator()
        mesh = Mesh(rows=3, cols=3)
        return PrcDevice(sim, mesh, mem_position=(0, 1), aux_position=(2, 2))

    def test_cycle_backend_equals_analytic_at_zero_load(self, monkeypatch):
        analytic = self.make_prc()
        expected = [analytic.transfer_seconds(size) for size in FETCH_SIZES]
        monkeypatch.setattr(
            AnalyticNocModel, "transfer_time_s", replay_transfer_time_s
        )
        cycle = self.make_prc()
        assert [cycle.transfer_seconds(size) for size in FETCH_SIZES] == expected

    def test_transfer_window_cached_per_size(self):
        prc = self.make_prc()
        first = prc.transfer_seconds(4096)
        assert prc.transfer_seconds(4096) == first
        assert 4096 in prc._transfer_cache


class TestPlatformWiring:
    def test_cycle_deployment_matches_analytic_deployment(self, monkeypatch):
        from repro import api

        config = wami_deployment_socs()["soc_y"]
        baseline = api.deploy(config, frames=2)
        replays = []

        def counted_replay(model, src, dst, num_bytes):
            replays.append(num_bytes)
            return replay_transfer_time_s(model, src, dst, num_bytes)

        monkeypatch.setattr(AnalyticNocModel, "transfer_time_s", counted_replay)
        checked = api.deploy(config, frames=2)
        assert replays  # the deploy priced its fetches with the replay
        assert checked.timeline.makespan_s == baseline.timeline.makespan_s
        assert checked.reconfigurations == baseline.reconfigurations
        assert checked.joules_per_frame == baseline.joules_per_frame

    def test_cycle_deployment_profiles_the_same_noc_seconds(self, monkeypatch):
        # The DFXC fetch bounds every fig4 transfer window, so the NoC
        # reaches a deployment's outputs only through the profiler's
        # modelled ``noc.transfer`` seconds: compare those too.
        from repro import api
        from repro.obs.instrumentation import Instrumentation
        from repro.obs.profiler import Profiler

        config = wami_deployment_socs()["soc_y"]
        flow = api.build(config).flow

        def noc_seconds():
            profiler = Profiler()
            api.deploy(
                config,
                frames=2,
                flow_result=flow,
                instrumentation=Instrumentation(profiler=profiler),
            )
            pending, seconds = [profiler.root], []
            while pending:
                node = pending.pop()
                if node.name == "noc.transfer":
                    seconds.append(node.sim_s)
                pending.extend(node.children.values())
            return seconds

        baseline = noc_seconds()
        monkeypatch.setattr(
            AnalyticNocModel, "transfer_time_s", replay_transfer_time_s
        )
        assert baseline and sum(baseline) > 0
        assert noc_seconds() == baseline
