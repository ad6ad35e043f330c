"""Scheduler failover: re-planning instances off quarantined tiles."""

import pytest

from repro.errors import TileQuarantinedError
from repro.noc.mesh import Mesh
from repro.obs import events as ev
from repro.obs.events import EventBus
from repro.obs.instrumentation import Instrumentation
from repro.runtime.api import DprUserApi
from repro.runtime.driver import AcceleratorDriver, DriverRegistry
from repro.runtime.executor import AppExecutor, StageTask
from repro.runtime.faults import (
    PERSISTENT,
    RuntimeFaultKind,
    RuntimeFaultModel,
)
from repro.runtime.manager import ReconfigurationManager
from repro.runtime.memory import BitstreamStore
from repro.runtime.prc import PrcDevice
from repro.sim.kernel import Simulator
from repro.vivado.bitstream import Bitstream, BitstreamKind

CRC = RuntimeFaultKind.BITSTREAM_CORRUPTION


def make_cluster(sim, faults, placement, events=None):
    """A multi-tile stack; ``placement`` maps tile -> list of modes."""
    mesh = Mesh(3, 3, clock_hz=78e6)
    prc = PrcDevice(
        sim, mesh, mem_position=(0, 1), aux_position=(0, 2), faults=faults
    )
    store = BitstreamStore()
    registry = DriverRegistry()
    installed = set()
    for tile, modes in placement.items():
        for mode in modes:
            if mode not in installed:
                registry.install(
                    AcceleratorDriver(accelerator=mode, exec_time_s=0.01)
                )
                installed.add(mode)
            store.load(
                Bitstream(
                    name=f"{tile}_{mode}.pbs",
                    kind=BitstreamKind.PARTIAL,
                    size_bytes=250_000,
                    compressed=True,
                    target_rp=tile,
                    mode=mode,
                ),
                tile,
            )
    manager = ReconfigurationManager(
        sim, prc, store, registry, instrumentation=Instrumentation(events=events)
    )
    for tile in placement:
        manager.attach_tile(tile)
    return DprUserApi(manager), manager


def persistent_crc(tile, mode):
    model = RuntimeFaultModel()
    model.inject(tile, mode, CRC, count=PERSISTENT)
    return model


class TestFailover:
    def test_replanned_onto_surviving_tile(self):
        sim = Simulator()
        bus = EventBus()
        api, manager = make_cluster(
            sim,
            persistent_crc("rt0", "fft"),
            {"rt0": ["fft"], "rt1": ["fft"]},
            events=bus,
        )
        executor = AppExecutor(
            sim,
            api,
            [StageTask(name="t", duration_s=0.01, tile_name="rt0", mode_name="fft")],
            instrumentation=Instrumentation(events=bus),
        )
        timeline = executor.run(frames=1)
        assert manager.tile_quarantined("rt0")
        assert executor.failovers == 1
        execs = timeline.spans("exec")
        assert len(execs) == 1 and execs[0].worker == "rt1"
        failover = bus.events(ev.SCHED_FAILOVER)
        assert len(failover) == 1
        assert failover[0].source == "rt0"
        assert failover[0].attrs["to"] == "rt1"

    def test_software_fallback_when_no_tile_survives(self):
        sim = Simulator()
        bus = EventBus()
        api, manager = make_cluster(
            sim, persistent_crc("rt0", "fft"), {"rt0": ["fft"]}, events=bus
        )
        executor = AppExecutor(
            sim,
            api,
            [
                StageTask(
                    name="t",
                    duration_s=0.01,
                    tile_name="rt0",
                    mode_name="fft",
                    sw_duration_s=0.07,
                )
            ],
            instrumentation=Instrumentation(events=bus),
        )
        timeline = executor.run(frames=1)
        sw = timeline.spans("sw")
        assert len(sw) == 1
        assert sw[0].worker == "cpu"
        assert sw[0].duration_s == pytest.approx(0.07)
        assert bus.events(ev.SCHED_FAILOVER)[0].attrs["to"] == "cpu"

    def test_unplaceable_instance_raises(self):
        sim = Simulator()
        api, _ = make_cluster(sim, persistent_crc("rt0", "fft"), {"rt0": ["fft"]})
        executor = AppExecutor(
            sim,
            api,
            [StageTask(name="t", duration_s=0.01, tile_name="rt0", mode_name="fft")],
        )
        with pytest.raises(TileQuarantinedError):
            executor.run(frames=1)

    def test_pre_quarantined_tile_is_skipped_up_front(self):
        sim = Simulator()
        model = persistent_crc("rt0", "fft")
        api, manager = make_cluster(
            sim, model, {"rt0": ["fft"], "rt1": ["fft", "gemm"]}
        )
        # Quarantine rt0 before the executor ever runs.
        warm = AppExecutor(
            sim,
            api,
            [StageTask(name="w", duration_s=0.01, tile_name="rt0", mode_name="fft")],
        )
        warm.run(frames=1)
        assert manager.tile_quarantined("rt0")
        executor = AppExecutor(
            sim,
            api,
            [StageTask(name="t", duration_s=0.01, tile_name="rt0", mode_name="fft")],
        )
        timeline = executor.run(frames=1)
        assert executor.failovers == 1
        assert timeline.spans("exec")[0].worker == "rt1"

    def test_later_frames_keep_using_the_failover_target(self):
        sim = Simulator()
        api, _ = make_cluster(
            sim, persistent_crc("rt0", "fft"), {"rt0": ["fft"], "rt1": ["fft"]}
        )
        executor = AppExecutor(
            sim,
            api,
            [StageTask(name="t", duration_s=0.01, tile_name="rt0", mode_name="fft")],
        )
        timeline = executor.run(frames=3)
        execs = timeline.spans("exec")
        assert len(execs) == 3
        assert {e.worker for e in execs} == {"rt1"}


class ReversedExecutor(AppExecutor):
    """Spawns worker threads in reverse name order (determinism stress)."""

    def _worker_queues(self, queues):
        return sorted(queues.items(), reverse=True)


class TestWorkerOrderDeterminism:
    PLACEMENT = {"rt0": ["fft", "gemm"], "rt1": ["fft", "gemm"]}
    TASKS = [
        StageTask(name="a", duration_s=0.01, tile_name="rt0", mode_name="fft"),
        StageTask(name="b", duration_s=0.01, tile_name="rt1", mode_name="gemm"),
        StageTask(
            name="c",
            duration_s=0.01,
            tile_name="rt0",
            mode_name="gemm",
            deps=("a", "b"),
        ),
    ]

    def run_with(self, executor_cls):
        sim = Simulator()
        model = RuntimeFaultModel(seed=9, rates={CRC: 0.3})
        api, manager = make_cluster(sim, model.fresh(), dict(self.PLACEMENT))
        executor = executor_cls(sim, api, list(self.TASKS))
        timeline = executor.run(frames=4)
        per_tile = {
            tile: [(e.task, e.kind) for e in timeline.events if e.worker == tile]
            for tile in ("rt0", "rt1")
        }
        exec_spans = {
            tile: [
                e.duration_s
                for e in timeline.spans("exec")
                if e.worker == tile
            ]
            for tile in ("rt0", "rt1")
        }
        return (
            timeline.makespan_s,
            per_tile,
            exec_spans,
            dict(manager.failed_attempts_by_tile),
        )

    def test_thread_spawn_order_does_not_change_the_run(self):
        # The fault draws are keyed by (tile, mode, attempt), so the
        # same seeded run must replay identically whichever worker
        # thread the kernel spawns first. Reconfig span *boundaries*
        # may shift (they include ICAP queueing, and the queue order at
        # t=0 follows spawn order); the logical per-tile behaviour, the
        # fault timeline and the makespan must not.
        makespan_a, tiles_a, execs_a, failed_a = self.run_with(AppExecutor)
        makespan_b, tiles_b, execs_b, failed_b = self.run_with(ReversedExecutor)
        assert failed_a  # the 0.3 CRC rate actually bit somewhere
        assert makespan_a == makespan_b
        assert tiles_a == tiles_b
        for tile in execs_a:
            assert execs_a[tile] == pytest.approx(execs_b[tile])
        assert failed_a == failed_b
