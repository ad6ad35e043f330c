"""Tests for the multi-threaded application executor."""

import pytest

from repro.errors import ConfigurationError
from repro.noc.mesh import Mesh
from repro.runtime.api import DprUserApi
from repro.runtime.driver import AcceleratorDriver, DriverRegistry
from repro.runtime.executor import AppExecutor, StageTask
from repro.runtime.manager import ReconfigurationManager
from repro.runtime.memory import BitstreamStore
from repro.runtime.prc import PrcDevice
from repro.vivado.bitstream import Bitstream, BitstreamKind


def build_runtime(sim, tiles=("rt0", "rt1"), modes=("a", "b", "c")):
    mesh = Mesh(3, 3, clock_hz=78e6)
    prc = PrcDevice(sim, mesh, mem_position=(0, 1), aux_position=(0, 2))
    store = BitstreamStore()
    registry = DriverRegistry()
    for mode in modes:
        registry.install(AcceleratorDriver(accelerator=mode, exec_time_s=0.01))
        for tile in tiles:
            store.load(
                Bitstream(
                    name=f"{tile}_{mode}.pbs",
                    kind=BitstreamKind.PARTIAL,
                    size_bytes=150_000,
                    compressed=True,
                    target_rp=tile,
                    mode=mode,
                ),
                tile,
            )
    manager = ReconfigurationManager(sim, prc, store, registry)
    for tile in tiles:
        manager.attach_tile(tile)
    return DprUserApi(manager), manager


class TestValidation:
    def test_duplicate_task_names(self, sim):
        api, _ = build_runtime(sim)
        tasks = [
            StageTask("t", 0.01, "rt0", "a"),
            StageTask("t", 0.01, "rt1", "b"),
        ]
        with pytest.raises(ConfigurationError, match="unique"):
            AppExecutor(sim, api, tasks)

    def test_unknown_dependency(self, sim):
        api, _ = build_runtime(sim)
        with pytest.raises(ConfigurationError, match="unknown task"):
            AppExecutor(sim, api, [StageTask("t", 0.01, "rt0", "a", deps=("ghost",))])

    def test_hw_task_needs_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            StageTask("t", 0.01, "rt0")

    def test_cycle_detected(self, sim):
        api, _ = build_runtime(sim)
        tasks = [
            StageTask("t1", 0.01, "rt0", "a", deps=("t2",)),
            StageTask("t2", 0.01, "rt1", "b", deps=("t1",)),
        ]
        executor = AppExecutor(sim, api, tasks)
        with pytest.raises(ConfigurationError, match="cycle"):
            executor.run()

    def test_zero_frames_rejected(self, sim):
        api, _ = build_runtime(sim)
        executor = AppExecutor(sim, api, [StageTask("t", 0.01, "rt0", "a")])
        with pytest.raises(ConfigurationError):
            executor.run(frames=0)


class TestExecution:
    def test_dependencies_respected(self, sim):
        api, _ = build_runtime(sim)
        tasks = [
            StageTask("first", 0.01, "rt0", "a"),
            StageTask("second", 0.01, "rt1", "b", deps=("first",)),
        ]
        timeline = AppExecutor(sim, api, tasks).run()
        spans = {e.task: e for e in timeline.spans("exec")}
        assert spans["second"].start_s >= spans["first"].end_s

    def test_independent_tasks_on_different_tiles_overlap(self, sim):
        api, _ = build_runtime(sim)
        tasks = [
            StageTask("a_task", 0.5, "rt0", "a"),
            StageTask("b_task", 0.5, "rt1", "b"),
        ]
        timeline = AppExecutor(sim, api, tasks).run()
        spans = {e.task: e for e in timeline.spans("exec")}
        assert spans["a_task"].start_s < spans["b_task"].end_s
        assert spans["b_task"].start_s < spans["a_task"].end_s

    def test_software_task_runs_on_cpu_worker(self, sim):
        api, _ = build_runtime(sim)
        tasks = [StageTask("sw", 0.1, None)]
        timeline = AppExecutor(sim, api, tasks).run()
        (span,) = timeline.spans("sw")
        assert span.worker == "cpu"
        assert span.duration_s == pytest.approx(0.1)

    def test_reconfig_spans_recorded(self, sim):
        api, _ = build_runtime(sim)
        tasks = [
            StageTask("t1", 0.01, "rt0", "a"),
            StageTask("t2", 0.01, "rt0", "b", deps=("t1",)),
        ]
        timeline = AppExecutor(sim, api, tasks).run()
        assert len(timeline.spans("reconfig")) == 2  # both modes loaded once

    def test_same_mode_twice_reconfigures_once_per_frame_chain(self, sim):
        api, manager = build_runtime(sim)
        tasks = [
            StageTask("t1", 0.01, "rt0", "a"),
            StageTask("t2", 0.01, "rt0", "a", deps=("t1",)),
        ]
        AppExecutor(sim, api, tasks).run()
        assert manager.total_reconfigurations() == 1

    def test_multi_frame_accumulates(self, sim):
        api, _ = build_runtime(sim)
        tasks = [StageTask("t", 0.01, "rt0", "a")]
        timeline = AppExecutor(sim, api, tasks).run(frames=3)
        assert len(timeline.spans("exec")) == 3

    def test_makespan_covers_all_events(self, sim):
        api, _ = build_runtime(sim)
        tasks = [
            StageTask("t1", 0.02, "rt0", "a"),
            StageTask("t2", 0.03, "rt1", "b", deps=("t1",)),
            StageTask("sw", 0.01, None, deps=("t2",)),
        ]
        timeline = AppExecutor(sim, api, tasks).run()
        assert timeline.makespan_s >= max(e.end_s for e in timeline.events) - 1e-12

    def test_busy_time_per_worker(self, sim):
        api, _ = build_runtime(sim)
        tasks = [
            StageTask("t1", 0.02, "rt0", "a"),
            StageTask("sw", 0.05, None),
        ]
        timeline = AppExecutor(sim, api, tasks).run()

        def busy(worker):
            return sum(e.duration_s for e in timeline.events if e.worker == worker)

        assert busy("cpu") == pytest.approx(0.05)
        assert busy("rt0") > 0.02  # exec + reconfig
