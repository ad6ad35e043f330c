"""Multi-threaded application execution on a PR-ESP SoC.

The paper's evaluation software is "a multi-threaded Linux software,
with one thread per reconfigurable tile, to control the execution flow
of accelerators" (Sec. VI). The executor reproduces that structure on
the DES kernel: each tile thread walks its assigned tasks in dataflow
order, calling the user-space API (which reconfigures on demand);
stages without a hardware mapping run on the CPU thread in software.
Frames are processed without pipelining, as in the paper.

When the runtime fault model is active the executor also performs
scheduler failover: an instance whose tile has been quarantined by the
reconfiguration manager is re-planned onto a surviving reconfigurable
tile holding the same partial bitstream, or — when no tile can serve
it — onto the CPU in software (``StageTask.sw_duration_s``), so the
application completes degraded instead of deadlocking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import (
    ConfigurationError,
    ReconfigurationError,
    SimulationError,
    TileQuarantinedError,
)
from repro.obs import events as ev
from repro.obs.instrumentation import OFF, Instrumentation
from repro.runtime.api import DprUserApi, TileHandle
from repro.sim.kernel import Event, Simulator


@dataclass(frozen=True)
class StageTask:
    """One task of the application DAG."""

    name: str
    duration_s: float  # hardware execution time (or software time if unmapped)
    tile_name: Optional[str]  # None -> software on the CPU thread
    mode_name: Optional[str] = None  # accelerator to load (hardware tasks)
    deps: Tuple[str, ...] = ()
    #: Software execution time of a *hardware* task — the failover
    #: fallback when every tile that could serve it is quarantined.
    sw_duration_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.duration_s < 0:
            raise ConfigurationError(f"task {self.name}: negative duration")
        if self.tile_name is not None and self.mode_name is None:
            raise ConfigurationError(
                f"task {self.name}: hardware task needs an accelerator mode"
            )
        if self.sw_duration_s is not None and self.sw_duration_s < 0:
            raise ConfigurationError(
                f"task {self.name}: negative software fallback duration"
            )


class TimelineEvent(NamedTuple):
    """One span on the execution timeline.

    A named tuple, like :class:`~repro.runtime.prc.ReconfigurationRecord`.
    """

    task: str
    worker: str  # tile name or "cpu"
    kind: str  # "exec" | "reconfig" | "sw"
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        """Span length."""
        return self.end_s - self.start_s


@dataclass
class ExecutionTimeline:
    """All spans of one run plus aggregate figures."""

    events: List[TimelineEvent] = field(default_factory=list)
    makespan_s: float = 0.0

    def spans(self, kind: Optional[str] = None) -> List[TimelineEvent]:
        """Events, optionally filtered by kind."""
        if kind is None:
            return list(self.events)
        return [e for e in self.events if e.kind == kind]

    def busy_time(self, worker: str) -> float:
        """Total busy time of one worker."""
        return sum(e.duration_s for e in self.events if e.worker == worker)

    def reconfiguration_time(self) -> float:
        """Total time spent reconfiguring."""
        return sum(e.duration_s for e in self.events if e.kind == "reconfig")


class AppExecutor:
    """Runs a task DAG with one thread per reconfigurable tile."""

    def __init__(
        self,
        sim: Simulator,
        api: DprUserApi,
        tasks: Sequence[StageTask],
        cpu_worker: str = "cpu",
        blank_after_frame: bool = False,
        instrumentation: Instrumentation = OFF,
    ) -> None:
        """``blank_after_frame`` enables the power-gating policy: each
        tile thread erases its region (greybox bitstream) once its last
        task of the frame completes, trading extra reconfiguration
        traffic for dark silicon while the rest of the frame drains.
        Requires blanking images in the bitstream store."""
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise ConfigurationError("task names must be unique")
        by_name = {t.name: t for t in tasks}
        for task in tasks:
            for dep in task.deps:
                if dep not in by_name:
                    raise ConfigurationError(
                        f"task {task.name} depends on unknown task {dep!r}"
                    )
        self.sim = sim
        self.api = api
        self.tasks = list(tasks)
        self.cpu_worker = cpu_worker
        self.blank_after_frame = blank_after_frame
        self.obs = instrumentation
        #: Instances re-planned off a quarantined tile this run.
        self.failovers = 0
        self._handles: Dict[str, TileHandle] = {}

    # ------------------------------------------------------------------
    def _topo_order(self) -> List[StageTask]:
        """Deterministic topological order of the task DAG."""
        by_name = {t.name: t for t in self.tasks}
        depth: Dict[str, int] = {}

        def compute(name: str, stack: Tuple[str, ...] = ()) -> int:
            if name in depth:
                return depth[name]
            if name in stack:
                raise ConfigurationError(f"task dependency cycle through {name!r}")
            task = by_name[name]
            depth[name] = 1 + max(
                (compute(d, stack + (name,)) for d in task.deps), default=-1
            )
            return depth[name]

        for task in self.tasks:
            compute(task.name)
        return sorted(self.tasks, key=lambda t: (depth[t.name], t.name))

    # ------------------------------------------------------------------
    def run(self, frames: int = 1, pipelined: bool = False) -> ExecutionTimeline:
        """Execute the DAG ``frames`` times.

        ``pipelined=False`` (the paper's mode: "all SoCs process
        individual frames without pipelining") runs frames back to back
        with a barrier between them. ``pipelined=True`` overlaps
        frames: frame k+1's stages start as soon as their own
        dependencies allow, subject only to per-tile serialization and
        a same-stage frame ordering (each stage consumes its own
        previous-frame state). Returns the merged timeline.
        """
        if frames <= 0:
            raise ConfigurationError("need at least one frame")
        if pipelined and self.blank_after_frame:
            raise ConfigurationError(
                "blank-after-frame power gating and pipelining are exclusive: "
                "a region is never idle at a frame boundary when pipelined"
            )
        timeline = ExecutionTimeline()
        start = self.sim.now
        # The DAG does not change between frames: order it once per run.
        ordered = self._topo_order()
        if pipelined:
            self._run_pipelined(timeline, frames, ordered)
        else:
            instances = [(t.name, t, t.deps) for t in ordered]
            for _ in range(frames):
                self._execute_instances(
                    timeline, instances, blank=self.blank_after_frame
                )
        timeline.makespan_s = self.sim.now - start
        return timeline

    def _run_pipelined(
        self, timeline: ExecutionTimeline, frames: int, ordered: List[StageTask]
    ) -> None:
        """All frames' task instances in flight at once."""
        instances: List[Tuple[str, StageTask, Tuple[str, ...]]] = []
        for frame in range(frames):
            for task in ordered:
                name = f"f{frame}:{task.name}"
                deps = tuple(f"f{frame}:{d}" for d in task.deps)
                if frame > 0:
                    # A stage consumes its own state from the previous
                    # frame (GMM model, warp parameters, ...).
                    deps = deps + (f"f{frame - 1}:{task.name}",)
                instances.append((name, task, deps))
        self._execute_instances(timeline, instances)

    def _execute_instances(
        self,
        timeline: ExecutionTimeline,
        instances: List[Tuple[str, StageTask, Tuple[str, ...]]],
        blank: bool = False,
    ) -> None:
        done: Dict[str, Event] = {
            name: self.sim.event() for name, _task, _deps in instances
        }

        # Partition instances onto workers: one thread per tile + one
        # CPU thread; queue order (list order) is a topological order.
        queues: Dict[str, List[Tuple[str, StageTask, Tuple[str, ...]]]] = {}
        for name, task, deps in instances:
            worker = task.tile_name if task.tile_name is not None else self.cpu_worker
            queues.setdefault(worker, []).append((name, task, deps))

        def thread_body(worker: str, assigned):
            for name, task, deps in assigned:
                if deps:
                    yield self.sim.all_of([done[d] for d in deps])
                if task.tile_name is None:
                    sw_start = self.sim.now
                    yield self.sim.timeout(task.duration_s)
                    timeline.events.append(
                        TimelineEvent(name, worker, "sw", sw_start, self.sim.now)
                    )
                else:
                    yield from self._run_hw_instance(timeline, name, task)
                done[name].succeed()
            if blank and worker != self.cpu_worker:
                blank_start = self.sim.now
                try:
                    yield from self.api.blank(self._handle_for(worker))
                except ReconfigurationError:
                    # Gating is best effort: a blank abandoned after its
                    # retries is left to the manager's recovery (the
                    # region is dark, or the tile quarantined).
                    if not self.api.faults_enabled:
                        raise
                if self.sim.now > blank_start:
                    timeline.events.append(
                        TimelineEvent(
                            f"{worker}_blank",
                            worker,
                            "reconfig",
                            blank_start,
                            self.sim.now,
                        )
                    )

        threads = [
            self.sim.process(thread_body(worker, assigned))
            for worker, assigned in self._worker_queues(queues)
        ]
        barrier = self.sim.all_of(threads)
        self.sim.run()
        if not barrier.processed:
            raise SimulationError(
                "frame execution deadlocked (circular tile dependencies?)"
            )
        for thread in threads:
            if thread.exception is not None:
                raise thread.exception

    def _worker_queues(self, queues):
        """Thread spawn order (deterministic: sorted by worker name).

        Seam for tests that stress worker orderings: per-tile behaviour
        must not depend on which thread the kernel spawns first.
        """
        return sorted(queues.items())

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def _run_hw_instance(self, timeline: "ExecutionTimeline", name: str, task: StageTask):
        """Run one hardware instance, re-planning around quarantines.

        Generator sub-routine of a worker thread. Retries an abandoned
        invocation on its own tile while the fault model may still
        recover it (bounded by the quarantine budget), re-plans onto a
        surviving tile once the tile is quarantined, and finally falls
        back to software when no tile can serve the mode.
        """
        tile = task.tile_name
        if self.api.tile_quarantined(tile):
            tile = self._replan(name, task, from_tile=tile)
        retries = 0
        while tile is not None:
            handle = self._handle_for(tile)
            try:
                record = yield from self.api.run(
                    handle, task.mode_name, exec_time_s=task.duration_s
                )
            except TileQuarantinedError:
                tile = self._replan(name, task, from_tile=tile)
                continue
            except ReconfigurationError:
                if self.api.tile_quarantined(tile):
                    tile = self._replan(name, task, from_tile=tile)
                    continue
                # The tile survives (dark or fallen back); retry the
                # mode while the quarantine budget bounds the loop.
                retries += 1
                if (
                    not self.api.faults_enabled
                    or retries > self.api.recovery.quarantine_after
                ):
                    raise
                continue
            if record.reconfig_s > 0:
                timeline.events.append(
                    TimelineEvent(
                        name,
                        tile,
                        "reconfig",
                        record.start_exec_s - record.reconfig_s,
                        record.start_exec_s,
                    )
                )
            timeline.events.append(
                TimelineEvent(
                    name,
                    tile,
                    "exec",
                    record.start_exec_s,
                    record.end_exec_s,
                )
            )
            return
        # Software failover: no surviving tile can serve the mode.
        sw_start = self.sim.now
        yield self.sim.timeout(task.sw_duration_s)
        timeline.events.append(
            TimelineEvent(name, self.cpu_worker, "sw", sw_start, self.sim.now)
        )

    def _replan(
        self, name: str, task: StageTask, from_tile: str
    ) -> Optional[str]:
        """Pick the failover target for one instance.

        Surviving tiles (sorted, skipping quarantined ones and the tile
        that failed) holding the mode's bitstream win; otherwise the
        software fallback (None) when the task has one. Emits
        ``sched.failover`` either way; raises when the instance cannot
        be placed at all.
        """
        target: Optional[str] = None
        for candidate in self.api.reconfigurable_tiles():
            if candidate == from_tile or self.api.tile_quarantined(candidate):
                continue
            if self.api.has_image(candidate, task.mode_name):
                target = candidate
                break
        if target is None and task.sw_duration_s is None:
            raise TileQuarantinedError(
                f"{name}: tile {from_tile!r} is quarantined, no surviving "
                f"tile holds {task.mode_name!r} and the stage has no "
                "software fallback"
            )
        self.failovers += 1
        self.obs.emit(
            ev.SCHED_FAILOVER,
            time=self.sim.now,
            source=from_tile,
            task=name,
            mode=task.mode_name,
            to=target if target is not None else self.cpu_worker,
        )
        return target

    def _handle_for(self, tile_name: str) -> TileHandle:
        if tile_name not in self._handles:
            self._handles[tile_name] = self.api.open_tile(tile_name)
        return self._handles[tile_name]
