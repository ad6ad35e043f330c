"""The user-space DPR API (Sec. V).

A thin, `esp_run`-flavoured veneer over the reconfiguration manager:
applications open a tile, request an accelerator, and run workloads
without seeing decouplers, bitstream addresses or the PRC. This is the
layer the paper's multi-threaded evaluation software is written against.

Tiles are opened like file descriptors and close like them too —
:class:`TileHandle` is a context manager::

    with api.open_tile("rt0") as handle:
        result = api.esp_run(handle, "fft")
        record = yield result.process

and ``esp_run`` returns a typed :class:`InvocationResult` instead of a
raw simulation process: yield its ``.process`` from DES code, then read
the accelerator name, wait/reconfig/exec times and the degraded flag
from the result itself. A DES thread that blocks on the call itself,
as ESP's ``esp_run()`` blocks its caller, runs the protocol inline
instead and spends no process on it::

    record = yield from api.run(handle, "fft")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReconfigurationError
from repro.runtime.manager import InvocationRecord, ReconfigurationManager
from repro.sim.process import Process


@dataclass(frozen=True)
class TileHandle:
    """An opened reconfigurable tile (the fd the API hands out).

    Usable as a context manager: leaving the ``with`` block closes the
    handle, after which the API rejects further operations on it.
    """

    tile_name: str
    modes: tuple
    api: Optional["DprUserApi"] = field(default=None, repr=False, compare=False)

    def close(self) -> None:
        """Release the handle (idempotent)."""
        if self.api is not None:
            self.api.close_tile(self.tile_name)

    def __enter__(self) -> "TileHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


@dataclass
class InvocationResult:
    """Typed outcome of one ``esp_run`` call.

    Wraps the underlying simulation process (DES code must still
    ``yield result.process`` to wait for completion) and exposes the
    invocation's telemetry once it finished — accelerator name, the
    wait/reconfigure/execute split, and whether the transfer needed
    failed attempts (``degraded``).
    """

    process: Process
    tile_name: str
    accelerator: str

    @property
    def done(self) -> bool:
        """True once the invocation completed."""
        return self.process.processed

    @property
    def record(self) -> InvocationRecord:
        """The completed invocation's record (raises while pending)."""
        record = self.process.value
        if not isinstance(record, InvocationRecord):
            raise ReconfigurationError(
                f"invocation of {self.accelerator!r} on {self.tile_name!r} "
                "has not completed"
            )
        return record

    @property
    def wait_s(self) -> float:
        """Queueing delay before the tile was acquired."""
        return self.record.wait_s

    @property
    def reconfig_s(self) -> float:
        """Time spent reconfiguring (0 when the mode was loaded)."""
        return self.record.reconfig_s

    @property
    def exec_time_s(self) -> float:
        """Pure accelerator execution time."""
        return self.record.exec_time_s

    @property
    def degraded(self) -> bool:
        """True when the invocation rode through runtime faults
        (failed transfer attempts or hung-and-restarted executions)."""
        record = self.record
        return record.failed_attempts > 0 or record.hang_attempts > 0


class DprUserApi:
    """User-space facade over the runtime manager."""

    def __init__(self, manager: ReconfigurationManager) -> None:
        self._manager = manager
        self._handles: Dict[str, TileHandle] = {}

    # ------------------------------------------------------------------
    def open_tile(self, tile_name: str) -> TileHandle:
        """Open a reconfigurable tile for use by this application.

        The returned handle is a context manager; leaving its ``with``
        block closes it again.
        """
        state = self._manager.tile(tile_name)  # validates existence
        handle = TileHandle(
            tile_name=state.name,
            modes=tuple(self._manager.store.modes_for_tile(state.name)),
            api=self,
        )
        self._handles[tile_name] = handle
        return handle

    def close_tile(self, tile_name: str) -> None:
        """Close an open handle (idempotent; unknown names are no-ops)."""
        self._handles.pop(tile_name, None)

    def handle(self, tile_name: str) -> TileHandle:
        """The open handle for ``tile_name``."""
        try:
            return self._handles[tile_name]
        except KeyError:
            raise ReconfigurationError(f"tile {tile_name!r} is not open") from None

    def _check_open(self, handle: TileHandle) -> None:
        if self._handles.get(handle.tile_name) is None:
            raise ReconfigurationError(
                f"tile {handle.tile_name!r} is not open (handle closed?)"
            )

    def _check_accelerator(self, handle: TileHandle, accelerator: str) -> None:
        self._check_open(handle)
        if accelerator not in handle.modes:
            raise ReconfigurationError(
                f"accelerator {accelerator!r} has no bitstream for tile "
                f"{handle.tile_name!r}; available: {list(handle.modes)}"
            )

    # ------------------------------------------------------------------
    def run(
        self,
        handle: TileHandle,
        accelerator: str,
        exec_time_s: Optional[float] = None,
    ):
        """Generator sub-routine: ``esp_run`` in the calling thread.

        ``record = yield from api.run(handle, "fft")`` blocks the
        calling DES thread through the whole protocol — tile lock, ICAP
        queue, completion interrupt, execution — and returns the
        :class:`InvocationRecord`, as ESP's ``esp_run()`` blocks its
        caller. A closed handle or an unknown accelerator raises here,
        at the call.
        """
        self._check_accelerator(handle, accelerator)
        manager = self._manager
        return manager.inline(
            manager.invocation(handle.tile_name, accelerator, exec_time_s)
        )

    def esp_run(
        self,
        handle: TileHandle,
        accelerator: str,
        exec_time_s: Optional[float] = None,
    ) -> InvocationResult:
        """Invoke ``accelerator`` on the tile (reconfiguring as needed).

        Mirrors ESP's ``esp_run()``: configuration registers are
        written, the accelerator runs to its completion interrupt. The
        returned :class:`InvocationResult` wraps the simulation process
        (``yield result.process`` to wait) and exposes the typed
        telemetry once complete. :meth:`run` is the same protocol
        without the process.
        """
        self._check_accelerator(handle, accelerator)
        process = self._manager.invoke(handle.tile_name, accelerator, exec_time_s)
        return InvocationResult(
            process=process,
            tile_name=handle.tile_name,
            accelerator=accelerator,
        )

    def blank(self, handle: TileHandle):
        """Generator sub-routine: ``esp_blank`` in the calling thread."""
        self._check_open(handle)
        manager = self._manager
        return manager.inline(manager.blanking(handle.tile_name))

    def esp_blank(self, handle: TileHandle) -> Process:
        """Erase the tile's region (power gating / fault clearing)."""
        self._check_open(handle)
        return self._manager.blank_tile(handle.tile_name)

    def esp_load(self, handle: TileHandle, accelerator: str) -> Process:
        """Pre-load an accelerator without running it (warm-up)."""
        self._check_accelerator(handle, accelerator)
        return self._manager.preload(handle.tile_name, accelerator)

    # ------------------------------------------------------------------
    # topology and health queries (what a scheduler needs to re-plan)
    # ------------------------------------------------------------------
    def reconfigurable_tiles(self) -> List[str]:
        """All attached reconfigurable tiles, sorted (deterministic)."""
        return sorted(self._manager.tiles)

    def tile_quarantined(self, tile_name: str) -> bool:
        """True when the tile is quarantined (closed to invocations)."""
        return self._manager.tile_quarantined(tile_name)

    def has_image(self, tile_name: str, accelerator: str) -> bool:
        """True when a partial bitstream exists for (tile, accelerator)."""
        return self._manager.store.has_image(tile_name, accelerator)

    @property
    def faults_enabled(self) -> bool:
        """True when the runtime fault model can produce failures."""
        return self._manager.faults.enabled

    @property
    def recovery(self):
        """The manager's :class:`~repro.runtime.faults.RecoveryPolicy`."""
        return self._manager.recovery

    # ------------------------------------------------------------------
    def invocation_log(self) -> List[InvocationRecord]:
        """All invocations the manager completed (telemetry)."""
        return list(self._manager.invocations)
