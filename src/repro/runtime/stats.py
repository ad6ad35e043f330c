"""Runtime statistics: what the runtime's step log adds up to.

The paper's runtime manager exists to keep reconfiguration overhead
manageable; this module folds its step log into the numbers a
deployment engineer actually reads: per-tile utilization, queueing
delays, reconfiguration shares, and ICAP pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReconfigurationError
from repro.runtime.manager import ReconfigurationManager
from repro.runtime.steps import InvocationRecord


@dataclass(frozen=True)
class TileStats:
    """Aggregated behaviour of one reconfigurable tile."""

    tile_name: str
    invocations: int
    reconfigurations: int
    exec_time_s: float
    reconfig_time_s: float
    wait_time_s: float
    #: Failed bitstream-transfer attempts attributed to this tile.
    failed_attempts: int = 0
    #: Fallbacks to a last-known-good bitstream on this tile.
    fallbacks: int = 0
    #: Hung invocation attempts the watchdog caught on this tile.
    kernel_hangs: int = 0
    #: True when the tile ended the run quarantined.
    quarantined: bool = False

    @property
    def reconfig_share(self) -> float:
        """Fraction of the tile's busy time spent reconfiguring."""
        busy = self.exec_time_s + self.reconfig_time_s
        return self.reconfig_time_s / busy if busy > 0 else 0.0

    @property
    def mean_wait_s(self) -> float:
        """Average queueing delay per invocation."""
        return self.wait_time_s / self.invocations if self.invocations else 0.0


@dataclass(frozen=True)
class RuntimeStats:
    """Whole-SoC runtime statistics."""

    tiles: Dict[str, TileStats]
    total_invocations: int
    total_reconfigurations: int
    failed_attempts: int
    icap_busy_s: float
    span_s: float
    #: Runtime-resilience attribution (zero on healthy deployments).
    fallbacks: int = 0
    kernel_hangs: int = 0
    failovers: int = 0
    quarantined: Dict[str, str] = field(default_factory=dict)

    @property
    def icap_utilization(self) -> float:
        """Fraction of the run the single ICAP spent streaming."""
        return self.icap_busy_s / self.span_s if self.span_s > 0 else 0.0

    def busiest_tile(self) -> TileStats:
        """The tile with the most accelerator-busy time."""
        if not self.tiles:
            raise ReconfigurationError("no tiles attached")
        return max(self.tiles.values(), key=lambda t: t.exec_time_s)

    def to_dict(self) -> Dict:
        """JSON-serializable form (``repro deploy --json``)."""
        return {
            "total_invocations": self.total_invocations,
            "total_reconfigurations": self.total_reconfigurations,
            "failed_attempts": self.failed_attempts,
            "icap_busy_s": self.icap_busy_s,
            "icap_utilization": self.icap_utilization,
            "span_s": self.span_s,
            "fallbacks": self.fallbacks,
            "kernel_hangs": self.kernel_hangs,
            "failovers": self.failovers,
            "quarantined": dict(sorted(self.quarantined.items())),
            "tiles": {
                name: {
                    "invocations": tile.invocations,
                    "reconfigurations": tile.reconfigurations,
                    "failed_attempts": tile.failed_attempts,
                    "fallbacks": tile.fallbacks,
                    "kernel_hangs": tile.kernel_hangs,
                    "quarantined": tile.quarantined,
                    "exec_s": tile.exec_time_s,
                    "reconfig_s": tile.reconfig_time_s,
                    "wait_s": tile.wait_time_s,
                    "reconfig_share": tile.reconfig_share,
                }
                for name, tile in sorted(self.tiles.items())
            },
        }

    def summary_lines(self) -> List[str]:
        """Human-readable report."""
        lines = [
            f"invocations={self.total_invocations} "
            f"reconfigurations={self.total_reconfigurations} "
            f"failed_attempts={self.failed_attempts} "
            f"icap_utilization={self.icap_utilization:.1%}"
        ]
        if self.fallbacks or self.kernel_hangs or self.failovers or self.quarantined:
            resilience = (
                f"fallbacks={self.fallbacks} kernel_hangs={self.kernel_hangs} "
                f"failovers={self.failovers}"
            )
            if self.quarantined:
                resilience += (
                    " quarantined=" + ",".join(sorted(self.quarantined))
                )
            lines.append(resilience)
        for stats in sorted(self.tiles.values(), key=lambda t: t.tile_name):
            failed = (
                f" failed={stats.failed_attempts}" if stats.failed_attempts else ""
            )
            if stats.fallbacks:
                failed += f" fallbacks={stats.fallbacks}"
            if stats.kernel_hangs:
                failed += f" hangs={stats.kernel_hangs}"
            if stats.quarantined:
                failed += " QUARANTINED"
            lines.append(
                f"  {stats.tile_name:10s} inv={stats.invocations:<4d} "
                f"exec={stats.exec_time_s * 1000:7.1f}ms "
                f"reconf={stats.reconfig_time_s * 1000:7.1f}ms "
                f"({stats.reconfig_share:.0%}) "
                f"mean_wait={stats.mean_wait_s * 1000:6.2f}ms"
                f"{failed}"
            )
        return lines


def collect_stats(
    manager: ReconfigurationManager,
    span_s: Optional[float] = None,
    failovers: int = 0,
) -> RuntimeStats:
    """Aggregate a manager's telemetry into :class:`RuntimeStats`.

    ``failovers`` comes from the executor (the manager only sees the
    invocations that reached it, not the scheduler's re-planning).
    """
    folded = manager.steps.folded()
    invocations = folded.invocations
    by_tile: Dict[str, List[InvocationRecord]] = {name: [] for name in manager.tiles}
    for record in invocations.values():
        by_tile.setdefault(record.tile_name, []).append(record)
    failed, fallbacks, hangs = [
        folded.faults.get(f"runtime.{name}", {})
        for name in ("failed_attempts", "fallbacks", "kernel_hangs")
    ]

    tiles = {}
    for name, records in by_tile.items():
        state = manager.tiles.get(name)
        tiles[name] = TileStats(
            tile_name=name,
            invocations=len(records),
            reconfigurations=state.reconfigurations if state else 0,
            exec_time_s=sum(r.exec_time_s for r in records),
            reconfig_time_s=sum(r.reconfig_s for r in records),
            wait_time_s=sum(max(0.0, r.wait_s) for r in records),
            failed_attempts=failed.get(name, 0),
            fallbacks=fallbacks.get(name, 0),
            kernel_hangs=hangs.get(name, 0),
            quarantined=state.quarantined if state else False,
        )

    end = span_s if span_s is not None else manager.sim.now
    return RuntimeStats(
        tiles=tiles,
        total_invocations=len(invocations),
        total_reconfigurations=manager.total_reconfigurations(),
        failed_attempts=sum(failed.values()),
        icap_busy_s=manager.prc.total_reconfiguration_time_s(),
        span_s=end,
        fallbacks=sum(fallbacks.values()),
        kernel_hangs=sum(hangs.values()),
        failovers=failovers,
        quarantined=dict(manager.quarantined),
    )
