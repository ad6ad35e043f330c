"""Bridges between existing record types and the observability layer.

The executor's `ExecutionTimeline`, the manager's `RuntimeStats` and
the flow's `FlowResult` all pre-date the tracer/registry; these
adapters map them in **losslessly** so a Fig. 4 deployment produces
one merged trace (application-level task spans alongside the kernel's
protocol spans) and one registry that agrees with `summary_lines()`
by construction — both views read the same records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.obs.instrumentation import Instrumentation
from repro.obs.tracer import Span

if TYPE_CHECKING:  # avoid a circular import; the bridge is duck-typed
    from repro.runtime.executor import ExecutionTimeline
    from repro.runtime.stats import RuntimeStats


def bridge_timeline(
    timeline: "ExecutionTimeline",
    instrumentation: Instrumentation,
    process: str = "app",
) -> List[Span]:
    """Record every `TimelineEvent` as a span — the application view.

    Tracks are ``"app/<worker>"`` (one per tile thread plus the CPU
    thread); categories are the timeline kinds (``exec``/``reconfig``/
    ``sw``) prefixed with ``app.`` so kernel-level spans of the same
    protocol step stay distinguishable in the merged trace. The bridge
    is lossless: one span per event, bounds copied verbatim.
    """
    spans: List[Span] = []
    for event in timeline.events:
        span = instrumentation.record(
            name=event.task,
            start=event.start_s,
            end=event.end_s,
            category=f"app.{event.kind}",
            track=f"{process}/{event.worker}",
            worker=event.worker,
            kind=event.kind,
        )
        if span is not None:
            spans.append(span)
    return spans


def publish_runtime_stats(
    stats: "RuntimeStats", instrumentation: Instrumentation
) -> None:
    """Project `RuntimeStats` onto registry gauges.

    These are the exact numbers `summary_lines()` prints — published
    from the same aggregate object, so report and telemetry cannot
    disagree.
    """
    totals = instrumentation.gauge(
        "runtime.totals", "whole-SoC aggregates of one deployment"
    )
    totals.set(stats.total_invocations, stat="invocations")
    totals.set(stats.total_reconfigurations, stat="reconfigurations")
    totals.set(stats.failed_attempts, stat="failed_attempts")
    totals.set(stats.icap_busy_s, stat="icap_busy_s")
    totals.set(stats.span_s, stat="span_s")
    totals.set(stats.icap_utilization, stat="icap_utilization")

    tile_gauge = instrumentation.gauge("runtime.tile", "per-tile aggregates")
    for tile in stats.tiles.values():
        tile_gauge.set(tile.invocations, tile=tile.tile_name, stat="invocations")
        tile_gauge.set(
            tile.reconfigurations, tile=tile.tile_name, stat="reconfigurations"
        )
        tile_gauge.set(
            tile.failed_attempts, tile=tile.tile_name, stat="failed_attempts"
        )
        tile_gauge.set(tile.exec_time_s, tile=tile.tile_name, stat="exec_s")
        tile_gauge.set(tile.reconfig_time_s, tile=tile.tile_name, stat="reconfig_s")
        tile_gauge.set(tile.wait_time_s, tile=tile.tile_name, stat="wait_s")
        tile_gauge.set(tile.reconfig_share, tile=tile.tile_name, stat="reconfig_share")
        tile_gauge.set(tile.mean_wait_s, tile=tile.tile_name, stat="mean_wait_s")
