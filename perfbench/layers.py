"""Per-layer metrics of a traced run.

Every figure comes from the spans and call counts of
:class:`tracing.SpanRecorder`, taken over the traced passes only.
``*_ms`` is mean host milliseconds per call of the probed function (for
``core.choose_ms``, the three strategy functions per call of the first);
``*_calls`` and ``sim.processes`` are calls per op. A layer a workload
does not reach reports 0 — that is the prediction for it, not a gap.
The service-path metrics (:data:`SERVICE_METRICS`) are reported by
``service_mixed`` only, the one workload that reaches those layers.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple


#: Per-layer metrics of the daemon, cache, pool and telemetry layers.
SERVICE_METRICS = frozenset(
    {
        "service.submit_http_ms",
        "service.schema_ms",
        "service.admit_ms",
        "service.queue_wait_ms",
        "service.store_save_ms",
        "service.store_saves",
        "service.polls_per_job",
        "cache.hit_ratio",
        "cache.get_calls",
        "cache.put_ms",
        "batch.build_one_hit_ms",
        "batch.build_one_miss_ms",
        "obs.telemetry_record_ms",
        "obs.registry_series",
        "service.thread_crashes",
        "service.workers_alive",
    }
)


def _overhead_pct(untraced, traced) -> float:
    """How much slower the traced passes ran than the untraced passes
    interleaved with them, in percent of host time per op."""

    def ops_per_s(passes) -> float:
        ops = sum(len(result.latencies) for result in passes)
        return ops / sum(result.wall_s for result in passes)

    return (ops_per_s(untraced) / ops_per_s(traced) - 1.0) * 100.0


def layer_metrics(
    recorder, untraced, traced, service: bool
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    table = recorder.layer_times()
    counts = recorder.counts
    ops = max(1, sum(len(result.latencies) for result in traced))

    def calls(name: str) -> int:
        return int(table.get(name, {}).get("calls", 0))

    def total_s(*names: str, key: str = "inclusive_s") -> float:
        return sum(table.get(name, {}).get(key, 0.0) for name in names)

    def per_call_ms(*names: str, key: str = "inclusive_s") -> float:
        n = calls(names[0])
        return total_s(*names, key=key) * 1000.0 / n if n else 0.0

    def outcome_ms(name: str, hit: bool) -> Tuple[float, int]:
        durations = [
            s.end - s.start for s in recorder.spans if s.name == name and s.hit is hit
        ]
        if not durations:
            return 0.0, 0
        return statistics.fmean(durations) * 1000.0, len(durations)

    gets = [s for s in recorder.spans if s.name == "cache.get"]
    hits = sum(1 for s in gets if s.hit)
    transfers = counts.get("prc.transfer_seconds", 0)
    processes = counts.get("sim.process", 0)
    waits = recorder.queue_waits_ms()
    jobs = calls("service.submit_http")
    # Daemon health does not depend on the probes: count every pass.
    daemons = [result.daemon for result in (*untraced, *traced) if result.daemon]
    hit_ms, hit_n = outcome_ms("batch.build_one", True)
    miss_ms, miss_n = outcome_ms("batch.build_one", False)

    metrics: Dict[str, Tuple[float, str]] = {
        # flow
        "flow.build_ms": (per_call_ms("flow.build"), "ms"),
        "flow.self_ms": (per_call_ms("flow.build", key="self_s"), "ms"),
        "soc.partition_ms": (per_call_ms("soc.partition"), "ms"),
        "floorplan.plan_ms": (per_call_ms("floorplan.plan"), "ms"),
        "floorplan.validate_ms": (per_call_ms("floorplan.validate"), "ms"),
        "core.choose_ms": (
            per_call_ms(
                "core.compute_metrics",
                "core.choose_strategy",
                "core.plan_implementation",
            ),
            "ms",
        ),
        "vivado.synth_ms": (per_call_ms("vivado.synth"), "ms"),
        "vivado.synth_calls": (calls("vivado.synth") / ops, "count"),
        "vivado.impl_ms": (per_call_ms("vivado.impl"), "ms"),
        "vivado.impl_calls": (calls("vivado.impl") / ops, "count"),
        "vivado.bitstream_ms": (per_call_ms("vivado.bitstream"), "ms"),
        "vivado.bitstream_calls": (calls("vivado.bitstream") / ops, "count"),
        # deploy
        "platform.deploy_ms": (per_call_ms("platform.deploy"), "ms"),
        "wami.tasks_ms": (per_call_ms("wami.tasks"), "ms"),
        "runtime.executor_ms": (per_call_ms("runtime.executor"), "ms"),
        "sim.run_ms": (per_call_ms("sim.run"), "ms"),
        "sim.processes": (processes / ops, "count"),
        "sim.us_per_process": (
            total_s("sim.run") * 1e6 / processes if processes else 0.0,
            "us",
        ),
        "runtime.reconfig_calls": (counts.get("runtime.reconfigure", 0) / ops, "count"),
        "noc.transfer_calls": (transfers / ops, "count"),
        "noc.transfer_cache_hit_ratio": (
            1.0 - counts.get("noc.analytic", 0) / transfers if transfers else 0.0,
            "ratio",
        ),
        "energy.measure_ms": (per_call_ms("energy.measure"), "ms"),
        # service
        "service.submit_http_ms": (per_call_ms("service.submit_http"), "ms"),
        "service.schema_ms": (per_call_ms("service.schema"), "ms"),
        "service.admit_ms": (per_call_ms("service.admit"), "ms"),
        "service.queue_wait_ms": (statistics.fmean(waits) if waits else 0.0, "ms"),
        "service.store_save_ms": (per_call_ms("service.store_save"), "ms"),
        "service.store_saves": (calls("service.store_save") / ops, "count"),
        "service.polls_per_job": (
            calls("service.status_http") / jobs if jobs else 0.0,
            "count",
        ),
        # cache and batch
        "cache.hit_ratio": (hits / len(gets) if gets else 0.0, "ratio"),
        "cache.get_calls": (len(gets) / ops, "count"),
        "cache.put_ms": (per_call_ms("cache.put"), "ms"),
        "batch.build_one_hit_ms": (hit_ms, "ms"),
        "batch.build_one_miss_ms": (miss_ms, "ms"),
        # obs and daemon health
        "obs.telemetry_record_ms": (per_call_ms("obs.telemetry_record"), "ms"),
        "obs.registry_series": (
            float(max((d["registry_series"] for d in daemons), default=0)),
            "count",
        ),
        "service.thread_crashes": (
            float(sum(d["thread_crashes"] for d in daemons)),
            "count",
        ),
        "service.workers_alive": (
            float(daemons[-1]["workers_alive"]) if daemons else 0.0,
            "count",
        ),
        "trace.overhead_pct": (_overhead_pct(untraced, traced), "%"),
    }

    if not service:
        metrics = {k: v for k, v in metrics.items() if k not in SERVICE_METRICS}
    lines = [
        f"traced ops: {ops}  (untraced passes {len(untraced)}, traced passes {len(traced)})",
        f"tracing overhead: {metrics['trace.overhead_pct'][0]:+.2f}% host time per op",
        f"cache.hit_ratio base: {len(gets)} FlowCache.get calls ({hits} hits)",
        f"noc.transfer_cache_hit_ratio base: {transfers} PrcDevice.transfer_seconds calls",
        f"batch.build_one: {hit_n} hits, {miss_n} misses",
        f"service.queue_wait_ms base: {len(waits)} dequeued jobs",
        "self time per op (ms), by probed function:",
        f"  {'span':<26s} {'calls/op':>9s} {'incl ms/op':>11s} {'self ms/op':>11s}",
    ]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"  {name:<26s} {row['calls'] / ops:>9.2f} "
            f"{row['inclusive_s'] * 1000 / ops:>11.3f} {row['self_s'] * 1000 / ops:>11.3f}"
        )
    for name in sorted(counts):
        lines.append(f"  {name:<26s} {counts[name] / ops:>9.2f} (count only)")
    return metrics, lines
