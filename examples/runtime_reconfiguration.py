#!/usr/bin/env python
"""Deploy the WAMI application onto a built PR-ESP SoC.

Compiles SoC_Y (three reconfigurable tiles, Table VI allocation), loads
its compressed partial bitstreams into the runtime manager's store, and
executes two frames under the Linux-style reconfiguration manager: one
thread per tile, on-demand reconfiguration through the DFX controller,
per-tile locking, driver swaps. Prints the per-invocation log, a
worker-by-worker timeline summary, and the energy breakdown.

Run:  python examples/runtime_reconfiguration.py
"""

from __future__ import annotations

import repro.api as presp
from repro.core.designs import wami_soc_y
from repro.units import fmt_duration


def main() -> None:
    config = wami_soc_y()
    platform = presp.platform()

    print(f"building {config.name} through the PR-ESP flow...")
    flow_result = presp.build(config, platform=platform).flow
    partials = flow_result.partial_bitstreams()
    print(f"  strategy: {flow_result.strategy.value} (tau={flow_result.plan.tau})")
    print(f"  compile time: {flow_result.total_minutes:.0f} modelled minutes")
    print(f"  partial bitstreams: {len(partials)} "
          f"({sum(b.size_kib for b in partials):.0f} KB total)\n")

    print("deploying and running 2 frames under the runtime manager...\n")
    report = presp.deploy(
        config, flow_result=flow_result, frames=2, platform=platform
    )

    print("invocation log (tile, accelerator, reconfig, exec):")
    # The manager records every esp_run; show the first frame's worth.
    manager_log = report.timeline.spans("exec")
    reconfigs = {e.task: e for e in report.timeline.spans("reconfig")}
    for event in manager_log[:12]:
        reconfig = reconfigs.get(event.task)
        reconfig_text = (
            fmt_duration(reconfig.duration_s) if reconfig is not None else "warm"
        )
        print(
            f"  {event.worker:6s} {event.task:18s} reconfig={reconfig_text:>9s} "
            f"exec={fmt_duration(event.duration_s)}"
        )

    print("\nworker utilization:")
    workers = sorted({e.worker for e in report.timeline.events})
    for worker in workers:
        busy = sum(e.duration_s for e in report.timeline.events if e.worker == worker)
        share = busy / report.timeline.makespan_s
        print(f"  {worker:6s} busy {fmt_duration(busy)} ({share:5.1%} of the run)")

    energy = report.energy
    print("\nresults:")
    print(f"  frame latency : {report.seconds_per_frame * 1000:.1f} ms")
    print(f"  reconfigs     : {report.reconfigurations} "
          f"({report.reconfigurations / report.frames:.0f} per frame)")
    print(f"  software      : {', '.join(s.kernel_name for s in report.software_stages) or 'none'}")
    frames = report.frames
    print(f"  energy/frame  : {energy.joules_per_frame:.3f} J "
          f"(baseline {energy.baseline_j / frames:.2f} J, "
          f"dynamic {energy.dynamic_j / frames:.2f} J, "
          f"software {energy.software_j / frames:.2f} J, "
          f"reconfig {energy.reconfig_j / frames:.3f} J)")
    print(f"  average power : {energy.average_power_w:.2f} W")

    if report.runtime_stats is not None:
        print("\nmanager statistics:")
        for line in report.runtime_stats.summary_lines():
            print("  " + line)


if __name__ == "__main__":
    main()
