#!/usr/bin/env python
"""CI smoke test for the runtime resilience layer.

The deploy-side sibling of ``tools/fault_smoke.py``, all through the
CLI entry point:

1. two identical seeded stochastic-fault monitor runs must produce
   byte-identical event logs and runtime stats (determinism);
2. a WAMI deployment with one tile forced into quarantine must still
   exit 0 (the scheduler re-planned the work), with the quarantine
   and failovers attributed in the runtime stats;
3. the same scenario through ``repro monitor`` must exit 1 with a
   DEGRADED verdict and the re-planning visible in the event payload.

Run:  PYTHONPATH=src python tools/runtime_fault_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from repro.cli import main

QUARANTINE_FLAGS = ["--inject", "runtime:rt1:change_detection"]
STOCHASTIC_FLAGS = ["--fault", "runtime:crc=0.15@3"]


def run_cli(argv: list) -> tuple:
    """cli.main with captured stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def main_smoke() -> None:
    # 1. Determinism: same seed, same fault timeline, twice.
    monitor_args = [
        "monitor", "soc_y", "--frames", "2", "--json",
        "--events", "500", *STOCHASTIC_FLAGS,
    ]
    code_a, out_a = run_cli(monitor_args)
    code_b, out_b = run_cli(monitor_args)
    check(code_a == code_b, "same-seed runs agree on the exit code")
    first, second = json.loads(out_a), json.loads(out_b)
    check(
        first["events"] == second["events"],
        "same-seed runs replay an identical event log",
    )
    check(
        first["runtime_faults"] == second["runtime_faults"],
        "same-seed runs agree on the resilience counters",
    )
    check(
        sum(1 for e in first["events"] if e["kind"] == "reconfig.failed") > 0,
        "the seeded 15% CRC rate actually produced failures",
    )

    # 2. Forced quarantine: the deployment completes degraded, exit 0.
    code, out = run_cli(
        ["deploy", "soc_y", "--frames", "2", "--json", *QUARANTINE_FLAGS]
    )
    check(code == 0, "deploy with a quarantined tile still exits 0")
    runtime = json.loads(out)["runtime"]
    check(
        runtime["quarantined"] == {"rt1": "crc"},
        "rt1 reported quarantined in the runtime stats",
    )
    check(runtime["failovers"] > 0, "the scheduler re-planned off rt1")

    # 3. The health monitor calls the same run DEGRADED (exit 1).
    code, out = run_cli(
        [
            "monitor", "soc_y", "--frames", "2", "--json",
            "--events", "500", *QUARANTINE_FLAGS,
        ]
    )
    check(code == 1, "monitor exits 1 on the degraded verdict")
    payload = json.loads(out)
    check(payload["verdict"] == "degraded", "verdict is degraded, not critical")
    check(
        payload["runtime_faults"]["quarantined_tiles"] == ["rt1"],
        "health report lists the quarantined tile",
    )
    check(
        any(e["kind"] == "sched.failover" for e in payload["events"]),
        "the failover decision is visible on the event bus",
    )


if __name__ == "__main__":
    main_smoke()
