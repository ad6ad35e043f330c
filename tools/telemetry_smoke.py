#!/usr/bin/env python
"""CI smoke test for the request-telemetry and SLO dashboard layer.

Exercises the full chain end to end on a seeded deployment:

1. a healthy ``repro dashboard`` run reports every default SLO with
   budget intact and exits 0;
2. the same run under injected runtime faults burns the
   deploy-failure-rate error budget and the verdict-driven exit code
   flips 0 -> 1 (DEGRADED, not CRITICAL: some attempts still land);
3. two identical seeded runs emit byte-identical ``--json`` payloads;
4. the Prometheus scrape file re-parses with the repo's text-format
   parser.

The scrape and JSON artifacts land in ``--out`` (default
``telemetry_artifacts/``) so CI can upload them.

Run:  PYTHONPATH=src python tools/telemetry_smoke.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

from repro.cli import main
from repro.obs.export import parse_prometheus_text

#: Fault injection that burns the deploy-failure-rate budget on SoC_Y
#: without sinking every attempt (DEGRADED, never CRITICAL).
BURN_INJECTION = "runtime:rt1:change_detection:crc:2"


def run_cli(argv: list) -> tuple:
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
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default="telemetry_artifacts",
        help="directory for scrape/JSON artifacts (uploaded by CI)",
    )
    args = parser.parse_args()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    prom = out_dir / "dashboard.prom"

    # 1. Healthy seeded run: all SLOs within budget, exit 0.
    base = ["dashboard", "soc_y", "--frames", "2", "--seed", "7"]
    code, text = run_cli(base + ["--json", "--prom", str(prom)])
    check(code == 0, "healthy dashboard run exits 0")
    healthy = json.loads(text)
    check(healthy["verdict"] == "ok", "healthy run verdict is ok")
    names = {s["name"] for s in healthy["slo"]["objectives"]}
    check(
        names
        == {"reconfig-latency-p95", "deploy-failure-rate", "cad-retry-rate"},
        "all three default SLOs evaluated",
    )
    check(
        all(
            s["budget_remaining"] is None or s["budget_remaining"] > 0
            for s in healthy["slo"]["objectives"]
        ),
        "healthy run keeps every error budget positive",
    )
    check(healthy["requests"]["minted"] >= 1, "request IDs were minted")

    # 2. Injected faults burn the budget and flip the exit code.
    code, text = run_cli(
        base + ["--json", "--inject", BURN_INJECTION]
    )
    check(code == 1, "budget burn flips dashboard exit code 0 -> 1")
    burned = json.loads(text)
    check(burned["verdict"] == "degraded", "burned run verdict is degraded")
    failure = next(
        s
        for s in burned["slo"]["objectives"]
        if s["name"] == "deploy-failure-rate"
    )
    check(
        failure["budget_remaining"] is not None
        and failure["budget_remaining"] <= 0,
        f"deploy-failure-rate budget exhausted "
        f"(burn {failure['burn']:.1%})",
    )
    check(failure["burn"] < 1.0, "burn stays partial (DEGRADED, not CRITICAL)")
    (out_dir / "dashboard_burned.json").write_text(text)

    # 3. Seeded determinism: identical runs, identical payloads.
    replay, text_again = run_cli(base + ["--json"])
    check(replay == 0, "replayed healthy run exits 0")
    _, text_first = run_cli(base + ["--json"])
    check(
        text_first == text_again,
        "two identical seeded runs emit byte-identical JSON",
    )
    (out_dir / "dashboard.json").write_text(text_again)

    # 4. The exported scrape parses.
    families = parse_prometheus_text(prom.read_text())
    check(bool(families), f"Prometheus scrape parses ({len(families)} families)")
    check(
        any(name.startswith("flow_") for name in families)
        and any(name.startswith("runtime_") for name in families),
        "scrape carries both flow and runtime series",
    )

    print("telemetry smoke: all checks passed")


if __name__ == "__main__":
    main_smoke()
