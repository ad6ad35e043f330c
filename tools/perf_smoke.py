#!/usr/bin/env python
"""CI smoke test for the hot-path performance work.

Guards the vectorized floorplanner of the Fig. 4 workloads against
regression:

1. ``flow.floorplan`` host self-time share of the fig4_smoke profile
   stays below the committed pre-optimization share (it was 87.2% of
   the workload before the placer was vectorized);
2. the aggregate ``flow.floorplan`` share of the full
   fig4_wami_runtime profile stays far below its pre-optimization
   ~82% (the placer must not reclaim the workload).

The deploy path's cost is guarded without a wall clock, by call
counts in ``tests/runtime/test_deploy_cost.py``; a cold build's front
end (reading the esp_config text, partitioning the RTL) the same way,
in ``tests/flow/test_build_cost.py``; both end to end by the
repository benchmark (``perfbench/``). The closed-form NoC model is
checked against the flit-level reference on every fig4 fetch path by
``tests/noc/test_analytic.py``.

Run:  PYTHONPATH=src python tools/perf_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from repro.cli import main
from repro.obs.profiler import load_profile, self_time_shares

#: Host self-time share of ``flow.floorplan`` in the fig4_smoke
#: profile before the placer was vectorized (committed pre-PR
#: baseline). The share must never climb back to the old regime.
PRE_PR_FLOORPLAN_SHARE = 0.872

#: Aggregate ``flow.floorplan`` share of fig4_wami_runtime before the
#: optimization (~82% across the three deployments). The smoke gate
#: sits at 50%: far above today's ~20%, far below the old regime, and
#: insensitive to run-to-run jitter in which single frame tops the
#: profile.
RUNTIME_FLOORPLAN_SHARE_CEILING = 0.50


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


def floorplan_share(document: dict) -> float:
    """Total host self-time share attributed to ``flow.floorplan``."""
    shares = self_time_shares(document)
    return sum(
        share for path, share in shares.items() if "flow.floorplan" in path
    )


def main_smoke() -> None:
    out_dir = Path(tempfile.mkdtemp(prefix="perf_smoke_"))

    # 1. The floorplanner stays off the old hot-path regime.
    code, _ = run_cli(["profile", "fig4_smoke", "--out", str(out_dir)])
    check(code == 0, "repro profile fig4_smoke exits 0")
    smoke = load_profile(out_dir / "PROFILE_fig4_smoke.json")
    share = floorplan_share(smoke)
    check(
        share < PRE_PR_FLOORPLAN_SHARE,
        f"flow.floorplan self-time share {share:.1%} below pre-PR "
        f"{PRE_PR_FLOORPLAN_SHARE:.1%}",
    )

    # 2. On the full runtime workload the placer stays a minor frame.
    code, _ = run_cli(["profile", "fig4_wami_runtime", "--out", str(out_dir)])
    check(code == 0, "repro profile fig4_wami_runtime exits 0")
    runtime = load_profile(out_dir / "PROFILE_fig4_wami_runtime.json")
    runtime_share = floorplan_share(runtime)
    check(
        runtime_share < RUNTIME_FLOORPLAN_SHARE_CEILING,
        f"fig4_wami_runtime flow.floorplan share {runtime_share:.1%} under "
        f"{RUNTIME_FLOORPLAN_SHARE_CEILING:.0%} (pre-PR ~82%)",
    )

    print("perf smoke: all checks passed")


if __name__ == "__main__":
    main_smoke()
