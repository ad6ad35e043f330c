#!/usr/bin/env python
"""CI smoke test for the deterministic profiling layer.

All through the CLI entry point:

1. ``repro profile fig4_smoke`` produces a profile whose self-time
   sum reconciles with the root inclusive time within 1%, with the
   DES dispatch loop among the top hot paths;
2. profiling overhead stays bounded (min-of-5 timings of the same
   deployment with and without a profile-only recorder) — the bare run
   uses the kernel's uninstrumented monomorphic dispatch loop, so the
   profiled run pays both the fold (one frame per DES callback) and the
   instrumented loop;
3. the canonical tree is identical across two runs (the committed
   profile baselines are gated by CI's bench job, not here);
4. the exporters agree: the collapsed stacks cover exactly the
   nonzero-self-time paths of the JSON document.

Run:  PYTHONPATH=src python tools/profile_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

from repro import api
from repro.cli import main
from repro.core.designs import wami_soc_y
from repro.obs.instrumentation import Instrumentation
from repro.obs.profiler import (
    canonical_tree,
    load_profile,
    self_host_total,
    self_time_shares,
)
from repro.obs.recorder import Recorder


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


#: Relative overhead ceiling for the profiled deployment. The bare
#: run takes the kernel's uninstrumented fast path (monomorphic
#: dispatch loop, no frame bookkeeping), so the profiled run is
#: measured against a strictly faster baseline; steady state is ~30%
#: on the 16-frame workload and the ceiling absorbs CI host noise.
OVERHEAD_CEILING = 0.60

#: Frames for the overhead measurement. More frames than the smoke
#: profile itself so the DES steady state dominates interpreter
#: warm-up and the min-of-N is stable at the millisecond scale.
OVERHEAD_FRAMES = 16


def timed_workload(profiled: bool) -> float:
    """Min-of-5 wall time of the overhead workload (build + deploy)."""
    best = float("inf")
    for _ in range(5):
        instrumentation = (
            Instrumentation(recorder=Recorder(trace=False)) if profiled else None
        )
        platform = api.platform(instrumentation=instrumentation)
        start = time.perf_counter()
        api.deploy(wami_soc_y(), frames=OVERHEAD_FRAMES, platform=platform)
        best = min(best, time.perf_counter() - start)
    return best


def main_smoke() -> None:
    out_dir = Path(tempfile.mkdtemp(prefix="profile_smoke_"))

    # 1. Reconciliation + hot-path attribution through the CLI.
    code, _ = run_cli(["profile", "fig4_smoke", "--out", str(out_dir)])
    check(code == 0, "repro profile fig4_smoke exits 0")
    document = load_profile(out_dir / "PROFILE_fig4_smoke.json")
    total = document["total_host_s"]
    drift = abs(self_host_total(document) - total) / total
    check(drift <= 0.01, f"self-time sum reconciles with root ({drift:.4%})")
    shares = self_time_shares(document)
    top = [p for p, _ in sorted(shares.items(), key=lambda kv: -kv[1])[:10]]
    check(
        any("dispatch:" in path for path in top),
        "DES dispatch is among the top 10 hot paths",
    )
    check(
        any("noc.transfer" in path for path in shares),
        "NoC transfer window is attributed",
    )

    # 2. Overhead: the profiled workload stays within the ceiling of
    # the bare one (which runs the uninstrumented fast path).
    bare = timed_workload(profiled=False)
    profiled = timed_workload(profiled=True)
    overhead = (profiled - bare) / bare
    check(
        overhead < OVERHEAD_CEILING,
        f"profiling overhead {overhead:+.1%} (bare {bare * 1000:.1f} ms, "
        f"profiled {profiled * 1000:.1f} ms) under {OVERHEAD_CEILING:.0%}",
    )

    # 3. Determinism: a second run yields the same canonical tree.
    rerun_dir = Path(tempfile.mkdtemp(prefix="profile_smoke_rerun_"))
    code, _ = run_cli(["profile", "fig4_smoke", "--out", str(rerun_dir)])
    check(code == 0, "second profile run exits 0")
    rerun = load_profile(rerun_dir / "PROFILE_fig4_smoke.json")
    check(
        canonical_tree(document) == canonical_tree(rerun),
        "two runs produce identical canonical trees",
    )

    # 4. Exporter agreement: collapsed lines == nonzero self-time paths.
    collapsed = (out_dir / "fig4_smoke.collapsed").read_text().splitlines()
    collapsed_paths = {line.rsplit(" ", 1)[0] for line in collapsed}
    # Sub-microsecond self times round to zero in the collapsed
    # export, so only paths with a visible share must appear.
    json_paths = {path for path, share in shares.items() if share >= 0.01}
    check(
        collapsed_paths >= json_paths,
        "collapsed stacks cover every hot JSON path",
    )

    print("profile smoke: all checks passed")


if __name__ == "__main__":
    main_smoke()
