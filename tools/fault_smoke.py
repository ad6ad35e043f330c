#!/usr/bin/env python
"""CI smoke test for the fault-tolerant, resumable flow.

Four phases, all through the CLI entry point:

1. build an SoC with seeded CAD faults, uninterrupted — the baseline
   summary;
2. repeat the build with stage checkpointing but kill it mid-flow
   (the implementation stage raises ``KeyboardInterrupt``, the
   moral equivalent of ctrl-C on the build host);
3. resume from the checkpoint directory and assert the resumed
   summary is byte-identical to the uninterrupted baseline;
4. resume a different build (``--no-compress``) into a checkpoint
   directory a compressed build filled, and assert it matches a fresh
   ``--no-compress`` build: another build's stages and job files must
   not be trusted.

A last check builds with one RP forced to permanent failure and
asserts the degraded build still exits 0 with blanking bitstreams.

Run:  PYTHONPATH=src python tools/fault_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile

from repro.cli import main
from repro.flow import dpr_flow

FAULT_FLAGS = ["--fault", "cad=0.3@7"]


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
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = f"{tmp}/ckpt"

        # 1. Uninterrupted baseline with seeded faults.
        code, out = run_cli(["build", "soc_2", *FAULT_FLAGS, "--json"])
        check(code == 0, "faulty build completes")
        baseline = json.loads(out)
        check(
            baseline["fault_tolerance"]["retries"] > 0,
            "seeded faults exercised the retry path",
        )

        # 2. Same build, checkpointed, killed during implementation.
        original = dpr_flow.STAGES

        def killed(build):
            raise KeyboardInterrupt("simulated kill mid-flow")

        dpr_flow.STAGES = tuple(
            (name, killed if name == "implementation" else stage)
            for name, stage in original
        )
        try:
            run_cli(
                ["build", "soc_2", *FAULT_FLAGS, "--checkpoint-dir", ckpt]
            )
        except KeyboardInterrupt:
            print("ok: build killed during the implementation stage")
        else:
            check(False, "interrupted build must not complete")
        finally:
            dpr_flow.STAGES = original

        # 3. Resume and compare against the uninterrupted baseline.
        code, out = run_cli(
            [
                "build", "soc_2", *FAULT_FLAGS,
                "--checkpoint-dir", ckpt, "--resume", "--json",
            ]
        )
        check(code == 0, "resumed build completes")
        check(
            json.loads(out) == baseline,
            "resumed summary equals the uninterrupted baseline",
        )

        # 4. A different build resumed into that directory starts over.
        code, out = run_cli(
            [
                "build", "soc_2", "--no-compress",
                "--checkpoint-dir", ckpt, "--resume", "--json",
            ]
        )
        check(code == 0, "foreign-directory resume completes")
        code, fresh = run_cli(["build", "soc_2", "--no-compress", "--json"])
        check(
            code == 0 and json.loads(out) == json.loads(fresh),
            "resume into another build's checkpoints equals a fresh build",
        )

    # 5. A permanently failed RP degrades instead of aborting.
    code, out = run_cli(
        [
            "build", "soc_2",
            "--inject", "cad:synthesis:synth_rt_sort:3", "--json",
        ]
    )
    check(code == 0, "degraded build exits 0")
    summary = json.loads(out)
    check(
        summary["fault_tolerance"]["degraded"]
        and summary["fault_tolerance"]["dark_rps"] == ["rt_sort"],
        "rt_sort reported dark in the summary",
    )
    blanks = [
        b for b in summary["bitstreams"] if b["name"] == "rt_sort_blank.pbs"
    ]
    check(len(blanks) == 1, "dark tile still ships a blanking bitstream")


if __name__ == "__main__":
    main_smoke()
