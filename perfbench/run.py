#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flow_cold --seed 1 --seconds 30 --trace 0

Workloads are ``flow_cold``, ``deploy_fig4`` and ``service_mixed`` (see
``workloads.py`` and ``NOTES.md``). The program under test is imported
from ``src/`` of the same checkout; nothing is installed.

With ``--trace 0`` the run measures the end-to-end metrics. With
``--trace 1`` its passes alternate untraced and traced with the
outside-in probes of ``tracing.py``, and it reports the per-layer
metrics, the self time of every probed function and the tracing
overhead; the spans go to ``perfbench/work/``.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when the run completed, whether or not
its checks passed, and 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform as host
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up is measured this many times per run, each in a fresh process
#: (interpreter start, ``import repro``, workload set-up), spread evenly
#: over the run between passes; the median is reported.
SETUP_PROBES = 5


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help=argparse.SUPPRESS,  # internal: set up, print 'ready', exit
    )
    return parser.parse_args(argv)


def percentile(values: List[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure_setup(args: argparse.Namespace) -> float:
    """Seconds from process spawn to 'ready' for a fresh set-up process."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--setup-probe",
    ]
    start = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return elapsed


def run_passes(workload, seconds: float, recorder=None, between=None) -> list:
    """Whole passes until ``seconds`` of pass time have elapsed (at
    least one).

    With a ``recorder``, passes alternate untraced and traced (probes
    installed for the odd ones), so host-speed drift during the run
    hits both halves alike; the run ends after a traced pass.
    ``between(elapsed)`` runs before each pass, outside its timed window.

    Garbage is collected before each pass, outside its timed window:
    a stopped daemon is a web of reference cycles, and leaving it to a
    later collection would make peak memory depend on the pass count.
    """
    passes = []
    elapsed = 0.0
    while True:
        if between is not None:
            between(elapsed)
        gc.collect()
        index = len(passes)
        traced = recorder is not None and index % 2 == 1
        if traced:
            recorder.pass_index = index
            recorder.install()
        start = time.perf_counter()
        try:
            passes.append(workload.run_pass(index))
        finally:
            elapsed += time.perf_counter() - start
            if traced:
                recorder.uninstall()
        if elapsed >= seconds and (recorder is None or traced):
            return passes


def verify(workload) -> Tuple[List[str], int, str]:
    """Check every op's output; returns problems, failed ops, digest.

    Every output of one input must be identical across the run and
    pass its workload check; each input's output is hashed once into
    the digest of all modelled outputs (same seed, same digest).
    """
    outputs = workload.outputs
    problems: List[str] = []
    failed = 0
    for key, output in sorted(outputs.first.items()):
        problem = workload.check(key, output)
        if problem is not None:
            problems.append(problem)
            failed += outputs.ops[key]
    for key, count in sorted(outputs.differing.items()):
        problems.append(f"{key}: {count} op(s) gave a different output")
        if workload.check(key, outputs.first[key]) is None:
            failed += count
    digest = hashlib.sha256(
        json.dumps(sorted(outputs.first.items())).encode("utf-8")
    ).hexdigest()
    return problems, failed, digest


def end_to_end(passes, failed_checks: int, setup_samples: List[float]) -> Dict:
    latencies = [ms for result in passes for _, ms in result.latencies]
    attempted = sum(result.attempted for result in passes)
    wall_s = sum(result.wall_s for result in passes)
    return {
        "ops_per_s": (len(latencies) / wall_s, "1/s"),
        "latency_ms_p50": (percentile(latencies, 50), "ms"),
        "latency_ms_p95": (percentile(latencies, 95), "ms"),
        "success_rate": ((len(latencies) - failed_checks) / attempted, "ratio"),
        "rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def print_report(args, workload, passes, problems, digest, extra_lines: List[str]) -> None:
    by_kind: Dict[str, List[float]] = {}
    for result in passes:
        for kind, ms in result.latencies:
            by_kind.setdefault(kind, []).append(ms)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"host: nproc={os.cpu_count()} python={host.python_version()} "
        f"{host.system()} {host.machine()}"
    )
    print(f"load: {workload.load}")
    print(f"passes: {len(passes)}  ops per pass: {passes[0].attempted}")
    for index, result in enumerate(passes):
        values = [ms for _, ms in result.latencies]
        if len(values) >= 2:
            print(
                f"  pass {index}: {len(values) / result.wall_s:8.2f} ops/s  "
                f"p50={statistics.median(values):8.2f} ms  "
                f"p95={percentile(values, 95):8.2f} ms"
                + ("  traced" if args.trace and index % 2 else "")
                + (f"  {result.daemon}" if result.daemon else "")
            )
    for kind, values in sorted(by_kind.items()):
        line = f"  {kind:<14s} n={len(values):<5d} p50={statistics.median(values):8.2f} ms"
        if len(values) >= 2:
            line += f"  p95={percentile(values, 95):8.2f} ms  max={max(values):8.2f} ms"
        print(line)
    errors = [error for result in passes for error in result.errors]
    print(f"errors: {len(errors)}")
    for error in errors[:5]:
        print(f"  {error}")
    print(f"checks: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    for problem in problems[:10]:
        print(f"  {problem}")
    print(f"digest: {digest}")
    for line in extra_lines:
        print(line)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS  # the program is importable from here on

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work_root = HERE / "work"
    work_dir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir, ROOT)
    try:
        if args.setup_probe:
            workload.setup()
            print("ready", flush=True)
            return 0
        workload.setup()
        if args.trace:
            from layers import layer_metrics
            from tracing import SpanRecorder

            recorder = SpanRecorder()
            passes = run_passes(workload, args.seconds, recorder)
            problems, failed_checks, digest = verify(workload)
            metrics, extra = layer_metrics(
                recorder, passes[0::2], passes[1::2], workload.service_layers
            )
            trace_path = work_root / f"trace-{args.workload}-seed{args.seed}.jsonl"
            recorder.write(trace_path, getattr(workload, "op_of_job", {}))
            extra.append(f"spans: {len(recorder.spans)} written to {trace_path.relative_to(ROOT)}")
        else:
            setup_samples: List[float] = []

            def probe_when_due(elapsed: float) -> None:
                # Probe k is due once k / SETUP_PROBES of the run is over.
                while (
                    len(setup_samples) < SETUP_PROBES
                    and len(setup_samples) * args.seconds <= elapsed * SETUP_PROBES
                ):
                    setup_samples.append(measure_setup(args))

            passes = run_passes(workload, args.seconds, between=probe_when_due)
            while len(setup_samples) < SETUP_PROBES:
                setup_samples.append(measure_setup(args))
            problems, failed_checks, digest = verify(workload)
            metrics = end_to_end(passes, failed_checks, setup_samples)
            extra = [
                "setup_s samples: " + " ".join(f"{s:.4f}" for s in setup_samples),
                "latency samples: " + str(sum(len(r.latencies) for r in passes)),
            ]
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    errors = sum(len(result.errors) for result in passes)
    print_report(args, workload, passes, problems, digest, extra)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(result.attempted for result in passes),
                "failed": errors + failed_checks,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
