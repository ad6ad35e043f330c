#!/usr/bin/env python
"""Crash-consistency fuzzer for the build/deploy service daemon.

Repeatedly SIGKILLs the real ``python -m repro serve`` daemon at
seeded kill points and asserts the crash-safety invariants hold across
every restart:

1. **no job lost** — every job a client ever saw accepted is present
   in the restarted daemon's table;
2. **none double-completed** — a job observed in a terminal state
   keeps that state and its exact result bytes on every later
   observation (a crash can re-run work, never re-decide it);
3. **resumed results are byte-identical** — every succeeded job's
   result equals a never-interrupted control run of the same config;
4. **healthz converges** — after each restart the daemon works its
   recovery backlog down and answers 200 again.

The kill schedule is a pure function of ``--seed``: each round picks a
seeded victim job, waits for it to reach the worker, sleeps a seeded
extra delay, and SIGKILLs. A summary (schedule + a stable fingerprint
of the final job table) is written to ``--out``; two runs with the
same seed write identical summaries, which CI compares.

Run:  PYTHONPATH=src python tools/chaos_smoke.py --seed 0 --rounds 3
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.faults import unit_draw as draw  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

CONFIGS = ["soc_1", "soc_2", "soc_3", "soc_4"]
TENANTS = ["acme", "birch"]

#: Terminal states a crash must never un-decide.
TERMINAL = ("succeeded", "failed", "cancelled", "dead")


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def start_daemon(state_dir: Path) -> tuple:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--state-dir", str(state_dir),
            "--port", "0", "--workers", "1", "--jobs", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    banner = []
    while True:
        line = proc.stdout.readline()
        if not line:
            print("daemon died before listening:", file=sys.stderr)
            sys.stderr.write("".join(banner))
            sys.exit(1)
        banner.append(line)
        match = re.search(r"service listening on http://[^:]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))


def wait_health_ok(client: ServiceClient, timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.healthz()["exit_code"] == 0:
            return
        time.sleep(0.05)
    check(False, "healthz converged to 200")


def table_by_id(client: ServiceClient) -> dict:
    return {record["job_id"]: record for record in client.jobs()["jobs"]}


def result_bytes(record: dict) -> str:
    return json.dumps(record.get("result"), sort_keys=True)


def verify_invariants(client: ServiceClient, submitted: dict, frozen: dict) -> None:
    """Invariants 1 and 2 against the live table; updates ``frozen``."""
    table = table_by_id(client)
    missing = [job_id for job_id in submitted if job_id not in table]
    check(not missing, f"no job lost across restarts (missing: {missing})")
    for job_id, record in table.items():
        if job_id in frozen:
            before = frozen[job_id]
            check(
                record["state"] == before["state"]
                and result_bytes(record) == before["result"],
                f"{job_id} terminal outcome is immutable across crashes",
            )
        elif record["state"] in TERMINAL:
            frozen[job_id] = {
                "state": record["state"],
                "result": result_bytes(record),
            }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument("--rounds", type=int, default=3, metavar="K",
                        help="kill-and-restart rounds before the final drain")
    parser.add_argument("--jobs-per-round", type=int, default=3, metavar="M")
    parser.add_argument("--out", default="service_artifacts", metavar="DIR",
                        help="directory for the chaos summary artifact")
    parser.add_argument("--state-dir", default=None, metavar="DIR",
                        help="persistent scratch dir (CI uploads it on "
                             "failure); default is a temp dir")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    submitted: dict = {}   # job_id -> config
    frozen: dict = {}      # job_id -> first observed terminal outcome
    schedule: list = []

    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        if args.state_dir is not None:
            tmp = args.state_dir
            Path(tmp).mkdir(parents=True, exist_ok=True)
        state = Path(tmp) / "state"

        for round_no in range(args.rounds):
            daemon, port = start_daemon(state)
            try:
                client = ServiceClient(port=port, timeout=15)
                wait_health_ok(client)
                print(f"ok: round {round_no}: daemon healthy after restart")
                verify_invariants(client, submitted, frozen)

                fresh = []
                for index in range(args.jobs_per_round):
                    config = CONFIGS[
                        int(draw(args.seed, "config", round_no, index) * len(CONFIGS))
                    ]
                    tenant = TENANTS[
                        int(draw(args.seed, "tenant", round_no, index) * len(TENANTS))
                    ]
                    job_id = client.submit(config, tenant=tenant)["job_id"]
                    submitted[job_id] = config
                    fresh.append(job_id)

                # Seeded kill point: wait for a seeded victim to reach
                # the worker, then a seeded extra delay, then SIGKILL.
                victim_index = int(
                    draw(args.seed, "victim", round_no) * len(fresh)
                )
                extra_delay = 0.2 * draw(args.seed, "delay", round_no)
                schedule.append(
                    {
                        "round": round_no,
                        "victim_index": victim_index,
                        "extra_delay_s": round(extra_delay, 6),
                    }
                )
                victim = fresh[victim_index]
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if client.status(victim)["state"] != "queued":
                        break
                    time.sleep(0.005)
                time.sleep(extra_delay)
                daemon.send_signal(signal.SIGKILL)
                daemon.wait(timeout=30)
                print(
                    f"ok: round {round_no}: SIGKILL at victim {victim_index} "
                    f"+{extra_delay:.3f}s"
                )
            finally:
                if daemon.poll() is None:
                    daemon.kill()
                    daemon.wait(timeout=30)

        # Final round: restart, drain everything, settle the table.
        daemon, port = start_daemon(state)
        try:
            client = ServiceClient(port=port, timeout=15)
            verify_invariants(client, submitted, frozen)
            for job_id in submitted:
                record = client.wait(job_id, timeout=240)
                check(
                    record["state"] == "succeeded",
                    f"{job_id} finishes after the storm",
                )
            wait_health_ok(client)
            print("ok: final daemon drained its backlog (healthz 200)")
            final = table_by_id(client)
        finally:
            daemon.kill()
            daemon.wait(timeout=30)

        # Invariant 3: control results on a pristine state directory.
        control_daemon, control_port = start_daemon(Path(tmp) / "control")
        try:
            control_client = ServiceClient(port=control_port, timeout=15)
            control = {
                config: result_bytes(
                    control_client.wait(
                        control_client.submit(config)["job_id"], timeout=240
                    )
                )
                for config in sorted(set(submitted.values()))
            }
        finally:
            control_daemon.kill()
            control_daemon.wait(timeout=30)
        for job_id, config in sorted(submitted.items()):
            check(
                result_bytes(final[job_id]) == control[config],
                f"{job_id} ({config}) result is byte-identical to control",
            )

    # The stable fingerprint: everything about the final table that is
    # a pure function of the seed (attempt counts depend on where the
    # wall-clock kill landed, so they stay out of the contract).
    fingerprint = [
        {
            "job_id": job_id,
            "config": record["spec"]["config"],
            "tenant": record["spec"]["tenant"],
            "state": record["state"],
            "result_sha256": hashlib.sha256(
                result_bytes(record).encode("utf-8")
            ).hexdigest(),
        }
        for job_id, record in sorted(final.items())
    ]
    summary = {
        "seed": args.seed,
        "rounds": args.rounds,
        "jobs_per_round": args.jobs_per_round,
        "kill_schedule": schedule,
        "jobs": fingerprint,
    }
    summary_path = out / "chaos_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"ok: summary written to {summary_path}")
    print("chaos smoke: all invariants held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
