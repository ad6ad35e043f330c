"""Crash-consistency fuzzer for the build/deploy service daemon.

Repeatedly SIGKILLs the real ``python -m repro serve`` daemon at
seeded kill points and asserts the crash-safety invariants hold across
every restart:

1. **no job lost**: every job a client ever saw accepted is present
   in the restarted daemon's table;
2. **none double-completed**: a job observed in a terminal state
   keeps that state and its exact result bytes on every later
   observation (a crash can re-run work, never re-decide it);
3. **resumed results are byte-identical**: every succeeded job's
   result equals a never-interrupted control run of the same config;
4. **healthz converges**: after each restart the daemon works its
   recovery backlog down and answers 200 again.

The kill schedule is a pure function of the seed: each round picks a
seeded victim job, waits for it to reach the worker, sleeps a seeded
extra delay, and SIGKILLs. Each run writes a summary (schedule plus a
stable fingerprint of the final job table) next to its state
directory; the test runs the fuzzer twice with one seed and asserts
the two summaries are equal.

Run:  PYTHONPATH=src python -m pytest -m smoke tests/smoke
"""

import hashlib
import json
import signal
import time

import pytest

from repro.faults import unit_draw as draw
from repro.service.client import ServiceClient

from tests.service.launcher import start_daemon

pytestmark = pytest.mark.smoke

SEED = 7
ROUNDS = 3
JOBS_PER_ROUND = 3

CONFIGS = ["soc_1", "soc_2", "soc_3", "soc_4"]
TENANTS = ["acme", "birch"]

#: Terminal states a crash must never un-decide.
TERMINAL = ("succeeded", "failed", "cancelled", "dead")


def stop(daemon) -> None:
    if daemon.poll() is None:
        daemon.kill()
        daemon.wait(timeout=30)


def wait_health_ok(client: ServiceClient, timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.healthz()["exit_code"] == 0:
            return
        time.sleep(0.05)
    raise AssertionError("healthz never converged to 200")


def table_by_id(client: ServiceClient) -> dict:
    return {record["job_id"]: record for record in client.jobs()["jobs"]}


def result_bytes(record: dict) -> str:
    return json.dumps(record.get("result"), sort_keys=True)


def verify_invariants(client: ServiceClient, submitted: dict, frozen: dict) -> None:
    """Invariants 1 and 2 against the live table; updates ``frozen``."""
    table = table_by_id(client)
    missing = [job_id for job_id in submitted if job_id not in table]
    assert not missing, f"jobs lost across restarts: {missing}"
    for job_id, record in table.items():
        outcome = (record["state"], result_bytes(record))
        if job_id in frozen:
            assert outcome == frozen[job_id], (
                f"{job_id} terminal outcome changed across a crash"
            )
        elif record["state"] in TERMINAL:
            frozen[job_id] = outcome


def run_chaos(work) -> str:
    """One fuzzer run under ``work``; returns the summary JSON text."""
    work.mkdir()
    state = work / "state"
    submitted: dict = {}   # job_id -> config
    frozen: dict = {}      # job_id -> first observed terminal outcome
    schedule: list = []

    for round_no in range(ROUNDS):
        daemon, port = start_daemon(state)
        try:
            client = ServiceClient(port=port, timeout=15)
            wait_health_ok(client)
            verify_invariants(client, submitted, frozen)

            fresh = []
            for index in range(JOBS_PER_ROUND):
                config = CONFIGS[
                    int(draw(SEED, "config", round_no, index) * len(CONFIGS))
                ]
                tenant = TENANTS[
                    int(draw(SEED, "tenant", round_no, index) * len(TENANTS))
                ]
                job_id = client.submit(config, tenant=tenant)["job_id"]
                submitted[job_id] = config
                fresh.append(job_id)

            # Seeded kill point: wait for a seeded victim to reach the
            # worker, then a seeded extra delay, then SIGKILL.
            victim_index = int(draw(SEED, "victim", round_no) * len(fresh))
            extra_delay = 0.2 * draw(SEED, "delay", round_no)
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
        finally:
            stop(daemon)

    # Final round: restart, drain everything, settle the table.
    daemon, port = start_daemon(state)
    try:
        client = ServiceClient(port=port, timeout=15)
        verify_invariants(client, submitted, frozen)
        for job_id in submitted:
            record = client.wait(job_id, timeout=240)
            assert record["state"] == "succeeded", f"{job_id} after the storm"
        wait_health_ok(client)
        final = table_by_id(client)
    finally:
        stop(daemon)

    # Invariant 3: control results on a pristine state directory.
    control_daemon, control_port = start_daemon(work / "control")
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
        stop(control_daemon)
    for job_id, config in sorted(submitted.items()):
        assert result_bytes(final[job_id]) == control[config], (
            f"{job_id} ({config}) result differs from the control run"
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
        "seed": SEED,
        "rounds": ROUNDS,
        "jobs_per_round": JOBS_PER_ROUND,
        "kill_schedule": schedule,
        "jobs": fingerprint,
    }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    (work / "chaos_summary.json").write_text(text)
    return text


def test_same_seed_same_kill_schedule_same_final_table(tmp_path):
    assert run_chaos(tmp_path / "a") == run_chaos(tmp_path / "b")
