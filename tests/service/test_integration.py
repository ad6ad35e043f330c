"""End-to-end service tests: scale, isolation, parity, crash recovery.

The kill-and-restart test drives the real ``python -m repro serve``
daemon as a subprocess, SIGKILLs it, restarts it on the same state
directory and asserts the recovered job's result is byte-identical to
an uninterrupted control run — the service's central crash-safety
claim.
"""

import gc
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.flow.dpr_flow import DprFlow
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import BuildService, ServiceConfig
from repro.service.jobs import JobSpec
from repro.service.queue import TenantQuota
from repro.service.supervisor import JOB_FINISHED, Supervisor
from repro.vivado.tool import VivadoInstance

REPO_ROOT = Path(__file__).resolve().parents[2]

CONFIGS = ["soc_1", "soc_2", "soc_3", "soc_4"]


def wait_all(client, job_ids, timeout=240.0):
    deadline = time.monotonic() + timeout
    records = {}
    for job_id in job_ids:
        remaining = max(1.0, deadline - time.monotonic())
        records[job_id] = client.wait(job_id, timeout=remaining)
    return records


class TestScale:
    def test_hundred_jobs_two_tenants_one_pool(self, tmp_path):
        config = ServiceConfig(
            state_dir=tmp_path / "state", port=0, workers=4, jobs=2
        )
        with BuildService(config) as service:
            client = ServiceClient(port=service.port)
            job_ids = []
            for index in range(100):
                record = client.submit(
                    CONFIGS[index % len(CONFIGS)],
                    tenant=("acme", "birch")[index % 2],
                    priority=index % 3,
                )
                job_ids.append(record["job_id"])
            assert len(set(job_ids)) == 100

            records = wait_all(client, job_ids)
            assert all(r["state"] == "succeeded" for r in records.values())
            # One warm pool, one cache: aside from the distinct configs
            # (and workers racing on a cold key, which at worst build a
            # duplicate each), everything is served from the cache.
            cached = sum(1 for r in records.values() if r["cached"])
            assert cached >= 100 - len(CONFIGS) * config.workers

            listing = client.jobs()
            assert listing["queue"]["admitted"] == 100
            assert listing["queue"]["rejected"] == 0
            by_tenant = {
                tenant: len(client.jobs(tenant=tenant)["jobs"])
                for tenant in ("acme", "birch")
            }
            assert by_tenant == {"acme": 50, "birch": 50}
            assert "service_jobs_total" in client.metrics()


class TestIsolation:
    def test_over_quota_tenant_is_rejected_never_queued(self, tmp_path):
        config = ServiceConfig(
            state_dir=tmp_path / "state",
            port=0,
            workers=2,
            jobs=1,
            quotas={"capped": TenantQuota(max_queued=0)},
        )
        with BuildService(config) as service:
            client = ServiceClient(port=service.port)
            for _ in range(3):
                with pytest.raises(ServiceError) as exc:
                    client.submit("soc_2", tenant="capped")
                assert exc.value.status == 429
                assert exc.value.reason == "tenant_queued"
            assert client.jobs(tenant="capped")["jobs"] == []
            # The other tenant is untouched by the noisy neighbour.
            record = client.submit("soc_2", tenant="polite")
            assert client.wait(record["job_id"])["state"] == "succeeded"
            snapshot = client.jobs()["queue"]
            assert snapshot["rejected"] == 3
            assert snapshot["admitted"] == 1


class TestParity:
    def test_serial_and_pooled_daemons_agree(self, tmp_path):
        results = {}
        for jobs in (1, 4):
            sup = Supervisor(
                state_dir=tmp_path / f"state{jobs}", workers=2, jobs=jobs
            )
            try:
                sup.start()
                records = [
                    sup.submit(JobSpec(config=name)) for name in CONFIGS
                ]
                deadline = time.monotonic() + 240
                for record in records:
                    while not record.state.terminal:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                assert all(r.result is not None for r in records)
                results[jobs] = {
                    r.spec.config: json.dumps(r.result, sort_keys=True)
                    for r in records
                }
            finally:
                sup.stop()
        assert results[1] == results[4]


def run_unpolled(supervisor, spec):
    """Submit ``spec`` and block on its ``JOB_FINISHED`` event.

    Nothing polls the HTTP API while the job runs: a status request's
    handler thread parses headers and encodes JSON under the GIL, and
    with one poll landing inside a ~1 ms warm hit it roughly doubles
    the hit's ``elapsed_s``.
    """
    finished = threading.Event()

    def on_finished(event):
        finished.set()

    supervisor.events.subscribe(on_finished, kinds=[JOB_FINISHED])
    try:
        job_id = supervisor.submit(spec).job_id
        assert finished.wait(timeout=60.0), job_id
    finally:
        supervisor.events.unsubscribe(on_finished)
    return job_id


def cold_then_warm(tmp_path):
    """One cold and one warm ``soc_1`` job on a fresh in-process daemon.

    soc_1 is the largest characterization SoC, the slowest cold build,
    so the cache-hit ratio has headroom. The jobs go in through the
    supervisor and their records come back over HTTP once both are
    done, so the timed windows hold the job alone (see
    :func:`run_unpolled`). GC is quiesced (process-global, so it covers
    the daemon's worker thread too): a gen-2 pass late in a full suite
    run can land inside the ~1 ms warm window.
    """
    config = ServiceConfig(state_dir=tmp_path, port=0, workers=1, jobs=1)
    with BuildService(config) as service:
        client = ServiceClient(port=service.port)
        gc.collect()
        gc.disable()
        try:
            job_ids = [
                run_unpolled(service.supervisor, JobSpec(config="soc_1"))
                for _ in range(2)
            ]
        finally:
            gc.enable()
        cold, warm = (client.status(job_id) for job_id in job_ids)
    assert cold["cached"] is False
    assert warm["cached"] is True
    assert warm["result"] == cold["result"]
    return cold, warm


class TestWarmCache:
    def test_warm_hit_builds_nothing(self, tmp_path, monkeypatch):
        """What the speed ratio stands for: a hit runs no flow and no tool.

        With ``jobs=1`` the daemon builds in its own worker thread, so
        class-level counters see every build and every Vivado command.
        """
        calls = {"build": 0, "tool": 0}
        build = DprFlow.build
        charge = VivadoInstance._charge

        def counted_build(self, *args, **kwargs):
            calls["build"] += 1
            return build(self, *args, **kwargs)

        def counted_charge(self, *args, **kwargs):
            calls["tool"] += 1
            return charge(self, *args, **kwargs)

        monkeypatch.setattr(DprFlow, "build", counted_build)
        monkeypatch.setattr(VivadoInstance, "_charge", counted_charge)
        config = ServiceConfig(state_dir=tmp_path, port=0, workers=1, jobs=1)
        with BuildService(config) as service:
            client = ServiceClient(port=service.port)
            cold = client.wait(client.submit("soc_1")["job_id"])
            after_cold = dict(calls)
            warm = client.wait(client.submit("soc_1")["job_id"])
        assert (cold["cached"], warm["cached"]) == (False, True)
        assert after_cold["build"] == 1 and after_cold["tool"] > 0
        assert calls == after_cold

    @pytest.mark.perf
    def test_warm_hit_is_ten_times_faster_than_cold(self, tmp_path):
        # The median of five alternating cold/warm pairs, each on its
        # own daemon and cache: one pair is a single ~1 ms sample that
        # host noise can swamp.
        ratios = []
        for pair in range(5):
            cold, warm = cold_then_warm(tmp_path / f"state{pair}")
            ratios.append(cold["elapsed_s"] / warm["elapsed_s"])
        assert statistics.median(ratios) >= 10, ratios


def start_daemon(state_dir, *extra_args):
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
            *extra_args,
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
            raise AssertionError(
                "daemon died before listening:\n" + "".join(banner)
            )
        banner.append(line)
        match = re.search(r"service listening on http://[^:]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))


class TestKillRestart:
    def test_sigkill_restart_resumes_byte_identically(self, tmp_path):
        state = tmp_path / "state"
        first, port = start_daemon(state)
        try:
            client = ServiceClient(port=port, timeout=10)
            submitted = client.submit("soc_4", tenant="acme")
            job_id = submitted["job_id"]
            # Let the job reach the worker, then kill without warning.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                state_now = client.status(job_id)["state"]
                if state_now in ("running", "succeeded"):
                    break
                time.sleep(0.005)
            first.send_signal(signal.SIGKILL)
            first.wait(timeout=30)
        finally:
            if first.poll() is None:
                first.kill()
                first.wait(timeout=30)

        second, port = start_daemon(state)
        try:
            client = ServiceClient(port=port, timeout=10)
            record = client.wait(job_id, timeout=120)
            assert record["state"] == "succeeded"
            result = client.result(job_id)
            # The daemon drained its recovery backlog: healthz is 200.
            health = client.healthz()
            assert health["exit_code"] < 2
        finally:
            second.kill()
            second.wait(timeout=30)

        # Control: the same job on a fresh daemon, never interrupted.
        control_sup = Supervisor(
            state_dir=tmp_path / "control", workers=1, jobs=1
        )
        try:
            control_sup.start()
            control = control_sup.submit(JobSpec(config="soc_4", tenant="acme"))
            deadline = time.monotonic() + 120
            while not control.state.terminal:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            control_sup.stop()
        assert json.dumps(result["result"], sort_keys=True) == json.dumps(
            control.result, sort_keys=True
        )


class TestSigtermDrain:
    def test_sigterm_drains_within_deadline_and_resumes(self, tmp_path):
        state = tmp_path / "state"
        # Wedge the first attempt so the job is provably in flight and
        # cannot finish inside the drain window: the drain MUST hand it
        # back to the queue rather than wait it out.
        first, port = start_daemon(
            state,
            "--drain-timeout", "1.0",
            "--inject", "service:slow",
        )
        try:
            client = ServiceClient(port=port, timeout=10)
            submitted = client.submit("soc_4", tenant="acme")
            job_id = submitted["job_id"]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if client.status(job_id)["state"] == "running":
                    break
                time.sleep(0.005)
            else:
                raise AssertionError("job never reached a worker")

            asked = time.monotonic()
            first.send_signal(signal.SIGTERM)
            # Graceful exit, bounded by the drain deadline (plus the
            # accept-loop tick and interpreter teardown slack).
            assert first.wait(timeout=30) == 0
            assert time.monotonic() - asked < 15.0
        finally:
            if first.poll() is None:
                first.kill()
                first.wait(timeout=30)

        # The drained job was requeued with its checkpoint, not lost
        # and not burned: a healthy restart resumes and finishes it.
        second, port = start_daemon(state)
        try:
            client = ServiceClient(port=port, timeout=10)
            record = client.wait(job_id, timeout=120)
            assert record["state"] == "succeeded"
            assert record["requeues"] >= 1
            result = client.result(job_id)
            assert client.healthz()["exit_code"] < 2
        finally:
            second.send_signal(signal.SIGTERM)
            try:
                second.wait(timeout=30)
            except subprocess.TimeoutExpired:
                second.kill()
                second.wait(timeout=30)

        control_sup = Supervisor(
            state_dir=tmp_path / "control", workers=1, jobs=1
        )
        try:
            control_sup.start()
            control = control_sup.submit(JobSpec(config="soc_4", tenant="acme"))
            deadline = time.monotonic() + 120
            while not control.state.terminal:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            control_sup.stop()
        assert json.dumps(result["result"], sort_keys=True) == json.dumps(
            control.result, sort_keys=True
        )
