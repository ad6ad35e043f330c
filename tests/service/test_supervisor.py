"""The supervisor: execution, scheduling, recovery and health."""

import json
import threading
import time

import pytest

from repro.errors import PrEspError
from repro.obs.health import Verdict
from repro.service.jobs import JobRecord, JobSpec, JobState, JobStore
from repro.service.supervisor import (
    JOB_FINISHED,
    JOB_REQUEUED,
    JOB_SUBMITTED,
    Supervisor,
)


def wait_terminal(supervisor, records, timeout=60.0):
    """Block until every record is terminal (records mutate in place)."""
    deadline = time.monotonic() + timeout
    for record in records:
        while not record.state.terminal:
            assert time.monotonic() < deadline, (
                f"job {record.job_id} stuck in {record.state.value}"
            )
            time.sleep(0.01)
    return records


@pytest.fixture
def supervisor(tmp_path):
    sup = Supervisor(state_dir=tmp_path / "state", workers=2, jobs=1)
    yield sup
    sup.stop()


class TestExecution:
    def test_build_job_succeeds(self, supervisor):
        supervisor.start()
        record = supervisor.submit(JobSpec(config="soc_2", tenant="acme"))
        wait_terminal(supervisor, [record])
        assert record.state is JobState.SUCCEEDED
        assert record.error is None
        assert record.attempts == 1
        assert record.result["soc"] == "soc_2"
        # The terminal record reaches disk (write-through lags the
        # in-memory flip by one save call; a crash in that window
        # merely requeues the idempotent job).
        deadline = time.monotonic() + 10
        while True:
            saved = supervisor.store.load(record.job_id)
            if saved.state.terminal:
                break
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert saved.state is JobState.SUCCEEDED
        assert saved.result == record.result

    def test_second_submit_is_a_cache_hit(self, supervisor):
        supervisor.start()
        cold = supervisor.submit(JobSpec(config="soc_2"))
        wait_terminal(supervisor, [cold])
        warm = supervisor.submit(JobSpec(config="soc_2"))
        wait_terminal(supervisor, [warm])
        assert cold.cached is False
        assert warm.cached is True
        assert warm.result == cold.result

    def test_deploy_job_succeeds(self, supervisor):
        supervisor.start()
        record = supervisor.submit(
            JobSpec(config="soc_z", kind="deploy", frames=2)
        )
        wait_terminal(supervisor, [record])
        assert record.state is JobState.SUCCEEDED
        assert record.result["soc"] == "soc_z"

    def test_unknown_config_rejected_at_submit(self, supervisor):
        with pytest.raises(PrEspError, match="neither a known design"):
            supervisor.submit(JobSpec(config="soc_999"))
        assert supervisor.jobs() == []

    def test_build_writes_checkpoints(self, supervisor):
        supervisor.start()
        record = supervisor.submit(JobSpec(config="soc_2"))
        wait_terminal(supervisor, [record])
        manifest = supervisor.checkpoint_dir(record.job_id) / "manifest.json"
        assert manifest.is_file()
        stages = [
            entry["stage"]
            for entry in json.loads(manifest.read_text())["stages"]
        ]
        assert "synthesis" in stages
        assert "bitstreams" in stages

    def test_lifecycle_events_on_the_bus(self, supervisor):
        # JOB_FINISHED is emitted just after the terminal state lands
        # (persist and telemetry come first), so wait for the event
        # itself rather than for the state.
        finished = threading.Event()
        supervisor.events.subscribe(
            lambda event: finished.set(), kinds=[JOB_FINISHED]
        )
        supervisor.start()
        record = supervisor.submit(JobSpec(config="soc_2"))
        wait_terminal(supervisor, [record])
        assert finished.wait(timeout=10.0)
        kinds = [event.kind for event in supervisor.events.last(1000)]
        assert JOB_SUBMITTED in kinds
        assert JOB_FINISHED in kinds


class TestScheduling:
    def test_preloaded_queue_runs_in_priority_order(self, tmp_path):
        sup = Supervisor(state_dir=tmp_path / "state", workers=1, jobs=1)
        try:
            specs = [
                JobSpec(config="soc_2", priority=0),
                JobSpec(config="soc_2", priority=2),
                JobSpec(config="soc_2", priority=1),
                JobSpec(config="soc_2", priority=2),
            ]
            records = [sup.submit(spec) for spec in specs]
            sup.start()  # single worker drains the pre-loaded queue
            wait_terminal(sup, records)
            assert all(r.state is JobState.SUCCEEDED for r in records)
            assert all(r.attempts == 1 for r in records)
            by_start = sorted(records, key=lambda r: r.start_seq)
            # Priority first, FIFO within a class.
            assert [records.index(r) for r in by_start] == [1, 3, 2, 0]
        finally:
            sup.stop()

    def test_preload_survives_start_without_duplication(self, tmp_path):
        # start() recovers persisted records; ones submitted in-process
        # before start() are already queued and must not requeue.
        sup = Supervisor(state_dir=tmp_path / "state", workers=1, jobs=1)
        try:
            record = sup.submit(JobSpec(config="soc_2"))
            sup.start()
            wait_terminal(sup, [record])
            assert record.attempts == 1
            assert sup.recovering() == 0
        finally:
            sup.stop()


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        sup = Supervisor(state_dir=tmp_path / "state", workers=1, jobs=1)
        try:
            record = sup.submit(JobSpec(config="soc_2"))  # workers not started
            cancelled = sup.cancel(record.job_id)
            assert cancelled.state is JobState.CANCELLED
            assert cancelled.cancel_requested is True
            assert sup.store.load(record.job_id).state is JobState.CANCELLED
            # Idempotent: a second cancel returns the terminal record.
            assert sup.cancel(record.job_id).state is JobState.CANCELLED
        finally:
            sup.stop()

    def test_cancel_unknown_job(self, supervisor):
        assert supervisor.cancel("job-00000000-0042") is None

    def test_cancel_terminal_job_is_a_noop(self, supervisor):
        supervisor.start()
        record = supervisor.submit(JobSpec(config="soc_2"))
        wait_terminal(supervisor, [record])
        again = supervisor.cancel(record.job_id)
        assert again.state is JobState.SUCCEEDED


class TestRecovery:
    def test_requeues_running_job_and_reports_recovering(self, tmp_path):
        state = tmp_path / "state"
        # A previous daemon died mid-job: its record is still RUNNING.
        interrupted = JobRecord(
            job_id="job-00000000-0001",
            spec=JobSpec(config="soc_2", tenant="acme"),
            state=JobState.RUNNING,
            submit_seq=0,
            start_seq=0,
            attempts=1,
        )
        JobStore(state / "jobs").save(interrupted)

        sup = Supervisor(state_dir=state, workers=1, jobs=1)
        try:
            sup.start()
            record = sup.get("job-00000000-0001")
            assert record is not None
            kinds = [event.kind for event in sup.events.last(1000)]
            assert JOB_REQUEUED in kinds
            wait_terminal(sup, [record])
            assert record.state is JobState.SUCCEEDED
            assert record.attempts == 2  # the rerun counted
            # The recovering verdict clears once the backlog drains
            # (the worker releases the slot just after the terminal
            # state lands, so poll briefly).
            deadline = time.monotonic() + 10
            while sup.recovering() and time.monotonic() < deadline:
                time.sleep(0.01)
            status, verdict = sup.health_verdict()
            assert status == "ok"
            assert verdict is Verdict.OK
        finally:
            sup.stop()

        # The replayed result is byte-identical to an uninterrupted run.
        control_sup = Supervisor(state_dir=tmp_path / "control", workers=1, jobs=1)
        try:
            control_sup.start()
            control = control_sup.submit(JobSpec(config="soc_2", tenant="acme"))
            wait_terminal(control_sup, [control])
        finally:
            control_sup.stop()
        assert json.dumps(record.result, sort_keys=True) == json.dumps(
            control.result, sort_keys=True
        )

    def test_cancel_requested_job_is_cancelled_on_recovery(self, tmp_path):
        state = tmp_path / "state"
        JobStore(state / "jobs").save(
            JobRecord(
                job_id="job-00000000-0001",
                spec=JobSpec(config="soc_2"),
                state=JobState.QUEUED,
                cancel_requested=True,
            )
        )
        sup = Supervisor(state_dir=state, workers=1, jobs=1)
        try:
            sup.start()
            assert sup.get("job-00000000-0001").state is JobState.CANCELLED
            assert sup.recovering() == 0
        finally:
            sup.stop()

    def test_restart_never_remints_used_ids(self, tmp_path):
        state = tmp_path / "state"
        first = Supervisor(state_dir=state, workers=1, jobs=1, seed=5)
        try:
            first.start()
            records = [
                first.submit(JobSpec(config="soc_2", tenant="acme"))
                for _ in range(3)
            ]
            wait_terminal(first, records)
        finally:
            first.stop()
        second = Supervisor(state_dir=state, workers=1, jobs=1, seed=5)
        try:
            second.start()
            fresh = second.submit(JobSpec(config="soc_2", tenant="acme"))
            assert fresh.job_id not in {r.job_id for r in records}
        finally:
            second.stop()


class TestHealth:
    def test_verdict_flips_with_recovery_backlog(self, tmp_path):
        sup = Supervisor(state_dir=tmp_path / "state", workers=1, jobs=1)
        try:
            status, verdict = sup.health_verdict()
            assert verdict is Verdict.OK
            with sup._recovering_lock:
                sup._recovering.add("job-00000000-0001")
            status, verdict = sup.health_verdict()
            assert status == "recovering"
            assert verdict is Verdict.CRITICAL
            sup._finish_recovery("job-00000000-0001")
            assert sup.health_verdict()[1] is Verdict.OK
        finally:
            sup.stop()
