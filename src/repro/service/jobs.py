"""The service's job model: specs, records, IDs and the durable store.

A *job* is one unit of admitted work — a DPR-flow build or a WAMI
deployment of a named SoC design — owned by a tenant and carrying a
priority. The model is deliberately plain data:

* :class:`JobSpec` — what the client asked for (immutable);
* :class:`JobRecord` — what happened to it (state machine + outcome);
* :class:`JobStore` — one atomically-written JSON file per job under
  ``<state_dir>/jobs/``, so a SIGKILLed daemon reloads every record on
  restart and requeues the in-flight ones.

Job IDs are deterministic and seeded, never wall-clock or random:
:class:`JobIdMinter` wraps one
:class:`~repro.obs.context.RequestIdFactory` per tenant
(``job-<hash8>-<n>``), and on restart advances each factory past the
highest persisted sequence so recovered daemons keep minting unique,
reproducible IDs.
"""

from __future__ import annotations

import enum
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import PrEspError
from repro.faults import Backoff
from repro.obs.context import RequestIdFactory, TelemetryContext
from repro.obs.logconfig import get_logger
from repro.service.faults import (
    NO_SERVICE_FAULTS,
    ServiceFaultKind,
    ServiceFaultModel,
)

logger = get_logger("service.jobs")

#: Job kinds the supervisor knows how to execute.
JOB_KINDS = ("build", "deploy")

#: File-name shape of a persisted record (also an ID sanity filter).
_JOB_FILE = re.compile(r"^(?P<job_id>job-[0-9a-f]{8}-\d{4,})\.json$")


class JobError(PrEspError):
    """Misuse of the job model (bad spec, bad transition, bad store)."""


class JobState(enum.Enum):
    """Lifecycle of one job.

    ``QUEUED -> RUNNING -> SUCCEEDED | FAILED``, with ``CANCELLED``
    reachable only from ``QUEUED`` (a running build is not preempted;
    cancellation of running work is recorded as *requested* and
    reported, never forged into a terminal state). ``DEAD`` is the
    dead-letter state: a job whose attempts (crash reruns, watchdog
    timeouts) exhausted its budget. It is terminal for clients — but
    unlike the other terminal states it has one deliberate exit, the
    operator's ``POST /v1/jobs/<id>/requeue``, which revives it back
    to ``QUEUED`` with a fresh attempt budget.
    """

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"
    DEAD = "dead"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.SUCCEEDED,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.DEAD,
        )


#: Legal state transitions (anything else is a supervisor bug).
#: ``RUNNING -> QUEUED`` is crash/timeout requeue; ``QUEUED -> DEAD``
#: is recovery refusing a poison job; ``DEAD -> QUEUED`` is the manual
#: dead-letter revive.
_TRANSITIONS = {
    JobState.QUEUED: {JobState.RUNNING, JobState.CANCELLED, JobState.DEAD},
    JobState.RUNNING: {
        JobState.SUCCEEDED,
        JobState.FAILED,
        JobState.QUEUED,
        JobState.DEAD,
    },
    JobState.SUCCEEDED: set(),
    JobState.FAILED: set(),
    JobState.CANCELLED: set(),
    JobState.DEAD: {JobState.QUEUED},
}


@dataclass(frozen=True)
class JobSpec:
    """What one submit asked for.

    ``config`` is a paper design name or an ``.esp_config`` path the
    daemon can read; ``priority`` orders the queue (higher first,
    FIFO within a priority); ``frames`` only applies to deploy jobs.
    ``deadline_s`` bounds one execution attempt (``None`` falls back
    to the daemon's per-tenant, then global default); ``max_attempts``
    bounds executions including crash reruns before the job is
    dead-lettered (``None`` = the daemon default).
    """

    config: str
    kind: str = "build"
    tenant: str = "default"
    priority: int = 0
    strategy: Optional[str] = None
    frames: int = 1
    deadline_s: Optional[float] = None
    max_attempts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise JobError(
                f"unknown job kind {self.kind!r}; choose from {', '.join(JOB_KINDS)}"
            )
        if not self.config:
            raise JobError("job spec needs a config name")
        if not self.tenant:
            raise JobError("job spec needs a tenant")
        if self.frames <= 0:
            raise JobError(f"frames must be positive, got {self.frames}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise JobError(f"deadline must be positive, got {self.deadline_s}")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise JobError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def to_dict(self) -> Dict:
        return {
            "config": self.config,
            "kind": self.kind,
            "tenant": self.tenant,
            "priority": self.priority,
            "strategy": self.strategy,
            "frames": self.frames,
            "deadline_s": self.deadline_s,
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_dict(cls, raw: Dict) -> "JobSpec":
        try:
            deadline = raw.get("deadline_s")
            max_attempts = raw.get("max_attempts")
            return cls(
                config=raw["config"],
                kind=raw.get("kind", "build"),
                tenant=raw.get("tenant", "default"),
                priority=int(raw.get("priority", 0)),
                strategy=raw.get("strategy"),
                frames=int(raw.get("frames", 1)),
                deadline_s=None if deadline is None else float(deadline),
                max_attempts=None if max_attempts is None else int(max_attempts),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise JobError(f"malformed job spec: {error}") from error


@dataclass
class JobRecord:
    """One job's full history, as persisted and as served by the API.

    ``submit_seq`` is the daemon-global admission order (the FIFO tie
    break inside a priority class); ``start_seq`` is assigned when a
    worker picks the job up — the observable scheduling order the
    priority tests assert on. ``attempts`` counts executions including
    crash-recovery reruns. ``elapsed_s`` is wall time of the *latest*
    attempt (operational, never part of a determinism contract);
    ``result`` is the modelled outcome summary, which *is* byte-stable
    for same-seed runs — that is what the resume-equality checks
    compare.
    """

    job_id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    submit_seq: int = 0
    start_seq: Optional[int] = None
    attempts: int = 0
    timeouts: int = 0
    requeues: int = 0
    cancel_requested: bool = False
    cached: bool = False
    resumed_stages: Tuple[str, ...] = ()
    elapsed_s: float = 0.0
    result: Optional[Dict] = None
    error: Optional[Dict] = None

    def transition(self, state: JobState) -> None:
        if state not in _TRANSITIONS[self.state]:
            raise JobError(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {state.value}"
            )
        self.state = state

    def context(self) -> TelemetryContext:
        """The telemetry context the job's execution runs under."""
        return TelemetryContext(
            request_id=self.job_id,
            tenant=self.spec.tenant,
            attrs={"verb": "job", "job_kind": self.spec.kind},
        )

    def to_dict(self) -> Dict:
        payload: Dict = {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "state": self.state.value,
            "submit_seq": self.submit_seq,
            "start_seq": self.start_seq,
            "attempts": self.attempts,
            "timeouts": self.timeouts,
            "requeues": self.requeues,
            "cancel_requested": self.cancel_requested,
            "cached": self.cached,
            "resumed_stages": list(self.resumed_stages),
            "elapsed_s": self.elapsed_s,
        }
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload

    @classmethod
    def from_dict(cls, raw: Dict) -> "JobRecord":
        try:
            return cls(
                job_id=raw["job_id"],
                spec=JobSpec.from_dict(raw["spec"]),
                state=JobState(raw["state"]),
                submit_seq=int(raw.get("submit_seq", 0)),
                start_seq=raw.get("start_seq"),
                attempts=int(raw.get("attempts", 0)),
                timeouts=int(raw.get("timeouts", 0)),
                requeues=int(raw.get("requeues", 0)),
                cancel_requested=bool(raw.get("cancel_requested", False)),
                cached=bool(raw.get("cached", False)),
                resumed_stages=tuple(raw.get("resumed_stages", ())),
                elapsed_s=float(raw.get("elapsed_s", 0.0)),
                result=raw.get("result"),
                error=raw.get("error"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise JobError(f"malformed job record: {error}") from error


class JobIdMinter:
    """Deterministic per-tenant job IDs on the RequestIdFactory scheme.

    One seeded factory per tenant keeps ID sequences disjoint across
    tenants and reproducible across daemon runs; :meth:`advance_past`
    fast-forwards a tenant's counter beyond its persisted jobs so a
    restarted daemon never re-mints a used ID.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._factories: Dict[str, RequestIdFactory] = {}
        self._lock = threading.Lock()

    def _factory(self, tenant: str) -> RequestIdFactory:
        factory = self._factories.get(tenant)
        if factory is None:
            factory = self._factories[tenant] = RequestIdFactory(
                seed=self.seed, tenant=tenant
            )
        return factory

    def mint(self, tenant: str) -> str:
        with self._lock:
            return self._factory(tenant).mint("job").request_id

    def advance_past(self, records: List[JobRecord]) -> None:
        """Skip every sequence number already used by ``records``."""
        highest: Dict[str, int] = {}
        for record in records:
            sequence = _job_sequence(record.job_id)
            if sequence is None:
                continue
            tenant = record.spec.tenant
            highest[tenant] = max(highest.get(tenant, 0), sequence)
        with self._lock:
            for tenant, top in highest.items():
                factory = self._factory(tenant)
                while factory.minted < top:
                    factory.mint("job")


def _job_sequence(job_id: str) -> Optional[int]:
    tail = job_id.rsplit("-", 1)[-1]
    return int(tail) if tail.isdigit() else None


class JobStore:
    """Durable job records: one atomic JSON file per job.

    Writes go through tmp-then-rename with a writer-unique tmp name, so
    a SIGKILL can never leave a torn record, and concurrent worker
    threads can persist different jobs without coordination. A file
    that fails to parse on load is skipped with a warning — one corrupt
    record must not brick the daemon.

    ``faults`` wires the seeded :class:`~repro.service.faults.
    ServiceFaultModel` into the write path: a ``STORE_IO`` draw raises
    a plain transient :class:`OSError`; a ``TORN_WRITE`` draw leaves a
    truncated ``*.tmp`` file behind (never renamed — the published
    record cannot be the torn artifact) and then raises. Callers
    retry via :meth:`save_retrying`.
    """

    def __init__(
        self, directory, faults: ServiceFaultModel = NO_SERVICE_FAULTS
    ) -> None:
        self.directory = Path(directory)
        self.faults = faults
        self._lock = threading.Lock()
        self._tmp_count = 0

    def path_for(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.json"

    def save(self, record: JobRecord) -> None:
        payload = json.dumps(record.to_dict(), indent=2, sort_keys=True)
        path = self.path_for(record.job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            self._tmp_count += 1
            tmp = path.with_name(f".{path.name}.{os.getpid()}.{self._tmp_count}.tmp")
        fault = self.faults.store_fault(record.job_id)
        if fault is ServiceFaultKind.STORE_IO:
            raise OSError(f"injected IO error saving {record.job_id}")
        if fault is ServiceFaultKind.TORN_WRITE:
            # The write dies mid-flight: half the payload reaches the
            # tmp file, the rename never happens.
            tmp.write_text(payload[: max(1, len(payload) // 2)])
            raise OSError(f"injected torn write saving {record.job_id}")
        tmp.write_text(payload + "\n")
        os.replace(tmp, path)

    def save_retrying(
        self, record: JobRecord, attempts: int = 4, backoff_s: float = 0.01
    ) -> bool:
        """Persist with bounded retries of transient IO errors.

        Returns True when the record reached disk. After the retry
        budget the failure is *logged*, not raised — the in-memory
        table still holds the truth and a later transition will try
        again; losing durability for one transition must not take a
        worker thread (or the daemon) down with it.
        """
        for attempt in range(1, attempts + 1):
            try:
                self.save(record)
                return True
            except OSError as error:
                if attempt == attempts:
                    logger.error(
                        "giving up persisting %s after %d attempts: %s",
                        record.job_id,
                        attempts,
                        error,
                    )
                    return False
                time.sleep(Backoff(backoff_s).delay(attempt))
        return False

    def load(self, job_id: str) -> Optional[JobRecord]:
        try:
            raw = json.loads(self.path_for(job_id).read_text())
        except (OSError, ValueError):
            return None
        try:
            return JobRecord.from_dict(raw)
        except JobError:
            return None

    def load_all(self) -> List[JobRecord]:
        """Every readable record, admission order."""
        records: List[JobRecord] = []
        if not self.directory.is_dir():
            return records
        for path in sorted(self.directory.glob("*.json")):
            if _JOB_FILE.match(path.name) is None:
                continue
            try:
                record = JobRecord.from_dict(json.loads(path.read_text()))
            except (OSError, ValueError, JobError) as error:
                logger.warning("skipping unreadable job record %s: %s", path, error)
                continue
            records.append(record)
        records.sort(key=lambda record: (record.submit_seq, record.job_id))
        return records
