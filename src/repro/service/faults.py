"""A deterministic fault model for the service tier itself.

The CAD layer loses Vivado jobs (:mod:`repro.vivado.faults`) and the
runtime loses reconfigurations (:mod:`repro.runtime.faults`); this
module models what the *daemon's own machinery* loses — crashed worker
threads, workers that wedge and never return, job-store writes that
hit transient IO errors, and writes torn mid-flight. It is built on
the same core as its two siblings (:mod:`repro.faults`):

* every stochastic draw is a pure SHA-256 hash of ``(seed, kinds,
  job_id, attempt)``, so the fault timeline of a daemon run depends
  only on the seed and the job identities — never on worker-thread
  interleaving, queue order, or how many restarts came before;
* targeted :meth:`ServiceFaultModel.inject` arming consumes counts in
  arming order, for tests and ``repro serve --inject service:KIND``;
* :data:`NO_SERVICE_FAULTS` is the always-healthy shared model that
  refuses injection so one test cannot poison every other run.

The supervisor consults the model at the top of each job attempt
(``WORKER_CRASH`` / ``SLOW_WORKER``) and the :class:`~repro.service.
jobs.JobStore` consults it per save (``STORE_IO`` / ``TORN_WRITE``).
A torn write deliberately leaves a truncated ``*.tmp`` file behind —
the atomic tmp-then-rename protocol means the durable record is never
the corrupted artifact, and recovery must shrug the junk off.
"""

from __future__ import annotations

import enum
import threading
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import PrEspError
from repro.faults import Backoff, FaultModel


class ServiceFaultError(PrEspError):
    """An injected (or drawn) service-tier fault fired.

    ``kind`` is the :class:`ServiceFaultKind` value token; the
    supervisor treats these as *retryable* infrastructure failures
    (requeue with backoff, dead-letter at the attempt cap) — unlike an
    application error, which fails the job outright.
    """

    def __init__(self, kind: "ServiceFaultKind", message: str) -> None:
        super().__init__(message)
        self.kind = kind


class ServiceFaultKind(enum.Enum):
    """The four service-tier failure modes the model can draw."""

    #: The worker executing the job dies mid-attempt: the attempt is
    #: lost, the job must be requeued and re-run from its checkpoint.
    WORKER_CRASH = "crash"
    #: The worker wedges: it neither finishes nor fails until the
    #: supervisor's deadline watchdog abandons the attempt.
    SLOW_WORKER = "slow"
    #: A job-store write fails with a transient IO error (full disk,
    #: EIO, a flaky network mount) and must be retried.
    STORE_IO = "io"
    #: A job-store write is torn mid-flight: a truncated tmp file is
    #: left on disk and the write reports failure. The atomic rename
    #: protocol guarantees the *published* record is never the torn
    #: artifact.
    TORN_WRITE = "torn"


#: Kinds the supervisor draws per job attempt (stacked: at most one
#: fires per attempt, like the runtime transfer kinds).
EXECUTION_KINDS = (ServiceFaultKind.WORKER_CRASH, ServiceFaultKind.SLOW_WORKER)

#: Kinds the job store draws per save.
STORE_KINDS = (ServiceFaultKind.STORE_IO, ServiceFaultKind.TORN_WRITE)


class ServiceFaultModel(FaultModel):
    """Seeded, order-independent service-tier failures.

    ``rates`` maps a :class:`ServiceFaultKind` to its per-attempt (or
    per-save) failure probability; absent kinds never fail
    stochastically. The two execution kinds are stacked into one draw
    per attempt and the two store kinds into one draw per save, so
    each pair's rates must sum below 1.

    Execution draws are keyed by the job's *attempt number* (persisted
    on the record), store draws by a per-job save counter — both
    identities survive a daemon restart, so a replayed run re-draws
    the same faults. Targeted injections are consumed in arming order:
    ``inject(kind, count=n)`` makes the next ``n`` consultations of
    that kind fire deterministically, regardless of the rates.
    """

    kinds = ServiceFaultKind
    stacks = (EXECUTION_KINDS, STORE_KINDS)

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Mapping[ServiceFaultKind, float]] = None,
        hang_s: float = 30.0,
    ) -> None:
        super().__init__(int(seed), rates)
        if hang_s <= 0:
            raise PrEspError(f"hang_s must be positive, got {hang_s}")
        #: How long a SLOW_WORKER fault wedges before giving up on its
        #: own (the watchdog normally abandons it much earlier).
        self.hang_s = float(hang_s)
        self._save_counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        #: Faults this model produced, by kind value (shared accounting
        #: for stochastic draws and targeted injections).
        self.fired: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def inject(self, kind: ServiceFaultKind, count: int = 1) -> None:
        """Arm ``count`` deterministic faults of ``kind``.

        Execution kinds fire on the next ``count`` job attempts (any
        job); store kinds on the next ``count`` saves.
        """
        if not isinstance(kind, ServiceFaultKind):
            raise PrEspError(f"inject needs a ServiceFaultKind, got {kind!r}")
        with self._lock:
            self.injections.arm((kind,), count)

    def injected_count(self, kind: ServiceFaultKind) -> int:
        with self._lock:
            return self.injections.count((kind,))

    def _fault(self, kinds: Tuple[ServiceFaultKind, ...], *key: object):
        """An armed injection of ``kinds``, else one stacked draw."""
        injected = self.injections.consume([(kind,) for kind in kinds])
        if injected is not None:
            kind = injected[0]
        else:
            kind = self.draw(kinds, "/".join(k.value for k in kinds), *key)
        if kind is not None:
            self.fired[kind.value] = self.fired.get(kind.value, 0) + 1
        return kind

    def execution_fault(
        self, job_id: str, attempt: int
    ) -> Optional[ServiceFaultKind]:
        """The fault (if any) hitting ``attempt`` (1-based) of a job."""
        with self._lock:
            return self._fault(EXECUTION_KINDS, job_id, attempt)

    def store_fault(self, job_id: str) -> Optional[ServiceFaultKind]:
        """The fault (if any) hitting the next save of ``job_id``."""
        with self._lock:
            save = self._save_counts.get(job_id, 0) + 1
            self._save_counts[job_id] = save
            return self._fault(STORE_KINDS, job_id, save)

    # ------------------------------------------------------------------
    def backoff_s(
        self, job_id: str, attempt: int, base_s: float, cap_s: float
    ) -> float:
        """Seeded exponential backoff before requeueing ``attempt``.

        ``min(base * 2**(attempt-1), cap)`` stretched by a seeded
        jitter in [1, 1.25) — the service-tier mirror of the CAD
        retry policy, in real seconds.
        """
        return Backoff(base_s, 2.0, cap_s, 0.25).delay(
            attempt, self.seed, "backoff", job_id, attempt
        )

    def fingerprint(self) -> Dict:
        """JSON form of everything that can change a run's timeline."""
        with self._lock:
            return {**super().fingerprint(), "hang_s": self.hang_s}


#: Shared disabled model: no worker ever crashes, no save ever tears.
NO_SERVICE_FAULTS = ServiceFaultModel().refusing(
    "NO_SERVICE_FAULTS", "ServiceFaultModel"
)
