"""A deterministic runtime fault model with watchdog/recovery policy.

The DES-side mirror of :mod:`repro.vivado.faults`: where the CAD model
loses Vivado jobs, this one loses *runtime* operations — corrupted
partial bitstreams, wedged DFXC transfers and hung accelerators — the
failure modes a deployed DPR SoC actually sees. Everything is modelled
deterministically on the simulated clock:

* :class:`RuntimeFaultModel` — seeded per-:class:`RuntimeFaultKind`
  failure probabilities plus targeted :meth:`~RuntimeFaultModel.inject`
  arming. Every stochastic draw is a pure hash of ``(seed, kind, tile,
  mode, attempt)``, so the fault timeline of a deployment depends only
  on the seed and the operation identities — never on executor thread
  order, ICAP queueing, or how many frames ran before.
* :class:`RecoveryPolicy` — the watchdog: per-operation deadlines,
  bounded retries with exponential backoff (charged in simulated
  seconds), last-known-good bitstream fallback, and the quarantine
  threshold after which a persistently failing tile is taken dark.
* :class:`RuntimeFaultOptions` — the ``BuildOptions``-style bundle
  ``repro.api.deploy``/``monitor`` accept.

``NO_RUNTIME_FAULTS`` is the always-healthy shared model instrumented
code defaults to; like ``NO_FAULTS`` on the CAD side it refuses
injection so a test cannot accidentally poison every other run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ReconfigurationError
from repro.faults import PERSISTENT as PERSISTENT  # re-exported for callers
from repro.faults import Backoff, FaultModel


class RuntimeFaultKind(enum.Enum):
    """The three runtime failure modes the model can draw."""

    #: The partial bitstream arrives corrupted: the transfer runs its
    #: full window, then the modelled CRC check at the ICAP write fails.
    BITSTREAM_CORRUPTION = "crc"
    #: The DFXC wedges mid-transfer: the ICAP is held far past the
    #: nominal window until the watchdog aborts the transfer.
    STUCK_TRANSFER = "stuck"
    #: The accelerator never raises its completion interrupt; the
    #: invocation burns the watchdog deadline instead of its exec time.
    KERNEL_HANG = "hang"


#: Kinds drawn per *transfer* attempt (stacked: at most one fires).
TRANSFER_KINDS = (
    RuntimeFaultKind.BITSTREAM_CORRUPTION,
    RuntimeFaultKind.STUCK_TRANSFER,
)


class RuntimeFaultModel(FaultModel):
    """Seeded, order-independent runtime operation failures.

    ``rates`` maps a :class:`RuntimeFaultKind` to its per-attempt
    failure probability (absent kinds never fail stochastically). The
    two transfer kinds are stacked into one draw per attempt, keyed by
    ``(seed, "transfer", tile, mode, attempt)``, so their rates must sum
    below 1; hangs draw ``(seed, "invoke", tile, mode, attempt)``.

    Attempts are numbered per ``(tile, mode, operation)`` by an
    internal counter — the per-tile lock already serializes operations
    on one tile, so the counter is deterministic regardless of
    cross-tile interleaving. Targeted injections are consumed in
    attempt order: ``inject(count=n)`` makes the next ``n`` attempts
    fail; :data:`PERSISTENT` makes every attempt fail.

    The counters make a model instance single-deployment state; use
    :meth:`fresh` (the platform does) to re-run the same fault
    *specification* from attempt one.
    """

    kinds = RuntimeFaultKind
    error = ReconfigurationError
    stacks = (TRANSFER_KINDS,)

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Mapping[RuntimeFaultKind, float]] = None,
    ) -> None:
        super().__init__(seed, rates)
        self._attempts: Dict[Tuple[str, str, str], int] = {}
        #: Faults this model produced, by kind (shared accounting for
        #: both the stochastic draws and the targeted injections).
        self.drawn: Dict[RuntimeFaultKind, int] = {k: 0 for k in RuntimeFaultKind}

    def inject(
        self,
        tile_name: str,
        mode_name: str,
        kind: RuntimeFaultKind = RuntimeFaultKind.BITSTREAM_CORRUPTION,
        count: int = 1,
    ) -> None:
        """Arm ``count`` deterministic faults for (tile, mode, kind).

        ``count=PERSISTENT`` arms the fault on every attempt — the way
        to force a tile into quarantine.
        """
        if not isinstance(kind, RuntimeFaultKind):
            raise ReconfigurationError(
                f"kind must be a RuntimeFaultKind, got {kind!r}"
            )
        self.injections.arm((tile_name, mode_name, kind), count)

    def injected_count(
        self, tile_name: str, mode_name: str, kind: RuntimeFaultKind
    ) -> int:
        """Armed targeted faults for (tile, mode, kind); -1 = persistent."""
        return self.injections.count((tile_name, mode_name, kind))

    # ------------------------------------------------------------------
    def _next_attempt(self, tile_name: str, mode_name: str, op: str) -> int:
        key = (tile_name, mode_name, op)
        self._attempts[key] = self._attempts.get(key, 0) + 1
        return self._attempts[key]

    def _fire(self, kind: RuntimeFaultKind) -> RuntimeFaultKind:
        self.drawn[kind] += 1
        return kind

    def transfer_fault(
        self, tile_name: str, mode_name: str
    ) -> Optional[RuntimeFaultKind]:
        """Outcome of the next transfer attempt for (tile, mode).

        Targeted injections fire first (corruption before stuck, each
        consuming attempts in order), then one stacked stochastic draw
        decides between corruption, stuck, and healthy.
        """
        attempt = self._next_attempt(tile_name, mode_name, "transfer")
        crc = (tile_name, mode_name, RuntimeFaultKind.BITSTREAM_CORRUPTION)
        if self.injections.covers(crc, attempt):
            return self._fire(RuntimeFaultKind.BITSTREAM_CORRUPTION)
        stuck = (tile_name, mode_name, RuntimeFaultKind.STUCK_TRANSFER)
        if self.injections.covers(
            stuck, attempt, offset=max(0, self.injections.count(crc))
        ):
            return self._fire(RuntimeFaultKind.STUCK_TRANSFER)
        kind = self.draw(TRANSFER_KINDS, "transfer", tile_name, mode_name, attempt)
        return None if kind is None else self._fire(kind)

    def invoke_fault(self, tile_name: str, mode_name: str) -> bool:
        """True when the next invocation attempt for (tile, mode) hangs."""
        attempt = self._next_attempt(tile_name, mode_name, "invoke")
        hang = RuntimeFaultKind.KERNEL_HANG
        if self.injections.covers(
            (tile_name, mode_name, hang), attempt
        ) or self.draw((hang,), "invoke", tile_name, mode_name, attempt):
            self._fire(hang)
            return True
        return False

    def fresh(self) -> "RuntimeFaultModel":
        """A copy of this fault *specification* with virgin counters.

        The platform calls this once per deployment, so repeated
        same-seed deploys replay the identical fault timeline instead
        of continuing a shared attempt numbering.
        """
        model = RuntimeFaultModel(seed=self.seed, rates=self.rates)
        model.injections = self.injections.copy()
        return model


class _NoRuntimeFaults(RuntimeFaultModel):
    """The always-healthy model instrumented code defaults to.

    Draw methods are overridden to skip even the attempt bookkeeping,
    so the shared instance carries no cross-run state at all.
    """

    enabled = False

    def transfer_fault(self, tile_name, mode_name):
        return None

    def invoke_fault(self, tile_name, mode_name):
        return False


#: Shared disabled model: no runtime operation ever fails.
NO_RUNTIME_FAULTS = _NoRuntimeFaults().refusing("NO_RUNTIME_FAULTS", "RuntimeFaultModel")


@dataclass(frozen=True)
class RecoveryPolicy:
    """The manager's watchdog and recovery parameters.

    Retries of a failed transfer back off exponentially on the
    *simulated* clock: the wait before attempt ``n`` (n >= 2) is
    ``min(backoff_s * factor**(n - 2), cap_s) * (1 + j)`` with ``j`` a
    seeded jitter draw in ``[0, jitter]``. ``max_attempts=2`` keeps the
    manager's historical retry-once contract.
    """

    #: Transfer attempts before a reconfiguration is abandoned.
    max_attempts: int = 2
    backoff_s: float = 0.002
    factor: float = 2.0
    cap_s: float = 0.05
    jitter: float = 0.25
    #: Watchdog deadline for one bitstream transfer; a transfer still
    #: in flight past this is aborted as stuck (only armed when the
    #: fault model is enabled, so healthy runs pay zero overhead).
    reconfig_deadline_s: float = 0.25
    #: A kernel invocation is declared hung after
    #: ``exec_deadline_factor`` times its nominal execution time.
    exec_deadline_factor: float = 4.0
    #: Hung-kernel restarts before the invocation is abandoned.
    hang_max_attempts: int = 2
    #: Reload the tile's last-known-good bitstream when a newer one is
    #: abandoned (repeated CRC failures).
    fallback_to_last_good: bool = True
    #: Abandoned operations on one tile before it is quarantined
    #: (taken dark and blanked; schedulers must re-plan around it).
    quarantine_after: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1 or self.hang_max_attempts < 1:
            raise ReconfigurationError("recovery needs >= 1 attempt per operation")
        self.backoff.check(ReconfigurationError)
        if self.reconfig_deadline_s <= 0:
            raise ReconfigurationError("reconfiguration deadline must be positive")
        if self.exec_deadline_factor <= 1.0:
            raise ReconfigurationError(
                "exec deadline factor must exceed 1 (the nominal exec time)"
            )
        if self.quarantine_after < 1:
            raise ReconfigurationError("quarantine threshold must be >= 1")

    @property
    def backoff(self) -> Backoff:
        return Backoff(self.backoff_s, self.factor, self.cap_s, self.jitter)

    @property
    def max_backoff_s(self) -> float:
        """Upper bound of any single backoff wait."""
        return self.backoff.bound

    def backoff_before(
        self, attempt: int, seed: int, tile_name: str, mode_name: str
    ) -> float:
        """Backoff seconds charged before ``attempt`` (1-based).

        Attempt 1 starts immediately; attempt ``n`` waits the capped
        exponential plus the seeded jitter for (seed, tile, mode, n) —
        order-independent like the fault draws themselves.
        """
        if attempt <= 1:
            return 0.0
        return self.backoff.delay(
            attempt - 1, seed, "rbackoff", tile_name, mode_name, attempt
        )


#: The default watchdog: retry-once with 2 ms backoff, 250 ms transfer
#: deadline, 4x exec deadline, fallback on, quarantine after 3.
DEFAULT_RECOVERY = RecoveryPolicy()


@dataclass
class RuntimeFaultOptions:
    """The deploy-side options bundle (mirror of ``BuildOptions``).

    ``faults`` is a fault *specification*: the platform re-instantiates
    it per deployment (:meth:`RuntimeFaultModel.fresh`), so one options
    object can drive many identical runs.
    """

    faults: RuntimeFaultModel = field(default_factory=lambda: NO_RUNTIME_FAULTS)
    recovery: RecoveryPolicy = field(default_factory=lambda: DEFAULT_RECOVERY)

    def __post_init__(self) -> None:
        if not isinstance(self.faults, RuntimeFaultModel):
            raise ReconfigurationError(
                f"faults must be a RuntimeFaultModel, got {type(self.faults).__name__}"
            )
        if not isinstance(self.recovery, RecoveryPolicy):
            raise ReconfigurationError(
                f"recovery must be a RecoveryPolicy, got {type(self.recovery).__name__}"
            )
