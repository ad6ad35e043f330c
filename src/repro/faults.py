"""The seeded-fault and backoff core shared by all three fault tiers.

The reproduction loses Vivado jobs (:mod:`repro.vivado.faults`),
runtime reconfigurations (:mod:`repro.runtime.faults`) and the service
daemon's own workers and writes (:mod:`repro.service.faults`). The
three tiers share four parts, defined here once:

* :func:`unit_draw` — a uniform draw in [0, 1) that is a pure SHA-256
  hash of its key, so a fault timeline depends only on the seed and the
  operation identities, never on execution order, threads, processes
  or restarts;
* :func:`stacked_draw` — one draw shared by several kinds against
  their cumulative rates, so at most one kind fires per attempt;
* :class:`InjectionLedger` — targeted faults armed per key, ``count``
  attempts or :data:`PERSISTENT`;
* :class:`Backoff` — capped exponential backoff with seeded jitter.

:class:`FaultModel` adds rate validation, the ``enabled`` rule,
``fingerprint()`` and the refusing shared null model, parameterised by
the tier's kind enum and error class. Each tier keeps only its kinds,
its draw keys and its own bookkeeping.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

from repro.errors import PrEspError

#: Injection count meaning "every attempt fails" (never used up).
PERSISTENT = -1

Key = Tuple[Hashable, ...]


def unit_draw(*parts: object) -> float:
    """A deterministic uniform draw in [0, 1) keyed by ``parts``."""
    key = "|".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def stacked_draw(
    kinds: Sequence[enum.Enum],
    rates: Mapping[enum.Enum, float],
    seed: object,
    label: str,
    *key: object,
) -> Optional[enum.Enum]:
    """The kind (if any) that the draw keyed by ``(seed, label, *key)`` hits.

    The kinds share the draw against their cumulative rates, so at most
    one fires. With every rate at zero no hash is computed.
    """
    if not any(rates.get(kind, 0.0) > 0.0 for kind in kinds):
        return None
    draw = unit_draw(seed, label, *key)
    threshold = 0.0
    for kind in kinds:
        threshold += rates.get(kind, 0.0)
        if draw < threshold:
            return kind
    return None


class InjectionLedger:
    """Targeted faults armed per key: ``count`` attempts or PERSISTENT.

    Arming a key again adds to its count; PERSISTENT absorbs any count.
    A tier reads the ledger by attempt number (:meth:`covers`: the
    first ``count`` attempts fail) or by spending (:meth:`consume`: the
    next ``count`` consultations fire). A ledger with a ``refusal``
    message belongs to a shared null model and refuses to arm.
    """

    def __init__(self, error: type = PrEspError, refusal: str = "") -> None:
        self.error = error
        self.refusal = refusal
        self.armed: Dict[Key, int] = {}

    def arm(self, key: Key, count: int = 1) -> None:
        if self.refusal:
            raise self.error(self.refusal)
        if count != PERSISTENT and count <= 0:
            raise self.error(f"fault count must be positive (or PERSISTENT), got {count}")
        current = self.armed.get(key, 0)
        self.armed[key] = PERSISTENT if PERSISTENT in (count, current) else current + count

    def count(self, key: Key) -> int:
        """Armed faults for ``key`` (0 when none, -1 when persistent)."""
        return self.armed.get(key, 0)

    def covers(self, key: Key, attempt: int, offset: int = 0) -> bool:
        """True when ``attempt`` (1-based, after ``offset``) is armed."""
        armed = self.armed.get(key, 0)
        return armed == PERSISTENT or attempt - offset <= armed

    def consume(self, keys: Sequence[Key]) -> Optional[Key]:
        """Spend one fault of the first armed key; None if none is."""
        for key in keys:
            armed = self.armed.get(key, 0)
            if armed > 1:
                self.armed[key] = armed - 1
            elif armed == 1:
                del self.armed[key]
            elif armed != PERSISTENT:
                continue
            return key
        return None

    def copy(self) -> "InjectionLedger":
        ledger = InjectionLedger(self.error)
        ledger.armed.update(self.armed)
        return ledger

    def __bool__(self) -> bool:
        return bool(self.armed)

    def fingerprint(self) -> Dict[str, int]:
        """``{"part/part/...": count}``, ordered by the key parts."""
        rendered = {
            tuple(p.value if isinstance(p, enum.Enum) else str(p) for p in key): count
            for key, count in self.armed.items()
        }
        return {"/".join(parts): count for parts, count in sorted(rendered.items())}


class FaultModel:
    """Seeded per-kind failure rates plus an injection ledger.

    Subclasses set ``kinds`` (the tier's kind enum), ``error`` (its
    error class) and ``stacks`` (the kind groups that share one draw,
    whose rates must sum below 1).
    """

    kinds: type = enum.Enum
    error: type = PrEspError
    stacks: Tuple[Tuple[enum.Enum, ...], ...] = ()

    def __init__(
        self, seed: int = 0, rates: Optional[Mapping[enum.Enum, float]] = None
    ) -> None:
        rates = dict(rates or {})
        for kind, rate in rates.items():
            if not isinstance(kind, self.kinds):
                raise self.error(
                    f"fault rates must be keyed by {self.kinds.__name__}, got {kind!r}"
                )
            if not 0.0 <= rate < 1.0:
                raise self.error(
                    f"failure probability for {kind.value} must be in [0, 1), got {rate}"
                )
        for stack in self.stacks:
            total = sum(rates.get(kind, 0.0) for kind in stack)
            if total >= 1.0:
                raise self.error(
                    " + ".join(kind.value for kind in stack)
                    + f" rates are stacked into one draw and must sum below 1, got {total}"
                )
        self.seed = seed
        self.rates: Dict[enum.Enum, float] = rates
        self.injections = InjectionLedger(self.error)

    @property
    def enabled(self) -> bool:
        """True when any rate is positive or any injection is armed."""
        return any(r > 0.0 for r in self.rates.values()) or bool(self.injections)

    def draw(self, kinds: Sequence[enum.Enum], label: str, *key: object):
        """:func:`stacked_draw` over this model's seed and rates."""
        return stacked_draw(kinds, self.rates, self.seed, label, *key)

    def refusing(self, shared: str, model: str) -> "FaultModel":
        """Make this the shared null model ``shared``: arming it raises.

        One test then cannot poison every other run that falls back to
        the shared instance; ``model`` names the class to build instead.
        """
        self.injections = InjectionLedger(
            self.error,
            refusal=f"cannot inject faults into the shared {shared} model; "
            f"construct a {model} instead",
        )
        return self

    def fingerprint(self) -> Dict:
        """Everything that can change a run's fault timeline."""
        return {
            "seed": self.seed,
            "rates": {
                kind.value: rate
                for kind, rate in sorted(self.rates.items(), key=lambda kv: kv[0].value)
            },
            "injected": self.injections.fingerprint(),
        }


@dataclass(frozen=True)
class Backoff:
    """Capped exponential backoff with seeded jitter.

    The wait before retry ``n`` (1-based) is::

        min(base * factor**(n - 1), cap) * (1 + jitter * unit_draw(seed, *key))

    The jitter applies after the cap, so no wait exceeds :attr:`bound`;
    with ``jitter == 0`` no draw is made. The unit (CAD minutes,
    simulated or wall seconds) is the caller's.
    """

    base: float
    factor: float = 2.0
    cap: float = math.inf
    jitter: float = 0.0

    def check(self, error: type = PrEspError) -> None:
        """Raise ``error`` for a negative wait, a shrinking factor or bad jitter."""
        if self.base < 0 or self.cap < 0:
            raise error("backoff and cap must be non-negative")
        if self.factor < 1.0:
            raise error(f"backoff factor must be >= 1, got {self.factor}")
        if not 0.0 <= self.jitter <= 1.0:
            raise error(f"jitter must be in [0, 1], got {self.jitter}")

    @property
    def bound(self) -> float:
        """Upper bound of any single wait."""
        return self.cap * (1.0 + self.jitter)

    def delay(self, n: int, seed: object = None, *key: object) -> float:
        """The wait before retry ``n``, its jitter keyed by ``(seed, *key)``."""
        wait = min(self.base * self.factor ** max(0, n - 1), self.cap)
        if not self.jitter:
            return wait
        return wait * (1.0 + self.jitter * unit_draw(seed, *key))
