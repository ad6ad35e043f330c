"""Request-scoped telemetry context with deterministic IDs.

Every other obs layer answers a question about *one process*: spans,
events, metric samples and profile leaves are all process-global, so
two concurrent ``repro.api`` calls through one platform are
indistinguishable in every export. :class:`TelemetryContext` fixes the
join key: a small immutable value carrying a ``request_id`` and a
``tenant``, activated around each platform verb and propagated with
:mod:`contextvars` — the live tracer/bus/registry/profiler stamp the
current context onto everything they record, so every telemetry row of
a request is joinable on ``request_id`` without threading an extra
argument through every layer.

Determinism is non-negotiable (the whole repo's exports are
byte-stable across seeded runs), so IDs never come from a wall clock
or ``uuid4``: a :class:`RequestIdFactory` derives a short seed hash
once and then counts — ``req-<hash8>-<n>`` — and the same seed always
mints the same sequence. Cross-process propagation rides the existing
:class:`~repro.obs.profiler.ProfileCapsule` path: the context pickles
into each pool work item and the worker re-activates it, so
worker-side spans and log records stay attributable.

Sinks that are off (``None`` on the
:class:`~repro.obs.instrumentation.Instrumentation` probe) never
consult the context variable at all — an *active* context with
*disabled* instrumentation costs exactly nothing, which keeps the DES
kernel's uninstrumented ``_run_fast`` loop selected.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, Optional

#: Default tenant of contexts minted without an explicit one.
DEFAULT_TENANT = "default"

#: The active context of the current thread/task (None = unattributed).
_CURRENT: contextvars.ContextVar[Optional["TelemetryContext"]] = (
    contextvars.ContextVar("repro_telemetry_context", default=None)
)


@dataclass(frozen=True)
class TelemetryContext:
    """One request's identity, carried through every telemetry layer.

    ``request_id`` is the join key of all exports; ``tenant`` is the
    admission/quota identity a multi-tenant service accounts against;
    ``attrs`` carries free-form propagated baggage (verb, batch index).
    Instances are immutable and picklable — they cross the
    ``BatchBuilder`` pool boundary inside ``ProfileCapsule``.
    """

    request_id: str
    tenant: str = DEFAULT_TENANT
    attrs: Dict[str, str] = field(default_factory=dict)

    def child(self, suffix: str) -> "TelemetryContext":
        """A sub-request context: ``<request_id>/<suffix>``.

        The slash-joined ID keeps children joinable to their parent by
        prefix (a batch's items roll up to the batch request).
        """
        return replace(self, request_id=f"{self.request_id}/{suffix}")

    def with_attrs(self, **attrs: str) -> "TelemetryContext":
        """A copy with extra baggage attributes merged in."""
        merged = dict(self.attrs)
        merged.update({str(k): str(v) for k, v in attrs.items()})
        return replace(self, attrs=merged)

    def labels(self) -> Dict[str, str]:
        """The metric labels this context implies (request + tenant)."""
        return {"request": self.request_id, "tenant": self.tenant}

    def __str__(self) -> str:
        return f"{self.tenant}:{self.request_id}"


class RequestIdFactory:
    """Deterministic, seeded request-ID minting.

    ``mint("deploy")`` → ``TelemetryContext("deploy-<hash8>-0001")``
    where ``hash8`` is derived from the seed and tenant once — never
    from a wall clock or PRNG — so two runs of the same seeded workload
    mint identical ID sequences and their telemetry diffs clean.
    """

    def __init__(self, seed: int = 0, tenant: str = DEFAULT_TENANT) -> None:
        self.seed = int(seed)
        self.tenant = str(tenant)
        digest = hashlib.sha256(
            f"{self.seed}:{self.tenant}".encode()
        ).hexdigest()
        self._prefix = digest[:8]
        self._count = 0
        # Concurrent platform verbs mint from one shared factory; the
        # lock keeps the sequence gap-free (IDs stay unique, though the
        # thread→number mapping is scheduler-dependent).
        self._lock = threading.Lock()

    @property
    def minted(self) -> int:
        """How many contexts this factory has handed out."""
        return self._count

    def mint(self, verb: str = "request") -> TelemetryContext:
        """The next context in the deterministic sequence."""
        with self._lock:
            self._count += 1
            count = self._count
        return TelemetryContext(
            request_id=f"{verb}-{self._prefix}-{count:04d}",
            tenant=self.tenant,
            attrs={"verb": str(verb)},
        )


# ----------------------------------------------------------------------
# contextvars propagation
# ----------------------------------------------------------------------
def current_context() -> Optional[TelemetryContext]:
    """The active context of this thread/task, or None."""
    return _CURRENT.get()


def current_request_id() -> Optional[str]:
    """The active request ID, or None when unattributed."""
    context = _CURRENT.get()
    return context.request_id if context is not None else None


@contextlib.contextmanager
def activate(context: Optional[TelemetryContext]) -> Iterator[Optional[TelemetryContext]]:
    """Make ``context`` current for the ``with`` body (None = no-op).

    Restores the previous context on exit, so nested requests (a
    ``compare`` that calls ``build``) unwind correctly.
    """
    if context is None:
        yield None
        return
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)


def bind(context: Optional[TelemetryContext]) -> Optional[contextvars.Token]:
    """Imperatively set the current context; pair with :func:`unbind`.

    The pool-worker form of :func:`activate` — ``BatchBuilder`` workers
    activate the shipped capsule context around one build.
    """
    if context is None:
        return None
    return _CURRENT.set(context)


def unbind(token: Optional[contextvars.Token]) -> None:
    """Undo a :func:`bind` (None token = no-op)."""
    if token is not None:
        _CURRENT.reset(token)
