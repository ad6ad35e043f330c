"""Process-parallel fan-out of many flow builds.

The paper's evaluation is a *batch* workload: Tables III/IV/V and the
characterization harness each run the flow over a grid of
``(config, strategy, tau)`` points. ``BatchBuilder`` turns that loop
into a build service: requests are short-circuited against the
:class:`~repro.flow.cache.FlowCache` first, the remaining misses fan
out over a ``ProcessPoolExecutor`` (real process-level parallelism —
the builds are pure CPU-bound Python, so threads would serialize on
the GIL), and the outcomes come back in input order with per-request
error capture: one failed build never sinks the batch.

On POSIX the pool uses the ``fork`` start method explicitly — workers
inherit the warm interpreter instead of re-importing numpy/scipy, so
the pool pays for itself even on sub-second builds. The start method
is resolved once at import; the pool itself is created lazily on the
first parallel batch and then kept **warm** for the life of the
builder: repeated ``build_many`` calls (sweeps, characterization
grids) reuse the same worker processes instead of paying fork + heap
re-warm per batch. ``close()`` (or the context-manager exit) shuts the
pool down deterministically; a ``weakref.finalize`` safety net reaps
abandoned builders.

Observability crosses the pool boundary: when any sink of the batch's
probe is live, each work item carries the names of the live sinks and
the request context; the build activates fresh sinks of those kinds,
runs against them and ships one worker payload
(:meth:`~repro.obs.instrumentation.Instrumentation.payload`: records,
fold tree, events and metrics) back with the outcome. The parent
replays each payload in request order with one merge — the fold under
the request's label, records tagged with the worker process name — so
a pooled sweep produces one coherent profile, one merged trace and the
same event stream and metrics as a serial one.
In-thread builds (``jobs=1``) take the same path, so both observe
identically.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.strategy import ImplementationStrategy
from repro.errors import FlowError
from repro.flow.cache import FlowCache, flow_cache_key
from repro.flow.dpr_flow import DprFlow, FlowResult
from repro.obs import events as ev
from repro.obs.context import TelemetryContext, bind, current_context, unbind
from repro.obs.events import EventBus
from repro.obs.instrumentation import NO_FRAME, OFF, Instrumentation
from repro.obs.logconfig import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder
from repro.soc.config import SocConfig

logger = get_logger("flow.batch")


@dataclass(frozen=True)
class BuildRequest:
    """One build the batch should run."""

    config: SocConfig
    strategy_override: Optional[ImplementationStrategy] = None
    semi_tau: int = 2

    @property
    def label(self) -> str:
        """``soc/strategy`` display name (``auto`` = size-driven)."""
        strategy = (
            "auto" if self.strategy_override is None else self.strategy_override.value
        )
        return f"{self.config.name}/{strategy}"


@dataclass(frozen=True)
class BuildError:
    """A captured per-request failure (picklable, pool-safe)."""

    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass
class BuildOutcome:
    """What happened to one request."""

    request: BuildRequest
    result: Optional[FlowResult]
    error: Optional[BuildError]
    cached: bool
    elapsed_s: float

    @property
    def ok(self) -> bool:
        """True when the build produced a result."""
        return self.result is not None

    def unwrap(self) -> FlowResult:
        """The result, or a :class:`FlowError` carrying the capture."""
        if self.result is None:
            raise FlowError(f"build {self.request.label} failed: {self.error}")
        return self.result


#: Ring size of a worker's event bus: far above the events one flow
#: build emits, so the replayed stream is never truncated.
_WORKER_EVENT_CAPACITY = 1 << 16


#: What a work item carries across the pool: the names of the batch
#: probe's live sinks (:attr:`Instrumentation.sinks`) and the request
#: context the worker re-activates around its build.
Scope = Tuple[Tuple[str, ...], Optional[TelemetryContext]]


def _activate(sinks: Tuple[str, ...]) -> Instrumentation:
    """Fresh worker-side sinks of the kinds live in the parent."""
    trace, profile = "trace" in sinks, "profile" in sinks
    return Instrumentation(
        recorder=Recorder(trace=trace, profile=profile) if trace or profile else None,
        metrics=MetricsRegistry() if "metrics" in sinks else None,
        events=EventBus(capacity=_WORKER_EVENT_CAPACITY) if "events" in sinks else None,
    )


def _execute(
    flow: DprFlow,
    request: BuildRequest,
    scope: Optional[Scope] = None,
    checkpoint_dir=None,
    resume: bool = False,
) -> Tuple[Optional[FlowResult], Optional[BuildError], float, Optional[Dict]]:
    """Run one build, capturing any failure.

    Returns ``(result, error, seconds, obs)``. ``obs`` is the build's
    worker payload when the scope activated any sink, or None when
    observability is off. Flow frames balance on failure too, so the
    payload always exports.

    The scope's request context (if any) is re-activated around the
    build, so worker-side records, profile nodes and log records carry
    the originating request's ID even across the process boundary.
    ``checkpoint_dir``/``resume`` pass through to :meth:`DprFlow.build`
    — the service daemon's crash-safety path (checkpoints are written
    in the worker process, so a daemon SIGKILL loses at most the stage
    in flight).
    """
    sinks, context = scope if scope is not None else ((), None)
    instrumentation = _activate(sinks)
    token = bind(context) if scope is not None else None
    start = time.perf_counter()
    try:
        result = flow.build(
            request.config,
            strategy_override=request.strategy_override,
            semi_tau=request.semi_tau,
            instrumentation=instrumentation,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
        error = None
    except Exception as exc:  # noqa: BLE001 - the capture is the point
        result = None
        error = BuildError(kind=type(exc).__name__, message=str(exc))
    finally:
        unbind(token)
    elapsed = time.perf_counter() - start
    obs = instrumentation.payload() if instrumentation.enabled else None
    return result, error, elapsed, obs


def _pool_execute(payload: Tuple[DprFlow, BuildRequest, Optional[Scope]]):
    """Module-level pool entry point (must be picklable by reference)."""
    return _execute(*payload)


def _pool_context():
    """Prefer ``fork`` (cheap, inherits warm imports) where available."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


#: Start-method context resolved once at import — the answer never
#: changes within a process, so per-batch re-resolution is pure waste.
_POOL_CONTEXT = _pool_context()


def _reap_pool(pool: ProcessPoolExecutor) -> None:
    """Finalizer for abandoned builders: drop workers without blocking."""
    pool.shutdown(wait=False, cancel_futures=True)


def _cache_lookup(
    flow: DprFlow,
    cache: FlowCache,
    request: BuildRequest,
    instrumentation: Instrumentation,
    source: str,
    frame: Optional[str] = None,
) -> Tuple[str, Optional[FlowResult]]:
    """Look ``request`` up in ``cache``; returns ``(key, result)``.

    The one cache path of every build entry point. It emits
    ``CACHE_HIT``/``CACHE_MISS`` from ``source``, and a hit replays the
    cached build's one projection into both exports (inside a
    ``frame`` frame when one is named), so a cached build observes
    identically to a fresh one: the same trace, modelled time and call
    paths, at near-zero host time, which is the point of the cache.
    ``result`` is None on a miss.
    """
    key = flow_cache_key(
        flow, request.config, request.strategy_override, request.semi_tau
    )
    result = cache.get(key)
    if result is None:
        instrumentation.emit(ev.CACHE_MISS, source=source, key=key)
        return key, None
    instrumentation.emit(ev.CACHE_HIT, source=source, key=key)
    if instrumentation.recorder is not None:
        with instrumentation.frame(frame) if frame is not None else NO_FRAME:
            flow.record_trace(result, instrumentation, replay=True)
    return key, result


def cached_build(
    flow: DprFlow,
    cache: Optional[FlowCache],
    config: SocConfig,
    strategy_override: Optional[ImplementationStrategy] = None,
    semi_tau: int = 2,
    instrumentation: Instrumentation = OFF,
    checkpoint_dir=None,
    resume: bool = False,
) -> Tuple[FlowResult, bool]:
    """One build through the cache; returns (result, was_cached).

    A hit is observed through :func:`_cache_lookup`; a miss builds with
    the whole ``instrumentation`` probe, so the bus also receives the
    flow's stage events. ``checkpoint_dir``/``resume`` pass through to
    :meth:`DprFlow.build` on misses — a cache hit supersedes any
    checkpoint (both are keyed by the same content digest).
    """
    key = None
    if cache is not None:
        request = BuildRequest(config, strategy_override, semi_tau)
        key, result = _cache_lookup(
            flow, cache, request, instrumentation, source=config.name
        )
        if result is not None:
            return result, True
    result = flow.build(
        config,
        strategy_override=strategy_override,
        semi_tau=semi_tau,
        instrumentation=instrumentation,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    if cache is not None:
        cache.put(key, result)
    return result, False


class BatchBuilder:
    """Fans many build requests out over cache + process pool."""

    def __init__(
        self,
        flow: Optional[DprFlow] = None,
        cache: Optional[FlowCache] = None,
        jobs: int = 1,
        instrumentation: Instrumentation = OFF,
    ) -> None:
        if jobs <= 0:
            raise FlowError(f"batch needs at least one job slot, got {jobs}")
        self.flow = flow or DprFlow()
        self.cache = cache
        self.jobs = jobs
        self.obs = instrumentation
        self._requests_counter = instrumentation.counter(
            "flow_batch_requests_total", "batch build requests by status"
        )
        self._build_seconds = instrumentation.histogram(
            "flow_batch_build_seconds", "wall seconds per executed build"
        )
        # Warm worker pool: created lazily on the first parallel batch,
        # reused by every later one until close(). The lock makes the
        # lazy creation safe under the service supervisor's concurrent
        # worker threads.
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_finalizer = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # warm pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent worker pool, created on first parallel use."""
        with self._pool_lock:
            if self._pool is None:
                logger.info("starting warm build pool (%d workers)", self.jobs)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=_POOL_CONTEXT
                )
                self._pool_finalizer = weakref.finalize(self, _reap_pool, self._pool)
            return self._pool

    @property
    def pool_active(self) -> bool:
        """True while the warm worker pool is up."""
        return self._pool is not None

    def close(self) -> None:
        """Shut the warm pool down (idempotent; builder stays usable —
        the next parallel batch simply starts a fresh pool)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            if pool is None:
                return
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
        pool.shutdown(wait=True)

    def __enter__(self) -> "BatchBuilder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def build_many(self, requests: Sequence[BuildRequest]) -> List[BuildOutcome]:
        """Build every request; outcomes come back in input order.

        Cached requests never reach the pool; a request whose build
        raises is reported as a per-entry :class:`BuildError` while the
        rest of the batch completes normally. With a live profile the
        whole batch runs under a ``build_many`` frame: cache hits
        replay the flow's projection, executed builds come back with
        their worker payloads (records, fold trees, events, metrics)
        merged in deterministic request order under each request's
        label.
        """
        with self.obs.frame("build_many"):
            requests = list(requests)
            outcomes: List[Optional[BuildOutcome]] = [None] * len(requests)
            keys: Dict[int, Optional[str]] = {}
            pending: List[int] = []
            for index, request in enumerate(requests):
                keys[index], outcomes[index] = self._lookup(request)
                if outcomes[index] is None:
                    pending.append(index)
            if pending:
                executed = self._execute_pending(requests, pending)
                # Finish in pending (= input) order, not completion
                # order, so the merged observations are deterministic
                # across pool schedules.
                for index in pending:
                    outcomes[index] = self._finish(
                        requests[index], keys[index], executed[index]
                    )
        return outcomes

    # ------------------------------------------------------------------
    def build_one(
        self,
        request: BuildRequest,
        checkpoint_dir=None,
        resume: bool = False,
    ) -> BuildOutcome:
        """One request through cache + warm pool; thread-safe.

        The service daemon's execution path: supervisor worker threads
        each push their job through here concurrently, sharing the one
        warm ``ProcessPoolExecutor`` (``pool.submit`` is thread-safe)
        and the one :class:`FlowCache`. ``checkpoint_dir`` makes the
        build stage-checkpointed; with ``resume`` a previously killed
        build restores its completed-stage prefix — same content
        digest, byte-identical result.

        With ``jobs=1`` the build runs in the calling thread (no pool),
        and a broken pool degrades to in-thread execution instead of
        failing the job — the daemon must outlive its workers.
        """
        key, hit = self._lookup(request)
        if hit is not None:
            return hit
        payload = (
            self.flow,
            request,
            self._scope(),
            checkpoint_dir,
            resume,
        )
        executed = None
        if self.jobs > 1:
            try:
                executed = self._ensure_pool().submit(_pool_execute, payload).result()
            except (BrokenExecutor, RuntimeError) as error:
                logger.warning(
                    "warm pool failed for %s (%s); running in-thread",
                    request.label,
                    error,
                )
                self.close()
        if executed is None:
            executed = _execute(*payload)
        return self._finish(request, key, executed)

    # ------------------------------------------------------------------
    def _lookup(
        self, request: BuildRequest
    ) -> Tuple[Optional[str], Optional[BuildOutcome]]:
        """The request's cache key and, on a hit, its outcome."""
        if self.cache is None:
            return None, None
        start = time.perf_counter()
        key, result = _cache_lookup(
            self.flow,
            self.cache,
            request,
            self.obs,
            source=request.label,
            frame=request.label,
        )
        if result is None:
            return key, None
        self._requests_counter.inc(status="cache_hit")
        return key, BuildOutcome(
            request=request,
            result=result,
            error=None,
            cached=True,
            elapsed_s=time.perf_counter() - start,
        )

    def _finish(
        self, request: BuildRequest, key: Optional[str], executed
    ) -> BuildOutcome:
        """Account one executed build and replay its observations."""
        result, error, elapsed, obs = executed
        self._build_seconds.observe(elapsed)
        if obs is not None:
            self.obs.merge(obs, at=(request.label,))
        if error is None:
            self._requests_counter.inc(status="built")
            if self.cache is not None and result is not None:
                self.cache.put(key, result)
        else:
            self._requests_counter.inc(status="error")
            logger.warning("build %s failed: %s", request.label, error)
        return BuildOutcome(
            request=request,
            result=result,
            error=error,
            cached=False,
            elapsed_s=elapsed,
        )

    def _scope(self) -> Optional[Scope]:
        """What one work item carries across the pool, or None.

        The batch's active request context rides along too, so worker
        processes re-activate the same ``request_id`` the parent verb
        minted — a context alone (no live sink) still yields a scope,
        because worker-side log attribution needs it.
        """
        context = current_context()
        if not self.obs.enabled and context is None:
            return None
        return self.obs.sinks, context

    def _execute_pending(
        self, requests: Sequence[BuildRequest], pending: Sequence[int]
    ) -> Dict[int, Tuple[Optional[FlowResult], Optional[BuildError], float, Optional[Dict]]]:
        if self.jobs == 1 or len(pending) == 1:
            return {
                index: _execute(self.flow, requests[index], self._scope())
                for index in pending
            }
        logger.info(
            "dispatching %d builds over %d warm worker processes",
            len(pending),
            min(self.jobs, len(pending)),
        )
        executed: Dict[
            int,
            Tuple[Optional[FlowResult], Optional[BuildError], float, Optional[Dict]],
        ] = {}
        pool = self._ensure_pool()
        broken = False
        futures = {}
        for index in pending:
            try:
                futures[index] = pool.submit(
                    _pool_execute,
                    (self.flow, requests[index], self._scope()),
                )
            except Exception as error:  # pool already broken/shut down
                broken = broken or isinstance(error, (BrokenExecutor, RuntimeError))
                executed[index] = (
                    None,
                    BuildError(kind=type(error).__name__, message=str(error)),
                    0.0,
                    None,
                )
        for index, future in futures.items():
            try:
                executed[index] = future.result()
            except Exception as error:  # pool/pickling infrastructure failure
                broken = broken or isinstance(error, BrokenExecutor)
                executed[index] = (
                    None,
                    BuildError(kind=type(error).__name__, message=str(error)),
                    0.0,
                    None,
                )
        if broken:
            # A dead pool never recovers; drop it so the next batch
            # starts fresh instead of failing forever.
            self.close()
        return executed
