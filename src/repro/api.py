"""The top-level PR-ESP API: one import, in-process and service verbs.

The platform's capabilities behind plain functions::

    import repro.api as presp

    result = presp.build(config)                 # the DPR flow
    outcomes = presp.build_many(requests)        # batch via the build service
    report = presp.deploy(config, frames=4)      # run WAMI on the built SoC
    flow, mono = presp.compare(config)           # Table V row
    report, health, bus = presp.monitor(config)  # deploy + health monitor

Every in-process verb accepts ``options=`` (a :class:`~repro.flow.
options.BuildOptions` — cache, parallel jobs, fault/retry policy,
checkpoint directory) and ``instrumentation=`` (an :class:`~repro.obs.
instrumentation.Instrumentation` — the one probe carrying the
recorder, metrics registry and event bus), or a
pre-built ``platform=`` when several calls should share state (flow
cache, batch workers).

Against a running ``repro serve`` daemon the same surface exists as
*service* verbs — jobs instead of blocking calls::

    job = presp.submit("soc_2", tenant="acme", port=8321)
    presp.status(job["job_id"], port=8321)
    record = presp.fetch(job["job_id"], port=8321)   # waits, then result
    presp.cancel(job["job_id"], port=8321)

This is the layer ``repro.cli``, the examples and the benchmarks are
written against; reach for :class:`~repro.core.platform.PrEspPlatform`
directly only when you need its full surface.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.platform import (
    BuildResult,
    PrEspPlatform,
    WamiRunReport,
)
from repro.core.strategy import ImplementationStrategy
from repro.errors import ConfigurationError
from repro.flow.batch import BuildOutcome, BuildRequest
from repro.flow.dpr_flow import FlowResult
from repro.flow.monolithic import MonolithicResult
from repro.flow.options import BuildOptions
from repro.obs.context import RequestIdFactory, TelemetryContext
from repro.obs.events import EventBus
from repro.obs.health import HealthReport
from repro.obs.instrumentation import Instrumentation
from repro.obs.tsdb import TelemetryStore
from repro.runtime.faults import RuntimeFaultOptions
from repro.soc.config import SocConfig

__all__ = [
    "build",
    "build_many",
    "cancel",
    "compare",
    "deploy",
    "fetch",
    "monitor",
    "platform",
    "status",
    "submit",
    "BuildOptions",
    "Instrumentation",
    "RequestIdFactory",
    "RuntimeFaultOptions",
    "TelemetryContext",
    "TelemetryStore",
]


def platform(
    options: Optional[BuildOptions] = None,
    instrumentation: Optional[Instrumentation] = None,
    **kwargs,
) -> PrEspPlatform:
    """A configured :class:`PrEspPlatform`.

    Extra keyword arguments go to the constructor verbatim (runtime
    model, ``compress_bitstreams``...). Build one explicitly when
    several verbs should share a flow cache or batch workers; the
    module-level verbs otherwise construct a fresh platform per call.
    """
    return PrEspPlatform(
        options=options, instrumentation=instrumentation, **kwargs
    )


def _platform_for(
    existing: Optional[PrEspPlatform],
    options: Optional[BuildOptions],
    instrumentation: Optional[Instrumentation],
) -> PrEspPlatform:
    if existing is not None:
        if options is not None or instrumentation is not None:
            raise ConfigurationError(
                "pass either platform= or options=/instrumentation=, not both "
                "(a platform already carries its own)"
            )
        return existing
    return PrEspPlatform(options=options, instrumentation=instrumentation)


def build(
    config: SocConfig,
    strategy: Optional[ImplementationStrategy] = None,
    with_baseline: bool = False,
    resume: Optional[bool] = None,
    options: Optional[BuildOptions] = None,
    instrumentation: Optional[Instrumentation] = None,
    platform: Optional[PrEspPlatform] = None,
    context: Optional[TelemetryContext] = None,
) -> BuildResult:
    """Run the PR-ESP DPR flow on ``config``.

    ``resume`` restores a checkpointed build's completed stages when
    ``options.checkpoint_dir`` is set (None defers to
    ``options.resume``). A build that lost reconfigurable partitions to
    permanent CAD faults returns normally with ``result.flow.degraded``
    set — inspect ``result.flow.failures`` rather than catching.
    ``context`` attributes the run's telemetry to an existing request
    ID (platforms built with ``request_ids=`` mint one otherwise).
    """
    return _platform_for(platform, options, instrumentation).build(
        config,
        strategy_override=strategy,
        with_baseline=with_baseline,
        resume=resume,
        context=context,
    )


def build_many(
    requests: Sequence[BuildRequest],
    options: Optional[BuildOptions] = None,
    instrumentation: Optional[Instrumentation] = None,
    platform: Optional[PrEspPlatform] = None,
    context: Optional[TelemetryContext] = None,
) -> List[BuildOutcome]:
    """Fan a batch of build requests out over the build service."""
    return _platform_for(platform, options, instrumentation).build_many(
        requests, context=context
    )


def compare(
    config: SocConfig,
    options: Optional[BuildOptions] = None,
    instrumentation: Optional[Instrumentation] = None,
    platform: Optional[PrEspPlatform] = None,
    context: Optional[TelemetryContext] = None,
) -> Tuple[FlowResult, MonolithicResult]:
    """PR-ESP vs the monolithic baseline for one SoC (Table V row)."""
    return _platform_for(platform, options, instrumentation).compare_with_monolithic(
        config, context=context
    )


def deploy(
    config: SocConfig,
    frames: int = 1,
    flow_result: Optional[FlowResult] = None,
    power_gating: bool = False,
    pipelined: bool = False,
    options: Optional[BuildOptions] = None,
    instrumentation: Optional[Instrumentation] = None,
    platform: Optional[PrEspPlatform] = None,
    runtime_options: Optional[RuntimeFaultOptions] = None,
    context: Optional[TelemetryContext] = None,
    **kwargs,
) -> WamiRunReport:
    """Program a built SoC and run WAMI for ``frames`` frames.

    Builds ``config`` first when ``flow_result`` is not supplied. The
    ``instrumentation`` bundle receives the kernel protocol spans, the
    runtime counters and the manager's lifecycle events.
    ``runtime_options`` carries the runtime fault model and
    watchdog/recovery policy (each deployment draws from a fresh copy
    of the model, so same-seed deploys replay identically). Extra
    keyword arguments (``app=``, ``prc_setup=``...) pass through to
    :meth:`PrEspPlatform.deploy_wami`.
    """
    return _platform_for(platform, options, instrumentation).deploy_wami(
        config,
        flow_result=flow_result,
        frames=frames,
        power_gating=power_gating,
        pipelined=pipelined,
        runtime_options=runtime_options,
        context=context,
        **kwargs,
    )


def monitor(
    config: SocConfig,
    frames: int = 1,
    options: Optional[BuildOptions] = None,
    instrumentation: Optional[Instrumentation] = None,
    platform: Optional[PrEspPlatform] = None,
    runtime_options: Optional[RuntimeFaultOptions] = None,
    context: Optional[TelemetryContext] = None,
    **kwargs,
) -> Tuple[WamiRunReport, HealthReport, EventBus]:
    """Deploy WAMI with the event bus and health monitor wired in.

    Returns the run report, the end-of-run health verdict and the bus
    (the probe's own bus when ``instrumentation`` carries one).
    ``runtime_options`` supplies the runtime fault model and recovery
    policy under which the deployment runs. Extra keyword arguments
    (the watchdog thresholds) pass through to
    :meth:`PrEspPlatform.monitor_wami`.
    """
    return _platform_for(platform, options, instrumentation).monitor_wami(
        config,
        frames=frames,
        runtime_options=runtime_options,
        context=context,
        **kwargs,
    )


# ----------------------------------------------------------------------
# service verbs — the same surface against a running daemon
# ----------------------------------------------------------------------
def _client(host: str, port: int, timeout: float):
    # Imported lazily so `import repro.api` stays cheap for callers that
    # never talk to a daemon.
    from repro.service.client import ServiceClient

    return ServiceClient(host=host, port=port, timeout=timeout)


def submit(
    config: str,
    kind: str = "build",
    tenant: str = "default",
    priority: int = 0,
    strategy: Optional[str] = None,
    frames: int = 1,
    host: str = "127.0.0.1",
    port: int = 8321,
    timeout: float = 30.0,
) -> Dict:
    """Submit a job to a running ``repro serve`` daemon.

    ``config`` is a paper design name (``soc_2``...) or an ESP
    ``esp_config`` path readable by the daemon. Returns the accepted
    job record (its ``job_id`` feeds :func:`status`/:func:`fetch`).
    Over-quota submits raise :class:`~repro.service.client.
    ServiceError` with ``status == 429`` — they are never queued.
    """
    return _client(host, port, timeout).submit(
        config,
        kind=kind,
        tenant=tenant,
        priority=priority,
        strategy=strategy,
        frames=frames,
    )


def status(
    job_id: str,
    host: str = "127.0.0.1",
    port: int = 8321,
    timeout: float = 30.0,
) -> Dict:
    """The current job record for ``job_id`` (non-blocking)."""
    return _client(host, port, timeout).status(job_id)


def cancel(
    job_id: str,
    host: str = "127.0.0.1",
    port: int = 8321,
    timeout: float = 30.0,
) -> Dict:
    """Cancel ``job_id``: queued jobs die immediately, running jobs get
    the cooperative flag. Idempotent on terminal jobs."""
    return _client(host, port, timeout).cancel(job_id)


def fetch(
    job_id: str,
    wait: bool = True,
    timeout: float = 120.0,
    host: str = "127.0.0.1",
    port: int = 8321,
) -> Dict:
    """The result payload for ``job_id``.

    With ``wait=True`` (the default) polls until the job reaches a
    terminal state, then returns the result envelope; ``wait=False``
    asks exactly once and raises ``ServiceError`` (409, ``not_ready``)
    when the job is still in flight.
    """
    client = _client(host, port, max(timeout, 30.0))
    if wait:
        client.wait(job_id, timeout=timeout)
    return client.result(job_id)
