"""Unified observability: one record stream, metrics, logging, exporters.

The reproduction's two performance stories — the flow's compile-time
makespan (modelled CAD minutes) and the runtime manager's
reconfiguration overhead (DES simulated seconds) — share one
telemetry substrate. A :class:`Recorder` keeps one stream of
:class:`Record` facts, each on the clock its layer names (CAD minutes
or simulated seconds), plus host-clocked frames; two exporters read
it: the Chrome trace-event JSON (Perfetto / ``chrome://tracing``,
each process row on one clock) and the call-path profile, a fold of the stream by name path into calls, host
self time and simulated seconds (JSON documents and collapsed
flamegraph stacks). A :class:`Tracer` is the recorder with the profile
off, a :class:`Profiler` the recorder with the trace off. A
:class:`MetricsRegistry` collects labeled counters/gauges/histograms;
``obs.baseline`` gates bench metrics and hot-path shares against
committed baselines. Instrumented code takes the three sinks as one
:class:`Instrumentation` probe; a sink that is off is ``None``, and
``OFF`` (every sink off) is the zero-overhead disabled path.

Request-scoped telemetry joins all of it: a
:class:`TelemetryContext` (deterministic seeded IDs, contextvars
propagation) stamps every record, event, metric sample, profile node
and log record; a :class:`TelemetryStore` keeps a bounded ring of
registry snapshots; the :class:`HealthMonitor` is the one health
judge, folding bus events into watchdog rules and the store's samples
into declarative SLO rules (error-budget burn) with :class:`Verdict`
exit-code semantics; and the Prometheus text exporter exposes the
registry to standard scrapers.
"""

from repro.obs.context import (
    DEFAULT_TENANT,
    RequestIdFactory,
    TelemetryContext,
    activate,
    bind,
    current_context,
    current_request_id,
    unbind,
)
from repro.obs.events import (
    Event,
    EventBus,
    EventBusError,
)
from repro.obs.export import (
    chrome_trace_dict,
    chrome_trace_events,
    chrome_trace_json,
    format_metric_value,
    metrics_dict,
    metrics_lines,
    prometheus_text,
    write_chrome_trace,
    write_prometheus_text,
)
from repro.obs.health import (
    HealthError,
    HealthFinding,
    HealthMonitor,
    HealthReport,
    SloReport,
    SloStatus,
    Verdict,
    WindowStats,
)
from repro.obs.instrumentation import OFF, Instrumentation
from repro.obs.logconfig import (
    LEVELS,
    RequestIdFilter,
    configure_logging,
    get_logger,
    level_from_verbosity,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    bucket_quantile,
)
from repro.obs.profiler import (
    Profiler,
    ProfilerError,
    canonical_tree,
    collapsed_stacks,
    load_profile,
    profile_document,
    profile_json,
    self_host_total,
    write_profile,
)
from repro.obs.recorder import (
    ProfileNode,
    Record,
    Recorder,
    RecordingError,
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    SloError,
    SloSpec,
)
from repro.obs.tracer import Tracer
from repro.obs.tsdb import (
    Sample,
    TelemetryStore,
    TelemetryStoreError,
)

__all__ = [
    "Counter",
    "DEFAULT_SLOS",
    "DEFAULT_TENANT",
    "Event",
    "EventBus",
    "EventBusError",
    "Gauge",
    "HealthError",
    "HealthFinding",
    "HealthMonitor",
    "HealthReport",
    "Histogram",
    "Instrumentation",
    "LEVELS",
    "MetricsError",
    "MetricsRegistry",
    "OFF",
    "ProfileNode",
    "Profiler",
    "ProfilerError",
    "Record",
    "Recorder",
    "RecordingError",
    "RequestIdFactory",
    "RequestIdFilter",
    "Sample",
    "SloError",
    "SloReport",
    "SloSpec",
    "SloStatus",
    "TelemetryContext",
    "TelemetryStore",
    "TelemetryStoreError",
    "Tracer",
    "Verdict",
    "WindowStats",
    "activate",
    "bind",
    "bucket_quantile",
    "canonical_tree",
    "chrome_trace_dict",
    "chrome_trace_events",
    "chrome_trace_json",
    "collapsed_stacks",
    "configure_logging",
    "current_context",
    "current_request_id",
    "format_metric_value",
    "get_logger",
    "level_from_verbosity",
    "load_profile",
    "metrics_dict",
    "metrics_lines",
    "profile_document",
    "profile_json",
    "prometheus_text",
    "self_host_total",
    "unbind",
    "write_chrome_trace",
    "write_prometheus_text",
    "write_profile",
]
