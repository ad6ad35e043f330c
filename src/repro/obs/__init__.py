"""Unified observability: span tracing, metrics, logging, exporters.

The reproduction's two performance stories — the flow's compile-time
makespan (modelled CAD minutes) and the runtime manager's
reconfiguration overhead (DES simulated seconds) — share one
telemetry substrate. A :class:`Tracer` collects spans against an
injected clock, a :class:`MetricsRegistry` collects labeled
counters/gauges/histograms, and the exporters render Chrome
trace-event JSON (Perfetto / ``chrome://tracing``), JSONL span logs
and flat metrics dicts. A :class:`Profiler` collects a deterministic
call-path tree (host self time + attributed simulated time) exported
as JSON documents and collapsed flamegraph stacks, with profdiff
gating hot-path share drift against committed baselines.
Instrumented code takes the four sinks as one
:class:`Instrumentation` probe; a sink that is off is ``None``, and
``OFF`` (every sink off) is the zero-overhead disabled path.

Request-scoped telemetry joins all of it: a
:class:`TelemetryContext` (deterministic seeded IDs, contextvars
propagation) stamps every span, event, metric sample, profile leaf
and log record; a :class:`TelemetryStore` keeps a bounded ring of
registry snapshots with windowed rate/delta queries; an
:class:`SloTracker` evaluates declarative SLO specs (error-budget
burn) with :class:`Verdict` exit-code semantics; and the Prometheus
text / OTLP JSONL exporters expose the registry to standard scrapers.
"""

from repro.obs.bridge import bridge_timeline, publish_runtime_stats
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
    merge_span_records,
    metrics_dict,
    metrics_lines,
    otlp_metrics_dict,
    otlp_metrics_lines,
    parse_prometheus_text,
    prometheus_samples,
    prometheus_text,
    span_records,
    spans_jsonl,
    write_chrome_trace,
    write_otlp_jsonl,
    write_prometheus_text,
)
from repro.obs.health import (
    HealthError,
    HealthFinding,
    HealthMonitor,
    HealthReport,
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
from repro.obs.perfbase import (
    Baseline,
    BaselineEntry,
    BenchSummary,
    ComparisonResult,
    MetricDelta,
    PerfBaseError,
    baseline_from_summary,
    compare,
    compare_directories,
    load_baseline,
    load_summary,
    write_baseline,
    write_summary,
)
from repro.obs.profdiff import (
    ProfDiffError,
    ProfileBaseline,
    ProfileComparisonResult,
    ShareDelta,
    baseline_from_profile,
    compare_profile,
    compare_profile_directories,
    find_profile_baselines,
    load_profile_baseline,
    self_time_shares,
    write_profile_baseline,
)
from repro.obs.profiler import (
    ProfileCapsule,
    ProfileNode,
    Profiler,
    ProfilerError,
    canonical_tree,
    collapsed_stacks,
    find_profiles,
    load_profile,
    profile_document,
    profile_json,
    self_host_total,
    write_profile,
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    SloError,
    SloReport,
    SloSpec,
    SloStatus,
    SloTracker,
)
from repro.obs.tracer import (
    Span,
    Tracer,
    TracingError,
)
from repro.obs.tsdb import (
    Sample,
    TelemetryStore,
    TelemetryStoreError,
)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "BenchSummary",
    "ComparisonResult",
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
    "MetricDelta",
    "MetricsError",
    "MetricsRegistry",
    "OFF",
    "PerfBaseError",
    "ProfDiffError",
    "ProfileBaseline",
    "ProfileCapsule",
    "ProfileComparisonResult",
    "ProfileNode",
    "Profiler",
    "ProfilerError",
    "RequestIdFactory",
    "RequestIdFilter",
    "Sample",
    "ShareDelta",
    "SloError",
    "SloReport",
    "SloSpec",
    "SloStatus",
    "SloTracker",
    "Span",
    "TelemetryContext",
    "TelemetryStore",
    "TelemetryStoreError",
    "Tracer",
    "TracingError",
    "Verdict",
    "WindowStats",
    "activate",
    "baseline_from_profile",
    "baseline_from_summary",
    "bind",
    "bridge_timeline",
    "bucket_quantile",
    "canonical_tree",
    "chrome_trace_dict",
    "chrome_trace_events",
    "chrome_trace_json",
    "collapsed_stacks",
    "compare",
    "compare_directories",
    "compare_profile",
    "compare_profile_directories",
    "configure_logging",
    "current_context",
    "current_request_id",
    "find_profile_baselines",
    "find_profiles",
    "format_metric_value",
    "get_logger",
    "level_from_verbosity",
    "load_baseline",
    "load_profile",
    "load_profile_baseline",
    "load_summary",
    "merge_span_records",
    "metrics_dict",
    "metrics_lines",
    "otlp_metrics_dict",
    "otlp_metrics_lines",
    "parse_prometheus_text",
    "profile_document",
    "profile_json",
    "prometheus_samples",
    "prometheus_text",
    "publish_runtime_stats",
    "self_host_total",
    "self_time_shares",
    "span_records",
    "spans_jsonl",
    "unbind",
    "write_baseline",
    "write_chrome_trace",
    "write_otlp_jsonl",
    "write_prometheus_text",
    "write_profile",
    "write_profile_baseline",
    "write_summary",
]
