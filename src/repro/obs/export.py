"""Trace and metrics exporters.

Four formats, all deterministic (stable ordering, no wall-clock or
object-identity leakage) so that two runs of the same seeded workload
export byte-identical files:

* **Chrome trace-event JSON** — loadable in Perfetto or
  ``chrome://tracing``. Spans become complete (``"ph": "X"``) events,
  instant markers (cancelled DES events) become ``"ph": "I"`` events;
  tracks (``"process/thread"``) map onto pid/tid pairs announced with
  ``process_name``/``thread_name`` metadata events. Each record is
  scaled to microseconds by its own clock (a CAD minute or a simulated
  second), and ``metadata.clocks`` names the clock of each process row;
  a row holds records on one clock only.
* **Metrics dict** — the registry snapshot, flat and JSON-ready.
* **Prometheus text exposition** — the registry rendered in the
  text-format a Prometheus server scrapes (``_total`` counters,
  cumulative ``_bucket{le=...}`` histograms); a round-trip parser
  (:func:`parse_prometheus_text`) keeps the renderer honest in tests.
* **OTLP-shaped JSON/JSONL** — the registry as an OpenTelemetry
  ``ExportMetricsServiceRequest`` document (``resourceMetrics`` →
  ``scopeMetrics`` → ``metrics``), one envelope per line in the JSONL
  form, with ``timeUnixNano`` derived from the caller's *simulated*
  instant so exports stay byte-stable.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.metrics import LabelKey, MetricsRegistry
from repro.obs.recorder import CLOCKS, Recorder, RecordingError


def _jsonable(value) -> object:
    """Coerce an attribute value into something JSON-serializable."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _split_track(track: str) -> Tuple[str, str]:
    """``"proc/thread"`` -> (proc, thread); bare names get proc==thread."""
    if "/" in track:
        proc, thread = track.split("/", 1)
        return proc, thread
    return track, track


def _process_clocks(tracer: Recorder) -> Dict[str, str]:
    """``{process row: clock}`` for the recorder's kept records.

    Raises :class:`RecordingError` if one row holds records on two
    clocks: its timeline would mix minutes and seconds.
    """
    clocks: Dict[str, str] = {}
    for span in tracer.spans:
        proc = _split_track(span.track)[0]
        clock = clocks.setdefault(proc, span.clock)
        if clock != span.clock:
            raise RecordingError(
                f"process row {proc!r} holds records on two clocks "
                f"({clock!r} and {span.clock!r}, at {span.name!r})"
            )
    return clocks


def chrome_trace_events(tracer: Recorder) -> List[Dict]:
    """The ``traceEvents`` list for the recorder's kept records."""
    spans = tracer.spans

    processes: Dict[str, int] = {}
    threads: Dict[Tuple[str, str], int] = {}
    for proc, thread in sorted({_split_track(s.track) for s in spans}):
        processes.setdefault(proc, len(processes) + 1)
        threads.setdefault((proc, thread), len(threads) + 1)

    events: List[Dict] = []
    for proc, pid in sorted(processes.items()):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": proc},
            }
        )
    for (proc, thread), tid in sorted(threads.items()):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": processes[proc],
                "tid": tid,
                "args": {"name": thread},
            }
        )
    for span in spans:
        proc, thread = _split_track(span.track)
        scale = CLOCKS[span.clock]
        args = {k: _jsonable(v) for k, v in sorted(span.attrs.items())}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.instant:
            # Zero-duration markers (e.g. cancelled DES events) export
            # as thread-scoped instants, never as open/dangling spans.
            events.append(
                {
                    "ph": "I",
                    "s": "t",
                    "name": span.name,
                    "cat": span.category or "instant",
                    "ts": span.start * scale,
                    "pid": processes[proc],
                    "tid": threads[(proc, thread)],
                    "args": args,
                }
            )
            continue
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.category or "span",
                "ts": span.start * scale,
                "dur": span.duration * scale,
                "pid": processes[proc],
                "tid": threads[(proc, thread)],
                "args": args,
            }
        )
    return events


def chrome_trace_dict(tracer: Recorder, profile: Union[Dict, None] = None) -> Dict:
    """The full Chrome trace-event document.

    ``profile`` (a profile document from
    :func:`repro.obs.profiler.profile_document`) rides along in the
    trace metadata, so one file carries both the merged timeline and
    the call-path attribution.
    """
    metadata: Dict = {"clocks": _process_clocks(tracer), "tool": "pr-esp-repro"}
    if profile is not None:
        metadata["profile"] = profile
    return {
        "displayTimeUnit": "ms",
        "metadata": metadata,
        "traceEvents": chrome_trace_events(tracer),
    }


def chrome_trace_json(tracer: Recorder, profile: Union[Dict, None] = None) -> str:
    """Deterministic JSON text of the Chrome trace document."""
    return json.dumps(chrome_trace_dict(tracer, profile), sort_keys=True, indent=1)


def write_chrome_trace(
    path: str, tracer: Recorder, profile: Union[Dict, None] = None
) -> None:
    """Write the Chrome trace-event file to ``path``."""
    with open(path, "w") as handle:
        handle.write(chrome_trace_json(tracer, profile))
        handle.write("\n")


# ----------------------------------------------------------------------
def metrics_dict(registry: MetricsRegistry) -> Dict[str, float]:
    """The registry's flat snapshot (alias with exporter naming)."""
    return registry.snapshot()


def format_metric_value(value: float) -> str:
    """Round-trip-faithful rendering of one metric value.

    ``%g`` truncates to 6 significant digits — silently lossy for large
    counters and nanosecond-scale sums. Integral values render without
    the trailing ``.0`` (beyond 2**53 the float is integral but the
    int() round trip is no longer exact, so ``repr`` takes over).
    """
    as_float = float(value)
    if as_float != as_float or as_float in (float("inf"), float("-inf")):
        return repr(as_float)
    if as_float.is_integer() and abs(as_float) < 2**53:
        return str(int(as_float))
    return repr(as_float)


def metrics_lines(registry: MetricsRegistry) -> List[str]:
    """Human-readable ``name value`` lines, name-ordered."""
    return [
        f"{name} {format_metric_value(value)}"
        for name, value in registry.snapshot().items()
    ]


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LABEL_INVALID = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str) -> str:
    """A valid Prometheus metric name (dots and dashes become ``_``)."""
    sanitized = _PROM_INVALID.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return sanitized


def _prom_label_name(name: str) -> str:
    sanitized = _PROM_LABEL_INVALID.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return sanitized


def _prom_escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(key: LabelKey, extra: Optional[List[Tuple[str, str]]] = None) -> str:
    pairs = list(key) + list(extra or [])
    if not pairs:
        return ""
    rendered = ",".join(
        f'{_prom_label_name(k)}="{_prom_escape_label(str(v))}"' for k, v in pairs
    )
    return f"{{{rendered}}}"


def _prom_value(value: float) -> str:
    as_float = float(value)
    if as_float == float("inf"):
        return "+Inf"
    if as_float == float("-inf"):
        return "-Inf"
    if as_float != as_float:
        return "NaN"
    return format_metric_value(as_float)


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format.

    Counters gain the conventional ``_total`` suffix, histograms
    export cumulative ``_bucket{le="..."}`` series (with ``+Inf``)
    plus ``_sum``/``_count``, and every family leads with its
    ``# HELP``/``# TYPE`` comments. Rendering is name-ordered and
    repr-faithful, so two identical seeded runs scrape byte-identical
    pages.
    """
    lines: List[str] = []
    for instrument in registry.instruments():
        base = prometheus_name(instrument.name)
        if instrument.description:
            lines.append(f"# HELP {base} {_prom_escape_help(instrument.description)}")
        if instrument.kind == "counter":
            lines.append(f"# TYPE {base} counter")
            # The conventional _total suffix, applied idempotently —
            # counters already named *_total keep a single suffix.
            sample = base if base.endswith("_total") else f"{base}_total"
            for key, value in instrument.items():
                lines.append(f"{sample}{_prom_labels(key)} {_prom_value(value)}")
        elif instrument.kind == "gauge":
            lines.append(f"# TYPE {base} gauge")
            for key, value in instrument.items():
                lines.append(f"{base}{_prom_labels(key)} {_prom_value(value)}")
        elif instrument.kind == "histogram":
            lines.append(f"# TYPE {base} histogram")
            for key, series in instrument.items():
                cumulative = 0
                for bound, count in zip(instrument.buckets, series.bucket_counts):
                    cumulative += count
                    labels = _prom_labels(key, extra=[("le", f"{bound:g}")])
                    lines.append(f"{base}_bucket{labels} {cumulative}")
                labels = _prom_labels(key, extra=[("le", "+Inf")])
                lines.append(f"{base}_bucket{labels} {series.count}")
                lines.append(
                    f"{base}_sum{_prom_labels(key)} {_prom_value(series.total)}"
                )
                lines.append(f"{base}_count{_prom_labels(key)} {series.count}")
        else:  # pragma: no cover - registries only hold the three kinds
            raise ValueError(f"cannot expose instrument kind {instrument.kind!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus_text(path: str, registry: MetricsRegistry) -> None:
    """Write the Prometheus exposition page to ``path``."""
    with open(path, "w") as handle:
        handle.write(prometheus_text(registry))


_PROM_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?\s*$"
)
_PROM_LABEL = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _prom_unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _prom_parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_prometheus_text(text: str) -> Dict[str, Dict]:
    """Parse a Prometheus text-format page into metric families.

    Returns ``{family_name: {"type", "help", "samples"}}`` where each
    sample is ``{"name", "labels", "value"}``. Samples attach to the
    family whose ``# TYPE`` they follow (by the standard name-prefix
    convention — ``x_bucket``/``x_sum``/``x_count``/``x_total`` belong
    to ``x``); samples with no preceding family get one of their own.
    Raises ``ValueError`` on a malformed line, so tests using it as a
    round-trip check fail loudly on renderer bugs.
    """
    families: Dict[str, Dict] = {}
    current: Optional[str] = None

    def family(name: str) -> Dict:
        return families.setdefault(
            name, {"type": "untyped", "help": "", "samples": []}
        )

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                name = parts[2]
                if parts[1] == "TYPE":
                    family(name)["type"] = parts[3] if len(parts) > 3 else "untyped"
                    current = name
                else:
                    family(name)["help"] = (
                        _prom_unescape(parts[3]) if len(parts) > 3 else ""
                    )
            continue
        match = _PROM_SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        labels: Dict[str, str] = {}
        label_text = match.group("labels")
        if label_text:
            consumed = 0
            for pair in _PROM_LABEL.finditer(label_text):
                labels[pair.group("name")] = _prom_unescape(pair.group("value"))
                consumed = pair.end()
            remainder = label_text[consumed:].strip().strip(",")
            if remainder:
                raise ValueError(f"line {lineno}: malformed labels {label_text!r}")
        owner = name
        if current is not None and (
            name == current or name.startswith(f"{current}_")
        ):
            owner = current
        family(owner)["samples"].append(
            {
                "name": name,
                "labels": labels,
                "value": _prom_parse_value(match.group("value")),
            }
        )
    return families


def prometheus_samples(text: str) -> Dict[str, float]:
    """Flat ``rendered-series -> value`` view of a parsed page.

    Series render as ``name{k=v,...}`` with sorted labels — the same
    shape as registry snapshot keys, which makes round-trip comparisons
    one dict equality.
    """
    flat: Dict[str, float] = {}
    for fam in parse_prometheus_text(text).values():
        for sample in fam["samples"]:
            rendered = sample["name"]
            if sample["labels"]:
                labels = ",".join(
                    f"{k}={v}" for k, v in sorted(sample["labels"].items())
                )
                rendered = f"{rendered}{{{labels}}}"
            flat[rendered] = sample["value"]
    return flat


# ----------------------------------------------------------------------
# OTLP-shaped metrics export
# ----------------------------------------------------------------------
#: Cumulative aggregation temporality (AGGREGATION_TEMPORALITY_CUMULATIVE).
_OTLP_CUMULATIVE = 2

#: The instrumentation scope stamped into every export.
_OTLP_SCOPE = {"name": "repro.obs", "version": "1"}


def _otlp_attributes(key: LabelKey) -> List[Dict]:
    return [
        {"key": name, "value": {"stringValue": str(value)}} for name, value in key
    ]


def _otlp_metric(instrument, time_unix_nano: int) -> Dict:
    """One OTLP ``Metric`` object for one registry instrument."""
    stamp = str(time_unix_nano)
    metric: Dict = {
        "name": instrument.name,
        "description": instrument.description,
        "unit": "",
    }
    if instrument.kind in ("counter", "gauge"):
        points = [
            {
                "attributes": _otlp_attributes(key),
                "timeUnixNano": stamp,
                "asDouble": float(value),
            }
            for key, value in instrument.items()
        ]
        if instrument.kind == "counter":
            metric["sum"] = {
                "dataPoints": points,
                "aggregationTemporality": _OTLP_CUMULATIVE,
                "isMonotonic": True,
            }
        else:
            metric["gauge"] = {"dataPoints": points}
        return metric
    if instrument.kind == "histogram":
        points = []
        for key, series in instrument.items():
            point = {
                "attributes": _otlp_attributes(key),
                "timeUnixNano": stamp,
                "count": str(series.count),
                "sum": float(series.total),
                "bucketCounts": [str(c) for c in series.bucket_counts],
                "explicitBounds": [float(b) for b in instrument.buckets],
            }
            if series.count:
                point["min"] = float(series.minimum)
                point["max"] = float(series.maximum)
            points.append(point)
        metric["histogram"] = {
            "dataPoints": points,
            "aggregationTemporality": _OTLP_CUMULATIVE,
        }
        return metric
    raise ValueError(  # pragma: no cover - registries only hold three kinds
        f"cannot export instrument kind {instrument.kind!r}"
    )


def _otlp_envelope(metrics: List[Dict], resource: Dict[str, str]) -> Dict:
    return {
        "resourceMetrics": [
            {
                "resource": {
                    "attributes": [
                        {"key": key, "value": {"stringValue": str(value)}}
                        for key, value in sorted(resource.items())
                    ]
                },
                "scopeMetrics": [
                    {"scope": dict(_OTLP_SCOPE), "metrics": metrics}
                ],
            }
        ]
    }


def otlp_metrics_dict(
    registry: MetricsRegistry,
    time_s: float = 0.0,
    resource: Optional[Dict[str, str]] = None,
) -> Dict:
    """The registry as one OTLP ``ExportMetricsServiceRequest`` document.

    ``time_s`` is the caller's *simulated* instant — ``timeUnixNano``
    derives from it (never from a wall clock), so two identical seeded
    runs export byte-identical documents.
    """
    if resource is None:
        resource = {"service.name": "pr-esp-repro"}
    stamp = int(round(float(time_s) * 1e9))
    metrics = [
        _otlp_metric(instrument, stamp) for instrument in registry.instruments()
    ]
    return _otlp_envelope(metrics, resource)


def otlp_metrics_lines(
    registry: MetricsRegistry,
    time_s: float = 0.0,
    resource: Optional[Dict[str, str]] = None,
) -> List[str]:
    """One JSON envelope per instrument — the JSONL rows.

    Each line is a complete, self-describing OTLP document (the shape
    the OpenTelemetry file exporter emits), so consumers can stream or
    ``jq`` one family at a time.
    """
    if resource is None:
        resource = {"service.name": "pr-esp-repro"}
    stamp = int(round(float(time_s) * 1e9))
    return [
        json.dumps(
            _otlp_envelope([_otlp_metric(instrument, stamp)], resource),
            sort_keys=True,
        )
        for instrument in registry.instruments()
    ]


def write_otlp_jsonl(
    path: str,
    registry: MetricsRegistry,
    time_s: float = 0.0,
    resource: Optional[Dict[str, str]] = None,
) -> None:
    """Write the OTLP JSONL metrics log to ``path``."""
    lines = otlp_metrics_lines(registry, time_s=time_s, resource=resource)
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
