"""A Prometheus text-format parser: the renderer's round-trip check.

:func:`repro.obs.export.prometheus_text` renders a registry; the tests
re-parse the page here and compare it against the registry snapshot,
so a renderer bug fails loudly. The product never reads the format, so
the parser lives with the tests.
"""

import re
from typing import Dict, Optional

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
