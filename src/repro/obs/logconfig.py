"""Structured logging wiring for the ``repro`` package.

All library output is routed through the stdlib ``logging`` tree
rooted at ``"repro"`` — bare ``print`` calls are reserved for the CLI and
report renderers. The CLI's ``-v``/``--log-level`` flag calls
:func:`configure_logging`; libraries call :func:`get_logger` at import
time and stay silent until a handler is attached.

Every record carries a ``request_id`` field injected by a filter from
the active :class:`~repro.obs.context.TelemetryContext` (``-`` when no
request is active), so log lines from concurrent platform verbs — and
from pool workers, which re-activate the shipped context — are
attributable without touching any call site.
"""

from __future__ import annotations

import logging
import sys

from repro.obs.context import current_request_id

#: Root logger name of the package.
ROOT = "repro"

#: Accepted ``--log-level`` values.
LEVELS = ("debug", "info", "warning", "error")

#: The ``request_id`` stamped on records emitted outside any request.
NO_REQUEST = "-"

#: One-line format: level initial, logger, request, message.
LOG_FORMAT = "%(levelname).1s %(name)s [%(request_id)s]: %(message)s"


class RequestIdFilter(logging.Filter):
    """Stamps the active request ID onto every record.

    Implemented as a filter (not a formatter) so third-party handlers
    attached to the ``repro`` tree see the field too; it never rejects
    a record. An existing ``request_id`` attribute is respected.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        if not hasattr(record, "request_id"):
            record.request_id = current_request_id() or NO_REQUEST
        return True


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` tree (``repro.flow``, ...)."""
    if name == ROOT or name.startswith(ROOT + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT}.{name}")


def level_from_verbosity(verbose: int) -> str:
    """Map ``-v`` counts onto level names (0→warning, 1→info, 2+→debug)."""
    if verbose <= 0:
        return "warning"
    if verbose == 1:
        return "info"
    return "debug"


def configure_logging(
    level: str = "warning", stream=None, force: bool = False
) -> logging.Logger:
    """Attach a stderr handler to the ``repro`` root at ``level``.

    Idempotent: repeated calls adjust the level of the existing
    handler instead of stacking new ones (``force=True`` replaces it).
    """
    if level not in LEVELS:
        raise ValueError(f"unknown log level {level!r}; use one of {LEVELS}")
    root = logging.getLogger(ROOT)
    numeric = getattr(logging, level.upper())
    root.setLevel(numeric)

    existing = [
        h for h in root.handlers if getattr(h, "_repro_handler", False)
    ]
    if existing and not force:
        for handler in existing:
            handler.setLevel(numeric)
        return root
    for handler in existing:
        root.removeHandler(handler)

    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setLevel(numeric)
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    handler.addFilter(RequestIdFilter())
    handler._repro_handler = True
    root.addHandler(handler)
    root.propagate = False
    return root
