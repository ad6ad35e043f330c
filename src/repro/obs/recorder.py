"""One record stream, two exporters: the Chrome trace and the fold.

The flow's stages elapse in *modelled CAD minutes* and the runtime
manager's protocol in *simulated seconds*, so each :class:`Record`
carries the clock its bounds are on (:data:`CAD_MIN` or :data:`DES_S`,
see :data:`CLOCKS`), named by the layer that stamps it; the recorder
holds no clock and no unit, and never reads a wall clock for a record.
It observes:

* **records** — one :class:`Record` per observed fact: name,
  category, ``"process/thread"`` track, parent, start/end on its clock
  and attributes. A record without a track has no place on a timeline
  (a lock taken with no wait, a resumed stage) and reaches the fold
  only;
* **frames** — host-clocked call-stack entries (``deploy.soc_x`` →
  ``dispatch:Timeout`` → ``Process._resume``).

Two exporters read the stream. With ``trace`` on, the records on a
track are kept in :attr:`Recorder.spans` for the Chrome trace-event
export (:mod:`repro.obs.export`). With ``profile`` on, the fold runs
online into a call-path tree of :class:`ProfileNode` (exported by
:mod:`repro.obs.profiler`), so no per-DES-event record is kept: a
frame counts one call of its name under the innermost frame, charged
its host *self* time (the self times sum exactly to the root's
inclusive time); a record counts one untimed call, charged its
simulated seconds (``sim_s``, by default its length), at an explicit
``path`` under the innermost frame (``Recorder._fold``) or nowhere, and
:meth:`Recorder.tally` counts a call at a path under the root.

A pool worker ships its recording as one :meth:`Recorder.payload`; the
parent replays it with one :meth:`Recorder.merge`. With a
:class:`~repro.obs.context.TelemetryContext` active, every kept record
carries its ``request_id`` and every folded node notes it; with the
recorder off (the probe's ``recorder=None``) no record is allocated.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import PrEspError
from repro.obs.context import current_request_id


class RecordingError(PrEspError):
    """Misuse of the recorder (unbalanced frames, bad interval or clock)."""


#: Default track for records made without an explicit one.
DEFAULT_TRACK = "main/main"

#: The flow's clock: modelled CAD minutes.
CAD_MIN = "cad_min"
#: The deployment's clock: simulated DES seconds.
DES_S = "des_s"
#: Microseconds per tick of each clock a record can be on.
CLOCKS = {CAD_MIN: 60e6, DES_S: 1e6}


@dataclass(eq=False, slots=True)
class Record:
    """One observed interval (or instant) on its ``clock``."""

    name: str
    category: str
    track: Optional[str]
    clock: str
    start: float
    end: float
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: Position in the Chrome export (None unless the trace keeps it).
    span_id: Optional[int] = None
    #: Zero-duration marker, exported as a Chrome "instant" event.
    instant: bool = False
    #: Simulated seconds the fold charges (None: the record's length).
    sim_s: Optional[float] = None
    #: Fold path under the innermost frame (None: a cancelled event folds
    #: at its name, any other record nowhere).
    path: Optional[Tuple[str, ...]] = None

    @property
    def duration(self) -> float:
        """Length in ticks of the record's clock."""
        return self.end - self.start


class ProfileNode:
    """One call path of the fold: self-time accumulators plus children."""

    __slots__ = ("name", "calls", "host_s", "sim_s", "children", "workers", "requests")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.host_s = 0.0
        self.sim_s = 0.0
        self.children: Dict[str, "ProfileNode"] = {}
        # Non-canonical annotations (stripped by canonical_tree): the
        # pool workers and the request IDs that touched this path.
        self.workers: set = set()
        self.requests: set = set()

    def child(self, name: str) -> "ProfileNode":
        """The named child, created on first use."""
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = ProfileNode(name)
        return node

    def document(self) -> Dict:
        """This subtree as a profile document node (inclusive times derived)."""
        children = [self.children[name].document() for name in sorted(self.children)]
        out: Dict = {
            "name": self.name,
            "calls": self.calls,
            "self_host_s": self.host_s,
            "self_sim_s": self.sim_s,
            "host_s": self.host_s + sum(c["host_s"] for c in children),
            "sim_s": self.sim_s + sum(c["sim_s"] for c in children),
        }
        if self.workers:
            out["workers"] = sorted(self.workers)
        if self.requests:
            out["requests"] = sorted(self.requests)
        if children:
            out["children"] = children
        return out

    def merge(self, document: Dict) -> None:
        """Add a :meth:`document` subtree into this one."""
        self.calls += int(document.get("calls", 0))
        self.host_s += float(document.get("self_host_s", 0.0))
        self.sim_s += float(document.get("self_sim_s", 0.0))
        self.workers.update(document.get("workers", ()))
        self.requests.update(document.get("requests", ()))
        for child in document.get("children", ()):
            self.child(str(child["name"])).merge(child)


class Recorder:
    """The one recorder: records kept for the trace, records and frames folded.

    ``trace`` keeps records; ``profile`` runs the fold, timing frames
    on ``host_clock`` (``time.perf_counter`` by default).
    """

    def __init__(
        self,
        trace: bool = True,
        profile: bool = True,
        host_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if not (trace or profile):
            raise RecordingError("a recorder records a trace, a profile or both")
        self.trace = trace
        self.profile = profile
        self._host = host_clock if host_clock is not None else time.perf_counter
        #: The records the Chrome export reads (kept only with ``trace``).
        self.spans: List[Record] = []
        self.root = ProfileNode("root")
        # Frame entries are [node, host_start, child_host]; the root
        # entry never pops, so enter/exit always have a parent.
        self._frames: List[List] = [[self.root, 0.0, 0.0]]

    # ------------------------------------------------------------------
    # records
    # ------------------------------------------------------------------
    def _keep(self, record: Record) -> Record:
        """Keep a record for the trace (when on and the record has a track)."""
        if self.trace and record.track is not None:
            request_id = current_request_id()
            if request_id is not None and "request_id" not in record.attrs:
                record.attrs = {**record.attrs, "request_id": request_id}
            record.span_id = len(self.spans)
            self.spans.append(record)
        return record

    def record(
        self,
        name: str,
        start: float,
        end: float,
        clock: str,
        category: str = "",
        track: Optional[str] = DEFAULT_TRACK,
        parent: Optional[Record] = None,
        sim_s: Optional[float] = None,
        path: Optional[Sequence[str]] = None,
        instant: bool = False,
        **attrs,
    ) -> Record:
        """Record ``[start, end]`` on ``clock`` (:data:`CAD_MIN` or :data:`DES_S`).

        ``track=None`` keeps it out of the trace; ``path`` names where
        the fold counts it (see :meth:`_fold`); ``instant`` marks a
        zero-duration point.
        """
        if end < start:
            raise RecordingError(f"record {name!r}: end {end} before start {start}")
        if clock not in CLOCKS:
            raise RecordingError(f"record {name!r}: unknown clock {clock!r}")
        record = Record(
            name,
            category,
            track,
            clock,
            start,
            end,
            parent.span_id if parent is not None else None,
            attrs,
            None,
            instant,
            sim_s,
            tuple(path) if path is not None else None,
        )
        self._keep(record)
        if self.profile:
            self._fold(record)
        return record

    # ------------------------------------------------------------------
    # the fold
    # ------------------------------------------------------------------
    def _fold(self, record: Record) -> None:
        """Count a record once, at the one path the rule gives it.

        An explicit ``path`` and a cancelled DES event (``cancelled:<Type>``)
        resolve under the innermost frame; any other record is kept for
        the trace only.
        """
        sim_s = record.end - record.start if record.sim_s is None else record.sim_s
        if sim_s < 0:
            raise RecordingError(f"negative simulated time: {sim_s}")
        path = record.path
        if path is None:
            if record.category != "kernel.cancelled":
                return
            path = (record.name,)
        node = self._frames[-1][0]
        for name in path:
            node = node.child(name)
        self._charge(node, sim_s)

    def tally(self, path: Tuple[str, ...], sim_s: float) -> None:
        """Count one call at ``path`` under the root, charged ``sim_s``
        (the runtime's steps: their simulated time spans DES callbacks,
        so it belongs to no host frame)."""
        if sim_s < 0:
            raise RecordingError(f"negative simulated time: {sim_s}")
        node = self.root
        for name in path:
            node = node.child(name)
        self._charge(node, sim_s)

    @staticmethod
    def _charge(node: ProfileNode, sim_s: float) -> None:
        node.calls += 1
        node.sim_s += sim_s
        request_id = current_request_id()
        if request_id is not None:
            node.requests.add(request_id)

    @contextlib.contextmanager
    def frame(self, name: str):
        """Time one frame: ``with r.frame("x") as f: f.charge(seconds)``."""
        self.enter(name)
        try:
            yield self
        finally:
            self.exit()

    def charge(self, seconds: float) -> None:
        """Charge simulated/modelled seconds to the innermost frame."""
        if seconds < 0:
            raise RecordingError(f"negative simulated time: {seconds}")
        self._frames[-1][0].sim_s += seconds

    def enter(self, name: str, parent: Optional[ProfileNode] = None) -> None:
        """Open a frame under ``parent`` (default: the innermost frame).

        Its host time is its node's self time and is excluded from the
        innermost frame's, so a frame entered under a :meth:`count`
        node leaves that node no host time. A frame under the innermost
        one notes the active request; one under a counted node (a DES
        callback) is covered by the frame its dispatch runs in.
        """
        if parent is None:
            parent = self._frames[-1][0]
            request_id = current_request_id()
        else:
            request_id = None
        siblings = parent.children
        node = siblings.get(name)
        if node is None:
            node = siblings[name] = ProfileNode(name)
        if request_id is not None:
            node.requests.add(request_id)
        self._frames.append([node, self._host(), 0.0])

    def exit(self) -> None:
        """Close the innermost frame, charging its self time."""
        if len(self._frames) == 1:
            raise RecordingError("exit() without a matching enter()")
        node, start, child_host = self._frames.pop()
        elapsed = self._host() - start
        node.calls += 1
        node.host_s += elapsed - child_host
        self._frames[-1][2] += elapsed

    def count(self, name: str, sim_s: float = 0.0) -> ProfileNode:
        """Count one untimed call of ``name`` under the innermost frame."""
        siblings = self._frames[-1][0].children
        node = siblings.get(name)
        if node is None:
            node = siblings[name] = ProfileNode(name)
        node.calls += 1
        node.sim_s += sim_s
        return node

    # ------------------------------------------------------------------
    # the worker payload
    # ------------------------------------------------------------------
    def payload(self) -> Dict:
        """Everything recorded, picklable: the kept records and the fold."""
        if len(self._frames) > 1:
            raise RecordingError(
                f"cannot export with {len(self._frames) - 1} frame(s) still open"
            )
        return {
            "spans": list(self.spans) if self.trace else None,
            "tree": self.root.document() if self.profile else None,
        }

    def merge(
        self, payload: Dict, at: Sequence[str] = (), tag: Optional[str] = None
    ) -> None:
        """Replay a worker's :meth:`payload` onto this recorder.

        The fold is grafted under ``at`` below the innermost frame, with
        ``tag`` (the worker name) as a non-canonical annotation, so
        ``jobs=1`` and ``jobs=4`` runs fold identically; the records are
        kept in order, links remapped, each stamped ``worker=tag``.
        """
        if payload.get("tree") and self.profile:
            node = self._frames[-1][0]
            for name in at:
                node = node.child(name)
            if tag is not None:
                node.workers.add(str(tag))
            node.merge(payload["tree"])
        if not self.trace:
            return
        ids: Dict[int, int] = {}
        for span in payload.get("spans") or ():
            attrs = dict(span.attrs) if tag is None else {**span.attrs, "worker": tag}
            kept = self._keep(
                dataclasses.replace(
                    span, parent_id=ids.get(span.parent_id), attrs=attrs, span_id=None
                )
            )
            ids[span.span_id] = kept.span_id

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def spans_in(self, category: str) -> List[Record]:
        """Kept records of one category."""
        return [s for s in self.spans if s.category == category]

    def total_duration(self, category: str) -> float:
        """Summed duration of a category's kept records."""
        return sum(s.duration for s in self.spans_in(category))

    def nesting_violations(self) -> List[str]:
        """Parent/child intervals that are not properly nested."""
        by_id = {s.span_id: s for s in self.spans}
        problems: List[str] = []
        for span in self.spans:
            parent = by_id.get(span.parent_id)
            if parent is None:
                continue
            if span.start < parent.start or span.end > parent.end:
                problems.append(
                    f"record {span.name!r} [{span.start}, {span.end}] escapes "
                    f"parent {parent.name!r} [{parent.start}, {parent.end}]"
                )
        return problems
