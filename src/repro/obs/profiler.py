"""Deterministic hierarchical call-path profiling.

The tracer answers "when did this span run"; the profiler answers
"where does the time go, summed over every call". It keeps a call-path
tree: each node is one path of frame names (``deploy.soc_x`` →
``dispatch:Timeout`` → ``Process._resume``) accumulating a call count
and two time axes per path:

* **host seconds** — wall time measured on an injectable host clock
  (``time.perf_counter`` by default; tests inject a fake). Frames
  store *self* time — the elapsed interval minus the intervals of the
  frames nested inside it — so the self times of a tree sum exactly to
  the root's inclusive time by construction.
* **simulated seconds** — the modelled time of the layer, attributed
  explicitly (:meth:`Profiler.add_sim`, :meth:`Profiler.record_leaf`):
  the DES kernel charges each clock advance to the event dispatch that
  caused it, the CAD flow charges modelled minutes (×60) to its stage
  and tool-job frames. Host time answers "what is slow to *run*";
  simulated time answers "what is slow in the *modelled system*".

Like every obs layer the profiler is deterministic: paths, call
counts and simulated seconds are identical run to run for a seeded
workload (:func:`canonical_tree` strips the host-clock and worker
fields so tests can compare trees across runs and across process
pools). Profiling is off when a layer's probe carries no profiler;
hot loops test that once and skip even the no-op calls.

Cross-process propagation: a :class:`ProfileCapsule` is pickled into
each ``BatchBuilder`` work item, the worker activates fresh sinks for
the ones live in the parent, and the parent merges the returned
payload back under
the request's path — tagged with the worker id as a non-canonical
annotation — so a pooled sweep produces one coherent profile instead
of per-fork blind spots.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import PrEspError
from repro.obs.context import TelemetryContext, current_request_id


class ProfilerError(PrEspError):
    """Misuse of the profiling API (unbalanced frames, open tree)."""


#: Path separator of the collapsed-stack export (flamegraph.pl format).
PATH_SEP = ";"

#: Filename prefix of machine-readable profile documents.
PROFILE_PREFIX = "PROFILE_"


class ProfileNode:
    """One call path: self-time accumulators plus named children.

    ``host_s`` and ``sim_s`` hold *self* contributions; the inclusive
    values are derived at export time (own + children), which keeps
    merging worker subtrees a plain recursive addition.
    """

    __slots__ = ("name", "calls", "host_s", "sim_s", "children", "workers", "requests")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.host_s = 0.0
        self.sim_s = 0.0
        self.children: Dict[str, "ProfileNode"] = {}
        self.workers: set = set()
        # Request IDs that touched this path — a non-canonical
        # annotation like `workers`: joinable in the JSON export,
        # stripped by canonical_tree (the same seeded workload run
        # under different request IDs keeps an identical tree).
        self.requests: set = set()

    def child(self, name: str) -> "ProfileNode":
        """The named child, created on first use."""
        node = self.children.get(name)
        if node is None:
            node = ProfileNode(name)
            self.children[name] = node
        return node


@dataclass(frozen=True)
class ProfileCapsule:
    """Picklable profiling context carried into pool workers.

    ``path`` is where the parent will graft the worker's subtree;
    ``profile``/``trace``/``events``/``metrics`` say which sinks the
    worker should activate. A disabled capsule (the default) activates
    nothing.
    """

    path: Tuple[str, ...] = ()
    profile: bool = False
    trace: bool = False
    events: bool = False
    metrics: bool = False
    #: The request context the worker re-activates around its build, so
    #: worker-side spans/metrics/log records stay attributable.
    context: Optional[TelemetryContext] = None

    def activate(self) -> Optional["Profiler"]:
        """A fresh worker-side profiler (None when profiling is off)."""
        return Profiler() if self.profile else None


class Profiler:
    """Collects a call-path tree against an injectable host clock."""

    def __init__(self, host_clock: Optional[Callable[[], float]] = None) -> None:
        self._host = host_clock if host_clock is not None else time.perf_counter
        self.root = ProfileNode("root")
        # Stack entries are [node, start, child_host_accumulator]; the
        # root entry never pops, so begin/end always have a parent.
        self._stack: List[List] = [[self.root, 0.0, 0.0]]

    # ------------------------------------------------------------------
    # frames (host-clocked)
    # ------------------------------------------------------------------
    def begin(self, name: str) -> ProfileNode:
        """Open a frame; it nests under the innermost open frame."""
        node = self._stack[-1][0].child(name)
        request_id = current_request_id()
        if request_id is not None:
            node.requests.add(request_id)
        self._stack.append([node, self._host(), 0.0])
        return node

    def end(self) -> None:
        """Close the innermost open frame, charging its self time."""
        if len(self._stack) == 1:
            raise ProfilerError("end() without a matching begin()")
        node, start, child_host = self._stack.pop()
        elapsed = self._host() - start
        node.calls += 1
        node.host_s += elapsed - child_host
        # Charge the full interval to the parent's child accumulator so
        # the parent's self time excludes it.
        self._stack[-1][2] += elapsed

    class _Frame:
        __slots__ = ("_profiler", "_name")

        def __init__(self, profiler, name):
            self._profiler = profiler
            self._name = name

        def __enter__(self) -> ProfileNode:
            return self._profiler.begin(self._name)

        def __exit__(self, exc_type, exc, tb) -> bool:
            self._profiler.end()
            return False

    def frame(self, name: str) -> "_Frame":
        """Context manager: ``with profiler.frame("flow.synthesis"):``."""
        return self._Frame(self, name)

    # ------------------------------------------------------------------
    # simulated/modelled time (explicitly attributed)
    # ------------------------------------------------------------------
    def add_sim(self, seconds: float) -> None:
        """Attribute simulated/modelled seconds to the open frame."""
        if seconds < 0:
            raise ProfilerError(f"negative simulated time: {seconds}")
        self._stack[-1][0].sim_s += seconds

    def record_leaf(
        self,
        path: Union[str, Sequence[str]],
        sim_s: float = 0.0,
        calls: int = 1,
        anchor: str = "current",
    ) -> ProfileNode:
        """Attribute counts/simulated time to a path without host timing.

        ``anchor="current"`` resolves the path under the innermost open
        frame (post-hoc attribution inside the running operation);
        ``anchor="root"`` pins it to the tree root — used for semantic
        views like the runtime recovery ladder, whose events surface
        under arbitrary kernel-callback paths.
        """
        if sim_s < 0:
            raise ProfilerError(f"negative simulated time: {sim_s}")
        if anchor not in ("current", "root"):
            raise ProfilerError(f"unknown anchor {anchor!r}")
        node = self.root if anchor == "root" else self._stack[-1][0]
        names = (path,) if isinstance(path, str) else tuple(path)
        for name in names:
            node = node.child(name)
        node.calls += calls
        node.sim_s += sim_s
        request_id = current_request_id()
        if request_id is not None:
            node.requests.add(request_id)
        return node

    # ------------------------------------------------------------------
    # introspection / export
    # ------------------------------------------------------------------
    @property
    def open_frames(self) -> int:
        """Frames begun but not yet ended."""
        return len(self._stack) - 1

    def current_path(self) -> Tuple[str, ...]:
        """Names of the open frames, outermost first."""
        return tuple(entry[0].name for entry in self._stack[1:])

    def payload(self) -> Dict:
        """The raw (self-time) tree as a picklable dict.

        The wire format of cross-process merging; ``host_s``/``sim_s``
        are *self* values, exactly as accumulated.
        """
        if self.open_frames:
            raise ProfilerError(
                f"cannot export with {self.open_frames} frame(s) still open"
            )
        return _node_payload(self.root)

    def merge_tree(
        self,
        payload: Dict,
        at: Sequence[str] = (),
        tag: Optional[str] = None,
        anchor: str = "current",
    ) -> None:
        """Graft a worker's :meth:`payload` under the path ``at``.

        ``tag`` (typically the worker process name) is recorded on the
        grafted node as a non-canonical annotation: it shows up in the
        JSON export but is stripped by :func:`canonical_tree`, so
        ``jobs=1`` and ``jobs=4`` runs produce identical canonical
        trees.
        """
        if anchor not in ("current", "root"):
            raise ProfilerError(f"unknown anchor {anchor!r}")
        node = self.root if anchor == "root" else self._stack[-1][0]
        for name in at:
            node = node.child(name)
        if tag is not None:
            node.workers.add(str(tag))
        _merge_payload(node, payload)


def _node_payload(node: ProfileNode) -> Dict:
    out: Dict = {
        "name": node.name,
        "calls": node.calls,
        "host_s": node.host_s,
        "sim_s": node.sim_s,
    }
    if node.workers:
        out["workers"] = sorted(node.workers)
    if node.requests:
        out["requests"] = sorted(node.requests)
    if node.children:
        out["children"] = [
            _node_payload(node.children[name]) for name in sorted(node.children)
        ]
    return out


def _merge_payload(node: ProfileNode, payload: Dict) -> None:
    node.calls += int(payload.get("calls", 0))
    node.host_s += float(payload.get("host_s", 0.0))
    node.sim_s += float(payload.get("sim_s", 0.0))
    node.workers.update(payload.get("workers", ()))
    node.requests.update(payload.get("requests", ()))
    for child in payload.get("children", ()):
        _merge_payload(node.child(str(child["name"])), child)


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _document_node(payload: Dict) -> Dict:
    """Raw (self-time) payload node -> document node with derived values."""
    children = [_document_node(child) for child in payload.get("children", ())]
    self_host = float(payload.get("host_s", 0.0))
    self_sim = float(payload.get("sim_s", 0.0))
    out: Dict = {
        "name": str(payload["name"]),
        "calls": int(payload.get("calls", 0)),
        "self_host_s": self_host,
        "self_sim_s": self_sim,
        "host_s": self_host + sum(c["host_s"] for c in children),
        "sim_s": self_sim + sum(c["sim_s"] for c in children),
    }
    if payload.get("workers"):
        out["workers"] = list(payload["workers"])
    if payload.get("requests"):
        out["requests"] = list(payload["requests"])
    if children:
        out["children"] = children
    return out


def profile_document(
    profiler: Union[Profiler, Dict], experiment: str = ""
) -> Dict:
    """The JSON profile document: derived inclusive/self times per path.

    Accepts a live :class:`Profiler` or a raw :meth:`Profiler.payload`
    dict. ``host_s``/``sim_s`` on each node are inclusive (own +
    children); ``self_host_s``/``self_sim_s`` are the node's own
    contribution. By construction the self host times of the whole tree
    sum exactly to the root's inclusive host time.
    """
    payload = profiler.payload() if isinstance(profiler, Profiler) else profiler
    tree = _document_node(payload) if payload else _document_node(
        {"name": "root", "calls": 0, "host_s": 0.0, "sim_s": 0.0}
    )
    return {
        "experiment": experiment,
        "total_host_s": tree["host_s"],
        "total_sim_s": tree["sim_s"],
        "tree": tree,
    }


def self_host_total(document: Dict) -> float:
    """Sum of every node's self host time (the reconciliation check)."""

    def walk(node: Dict) -> float:
        return float(node.get("self_host_s", 0.0)) + sum(
            walk(child) for child in node.get("children", ())
        )

    return walk(document["tree"])


def collapsed_stacks(document: Dict, weight: str = "host") -> List[str]:
    """Collapsed-stack lines (``a;b;c value``) for flamegraph tooling.

    ``weight`` selects the per-path value: ``"host"`` (self host time
    in integer microseconds), ``"sim"`` (self simulated time in
    microseconds) or ``"calls"``. Zero-weight paths are skipped; lines
    come back sorted, so the export is deterministic.
    """
    if weight not in ("host", "sim", "calls"):
        raise ProfilerError(f"unknown collapsed-stack weight {weight!r}")
    lines: List[str] = []

    def walk(node: Dict, prefix: Tuple[str, ...]) -> None:
        path = prefix + (node["name"],)
        if weight == "calls":
            value = int(node.get("calls", 0))
        else:
            key = "self_host_s" if weight == "host" else "self_sim_s"
            value = int(round(float(node.get(key, 0.0)) * 1e6))
        if value > 0:
            lines.append(f"{PATH_SEP.join(path)} {value}")
        for child in node.get("children", ()):
            walk(child, path)

    for child in document["tree"].get("children", ()):
        walk(child, ())
    return sorted(lines)


def canonical_tree(document_or_node: Dict) -> Dict:
    """The deterministic view of a profile: paths, calls, simulated time.

    Strips every host-clock field and the worker tags, so two runs of
    the same seeded workload — serial or pooled — compare equal.
    """
    node = document_or_node.get("tree", document_or_node)
    out: Dict = {
        "name": node["name"],
        "calls": int(node.get("calls", 0)),
        "sim_s": float(node.get("self_sim_s", node.get("sim_s", 0.0))),
    }
    children = node.get("children", ())
    if children:
        out["children"] = [canonical_tree(child) for child in children]
    return out


def profile_json(document: Dict) -> str:
    """Deterministic JSON text of a profile document."""
    return json.dumps(document, indent=2, sort_keys=True)


def profile_path(directory: Union[str, Path], experiment: str) -> Path:
    """``<directory>/PROFILE_<experiment>.json``."""
    return Path(directory) / f"{PROFILE_PREFIX}{experiment}.json"


def write_profile(
    directory: Union[str, Path], experiment: str, profiler: Union[Profiler, Dict]
) -> Tuple[Path, Path]:
    """Write ``PROFILE_<experiment>.json`` + ``<experiment>.collapsed``.

    Returns (json_path, collapsed_path).
    """
    document = (
        profiler
        if isinstance(profiler, dict) and "tree" in profiler
        else profile_document(profiler, experiment)
    )
    json_path = profile_path(directory, experiment)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(profile_json(document) + "\n")
    collapsed_path = json_path.with_name(f"{experiment}.collapsed")
    lines = collapsed_stacks(document)
    collapsed_path.write_text("\n".join(lines) + ("\n" if lines else ""))
    return json_path, collapsed_path


def load_profile(path: Union[str, Path]) -> Dict:
    """Parse one profile document file."""
    path = Path(path)
    try:
        document = json.loads(path.read_text())
        if "tree" not in document:
            raise KeyError("tree")
        return document
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise ProfilerError(f"unreadable profile {path}: {error}") from None


def find_profiles(directory: Union[str, Path]) -> Dict[str, Path]:
    """experiment -> path for every ``PROFILE_*.json`` present."""
    directory = Path(directory)
    if not directory.is_dir():
        return {}
    return {
        path.stem[len(PROFILE_PREFIX):]: path
        for path in sorted(directory.glob(f"{PROFILE_PREFIX}*.json"))
    }
