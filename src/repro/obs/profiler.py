"""The call-path profile: the profile-only recorder and its exporters.

The trace answers "when did this run"; the profile answers "where does
the time go, summed over every call". It is the fold of the record
stream (see :mod:`repro.obs.recorder`): a call-path tree whose nodes
(``deploy.soc_x`` → ``dispatch:Timeout`` → ``Process._resume``) carry
a call count and two time axes:

* **host seconds** — *self* time of the frames on the path, measured
  on an injectable host clock, so the self times of a tree sum exactly
  to the root's inclusive time by construction.
* **simulated seconds** — the modelled time of the layer, attributed
  explicitly: the DES kernel charges each clock advance to the event
  dispatch that caused it, the CAD flow charges modelled minutes (×60)
  to its stage and tool-job frames, the runtime's records their
  simulated length. Host time answers "what is slow to *run*";
  simulated time answers "what is slow in the *modelled system*".

A :class:`Profiler` is the recorder with the trace off. Paths, call
counts and simulated seconds are identical run to run for a seeded
workload; :func:`canonical_tree` strips the host-clock, worker and
request fields so tests can compare trees across runs and across
process pools. The exporters below turn the fold into the JSON
document, the collapsed flamegraph stacks and the per-path self-time
shares ``profile-diff`` gates.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import PrEspError
from repro.obs.recorder import ProfileNode, Recorder


class ProfilerError(PrEspError):
    """A malformed or unreadable profile document."""


#: Path separator of the collapsed-stack export (flamegraph.pl format).
PATH_SEP = ";"

#: Filename prefix of machine-readable profile documents.
PROFILE_PREFIX = "PROFILE_"


class Profiler(Recorder):
    """A recorder that profiles and does not trace."""

    def __init__(self, host_clock: Optional[Callable[[], float]] = None) -> None:
        super().__init__(trace=False, profile=True, host_clock=host_clock)


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def profile_document(profiler: Union[Recorder, Dict], experiment: str = "") -> Dict:
    """The JSON profile document: inclusive and self times per path.

    Accepts a live recorder or its :meth:`~repro.obs.recorder.Recorder.
    payload`. ``host_s``/``sim_s`` on each node are inclusive (own +
    children); ``self_host_s``/``self_sim_s`` are the node's own
    contribution. By construction the self host times of the whole tree
    sum exactly to the root's inclusive host time.
    """
    if isinstance(profiler, Recorder):
        tree = profiler.payload()["tree"]
    else:
        tree = profiler.get("tree", profiler)
    if not tree:
        tree = ProfileNode("root").document()
    return {
        "experiment": experiment,
        "total_host_s": tree["host_s"],
        "total_sim_s": tree["sim_s"],
        "tree": tree,
    }


def _paths(node: Dict, prefix: Tuple[str, ...] = ()) -> Iterator[Tuple[str, Dict]]:
    """``("a;b;c", node)`` for every node below ``node``, depth first."""
    for child in node.get("children", ()):
        path = prefix + (str(child["name"]),)
        yield PATH_SEP.join(path), child
        yield from _paths(child, path)


def self_host_total(document: Dict) -> float:
    """Sum of every node's self host time (the reconciliation check)."""
    tree = document["tree"]
    return float(tree.get("self_host_s", 0.0)) + sum(
        float(node.get("self_host_s", 0.0)) for _, node in _paths(tree)
    )


def self_time_shares(document: Dict) -> Dict[str, float]:
    """path -> host self-time share, flattened from a profile document.

    Paths are ``;``-joined frame names starting below the root; the
    share denominator is the root's inclusive host time (all shares sum
    to 1 on a non-empty profile).
    """
    tree = document.get("tree")
    if tree is None:
        raise ProfilerError("profile document has no tree")
    total = float(tree.get("host_s", 0.0))
    shares: Dict[str, float] = {}
    for key, node in _paths(tree):
        self_host = float(node.get("self_host_s", 0.0))
        if self_host > 0.0 and total > 0.0:
            shares[key] = shares.get(key, 0.0) + self_host / total
    return shares


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
    for key, node in _paths(document["tree"]):
        if weight == "calls":
            value = int(node.get("calls", 0))
        else:
            field = "self_host_s" if weight == "host" else "self_sim_s"
            value = int(round(float(node.get(field, 0.0)) * 1e6))
        if value > 0:
            lines.append(f"{key} {value}")
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
    json_path: Union[str, Path],
    document: Dict,
    collapsed_path: Union[None, str, Path] = None,
) -> Tuple[Path, Path]:
    """Write a profile document and its collapsed stacks.

    The one writer of both forms: ``--profile out.json`` writes
    ``out.json`` + ``out.collapsed``; ``repro profile --out DIR`` passes
    :func:`profile_path` and ``DIR/<experiment>.collapsed``. Returns
    (json_path, collapsed_path).
    """
    json_path = Path(json_path)
    collapsed_path = (
        json_path.with_suffix(".collapsed")
        if collapsed_path is None
        else Path(collapsed_path)
    )
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(profile_json(document) + "\n")
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

