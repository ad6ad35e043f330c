"""Content-addressed caching of :class:`~repro.flow.dpr_flow.FlowResult`.

The table benches and the characterization sweeps rebuild the same SoC
configurations dozens of times per run; a ``DprFlow.build()`` is pure
(same config + model + options -> same result), so its output can be
memoized under a stable digest of everything the flow reads:

* the full SoC description — tile kinds, names, CPU cores, and the
  complete resource vectors of every accelerator mode (``to_dict()``
  alone is not enough: two synthetic characterization designs can share
  mode *names* while differing in LUTs);
* the runtime model — every curve's ``(c, a, p)`` plus the
  reconfigurable-LUT weight;
* the flow options — instance cap, bitstream compression, floorplan
  utilization target;
* the request — strategy override and ``semi_tau``.

Keying is conservative: a request that overrides the strategy to what
the size-driven algorithm would have chosen anyway digests differently
from the no-override request, so a miss can never alias two requests
that *might* diverge.

The request half of a key changes per call, but the config half and
the flow half rarely do: each is rendered to canonical JSON once and
memoized, and the digest is taken over the composed document (sorted
JSON objects compose member by member, so the bytes are exactly those
of one ``json.dumps`` over the whole payload).

The cache itself is two-tiered. The in-memory tier is a bounded LRU of
*pickled* results — ``get`` deserializes a private copy per call, so a
caller mutating a served result can never poison later hits. The
exceptions are the deeply immutable parts — the
:class:`~repro.soc.partition.DesignPartition` (config and RTL tree
included), pblocks, resource vectors and bitstreams: the memory tier
keeps one live object of each per entry and every hit shares it
instead of unpickling a copy. The optional on-disk tier
(``~/.cache/repro-flow/`` or a caller-supplied directory) holds full
pickles and persists entries across processes; disk hits are promoted
into memory. Hit/miss/eviction counters land in the registry of the
:class:`~repro.obs.instrumentation.Instrumentation` probe when it
carries one.
"""

from __future__ import annotations

import enum
import hashlib
import io
import json
import os
import pickle
import threading
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.errors import FlowError
from repro.fabric.pblock import Pblock
from repro.fabric.resources import ResourceVector
from repro.floorplan.flora import RegionAssignment
from repro.flow.checkpoint import atomic_write
from repro.obs.instrumentation import OFF, Instrumentation
from repro.obs.logconfig import get_logger
from repro.soc.config import SocConfig
from repro.soc.partition import DesignPartition
from repro.soc.tiles import ReconfigurableTile, TileKind
from repro.vivado.bitstream import Bitstream
from repro.vivado.runtime_model import RuntimeModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import ImplementationStrategy
    from repro.flow.dpr_flow import DprFlow, FlowResult

logger = get_logger("flow.cache")

#: Bump when the digest layout or the pickled payload schema changes;
#: old on-disk entries then simply stop matching.
CACHE_SCHEMA_VERSION = 2


def default_disk_dir() -> Path:
    """``$XDG_CACHE_HOME/repro-flow`` (``~/.cache/repro-flow`` fallback)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if base else Path("~/.cache").expanduser()
    return root / "repro-flow"


# ----------------------------------------------------------------------
# key derivation
# ----------------------------------------------------------------------
def _ip_fingerprint(ip) -> Dict:
    resources = ip.resources
    return {
        "name": ip.name,
        "hls_flow": ip.hls_flow.value,
        "resources": [resources.lut, resources.ff, resources.bram, resources.dsp],
        "throughput_factor": ip.throughput_factor,
        "dynamic_power_w": ip.dynamic_power_w,
    }


def _tile_fingerprint(tile) -> Dict:
    entry: Dict = {"kind": tile.kind.value, "name": tile.name}
    if tile.kind is TileKind.CPU:
        entry["cpu_core"] = tile.cpu_core.value
    if tile.accelerator is not None:
        entry["accelerator"] = _ip_fingerprint(tile.accelerator)
    if isinstance(tile, ReconfigurableTile):
        entry["modes"] = [_ip_fingerprint(ip) for ip in tile.modes]
        entry["host_cpu"] = tile.host_cpu
        entry["hosted_cpu_core"] = tile.hosted_cpu_core.value
    return entry


def config_fingerprint(config: SocConfig) -> Dict:
    """Full-fidelity JSON form of a config (unlike ``to_dict``, carries
    every accelerator's resource vector, not just its catalog name)."""
    return {
        "name": config.name,
        "board": config.board,
        "rows": config.rows,
        "cols": config.cols,
        "tiles": [_tile_fingerprint(tile) for tile in config.tiles],
    }


def model_fingerprint(model: RuntimeModel) -> Dict:
    """The runtime model's curves and weights, JSON-canonical."""
    return {
        "curves": {
            kind.value: [curve.c, curve.a, curve.p]
            for kind, curve in sorted(model.curves.items(), key=lambda kv: kv[0].value)
        },
        "reconf_weight": model.reconf_weight,
    }


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: id(config) -> (config, JSON). A SocConfig is deeply frozen, so its
#: rendering never changes; the held reference keeps the id unique.
_CONFIG_JSON: Dict[int, Tuple[SocConfig, str]] = {}


def _config_json(config: SocConfig) -> str:
    entry = _CONFIG_JSON.get(id(config))
    if entry is None:
        if len(_CONFIG_JSON) >= 256:
            _CONFIG_JSON.clear()
        entry = (config, _canonical(config_fingerprint(config)))
        _CONFIG_JSON[id(config)] = entry
    return entry[1]


def _flow_inputs(flow: "DprFlow") -> Tuple:
    """What the flow half of a key reads; cheap to compare by identity
    (the model's curves and the retry policy are frozen)."""
    model = flow.model
    return (
        model,
        tuple(model.curves.items()),
        model.reconf_weight,
        flow.max_instances,
        flow.compress_bitstreams,
        flow.floorplan_utilization,
        flow.faults.fingerprint(),
        flow.retry,
    )


#: flow -> (inputs, member JSON): recomputed only when an input changes
#: (e.g. a fault injection armed after the flow's first build).
_FLOW_MEMBERS: "weakref.WeakKeyDictionary[DprFlow, Tuple[Tuple, Dict[str, str]]]" = (
    weakref.WeakKeyDictionary()
)


def _flow_members(flow: "DprFlow") -> Dict[str, str]:
    inputs = _flow_inputs(flow)
    memo = _FLOW_MEMBERS.get(flow)
    if memo is not None and memo[0] == inputs:
        return memo[1]
    members = {
        "version": str(CACHE_SCHEMA_VERSION),
        "model": _canonical(model_fingerprint(flow.model)),
        "options": _canonical(
            {
                "max_instances": flow.max_instances,
                "compress_bitstreams": flow.compress_bitstreams,
                "floorplan_utilization": flow.floorplan_utilization,
            }
        ),
        # Fault model and retry policy change retry timelines, burned
        # minutes, and possibly which tiles survive — a degraded build
        # must never alias the clean one.
        "faults": _canonical(flow.faults.fingerprint()),
        "retry": _canonical(
            {
                "max_attempts": flow.retry.max_attempts,
                "backoff_minutes": flow.retry.backoff_minutes,
                "factor": flow.retry.factor,
                "cap_minutes": flow.retry.cap_minutes,
                "jitter": flow.retry.jitter,
            }
        ),
    }
    _FLOW_MEMBERS[flow] = (inputs, members)
    return members


def flow_cache_key(
    flow: "DprFlow",
    config: SocConfig,
    strategy_override: Optional["ImplementationStrategy"] = None,
    semi_tau: int = 2,
) -> str:
    """SHA-256 digest of everything a ``flow.build()`` call reads."""
    members = {
        **_flow_members(flow),
        "config": _config_json(config),
        "request": _canonical(
            {
                "strategy_override": (
                    None if strategy_override is None else strategy_override.value
                ),
                "semi_tau": semi_tau,
            }
        ),
    }
    # Member names are plain identifiers: json.dumps(name) == f'"{name}"'.
    canonical = (
        "{" + ",".join(f'"{name}":{members[name]}' for name in sorted(members)) + "}"
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
#: Deeply immutable types (frozen dataclasses over immutable fields).
#: The memory tier keeps one live instance of each per entry and every
#: hit shares it; everything else a result holds is unpickled afresh.
#: Enum members are shared too: they are singletons, and unpickling one
#: by value goes through ``EnumType.__call__`` in Python.
_SHARED_TYPES = frozenset(
    {DesignPartition, SocConfig, RegionAssignment, Pblock, ResourceVector, Bitstream}
)

#: A memory-tier entry: the result pickled with its shared objects left
#: out as persistent references, plus those objects.
_Entry = Tuple[bytes, Tuple[object, ...]]


def _dumps_sharing(result: "FlowResult") -> _Entry:
    shared: List[object] = []
    index: Dict[int, int] = {}

    def persistent_id(obj: object) -> Optional[int]:
        if type(obj) not in _SHARED_TYPES and not isinstance(obj, enum.Enum):
            return None
        if id(obj) not in index:
            index[id(obj)] = len(shared)
            shared.append(obj)
        return index[id(obj)]

    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = persistent_id
    pickler.dump(result)
    return buffer.getvalue(), tuple(shared)


#: (module, name) -> the class or function a pickle names.
_GLOBALS: Dict[Tuple[str, str], object] = {}


class _Unpickler(pickle.Unpickler):
    """Resolves each global a payload names once per process: the
    default resolution goes through the import system on every load,
    ~20 times per hit."""

    def find_class(self, module: str, name: str) -> object:
        found = _GLOBALS.get((module, name))
        if found is None:
            found = _GLOBALS[module, name] = super().find_class(module, name)
        return found


def _loads_sharing(entry: _Entry) -> "FlowResult":
    payload, shared = entry
    unpickler = _Unpickler(io.BytesIO(payload))
    unpickler.persistent_load = shared.__getitem__
    return unpickler.load()


class FlowCache:
    """Two-tier (memory LRU + optional disk) store of flow results.

    ``max_entries`` bounds the memory tier; ``disk_dir`` enables the
    persistent tier (``default_disk_dir()`` when passed ``True``).
    ``instrumentation`` receives the counters::

        flow_cache_requests_total
        flow_cache_hits_total{tier=memory|disk}
        flow_cache_misses_total
        flow_cache_evictions_total
        flow_cache_disk_errors_total
    """

    def __init__(
        self,
        max_entries: int = 256,
        disk_dir: Union[None, bool, str, Path] = None,
        instrumentation: Instrumentation = OFF,
    ) -> None:
        if max_entries <= 0:
            raise FlowError(f"cache needs at least one entry, got {max_entries}")
        self.max_entries = max_entries
        if disk_dir is True:
            disk_dir = default_disk_dir()
        elif disk_dir is False:
            disk_dir = None
        self.disk_dir: Optional[Path] = Path(disk_dir) if disk_dir else None
        self._memory: "OrderedDict[str, _Entry]" = OrderedDict()
        # The service daemon's worker threads share one cache; the lock
        # keeps the LRU bookkeeping (move_to_end/popitem) and the stat
        # mirrors coherent under concurrent get/put.
        self._lock = threading.RLock()
        self._requests = instrumentation.counter(
            "flow_cache_requests_total", "flow-cache lookups"
        )
        self._hits = instrumentation.counter(
            "flow_cache_hits_total", "flow-cache hits per tier"
        )
        self._misses = instrumentation.counter(
            "flow_cache_misses_total", "flow-cache misses"
        )
        self._evictions = instrumentation.counter(
            "flow_cache_evictions_total", "memory-tier LRU evictions"
        )
        self._disk_errors = instrumentation.counter(
            "flow_cache_disk_errors_total", "unreadable/unwritable disk entries"
        )
        # Plain integers mirror the counters so ``stats()`` works with
        # metrics off too.
        self._stat = {
            "requests": 0,
            "hits_memory": 0,
            "hits_disk": 0,
            "misses": 0,
            "evictions": 0,
            "disk_errors": 0,
        }

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus the current memory-tier size."""
        with self._lock:
            return {**self._stat, "entries": len(self._memory)}

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and the disk tier when ``disk``)."""
        with self._lock:
            self._memory.clear()
        if disk and self.disk_dir is not None and self.disk_dir.is_dir():
            for entry in self.disk_dir.glob("*.pkl"):
                try:
                    entry.unlink()
                except OSError:
                    self._count_disk_error()

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional["FlowResult"]:
        """The cached result for ``key``, or None.

        Every hit deserializes a fresh copy, so callers own what they
        receive; only the immutable parts are shared.
        """
        self._requests.inc()
        with self._lock:
            self._stat["requests"] += 1
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self._hits.inc(tier="memory")
                self._stat["hits_memory"] += 1
                return _loads_sharing(entry)
        # Disk I/O happens outside the lock — only the promotion into
        # the memory tier re-enters it.
        payload = self._disk_read(key)
        if payload is not None:
            try:
                result = pickle.loads(payload)
            except Exception:
                self._count_disk_error()
                self._disk_evict(key)
            else:
                self._memory_store(key, _dumps_sharing(result))
                self._hits.inc(tier="disk")
                with self._lock:
                    self._stat["hits_disk"] += 1
                return result
        self._misses.inc()
        with self._lock:
            self._stat["misses"] += 1
        return None

    def put(self, key: str, result: "FlowResult") -> None:
        """Store ``result`` in both tiers."""
        self._memory_store(key, _dumps_sharing(result))
        if self.disk_dir is not None:
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            self._disk_write(key, payload)

    # ------------------------------------------------------------------
    # memory tier
    # ------------------------------------------------------------------
    def _memory_store(self, key: str, entry: _Entry) -> None:
        with self._lock:
            self._memory[key] = entry
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_entries:
                evicted, _ = self._memory.popitem(last=False)
                self._evictions.inc()
                self._stat["evictions"] += 1
                logger.debug("evicted flow-cache entry %s", evicted[:12])

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / f"{key}.pkl"

    def _count_disk_error(self) -> None:
        self._disk_errors.inc()
        with self._lock:
            self._stat["disk_errors"] += 1

    def _disk_read(self, key: str) -> Optional[bytes]:
        if self.disk_dir is None:
            return None
        path = self._disk_path(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self._count_disk_error()
            return None

    def _disk_write(self, key: str, payload: bytes) -> None:
        """Publish one entry through :func:`~repro.flow.checkpoint.
        atomic_write`: concurrent writers of one key (service worker
        threads, or two daemon processes sharing a disk dir) each rename
        a whole tmp file of their own. Both serialize the identical
        pickled payload for a given content digest, so whichever rename
        lands last is equally correct."""
        if self.disk_dir is None:
            return
        try:
            atomic_write(self._disk_path(key), payload)
        except OSError:
            self._count_disk_error()

    def _disk_evict(self, key: str) -> None:
        if self.disk_dir is None:
            return
        try:
            self._disk_path(key).unlink()
        except OSError:
            pass
