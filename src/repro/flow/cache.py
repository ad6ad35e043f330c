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

The cache itself is two-tiered. The in-memory tier is a bounded LRU of
*pickled* results — ``get`` deserializes a private copy per call, so a
caller mutating a served result can never poison later hits. The
optional on-disk tier (``~/.cache/repro-flow/`` or a caller-supplied
directory) persists entries across processes; disk hits are promoted
into memory. Hit/miss/eviction counters land in the
registry of the :class:`~repro.obs.instrumentation.Instrumentation`
probe when it carries one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import threading
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.errors import FlowError
from repro.obs.instrumentation import OFF, Instrumentation
from repro.obs.logconfig import get_logger
from repro.soc.config import SocConfig
from repro.soc.tiles import ReconfigurableTile, TileKind
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


def flow_cache_key(
    flow: "DprFlow",
    config: SocConfig,
    strategy_override: Optional["ImplementationStrategy"] = None,
    semi_tau: int = 2,
) -> str:
    """SHA-256 digest of everything a ``flow.build()`` call reads."""
    payload = {
        "version": CACHE_SCHEMA_VERSION,
        "config": config_fingerprint(config),
        "model": model_fingerprint(flow.model),
        "options": {
            "max_instances": flow.max_instances,
            "compress_bitstreams": flow.compress_bitstreams,
            "floorplan_utilization": flow.floorplan_utilization,
        },
        # Fault model and retry policy change retry timelines, burned
        # minutes, and possibly which tiles survive — a degraded build
        # must never alias the clean one.
        "faults": flow.faults.fingerprint(),
        "retry": {
            "max_attempts": flow.retry.max_attempts,
            "backoff_minutes": flow.retry.backoff_minutes,
            "factor": flow.retry.factor,
            "cap_minutes": flow.retry.cap_minutes,
            "jitter": flow.retry.jitter,
        },
        "request": {
            "strategy_override": (
                None if strategy_override is None else strategy_override.value
            ),
            "semi_tau": semi_tau,
        },
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
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
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        # The service daemon's worker threads share one cache; the lock
        # keeps the LRU bookkeeping (move_to_end/popitem) and the stat
        # mirrors coherent under concurrent get/put. Disk-tier tmp
        # files are named per writer from this counter (itertools.count
        # is GIL-atomic), so two writers never share a tmp path.
        self._lock = threading.RLock()
        self._tmp_ids = itertools.count()
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
        receive.
        """
        self._requests.inc()
        with self._lock:
            self._stat["requests"] += 1
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
                self._hits.inc(tier="memory")
                self._stat["hits_memory"] += 1
                return pickle.loads(payload)
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
                self._memory_store(key, payload)
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
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        self._memory_store(key, payload)
        self._disk_write(key, payload)

    # ------------------------------------------------------------------
    # memory tier
    # ------------------------------------------------------------------
    def _memory_store(self, key: str, payload: bytes) -> None:
        with self._lock:
            self._memory[key] = payload
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
        """Publish one entry via a writer-unique tmp + atomic rename.

        Two concurrent writers of the same key (service worker threads,
        or two daemon processes sharing a disk dir) used to race on one
        shared ``<key>.tmp`` name: writer B could truncate the file
        while writer A's ``os.replace`` was in flight, publishing a
        torn entry. Naming the tmp per writer (pid + per-cache counter)
        makes each rename claim atomic and complete; both writers
        serialize the identical pickled payload for a given content
        digest, so whichever rename lands last is equally correct.
        """
        if self.disk_dir is None:
            return
        final = self._disk_path(key)
        tmp = final.with_name(
            f".{key}.{os.getpid()}.{next(self._tmp_ids)}.tmp"
        )
        try:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(payload)
            os.replace(tmp, final)
        except OSError:
            self._count_disk_error()
            try:
                tmp.unlink()
            except OSError:
                pass

    def _disk_evict(self, key: str) -> None:
        if self.disk_dir is None:
            return
        try:
            self._disk_path(key).unlink()
        except OSError:
            pass
