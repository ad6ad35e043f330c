"""Stage-level checkpointing of ``DprFlow.build()``.

A killed build — machine reboot, scheduler preemption, ctrl-C — should
not lose hours of modelled CAD time. The flow's stage runner persists
each completed flow stage, and its tool-job runner each completed tool
job inside the long stages, to a directory:

* ``manifest.json`` — ``{"version", "key", "stages": [...]}``: the
  schema version, the build key (the same content digest the
  :class:`~repro.flow.cache.FlowCache` uses) and one ``{"stage",
  "file", "wall_minutes", "detail"}`` record per completed stage, in
  flow order.
* ``<stage>.pkl`` — the stage's pickled outputs (netlists, floorplan,
  bitstreams...), exactly what downstream stages consume.
* ``jobs/<job>.pkl`` — sub-stage granularity: individual OoC synthesis
  runs and implementation runs, so a build killed *inside* the
  synthesis or implementation stage resumes mid-stage instead of
  repeating every sibling job.

Resume is content-keyed: the manifest vouches for every file in the
directory. A manifest that is missing, unreadable, or written under
another key or schema version means the directory belongs to some
other build (or to none), so the checkpointer clears it, job files
included, exactly as a non-resume build does: ``repro build --resume``
only restores work of the same (config, model, options, request,
fault/retry policy) digest. Writes are atomic (a writer-unique tmp
file, then a rename; see :func:`atomic_write`), and
the manifest is rewritten after every stage so the directory is always
consistent with *some* prefix of the build.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pickle
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.errors import FlowError
from repro.obs.logconfig import get_logger

logger = get_logger("flow.checkpoint")

#: Bump when the manifest layout or the payload schema changes; stale
#: checkpoints then stop matching instead of being mis-read.
CHECKPOINT_SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"

#: Per-process tmp-file counter of :func:`atomic_write`.
_TMP_IDS = itertools.count()


def atomic_write(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` through a writer-unique tmp file and
    one atomic rename (the parent directory is made if missing).

    Two writers of one path (threads, or processes sharing a directory)
    must not share a tmp name: one could truncate it while the other's
    rename was in flight, publishing a torn file. Naming the tmp file
    per writer (pid and a per-process counter) makes every rename
    publish one whole file. A failed write removes its tmp file and
    re-raises.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_TMP_IDS)}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


class FlowCheckpointer:
    """Reads and writes one build's checkpoint directory.

    ``key`` is the build's content digest; a directory without a
    manifest of that key and schema version is cleared on open. All
    writes are atomic and crash-consistent: payloads land before the
    manifest references them.
    """

    def __init__(self, directory: Union[str, Path], key: str) -> None:
        if not key:
            raise FlowError("checkpointer needs a non-empty build key")
        self.directory = Path(directory)
        self.key = key
        #: Manifest records of the completed stages, by stage name.
        self._stages: Dict[str, Dict] = {}
        self._load_manifest()

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def _load_manifest(self) -> None:
        try:
            raw = json.loads(self._manifest_path().read_text())
        except (OSError, ValueError):
            raw = None
        if (
            not isinstance(raw, dict)
            or raw.get("version") != CHECKPOINT_SCHEMA_VERSION
            or raw.get("key") != self.key
        ):
            # Without a manifest of this build nothing in the directory
            # can be trusted, job files included.
            if raw is not None:
                logger.info(
                    "checkpoint at %s belongs to a different build; clearing",
                    self.directory,
                )
            self.clear()
            return
        self._stages = {entry["stage"]: entry for entry in raw.get("stages", [])}

    def _write_manifest(self) -> None:
        payload = {
            "version": CHECKPOINT_SCHEMA_VERSION,
            "key": self.key,
            "stages": list(self._stages.values()),
        }
        atomic_write(
            self._manifest_path(), json.dumps(payload, indent=2).encode("utf-8")
        )

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def save_stage(
        self, stage: str, payload: object, wall_minutes: float, detail: str
    ) -> None:
        """Persist one completed stage (payload first, then manifest)."""
        file_name = f"{stage}.pkl"
        atomic_write(
            self.directory / file_name,
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )
        self._stages[stage] = {
            "stage": stage,
            "file": file_name,
            "wall_minutes": wall_minutes,
            "detail": detail,
        }
        self._write_manifest()
        logger.debug("checkpointed stage %s (%s)", stage, detail)

    def load_stage(self, stage: str) -> Optional[Tuple[object, float, str]]:
        """(payload, wall_minutes, detail) of a completed stage, or None.

        A referenced-but-unreadable payload raises ``FlowError`` — a
        torn checkpoint should fail loudly, not resume wrongly.
        """
        record = self._stages.get(stage)
        if record is None:
            return None
        try:
            payload = pickle.loads((self.directory / record["file"]).read_bytes())
        except (OSError, pickle.UnpicklingError, EOFError) as error:
            raise FlowError(
                f"checkpointed stage {stage!r} is unreadable ({error}); "
                "delete the checkpoint directory and rebuild"
            ) from error
        return payload, float(record["wall_minutes"]), record["detail"]

    # ------------------------------------------------------------------
    # sub-stage jobs (OoC syntheses, implementation runs)
    # ------------------------------------------------------------------
    def _job_path(self, job_name: str) -> Path:
        return self.directory / "jobs" / f"{job_name}.pkl"

    def save_job(self, job_name: str, payload: object) -> None:
        """Persist one completed tool job inside a running stage."""
        atomic_write(
            self._job_path(job_name),
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def load_job(self, job_name: str) -> Optional[object]:
        """The job's payload, or None when absent/unreadable.

        Job payloads are an optimization (skip re-running a completed
        sibling); a torn job file falls back to recomputation, unlike a
        torn stage payload.
        """
        path = self._job_path(job_name)
        try:
            return pickle.loads(path.read_bytes())
        except (OSError, pickle.UnpicklingError, EOFError):
            return None

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Forget and delete everything recorded for this build."""
        self._stages.clear()
        for path in (*self.directory.glob("*.pkl"), *self.directory.glob("jobs/*.pkl")):
            path.unlink(missing_ok=True)
        self._manifest_path().unlink(missing_ok=True)
