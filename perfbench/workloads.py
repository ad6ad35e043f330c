"""The benchmark's three workloads.

Each workload turns the seed into a fixed list of inputs (one *pass*)
during set-up. A run repeats whole passes until its time is up, so
every run of a seed measures the same inputs, and two seeds measure
lists with the same mix. An op is one build, one deploy or one service
job; every op's output is kept as canonical JSON and checked after the
timed window.

* ``flow_cold`` — in-process ``repro.api.build`` of generated
  esp_config SoCs and of the Table IV designs, no FlowCache,
  ``jobs=1``, one closed-loop caller. Only the flow layers work.
* ``deploy_fig4`` — in-process ``repro.api.deploy`` of the Fig. 4 SoCs
  with and without power gating, flow results built in set-up. Only
  the deploy path (DES, runtime manager, PRC/NoC, energy) works.
* ``service_mixed`` — a fresh embedded ``BuildService`` per pass,
  driven over HTTP by two closed-loop ``ServiceClient`` threads with a
  mix of FlowCache hits, never-seen generated configs and deploys.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro.api as api
from repro.core.designs import (
    paper_designs,
    resolve_config,
    wami_deployment_socs,
)
from repro.flow.dpr_flow import FlowResult
from repro.flow.options import BuildOptions
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.daemon import BuildService, ServiceConfig
from repro.soc.esp_parser import default_catalog, parse_esp_config

import socgen
from tracing import CURRENT_OP

#: Frames per deploy. Per-frame time, energy and reconfiguration counts
#: do not depend on it, so any count can be checked against Fig. 4.
DEPLOY_FRAMES = 8
SERVICE_DEPLOY_FRAMES = 2

FIG4_SOCS = ("soc_x", "soc_y", "soc_z")
#: The paper designs of Tables IV and V.
TABLE4_SOCS = ("soc_a", "soc_b", "soc_c", "soc_d")

#: Modelled floats must match the committed baselines this closely;
#: they are computed by the same code, so only summation order differs.
REL_TOL = 1e-12


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def load_baseline(root: Path, experiment: str) -> Dict[str, float]:
    path = root / "benchmarks" / "baselines" / f"{experiment}.json"
    document = json.loads(path.read_text(encoding="utf-8"))
    return {name: entry["value"] for name, entry in document["metrics"].items()}


def _close(measured: float, expected: float) -> bool:
    return math.isclose(measured, expected, rel_tol=REL_TOL, abs_tol=0.0)


@dataclass
class PassResult:
    """What one pass measured."""

    wall_s: float
    #: ``(op kind, latency ms)`` of every op that completed.
    latencies: List[Tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    #: Ops that raised, timed out or were refused.
    errors: List[str] = field(default_factory=list)
    #: Daemon observations (service_mixed only).
    daemon: Dict[str, float] = field(default_factory=dict)


class Outputs:
    """The modelled outputs of a run, one per input.

    Keeps the first output of each input key and counts, per key, the
    ops that produced it and the ops whose output differed from it —
    so memory stays bounded by the number of distinct inputs, not by
    how many passes a run makes. Thread-safe (service clients add).
    """

    def __init__(self) -> None:
        self.first: Dict[str, str] = {}
        self.ops: Dict[str, int] = {}
        self.differing: Dict[str, int] = {}
        self._lock = threading.Lock()

    def add(self, key: str, output: str) -> None:
        with self._lock:
            first = self.first.setdefault(key, output)
            self.ops[key] = self.ops.get(key, 0) + 1
            if first != output:
                self.differing[key] = self.differing.get(key, 0) + 1


# ----------------------------------------------------------------------
# flow_cold
# ----------------------------------------------------------------------
class FlowCold:
    """Cold in-process builds of distinct generated SoCs and of the
    Table IV designs."""

    name = "flow_cold"
    service_layers = False
    load = "one closed-loop in-process caller, jobs=1, no FlowCache"
    #: Eight designs per (tile count, board) stratum: 7 x 2 x 8.
    PASS_SIZE = 112

    def __init__(self, seed: int, work_dir: Path, root: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.root = root
        #: Every op's input: a generated config path or a paper design.
        self.inputs: List[str] = []
        self.designs: Dict[str, socgen.Design] = {}
        self.platform = None
        self.outputs = Outputs()

    def setup(self) -> None:
        catalog = sorted(default_catalog())
        designs = socgen.generate(self.seed, self.PASS_SIZE, f"f{self.seed}_", catalog)
        self.designs = {design.name: design for design in designs}
        self.inputs = socgen.write(designs, self.work_dir / "configs")
        self.inputs += list(TABLE4_SOCS)
        self.platform = api.platform(BuildOptions(cache=None, jobs=1))
        # Warm-up on designs outside the list: lazy imports and the
        # per-board device tables load here, not in the first op.
        for design in socgen.generate(self.seed, 7, "warm", catalog):
            api.build(parse_esp_config(design.render()), platform=self.platform)

    def run_pass(self, index: int) -> PassResult:
        result = PassResult(wall_s=0.0)
        for op, spec in enumerate(self.inputs):
            result.attempted += 1
            token = CURRENT_OP.set(f"p{index}-{op}")
            try:
                start = time.perf_counter()
                build = api.build(resolve_config(spec), platform=self.platform)
                elapsed = time.perf_counter() - start
            except Exception as error:  # noqa: BLE001 - a failed op is data
                result.errors.append(f"{Path(spec).name}: {error!r}")
                continue
            finally:
                CURRENT_OP.reset(token)
            result.wall_s += elapsed
            result.latencies.append(("build", elapsed * 1000.0))
            self.outputs.add(Path(spec).stem, canonical(build.flow.to_summary_dict()))
        return result

    def check(self, key: str, output: str) -> Optional[str]:
        summary = json.loads(output)
        if key in TABLE4_SOCS:
            return check_table4(self.root, key, summary) or check_flow_summary(
                key, summary
            )
        return check_generated(self.designs[key], summary)

    def close(self) -> None:
        self.platform = None


def check_flow_summary(key: str, summary: Dict) -> Optional[str]:
    """What every successful build keeps, whatever the design.

    Not degraded; floorplan regions that do not overlap and fill (0, 1]
    of their area; P&R minutes that add up for the chosen strategy.
    """
    floorplan = summary["floorplan"]
    minutes = summary["minutes"]
    if summary["fault_tolerance"]["degraded"]:
        return f"{key}: build degraded"
    if len(floorplan) != summary["metrics"]["num_rps"]:
        return f"{key}: {len(floorplan)} regions for {summary['metrics']['num_rps']} RPs"
    for region in floorplan:
        if not 0.0 < region["utilization"] <= 1.0:
            return f"{key}: region {region['rp']} utilization {region['utilization']}"
    for first, second in itertools.combinations(floorplan, 2):
        if all(
            first[axis][0] <= second[axis][1] and second[axis][0] <= first[axis][1]
            for axis in ("cols", "rows")
        ):
            return f"{key}: regions {first['rp']} and {second['rp']} overlap"
    if not 0.0 < minutes["synthesis"] < minutes["total"] or not math.isclose(
        minutes["total"], minutes["synthesis"] + minutes["par_makespan"], rel_tol=1e-9
    ):
        return f"{key}: minutes do not add up: {minutes}"
    if summary["strategy"] == "serial":
        parallel_terms = (minutes["t_static"], minutes["max_omega"]) != (None, None)
    else:
        parallel_terms = not math.isclose(
            minutes["par_makespan"],
            minutes["t_static"] + minutes["max_omega"],
            rel_tol=1e-9,
        )
    if parallel_terms:
        return f"{key}: {summary['strategy']} P&R terms do not add up: {minutes}"
    return None


def check_generated(design: socgen.Design, summary: Dict) -> Optional[str]:
    """A generated SoC's build against what the generator asked for:
    its board, one region per reconfigurable tile, and one full
    bitstream plus, per tile, one partial per accelerator and a blank."""
    key = design.name
    tiles = {f"rt{index}": modes for index, modes in enumerate(design.tiles)}
    if (summary["soc"], summary["board"]) != (design.name, design.board):
        return f"{key}: built {summary['soc']} on {summary['board']}"
    if sorted(region["rp"] for region in summary["floorplan"]) != sorted(tiles):
        return f"{key}: floorplan regions {[r['rp'] for r in summary['floorplan']]}"
    expected = {("full", None, None)} | {
        ("partial", tile, mode)
        for tile, modes in tiles.items()
        for mode in (*modes, "blank")
    }
    built = [(b["kind"], b["target"], b["mode"]) for b in summary["bitstreams"]]
    if sorted(built, key=str) != sorted(expected, key=str):
        return f"{key}: bitstreams {sorted(built, key=str)}"
    return check_flow_summary(key, summary)


# ----------------------------------------------------------------------
# deploy_fig4
# ----------------------------------------------------------------------
class DeployFig4:
    """In-process WAMI deploys of the Fig. 4 SoCs, gated and not."""

    name = "deploy_fig4"
    service_layers = False
    load = f"one closed-loop in-process caller, {DEPLOY_FRAMES} frames per deploy"
    #: Each (SoC, gating) pair appears this often per pass, in a
    #: seeded order.
    REPEATS = 20

    def __init__(self, seed: int, work_dir: Path, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.ops: List[Tuple[str, bool]] = []
        self.platform = None
        self.flows: Dict[str, FlowResult] = {}
        self.configs = {}
        self.outputs = Outputs()

    def setup(self) -> None:
        self.ops = [
            (soc, gated)
            for soc in FIG4_SOCS
            for gated in (False, True)
        ] * self.REPEATS
        random.Random(f"deploy_fig4:{self.seed}").shuffle(self.ops)
        self.platform = api.platform()
        self.configs = wami_deployment_socs()
        for soc in FIG4_SOCS:
            self.flows[soc] = api.build(
                self.configs[soc], platform=self.platform
            ).flow
            for gated in (False, True):
                self._deploy(soc, gated)  # warm-up

    def _deploy(self, soc: str, gated: bool):
        return api.deploy(
            self.configs[soc],
            frames=DEPLOY_FRAMES,
            flow_result=self.flows[soc],
            power_gating=gated,
            platform=self.platform,
        )

    def run_pass(self, index: int) -> PassResult:
        result = PassResult(wall_s=0.0)
        for op, (soc, gated) in enumerate(self.ops):
            result.attempted += 1
            token = CURRENT_OP.set(f"p{index}-{op}")
            try:
                start = time.perf_counter()
                report = self._deploy(soc, gated)
                elapsed = time.perf_counter() - start
            except Exception as error:  # noqa: BLE001 - a failed op is data
                result.errors.append(f"{soc} gated={gated}: {error!r}")
                continue
            finally:
                CURRENT_OP.reset(token)
            result.wall_s += elapsed
            result.latencies.append(("deploy", elapsed * 1000.0))
            self.outputs.add(
                f"{soc}:{'gated' if gated else 'ungated'}",
                canonical(report.to_summary_dict()),
            )
        return result

    def check(self, key: str, output: str) -> Optional[str]:
        soc, gating = key.split(":")
        summary = json.loads(output)
        if gating == "ungated":
            return check_fig4(self.root, soc, summary)
        ablation = load_baseline(self.root, "ablation_power_gating")
        expected = ablation[f"{soc}_j_per_frame_on"]
        if not _close(summary["joules_per_frame"], expected):
            return f"{key}: {summary['joules_per_frame']!r} J/frame, baseline {expected!r}"
        return None

    def close(self) -> None:
        self.platform = None


def check_fig4(root: Path, soc: str, summary: Dict) -> Optional[str]:
    """Per-frame time, energy and reconfigurations against Fig. 4."""
    fig4 = load_baseline(root, "fig4_wami_runtime")
    measured = {
        "ms_per_frame": summary["seconds_per_frame"] * 1000.0,
        "j_per_frame": summary["joules_per_frame"],
        "reconf_per_frame": summary["reconfigurations"] / summary["frames"],
    }
    for metric, value in measured.items():
        expected = fig4[f"{soc}_{metric}"]
        if not _close(value, expected):
            return f"{soc}: {metric} {value!r}, Fig. 4 baseline {expected!r}"
    return None


def check_table4(root: Path, soc: str, summary: Dict) -> Optional[str]:
    """The chosen strategy and its P&R time against Table IV, the
    total compile time against Table V."""
    table4 = load_baseline(root, "table4_parallelism")
    table5 = load_baseline(root, "table5_vs_monolithic")
    chosen = summary["strategy"].replace("-", "_")
    measured = summary["minutes"]["par_makespan"]
    for metric in (f"{soc}_chosen_total_min", f"{soc}_{chosen}_total_min"):
        if not _close(measured, table4[metric]):
            return f"{soc}: {summary['strategy']} P&R {measured!r}, {metric} {table4[metric]!r}"
    expected = table5[f"{soc}_presp_total_min"]
    if not _close(summary["minutes"]["total"], expected):
        return f"{soc}: total {summary['minutes']['total']!r} min, Table V {expected!r}"
    return None


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------
#: Jobs of each kind per pass. Paper-design builds are FlowCache hits
#: (the cache is warmed in set-up; 110 = each of the 11 designs 10
#: times), generated configs are never-seen misses that run on the warm
#: pool and write checkpoints and cache entries (14 = each board and
#: tile count once), deploys run the flow and the DES in the daemon
#: process (21 = each Fig. 4 SoC 7 times). Hits are three quarters of
#: the jobs, misses a tenth and deploys a seventh, so the overall p50
#: falls inside the hits' latency range and p95 inside the misses', not
#: on the edge between two kinds.
MIX = {"hit": 110, "miss": 14, "deploy": 21}


def spread_evenly(counts: Dict[str, int], rng: random.Random) -> List[str]:
    """Interleave the kinds so each is spread evenly over the pass.

    The j-th of ``c`` jobs of a kind lands at ``(j + u) / c`` for a
    seeded ``u`` in [0, 1): every stretch of the pass carries the mix,
    whatever the seed.
    """
    slots = [
        ((index + rng.random()) / count, kind)
        for kind, count in sorted(counts.items())
        for index in range(count)
    ]
    return [kind for _, kind in sorted(slots)]


class ServiceMixed:
    """Closed-loop HTTP clients against a fresh embedded daemon."""

    name = "service_mixed"
    service_layers = True
    CLIENTS = 2
    #: Status polling interval, well under the fastest job's latency.
    POLL_S = 0.005
    #: Client-side deadline per job: a stalled daemon shows up as
    #: failed ops instead of hanging the benchmark.
    JOB_DEADLINE_S = 10.0
    load = (
        f"{CLIENTS} closed-loop HTTP clients, status polled every "
        f"{POLL_S * 1000:g} ms, {JOB_DEADLINE_S:g} s client deadline per job, "
        f"{SERVICE_DEPLOY_FRAMES} frames per deploy job"
    )

    def __init__(self, seed: int, work_dir: Path, root: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.root = root
        self.ops: List[Tuple[str, str, str]] = []
        self.template = work_dir / "template"
        #: Uncaught exceptions of daemon threads, seen through
        #: ``threading.excepthook``.
        self.crashes: List[str] = []
        self._previous_hook = None
        #: (pass, job ID) -> op key, for the span file.
        self.op_of_job: Dict[Tuple[int, str], str] = {}
        self.designs: Dict[str, socgen.Design] = {}
        #: (job kind, input name) -> in-process summary, computed once.
        self._expected: Dict[Tuple[str, str], str] = {}
        self.outputs = Outputs()

    # ------------------------------------------------------------------
    def setup(self) -> None:
        rng = random.Random(f"service_mixed:{self.seed}")
        designs = socgen.generate(
            self.seed, MIX["miss"], f"s{self.seed}_", sorted(default_catalog())
        )
        self.designs = {design.name: design for design in designs}
        misses = socgen.write(designs, self.work_dir / "configs")
        rng.shuffle(misses)
        builds = sorted(paper_designs())
        decks = {
            "hit": [("build", name) for name in builds] * (MIX["hit"] // len(builds)),
            "miss": [("build", path) for path in misses],
            "deploy": [("deploy", soc) for soc in FIG4_SOCS]
            * (MIX["deploy"] // len(FIG4_SOCS)),
        }
        for deck in decks.values():
            rng.shuffle(deck)
        self.ops = [
            (kind, *decks[kind].pop()) for kind in spread_evenly(MIX, rng)
        ]
        self._previous_hook = threading.excepthook
        threading.excepthook = self._on_thread_exception
        # Warm the FlowCache disk tier that every pass's daemon starts
        # from: each paper design once, through a daemon.
        with BuildService(self._config(self.template)) as service:
            client = ServiceClient(port=service.port)
            for design in builds:
                job = client.submit(design)
                client.wait(job["job_id"], timeout=60.0, poll_s=self.POLL_S)

    def _config(self, state_dir: Path) -> ServiceConfig:
        return ServiceConfig(state_dir=state_dir, port=0, seed=self.seed)

    def _on_thread_exception(self, args) -> None:
        self.crashes.append(f"{args.thread.name if args.thread else '?'}: {args.exc_value!r}")
        self._previous_hook(args)

    # ------------------------------------------------------------------
    def run_pass(self, index: int) -> PassResult:
        state_dir = self.work_dir / f"pass{index}"
        shutil.copytree(self.template / "cache", state_dir / "cache")
        crashes_before = len(self.crashes)
        service = BuildService(self._config(state_dir)).start()
        result = PassResult(wall_s=0.0)
        cursor = iter(range(len(self.ops)))
        lock = threading.Lock()
        stalled = threading.Event()

        def client_loop() -> None:
            client = ServiceClient(port=service.port)
            while True:
                with lock:
                    op = next(cursor, None)
                    if op is not None:
                        result.attempted += 1
                if op is None:
                    return
                label, kind, config = self.ops[op]
                if stalled.is_set():
                    with lock:
                        result.errors.append(f"op {op}: not run, daemon stalled")
                    continue
                self._run_op(client, index, op, label, kind, config, result, lock, stalled)

        threads = [
            threading.Thread(target=client_loop, name=f"bench-client-{n}")
            for n in range(self.CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.wall_s = time.perf_counter() - start
        workers = [
            t for t in threading.enumerate() if t.name.startswith("service-worker-")
        ]
        result.daemon["workers_alive"] = sum(t.is_alive() for t in workers)
        service.stop()
        result.daemon["registry_series"] = len(service.supervisor.registry.snapshot())
        result.daemon["thread_crashes"] = len(self.crashes) - crashes_before
        shutil.rmtree(state_dir, ignore_errors=True)
        return result

    def _run_op(self, client, index, op, label, kind, config, result, lock, stalled):
        token = CURRENT_OP.set(f"p{index}-{op}")
        try:
            start = time.perf_counter()
            job = client.submit(config, kind=kind, frames=SERVICE_DEPLOY_FRAMES)
            with lock:
                self.op_of_job[(index, job["job_id"])] = f"p{index}-{op}"
            record = client.wait(
                job["job_id"], timeout=self.JOB_DEADLINE_S, poll_s=self.POLL_S
            )
            elapsed = time.perf_counter() - start
            answer = client.result(job["job_id"])
        except ServiceUnavailable as error:
            with lock:
                result.errors.append(f"op {op} ({label} {Path(config).name}): {error}")
            if not any(
                t.name.startswith("service-worker-") and t.is_alive()
                for t in threading.enumerate()
            ):
                stalled.set()
            return
        except Exception as error:  # noqa: BLE001 - a refused op is data
            with lock:
                result.errors.append(f"op {op} ({label} {Path(config).name}): {error!r}")
            return
        finally:
            CURRENT_OP.reset(token)
        if record["state"] != "succeeded":
            with lock:
                result.errors.append(f"op {op} ({label}): job {record['state']}")
            return
        if label == "hit" and not answer["cached"]:
            label = "hit-uncached"
        with lock:
            result.latencies.append((label, elapsed * 1000.0))
        self.outputs.add(
            f"{kind}:{Path(config).stem}:{label}", canonical(answer["result"])
        )

    # ------------------------------------------------------------------
    def check(self, key: str, output: str) -> Optional[str]:
        kind, name, label = key.split(":")
        if label == "hit-uncached":
            return f"{key}: a paper design missed the warmed FlowCache"
        if output != self.expected(kind, name):
            return f"{key}: service result differs from the in-process summary"
        summary = json.loads(output)
        if kind == "deploy":
            return check_fig4(self.root, name, summary)
        if name in TABLE4_SOCS:
            return check_table4(self.root, name, summary) or check_flow_summary(
                key, summary
            )
        if label == "miss":
            return check_generated(self.designs[name], summary)
        return check_flow_summary(key, summary)

    def expected(self, kind: str, name: str) -> str:
        """The in-process ``to_summary_dict()`` for the same input."""
        cache = self._expected
        if (kind, name) not in cache:
            spec = name if name in paper_designs() else str(
                self.work_dir / "configs" / f"{name}.esp_config"
            )
            config = resolve_config(spec)
            if kind == "deploy":
                summary = api.deploy(config, frames=SERVICE_DEPLOY_FRAMES).to_summary_dict()
            else:
                summary = api.build(config).flow.to_summary_dict()
            cache[(kind, name)] = canonical(summary)
        return cache[(kind, name)]

    def close(self) -> None:
        if self._previous_hook is not None:
            threading.excepthook = self._previous_hook
            self._previous_hook = None


WORKLOADS: Dict[str, Callable] = {
    FlowCold.name: FlowCold,
    DeployFig4.name: DeployFig4,
    ServiceMixed.name: ServiceMixed,
}
