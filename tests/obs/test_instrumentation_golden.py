"""Golden pin of everything a fully live probe observes.

One ``api.build`` and one two-frame ``api.deploy`` of ``soc_x``, and a
checkpointed ``api.build`` of ``soc_y`` under seeded CAD faults
followed by its resume, each with every sink live, through the public
API only. Three more verbs pin the paths where only part of the
recording is live or nothing runs: the same deploy with a profile-only
and with a trace-only probe (each must observe exactly what the fully
live deploy's matching section holds), and a FlowCache memory-tier hit
of ``soc_x``, which replays the cached build into the probe. The
faulty pair pins the times and order of the retry, failure,
degradation and checkpoint events and the ``resumed`` profile leaves.
A two-frame ``soc_y`` deploy under a seeded runtime fault model pins
the runtime's recovery records (``runtime;recovery;*``,
``kernel.icap-error``, ``cancelled:*``), fully live and profile-only.
Each observation is reduced to canonical JSON and pinned by digest:
the Chrome trace, the profile's canonical tree (host time stripped),
the ordered event stream as ``(kind, time, source, attrs)`` and the
registry snapshot.
A change to how instrumentation is threaded through the layers must
leave all of them unchanged.

To print the current digests (after a deliberate change to what the
flow or the runtime records): ``PYTHONPATH=src python
tests/obs/test_instrumentation_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import tempfile

import pytest

import repro.api as api
from repro.core.designs import wami_deployment_socs
from repro.flow.cache import FlowCache
from repro.flow.options import BuildOptions
from repro.obs.events import EventBus
from repro.obs.export import chrome_trace_dict
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler, canonical_tree, profile_document
from repro.obs.recorder import Recorder
from repro.obs.tracer import Tracer
from repro.runtime.faults import (
    RuntimeFaultKind,
    RuntimeFaultModel,
    RuntimeFaultOptions,
)
from repro.vivado.faults import CadFaultModel
from repro.vivado.runtime_model import JobKind

GOLDEN = {
    "build": {
        "trace": "f7475abc9d8962c8822bd48deb3cf79929967d224c89ae40d28aca5d18d63efe",
        "profile": "24380ab86aab25bc7d54cbf03af7b1828709a974f7ee02b67cfdab8e451668eb",
        "events": "52785e1c2e4d71b62ed421a612b9ef350044f0a414164fb96ed6b46f756585aa",
        "metrics": "b7b4557c3b481fe29f5973d8e500e1eb266c7022e85ea2b79a59efba9f5f5b02",
    },
    "deploy": {
        "trace": "ae9a126359cd69d1d379378eeaa794f23031da162a9f8b614f0d22f5fced82d8",
        "profile": "c9c5078c7906df0f6ba5e7953612da19f9f55f1d191e89d92aceaf3aa4288460",
        "events": "6991d501094525e39431fb10dddf45a1b4e3716bd75fcd5828ed00310d2b4447",
        "metrics": "64d9efe570e8d98e1d0191f2f839a1c1ceca72f81b105a1a7d9b69f1badd007c",
    },
    "fault_build": {
        "trace": "d4882c7ea78106e9b011ae54a04349431562b94c936b173dbb623bf02f9ebd81",
        "profile": "0cdef7302cb3a8625f7207d3d69019c244c45e21bedcd50a0f700593be173e7b",
        "events": "14111829074c795bd519a3da0896242c2177ac97446c007e21c01d535328cbe8",
        "metrics": "43680cb1b7a55f605ba05f3373edd3055949322bb8324c5ded92f8dde198ccc2",
    },
    "fault_resume": {
        "trace": "d4882c7ea78106e9b011ae54a04349431562b94c936b173dbb623bf02f9ebd81",
        "profile": "676e1d2ce2d35001dbcc61fc5a9c0718b3bc7a7ca48ada1d21ea62340330a4cf",
        "events": "d5b6d2756d7138ee82d34aded0d777c8d369fe1684b4381e0165992ce4bfb0ee",
        "metrics": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    },
    # The partly live deploys observe what the fully live one does: the
    # same digests as "deploy".
    "deploy_profile_only": {
        "profile": "c9c5078c7906df0f6ba5e7953612da19f9f55f1d191e89d92aceaf3aa4288460",
    },
    "deploy_trace_only": {
        "trace": "ae9a126359cd69d1d379378eeaa794f23031da162a9f8b614f0d22f5fced82d8",
    },
    # A deploy traces the build it runs on the flow/* rows (CAD
    # minutes), so those records number first; then the kernel's
    # cancelled:* instants, kept live, and the runtime's records, kept
    # by the post-run projection (DES seconds).
    "fault_deploy": {
        "trace": "9174d27570d0756eb6a1f72cbc8d7726898024b84f622a0170f924927c697295",
        "profile": "ccf8823d9976897241d2f7afefe3160e0f6de9a337a0359df403199e853e0367",
        "events": "1132958c64b05c62ba17cf68b4c365c7c42c6f61b32163df6c267cb6f14df1a4",
        "metrics": "b5490e9b366de835cc79def0bf18fbeff5698c0dbcc1ef8ba72166ad5add84af",
    },
    # The profile-only faulty deploy folds what the fully live one does.
    "fault_deploy_profile_only": {
        "profile": "ccf8823d9976897241d2f7afefe3160e0f6de9a337a0359df403199e853e0367",
    },
    # A hit traces byte-identically to the fresh build.
    "cache_hit": {
        "trace": "f7475abc9d8962c8822bd48deb3cf79929967d224c89ae40d28aca5d18d63efe",
        "profile": "e48520dd4f56d67835af97346630bc4ea511c2ff0244f7ef657934c5469bce2f",
        "events": "dbf1d16dff7a110359532c08cfc2ef0634f1cfae226bcd1cdd3b87f7f444c24b",
        "metrics": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    },
}

#: Sizes of each observation, pinned next to the digests so a failure
#: says whether records went missing or only changed.
COUNTS = {
    "build": {"trace": 19, "events": 14, "metrics": 2},
    "deploy": {"trace": 131, "events": 154, "metrics": 113},
    "fault_build": {"trace": 22, "events": 28, "metrics": 5},
    "fault_resume": {"trace": 22, "events": 8, "metrics": 0},
    "deploy_profile_only": {},
    "deploy_trace_only": {"trace": 131},
    "cache_hit": {"trace": 19, "events": 1, "metrics": 0},
    "fault_deploy": {"trace": 164, "events": 153, "metrics": 179},
    "fault_deploy_profile_only": {},
}


#: Seeded CAD faults on every job kind: soc_y retries, loses a tile and
#: completes degraded.
FAULTS = {"seed": 7, "rates": {kind: 0.3 for kind in JobKind}}

#: Seeded runtime faults: the two-frame soc_y deploy retries, abandons
#: transfers, falls back, catches hung kernels and quarantines a tile.
RUNTIME_FAULTS = {
    "seed": 3,
    "rates": {
        RuntimeFaultKind.BITSTREAM_CORRUPTION: 0.3,
        RuntimeFaultKind.STUCK_TRANSFER: 0.1,
        RuntimeFaultKind.KERNEL_HANG: 0.1,
    },
}

#: Calls of each ``runtime;recovery;*`` path the faulty deploy folds.
RECOVERY = {
    "retry": 6,
    "abandon": 3,
    "fallback": 1,
    "kernel_hang": 2,
    "quarantine": 1,
}


def _live() -> api.Instrumentation:
    return api.Instrumentation(
        recorder=Recorder(),
        metrics=MetricsRegistry(),
        events=EventBus(capacity=100_000),
    )


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def sections(inst):
    """{section: canonical value} for each live part of one probe."""
    observed = {}
    if inst.tracer is not None:
        observed["trace"] = chrome_trace_dict(inst.tracer)
    if inst.profiler is not None:
        observed["profile"] = canonical_tree(profile_document(inst.profiler))
    if inst.events is not None:
        observed["events"] = [
            [event.kind, event.time, event.source, event.attrs]
            for event in inst.events.events()
        ]
    if inst.metrics is not None:
        observed["metrics"] = inst.metrics.snapshot()
    return observed


def observe():
    """Run every verb; return {verb: {section: value}}."""
    soc = wami_deployment_socs()["soc_x"]
    build = _live()
    api.build(soc, instrumentation=build)
    deploy = _live()
    api.deploy(soc, frames=2, instrumentation=deploy)
    deploy_profile_only = api.Instrumentation(profiler=Profiler())
    api.deploy(soc, frames=2, instrumentation=deploy_profile_only)
    deploy_trace_only = api.Instrumentation(tracer=Tracer())
    api.deploy(soc, frames=2, instrumentation=deploy_trace_only)
    cache = BuildOptions(cache=FlowCache())
    api.build(soc, options=cache)
    cache_hit = _live()
    api.build(soc, options=cache, instrumentation=cache_hit)
    faulty = wami_deployment_socs()["soc_y"]
    fault_build = _live()
    fault_resume = _live()
    with tempfile.TemporaryDirectory() as ckpt:
        options = BuildOptions(
            faults=CadFaultModel(**FAULTS), checkpoint_dir=ckpt
        )
        api.build(faulty, options=options, instrumentation=fault_build)
        api.build(
            faulty, resume=True, options=options, instrumentation=fault_resume
        )
    fault_deploy = _live()
    fault_deploy_profile_only = api.Instrumentation(profiler=Profiler())
    for inst in (fault_deploy, fault_deploy_profile_only):
        api.deploy(
            faulty,
            frames=2,
            instrumentation=inst,
            runtime_options=RuntimeFaultOptions(
                faults=RuntimeFaultModel(**RUNTIME_FAULTS)
            ),
        )
    return {
        verb: sections(inst)
        for verb, inst in (
            ("build", build),
            ("deploy", deploy),
            ("fault_build", fault_build),
            ("fault_resume", fault_resume),
            ("deploy_profile_only", deploy_profile_only),
            ("deploy_trace_only", deploy_trace_only),
            ("cache_hit", cache_hit),
            ("fault_deploy", fault_deploy),
            ("fault_deploy_profile_only", fault_deploy_profile_only),
        )
    }


def counts(observed):
    return {
        verb: {
            name: len(value["traceEvents"] if name == "trace" else value)
            for name, value in sections.items()
            if name != "profile"
        }
        for verb, sections in observed.items()
    }


def digests(observed):
    return {
        verb: {name: _digest(value) for name, value in sections.items()}
        for verb, sections in observed.items()
    }


@pytest.fixture(scope="module")
def observed():
    return observe()


def test_counts_are_pinned(observed):
    assert counts(observed) == COUNTS


@pytest.mark.parametrize("verb", ["fault_deploy", "fault_deploy_profile_only"])
def test_fault_deploy_reaches_every_recovery_path(observed, verb):
    (runtime,) = [
        node
        for node in observed[verb]["profile"]["children"]
        if node["name"] == "runtime"
    ]
    (recovery,) = [
        node for node in runtime["children"] if node["name"] == "recovery"
    ]
    calls = {node["name"]: node["calls"] for node in recovery["children"]}
    assert calls == RECOVERY


def test_fault_deploy_traces_failures_and_cancellations(observed):
    categories = [
        event.get("cat") for event in observed["fault_deploy"]["trace"]["traceEvents"]
    ]
    assert categories.count("kernel.icap-error") > 0
    assert categories.count("kernel.cancelled") > 0
    metrics = observed["fault_deploy"]["metrics"]

    def total(prefix):
        return sum(value for key, value in metrics.items() if key.startswith(prefix))

    assert total("runtime.reconfig_retries") == RECOVERY["retry"]
    assert total("runtime.reconfig_failures") == RECOVERY["abandon"]
    assert total("runtime.fallbacks") == RECOVERY["fallback"]
    assert total("runtime.kernel_hangs") == RECOVERY["kernel_hang"]
    assert total("runtime.quarantines") == RECOVERY["quarantine"]


@pytest.mark.parametrize(
    "section, verb",
    [
        (section, verb)
        for verb in sorted(GOLDEN)
        for section in ("trace", "profile", "events", "metrics")
        if section in GOLDEN[verb]
    ],
)
def test_observation_is_pinned(observed, verb, section):
    assert _digest(observed[verb][section]) == GOLDEN[verb][section]


if __name__ == "__main__":
    current = observe()
    print(json.dumps({"GOLDEN": digests(current), "COUNTS": counts(current)}, indent=4))
