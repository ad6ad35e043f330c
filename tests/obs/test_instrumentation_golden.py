"""Golden pin of everything a fully live probe observes.

One ``api.build`` and one two-frame ``api.deploy`` of ``soc_x``, and a
checkpointed ``api.build`` of ``soc_y`` under seeded CAD faults
followed by its resume, each with every sink live, through the public
API only. Three more verbs pin the paths where only part of the
recording is live or nothing runs: the same deploy with a profile-only
and with a trace-only probe (each must observe exactly what the fully
live deploy's matching section holds), and a FlowCache memory-tier hit
of ``soc_x``, which replays the cached build into the probe. The faulty pair pins the times and order of the retry,
failure, degradation and checkpoint events and the ``resumed`` profile
leaves. Each observation is
reduced to canonical JSON and pinned by digest: the Chrome trace, the
profile's canonical tree (host time stripped), the ordered event
stream as ``(kind, time, source, attrs)`` and the registry snapshot.
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
from repro.vivado.faults import CadFaultModel
from repro.vivado.runtime_model import JobKind

GOLDEN = {
    "build": {
        "trace": "19a7c5cd6c8c9200e58f8a565d595d06bdb19b614f466cd237886f16e6fcb6de",
        "profile": "24380ab86aab25bc7d54cbf03af7b1828709a974f7ee02b67cfdab8e451668eb",
        "events": "52785e1c2e4d71b62ed421a612b9ef350044f0a414164fb96ed6b46f756585aa",
        "metrics": "b7b4557c3b481fe29f5973d8e500e1eb266c7022e85ea2b79a59efba9f5f5b02",
    },
    "deploy": {
        "trace": "f47e17ee33226889b1698a0970b336a205e439594520ef87390df29f1d39cda2",
        "profile": "c9c5078c7906df0f6ba5e7953612da19f9f55f1d191e89d92aceaf3aa4288460",
        "events": "6991d501094525e39431fb10dddf45a1b4e3716bd75fcd5828ed00310d2b4447",
        "metrics": "64d9efe570e8d98e1d0191f2f839a1c1ceca72f81b105a1a7d9b69f1badd007c",
    },
    "fault_build": {
        "trace": "5e37b8d05087abedd9685af2954c909447daa8772a4dc1e96a50840808a5f29e",
        "profile": "0cdef7302cb3a8625f7207d3d69019c244c45e21bedcd50a0f700593be173e7b",
        "events": "14111829074c795bd519a3da0896242c2177ac97446c007e21c01d535328cbe8",
        "metrics": "43680cb1b7a55f605ba05f3373edd3055949322bb8324c5ded92f8dde198ccc2",
    },
    "fault_resume": {
        "trace": "5e37b8d05087abedd9685af2954c909447daa8772a4dc1e96a50840808a5f29e",
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
        "trace": "f47e17ee33226889b1698a0970b336a205e439594520ef87390df29f1d39cda2",
    },
    # A hit traces byte-identically to the fresh build.
    "cache_hit": {
        "trace": "19a7c5cd6c8c9200e58f8a565d595d06bdb19b614f466cd237886f16e6fcb6de",
        "profile": "e48520dd4f56d67835af97346630bc4ea511c2ff0244f7ef657934c5469bce2f",
        "events": "dbf1d16dff7a110359532c08cfc2ef0634f1cfae226bcd1cdd3b87f7f444c24b",
        "metrics": "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    },
}

#: Sizes of each observation, pinned next to the digests so a failure
#: says whether records went missing or only changed.
COUNTS = {
    "build": {"trace": 19, "events": 14, "metrics": 2},
    "deploy": {"trace": 112, "events": 154, "metrics": 113},
    "fault_build": {"trace": 22, "events": 28, "metrics": 5},
    "fault_resume": {"trace": 22, "events": 8, "metrics": 0},
    "deploy_profile_only": {},
    "deploy_trace_only": {"trace": 112},
    "cache_hit": {"trace": 19, "events": 1, "metrics": 0},
}


#: Seeded CAD faults on every job kind: soc_y retries, loses a tile and
#: completes degraded.
FAULTS = {"seed": 7, "rates": {kind: 0.3 for kind in JobKind}}


def _live(time_unit: str) -> api.Instrumentation:
    return api.Instrumentation(
        recorder=Recorder(time_unit=time_unit),
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
    build = _live("min")
    api.build(soc, instrumentation=build)
    deploy = _live("s")
    api.deploy(soc, frames=2, instrumentation=deploy)
    deploy_profile_only = api.Instrumentation(profiler=Profiler())
    api.deploy(soc, frames=2, instrumentation=deploy_profile_only)
    deploy_trace_only = api.Instrumentation(tracer=Tracer())
    api.deploy(soc, frames=2, instrumentation=deploy_trace_only)
    cache = BuildOptions(cache=FlowCache())
    api.build(soc, options=cache)
    cache_hit = _live("min")
    api.build(soc, options=cache, instrumentation=cache_hit)
    faulty = wami_deployment_socs()["soc_y"]
    fault_build = _live("min")
    fault_resume = _live("min")
    with tempfile.TemporaryDirectory() as ckpt:
        options = BuildOptions(
            faults=CadFaultModel(**FAULTS), checkpoint_dir=ckpt
        )
        api.build(faulty, options=options, instrumentation=fault_build)
        api.build(
            faulty, resume=True, options=options, instrumentation=fault_resume
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
