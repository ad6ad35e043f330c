"""Golden pin of everything a fully live probe observes.

One ``api.build`` and one two-frame ``api.deploy`` of ``soc_x``, each
with every sink live, through the public API only. Each observation is
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

import pytest

import repro.api as api
from repro.core.designs import wami_deployment_socs
from repro.obs.events import EventBus
from repro.obs.export import chrome_trace_dict
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler, canonical_tree, profile_document
from repro.obs.tracer import Tracer

GOLDEN = {
    "build": {
        "trace": "19a7c5cd6c8c9200e58f8a565d595d06bdb19b614f466cd237886f16e6fcb6de",
        "profile": "24380ab86aab25bc7d54cbf03af7b1828709a974f7ee02b67cfdab8e451668eb",
        "events": "52785e1c2e4d71b62ed421a612b9ef350044f0a414164fb96ed6b46f756585aa",
        "metrics": "b7b4557c3b481fe29f5973d8e500e1eb266c7022e85ea2b79a59efba9f5f5b02",
    },
    "deploy": {
        "trace": "f47e17ee33226889b1698a0970b336a205e439594520ef87390df29f1d39cda2",
        "profile": "bb58a37c1721fb391bc0169ea037f1eed0fbdb1557a379fd710eea42d637835b",
        "events": "6991d501094525e39431fb10dddf45a1b4e3716bd75fcd5828ed00310d2b4447",
        "metrics": "64d9efe570e8d98e1d0191f2f839a1c1ceca72f81b105a1a7d9b69f1badd007c",
    },
}

#: Sizes of each observation, pinned next to the digests so a failure
#: says whether records went missing or only changed.
COUNTS = {
    "build": {"trace": 19, "events": 14, "metrics": 2},
    "deploy": {"trace": 112, "events": 154, "metrics": 113},
}


def _live(time_unit: str) -> api.Instrumentation:
    return api.Instrumentation(
        tracer=Tracer(time_unit=time_unit),
        metrics=MetricsRegistry(),
        events=EventBus(capacity=100_000),
        profiler=Profiler(),
    )


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def observe():
    """Run the build and the deploy; return {verb: {section: value}}."""
    soc = wami_deployment_socs()["soc_x"]
    build = _live("min")
    api.build(soc, instrumentation=build)
    deploy = _live("s")
    api.deploy(soc, frames=2, instrumentation=deploy)
    return {
        verb: {
            "trace": chrome_trace_dict(inst.tracer),
            "profile": canonical_tree(profile_document(inst.profiler)),
            "events": [
                [event.kind, event.time, event.source, event.attrs]
                for event in inst.events.events()
            ],
            "metrics": inst.metrics.snapshot(),
        }
        for verb, inst in (("build", build), ("deploy", deploy))
    }


def counts(observed):
    return {
        verb: {
            "trace": len(sections["trace"]["traceEvents"]),
            "events": len(sections["events"]),
            "metrics": len(sections["metrics"]),
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


@pytest.mark.parametrize("verb", sorted(GOLDEN))
@pytest.mark.parametrize("section", ["trace", "profile", "events", "metrics"])
def test_observation_is_pinned(observed, verb, section):
    assert _digest(observed[verb][section]) == GOLDEN[verb][section]


if __name__ == "__main__":
    current = observe()
    print(json.dumps({"GOLDEN": digests(current), "COUNTS": counts(current)}, indent=4))
