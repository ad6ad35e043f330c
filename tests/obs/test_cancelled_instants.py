"""Cancelled DES events export as instants, never dangling spans.

A cancelled event withdrawn from the kernel heap runs no callbacks
and advances no clock — but a trace that silently swallows it hides
the runtime's recovery behaviour (the watchdog cancels the stall
timer of every aborted transfer). The kernel therefore records each
withdrawal as a zero-duration Chrome ``"I"`` instant plus a
``cancelled:<Type>`` profile leaf.
"""

import json

from repro.core.designs import wami_soc_y
from repro.core.platform import PrEspPlatform
from repro.obs.export import chrome_trace_json
from repro.obs.instrumentation import Instrumentation
from repro.obs.profiler import Profiler, profile_document
from repro.obs.tracer import Tracer
from repro.runtime.faults import (
    RuntimeFaultKind,
    RuntimeFaultModel,
    RuntimeFaultOptions,
)
from repro.sim.kernel import Simulator


class TestKernelLevel:
    def observed_sim(self):
        sim = Simulator()
        tracer = Tracer()
        tracer.use_clock(lambda: sim.now)
        profiler = Profiler()
        sim.attach_observability(
            Instrumentation(tracer=tracer, profiler=profiler)
        )
        return sim, tracer, profiler

    def test_cancelled_timeout_becomes_an_instant(self):
        sim, tracer, profiler = self.observed_sim()
        sim.timeout(1.0)
        doomed = sim.timeout(5.0)
        doomed.cancel()
        sim.run()
        # The clock never advanced to the cancelled deadline.
        assert sim.now == 1.0
        instants = [s for s in tracer.spans if s.instant]
        assert [s.name for s in instants] == ["cancelled:Timeout"]
        assert instants[0].duration == 0.0
        assert instants[0].category == "kernel.cancelled"
        assert tracer.open_spans() == []

    def test_cancelled_leaf_lands_in_the_profile(self):
        sim, _, profiler = self.observed_sim()
        sim.timeout(1.0)
        sim.timeout(2.0).cancel()
        sim.timeout(3.0).cancel()
        sim.run()
        tree = profile_document(profiler, "t")["tree"]
        leaf = next(
            c for c in tree["children"] if c["name"] == "cancelled:Timeout"
        )
        assert leaf["calls"] == 2
        assert leaf["self_host_s"] == 0.0

    def test_instants_export_as_chrome_i_events(self):
        sim, tracer, _ = self.observed_sim()
        sim.timeout(1.0)
        sim.timeout(2.0).cancel()
        sim.run()
        events = json.loads(chrome_trace_json(tracer))["traceEvents"]
        marks = [e for e in events if e["ph"] == "I"]
        assert len(marks) == 1
        assert marks[0]["name"] == "cancelled:Timeout"
        assert marks[0]["s"] == "t"
        assert "dur" not in marks[0]


class TestDeployLevel:
    def test_stuck_transfer_abort_leaves_no_dangling_span(self):
        # A stuck transfer forces the watchdog to abort it, cancelling
        # the stall timer mid-flight; the trace must close cleanly with
        # the withdrawal visible as an instant.
        model = RuntimeFaultModel()
        model.inject(
            "rt1",
            "change_detection",
            RuntimeFaultKind.STUCK_TRANSFER,
            count=1,
        )
        tracer = Tracer()
        platform = PrEspPlatform()
        config = wami_soc_y()
        platform.deploy_wami(
            config,
            flow_result=platform.flow.build(config),
            frames=1,
            instrumentation=Instrumentation(tracer=tracer),
            runtime_options=RuntimeFaultOptions(faults=model),
        )
        assert tracer.open_spans() == []
        assert tracer.nesting_violations() == []
        events = json.loads(chrome_trace_json(tracer))["traceEvents"]
        assert any(
            e["ph"] == "I" and e["name"].startswith("cancelled:")
            for e in events
        )
