"""Wall-clock-free cost guards on the uninstrumented deploy path.

Each guard counts calls instead of timing them, so it holds on any
host: a two-frame ``soc_y`` deployment must touch the event heap only
for timeouts that fire later, must not call into an all-off probe from
the runtime (nor into any probe without an event bus while the
simulation runs: the runtime's records, profile view and metrics are
projected from its step log afterwards), must order the task DAG once
per run rather than once per frame, must build no more record objects
per invocation than one per protocol step, must resume no more
generator frames per invocation than the flattened protocol needs, and
must price each bitstream size on the NoC once however often it is
streamed.
"""

import heapq
import inspect
import sys
from types import SimpleNamespace

import pytest

import repro.api as api
import repro.core.platform as platform_module
import repro.sim.kernel as kernel
from repro.core.designs import wami_soc_y
from repro.noc.analytic import AnalyticNocModel
from repro.obs.events import EventBus
from repro.obs.instrumentation import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler
from repro.obs.recorder import Recorder
from repro.runtime.executor import AppExecutor
from repro.runtime.prc import PrcDevice
from repro.runtime.steps import Step
from repro.sim.kernel import Simulator
from repro.wami.app import WamiApplication

#: Every operation of the probe a layer could call.
PROBE_METHODS = (
    "record", "frame",
    "emit", "counter", "gauge", "histogram", "use_clock",
)

#: The layers that must stay silent while every sink is off.
RUNTIME_MODULES = {
    "repro.runtime.manager",
    "repro.runtime.prc",
    "repro.runtime.steps",
}


@pytest.fixture(scope="module")
def soc_y_flow():
    soc = wami_soc_y()
    return soc, api.build(soc).flow


def deploy(soc_y_flow, **kwargs):
    soc, flow = soc_y_flow
    return api.deploy(soc, frames=2, flow_result=flow, **kwargs)


def counting_probe(monkeypatch, **sinks):
    """A probe that logs (method, calling module, while sim.run) per call."""
    calls = []
    running = [False]
    run = Simulator.run

    def running_run(sim, *args, **kwargs):
        running[0] = True
        try:
            return run(sim, *args, **kwargs)
        finally:
            running[0] = False

    monkeypatch.setattr(Simulator, "run", running_run)

    def counted(name):
        operation = getattr(Instrumentation, name)

        def method(self, *args, **kwargs):
            calls.append((name, sys._getframe(1).f_globals["__name__"], running[0]))
            return operation(self, *args, **kwargs)

        return method

    probe_type = type(
        "CountingProbe",
        (Instrumentation,),
        {name: counted(name) for name in PROBE_METHODS},
    )
    return probe_type(**sinks), calls


def test_only_future_timeouts_touch_the_heap(soc_y_flow, monkeypatch):
    pushes = []
    timeouts = []

    def counting_push(heap, entry):
        pushes.append(entry[0])
        heapq.heappush(heap, entry)

    timeout_init = kernel.Timeout.__init__

    def counting_init(self, sim, delay, value=None):
        timeouts.append(delay)
        timeout_init(self, sim, delay, value)

    monkeypatch.setattr(
        kernel,
        "heapq",
        SimpleNamespace(heappush=counting_push, heappop=heapq.heappop),
    )
    monkeypatch.setattr(kernel.Timeout, "__init__", counting_init)
    report = deploy(soc_y_flow)
    assert report.reconfigurations > 0
    assert timeouts and all(delay > 0 for delay in timeouts)
    # One push per timeout: succeed(), lock grants, process starts and
    # barriers all go through the ready queue.
    assert len(pushes) == len(timeouts)


def test_all_off_probe_sees_no_runtime_calls(soc_y_flow, monkeypatch):
    probe, calls = counting_probe(monkeypatch)
    assert not probe.enabled
    deploy(soc_y_flow, instrumentation=probe)
    # The probe does see the platform's calls, so the count is live.
    assert calls
    assert [call for call in calls if call[1] in RUNTIME_MODULES] == []


def test_live_probe_still_hears_the_runtime(soc_y_flow, monkeypatch):
    probe, calls = counting_probe(
        monkeypatch, events=EventBus(), metrics=MetricsRegistry()
    )
    deploy(soc_y_flow, instrumentation=probe)
    # The manager emits its events live; the projection counts the
    # manager's and the PRC's steps after the run.
    during = {(name, module) for name, module, running in calls if running}
    after = {(name, module) for name, module, running in calls if not running}
    assert {module for _name, module in during if module in RUNTIME_MODULES} == {
        "repro.runtime.manager"
    }
    assert {name for name, _module in during} == {"emit"}
    assert ("counter", "repro.runtime.steps") in after
    assert ("histogram", "repro.runtime.steps") in after


def test_profiler_only_probe_gets_only_profile_calls(soc_y_flow, monkeypatch):
    # `repro profile` runs a profiler alone: the runtime's steps feed its
    # fold after the run, straight into the recorder (no probe call),
    # and nothing is recorded while the simulation runs.
    probe, calls = counting_probe(monkeypatch, profiler=Profiler())
    deploy(soc_y_flow, instrumentation=probe)
    assert [call for call in calls if call[1] in RUNTIME_MODULES] == []
    assert probe.profiler.root.children["runtime"].children["exec"].calls == 20


def test_no_runtime_probe_call_while_the_simulation_runs(soc_y_flow, monkeypatch):
    # Without an event bus nothing of the runtime's is live: its steps
    # reach the trace and the registry after the run.
    probe, calls = counting_probe(
        monkeypatch, recorder=Recorder(), metrics=MetricsRegistry()
    )
    deploy(soc_y_flow, instrumentation=probe)
    runtime_calls = [call for call in calls if call[1] in RUNTIME_MODULES]
    assert [call for call in runtime_calls if call[2]] == []
    assert {"record", "counter", "histogram", "gauge"} <= {
        name for name, _module, _running in runtime_calls
    }


def test_topological_order_once_per_run(soc_y_flow, monkeypatch):
    orders = []
    topo_order = AppExecutor._topo_order

    def counting_order(self):
        orders.append(1)
        return topo_order(self)

    monkeypatch.setattr(AppExecutor, "_topo_order", counting_order)
    deploy(soc_y_flow)
    assert len(orders) == 1
    orders.clear()
    deploy(soc_y_flow, pipelined=True)
    assert len(orders) == 1


@pytest.mark.parametrize("power_gating", [False, True])
def test_one_process_per_worker_thread_per_frame(
    soc_y_flow, monkeypatch, power_gating
):
    spawned = []
    transfers = []
    prcs = []
    spawn = Simulator.process
    reconfigure = PrcDevice.reconfigure

    def counting_spawn(sim, generator):
        spawned.append(generator)
        return spawn(sim, generator)

    def counting_reconfigure(prc, *args):
        transfers.append(args)
        return reconfigure(prc, *args)

    monkeypatch.setattr(Simulator, "process", counting_spawn)
    monkeypatch.setattr(PrcDevice, "reconfigure", counting_reconfigure)
    report = deploy(soc_y_flow, power_gating=power_gating, prc_setup=prcs.append)
    soc, _flow = soc_y_flow
    workers = {
        task.tile_name or "cpu" for task in WamiApplication().tasks_for_soc(soc)
    }
    assert len(spawned) == report.frames * len(workers)
    (prc,) = prcs
    assert report.reconfigurations > 0
    assert len(transfers) == len(prc.records) == report.reconfigurations


#: Record objects the protocol builds while the two-frame ``soc_y``
#: deploy simulates, per power-gating policy: one step per lock wait,
#: execution, decouple window, transfer, software task and gating
#: blank. Ungated that is exactly what the runtime built before its
#: records were one log (20 invocation records, 20 transfer records and
#: 44 timeline events); gated, each of the 6 blanks also logs its
#: decouple window (96 before). The views (invocations, transfers,
#: timeline) are folded from the steps after the run. Every named tuple
#: is built by ``tuple.__new__``, through its constructor or directly.
RECORDS_DURING_RUN = {False: (84, 20), True: (102, 20)}


@pytest.mark.parametrize("power_gating", [False, True], ids=["ungated", "gated"])
def test_records_built_per_invocation(soc_y_flow, monkeypatch, power_gating):
    built = [0]
    running = [False]
    run = Simulator.run

    def running_run(sim, *args, **kwargs):
        running[0] = True
        try:
            return run(sim, *args, **kwargs)
        finally:
            running[0] = False

    def profile(_frame, event, arg):
        if running[0] and event == "c_call" and arg is tuple.__new__:
            built[0] += 1

    monkeypatch.setattr(Simulator, "run", running_run)
    prcs = []
    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        report = deploy(soc_y_flow, power_gating=power_gating, prc_setup=prcs.append)
    finally:
        sys.setprofile(outer)
    (prc,) = prcs
    invocations = report.runtime_stats.total_invocations
    assert (built[0], invocations) == RECORDS_DURING_RUN[power_gating]
    assert len(prc.steps) == built[0] and all(type(s) is Step for s in prc.steps)


#: Generator-frame resumptions (profiler ``call`` events on generator
#: code) and completed invocations of an uninstrumented two-frame
#: ``soc_y`` deploy. Every resumption of a worker thread re-enters each
#: frame of its ``yield from`` chain, so each sub-routine frame on the
#: protocol path costs once per resumption: the fault-free chain is
#: thread -> hardware instance -> invocation [-> reconfiguration ->
#: retried transfer -> PRC transfer]. The counts include the
#: generator expressions the deploy's setup and stats evaluate (the
#: ICAP total is a list comprehension over the step log now, not a
#: generator over the transfer records: 734 and 836 before; and
#: ``SocConfig.static_luts`` sums its tiles in one generator, not two:
#: 713 and 809 before).
GENERATOR_RESUMPTIONS = {False: (712, 20), True: (808, 20)}


@pytest.mark.parametrize("power_gating", [False, True], ids=["ungated", "gated"])
def test_generator_resumptions_per_invocation(soc_y_flow, monkeypatch, power_gating):
    managers = []
    make_manager = platform_module.ReconfigurationManager

    def recording_manager(*args, **kwargs):
        managers.append(make_manager(*args, **kwargs))
        return managers[-1]

    monkeypatch.setattr(platform_module, "ReconfigurationManager", recording_manager)
    resumptions = [0]

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_flags & inspect.CO_GENERATOR:
            resumptions[0] += 1

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        deploy(soc_y_flow, power_gating=power_gating)
    finally:
        sys.setprofile(outer)
    (manager,) = managers
    invocations = len(manager.invocations)
    assert (resumptions[0], invocations) == GENERATOR_RESUMPTIONS[power_gating], (
        f"{resumptions[0] / invocations:.1f} resumptions per invocation"
    )


def test_each_fetch_size_priced_once(soc_y_flow, monkeypatch):
    requested = []
    priced = []
    transfer_seconds = PrcDevice.transfer_seconds
    transfer_time_s = AnalyticNocModel.transfer_time_s

    def counting_request(self, size_bytes):
        requested.append(size_bytes)
        return transfer_seconds(self, size_bytes)

    def counting_price(self, src, dst, num_bytes):
        priced.append(num_bytes)
        return transfer_time_s(self, src, dst, num_bytes)

    monkeypatch.setattr(PrcDevice, "transfer_seconds", counting_request)
    monkeypatch.setattr(AnalyticNocModel, "transfer_time_s", counting_price)
    report = deploy(soc_y_flow)
    # One window per reconfiguration; the sizes repeat across frames.
    assert len(requested) == report.reconfigurations > len(set(requested))
    assert sorted(priced) == sorted(set(requested))
