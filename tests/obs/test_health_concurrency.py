"""The health judge under concurrent emitters and readers.

A daemon's deploy jobs emit runtime events onto the shared bus from
worker threads while its HTTP threads ask the judge for a verdict
(``/healthz``). The fold and ``report`` must neither raise nor lose
updates when they interleave.
"""

import sys
import threading

from repro.obs import events as ev
from repro.obs.events import EventBus
from repro.obs.health import HealthMonitor
from repro.obs.tsdb import TelemetryStore

ROUNDS = 200
EMITTERS = 2
REPORTERS = 2


def emit_rounds(bus: EventBus, store=None) -> None:
    for index in range(ROUNDS):
        time = index * 1e-4
        bus.emit(ev.LOCK_REQUESTED, time=time, source="rt0")
        bus.emit(ev.LOCK_ACQUIRED, time=time, source="rt0", wait_s=0.0)
        bus.emit(ev.RECONFIG_STARTED, time=time, source="rt0")
        bus.emit(ev.RECONFIG_COMPLETED, time=time, source="rt0", duration_s=1e-3)
        if store is not None:
            store.record({"runtime.reconfig_seconds.p95": 1e-3})


class TestConcurrentJudge:
    def test_emitters_and_reporters_interleave(self):
        bus = EventBus(capacity=4 * ROUNDS * EMITTERS)
        store = TelemetryStore()
        monitor = HealthMonitor(bus, store=store)
        errors = []
        done = threading.Event()

        def report_until_done() -> None:
            while not done.is_set():
                try:
                    monitor.report()
                except Exception as error:  # noqa: BLE001 - the test's verdict
                    errors.append(error)
                    return

        # One emitter also records the telemetry samples, as a worker
        # does after each job.
        emitters = [
            threading.Thread(target=emit_rounds, args=(bus, store if index == 0 else None))
            for index in range(EMITTERS)
        ]
        reporters = [threading.Thread(target=report_until_done) for _ in range(REPORTERS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in reporters + emitters:
                thread.start()
            for thread in emitters:
                thread.join(timeout=60)
        finally:
            done.set()
            for thread in reporters:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in reporters + emitters)
        assert errors == []
        report = monitor.report()
        assert report.events_seen == 4 * ROUNDS * EMITTERS
        assert report.completions == ROUNDS * EMITTERS
        assert report.lock_wait_s.count == ROUNDS * EMITTERS
        assert report.queue_depth == {"rt0": 0}
        # Every sample folded once, whichever reporter saw it first.
        assert report.slo.statuses[0].observations == ROUNDS
