"""Tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError


class TestEvents:
    def test_event_starts_pending(self, sim):
        event = sim.event()
        assert not event.triggered and not event.processed

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed("payload")
        sim.run()
        assert event.processed
        assert event.value == "payload"
        assert event.ok

    def test_fail_carries_exception(self, sim):
        event = sim.event()
        event.fail(ValueError("boom"))
        sim.run()
        assert isinstance(event.exception, ValueError)
        assert not event.ok

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_callbacks_run_on_processing(self, sim):
        event = sim.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed(7)
        sim.run()
        assert seen == [7]

    def test_late_callback_still_runs(self, sim):
        event = sim.event()
        event.succeed(1)
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [1]


class TestTimeouts:
    def test_timeout_advances_clock(self, sim):
        sim.timeout(5.0)
        assert sim.run() == 5.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_nan_delay_rejected(self, sim):
        sim.timeout(1.0)
        with pytest.raises(SimulationError, match="NaN"):
            sim.timeout(float("nan"))
        # The refused timeout left no entry behind to poison the clock.
        assert sim.run() == 1.0
        assert sim.pending_events == 0

    def test_nan_until_rejected(self, sim):
        sim.timeout(1.0)
        with pytest.raises(SimulationError, match="NaN"):
            sim.run(until=float("nan"))
        assert sim.now == 0.0
        assert sim.run() == 1.0

    def test_timeouts_fire_in_order(self, sim):
        order = []
        sim.timeout(3.0).add_callback(lambda e: order.append(3))
        sim.timeout(1.0).add_callback(lambda e: order.append(1))
        sim.timeout(2.0).add_callback(lambda e: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_equal_times_fifo(self, sim):
        order = []
        for tag in "abc":
            sim.timeout(1.0).add_callback(lambda e, t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_run_until_stops_clock(self, sim):
        sim.timeout(10.0)
        assert sim.run(until=4.0) == 4.0
        assert sim.pending_events == 1

    def test_run_until_past_is_rejected(self, sim):
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=0.5)

    def test_step_without_events_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()


class TestCancellation:
    def test_cancelled_timeout_does_not_advance_clock(self, sim):
        fired = []
        sim.timeout(1.0).add_callback(lambda e: fired.append(1))
        lost = sim.timeout(10.0)
        lost.add_callback(lambda e: fired.append(10))
        lost.cancel()
        assert sim.run() == 1.0
        assert fired == [1]
        assert sim.pending_events == 0

    def test_cancel_after_processing_is_a_noop(self, sim):
        done = sim.timeout(1.0)
        sim.run()
        done.cancel()
        assert done.processed and not done.cancelled

    def test_cancelled_loser_of_a_race_stays_silent(self, sim):
        winner = sim.timeout(1.0)
        loser = sim.timeout(50.0)
        race = sim.any_of([winner, loser])
        sim.run(until=2.0)
        assert race.ok
        loser.cancel()
        assert sim.run() == 2.0  # nothing left to drain

    def test_run_until_ignores_cancelled_head(self, sim):
        sim.timeout(1.0).cancel()
        sim.timeout(5.0)
        assert sim.run(until=3.0) == 3.0
        assert sim.pending_events == 1


class TestCombinators:
    def test_all_of_collects_values(self, sim):
        events = [sim.timeout(i, value=i) for i in (3.0, 1.0, 2.0)]
        barrier = sim.all_of(events)
        sim.run()
        assert barrier.processed
        assert barrier.value == [3.0, 1.0, 2.0]
        assert sim.now == 3.0

    def test_all_of_empty_fires_immediately(self, sim):
        barrier = sim.all_of([])
        sim.run()
        assert barrier.processed and barrier.value == []

    def test_all_of_propagates_failure(self, sim):
        good = sim.timeout(1.0)
        bad = sim.event()
        bad.fail(RuntimeError("nope"))
        barrier = sim.all_of([good, bad])
        sim.run()
        assert isinstance(barrier.exception, RuntimeError)

    def test_any_of_fires_on_first(self, sim):
        slow = sim.timeout(10.0, value="slow")
        fast = sim.timeout(1.0, value="fast")
        first = sim.any_of([slow, fast])
        sim.run()
        assert first.value == "fast"

    def test_any_of_empty_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.any_of([])
