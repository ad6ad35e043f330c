"""The ready-queue kernel dispatches exactly like the heap-only reference.

Seeded random programs — processes racing over zero, positive and
sub-ulp timeouts, contended locks, ``AllOf``/``AnyOf`` over pending and
already processed events, failures, cancellations and segmented
``run(until=...)`` calls — run on :class:`~repro.sim.kernel.Simulator`
and on :class:`tests.sim.reference.ReferenceSimulator`. Every program
must log the same (label, time) sequence on both, with and without a
profiler attached, and the profiler must charge the same simulated
time to every ``dispatch:<Type>`` (and callback) frame.
"""

import random

import pytest

from repro.obs.instrumentation import Instrumentation
from repro.obs.profiler import Profiler, canonical_tree
from repro.sim.kernel import Simulator
from repro.sim.resources import Lock
from tests.sim.reference import ReferenceSimulator

PROGRAMS = 500

#: At a clock of 1e17 (ulp 16) the delays below 8 are sub-ulp: their
#: fire time rounds to ``now``.
DELAYS = (0.0, 0.0, 1e-12, 1.0, 2.5, 10.0, 16.0, 40.0)


class Boom(Exception):
    """The failure programs raise and fail events with."""


def run_program(sim_cls, seed, profiled):
    """Run seeded program ``seed``; returns (log, profile tree, now)."""
    sim = sim_cls()
    profiler = None
    if profiled:
        profiler = Profiler(host_clock=lambda: 0.0)
        sim.attach_observability(Instrumentation(profiler=profiler))
    rng = random.Random(seed)
    log = []
    locks = [Lock(sim) for _ in range(rng.randint(1, 3))]
    pool = []  # every event created so far, processed or not
    budget = [rng.randint(3, 16)]  # processes left to spawn

    def watched(event, label):
        pool.append(event)
        event.add_callback(lambda e: log.append((label, sim.now, e.ok)))
        return event

    def timeout(label):
        delay = rng.choice(DELAYS)
        if delay > 0 and sim.now + delay == sim.now:
            log.append((label + ":sub-ulp", sim.now, None))
        return watched(sim.timeout(delay), label)

    def spawn(label):
        budget[0] -= 1
        return watched(sim.process(body(label, rng.randint(2, 8))), label)

    def body(name, steps):
        for index in range(steps):
            label = f"{name}.{index}"
            log.append((label, sim.now, None))
            action = rng.random()
            try:
                if action < 0.25:
                    yield timeout(label)
                elif action < 0.4:
                    lock = rng.choice(locks)
                    yield lock.acquire()
                    try:
                        yield timeout(label + ":held")
                    finally:
                        lock.release()
                elif action < 0.55:
                    members = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
                    members.append(timeout(label + ":tail"))
                    combinator = rng.choice((sim.all_of, sim.any_of))
                    yield watched(combinator(members), label + ":join")
                elif action < 0.65 and budget[0] > 0:
                    child = spawn(label + ">")
                    if rng.random() < 0.5:
                        yield child
                elif action < 0.75:
                    event = watched(sim.event(), label + ":trigger")
                    if rng.random() < 0.5:
                        event.succeed(index)
                    else:
                        event.fail(Boom(label))
                    yield event
                elif action < 0.85:
                    pending = [e for e in pool if not e.processed]
                    if pending:
                        rng.choice(pending).cancel()
                    yield timeout(label + ":after-cancel")
                elif action < 0.92:
                    raise Boom(label)
                else:
                    # Wait on an event that may already be processed.
                    yield rng.choice(pool)
            except Boom:
                log.append((label + ":caught", sim.now, None))
                if rng.random() < 0.3:
                    raise
        return name

    for root in range(rng.randint(1, 4)):
        spawn(f"p{root}")
    if rng.random() < 0.5:
        # Move the clock far out, where small delays are sub-ulp.
        sim.run(until=1e17)
    for _segment in range(rng.randint(0, 4)):
        sim.run(until=sim.now + rng.choice((0.0, 1.0, 5.0, 20.0, 64.0)))
        log.append(("segment", sim.now, sim.pending_events))
        pending = [e for e in pool if not e.triggered]
        if pending and rng.random() < 0.5:
            rng.choice(pending).succeed("outside")
    sim.run()
    tree = canonical_tree(profiler.payload()) if profiled else None
    return log, tree, sim.now


@pytest.mark.parametrize("chunk", range(10))
def test_random_programs_dispatch_in_reference_order(chunk):
    per_chunk = PROGRAMS // 10
    for seed in range(chunk * per_chunk, (chunk + 1) * per_chunk):
        reference = run_program(ReferenceSimulator, seed, profiled=True)
        assert run_program(Simulator, seed, profiled=True) == reference, seed
        fast_log, _tree, fast_now = run_program(Simulator, seed, profiled=False)
        assert (fast_log, fast_now) == (reference[0], reference[2]), seed


def test_programs_exercise_every_feature():
    """The sweep is not vacuous: sub-ulp fires, cancels, failures, joins."""
    labels = set()
    for seed in range(PROGRAMS):
        log, _tree, _now = run_program(Simulator, seed, profiled=False)
        labels.update(label.rsplit(":", 1)[-1] for label, _t, _ok in log)
    assert {
        "caught", "join", "held", "after-cancel", "trigger", "segment", "sub-ulp",
    } <= labels


def test_sub_ulp_timeout_queues_behind_events_due_now():
    for sim_cls in (Simulator, ReferenceSimulator):
        sim = sim_cls()
        sim.run(until=1e17)
        order = []
        first = sim.event()
        sub_ulp = sim.timeout(1.0)  # 1e17 + 1.0 == 1e17
        first.add_callback(lambda e: order.append("first"))
        sub_ulp.add_callback(lambda e: order.append("sub-ulp"))
        sim.timeout(0.0).add_callback(lambda e: order.append("zero"))
        first.succeed()
        sim.run()
        assert order == ["sub-ulp", "zero", "first"]
        assert sim.now == 1e17

