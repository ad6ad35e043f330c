"""The spawning reference manager: the runtime protocol's dispatch spec.

The production runtime runs the protocol inside the thread that asked
for it: a worker thread enters an invocation or a power-gating blank,
and the manager enters a fault-free transfer, with ``yield from``
through :meth:`ReconfigurationManager.inline`. :class:`SpawningManager`
is the runtime as it was before: each of those sub-routines is spawned
as its own process and awaited, which costs a start event and a
completion event per call. Everything else — the protocol steps, the
watchdog race, recovery, the kernel — is the production code, so the
equivalence tests can require the two to produce the same deployment.
"""

from repro.runtime.manager import ReconfigurationManager


class SpawningManager(ReconfigurationManager):
    """Spawns and awaits every protocol sub-routine instead of inlining."""

    def inline(self, steps):
        return self._spawned(steps)

    def _spawned(self, steps):
        return (yield self.sim.process(steps))
