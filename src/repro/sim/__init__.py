"""A small generator-based discrete-event simulation kernel.

The PR-ESP runtime evaluation needs a model of concurrent software
(multi-threaded Linux application, kernel workqueue, interrupt-driven
reconfiguration controller). SimPy is not available offline, so this
package provides the same core abstractions from scratch: a simulator
with a ready queue for events due now and a heap for later ones,
processes written as generators that ``yield`` events, timeouts, locks
and FIFO stores.
"""

from repro.sim.kernel import Event, Simulator, Timeout
from repro.sim.process import Process
from repro.sim.resources import Lock, Store

__all__ = ["Simulator", "Event", "Timeout", "Process", "Lock", "Store"]
