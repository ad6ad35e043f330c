"""Profiling overhead: a wall-clock ratio, so a smoke check, not tier-1.

The bare run takes the kernel's uninstrumented fast path (monomorphic
dispatch loop, no frame bookkeeping), so the profiled run pays both
the fold (one frame per DES callback) and the instrumented loop, and
is measured against a strictly faster baseline.

Run:  PYTHONPATH=src python -m pytest -m smoke tests/smoke
"""

import time

import pytest

from repro import api
from repro.core.designs import wami_soc_y
from repro.obs.instrumentation import Instrumentation
from repro.obs.recorder import Recorder

pytestmark = pytest.mark.smoke

#: Relative overhead ceiling for the profiled deployment. Steady state
#: is ~30% on the 16-frame workload; the ceiling absorbs CI host noise.
OVERHEAD_CEILING = 0.60

#: Frames for the overhead measurement: enough that the DES steady
#: state dominates interpreter warm-up and the min-of-5 is stable at
#: the millisecond scale.
OVERHEAD_FRAMES = 16


def timed_workload(profiled: bool) -> float:
    """Min-of-5 wall time of the overhead workload (build + deploy)."""
    best = float("inf")
    for _ in range(5):
        instrumentation = (
            Instrumentation(recorder=Recorder(trace=False)) if profiled else None
        )
        platform = api.platform(instrumentation=instrumentation)
        start = time.perf_counter()
        api.deploy(wami_soc_y(), frames=OVERHEAD_FRAMES, platform=platform)
        best = min(best, time.perf_counter() - start)
    return best


def test_profiling_overhead_stays_under_the_ceiling():
    bare = timed_workload(profiled=False)
    profiled = timed_workload(profiled=True)
    overhead = (profiled - bare) / bare
    assert overhead < OVERHEAD_CEILING, (
        f"profiling overhead {overhead:+.1%} (bare {bare * 1000:.1f} ms, "
        f"profiled {profiled * 1000:.1f} ms) over {OVERHEAD_CEILING:.0%}"
    )
