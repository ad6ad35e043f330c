"""Wall-clock acceptance tests for the build service (``-m perf``).

Two claims back the batch/cache layer:

* the 12-build Table IV sweep (4 WAMI SoCs x 3 strategies) through
  ``BatchBuilder --jobs 4`` is at least 2x faster than running the same
  builds serially (needs >= 4 cores — skipped on smaller runners);
* repeating the sweep against a warm cache runs no flow build, is at
  least 10x faster than the cold pass (median of five pairs), and is
  byte-identical in its summaries.

Both tests assert result *identity* alongside speed, so a fast-but-
wrong shortcut cannot pass.
"""

import gc
import os
import statistics
import time

import pytest

from repro.core.designs import wami_parallelism_socs
from repro.core.strategy import ImplementationStrategy
from repro.flow.batch import BatchBuilder, BuildRequest
from repro.flow.cache import FlowCache
from repro.flow.dpr_flow import DprFlow

pytestmark = pytest.mark.perf

STRATEGIES = (
    ImplementationStrategy.SERIAL,
    ImplementationStrategy.SEMI_PARALLEL,
    ImplementationStrategy.FULLY_PARALLEL,
)


def sweep_requests():
    """The Table IV grid: 4 WAMI SoCs x 3 strategies = 12 builds."""
    socs = wami_parallelism_socs()
    return [
        BuildRequest(config=config, strategy_override=strategy)
        for config in socs.values()
        for strategy in STRATEGIES
    ]


def summaries(outcomes):
    return [outcome.unwrap().to_summary_dict() for outcome in outcomes]


def test_warm_cache_sweep_at_least_10x_faster(monkeypatch):
    flow = DprFlow()
    requests = sweep_requests()
    builds = []
    build = DprFlow.build

    def counted_build(self, *args, **kwargs):
        builds.append(args)
        return build(self, *args, **kwargs)

    monkeypatch.setattr(DprFlow, "build", counted_build)

    def timed_sweep(builder):
        start = time.perf_counter()
        outcomes = builder.build_many(requests)
        return outcomes, time.perf_counter() - start, len(builds)

    # Five alternating cold/warm pairs, each on a fresh cache; the gate
    # reads their median ratio, since one ~5 ms warm sweep is a single
    # sample that host noise can swamp. GC-quiesced like the profile
    # workloads: late in a full suite run a gen-2 collection over the
    # accumulated heap can land inside the warm window.
    ratios = []
    for _pair in range(5):
        builder = BatchBuilder(flow=flow, cache=FlowCache())
        before = len(builds)
        gc.collect()
        gc.disable()
        try:
            cold, cold_s, after_cold = timed_sweep(builder)
            warm, warm_s, after_warm = timed_sweep(builder)
        finally:
            gc.enable()
        assert [outcome.cached for outcome in cold] == [False] * len(requests)
        assert [outcome.cached for outcome in warm] == [True] * len(requests)
        # What the ratio stands for: the warm sweep runs no flow at all.
        assert (after_cold - before, after_warm - after_cold) == (len(requests), 0)
        ratios.append(cold_s / warm_s)

    # Cached results must be indistinguishable from fresh ones.
    assert summaries(warm) == summaries(cold)
    fresh = [
        build(
            flow, request.config, strategy_override=request.strategy_override
        ).to_summary_dict()
        for request in requests
    ]
    assert summaries(warm) == fresh
    speedup = statistics.median(ratios)
    assert speedup >= 10, (
        f"median warm-cache speedup {speedup:.1f}x < 10x over pairs "
        + ", ".join(f"{ratio:.1f}x" for ratio in ratios)
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup needs at least 4 cores",
)
def test_parallel_sweep_at_least_2x_faster():
    flow = DprFlow()
    requests = sweep_requests()

    start = time.perf_counter()
    serial = BatchBuilder(flow=flow, jobs=1).build_many(requests)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = BatchBuilder(flow=flow, jobs=4).build_many(requests)
    parallel_s = time.perf_counter() - start

    assert summaries(parallel) == summaries(serial)
    assert parallel_s * 2 <= serial_s, (
        f"parallel sweep {parallel_s:.2f} s vs serial {serial_s:.2f} s "
        f"(speedup {serial_s / parallel_s:.1f}x < 2x)"
    )
