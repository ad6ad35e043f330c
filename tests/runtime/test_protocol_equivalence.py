"""Inlining the runtime protocol changes no deployment.

Every Fig. 4 SoC is deployed ungated, power-gated and pipelined, fault
free and under twelve seeded runtime-fault mixes (CRC errors, stuck
transfers, hung kernels), once with the production manager — the
protocol runs inside the calling thread — and once with
:class:`tests.runtime.reference.SpawningManager`, which spawns and
awaits each sub-routine as its own process. The summaries, the full
timelines, the invocation and transfer records and the fault draws
must be identical.
"""

import pytest

import repro.api as api
import repro.core.platform as platform_module
from repro.core.designs import wami_deployment_socs
from repro.runtime.faults import (
    RuntimeFaultKind,
    RuntimeFaultModel,
    RuntimeFaultOptions,
)
from repro.runtime.manager import ReconfigurationManager
from repro.sim.kernel import Simulator
from tests.runtime.reference import SpawningManager

CRC = RuntimeFaultKind.BITSTREAM_CORRUPTION
STUCK = RuntimeFaultKind.STUCK_TRANSFER
HANG = RuntimeFaultKind.KERNEL_HANG

#: Fault mixes, cycled over seeds 1-12.
MIXES = (
    {CRC: 0.15},
    {STUCK: 0.1},
    {HANG: 0.1},
    {CRC: 0.1, STUCK: 0.05, HANG: 0.05},
    {CRC: 0.3, STUCK: 0.1, HANG: 0.1},
)
SEEDS = tuple(range(1, 13))
SOCS = ("soc_x", "soc_y", "soc_z")
POLICIES = ("ungated", "gated", "pipelined")
FRAMES = 3

CASES = [
    (soc, policy, seed)
    for soc in SOCS
    for policy in POLICIES
    for seed in (None,) + SEEDS
]


def runtime_options(seed):
    if seed is None:
        return None
    return RuntimeFaultOptions(
        faults=RuntimeFaultModel(seed=seed, rates=MIXES[seed % len(MIXES)])
    )


def deploy(manager_cls, soc, flow, policy, seed):
    """One deployment under ``manager_cls``: its full observable outcome."""
    managers = []
    processes = []
    spawn = Simulator.process

    def make_manager(*args, **kwargs):
        managers.append(manager_cls(*args, **kwargs))
        return managers[-1]

    def counted_spawn(sim, generator):
        processes.append(generator)
        return spawn(sim, generator)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(platform_module, "ReconfigurationManager", make_manager)
        patch.setattr(Simulator, "process", counted_spawn)
        report = api.deploy(
            soc,
            frames=FRAMES,
            flow_result=flow,
            power_gating=policy == "gated",
            pipelined=policy == "pipelined",
            runtime_options=runtime_options(seed),
        )
    (manager,) = managers
    return {
        "summary": report.to_summary_dict(),
        "timeline": list(report.timeline.events),
        "invocations": list(manager.invocations),
        "transfers": list(manager.prc.records),
        "failed_transfers": manager.prc.failed_transfers,
        "drawn": dict(manager.faults.drawn),
        "processes": len(processes),
        "blank_attempts": sum(
            count
            for (_tile, mode, _op), count in manager.faults._attempts.items()
            if mode == "blank"
        ),
    }


@pytest.fixture(scope="module")
def outcomes():
    """{case: (production outcome, reference outcome)} for every case."""
    configs = wami_deployment_socs()
    flows = {soc: api.build(configs[soc]).flow for soc in SOCS}
    return {
        case: tuple(
            deploy(cls, configs[case[0]], flows[case[0]], case[1], case[2])
            for cls in (ReconfigurationManager, SpawningManager)
        )
        for case in CASES
    }


def case_id(case):
    soc, policy, seed = case
    return f"{soc}-{policy}-" + ("healthy" if seed is None else f"seed{seed}")


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_inlined_protocol_matches_the_spawning_reference(outcomes, case):
    inlined, spawned = outcomes[case]
    # The reference really spawned what production runs inline.
    assert spawned["processes"] > inlined["processes"]
    for key in sorted(inlined.keys() - {"processes"}):
        assert inlined[key] == spawned[key], key


def test_the_sweep_exercises_every_recovery_path(outcomes):
    # The fault mixes must reach retries, watchdog aborts, hangs,
    # fallbacks, quarantine and failover, and blanks that fail.
    totals = {}
    for inlined, _spawned in outcomes.values():
        runtime = inlined["summary"]["runtime"]
        for key in ("failed_attempts", "fallbacks", "kernel_hangs", "failovers"):
            totals[key] = totals.get(key, 0) + runtime[key]
        totals["quarantined"] = totals.get("quarantined", 0) + len(
            runtime["quarantined"]
        )
        for kind, count in inlined["drawn"].items():
            totals[kind] = totals.get(kind, 0) + count
    assert all(count > 0 for count in totals.values()), totals
    failed_blanks = sum(
        inlined["blank_attempts"]
        - sum(1 for t in inlined["transfers"] if t.mode_name == "blank")
        for inlined, _spawned in outcomes.values()
    )
    assert failed_blanks > 0
