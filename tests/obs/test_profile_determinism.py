"""Profile determinism: same seed + same faults ⇒ identical trees.

The profiler's canonical view (paths, call counts, simulated seconds
— host clock and worker tags stripped) must be byte-identical across
repeat runs of a seeded workload, across fault-injected runs, and
across ``jobs=1`` vs ``jobs=4`` pooled batch sweeps. Wall-clock
fields are explicitly excluded: they are the one non-deterministic
axis.
"""

import contextlib

import pytest

from repro.core.designs import wami_parallelism_socs, wami_soc_y
from repro.core.platform import PrEspPlatform
from repro.errors import PrEspError
from repro.flow.batch import BatchBuilder, BuildRequest
from repro.flow.dpr_flow import DprFlow
from repro.obs.instrumentation import Instrumentation
from repro.obs.profiler import Profiler, canonical_tree, profile_document
from repro.runtime.faults import (
    RuntimeFaultKind,
    RuntimeFaultModel,
    RuntimeFaultOptions,
)
from repro.vivado.faults import CadFaultModel
from repro.vivado.runtime_model import JobKind


@pytest.fixture(scope="module")
def built_socy():
    platform = PrEspPlatform()
    config = wami_soc_y()
    return platform, config, platform.flow.build(config)


def deploy_canonical(built, runtime_options=None, frames=2):
    platform, config, flow_result = built
    profiler = Profiler()
    platform.deploy_wami(
        config,
        flow_result=flow_result,
        frames=frames,
        instrumentation=Instrumentation(profiler=profiler),
        runtime_options=runtime_options,
    )
    return canonical_tree(profile_document(profiler, "deploy"))


class TestDeployDeterminism:
    def test_healthy_deploys_produce_identical_trees(self, built_socy):
        assert deploy_canonical(built_socy) == deploy_canonical(built_socy)

    def test_seeded_fault_injected_deploys_produce_identical_trees(
        self, built_socy
    ):
        def options():
            return RuntimeFaultOptions(
                faults=RuntimeFaultModel(
                    seed=3,
                    rates={RuntimeFaultKind.BITSTREAM_CORRUPTION: 0.15},
                )
            )

        first = deploy_canonical(built_socy, runtime_options=options())
        second = deploy_canonical(built_socy, runtime_options=options())
        assert first == second
        # The faults actually fired: the recovery ladder is in the tree.
        paths = set()

        def collect(node, prefix):
            path = prefix + (node["name"],)
            paths.add(";".join(path))
            for child in node.get("children", ()):
                collect(child, path)

        collect(first, ())
        assert "root;runtime;recovery;retry" in paths

    def test_faulted_tree_differs_from_healthy(self, built_socy):
        healthy = deploy_canonical(built_socy)
        faulted = deploy_canonical(
            built_socy,
            runtime_options=RuntimeFaultOptions(
                faults=RuntimeFaultModel(
                    seed=3,
                    rates={RuntimeFaultKind.BITSTREAM_CORRUPTION: 0.15},
                )
            ),
        )
        assert healthy != faulted


class TestBuildDeterminism:
    def faulted_build_canonical(self):
        profiler = Profiler()
        flow = DprFlow(
            faults=CadFaultModel(seed=7, rates={JobKind.OOC_SYNTH: 0.2})
        )
        # A permanent failure (all retries burned) is itself fine —
        # the trees of two identical failing runs must still match.
        with contextlib.suppress(PrEspError):
            flow.build(
                wami_soc_y(), instrumentation=Instrumentation(profiler=profiler)
            )
        return canonical_tree(profile_document(profiler, "build"))

    def test_seeded_cad_fault_builds_produce_identical_trees(self):
        first = self.faulted_build_canonical()
        assert first == self.faulted_build_canonical()
        # The stochastic model at 20% actually burned attempts: the
        # faulted tree differs from a fault-free one, and the synthesis
        # stage carries more modelled seconds (retries are charged to
        # the job leaf they retried).
        profiler = Profiler()
        DprFlow().build(
            wami_soc_y(), instrumentation=Instrumentation(profiler=profiler)
        )
        fault_free = canonical_tree(profile_document(profiler, "build"))
        assert first != fault_free

        def stage_sim(tree, stage):
            build = tree["children"][0]
            return sum(
                c["sim_s"] + sum(g["sim_s"] for g in c.get("children", ()))
                for c in build["children"]
                if c["name"] == stage
            )

        assert stage_sim(first, "flow.synthesis") > stage_sim(
            fault_free, "flow.synthesis"
        )


class TestPoolDeterminism:
    def batch_canonical(self, jobs):
        profiler = Profiler()
        requests = [
            BuildRequest(config=config)
            for _, config in sorted(wami_parallelism_socs().items())
        ]
        outcomes = BatchBuilder(
            flow=DprFlow(),
            jobs=jobs,
            instrumentation=Instrumentation(profiler=profiler),
        ).build_many(requests)
        assert all(o.ok for o in outcomes)
        return canonical_tree(profile_document(profiler, "batch"))

    def test_jobs1_and_jobs4_produce_identical_canonical_trees(self):
        serial = self.batch_canonical(jobs=1)
        pooled = self.batch_canonical(jobs=4)
        assert serial == pooled
        # The tree is non-trivial: one grafted subtree per request.
        root_children = {c["name"] for c in serial["children"]}
        assert root_children == {"build_many"}
        labels = {c["name"] for c in serial["children"][0]["children"]}
        assert labels == {f"soc_{x}/auto" for x in "abcd"}
