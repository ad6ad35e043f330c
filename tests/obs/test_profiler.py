"""Unit tests of the deterministic hierarchical profiler.

The load-bearing invariant: frames accumulate *self* host time, so the
self times of the whole tree sum exactly (not approximately) to the
root's inclusive time, and merging a worker subtree is plain addition.
Everything here runs against a fake host clock — no wall-clock flake.
"""

import pickle

import pytest

from repro.obs.instrumentation import OFF
from repro.obs.profiler import (
    ProfileCapsule,
    Profiler,
    ProfilerError,
    canonical_tree,
    collapsed_stacks,
    find_profiles,
    load_profile,
    profile_document,
    profile_json,
    self_host_total,
    write_profile,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def profiler(clock):
    return Profiler(host_clock=clock)


def tree_of(profiler, experiment="t"):
    return profile_document(profiler, experiment)["tree"]


class TestFrames:
    def test_nested_frames_accumulate_self_time(self, profiler, clock):
        profiler.begin("outer")
        clock.advance(1.0)
        profiler.begin("inner")
        clock.advance(2.0)
        profiler.end()
        clock.advance(3.0)
        profiler.end()
        tree = tree_of(profiler)
        outer = tree["children"][0]
        inner = outer["children"][0]
        # outer ran 6s wall, 2s of which belong to inner.
        assert outer["self_host_s"] == pytest.approx(4.0)
        assert outer["host_s"] == pytest.approx(6.0)
        assert inner["self_host_s"] == pytest.approx(2.0)
        assert inner["host_s"] == pytest.approx(2.0)
        assert outer["calls"] == 1 and inner["calls"] == 1

    def test_self_times_sum_exactly_to_root_inclusive(self, profiler, clock):
        for _ in range(3):
            profiler.begin("a")
            clock.advance(0.1)
            with profiler.frame("b"):
                clock.advance(0.7)
                with profiler.frame("c"):
                    clock.advance(0.3)
            profiler.end()
        document = profile_document(profiler, "t")
        # Exact equality, not approx: self time is constructed by
        # subtraction of the very same floats.
        assert self_host_total(document) == document["total_host_s"]

    def test_repeat_calls_merge_into_one_path(self, profiler, clock):
        for _ in range(5):
            with profiler.frame("dispatch:Timeout"):
                clock.advance(0.2)
        tree = tree_of(profiler)
        assert len(tree["children"]) == 1
        node = tree["children"][0]
        assert node["calls"] == 5
        assert node["self_host_s"] == pytest.approx(1.0)

    def test_frame_context_manager_closes_on_exception(self, profiler, clock):
        with pytest.raises(ValueError):
            with profiler.frame("risky"):
                clock.advance(1.0)
                raise ValueError("boom")
        assert profiler.open_frames == 0
        assert tree_of(profiler)["children"][0]["calls"] == 1

    def test_current_path_tracks_open_frames(self, profiler):
        assert profiler.current_path() == ()
        profiler.begin("a")
        profiler.begin("b")
        assert profiler.current_path() == ("a", "b")
        assert profiler.open_frames == 2
        profiler.end()
        profiler.end()

    def test_unbalanced_end_raises(self, profiler):
        with pytest.raises(ProfilerError):
            profiler.end()

    def test_payload_refuses_open_frames(self, profiler):
        profiler.begin("open")
        with pytest.raises(ProfilerError):
            profiler.payload()
        profiler.end()
        assert profiler.payload()["name"] == "root"


class TestSimAttribution:
    def test_add_sim_charges_the_open_frame(self, profiler, clock):
        with profiler.frame("dispatch:Event"):
            clock.advance(0.001)
            profiler.add_sim(12.5)
            profiler.add_sim(0.5)
        node = tree_of(profiler)["children"][0]
        assert node["self_sim_s"] == pytest.approx(13.0)

    def test_negative_sim_raises(self, profiler):
        with pytest.raises(ProfilerError):
            profiler.add_sim(-1.0)
        with pytest.raises(ProfilerError):
            profiler.record_leaf("x", sim_s=-0.1)

    def test_record_leaf_anchors_under_current_frame(self, profiler, clock):
        with profiler.frame("flow.synthesis"):
            clock.advance(0.01)
            profiler.record_leaf("vivado.synth_rt1", sim_s=600.0)
        stage = tree_of(profiler)["children"][0]
        leaf = stage["children"][0]
        assert leaf["name"] == "vivado.synth_rt1"
        assert leaf["self_sim_s"] == pytest.approx(600.0)
        assert leaf["self_host_s"] == 0.0
        # The stage's inclusive sim time includes the leaf.
        assert stage["sim_s"] == pytest.approx(600.0)

    def test_record_leaf_root_anchor_escapes_the_stack(self, profiler, clock):
        with profiler.frame("dispatch:Event"):
            clock.advance(0.01)
            profiler.record_leaf(
                ("runtime", "retry"), sim_s=2.0, anchor="root"
            )
        tree = tree_of(profiler)
        names = {c["name"] for c in tree["children"]}
        assert names == {"dispatch:Event", "runtime"}
        runtime = next(c for c in tree["children"] if c["name"] == "runtime")
        assert runtime["children"][0]["name"] == "retry"
        assert runtime["children"][0]["self_sim_s"] == pytest.approx(2.0)

    def test_record_leaf_bad_anchor_raises(self, profiler):
        with pytest.raises(ProfilerError):
            profiler.record_leaf("x", anchor="parent")


class TestMerge:
    def worker_payload(self):
        clock = FakeClock()
        worker = Profiler(host_clock=clock)
        with worker.frame("flow.build"):
            clock.advance(2.0)
            worker.add_sim(120.0)
        return worker.payload()

    def test_merge_tree_grafts_under_path(self, profiler, clock):
        with profiler.frame("build_many"):
            clock.advance(0.5)
            profiler.merge_tree(
                self.worker_payload(), at=("soc_a/auto",), tag="ForkWorker-1"
            )
        tree = tree_of(profiler)
        many = tree["children"][0]
        graft = many["children"][0]
        assert graft["name"] == "soc_a/auto"
        assert graft["workers"] == ["ForkWorker-1"]
        assert graft["children"][0]["name"] == "flow.build"
        assert graft["children"][0]["self_host_s"] == pytest.approx(2.0)
        # Merged host time is inclusive in the parent but NOT double
        # counted as parent self time.
        assert many["self_host_s"] == pytest.approx(0.5)
        assert many["host_s"] == pytest.approx(2.5)

    def test_merge_is_additive_across_workers(self, profiler):
        profiler.merge_tree(self.worker_payload(), at=("req",), tag="w1")
        profiler.merge_tree(self.worker_payload(), at=("req",), tag="w2")
        graft = tree_of(profiler)["children"][0]
        assert sorted(graft["workers"]) == ["w1", "w2"]
        build = graft["children"][0]
        assert build["calls"] == 2
        assert build["self_sim_s"] == pytest.approx(240.0)

    def test_worker_tags_are_stripped_by_canonical_tree(self, profiler):
        profiler.merge_tree(self.worker_payload(), at=("req",), tag="w1")
        canonical = canonical_tree(profile_document(profiler, "t"))

        def assert_clean(node):
            assert set(node) <= {"name", "calls", "sim_s", "children"}
            for child in node.get("children", ()):
                assert_clean(child)

        assert_clean(canonical)

    def test_canonical_trees_ignore_host_speed(self):
        trees = []
        for speed in (1.0, 37.0):
            clock = FakeClock()
            profiler = Profiler(host_clock=clock)
            with profiler.frame("a"):
                clock.advance(speed)
                profiler.add_sim(5.0)
            trees.append(canonical_tree(profile_document(profiler, "t")))
        assert trees[0] == trees[1]


class TestCapsule:
    def test_disabled_capsule_activates_null(self):
        assert ProfileCapsule().activate() is None

    def test_enabled_capsule_activates_fresh_profiler(self):
        capsule = ProfileCapsule(path=("req",), profile=True)
        first = capsule.activate()
        second = capsule.activate()
        assert isinstance(first, Profiler) and isinstance(second, Profiler)
        assert first is not second

    def test_capsule_pickles(self):
        capsule = ProfileCapsule(path=("soc_a/auto",), profile=True, trace=True)
        clone = pickle.loads(pickle.dumps(capsule))
        assert clone == capsule
        assert isinstance(clone.activate(), Profiler)


class TestNullProfiler:
    def test_null_profiler_is_inert(self):
        # Profiling off is the probe's ``profiler=None``.
        assert OFF.profiler is None
        with OFF.frame("y") as frame:
            assert OFF.add_sim(1.0) is None
        assert frame is None
        assert OFF.leaf("z", sim_s=1.0) is None
        assert OFF.leaf(("runtime", "retry"), sim_s=2.0, anchor="root") is None
        assert OFF.enabled is False


class TestExports:
    def make_document(self):
        clock = FakeClock()
        profiler = Profiler(host_clock=clock)
        with profiler.frame("a"):
            clock.advance(0.5)
            profiler.add_sim(3.0)
            with profiler.frame("b"):
                clock.advance(0.25)
        with profiler.frame("zero"):
            pass  # no time at all: skipped by collapsed stacks
        return profile_document(profiler, "exp")

    def test_collapsed_stacks_microsecond_weights(self):
        lines = collapsed_stacks(self.make_document())
        assert lines == ["a 500000", "a;b 250000"]

    def test_collapsed_stacks_sim_and_calls_weights(self):
        document = self.make_document()
        assert collapsed_stacks(document, weight="sim") == ["a 3000000"]
        calls = collapsed_stacks(document, weight="calls")
        assert "zero 1" in calls
        with pytest.raises(ProfilerError):
            collapsed_stacks(document, weight="wall")

    def test_profile_json_is_deterministic(self):
        assert profile_json(self.make_document()) == profile_json(
            self.make_document()
        )

    def test_write_and_load_round_trip(self, tmp_path):
        document = self.make_document()
        json_path, collapsed_path = write_profile(tmp_path, "exp", document)
        assert json_path.name == "PROFILE_exp.json"
        assert collapsed_path.name == "exp.collapsed"
        assert load_profile(json_path) == document
        assert find_profiles(tmp_path) == {"exp": json_path}
        assert collapsed_path.read_text().splitlines() == collapsed_stacks(
            document
        )

    def test_load_profile_rejects_garbage(self, tmp_path):
        bad = tmp_path / "PROFILE_bad.json"
        bad.write_text("{not json")
        with pytest.raises(ProfilerError):
            load_profile(bad)

    def test_empty_profiler_documents_cleanly(self):
        document = profile_document(Profiler(), "empty")
        assert document["total_host_s"] == 0.0
        assert collapsed_stacks(document) == []
