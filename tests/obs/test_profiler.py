"""Unit tests of the fold: the deterministic call-path profile.

The load-bearing invariant: frames accumulate *self* host time, so the
self times of the whole tree sum exactly (not approximately) to the
root's inclusive time, and merging a worker subtree is plain addition.
Everything here runs against a fake host clock — no wall-clock flake.
"""

import pickle

import pytest

from repro.obs.baseline import find_files
from repro.obs.events import EventBus
from repro.obs.instrumentation import NO_FRAME, OFF, Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import (
    PROFILE_PREFIX,
    Profiler,
    ProfilerError,
    canonical_tree,
    collapsed_stacks,
    load_profile,
    profile_document,
    profile_json,
    profile_path,
    self_host_total,
    write_profile,
)
from repro.obs.recorder import Recorder, RecordingError


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


def tree_document(profiler, experiment="t"):
    return profile_document(profiler, experiment)


def tree_of(profiler, experiment="t"):
    return profile_document(profiler, experiment)["tree"]


class TestFrames:
    def test_nested_frames_accumulate_self_time(self, profiler, clock):
        profiler.enter("outer")
        clock.advance(1.0)
        profiler.enter("inner")
        clock.advance(2.0)
        profiler.exit()
        clock.advance(3.0)
        profiler.exit()
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
            profiler.enter("a")
            clock.advance(0.1)
            with profiler.frame("b"):
                clock.advance(0.7)
                with profiler.frame("c"):
                    clock.advance(0.3)
            profiler.exit()
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
        assert tree_of(profiler)["children"][0]["calls"] == 1

    def test_unbalanced_end_raises(self, profiler):
        with pytest.raises(RecordingError):
            profiler.exit()

    def test_payload_refuses_open_frames(self, profiler):
        profiler.enter("open")
        with pytest.raises(RecordingError):
            profiler.payload()
        profiler.exit()
        assert profiler.payload()["tree"]["name"] == "root"

    def test_dispatch_frames_enter_under_a_counted_node(self, profiler, clock):
        # The DES kernel's shape: one counted node per event, one frame
        # per callback below it; the node itself gets no host time.
        with profiler.frame("deploy"):
            for _ in range(2):
                node = profiler.count("dispatch:Timeout", 0.5)
                profiler.enter("Process._resume", node)
                clock.advance(1.0)
                profiler.exit()
        deploy = tree_of(profiler)["children"][0]
        (dispatch,) = deploy["children"]
        assert (dispatch["calls"], dispatch["self_sim_s"]) == (2, 1.0)
        assert dispatch["self_host_s"] == 0.0
        assert dispatch["children"][0]["self_host_s"] == pytest.approx(2.0)
        assert deploy["self_host_s"] == 0.0


class TestSimAttribution:
    def test_frame_charge_sums_simulated_seconds(self, profiler, clock):
        with profiler.frame("dispatch:Event") as frame:
            clock.advance(0.001)
            frame.charge(12.5)
            frame.charge(0.5)
        node = tree_of(profiler)["children"][0]
        assert node["self_sim_s"] == pytest.approx(13.0)

    def test_negative_sim_raises(self, profiler):
        with profiler.frame("x") as frame:
            with pytest.raises(RecordingError):
                frame.charge(-1.0)
        with pytest.raises(RecordingError):
            profiler.record("x", 0.0, 0.0, track=None, sim_s=-0.1, path=("x",))

    def test_record_path_folds_under_current_frame(self, profiler, clock):
        with profiler.frame("flow.synthesis"):
            clock.advance(0.01)
            profiler.record(
                "synth_rt1", 0.0, 10.0, category="flow.job", sim_s=600.0,
                path=("vivado.synth_rt1",),
            )
        stage = tree_of(profiler)["children"][0]
        leaf = stage["children"][0]
        assert leaf["name"] == "vivado.synth_rt1"
        assert leaf["self_sim_s"] == pytest.approx(600.0)
        assert leaf["self_host_s"] == 0.0
        # The stage's inclusive sim time includes the leaf.
        assert stage["sim_s"] == pytest.approx(600.0)

    def test_runtime_records_fold_from_the_root(self, profiler, clock):
        with profiler.frame("dispatch:Event"):
            clock.advance(0.01)
            profiler.tally(("runtime", "recovery", "retry"), 2.0)
        tree = tree_of(profiler)
        names = {c["name"] for c in tree["children"]}
        assert names == {"dispatch:Event", "runtime"}
        runtime = next(c for c in tree["children"] if c["name"] == "runtime")
        retry = runtime["children"][0]["children"][0]
        assert retry["name"] == "retry"
        assert retry["self_sim_s"] == pytest.approx(2.0)

    def test_kernel_records_reach_the_trace_only(self, profiler):
        # The runtime folds its own steps (``tally``); a kernel record
        # has no fold path of its own.
        record = profiler.begin("fft", category="kernel.exec", track="kernel/rt0")
        profiler.end(record)
        assert collapsed_stacks(tree_document(profiler), weight="calls") == []


class TestMerge:
    def worker_payload(self):
        clock = FakeClock()
        worker = Profiler(host_clock=clock)
        with worker.frame("flow.build") as frame:
            clock.advance(2.0)
            frame.charge(120.0)
        return worker.payload()

    def test_merge_grafts_under_path(self, profiler, clock):
        with profiler.frame("build_many"):
            clock.advance(0.5)
            profiler.merge(
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
        profiler.merge(self.worker_payload(), at=("req",), tag="w1")
        profiler.merge(self.worker_payload(), at=("req",), tag="w2")
        graft = tree_of(profiler)["children"][0]
        assert sorted(graft["workers"]) == ["w1", "w2"]
        build = graft["children"][0]
        assert build["calls"] == 2
        assert build["self_sim_s"] == pytest.approx(240.0)

    def test_worker_tags_are_stripped_by_canonical_tree(self, profiler):
        profiler.merge(self.worker_payload(), at=("req",), tag="w1")
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
            with profiler.frame("a") as frame:
                clock.advance(speed)
                frame.charge(5.0)
            trees.append(canonical_tree(profile_document(profiler, "t")))
        assert trees[0] == trees[1]


class TestWorkerPayload:
    def test_one_payload_carries_every_sink_through_one_merge(self):
        worker = Instrumentation(
            recorder=Recorder(time_unit="min", host_clock=FakeClock()),
            metrics=MetricsRegistry(),
            events=EventBus(),
        )
        assert worker.sinks == ("trace", "profile", "metrics", "events")
        with worker.frame("build.soc_a") as frame:
            frame.charge(60.0)
        worker.record("build soc_a", 0.0, 1.0, category="flow.build")
        worker.emit("flow.done", time=1.0, source="flow")
        worker.counter("jobs").inc()
        payload = pickle.loads(pickle.dumps(worker.payload()))

        parent = Instrumentation(
            recorder=Recorder(time_unit="min"),
            metrics=MetricsRegistry(),
            events=EventBus(),
        )
        parent.merge(payload, at=("soc_a/auto",))
        (graft,) = canonical_tree(profile_document(parent.recorder))["children"]
        assert graft["name"] == "soc_a/auto"
        assert graft["children"][0] == {"name": "build.soc_a", "calls": 1, "sim_s": 60.0}
        (span,) = parent.recorder.spans
        assert span.attrs == {"worker": payload["worker"]}
        assert [e.kind for e in parent.events.events()] == ["flow.done"]
        assert parent.metrics.snapshot()["jobs"] == 1.0

    def test_partly_live_probes_name_their_sinks(self):
        assert OFF.sinks == ()
        assert Instrumentation(profiler=Profiler()).sinks == ("profile",)


class TestNullProfiler:
    def test_null_profiler_is_inert(self):
        # Profiling off is the probe's ``profiler=None``.
        assert OFF.profiler is None
        assert OFF.frame("y") is NO_FRAME
        with OFF.frame("y") as frame:
            assert frame.charge(1.0) is None
        assert OFF.record("z", 0.0, 0.0, track=None, path=("z",)) is None
        assert OFF.enabled is False


class TestExports:
    def make_document(self):
        clock = FakeClock()
        profiler = Profiler(host_clock=clock)
        with profiler.frame("a") as frame:
            clock.advance(0.5)
            frame.charge(3.0)
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
        json_path, collapsed_path = write_profile(
            profile_path(tmp_path, "exp"), document, tmp_path / "exp.collapsed"
        )
        assert json_path.name == "PROFILE_exp.json"
        assert collapsed_path.name == "exp.collapsed"
        assert load_profile(json_path) == document
        assert find_files(tmp_path, PROFILE_PREFIX) == {"exp": json_path}
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

    def test_write_profile_defaults_to_a_sibling_collapsed_file(self, tmp_path):
        json_path, collapsed_path = write_profile(
            tmp_path / "out" / "p.json", self.make_document()
        )
        assert collapsed_path == tmp_path / "out" / "p.collapsed"
        assert load_profile(json_path) == self.make_document()
