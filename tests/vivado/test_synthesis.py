"""Tests for the simulated synthesis engine."""

import pytest

from repro.errors import SynthesisError
from repro.soc.partition import partition_design
from repro.soc.rtl import Module
from repro.vivado.synthesis import SynthesisEngine


@pytest.fixture
def engine():
    return SynthesisEngine()


def small_tree():
    wrapper = Module(
        "wrapper", luts=50, children=[Module("acc", luts=5000)], reconfigurable=True
    )
    return Module("top", luts=100, children=[Module("a", luts=1000), wrapper])


class TestSynthesis:
    def test_netlist_size_counts_subtree(self, engine):
        result = engine.synth_module(small_tree())
        assert result.checkpoint.kluts == pytest.approx(6.15)

    def test_black_box_excluded_from_size(self, engine):
        result = engine.synth_module(small_tree(), black_box_names=["wrapper"])
        assert result.checkpoint.kluts == pytest.approx(1.1)
        assert result.checkpoint.black_boxes == ("wrapper",)

    def test_missing_black_box_raises(self, engine):
        with pytest.raises(SynthesisError, match="not found"):
            engine.synth_module(small_tree(), black_box_names=["ghost"])

    def test_ooc_flag_propagates(self, engine):
        assert engine.synth_module(small_tree(), ooc=True).checkpoint.is_assemblable
        assert not engine.synth_module(small_tree(), ooc=False).checkpoint.is_assemblable

    def test_cpu_time_positive_and_monotone(self, engine):
        small = engine.synth_module(Module("s", luts=1000)).cpu_minutes
        large = engine.synth_module(Module("l", luts=100000)).cpu_minutes
        assert 0 < small < large

    def test_global_synthesis_of_soc(self, engine, soc2):
        partition = partition_design(soc2)
        result = engine.synth_global(partition.rtl)
        assert result.checkpoint.kluts == pytest.approx(
            soc2.total_design_luts() / 1000.0
        )
        assert not result.checkpoint.ooc

    def test_static_synthesis_of_soc_blackboxes_wrappers(self, engine, soc2):
        partition = partition_design(soc2)
        boxes = [rp.wrapper.name for rp in partition.rps]
        result = engine.synth_module(partition.rtl, black_box_names=boxes)
        assert result.checkpoint.kluts == pytest.approx(soc2.static_luts() / 1000.0)
