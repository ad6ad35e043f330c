"""Tests for the Vivado tool-instance façade."""

import pytest

from repro.fabric.parts import vc707
from repro.fabric.pblock import Pblock
from repro.fabric.resources import ResourceVector
from repro.soc.rtl import Module
from repro.vivado.tool import VivadoInstance


@pytest.fixture
def device():
    return vc707()


def tree():
    wrapper = Module(
        "rp0_wrapper", luts=20, children=[Module("acc", luts=8000)], reconfigurable=True
    )
    return Module("top", luts=500, children=[wrapper])


class TestJournal:
    def test_synthesis_journaled(self):
        tool = VivadoInstance("t0")
        tool.synth_design(tree(), ooc=True)
        assert len(tool.journal) == 1
        assert "synth_design" in tool.journal[0].command
        assert "out_of_context" in tool.journal[0].command

    def test_cpu_minutes_accumulate(self):
        tool = VivadoInstance("t0")
        tool.synth_design(tree())
        after_one = tool.cpu_minutes
        tool.synth_design(tree())
        assert tool.cpu_minutes == pytest.approx(2 * after_one)

    def test_journal_totals_match_cpu_time(self):
        tool = VivadoInstance("t0")
        tool.synth_design(tree())
        tool.synth_design(tree(), ooc=False)
        assert sum(e.cpu_minutes for e in tool.journal) == pytest.approx(
            tool.cpu_minutes
        )


class TestImplementationPath:
    def test_static_then_context_then_bitstream(self, device):
        tool = VivadoInstance("t0")
        static = tool.synth_design(tree(), ooc=True, black_box_names=["rp0_wrapper"])
        rp = tool.synth_design(tree().find("rp0_wrapper"), ooc=True)
        pblock = Pblock("pblock_rp0", 0, 20, 0, 1)
        demand = ResourceVector(lut=9000, ff=9000)
        routed = tool.implement_static(static, device, [pblock], [demand])
        assert routed.locked_static
        ctx = tool.implement_in_context(routed, [rp], ["pblock_rp0"])
        assert not ctx.locked_static
        bs = tool.write_partial_bitstream(
            "rp0", "acc", pblock.resources(device), ResourceVector(lut=8000)
        )
        assert bs.size_bytes > 0
        commands = " | ".join(e.command for e in tool.journal)
        assert "lock_design" in commands
        assert "write_bitstream" in commands

    def test_full_bitstream(self, device):
        tool = VivadoInstance("t0")
        bs = tool.write_full_bitstream("soc", device)
        assert bs.name == "soc.bit"
