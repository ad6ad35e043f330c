"""Wall-clock-free cost guards on a cold build's front end.

A cold build starts by reading its esp_config text and partitioning the
generated RTL (Sec. IV: the flow "starts by parsing the input SoC
configuration to generate the RTL hierarchy of the full SoC"). Each
guard counts the Python function calls (profiler ``call`` events, a
generator resumption included) of one front-end step, so it holds on
any host: reading a generated esp_config file must not go through a
general-purpose INI parser, and partitioning must walk the ~70-module
hierarchy with explicit stacks, once per question, instead of through
recursive generators.
"""

import sys

from repro.core.designs import resolve_config, wami_soc_a
from repro.soc.partition import partition_design

#: A generated design in the shape of the benchmark's: the CPU/MEM/AUX
#: trio and three reconfigurable tiles of one to three modes.
GENERATED = """[soc]
name = cost
board = vcu118
rows = 3
cols = 3

[tile cpu0]
type = cpu
core = leon3

[tile mem0]
type = mem

[tile aux0]
type = aux

[tile rt0]
type = reconf
modes = fft, gemm, debayer

[tile rt1]
type = reconf
modes = hessian

[tile rt2]
type = reconf
modes = warp, conv2d
"""

#: Calls of ``resolve_config`` on ``GENERATED`` read from disk: one per
#: parse step, section check, tile, accelerator lookup and validation
#: helper (64 here; 348 when configparser read the text).
RESOLVE_CALLS = 64

#: Calls of ``partition_design`` on ``soc_a``: 63 module constructors,
#: the tile and resource accounting, the DPR-rule check and one walk
#: that stops at the reconfigurable roots (173 here; 215 while the
#: static size was recounted on every call and each enum-keyed lookup
#: called ``Enum.__hash__``; 942 with recursive generator walks and one
#: traversal per question).
PARTITION_CALLS = 173


def count_calls(function, *args):
    """Python calls made by one ``function(*args)``, after a warm-up."""
    function(*args)  # lazy imports and cached catalogs load here
    calls = [0]

    def profile(_frame, event, _arg):
        if event == "call":
            calls[0] += 1

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(outer)
    return calls[0]


def test_resolving_a_generated_config_stays_cheap(tmp_path):
    path = tmp_path / "cost.esp_config"
    path.write_text(GENERATED)
    assert resolve_config(str(path)).name == "cost"
    calls = count_calls(resolve_config, str(path))
    assert calls <= RESOLVE_CALLS, f"{calls} calls to read one esp_config file"


def test_partitioning_stays_cheap():
    config = wami_soc_a()
    calls = count_calls(partition_design, config)
    assert calls <= PARTITION_CALLS, f"{calls} calls to partition soc_a"
