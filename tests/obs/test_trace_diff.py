"""Tests for ``tools/trace_diff.py``, the row-wise Chrome trace comparison."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs.export import write_chrome_trace
from repro.obs.recorder import CAD_MIN, DES_S
from repro.obs.tracer import Tracer

_SPEC = importlib.util.spec_from_file_location(
    "trace_diff", Path(__file__).resolve().parents[2] / "tools" / "trace_diff.py"
)
trace_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_diff)


def _trace(path, with_build=False, exec_end=2.0):
    tracer = Tracer()
    if with_build:
        # "flow" sorts before "kernel", so it renumbers the kernel row.
        build = tracer.record("build", 0.0, 3.0, CAD_MIN, track="flow/build")
        tracer.record("parse", 0.0, 1.0, CAD_MIN, track="flow/build", parent=build)
    frame = tracer.record("frame", 0.0, exec_end, DES_S, track="kernel/rt0")
    tracer.record("exec", 1.0, exec_end, DES_S, track="kernel/rt0", parent=frame)
    write_chrome_trace(path, tracer)
    return str(path)


def test_shared_rows_compare_by_name_not_by_pid(tmp_path, capsys):
    old = _trace(tmp_path / "old.json")
    new = _trace(tmp_path / "new.json", with_build=True)
    assert trace_diff.main([old, new]) == 0
    out = capsys.readouterr().out
    assert "shared rows ['kernel']: 2 vs 2 records, equal" in out
    assert "only in new: row 'flow', 2 records" in out
    assert "metadata clocks:" in out


def test_a_changed_record_is_reported(tmp_path, capsys):
    old = _trace(tmp_path / "old.json")
    new = _trace(tmp_path / "new.json", exec_end=2.5)
    assert trace_diff.main([old, new]) == 1
    out = capsys.readouterr().out
    assert "DIFFERENT" in out
    assert "first difference at record 0" in out


def test_records_link_by_position(tmp_path):
    doc = json.loads(Path(_trace(tmp_path / "t.json", with_build=True)).read_text())
    # Span ids count every record of the trace; positions count the
    # compared ones, so the kernel rows link alike with or without flow.
    rows = trace_diff.records(doc, {"kernel"})
    assert [(r["name"], r["row"], r["parent"]) for r in rows] == [
        ("frame", "kernel", None),
        ("exec", "kernel", 0),
    ]
    both = trace_diff.records(doc, {"flow", "kernel"})
    assert [r["parent"] for r in both] == [None, 0, None, 2]


@pytest.mark.parametrize("argv", [[], ["one.json"]], ids=["none", "one"])
def test_two_paths_are_required(argv, capsys):
    assert trace_diff.main(argv) == 2
    assert "usage" in capsys.readouterr().err
