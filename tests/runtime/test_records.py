"""The runtime's three telemetry records keep their contract.

``ReconfigurationRecord``, ``InvocationRecord`` and ``TimelineEvent``
are built hundreds of times per deployment, so they are named tuples.
Their public face is the one they had as frozen dataclasses: the same
fields in the same order with the same defaults, the same derived
properties, immutability, hashing, value equality, pickling and the
same repr, character for character.
"""

import pickle

import pytest

from repro.runtime.executor import TimelineEvent
from repro.runtime.manager import InvocationRecord
from repro.runtime.prc import ReconfigurationRecord

#: ``(record type, positional fields, keyword fields, repr)``; each repr
#: is the one the frozen-dataclass records printed for the same values.
CASES = (
    (
        ReconfigurationRecord,
        ("rt0", "fft", 1024, 0.25, 0.75),
        {},
        "ReconfigurationRecord(tile_name='rt0', mode_name='fft', "
        "size_bytes=1024, start_s=0.25, end_s=0.75)",
    ),
    (
        InvocationRecord,
        ("rt0", "fft", 0.5, 0.25, 1.0, 1.5),
        {},
        "InvocationRecord(tile_name='rt0', mode_name='fft', requested_s=0.5, "
        "reconfig_s=0.25, start_exec_s=1.0, end_exec_s=1.5, "
        "failed_attempts=0, hang_attempts=0)",
    ),
    (
        InvocationRecord,
        ("rt1", "warp", 0.0, 0.0, 0.125, 0.5),
        {"failed_attempts": 1, "hang_attempts": 2},
        "InvocationRecord(tile_name='rt1', mode_name='warp', requested_s=0.0, "
        "reconfig_s=0.0, start_exec_s=0.125, end_exec_s=0.5, "
        "failed_attempts=1, hang_attempts=2)",
    ),
    (
        TimelineEvent,
        ("f0:fft", "rt0", "exec", 1.0, 1.5),
        {},
        "TimelineEvent(task='f0:fft', worker='rt0', kind='exec', "
        "start_s=1.0, end_s=1.5)",
    ),
)


def build(case):
    record_type, args, kwargs, _repr = case
    return record_type(*args, **kwargs)


def case_id(case):
    return case[0].__name__ + ("+kw" if case[2] else "")


def test_field_order():
    assert ReconfigurationRecord._fields == (
        "tile_name", "mode_name", "size_bytes", "start_s", "end_s",
    )
    assert InvocationRecord._fields == (
        "tile_name", "mode_name", "requested_s", "reconfig_s",
        "start_exec_s", "end_exec_s", "failed_attempts", "hang_attempts",
    )
    assert TimelineEvent._fields == ("task", "worker", "kind", "start_s", "end_s")


def test_defaults():
    assert ReconfigurationRecord._field_defaults == {}
    assert TimelineEvent._field_defaults == {}
    assert InvocationRecord._field_defaults == {
        "failed_attempts": 0,
        "hang_attempts": 0,
    }
    record = InvocationRecord("rt0", "fft", 0.5, 0.25, 1.0, 1.5)
    assert (record.failed_attempts, record.hang_attempts) == (0, 0)


def test_properties():
    assert ReconfigurationRecord("rt0", "fft", 1024, 0.25, 0.75).duration_s == 0.5
    assert TimelineEvent("f0:fft", "rt0", "exec", 1.0, 1.5).duration_s == 0.5
    record = InvocationRecord("rt0", "fft", 0.5, 0.25, 1.0, 1.5)
    assert record.exec_time_s == 1.5 - 1.0
    # Requested at 0.5, 0.25 s of reconfiguration before the 1.0 start.
    assert record.wait_s == 1.0 - 0.25 - 0.5


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_keywords_build_the_same_record(case):
    record_type, args, kwargs, _repr = case
    fields = dict(zip(record_type._fields, args), **kwargs)
    assert record_type(**fields) == build(case)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_assignment_raises(case):
    record = build(case)
    for name in record._fields + ("note",):
        with pytest.raises(AttributeError):
            setattr(record, name, "other")
    assert record == build(case)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_hashable_and_equal_for_equal_fields(case):
    first, second = build(case), build(case)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    changed = first._replace(**{first._fields[0]: "other"})
    assert changed != first


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_pickle_round_trip(case):
    record = build(case)
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(record)
    assert restored == record


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_repr_is_unchanged(case):
    assert repr(build(case)) == case[3]
