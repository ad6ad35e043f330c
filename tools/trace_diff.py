"""Compare two Chrome trace files on the process rows they share.

Usage::

    PYTHONPATH=src python -m repro deploy soc_x --frames 2 --trace old.json
    ...                                                    --trace new.json
    python tools/trace_diff.py old.json new.json

A record is named by its process and thread names rather than its
pid/tid (which number the rows a trace holds, so a new row renumbers
the others), and its ``span_id``/``parent_id`` are replaced by its
position among the compared records. The records on the rows both
traces hold must then be equal, in order and bit for bit; the rows
only one trace holds are listed with their record counts, and so is
any metadata key that differs. Exit status 0 when the shared rows are
equal, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Set, Tuple


def _rows(doc: Dict) -> Tuple[Dict[int, str], Dict[Tuple[int, int], str]]:
    procs, threads = {}, {}
    for event in doc["traceEvents"]:
        if event["name"] == "process_name":
            procs[event["pid"]] = event["args"]["name"]
        elif event["name"] == "thread_name":
            threads[(event["pid"], event["tid"])] = event["args"]["name"]
    return procs, threads


def records(doc: Dict, rows: Set[str]) -> List[Dict]:
    """The records on ``rows``, named by row/thread, linked by position."""
    procs, threads = _rows(doc)
    kept = [
        e for e in doc["traceEvents"] if e["ph"] != "M" and procs[e["pid"]] in rows
    ]
    position = {e["args"]["span_id"]: i for i, e in enumerate(kept)}
    out = []
    for event in kept:
        args = dict(event["args"])
        del args["span_id"]
        parent = args.pop("parent_id", None)
        record = {k: v for k, v in event.items() if k not in ("pid", "tid", "args")}
        record["row"] = procs[event["pid"]]
        record["thread"] = threads[(event["pid"], event["tid"])]
        record["args"] = args
        record["parent"] = None if parent is None else position.get(parent, "elsewhere")
        out.append(record)
    return out


def row_counts(doc: Dict) -> Dict[str, int]:
    procs, _ = _rows(doc)
    counts: Dict[str, int] = {}
    for event in doc["traceEvents"]:
        if event["ph"] != "M":
            counts[procs[event["pid"]]] = counts.get(procs[event["pid"]], 0) + 1
    return counts


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: trace_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        old = json.load(handle)
    with open(argv[1]) as handle:
        new = json.load(handle)
    old_rows, new_rows = row_counts(old), row_counts(new)
    shared = set(old_rows) & set(new_rows)
    a, b = records(old, shared), records(new, shared)
    equal = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    print(f"shared rows {sorted(shared)}: {len(a)} vs {len(b)} records, "
          f"{'equal' if equal else 'DIFFERENT'}")
    if not equal:
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                print(f"  first difference at record {i}:\n    {x}\n    {y}")
                break
    for label, mine, theirs in (("old", old_rows, new_rows), ("new", new_rows, old_rows)):
        for row in sorted(set(mine) - set(theirs)):
            print(f"only in {label}: row {row!r}, {mine[row]} records")
    for key in sorted(set(old["metadata"]) | set(new["metadata"])):
        if old["metadata"].get(key) != new["metadata"].get(key):
            print(f"metadata {key}: {old['metadata'].get(key)!r} -> "
                  f"{new['metadata'].get(key)!r}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
