"""Concurrent writers of one checkpoint directory.

Two attempts of one build can share a checkpoint directory (a requeued
job resumes where its predecessor left off while that one is still
writing). Every file a checkpointer writes goes through a writer-unique
tmp name and one rename, so neither writer can rename the other's
half-written file into place: both keep writing without errors, and a
reader only ever sees a whole manifest.
"""

import json
import threading

from repro.flow.checkpoint import MANIFEST_NAME, FlowCheckpointer

#: Stage saves per writer; each rewrites a manifest of about 200 KB.
WRITES = 150


def test_two_writers_one_reader_never_tear_the_manifest(tmp_path):
    writers = [FlowCheckpointer(tmp_path, "build-key") for _ in range(2)]
    detail = "x" * 200_000
    errors = []
    torn = []
    done = threading.Event()
    start = threading.Barrier(3)

    def write(checkpointer, index):
        start.wait()
        try:
            for round_index in range(WRITES):
                checkpointer.save_stage(
                    f"stage{index}", round_index, wall_minutes=1.0, detail=detail
                )
        except OSError as error:
            errors.append(error)

    def read():
        start.wait()
        manifest = tmp_path / MANIFEST_NAME
        while not done.is_set():
            try:
                text = manifest.read_text()
            except FileNotFoundError:
                continue
            try:
                json.loads(text)
            except ValueError:
                torn.append(len(text))

    threads = [
        threading.Thread(target=write, args=(writer, index))
        for index, writer in enumerate(writers)
    ]
    reader = threading.Thread(target=read)
    for thread in (*threads, reader):
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    done.set()
    reader.join(timeout=120)
    assert errors == [] and torn == []
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        MANIFEST_NAME,
        "stage0.pkl",
        "stage1.pkl",
    ]
    final = FlowCheckpointer(tmp_path, "build-key")
    loaded = [final.load_stage(stage) for stage in ("stage0", "stage1")]
    assert (WRITES - 1, 1.0, detail) in loaded
