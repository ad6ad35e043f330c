"""Shared infrastructure for the table/figure regeneration benches.

Every bench regenerates one table or figure of the paper: it computes
the rows with the library, prints them (visible with ``pytest -s``),
writes them under ``benchmarks/results/``, asserts the qualitative
shape the paper reports, and times the regeneration via
pytest-benchmark.
"""

from __future__ import annotations

import pathlib
import time

import pytest

import repro.api
from repro.obs.baseline import write_summary

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


class TableWriter:
    """Collects formatted rows and persists them per experiment.

    Besides the human table (``<experiment>.txt``), every key value
    registered via :meth:`metric` lands in a machine-readable
    ``BENCH_<experiment>.json`` summary — the input of
    ``repro bench-diff`` against the committed baselines under
    ``benchmarks/baselines/``. Metrics must be the deterministic
    modelled values (minutes, counts, latencies); wall-clock goes into
    the summary's ``meta`` automatically and is never compared.
    """

    def __init__(self, experiment: str) -> None:
        self.experiment = experiment
        self.lines: list = []
        self.metrics: dict = {}
        self._started = time.perf_counter()

    def row(self, text: str = "") -> None:
        self.lines.append(text)

    def header(self, title: str) -> None:
        self.row("=" * 78)
        self.row(title)
        self.row("=" * 78)

    def metric(self, name: str, value: float) -> None:
        """Register one baseline-checkable value of this experiment."""
        self.metrics[name] = float(value)

    def flush(self) -> str:
        text = "\n".join(self.lines) + "\n"
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{self.experiment}.txt").write_text(text)
        if self.metrics:
            write_summary(
                RESULTS_DIR,
                self.experiment,
                self.metrics,
                meta={"wall_s": round(time.perf_counter() - self._started, 6)},
            )
        print("\n" + text)
        return text


@pytest.fixture
def table_writer(request):
    """A writer named after the requesting bench test (one output file
    per printing test; modules with a single printing test keep their
    module-named file)."""
    name = request.node.name.replace("test_", "", 1)
    return TableWriter(name)


@pytest.fixture(scope="session")
def platform():
    """One shared platform across benches."""
    return repro.api.platform()
