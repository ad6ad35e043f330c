"""Byte pins of the health verbs' output: ``repro monitor`` and ``repro dashboard``.

Each case runs the CLI in process and pins its exit code and the
sha256 of everything it printed to stdout. The cases cover both
verbs, text and JSON, healthy and under targeted CRC faults on
``rt1``'s change-detection transfers (two faults breach the
deploy-failure SLO, nine also trip the failure-rate watchdog), the
dashboard's ``--follow`` replay and a windowed SLO evaluation. A change
to how the health verdict is computed must leave every pin unchanged.

To print the current pins (after a deliberate change to what the verbs
print): ``PYTHONPATH=src python tests/integration/test_health_cli_pins.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from repro.cli import main

CRC2 = ["--inject", "runtime:rt1:change_detection:crc:2"]
CRC9 = ["--inject", "runtime:rt1:change_detection:crc:9"]
MONITOR = ["monitor", "soc_y", "--frames", "2"]
MONITOR_JSON = MONITOR + ["--json", "--events", "5"]
DASHBOARD = ["dashboard", "soc_y", "--frames", "2", "--seed", "7"]

CASES = {
    "monitor": MONITOR,
    "monitor-crc2": MONITOR + CRC2,
    "monitor-crc9": MONITOR + CRC9,
    "monitor-json": MONITOR_JSON,
    "monitor-json-crc2": MONITOR_JSON + CRC2,
    "monitor-json-crc9": MONITOR_JSON + CRC9,
    "dashboard": DASHBOARD,
    "dashboard-crc2": DASHBOARD + CRC2,
    "dashboard-json": DASHBOARD + ["--json"],
    "dashboard-json-crc2": DASHBOARD + ["--json"] + CRC2,
    "dashboard-follow-json": [
        "dashboard", "soc_y", "--frames", "1", "--seed", "7", "--follow", "--json",
    ],
    "dashboard-window-json": DASHBOARD + ["--window", "0.1", "--json"],
    "dashboard-window-json-crc2": DASHBOARD + ["--window", "0.1", "--json"] + CRC2,
}

PINS = {
    "monitor": [
        0,
        "1a775d1d2d6a40577f1089d53e571911d6c3bf4d9f31dc37b36eaf01d0263d27",
    ],
    "monitor-crc2": [
        1,
        "f2e6e17b1aad3da047a7063b80157d6314bf6098c48c70befe8ef39afb2bef9d",
    ],
    "monitor-crc9": [
        1,
        "e8ac67bd11a4907514a82b357b35df4ffc3d016a76f251224a4971e962d76931",
    ],
    "monitor-json": [
        0,
        "a55b3bf83a7b89f1e9d8de02ad37231455d33e9aca429f55edfa6cf770531b94",
    ],
    "monitor-json-crc2": [
        1,
        "db2665fba153b70263d92c331948ffdf7df0767874a746a0d869e2930c897416",
    ],
    "monitor-json-crc9": [
        1,
        "06c23b8a8d890c9c038ee195bed1b43a9626819c753348d271e458e0428ff2b6",
    ],
    "dashboard": [
        0,
        "5ff5d0aef9c2431e086c0458757340f2111feb6e31675692d5133c6534195d11",
    ],
    "dashboard-crc2": [
        1,
        "49bd0dd700ca65bb166e880084fd60dd330e84b162bbc6a4285843214adcd0d0",
    ],
    "dashboard-json": [
        0,
        "95c9c9d78e79fddf9282675eca6c16afb998e41b030bace1e7714e604029fad6",
    ],
    "dashboard-json-crc2": [
        1,
        "508349b6575801d93cf2a4682eee98fa5208309a10c677d53cb9ec97506217c8",
    ],
    "dashboard-follow-json": [
        0,
        "8614cb58b07d16cc8685fb44c1f5c5ae3ea4c24ed285f3d82207aad0c881d406",
    ],
    "dashboard-window-json": [
        0,
        "d280c740e19375f63de5613704e9f8412c85e34ab353e2554c087dcc4ca95983",
    ],
    "dashboard-window-json-crc2": [
        2,
        "3c2640974876cf62a5663724b6c0c11eb8ecf5ceed76fe8aeaf968c818331b5e",
    ],
}


def run(argv):
    """Exit code and stdout sha256 of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_pinned(case):
    code, digest = run(CASES[case])
    assert [code, digest] == PINS[case]


if __name__ == "__main__":
    print(json.dumps({case: list(run(argv)) for case, argv in CASES.items()}, indent=4))
