"""Start-up footprint: what importing the public entry points loads.

Every ``repro`` verb, benchmark set-up and service pool worker starts
with ``import repro.api``, so each third-party package it pulls in is
paid in import time and resident memory by all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Prints the top-level non-stdlib packages that importing the entry
#: points adds (packages a ``.pth`` file loads at interpreter start
#: are there before the snapshot and do not count).
PROBE = """
import json, sys
before = set(sys.modules)
import repro.api, repro.cli
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(
    name for name in added
    if name not in sys.stdlib_module_names
    and name != "repro"
    and not name.startswith("__")
)))
"""


def test_entry_points_load_numpy_and_no_other_third_party_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=60,
    )
    assert json.loads(out.stdout) == ["numpy"]
