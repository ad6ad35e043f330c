"""The one subprocess launcher for ``python -m repro serve``.

The kill-and-restart tests and the chaos fuzzer drive the real daemon
as a child process so that SIGKILL and SIGTERM hit a whole interpreter.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def start_daemon(state_dir, *extra_args):
    """Start a one-worker daemon on an ephemeral port.

    Returns ``(process, port)`` once the daemon prints its listening
    banner; raises ``AssertionError`` with the banner if it dies first.
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--state-dir", str(state_dir),
            "--port", "0", "--workers", "1", "--jobs", "1",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    banner = []
    while True:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                "daemon died before listening:\n" + "".join(banner)
            )
        banner.append(line)
        match = re.search(r"service listening on http://[^:]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))
