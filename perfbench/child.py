"""Timed child processes.

``subprocess.run(..., timeout=t)`` waits by polling with sleeps of up to 50
ms, which would round a child's wall time up to the next poll.  ``run``
waits without a timeout, so the time is exact; a child that hangs is stopped
by run.py's overall deadline, and killed and reaped here on the way out.
"""

from __future__ import annotations

import subprocess
import time
from pathlib import Path


def run(argv: list[str], stdin: bytes | None, cwd: Path,
        env: dict[str, str] | None = None) -> tuple[int, bytes, bytes, float]:
    """(exit code, stdout, stderr, wall seconds) of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=cwd, env=env)
    try:
        out, err = proc.communicate(stdin)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out, err, time.perf_counter() - t0
