"""Cold set-up of one workload: a fresh interpreter imports amalg and builds
what the workload's timed phase shares.  run.py times this whole process.

    python3 perfbench/cold_setup.py <workload>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

workloads.make(sys.argv[1], ROOT).setup()
