"""The benchmark's contract with the library: what perfbench/ calls and reads.

Each workload's smallest pass runs in this process, as the benchmark's own
self-check runs it: every output must pass the workload's check and every
corrupted output must fail it.  A change to a name, a signature or a result
type that the benchmark relies on fails here, not in a benchmark run.  So
does an entry point that the ``--trace`` mode's tracer can no longer wrap.
"""

import importlib
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_small_pass_outputs_pass_and_corrupted_outputs_fail(name):
    wl = workloads.make(name, ROOT)
    wl.setup()
    run = wl.run_in_process if name == "cli" else wl.run
    ops = wl.make_pass(random.Random(1), small=True)
    assert ops
    for op in ops:
        out = run(op)
        assert wl.check(op, out) is None, op
        assert wl.check(op, wl.corrupt(op, out)) is not None, op


def test_tracer_wraps_and_restores_every_entry_point():
    home = {(m, n): importlib.import_module(f"amalg.{m}") for m, n in tracer.ENTRY_POINTS}
    originals = {key: getattr(mod, key[1], None) for key, mod in home.items()}
    assert [key for key, fn in originals.items() if not callable(fn)] == []
    with tracer.Tracer().installed():
        assert all(getattr(mod, key[1]) is not originals[key] for key, mod in home.items())
    assert all(getattr(mod, key[1]) is originals[key] for key, mod in home.items())
