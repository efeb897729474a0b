"""The per-family decompose timer of tools/decompose_families.py: its core on
the small pass, in this process, and the child policy it shares with
tools/perf_pairs.py, with both tools run as scripts."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

_PATH = ROOT / "tools" / "decompose_families.py"
_SPEC = importlib.util.spec_from_file_location("decompose_families", _PATH)
decompose_families = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(decompose_families)

FAMILIES = {"upper", "lower", "fibonacci", "cfrac", "random"}


def test_the_small_pass_is_timed_per_family_and_per_call():
    times = decompose_families.family_times(seed=5, repeats=2, small=True)
    assert set(times) == FAMILIES
    assert sum(n for n, _, _ in times.values()) == 104  # every op of the pass, once
    assert all(decompose > 0 and render > 0 for _, decompose, render in times.values())
    lines = decompose_families.table(times, times).splitlines()
    assert [line.split()[0] for line in lines] == ["family", *sorted(FAMILIES), "total"]
    assert lines[-1].split()[1] == "104"
    assert all(line.split()[4] == line.split()[7] == "1.00" for line in lines[1:])


def test_a_bytecode_cache_stops_the_tool_before_any_child(tmp_path):
    cache = tmp_path / "parent" / "src" / "amalg" / "__pycache__"
    cache.mkdir(parents=True)
    (tmp_path / "change").mkdir()
    proc = subprocess.run([sys.executable, str(_PATH), "parent", "change"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "decompose_families: bytecode cache parent/src/amalg/__pycache__ would let its"
        " checkout's set-up skip compiling; remove it and run again"]
    assert cache.is_dir()  # nothing deleted


def test_a_failing_child_stops_the_tool_with_one_line_naming_it(tmp_path):
    # Empty checkouts: the child cannot import perfbench's decompose workload.
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    proc = subprocess.run([sys.executable, str(_PATH), "parent", "change", "--rounds", "1"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "decompose_families: child in parent exited 1:"
        " ModuleNotFoundError: No module named 'wl_decompose'"]


@pytest.mark.parametrize("tool", ["decompose_families.py", "perf_pairs.py", "verify_records.py"])
def test_each_tool_runs_as_a_script_from_outside_the_repo(tmp_path, tool):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / tool), "--help"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")
