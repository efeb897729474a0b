"""The unit timer of ``tools/bench.py units``: its core on each workload's
small pass, in this process, its table, and the child policy it shares with
``bench.py pairs``, with the tool run as a script."""

import importlib.util
import shutil
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

_PATH = ROOT / "tools" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

from amalg import iso  # noqa: E402
from amalg.reporting import first_witness  # noqa: E402
from wl_verify import EXPECTED_CHECKS  # noqa: E402

FAMILIES = {"upper", "lower", "fibonacci", "cfrac", "random"}
RECORDS = ["set-up", "verify_exact_sequence", *EXPECTED_CHECKS[3:]]


@cache
def small_times(workload):
    return bench.unit_times(workload, seed=5, repeats=2, small=True)


def test_the_small_decompose_pass_is_timed_per_family_and_per_call():
    times = small_times("decompose")
    assert set(times) == FAMILIES
    assert all(list(t) == ["ops", "gl2_decompose", "form_to_letters"] for t in times.values())
    assert sum(t["ops"] for t in times.values()) == 104  # every op of the pass, once
    assert all(s > 0 for t in times.values() for part, s in t.items() if part != "ops")
    lines = bench.table(times, times).splitlines()
    assert lines[-1].split()[:3] == ["total", "all", "104"]
    assert all(line.split()[-1] == "1.00" for line in lines[1:])


def test_the_small_verify_pass_is_timed_per_instance_and_per_record():
    times = small_times("verify")
    assert iso.first_witness is first_witness  # unwrapped after the passes
    # The small pass: the flagship, eight times, and the incompatible
    # instance, rejected at set-up, once.
    assert {name: list(t) for name, t in times.items()} == {
        "flagship": ["ops", *RECORDS], "Z6*Z3Z6-incompatible": ["ops", "set-up"]}
    assert times["flagship"]["ops"] == 8 and times["Z6*Z3Z6-incompatible"]["ops"] == 1
    assert all(s > 0 for t in times.values() for part, s in t.items() if part != "ops")
    lines = bench.table(times, times).splitlines()
    assert lines[-1].split()[:3] == ["total", "all", "9"]
    assert all(line.split()[-1] == "1.00" for line in lines[1:])


@pytest.mark.parametrize("workload", ["decompose", "verify"])
def test_the_table_prints_every_cell_and_each_sum_of_them(workload):
    parent = small_times(workload)
    change = {g: {q: s if q == "ops" else 2 * s for q, s in t.items()} for g, t in parent.items()}
    rows = {tuple(line.split()[:2]): line.split()[2:]
            for line in bench.table(parent, change).splitlines()[1:]}
    groups = sorted(parent)
    parts = list(dict.fromkeys(q for g in groups for q in parent[g] if q != "ops"))

    def sums(cells):
        return [f"{sum(side[g][q] for g, q in cells) * 1e3:.2f}" for side in (parent, change)]

    expected = {("all", q): sums([(g, q) for g in groups if q in parent[g]]) + ["2.00"]
                for q in parts}
    for g in groups:
        own = [(g, q) for q in parent[g] if q != "ops"]
        expected[g, "all"] = [str(parent[g]["ops"]), *sums(own), "2.00"]
        expected.update({cell: sums([cell]) + ["2.00"] for cell in own})
    expected["total", "all"] = [str(sum(parent[g]["ops"] for g in groups)),
                                *sums([(g, q) for g in groups for q in parts if q in parent[g]]),
                                "2.00"]
    assert rows == expected


def _run_units(tmp_path, *args):
    """``bench.py units parent change ARGS`` in ``tmp_path``."""
    return subprocess.run([sys.executable, str(_PATH), "units", "parent", "change", *args],
                          cwd=tmp_path, capture_output=True, text=True)


def test_a_bytecode_cache_stops_the_tool_before_any_child(tmp_path):
    cache = tmp_path / "parent" / "src" / "amalg" / "__pycache__"
    cache.mkdir(parents=True)
    (tmp_path / "change").mkdir()
    proc = _run_units(tmp_path, "--workload", "verify")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "bench: bytecode cache parent/src/amalg/__pycache__ would let its"
        " checkout's set-up skip compiling; remove it and run again"]
    assert cache.is_dir()  # nothing deleted


@pytest.mark.parametrize("workload", ["decompose", "verify"])
def test_a_failing_child_stops_the_tool_with_one_line_naming_it(tmp_path, workload):
    # Empty checkouts: the child cannot import perfbench's workload.
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    proc = _run_units(tmp_path, "--workload", workload, "--rounds", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"bench: child in parent exited 1: ModuleNotFoundError: No module named 'wl_{workload}'"]


def test_an_unknown_workload_exits_2(tmp_path):
    proc = _run_units(tmp_path, "--workload", "cli")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --workload: invalid choice: 'cli'" in proc.stderr


def test_relative_checkout_paths_are_read_from_the_working_directory(tmp_path):
    for name in ("parent", "change"):
        for top in ("src", "perfbench"):
            shutil.copytree(ROOT / top, tmp_path / name / top,
                            ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_units(tmp_path, "--workload", "decompose", "--rounds", "1", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split()[:3] == ["total", "all", "104"]


@pytest.mark.parametrize("command", [[], ["pairs"], ["units"]], ids=["bench", "pairs", "units"])
def test_each_tool_runs_as_a_script_from_outside_the_repo(tmp_path, command):
    proc = subprocess.run([sys.executable, str(_PATH), *command, "--help"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")
