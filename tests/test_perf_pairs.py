"""The pair summary of ``tools/bench.py pairs``, on fixed numbers, and its exit
when a run fails (no perfbench run)."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

OPS = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}
P50 = {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.24}


def test_summary_of_a_higher_is_better_metric():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [11.0, 12.0, 10.0, 14.0, 9.5]
    assert bench.summarize(OPS, parent, change) == {
        "parent_median": 11.0,
        "parent_quartiles": (10.0, 12.0),
        "change_median": 11.0,
        "wins": 3,  # the tie at 12.0 counts for neither side
        "pairs": 5,
        "within_bound": True,
        "gain": False,
    }


def test_summary_of_a_lower_is_better_metric_outside_its_bound():
    parent = [1.0, 1.0, 1.2, 0.8]
    change = [1.3, 1.2, 1.4, 0.7]
    s = bench.summarize(P50, parent, change)
    assert s["parent_median"] == 1.0 and s["change_median"] == 1.25
    assert s["parent_quartiles"] == (0.95, 1.05)
    assert s["wins"] == 1
    assert s["within_bound"] is False  # 25% slower against a bound of 24%
    assert bench.summarize(P50, parent, [1.24, 1.2, 1.4, 0.7])["within_bound"] is True


def test_report_lists_every_run_and_the_verdicts():
    parent = [{"ops_per_s": 10.0, "p50_ms": 1.0}, {"ops_per_s": 12.0, "p50_ms": 1.2}]
    change = [{"ops_per_s": 6.0, "p50_ms": 0.9}, {"ops_per_s": 7.0, "p50_ms": 1.0}]
    assert bench.report([OPS, P50], parent, change).splitlines() == [
        "ops_per_s (1/s, higher is better, bound 0.2)",
        "  parent: 10 12",
        "  change: 6 7",
        "  parent median 11 [10.5, 11.5] -> change median 6.5 (-40.9%)",
        "  change wins 0 of 2 pairs; within bound: NO; gain: no",
        "p50_ms (ms, lower is better, bound 0.24)",
        "  parent: 1 1.2",
        "  change: 0.9 1",
        "  parent median 1.1 [1.05, 1.15] -> change median 0.95 (-13.6%)",
        "  change wins 2 of 2 pairs; within bound: yes; gain: yes",
    ]


def test_gain_needs_nine_wins_in_ten_and_a_median_gain_beyond_the_parent_spread():
    parent = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    # Parent quartiles 9.825 and 10.175: a spread of 0.35.
    wins_all = [x + 0.5 for x in parent]
    assert bench.summarize(OPS, parent, wins_all)["gain"] is True
    too_close = [x + 0.3 for x in parent]  # median gain 0.3, within the spread
    assert bench.summarize(OPS, parent, too_close)["gain"] is False
    eight_wins = wins_all[:8] + [9.0, 9.0]  # the last two pairs lost
    assert bench.summarize(OPS, parent, eight_wins)["wins"] == 8
    assert bench.summarize(OPS, parent, eight_wins)["gain"] is False
    nine_wins = wins_all[:9] + [9.0]
    assert bench.summarize(OPS, parent, nine_wins)["gain"] is True
    # Lower is better: the same runs are a gain read the other way round.
    assert bench.summarize(P50, wins_all, parent)["gain"] is True
    assert bench.summarize(P50, parent, wins_all)["gain"] is False


def test_verdict_names_each_metric_outside_its_bound():
    parent = [{"ops_per_s": 10.0, "p50_ms": 1.0}, {"ops_per_s": 12.0, "p50_ms": 1.2}]
    within = [{"ops_per_s": 9.0, "p50_ms": 1.3}, {"ops_per_s": 11.0, "p50_ms": 1.3}]
    assert bench.verdict([OPS, P50], parent, within) == "all metrics within bound"
    slow = [{"ops_per_s": 6.0, "p50_ms": 1.4}, {"ops_per_s": 7.0, "p50_ms": 1.4}]
    assert bench.verdict([OPS, P50], parent, slow) == "outside bound: ops_per_s, p50_ms"
    assert bench.verdict([P50], parent, slow) == "outside bound: p50_ms"


def test_main_ends_with_the_verdict_line(tmp_path):
    result = "print('{\"metrics\": {\"ops_per_s\": {\"value\": 10}}}')\n"
    proc = _run_pairs(tmp_path, {"parent": result, "change": result}, [OPS])
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "all metrics within bound"


def test_main_prints_the_set_up_cpu_of_each_side_before_the_verdict(tmp_path):
    # Each cold set-up child logs its checkout and workload; the parent's
    # also burns 30 ms of CPU, the change's none.
    burn = ("import sys, time\n"
            "from pathlib import Path\n"
            "with open(Path('..', 'children.log'), 'a') as log:\n"
            "    log.write(f'{Path.cwd().name} {sys.argv[1]}\\n')\n"
            "end = time.process_time() + {seconds}\n"
            "while time.process_time() < end:\n"
            "    pass\n")
    for name, seconds in (("parent", 0.03), ("change", 0.0)):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "cold_setup.py").write_text(
            burn.replace("{seconds}", str(seconds)))
    result = "print('{\"metrics\": {\"ops_per_s\": {\"value\": 10}}}')\n"
    proc = _run_pairs(tmp_path, {"parent": result, "change": result}, [OPS])
    assert proc.returncode == 0
    *_, cpu, last = proc.stdout.splitlines()
    assert last == "all metrics within bound"
    match = re.fullmatch(
        r"set-up CPU, median of 20 cold set-up children each \(user\+sys\):"
        r" parent ([\d.]+) ms -> change ([\d.]+) ms \([+-][\d.]+%\)", cpu)
    assert match, cpu
    parent_ms, change_ms = map(float, match.groups())
    assert parent_ms - change_ms > 20
    # 20 children per side, alternating: parent first in even rounds.
    log = (tmp_path / "children.log").read_text().splitlines()
    assert log == ["parent verify", "change verify", "change verify", "parent verify"] * 10


def test_main_skips_the_set_up_cpu_without_a_cold_set_up_script(tmp_path):
    result = "print('{\"metrics\": {\"ops_per_s\": {\"value\": 10}}}')\n"
    proc = _run_pairs(tmp_path, {"parent": result, "change": result}, [OPS])
    assert proc.stdout.splitlines()[-2:] == [
        "set-up CPU: skipped, no perfbench/cold_setup.py in parent, change",
        "all metrics within bound",
    ]


def test_main_prints_the_src_line_total_of_each_side_before_the_set_up_cpu(tmp_path):
    for name, files in (("parent", {"a.py": "x\n" * 3, "b.py": "y\n"}),
                        ("change", {"a.py": "x\n", "notes.txt": "z\n" * 9})):
        (tmp_path / name / "src" / "amalg").mkdir(parents=True)
        for file, text in files.items():
            (tmp_path / name / "src" / "amalg" / file).write_text(text)
    result = "print('{\"metrics\": {\"ops_per_s\": {\"value\": 10}}}')\n"
    proc = _run_pairs(tmp_path, {"parent": result, "change": result}, [OPS])
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-3] == "src/amalg/*.py lines: parent 4 -> change 1 (-3)"


def test_a_failing_set_up_child_exits_1_with_one_line(tmp_path):
    for name, script in (("parent", ""), ("change", "raise SystemExit('no such workload')\n")):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "cold_setup.py").write_text(script)
    result = "print('{\"metrics\": {}}')\n"
    proc = _run_pairs(tmp_path, {"parent": result, "change": result})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        "bench: set-up child in change exited 1: no such workload")


def _run_pairs(tmp_path, runs, specs=()):
    """``bench.py pairs`` on two checkouts whose perfbench/run.py are ``runs``."""
    for name, script in runs.items():
        (tmp_path / name / "perfbench").mkdir(parents=True, exist_ok=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(script)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": list(specs)}))
    return subprocess.run(
        [sys.executable, str(_PATH), "pairs", "parent", "change", "--workload", "verify",
         "--pairs", "2", "--seconds", "1", "--seed", "7"],
        cwd=tmp_path, capture_output=True, text=True,
    )


def test_a_failing_run_exits_1_with_one_line(tmp_path):
    # The parent's run passes; the change's dies with a traceback and exit 3.
    proc = _run_pairs(tmp_path, {
        "parent": "print('{\"metrics\": {}}')\n",
        "change": "import sys\n"
                  "print('Traceback (most recent call last):', file=sys.stderr)\n"
                  "print('ValueError: no such workload', file=sys.stderr)\n"
                  "sys.exit(3)\n",
    })
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == (
        "bench: run in change with seed 7 exited 3: ValueError: no such workload")


@pytest.mark.parametrize("cache", [
    "parent/src/amalg/__pycache__", "change/perfbench/__pycache__", "change/src/__pycache__",
])
def test_a_bytecode_cache_in_either_checkout_stops_the_tool_before_any_run(tmp_path, cache):
    (tmp_path / cache).mkdir(parents=True)
    (tmp_path / cache / "iso.cpython-311.pyc").write_bytes(b"")
    result = "print('{\"metrics\": {}}')\n"
    proc = _run_pairs(tmp_path, {"parent": result, "change": result})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"bench: bytecode cache {cache} would let its checkout's set-up skip"
        " compiling; remove it and run again"]
    assert (tmp_path / cache / "iso.cpython-311.pyc").is_file()  # nothing deleted


def test_every_bytecode_cache_is_named_in_the_one_line(tmp_path):
    # A plain perfbench run leaves both of these in its checkout.
    caches = ["parent/src/amalg/__pycache__", "parent/perfbench/__pycache__"]
    for cache in caches:
        (tmp_path / cache).mkdir(parents=True)
    result = "print('{\"metrics\": {}}')\n"
    proc = _run_pairs(tmp_path, {"parent": result, "change": result})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "bench: bytecode caches parent/src/amalg/__pycache__, parent/perfbench/__pycache__"
        " would let their checkouts' set-up skip compiling; remove them and run again"]
    assert all((tmp_path / cache).is_dir() for cache in caches)  # nothing deleted


def test_the_runs_leave_no_bytecode_cache(tmp_path, monkeypatch):
    # Each run imports a module of its own checkout, which would otherwise
    # write perfbench/__pycache__ there.
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    for name in ("parent", "change"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "helper.py").write_text("RESULT = '{\"metrics\": {}}'\n")
    run = "import sys\nsys.path.insert(0, 'perfbench')\nimport helper\nprint(helper.RESULT)\n"
    proc = _run_pairs(tmp_path, {"parent": run, "change": run})
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.glob("**/__pycache__")) == []


@pytest.mark.parametrize("script, line", [
    ("", "(no stdout)"),
    ("print('{\"metrics\": {}}')\nprint('done')\n", "done"),
    ("print('{\"metrics\": {}')\n", '{"metrics": {}'),
    ("print('[1, 2]')\n", "[1, 2]"),
    ("print('{\"metrics\": {\"ops_per_s\": 3}}')\n", '{"metrics": {"ops_per_s": 3}}'),
], ids=["empty", "not-json", "cut-short", "not-an-object", "no-value"])
def test_a_run_without_a_json_result_exits_1_with_one_line(tmp_path, script, line):
    # The change's run exits 0, but its last line is not a result.
    proc = _run_pairs(tmp_path, {"parent": "print('{\"metrics\": {}}')\n", "change": script})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "pair 1/2 seed 7 parent: done",
        f"bench: run in change with seed 7 exited 0 without a JSON result: {line}",
    ]


@pytest.mark.parametrize("parent, change, specs, line", [
    ("{}", "{}", [OPS], "run in parent with seed 7 exited 0 without metrics ops_per_s"),
    ("{}", "{}", [OPS, P50],
     "run in parent with seed 7 exited 0 without metrics ops_per_s, p50_ms"),
    ('{"p50_ms": {"value": 1}}', '{"ops_per_s": {"value": 10}}', [OPS, P50],
     "run in parent with seed 7 exited 0 without metrics ops_per_s"),
], ids=["one", "each", "one-of-two"])
def test_a_run_without_an_end_to_end_metric_exits_1_before_any_later_run(
        tmp_path, parent, change, specs, line):
    # Each run logs its checkout; the first run, in the parent, lacks a metric
    # that the change's BENCHMARK.json names.
    run = ("from pathlib import Path\n"
           "with open(Path('..', 'runs.log'), 'a') as log:\n"
           "    log.write(Path.cwd().name + '\\n')\n"
           "print('{\"metrics\": METRICS}')\n")
    proc = _run_pairs(tmp_path, {"parent": run.replace("METRICS", parent),
                                 "change": run.replace("METRICS", change)}, specs)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"bench: {line}"]
    assert (tmp_path / "runs.log").read_text().splitlines() == ["parent"]
