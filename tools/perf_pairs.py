"""Alternating perfbench pairs of a parent and a change checkout.

    python3 tools/perf_pairs.py PARENT CHANGE --workload verify --pairs 10 \\
        --seconds 40 --seed 701

Pair i runs ``python3 perfbench/run.py --workload W --seed S+i --seconds T
--trace 0`` once in each checkout, both with seed S+i; the parent runs first
in even pairs and the change first in odd ones.  Each run's ``metrics`` are
read from its last output line.  For each end-to-end metric of the change's
``BENCHMARK.json`` the summary gives every run on each side, the parent's
median and quartiles, the change's median, how many pairs the change wins
(ties count for neither side), whether its median is within the metric's
relative bound of the parent's, and the gain verdict: whether the change wins
at least 0.9 of the pairs with a median better than the parent's by more than
the parent's interquartile spread.  After the pairs, SETUP_CHILDREN cold
``perfbench/cold_setup.py W`` processes run in each checkout, alternating, and
one line gives each side's median child CPU time (user + sys): wall-clock
``setup_s`` swings with the host about as widely as its bound, CPU time much
less.  A checkout without that script gets a line saying so instead.  Just
before the set-up CPU line, one line gives each checkout's ``src/amalg/*.py``
line total, as ``wc -l`` counts it, and the change's delta.  One last line
names each metric outside its bound, or says that all are within bound.

A bytecode cache lets a checkout's cold set-up skip compiling, so before any
run a ``__pycache__`` under either checkout's ``src/`` or ``perfbench/``
stops the tool with exit status 1 and one line naming every one; the tool deletes
nothing, and its children run with ``PYTHONDONTWRITEBYTECODE=1`` so that
they leave no cache behind.  A run or set-up child that exits non-zero
stops the tool with exit status 1 and one line naming its checkout, exit
code and last line of stderr (and a run's seed); so does a run whose last
stdout line is not a JSON result, with that line.  Each such line begins with
the name of the tool that ran, so that ``units.py``, which shares this child
policy and the alternating order, names itself.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# Cold set-up children per checkout for the set-up CPU line.
SETUP_CHILDREN = 20


def _exit(line: str) -> None:
    """Exit with status 1 and ``line``, prefixed with the running tool's name."""
    sys.exit(f"{Path(sys.argv[0]).stem}: {line}")


def alternate(i: int, parent: Path, change: Path) -> tuple[Path, Path]:
    """Round ``i``'s order: the parent first in even rounds, else the change."""
    return (parent, change) if i % 2 == 0 else (change, parent)


def _child(checkout: Path, args: list[str], what: str) -> subprocess.CompletedProcess:
    """Run ``python3 ARGS`` in ``checkout`` without writing bytecode; if it
    exits non-zero, exit this tool with status 1 and one line naming ``what``."""
    proc = subprocess.run([sys.executable, *args], cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode:
        last = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        _exit(f"{what} exited {proc.returncode}: {last}")
    return proc


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One perfbench run in ``checkout``: the values of its last line's metrics.
    A run that exits non-zero, or whose last line is not a JSON result, exits
    this tool with status 1 and one line."""
    proc = _child(checkout, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"],
                  f"run in {checkout} with seed {seed}")
    last = (proc.stdout.strip().splitlines() or ["(no stdout)"])[-1]
    try:
        return {name: m["value"] for name, m in json.loads(last)["metrics"].items()}
    except (ValueError, TypeError, KeyError, AttributeError):
        _exit(f"run in {checkout} with seed {seed} exited 0 without a JSON result: {last}")


def refuse_bytecode_caches(parent: Path, change: Path) -> None:
    """Exit with status 1 and one line naming every ``__pycache__`` under
    either checkout's ``src/`` or ``perfbench/``; delete nothing."""
    caches = [cache for checkout in (parent, change) for top in ("src", "perfbench")
              for cache in sorted(checkout.glob(f"{top}/**/__pycache__"))]
    if len(caches) == 1:
        _exit(f"bytecode cache {caches[0]} would let its checkout's set-up skip compiling;"
              " remove it and run again")
    if caches:
        _exit(f"bytecode caches {', '.join(map(str, caches))} would let their checkouts'"
              " set-up skip compiling; remove them and run again")


def setup_cpu(parent: Path, change: Path, workload: str) -> str:
    """The set-up CPU line: the median user + sys time of SETUP_CHILDREN cold
    set-up children per checkout, parent first in even rounds, read as
    ``RUSAGE_CHILDREN`` deltas around each child."""
    missing = [c for c in (parent, change) if not (c / "perfbench" / "cold_setup.py").is_file()]
    if missing:
        return "set-up CPU: skipped, no perfbench/cold_setup.py in " + ", ".join(map(str, missing))
    cpu: dict[Path, list[float]] = {parent: [], change: []}
    for i in range(SETUP_CHILDREN):
        for checkout in alternate(i, parent, change):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            _child(checkout, ["perfbench/cold_setup.py", workload], f"set-up child in {checkout}")
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu[checkout].append(after.ru_utime - before.ru_utime
                                 + after.ru_stime - before.ru_stime)
    p_med, c_med = (statistics.median(cpu[c]) * 1e3 for c in (parent, change))
    rel = (c_med / p_med - 1) if p_med else 0.0
    return (f"set-up CPU, median of {SETUP_CHILDREN} cold set-up children each (user+sys):"
            f" parent {p_med:.1f} ms -> change {c_med:.1f} ms ({rel:+.1%})")


def src_lines(parent: Path, change: Path) -> str:
    """The line total of ``src/amalg/*.py`` in each checkout (newlines, as
    ``wc -l`` counts them) and the change's delta."""
    p, c = (sum(f.read_bytes().count(b"\n") for f in (checkout / "src" / "amalg").glob("*.py"))
            for checkout in (parent, change))
    return f"src/amalg/*.py lines: parent {p} -> change {c} ({c - p:+d})"


def summarize(
    spec: dict, parent: list[float], change: list[float]
) -> dict[str, object]:
    """Compare paired runs of one metric; ``spec`` is its ``end_to_end`` entry
    of BENCHMARK.json (``better`` is "higher" or "lower", ``bound`` relative).
    Quartiles are ``statistics.quantiles``' inclusive ones.  ``gain`` is the
    verdict for a claimed gain: the change wins at least 0.9 of the pairs and
    its median is better than the parent's by more than the parent's
    interquartile spread."""
    sign = 1 if spec["better"] == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {
        "parent_median": p_med,
        "parent_quartiles": (q1, q3),
        "change_median": c_med,
        "wins": wins,
        "pairs": len(parent),
        "within_bound": sign * (p_med - c_med) <= spec["bound"] * abs(p_med),
        "gain": wins >= 0.9 * len(parent) and sign * (c_med - p_med) > q3 - q1,
    }


def report(specs: list[dict], parent: list[dict], change: list[dict]) -> str:
    """The summary table of every end-to-end metric, one block per metric."""
    lines = []
    for spec in specs:
        name = spec["name"]
        p, c = [r[name] for r in parent], [r[name] for r in change]
        s = summarize(spec, p, c)
        q1, q3 = s["parent_quartiles"]
        rel = (s["change_median"] / s["parent_median"] - 1) if s["parent_median"] else 0.0
        lines += [
            f"{name} ({spec['unit']}, {spec['better']} is better, bound {spec['bound']})",
            "  parent: " + " ".join(f"{x:.4g}" for x in p),
            "  change: " + " ".join(f"{x:.4g}" for x in c),
            f"  parent median {s['parent_median']:.4g} [{q1:.4g}, {q3:.4g}]"
            f" -> change median {s['change_median']:.4g} ({rel:+.1%})",
            f"  change wins {s['wins']} of {s['pairs']} pairs;"
            f" within bound: {'yes' if s['within_bound'] else 'NO'};"
            f" gain: {'yes' if s['gain'] else 'no'}",
        ]
    return "\n".join(lines)


def verdict(specs: list[dict], parent: list[dict], change: list[dict]) -> str:
    """One line after the report: each metric whose change median is outside
    its bound, or that all are within bound."""
    outside = [
        spec["name"] for spec in specs
        if not summarize(spec, [r[spec["name"]] for r in parent],
                         [r[spec["name"]] for r in change])["within_bound"]
    ]
    if outside:
        return "outside bound: " + ", ".join(outside)
    return "all metrics within bound"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")
    refuse_bytecode_caches(args.parent, args.change)
    specs = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[Path, list[dict]] = {args.parent: [], args.change: []}
    for i in range(args.pairs):
        seed = args.seed + i
        for checkout in alternate(i, args.parent, args.change):
            runs[checkout].append(run_once(checkout, args.workload, seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs} seed {seed} {checkout}: done", file=sys.stderr)
    cpu_line = setup_cpu(args.parent, args.change, args.workload)
    print(f"workload {args.workload}, {args.pairs} pairs of {args.seconds:g} s runs,"
          f" seeds {args.seed}-{args.seed + args.pairs - 1}")
    print(report(specs, runs[args.parent], runs[args.change]))
    print(src_lines(args.parent, args.change))
    print(cpu_line)
    print(verdict(specs, runs[args.parent], runs[args.change]))


if __name__ == "__main__":
    main()
