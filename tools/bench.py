"""A/B runs of a parent and a change checkout: benchmark pairs and unit times.

    python3 tools/bench.py pairs PARENT CHANGE --workload verify --pairs 10 --seconds 40 --seed 701
    python3 tools/bench.py units PARENT CHANGE --workload verify --rounds 6 --repeats 5 --seed 5

Both subcommands alternate child processes between the checkouts, the parent
first in even rounds and the change first in odd ones, under one policy.  A
bytecode cache lets a checkout's cold set-up skip compiling, so before any
child a ``__pycache__`` under either checkout's ``src/`` or ``perfbench/``
stops the tool with exit status 1 and one line naming every one; the tool
deletes nothing, and its children run with ``PYTHONDONTWRITEBYTECODE=1`` so
that they leave no cache behind.  A child that exits non-zero stops the tool
with exit status 1 and one line naming its checkout, exit code and last line
of stderr (and a run's seed); so does a run whose last stdout line is not a
JSON result, with that line, or whose result lacks an end-to-end metric,
naming each.  Each such line begins with ``bench:``.  Checkout paths may be
relative to the working directory.  Standard library only.

``pairs``: pair i runs ``python3 perfbench/run.py --workload W --seed S+i
--seconds T --trace 0`` once in each checkout and reads the ``metrics`` of its
last output line.  For each end-to-end metric of the change's
``BENCHMARK.json`` the summary gives every run on each side, the parent's
median and quartiles, the change's median, how many pairs the change wins
(ties count for neither side), whether its median is within the metric's
relative bound of the parent's, and the gain verdict: whether the change wins
at least 0.9 of the pairs with a median better than the parent's by more than
the parent's interquartile spread.  Then one line gives each checkout's
``src/amalg/*.py`` line total, as ``wc -l`` counts it, and the change's delta;
one each side's median CPU time (user + sys) over SETUP_CHILDREN cold
``perfbench/cold_setup.py W`` children, or a checkout without that script
(wall-clock ``setup_s`` spreads about as widely as its bound, CPU time much
less); the last names each metric outside its bound, or says all are within.

``units``: each round runs one child per checkout, which imports the
checkout's ``src/amalg`` and its workload module in ``perfbench/``, builds
the seed's pass as ``perfbench/run.py`` does, runs it REPEATS times and times
each op in parts, summed per group: for decompose, per family, ``gl2_decompose`` and
``form_to_letters``; for verify, per census instance, set-up
(``make_amalgam`` and ``make_big_amalgam``, which rejects an incompatible
instance), ``verify_exact_sequence`` and each record of ``verify_split``, as
the ``first_witness`` call that draws its witnesses (wrapped in ``iso`` while
``verify_split`` runs).  Each (group, part) cell keeps its best per-pass sum.
The table gives, in ms per pass, each side's best and the change's ratio to
the parent: per part summed over the groups, per group summed over its parts
(with its op count) and then each of its cells, and the total.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable
from unittest.mock import patch

# Cold set-up children per checkout for the set-up CPU line.
SETUP_CHILDREN = 20

# Per group: its op count under "ops", then seconds per part.
Times = dict[str, dict[str, float]]


def _exit(line: str) -> None:
    """Exit with status 1 and ``line``, prefixed with ``bench:``."""
    sys.exit(f"bench: {line}")


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


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             names: list[str]) -> dict[str, float]:
    """One perfbench run in ``checkout``: the values of its last line's metrics.
    A run that exits non-zero, whose last line is not a JSON result, or whose
    result lacks one of the end-to-end metrics ``names`` exits this tool with
    status 1 and one line."""
    proc = _child(checkout, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"],
                  f"run in {checkout} with seed {seed}")
    last = (proc.stdout.strip().splitlines() or ["(no stdout)"])[-1]
    try:
        metrics = {name: m["value"] for name, m in json.loads(last)["metrics"].items()}
    except (ValueError, TypeError, KeyError, AttributeError):
        _exit(f"run in {checkout} with seed {seed} exited 0 without a JSON result: {last}")
    missing = [name for name in names if name not in metrics]
    if missing:
        _exit(f"run in {checkout} with seed {seed} exited 0 without metrics {', '.join(missing)}")
    return metrics


def setup_cpu(parent: Path, change: Path, workload: str) -> str:
    """The set-up CPU line: the median user + sys time of SETUP_CHILDREN cold
    set-up children per checkout, in alternating order, read as
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


def summarize(spec: dict, parent: list[float], change: list[float]) -> dict[str, object]:
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
    outside = [spec["name"] for spec in specs if not summarize(
        spec, *([r[spec["name"]] for r in side] for side in (parent, change)))["within_bound"]]
    return "outside bound: " + ", ".join(outside) if outside else "all metrics within bound"


def pairs(args: argparse.Namespace) -> None:
    """The ``pairs`` subcommand: the runs, then the report."""
    specs = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    names = [spec["name"] for spec in specs]
    runs: dict[Path, list[dict]] = {args.parent: [], args.change: []}
    for i in range(args.pairs):
        seed = args.seed + i
        for checkout in alternate(i, args.parent, args.change):
            runs[checkout].append(run_once(checkout, args.workload, seed, args.seconds, names))
            print(f"pair {i + 1}/{args.pairs} seed {seed} {checkout}: done", file=sys.stderr)
    cpu_line = setup_cpu(args.parent, args.change, args.workload)
    print(f"workload {args.workload}, {args.pairs} pairs of {args.seconds:g} s runs,"
          f" seeds {args.seed}-{args.seed + args.pairs - 1}")
    print(report(specs, runs[args.parent], runs[args.change]))
    print(src_lines(args.parent, args.change))
    print(cpu_line)
    print(verdict(specs, runs[args.parent], runs[args.change]))


def decompose(seed: int, small: bool) -> tuple[list, Callable]:
    """The decompose pass of ``seed`` and its op timer: per family, the
    op's ``gl2_decompose`` and its ``form_to_letters``."""
    from wl_decompose import Decompose

    wl = Decompose()
    wl.setup()
    mg = wl.matgroup

    def time_op(op) -> tuple[str, dict[str, float]]:
        m = mg.Mat2(*op.matrix)
        t0 = perf_counter()
        form = mg.gl2_decompose(m)
        t1 = perf_counter()
        mg.form_to_letters(form)
        return op.family, {"gl2_decompose": t1 - t0, "form_to_letters": perf_counter() - t1}

    return wl.make_pass(random.Random(seed), small=small), time_op


def verify(seed: int, small: bool) -> tuple[list, Callable]:
    """The verify pass of ``seed`` and its op timer: per census instance,
    set-up, ``verify_exact_sequence`` and each record of ``verify_split``."""
    from wl_verify import Verify

    wl = Verify()
    wl.setup()
    amalgam, iso = wl.amalgam, wl.iso
    first_witness = iso.first_witness

    def time_op(op) -> tuple[str, dict[str, float]]:
        inst = op.instance
        t0 = perf_counter()
        try:
            big = iso.make_big_amalgam(
                amalgam.make_amalgam(inst.a, inst.b, inst.d, op.iota_a, op.iota_b), op.acts)
        except ValueError:
            return inst.name, {"set-up": perf_counter() - t0}
        t1 = perf_counter()
        iso.verify_exact_sequence(big, inst.bound)
        parts = {"set-up": t1 - t0, "verify_exact_sequence": perf_counter() - t1}

        def timed(check, instance, witnesses):
            t = perf_counter()
            record = first_witness(check, instance, witnesses)
            parts[check] = perf_counter() - t
            return record

        with patch.object(iso, "first_witness", timed):
            iso.verify_split(big, inst.samples, op.seed)
        return inst.name, parts

    return wl.make_pass(random.Random(seed), small=small), time_op


WORKLOADS = {"decompose": decompose, "verify": verify}


def merge(best: Times, times: Times) -> None:
    """Keep in ``best`` each cell's least seconds over ``times``; op counts
    are the same in both."""
    for group, parts in times.items():
        b = best.setdefault(group, parts)
        for part, seconds in parts.items():
            b[part] = min(b[part], seconds)


def unit_times(workload: str, seed: int, repeats: int, small: bool = False) -> Times:
    """Per group of ``workload``'s pass of ``seed``: its op count under
    "ops", then each part's least per-pass sum over ``repeats`` passes, in
    the order an op runs them.  ``amalg`` and perfbench's workload module
    are imported from ``sys.path``."""
    ops, time_op = WORKLOADS[workload](seed, small)
    best: Times = {}
    for _ in range(repeats):
        sums: Times = {}
        for op in ops:
            group, parts = time_op(op)
            s = sums.setdefault(group, {"ops": 0})
            s["ops"] += 1
            for part, seconds in parts.items():
                s[part] = s.get(part, 0.0) + seconds
        merge(best, sums)
    return best


def table(parent: Times, change: Times) -> str:
    """Per part summed over the groups, per group summed over its parts
    (with its op count) and followed by each of its cells, then the total:
    the parent's and the change's ms per pass with their ratio."""
    groups = sorted(parent)
    parts = list(dict.fromkeys(part for g in groups for part in parent[g] if part != "ops"))

    def row(group: str, part: str, ops: object, cells: list[tuple[str, str]]) -> str:
        p, c = (sum(side[g].get(q, 0.0) for g, q in cells) for side in (parent, change))
        return f"{group:<20} {part:<23} {ops:>4} {p * 1e3:>9.2f} {c * 1e3:>9.2f} {c / p:>6.2f}"

    lines = [f"{'group':<20} {'part':<23} {'ops':>4} {'parent':>9} {'change':>9} {'ratio':>6}"]
    lines += [row("all", part, "", [(g, part) for g in groups]) for part in parts]
    for g in groups:
        own = [part for part in parts if part in parent[g]]
        lines.append(row(g, "all", parent[g]["ops"], [(g, part) for part in own]))
        lines += [row(g, part, "", [(g, part)]) for part in own]
    lines.append(row("total", "all", sum(parent[g]["ops"] for g in groups),
                     [(g, part) for g in groups for part in parts]))
    return "\n".join(lines)


def units(args: argparse.Namespace) -> None:
    """The ``units`` subcommand: the rounds of children, then the table."""
    best: dict[Path, Times] = {args.parent: {}, args.change: {}}
    for i in range(args.rounds):
        for checkout in alternate(i, args.parent, args.change):
            proc = _child(checkout, [str(Path(__file__).resolve()), "units", "--child",
                                     str(checkout.resolve()), "--workload", args.workload,
                                     "--seed", str(args.seed), "--repeats", str(args.repeats)],
                          f"child in {checkout}")
            merge(best[checkout], json.loads(proc.stdout))
            print(f"round {i + 1}/{args.rounds} {checkout}: done", file=sys.stderr)
    print(f"{args.workload} pass of seed {args.seed}, best of {args.rounds} rounds"
          f" x {args.repeats} passes per checkout, ms per pass")
    print(table(best[args.parent], best[args.change]))


def main() -> None:
    checkouts = argparse.ArgumentParser(add_help=False)
    checkouts.add_argument("parent", type=Path, nargs="?")
    checkouts.add_argument("change", type=Path, nargs="?")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    pair = commands.add_parser("pairs", parents=[checkouts], help="alternating perfbench pairs")
    pair.add_argument("--workload", required=True)
    pair.add_argument("--pairs", type=int, required=True)
    pair.add_argument("--seconds", type=float, required=True)
    pair.add_argument("--seed", type=int, required=True)
    pair.set_defaults(run=pairs, child=None)
    unit = commands.add_parser("units", parents=[checkouts], help="per-part times of one pass")
    unit.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    unit.add_argument("--rounds", type=int, default=6)
    unit.add_argument("--repeats", type=int, default=5)
    unit.add_argument("--seed", type=int, default=5)
    unit.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    unit.set_defaults(run=units)
    args = parser.parse_args()
    if args.child:
        sys.path[:0] = [str(args.child / "src"), str(args.child / "perfbench")]
        print(json.dumps(unit_times(args.workload, args.seed, args.repeats)))
        return
    sub = commands.choices[args.command]
    if args.parent is None or args.change is None:
        sub.error("PARENT and CHANGE are required")
    if args.run is pairs and args.pairs < 2:
        sub.error("--pairs must be at least 2, to give quartiles")
    if args.run is units and (args.rounds < 1 or args.repeats < 1):
        sub.error("--rounds and --repeats must be at least 1")
    refuse_bytecode_caches(args.parent, args.change)
    args.run(args)


if __name__ == "__main__":
    main()
