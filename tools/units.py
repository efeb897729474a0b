"""Per-unit times of one perfbench workload's pass in a parent and a change checkout.

    python3 tools/units.py PARENT CHANGE --workload verify --rounds 6 --repeats 5 --seed 5

A child imports the checkout's ``src/amalg`` and the workload's module in its
``perfbench/``, builds the pass of the seed as ``perfbench/run.py`` does
(``make_pass(random.Random(seed))``), and times each op in parts, summed per
group of the pass:

- decompose: per family, ``gl2_decompose`` and ``form_to_letters``;
- verify: per census instance, set-up (``make_amalgam`` and
  ``make_big_amalgam``, which rejects an incompatible instance),
  ``verify_exact_sequence``, and each record of ``verify_split``, timed as
  the ``first_witness`` call that draws its witnesses (``iso``'s
  ``first_witness`` is wrapped while ``verify_split`` runs).

A child runs the pass REPEATS times.  Each round runs one child per
checkout, in ``perf_pairs.py``'s alternating order.  Each (group, part) cell
keeps its best per-pass sum over all passes.  The table gives, in ms per
pass, each side's best and the change's ratio to the parent: per part summed
over the groups, per group summed over its parts (with its op count) and
then each of its cells, and the total.

Children follow ``perf_pairs.py``'s policy: a bytecode cache under either
checkout's ``src/`` or ``perfbench/`` stops the tool before any child, the
children write no cache, and a child that exits non-zero stops the tool with
one line, naming its checkout, exit code and last line of stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable
from unittest.mock import patch

sys.path.insert(0, str(Path(__file__).resolve().parent))  # also when a test loads this file
from perf_pairs import _child, alternate, refuse_bytecode_caches  # noqa: E402

# Per group: its op count under "ops", then seconds per part.
Times = dict[str, dict[str, float]]


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


def run_child(checkout: Path, workload: str, seed: int, repeats: int) -> Times:
    """``unit_times`` in a fresh interpreter importing ``checkout``'s code."""
    proc = _child(checkout, [str(Path(__file__).resolve()), "--child", str(checkout.resolve()),
                             "--workload", workload, "--seed", str(seed), "--repeats",
                             str(repeats)], f"child in {checkout}")
    return json.loads(proc.stdout)


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        sys.path[:0] = [str(args.child / "src"), str(args.child / "perfbench")]
        print(json.dumps(unit_times(args.workload, args.seed, args.repeats)))
        return
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    if args.rounds < 1 or args.repeats < 1:
        parser.error("--rounds and --repeats must be at least 1")
    refuse_bytecode_caches(args.parent, args.change)
    best: dict[Path, Times] = {args.parent: {}, args.change: {}}
    for i in range(args.rounds):
        for checkout in alternate(i, args.parent, args.change):
            merge(best[checkout], run_child(checkout, args.workload, args.seed, args.repeats))
            print(f"round {i + 1}/{args.rounds} {checkout}: done", file=sys.stderr)
    print(f"{args.workload} pass of seed {args.seed}, best of {args.rounds} rounds"
          f" x {args.repeats} passes per checkout, ms per pass")
    print(table(best[args.parent], best[args.change]))


if __name__ == "__main__":
    main()
