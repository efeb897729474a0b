"""Per-family times of perfbench's decompose pass in a parent and a change checkout.

    python3 tools/decompose_families.py PARENT CHANGE --rounds 6 --repeats 5 --seed 5

Each round runs one child per checkout, the parent first in even rounds and
the change first in odd ones.  A child imports the checkout's ``src/amalg``
and ``perfbench/wl_decompose.py``, builds the pass of the seed as
``perfbench/run.py`` does (``make_pass(random.Random(seed))``), and times each
op's ``gl2_decompose`` and its ``form_to_letters`` separately, summed per
family of the pass; it runs the pass REPEATS times and reports each family's
best sums.  The table gives, per family and in total, the op count and each
side's best over its rounds, in ms per pass, for decompose and for render,
with the change's ratio to the parent.

Bytecode caches and children follow ``perf_pairs.py``'s policy, imported from
it: a cache under either checkout's ``src/`` or ``perfbench/`` stops the tool
before any child, the children write no cache, and a child that exits non-zero
stops the tool with one line naming its checkout, exit code and last line of
stderr.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # also when a test loads this file
from perf_pairs import _child, refuse_bytecode_caches  # noqa: E402

# The two timed calls of a decompose op, in table order.
CALLS = ("decompose", "render")


def family_times(seed: int, repeats: int, small: bool = False) -> dict[str, list[float]]:
    """Per family of the decompose pass of ``seed``: [op count, best
    gl2_decompose seconds, best form_to_letters seconds], each best the least
    per-pass sum of that family over ``repeats`` passes.  ``amalg`` and
    perfbench's ``wl_decompose`` are imported from ``sys.path``."""
    from wl_decompose import Decompose

    wl = Decompose()
    wl.setup()
    mg = wl.matgroup
    ops = wl.make_pass(random.Random(seed), small=small)
    best: dict[str, list[float]] = {}
    for _ in range(repeats):
        sums: dict[str, list[float]] = {}
        for op in ops:
            m = mg.Mat2(*op.matrix)
            t0 = time.perf_counter()
            form = mg.gl2_decompose(m)
            t1 = time.perf_counter()
            mg.form_to_letters(form)
            t2 = time.perf_counter()
            s = sums.setdefault(op.family, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += t1 - t0
            s[2] += t2 - t1
        for family, (n, dec, ren) in sums.items():
            b = best.setdefault(family, [n, dec, ren])
            b[1], b[2] = min(b[1], dec), min(b[2], ren)
    return best


def run_child(checkout: Path, seed: int, repeats: int) -> dict[str, list[float]]:
    """``family_times`` in a fresh interpreter importing ``checkout``'s code."""
    proc = _child(checkout, [str(Path(__file__).resolve()), "--child", str(checkout),
                             "--seed", str(seed), "--repeats", str(repeats)],
                  f"child in {checkout}")
    return json.loads(proc.stdout)


def table(parent: dict[str, list[float]], change: dict[str, list[float]]) -> str:
    """Per family, then in total: op count, and for each call the parent's and
    the change's ms per pass with their ratio."""
    total = {side: [sum(col) for col in zip(*times.values())]
             for side, times in (("parent", parent), ("change", change))}
    lines = [f"{'family':<10} {'ops':>4}" + "".join(
        f"  {call + ' parent':>16} {'change':>7} {'ratio':>5}" for call in CALLS)]
    for family in [*sorted(parent), "total"]:
        p, c = (parent[family], change[family]) if family != "total" else (
            total["parent"], total["change"])
        row = f"{family:<10} {p[0]:>4}"
        for i in (1, 2):
            row += f"  {p[i] * 1e3:>16.2f} {c[i] * 1e3:>7.2f} {c[i] / p[i]:>5.2f}"
        lines.append(row)
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        sys.path[:0] = [str(args.child / "src"), str(args.child / "perfbench")]
        print(json.dumps(family_times(args.seed, args.repeats)))
        return
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    if args.rounds < 1 or args.repeats < 1:
        parser.error("--rounds and --repeats must be at least 1")
    refuse_bytecode_caches(args.parent, args.change)
    best: dict[Path, dict[str, list[float]]] = {args.parent: {}, args.change: {}}
    for i in range(args.rounds):
        for checkout in (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent):
            for family, times in run_child(checkout, args.seed, args.repeats).items():
                b = best[checkout].setdefault(family, times)
                b[1], b[2] = min(b[1], times[1]), min(b[2], times[2])
            print(f"round {i + 1}/{args.rounds} {checkout}: done", file=sys.stderr)
    print(f"decompose pass of seed {args.seed}, best of {args.rounds} rounds x {args.repeats}"
          " passes per checkout, ms per pass")
    print(table(best[args.parent], best[args.change]))


if __name__ == "__main__":
    main()
