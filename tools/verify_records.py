"""Per-record times of perfbench's verify pass in a parent and a change checkout.

    python3 tools/verify_records.py PARENT CHANGE --rounds 6 --repeats 5 --seed 5

Each round runs one child per checkout, the parent first in even rounds and
the change first in odd ones.  A child imports the checkout's ``src/amalg``
and ``perfbench/wl_verify.py``, builds the pass of the seed as
``perfbench/run.py`` does (``make_pass(random.Random(seed))``), and times
each op in parts, summed per census instance of the pass: set-up
(``make_amalgam`` and ``make_big_amalgam``, which rejects an incompatible
instance), ``verify_exact_sequence``, and each record of ``verify_split``,
timed as the ``first_witness`` call that draws its witnesses (``iso``'s
``first_witness`` is wrapped while the passes run).  It runs the pass REPEATS times and keeps each
instance's best sum of each part.  The table gives, per part, then per
instance, then in total, each side's best over its rounds, in ms per pass,
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
from unittest.mock import patch

sys.path.insert(0, str(Path(__file__).resolve().parent))  # also when a test loads this file
from perf_pairs import _child, refuse_bytecode_caches  # noqa: E402


def record_times(seed: int, repeats: int, small: bool = False) -> dict[str, dict[str, float]]:
    """Per census instance of the verify pass of ``seed``: its op count under
    "ops", then the best per-pass seconds of each part, over ``repeats``
    passes: "setup", "exact-sequence" and each ``verify_split`` record, in
    the order an op runs them.  ``amalg`` and perfbench's ``wl_verify`` are
    imported from ``sys.path``."""
    from wl_verify import Verify

    wl = Verify()
    wl.setup()
    amalgam, iso = wl.amalgam, wl.iso
    split: dict[str, float] = {}  # record -> seconds of its first_witness call
    first_witness = iso.first_witness

    def timed(check, instance, witnesses):
        t0 = time.perf_counter()
        record = first_witness(check, instance, witnesses)
        split[check] = time.perf_counter() - t0
        return record

    ops = wl.make_pass(random.Random(seed), small=small)
    best: dict[str, dict[str, float]] = {}
    with patch.object(iso, "first_witness", timed):
        for _ in range(repeats):
            sums: dict[str, dict[str, float]] = {}
            for op in ops:
                inst = op.instance
                s = sums.setdefault(inst.name, {"ops": 0})
                s["ops"] += 1
                t0 = time.perf_counter()
                try:
                    big = iso.make_big_amalgam(
                        amalgam.make_amalgam(inst.a, inst.b, inst.d, op.iota_a, op.iota_b), op.acts)
                except ValueError:
                    big = None
                t1 = time.perf_counter()
                s["setup"] = s.get("setup", 0.0) + t1 - t0
                if big is None:
                    continue
                iso.verify_exact_sequence(big, inst.bound)
                s["exact-sequence"] = s.get("exact-sequence", 0.0) + time.perf_counter() - t1
                split.clear()
                iso.verify_split(big, inst.samples, op.seed)
                for check, seconds in split.items():
                    s[check] = s.get(check, 0.0) + seconds
            for name, parts in sums.items():
                b = best.setdefault(name, parts)
                for part, seconds in parts.items():
                    b[part] = min(b[part], seconds)
    return best


def run_child(checkout: Path, seed: int, repeats: int) -> dict[str, dict[str, float]]:
    """``record_times`` in a fresh interpreter importing ``checkout``'s code."""
    proc = _child(checkout, [str(Path(__file__).resolve()), "--child", str(checkout),
                             "--seed", str(seed), "--repeats", str(repeats)],
                  f"child in {checkout}")
    return json.loads(proc.stdout)


def table(parent: dict[str, dict[str, float]], change: dict[str, dict[str, float]]) -> str:
    """Per part summed over the instances, then per instance summed over its
    parts, then in total: the parent's and the change's ms per pass with
    their ratio, and per instance its op count."""
    def row(label: str, ops: object, p: float, c: float) -> str:
        return f"{label:<24} {ops:>4} {p * 1e3:>9.2f} {c * 1e3:>9.2f} {c / p:>6.2f}"

    def summed(side: dict[str, dict[str, float]], name: str) -> float:
        return sum(v for part, v in side[name].items() if part != "ops")

    names = sorted(parent)
    parts = list(dict.fromkeys(part for t in parent.values() for part in t if part != "ops"))
    header = "{:<24} {:>4} {:>9} {:>9} {:>6}"
    lines = [header.format("part", "", "parent", "change", "ratio")]
    lines += [row(part, "", *(sum(t.get(part, 0.0) for t in side.values())
                              for side in (parent, change))) for part in parts]
    lines.append(header.format("instance", "ops", "parent", "change", "ratio"))
    lines += [row(name, parent[name]["ops"], summed(parent, name), summed(change, name))
              for name in names]
    lines.append(row("total", sum(parent[name]["ops"] for name in names),
                     *(sum(summed(side, name) for name in names) for side in (parent, change))))
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
        print(json.dumps(record_times(args.seed, args.repeats)))
        return
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    if args.rounds < 1 or args.repeats < 1:
        parser.error("--rounds and --repeats must be at least 1")
    refuse_bytecode_caches(args.parent, args.change)
    best: dict[Path, dict[str, dict[str, float]]] = {args.parent: {}, args.change: {}}
    for i in range(args.rounds):
        for checkout in (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent):
            for name, parts in run_child(checkout, args.seed, args.repeats).items():
                b = best[checkout].setdefault(name, parts)
                for part, seconds in parts.items():
                    b[part] = min(b[part], seconds)
            print(f"round {i + 1}/{args.rounds} {checkout}: done", file=sys.stderr)
    print(f"verify pass of seed {args.seed}, best of {args.rounds} rounds x {args.repeats}"
          " passes per checkout, ms per pass")
    print(table(best[args.parent], best[args.change]))


if __name__ == "__main__":
    main()
