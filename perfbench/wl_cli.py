"""Workload ``cli``: one-shot ``python -m amalg`` processes, one at a time.

Every expected stdout and exit code comes from the benchmark's own
arithmetic (oracle.py) or from the paper's known verdicts.  A pass is ROUNDS
rounds of:

- ``gl2 eval`` on short letter words, and ``gl2 decompose`` on matrices built
  from random canonical words (the expected output is that word);
- ``sl2 decompose`` on unipotents [[1,N],[0,1]], N near 150 and 350
  (expected (s * u)^N, then s^2 when N is odd);
- ``nf`` on Z4 *_Z2 Z6 for raw words rewritten from a random normal form;
- ``axioms -`` on group files read from stdin: relabelled cyclic, dihedral
  and metacyclic tables of order 128 and 48, and one order-16 table with two
  entries swapped, which must fail associativity at the first bad triple;
- the flagship ``iso-check`` and ``functor-check``;
- two malformed inputs, which must exit 2 with the right offset or line.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import child
import oracle

ROUNDS = 4
# sl2 decompose sizes: one op near each centre per round.
SL2_N = (150, 350)
SL2_JITTER = 10
FLAGSHIP = ["--A", "Z4", "--B", "Z6", "--D", "Z2"]
FLAGSHIP_IOTAS = ["--iotaA", "1:2", "--iotaB", "1:3"]
FLAGSHIP_LABEL = "Z4:Z2 *[Z2:Z2] Z6:Z2"
ISO_CHECKS = (
    "nu-injective", "mu-surjective", "kernel-equals-image", "mu-tau-identity",
    "tau-homomorphism", "phi-hom-single-syllable", "phi-homomorphism",
    "phi-inv-after-phi", "phi-after-phi-inv", "nu-homomorphism",
)
AXIOMS = ("associativity", "identity", "inverses", "generation")


@dataclass(frozen=True)
class Op:
    family: str
    argv: tuple[str, ...]
    stdin: bytes
    code: int
    stdout: bytes
    stderr_prefix: str  # "" means stderr must be empty


@dataclass(frozen=True)
class Result:
    code: int
    stdout: bytes
    stderr: bytes


def _text_lines(lines: list[str]) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


def _report(records: list[tuple[str, str]], fmt: str) -> bytes:
    if fmt == "json-lines":
        return _text_lines([json.dumps({"check": c, "instance": i, "status": "pass"}, sort_keys=True)
                            for c, i in records])
    return _text_lines([f"PASS {c} [{i}]" for c, i in records])


def _functor_records() -> list[tuple[str, str]]:
    """Identity records for Z2, Z4, Z6, then one composition record per
    composable pair of injective homs between them, in catalog order."""
    orders = (2, 4, 6)
    homs = [(m, n) for m in orders for n in orders for x in range(n) if n // gcd(x, n) == m]
    records = [("functor-identity", f"id_Z{m}") for m in orders]
    records += [("functor-composition", f"Z{f[0]}->Z{f[1]}->Z{g[1]}")
                for f in homs for g in homs if f[1] == g[0]]
    return records


def _group_table(rng: random.Random, order: int) -> tuple[str, oracle.Table, list[int]]:
    """A random cyclic, dihedral or metacyclic table of the given order."""
    kinds = ["cyclic", "dihedral"]
    metas = [(m, k, r) for k in (2, 4) if order % k == 0 for m in [order // k]
             for r in range(2, m) if pow(r, k, m) == 1 and pow(r, k // 2, m) != 1]
    if metas:
        kinds.append("metacyclic")
    kind = rng.choice(kinds)
    if kind == "cyclic":
        return f"C{order}", *oracle.cyclic_table(order)
    if kind == "dihedral":
        return f"Dih{order}", *oracle.dihedral_table(order // 2)
    m, k, r = rng.choice(metas)
    return f"M{m}x{k}r{r}", *oracle.metacyclic_table(m, k, r)


def _group_text(rng: random.Random, label: str, table: oracle.Table, gens: list[int]) -> str:
    """The group file of the table with its elements and rows shuffled."""
    perm = list(range(len(table)))
    rng.shuffle(perm)
    table, gens, identity = oracle.relabel(table, gens, perm)
    rows = list(range(len(table)))
    rng.shuffle(rows)
    return oracle.group_file(label, table, identity, gens, rows)


class Cli:
    name = "cli"
    tail_percentile = 75.0

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def setup(self) -> None:
        from amalg import cli, matgroup

        self.cli, self.matgroup = cli, matgroup
        matgroup.build_dihedral_model()

    # -- inputs --------------------------------------------------------------

    def make_pass(self, rng: random.Random, small: bool = False) -> list[Op]:
        ops: list[Op] = []
        for _ in range(1 if small else ROUNDS):
            ops += self._round(rng, small)
        rng.shuffle(ops)
        return ops

    def _round(self, rng: random.Random, small: bool) -> list[Op]:
        big, mid, bad = (16, 8, 8) if small else (128, 48, 16)
        ops = [self._eval(rng) for _ in range(2)]
        ops += [self._gl2_decompose(rng) for _ in range(2)]
        ops += [self._sl2_decompose(rng, n, stdin=(i == 0), small=small) for i, n in enumerate(SL2_N)]
        ops += [self._nf(rng) for _ in range(2)]
        ops += [self._axioms(rng, big), self._axioms(rng, mid), self._axioms_broken(rng, bad)]
        ops += [self._iso_check(rng), self._functor_check()]
        malformed = [self._bad_letter, self._bad_det, self._bad_matrix, self._bad_index, self._bad_row]
        ops += [rng.choice(malformed)(rng) for _ in range(2)]
        return ops

    def _eval(self, rng):
        word = [(l, k * rng.choice((1, -1))) for l, k in oracle.random_letter_word(rng, rng.randint(3, 10))]
        text = oracle.render_letters(word)
        out = oracle.render_matrix(oracle.letters_value(word))
        return Op("gl2-eval", ("gl2", "eval", text), b"", 0, _text_lines([out]), "")

    def _gl2_decompose(self, rng):
        word = oracle.random_canonical(rng, rng.randint(4, 30), gl2=True)
        m = oracle.letters_value(word)
        return Op("gl2-decompose", ("gl2", "decompose", oracle.render_matrix(m)), b"", 0,
                  _text_lines([oracle.render_letters(word)]), "")

    def _sl2_decompose(self, rng, centre: int, stdin: bool, small: bool):
        n = rng.randint(2, 5) if small else centre + rng.randint(-SL2_JITTER, SL2_JITTER)
        word = [("s", 1), ("u", 1)] * n + ([("s", 2)] if n % 2 else [])
        m = (1, n, 0, 1)
        if oracle.letters_value(word) != m or not oracle.is_canonical_word(word, gl2=False):
            raise AssertionError(f"bad expected word for N = {n}")
        text = oracle.render_matrix(m)
        argv, data = (("sl2", "decompose", "-"), text.encode()) if stdin else (("sl2", "decompose", text), b"")
        return Op("sl2-decompose", argv, data, 0, _text_lines([oracle.render_letters(word)]), "")

    def _nf(self, rng):
        # A normal form of Z4 *_Z2 Z6 (a:i is S^i, b:j is U^j), then an equal raw word.
        side = rng.choice("ab")
        form = []
        for _ in range(rng.randint(3, 12)):
            form.append((side, 1 if side == "a" else rng.choice((1, 2))))
            side = "b" if side == "a" else "a"
        if rng.randrange(2):
            form.append(("a", 2))
        raw = list(form)
        order = {"a": 4, "b": 6}
        for _ in range(rng.randint(2, 6)):
            i = rng.randrange(len(raw) + 1)
            move = rng.randrange(3)
            if move == 0 and i < len(raw):  # split a syllable in two
                s, x = raw[i]
                y = rng.randrange(order[s])
                raw[i:i + 1] = [(s, y), (s, (x - y) % order[s])]
            elif move == 1:  # insert -I * -I
                raw[i:i] = [("a", 2), ("b", 3)]
            else:  # insert y * y^-1
                s = rng.choice("ab")
                y = rng.randrange(order[s])
                raw[i:i] = [(s, y), (s, -y % order[s])]
        as_letters = lambda w: [("s" if s == "a" else "u", x) for s, x in w]  # noqa: E731
        if oracle.letters_value(as_letters(raw)) != oracle.letters_value(as_letters(form)):
            raise AssertionError("nf rewrite changed the element")
        render = lambda w: " * ".join(f"{s}:{x}" for s, x in w)  # noqa: E731
        return Op("nf", ("nf", *FLAGSHIP, *FLAGSHIP_IOTAS, render(raw)), b"", 0,
                  _text_lines([render(form)]), "")

    def _axioms(self, rng, order):
        label, table, gens = _group_table(rng, order)
        text = _group_text(rng, label, table, gens)
        return Op(f"axioms-{order}", ("axioms", "-"), text.encode(), 0,
                  _text_lines([f"PASS {a} [{label}]" for a in AXIOMS]), "")

    def _axioms_broken(self, rng, order):
        label, table, gens = _group_table(rng, order)
        perm = list(range(order))
        rng.shuffle(perm)
        table, gens, ident = oracle.relabel(table, gens, perm)
        while True:  # swap two entries of a row, away from the identity
            x, y1, y2 = rng.sample([i for i in range(order) if i != ident], 3)
            broken = [list(row) for row in table]
            broken[x][y1], broken[x][y2] = broken[x][y2], broken[x][y1]
            bad = oracle.first_associativity_failure(broken)
            if bad is not None:
                break
        rows = list(range(order))
        rng.shuffle(rows)
        text = oracle.group_file(label, broken, ident, gens, rows)
        return Op("axioms-broken", ("axioms", "-"), text.encode(), 1,
                  _text_lines([f"FAIL associativity [{label}]: (x, y, z) = {bad}"]), "")

    def _iso_check(self, rng):
        fmt = rng.choice(("text", "json-lines"))
        argv = ("iso-check", *FLAGSHIP, "--C", "Z2", *FLAGSHIP_IOTAS, "--actA", "inv", "--actB", "inv",
                "--actD", "inv", "--bound", "3", "--samples", "100", "--seed", str(rng.randrange(10**6)),
                "--format", fmt)
        return Op("iso-check", argv, b"", 0, _report([(c, FLAGSHIP_LABEL) for c in ISO_CHECKS], fmt), "")

    def _functor_check(self):
        return Op("functor-check", ("functor-check",), b"", 0, _report(_functor_records(), "text"), "")

    def _bad_letter(self, rng):
        text = oracle.render_letters(oracle.random_letter_word(rng, rng.randint(1, 6)))
        return Op("bad-letter", ("gl2", "eval", text + " * q"), b"", 2, b"",
                  f"parse error at offset {len(text) + 3}: unknown letter 'q'")

    def _bad_det(self, rng):
        while True:
            m = tuple(rng.randint(-9, 9) for _ in range(4))
            if oracle.det(m) not in (1, -1):
                break
        return Op("bad-det", ("gl2", "decompose", oracle.render_matrix(m)), b"", 2, b"",
                  f"error: matrix has determinant {oracle.det(m)}, expected +-1")

    def _bad_matrix(self, rng):
        text = f"[[1,{rng.randint(0, 99)}],[0"
        return Op("bad-matrix", ("sl2", "decompose", text), b"", 2, b"",
                  f"parse error at offset {len(text)}: expected ','")

    def _bad_index(self, rng):
        head = " * ".join(f"a:{rng.randrange(4)}" for _ in range(rng.randint(1, 4)))
        text = f"{head} * b:{rng.randint(6, 99)}"
        return Op("bad-index", ("nf", *FLAGSHIP, *FLAGSHIP_IOTAS, text), b"", 2, b"",
                  f"parse error at offset {len(head) + 5}: element index")

    def _bad_row(self, rng):
        label, table, gens = _group_table(rng, 8)
        text = _group_text(rng, label, table, gens)
        lines = text.splitlines()
        i = rng.randrange(2, 10)  # a row line; drop its last entry
        lines[i] = lines[i].rsplit(" ", 1)[0]
        return Op("bad-row", ("axioms", "-"), ("\n".join(lines) + "\n").encode(), 2, b"",
                  f"error: group spec line {i + 1}: row")

    # -- running and checking --------------------------------------------------

    def run(self, op: Op) -> Result:
        code, out, err, _ = child.run([sys.executable, "-m", "amalg", *op.argv], op.stdin,
                                      self.root, self.env)
        return Result(code, out, err)

    def run_in_process(self, op: Op) -> Result:
        """``amalg.cli.run(argv)`` in this process, as a fresh child would see it."""
        self.matgroup.build_dihedral_model.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(op.stdin))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(list(op.argv))
        finally:
            sys.stdin = saved
        return Result(code, out.getvalue().encode(), err.getvalue().encode())

    def check(self, op: Op, output: Result) -> str | None:
        if output.code != op.code:
            return f"exit code {output.code}, expected {op.code}: {output.stderr[:200]!r}"
        if output.stdout != op.stdout:
            return f"stdout {output.stdout[:200]!r}, expected {op.stdout[:200]!r}"
        err = output.stderr.decode(errors="replace")
        if op.stderr_prefix:
            if not err.startswith(op.stderr_prefix) or "Traceback" in err:
                return f"stderr {err[:200]!r}, expected prefix {op.stderr_prefix!r}"
        elif err:
            return f"unexpected stderr {err[:200]!r}"
        return None

    def corrupt(self, op: Op, output: Result) -> Result:
        return Result(output.code, output.stdout + b"\n", output.stderr)

    def counters(self, op: Op, output: Result) -> dict[str, float]:
        return {}

    def import_seconds(self) -> float:
        """Cumulative import time of amalg.cli in a fresh interpreter."""
        code, _, err, _ = child.run([sys.executable, "-X", "importtime", "-c", "import amalg.cli"],
                                    None, self.root, self.env)
        if code:
            raise RuntimeError(f"importing amalg.cli failed: {err[-500:]!r}")
        total_us = 0
        for line in err.decode().splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line.split("|")
            name = fields[-1]
            if name.startswith(" amalg") and fields[1].strip().isdigit():
                total_us += int(fields[1])
        return total_us / 1e6

