"""Independent oracles used by the test suite.

These deliberately avoid the library's reduction machinery.  Equality of
amalgam words is decided by closing the defining relations with a
union-find over an explicit word universe, SL2 matrices are paired
with letter words by breadth-first search over matrix products, and the
group axioms are scanned over every triple of a plain table.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from amalg import (
    IDENTITY,
    SIDE_A,
    SIDE_B,
    AmalgamSpec,
    Mat2,
    mat_inv,
    mat_mul,
    standard_generators,
)

Syllable = tuple[str, int]
Word = tuple[Syllable, ...]


def alphabet(spec: AmalgamSpec) -> list[Syllable]:
    out = [(SIDE_A, x) for x in spec.a.elements()]
    out += [(SIDE_B, x) for x in spec.b.elements()]
    return out


def all_words(spec: AmalgamSpec, max_len: int) -> Iterator[Word]:
    """Every raw syllable word of length <= max_len, shortest first."""
    letters = alphabet(spec)
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)


class ClosureOracle:
    """Decides equality of raw words of length <= bound in A *_D B.

    The defining relations (multiply adjacent same-side syllables, drop an
    identity syllable, replace iota_a(d) by iota_b(d) and vice versa) are
    closed with a union-find over every word of length <= bound + 1.  The
    extra syllable of headroom is required: moving a subgroup element across
    the seam between syllables can lengthen a word by one step before a
    merge shortens it again, and without the headroom some genuinely equal
    words of full length stay in separate classes.
    """

    def __init__(self, spec: AmalgamSpec, bound: int):
        self.spec = spec
        self.bound = bound
        letters = alphabet(spec)
        self._digit = {syl: i + 1 for i, syl in enumerate(letters)}
        self._base = len(letters) + 1

        flip: dict[Syllable, Syllable] = {}
        for d in spec.d.elements():
            xa = (SIDE_A, spec.iota_a.image[d])
            xb = (SIDE_B, spec.iota_b.image[d])
            flip[xa] = xb
            flip[xb] = xa
        ident = {SIDE_A: spec.a.identity, SIDE_B: spec.b.identity}
        mul = {SIDE_A: spec.a.mul, SIDE_B: spec.b.mul}

        parent: dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        def union(x: int, y: int) -> None:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        code = self._code
        for word in all_words(spec, bound + 1):
            parent.setdefault(code(word), code(word))
        for word in all_words(spec, bound + 1):
            c = code(word)
            for i, (side, x) in enumerate(word):
                if x == ident[side]:
                    union(c, code(word[:i] + word[i + 1 :]))
                if i + 1 < len(word) and word[i + 1][0] == side:
                    merged = (side, mul[side][x][word[i + 1][1]])
                    union(c, code(word[:i] + (merged,) + word[i + 2 :]))
                other = flip.get((side, x))
                if other is not None:
                    union(c, code(word[:i] + (other,) + word[i + 1 :]))
        self._find = find

    def _code(self, word: Word) -> int:
        n = 0
        for syl in word:
            n = n * self._base + self._digit[syl]
        return n

    def key(self, word: Word) -> int:
        """Class representative for a word of length <= bound."""
        if len(word) > self.bound:
            raise ValueError(
                f"word of length {len(word)} exceeds oracle bound {self.bound}"
            )
        return self._find(self._code(word))


def bfs_letter_words(max_len: int) -> dict[Mat2, tuple[tuple[str, int], ...]]:
    """A shortest {s, u} letter word for every matrix within max_len letters."""
    s, u, _ = standard_generators()
    steps = (
        ("s", 1, s),
        ("s", -1, mat_inv(s)),
        ("u", 1, u),
        ("u", -1, mat_inv(u)),
    )
    words: dict[Mat2, tuple[tuple[str, int], ...]] = {IDENTITY: ()}
    frontier = [(IDENTITY, ())]
    for _ in range(max_len):
        nxt = []
        for m, word in frontier:
            for letter, e, gen in steps:
                m2 = mat_mul(m, gen)
                if m2 not in words:
                    w2 = word + ((letter, e),)
                    words[m2] = w2
                    nxt.append((m2, w2))
        frontier = nxt
    return words


def group_axiom_records(
    mul: tuple[tuple[int, ...], ...],
    identity: int,
    inv: tuple[int, ...],
    generators: tuple[int, ...],
) -> list[tuple[str, bool, str | None]]:
    """(check, ok, witness) for each group axiom by exhaustive scan, in the
    order associativity, identity, inverses, generation, stopping after the
    first that fails.  Each witness is the first counterexample in index
    order.  Uses plain tables only: nothing from the library.
    """
    n = len(mul)

    def associativity() -> str | None:
        if any(len(row) != n for row in mul):
            return "table is not square"
        for v in itertools.chain.from_iterable(mul):
            if not 0 <= v < n:
                return f"entry {v} out of range"
        for x, y, z in itertools.product(range(n), repeat=3):
            if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
                return f"(x, y, z) = ({x}, {y}, {z})"
        return None

    def identity_law() -> str | None:
        if not 0 <= identity < n:
            return f"identity index {identity} out of range"
        for x in range(n):
            if mul[identity][x] != x or mul[x][identity] != x:
                return f"x = {x}"
        return None

    def inverses() -> str | None:
        if len(inv) != n:
            return "inverse table has wrong length"
        for x, y in enumerate(inv):
            if not 0 <= y < n or mul[x][y] != identity or mul[y][x] != identity:
                return f"x = {x}, claimed inverse {y}"
        return None

    def generation() -> str | None:
        for s in generators:
            if not 0 <= s < n:
                return f"generator index {s} out of range"
        # The table is a group here, so the subgroup the generators generate
        # is the closure of the identity under right multiplication by them.
        reached, frontier = {identity}, [identity]
        while frontier:
            frontier = [mul[x][s] for x in frontier for s in generators]
            frontier = [y for y in dict.fromkeys(frontier) if y not in reached]
            reached.update(frontier)
        missing = [x for x in range(n) if x not in reached]
        return f"unreached element {missing[0]}" if missing else None

    records = []
    for check, law in (
        ("associativity", associativity),
        ("identity", identity_law),
        ("inverses", inverses),
        ("generation", generation),
    ):
        witness = law()
        records.append((check, witness is None, witness))
        if witness is not None:
            break
    return records
