"""Exact 2x2 integer matrices and word decomposition over GL2(Z).

``sl2_decompose`` writes a determinant-1 matrix as a canonical normal form in
the order-4 / order-6 amalgam generated by

    S = [[0, -1], [1, 0]]    (S^2 = -I)
    U = [[0, -1], [1, 1]]    (U^3 = -I)

by Euclidean reduction on the first column, and ``gl2_decompose`` extends this
to determinant -1 through the order-2 section

    J = [[0, 1], [1, 0]]     (J S J = S^-1, J U J = U^-1)

landing in the dihedral amalgam built from Z4 x| Z2, Z6 x| Z2, Z2 x| Z2 with
inversion actions.  ``build_dihedral_model`` tabulates the realization of
each amalgam once, as one ``SyllableMatrices`` record that carries the amalgam
it realizes and the letter word of each element of each side; one decomposer
and one renderer read either record.  A decomposition reduces its Euclid word
once, with each long T^q folded a period at a time as a run, and checks the
form's exact value: each stretch where the fold inserted whole periods, once
one tuple comparison shows the head repeating there, as one period's product
raised by ``mat_pow``, and the other syllables by ``_table_product``, which
multiplies each distinct block of ``_BLOCK`` syllables out once per call and
folds one block product per step.  The renderer joins the letter words of
the syllables and folds letters only from the first pair of equal neighbours.
All arithmetic is plain Python int, so entries may grow without overflow.

``LETTERS`` maps each letter s, u, j to its tuple of powers, whose length is
the letter's order.  Every function here that reads or writes letter words
uses it.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .amalgam import (
    SIDE_A, SIDE_B, AmalgamSpec, NormalForm, Syllable, _fold_runs, check_form, make_amalgam,
    reduce_word, to_word,
)
from .groups import hom_from_generators, inversion_action, make_cyclic
from .iso import BigAmalgam, CompatibleActionTriple, make_big_amalgam

__all__ = [
    "Mat2",
    "IDENTITY",
    "mat_mul",
    "mat_det",
    "mat_inv",
    "mat_pow",
    "standard_generators",
    "Glt2Word",
    "DihedralAmalgamForm",
    "DihedralModel",
    "build_dihedral_model",
    "sl2_decompose",
    "gl2_split",
    "gl2_decompose",
    "word_to_form",
    "form_to_letters",
    "small_form_to_letters",
    "evaluate_word",
]


class Mat2(NamedTuple):
    """An integer 2x2 matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    def __mul__(self, other: "Mat2") -> "Mat2":
        return mat_mul(self, other)


IDENTITY = Mat2(1, 0, 0, 1)


def mat_mul(m: Mat2, n: Mat2) -> Mat2:
    return Mat2(
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def mat_det(m: Mat2) -> int:
    return m.a * m.d - m.b * m.c


def mat_inv(m: Mat2) -> Mat2:
    """Inverse of a determinant +-1 matrix (adjugate over the determinant)."""
    det = mat_det(m)
    if det == 1:
        return Mat2(m.d, -m.b, -m.c, m.a)
    if det == -1:
        return Mat2(-m.d, m.b, m.c, -m.a)
    raise ValueError(f"matrix has determinant {det}, expected +-1")


def mat_pow(m: Mat2, k: int) -> Mat2:
    if k < 0:
        m, k = mat_inv(m), -k
    acc = IDENTITY
    while k:
        if k & 1:
            acc = mat_mul(acc, m)
        m = mat_mul(m, m)
        k >>= 1
    return acc


def standard_generators() -> tuple[Mat2, Mat2, Mat2]:
    """The order-4, order-6, and swap generators (S, U, J)."""
    return Mat2(0, -1, 1, 0), Mat2(0, -1, 1, 1), Mat2(0, 1, 1, 0)


# Keys per block of ``_table_product``.  A canonical head in either
# realization alternates one side-a representative with one of two side-b
# ones, so it has at most 8 distinct blocks of 4.  Against 4, perfbench's
# decompose pass (seed 5) spent 1.14 times as long in gl2_decompose at 2,
# 1.00 at 8 (but 1.08 on the random family, which holds the median op) and
# 1.11 at 16.
_BLOCK = 4


def _table_product(
    tables: Mapping[str, Any], keys: Iterable[tuple[str, int]], start: Mat2 = IDENTITY
) -> Mat2:
    """``start`` times the product of ``tables[name][i]`` over the pairs
    (name, i), left to right.  The keys are read ``_BLOCK`` at a time, then
    the remainder, if any, as one short block.  Each distinct block is
    multiplied out once per call, in a table that lives only for this call,
    and each step folds one block's product into four local ints; one
    ``Mat2`` is built at the end, none per step.  Each pair must be
    hashable.  Fewer than ``_BLOCK`` keys, too few to earn back the table,
    are folded in one by one."""
    keys = tuple(keys)
    a, b, c, d = start
    if len(keys) < _BLOCK:
        for name, i in keys:
            p, q, r, s = tables[name][i]
            a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
        return Mat2(a, b, c, d)
    blocks: dict[tuple, tuple[int, int, int, int]] = {}
    cut = len(keys) - len(keys) % _BLOCK
    for block in chain(zip(*[iter(keys)] * _BLOCK), [keys[cut:]] if cut < len(keys) else ()):
        m = blocks.get(block)
        if m is None:
            w, x, y, z = IDENTITY
            for name, i in block:
                p, q, r, s = tables[name][i]
                w, x, y, z = w * p + x * r, w * q + x * s, y * p + z * r, y * q + z * s
            m = blocks[block] = w, x, y, z
        p, q, r, s = m
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return Mat2(a, b, c, d)


_S, _U, _J = standard_generators()
LETTERS = {
    name: tuple(mat_pow(m, n) for n in range(order))
    for name, m, order in (("s", _S, 4), ("u", _U, 6), ("j", _J, 2))
}


def fold_letters(raw: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """Merge adjacent equal letters by adding their exponents and drop zero
    exponents; exponents are not reduced by the letter orders."""
    stack: list[tuple[str, int]] = []
    for name, k in raw:
        if stack and stack[-1][0] == name:
            k += stack.pop()[1]
        if k:
            stack.append((name, k))
    return tuple(stack)


class Glt2Word(NamedTuple):
    """A word in the letters s, u, j with nonzero integer exponents."""

    letters: tuple[tuple[str, int], ...]


def _reduced_letters(word: Glt2Word) -> list[tuple[str, int]]:
    """The letters (name, k) of ``word`` as (name, k mod the letter's order).
    A ValueError names letters that cannot be iterated, or the first letter
    that is not a pair, or the first unknown letter, or the first exponent
    that is not an int with its letter and position; True and False pass as
    1 and 0."""
    try:
        given = iter(word.letters)
    except TypeError:
        raise ValueError(
            f"letters {word.letters!r} are not a sequence of (name, exponent) pairs"
        ) from None
    letters = []
    for i, letter in enumerate(given):
        try:
            name, k = letter
        except (TypeError, ValueError):
            raise ValueError(
                f"letter {letter!r} at position {i} is not a (name, exponent) pair"
            ) from None
        try:
            order = len(LETTERS[name])
        except (KeyError, TypeError):  # TypeError: a name that cannot be hashed
            raise ValueError(f"unknown letter {name!r}") from None
        if not isinstance(k, int):
            raise ValueError(f"exponent {k!r} of letter {name!r} at position {i} is not an integer")
        letters.append((name, k % order))
    return letters


class DihedralAmalgamForm(NamedTuple):
    """A normal form over the dihedral amalgam (D4 amalgamated with D6)."""

    form: NormalForm


class SyllableMatrices(NamedTuple):
    """The realization in GL2(Z) of the amalgam ``spec``: ``words`` holds the
    letter word of each element of each side (pairs (side, words)), ``a[x]``
    and ``b[x]`` their matrices, ``d[x]`` the subgroup's through side a, and
    ``syllables`` the syllable of each one-letter word (pairs (letter, syllable))."""

    spec: AmalgamSpec
    a: tuple[Mat2, ...]
    b: tuple[Mat2, ...]
    d: tuple[Mat2, ...]
    words: tuple[tuple[str, tuple[tuple[tuple[str, int], ...], ...]], ...]
    syllables: tuple[tuple[tuple[str, int], Syllable], ...]

    def evaluate(self, form: NormalForm, periods: Iterable[tuple[int, int, int]] = ()) -> Mat2:
        """Exact matrix value of a normal form: the ``_table_product`` of its
        syllables, which multiplies each distinct block of ``_BLOCK`` of them
        out once, except in the stretches ``periods`` names.  A stretch
        (start, p, count) whose slice of the head is its first p syllables
        repeated ``count`` times, tested by one tuple comparison, is one
        period's product raised to ``count`` by ``mat_pow``; one that fails
        the test, is out of range or empty, or overlaps a stretch already
        used is multiplied out with the rest of the head."""
        tables = {SIDE_A: self.a, SIDE_B: self.b}
        head, acc, done = form.head, IDENTITY, 0
        for start, p, count in sorted(periods):
            end = start + p * count
            if (done <= start and p > 0 and count > 0 and end <= len(head)
                    and head[start:end] == head[start:start + p] * count):
                acc = _table_product(tables, head[done:start], acc)
                acc = mat_mul(acc, mat_pow(_table_product(tables, head[start:start + p]), count))
                done = end
        return mat_mul(_table_product(tables, head[done:], acc), self.d[form.tail])


def _realization(spec: AmalgamSpec, raw: Mapping[str, Iterable]) -> SyllableMatrices:
    """The realization of ``spec`` in which element x of each side is the
    letter word ``raw[side][x]``, folded; the subgroup maps through side a."""
    words = tuple((side, tuple(map(fold_letters, raw[side]))) for side in (SIDE_A, SIDE_B))
    a, b = (tuple(_table_product(LETTERS, word) for word in ws) for _, ws in words)
    syllables = {word[0]: (side, x) for side, ws in words
                 for x, word in enumerate(ws) if len(word) == 1}
    d = tuple(a[x] for x in spec.iota_a.image)
    return SyllableMatrices(spec, a, b, d, words, tuple(syllables.items()))


class DihedralModel(NamedTuple):
    """The dihedral amalgam together with the realizations that
    ``build_dihedral_model`` tabulates: ``small_mats`` for the small amalgam
    Z4 *_Z2 Z6 and ``big_mats`` for the dihedral one."""

    big: BigAmalgam
    small_mats: SyllableMatrices
    big_mats: SyllableMatrices

    def side_matrix(self, side: str, x: int) -> Mat2:
        form = NormalForm(((side, x),), self.big.spec.d.identity)
        return evaluate_word(DihedralAmalgamForm(form))

    def sub_matrix(self, x: int) -> Mat2:
        return evaluate_word(DihedralAmalgamForm(NormalForm((), x)))


@lru_cache(maxsize=1)
def build_dihedral_model() -> DihedralModel:
    """Construct the Z4/Z6/Z2 amalgam, its Z2-inversion lift, and the
    realization of both.  In the small amalgam side a is n -> S^n and side b
    is n -> U^n.  In the dihedral amalgam the syllable (n, c) is the letter
    word s^n j^c on side a and u^n j^c on side b, with only nonzero
    exponents; the subgroup is realized through side a's lifted embedding,
    and side b's would give the same matrices because S^2 = U^3 = -I."""
    za, zb = (make_cyclic(len(LETTERS[name])) for name in "su")
    z2 = make_cyclic(2)  # the actor <J>, and the subgroup <-I>
    # The subgroup is generated by -I, the half-order power on both sides.
    small = make_amalgam(za, zb, z2, hom_from_generators(z2, za, {1: za.order // 2}),
                         hom_from_generators(z2, zb, {1: zb.order // 2}))
    acts = CompatibleActionTriple(*(inversion_action(z2, g) for g in (za, zb, z2)))
    big = make_big_amalgam(small, acts)
    small_mats = _realization(small, {SIDE_A: [(("s", n),) for n in za.elements()],
                                      SIDE_B: [(("u", n),) for n in zb.elements()]})
    big_mats = _realization(big.spec, {
        side: [((name, n), ("j", c)) for n, c in map(sd.decode, sd.flat.elements())]
        for side, name, sd in ((SIDE_A, "s", big.sd_a), (SIDE_B, "u", big.sd_b))
    })
    return DihedralModel(big, small_mats, big_mats)


def evaluate_word(word: Glt2Word | DihedralAmalgamForm | NormalForm) -> Mat2:
    """Exact matrix value of a letter word or a (small or dihedral) form.  A
    letter word is evaluated from generator powers alone, never through the
    amalgam, so it can check the decomposition; a form is checked first, and
    its pairs are read as tuples, since ``check_form`` lets a list pair
    through and the product kernel hashes its keys."""
    if isinstance(word, Glt2Word):
        return _table_product(LETTERS, _reduced_letters(word))
    model = build_dihedral_model()
    if isinstance(word, DihedralAmalgamForm):
        word, mats = word.form, model.big_mats
    elif isinstance(word, NormalForm):
        mats = model.small_mats
    else:
        raise TypeError(f"cannot evaluate {type(word).__name__}")
    check_form(mats.spec, word)
    return mats.evaluate(NormalForm(tuple(map(tuple, word.head)), word.tail))


# A T^q with |q| above this many blocks is one run, folded in O(period)
# blocks; shorter powers stay flat, where tracking the run's state costs more
# than it saves (perfbench's random decompose words took about 50% longer at a
# cutoff of 2 and 15% longer at 4).
_RUN_CUTOFF = 16


def _euclid_runs(
    m: Mat2, syllables: Mapping[tuple[str, int], Syllable]
) -> list[tuple[Sequence, int]]:
    """The raw word of a determinant-1 matrix as runs (block, k) for
    ``_fold_runs``, unchecked, with ``syllables[name, k]`` the syllable of the
    letter power name^k, asked for only with 0 < k < the letter's order.

    Euclidean reduction on the first column: while the lower-left entry is
    nonzero, M = T^q * S^-1 * (S * T^-q * M) with q the nearest-integer
    quotient, which at least halves |c|, so the loop takes logarithmically
    many steps.  The terminal +-upper-triangular matrix is a power of
    T = S^-1 U times a central element.
    """
    # T = S^-1 U, so T^k is k pairs (S^3, U) and T^-k is k pairs (U^5, S).
    s_inv, u1, u_inv, s1, s2 = (syllables[key] for key in
                                (("s", 3), ("u", 1), ("u", 5), ("s", 1), ("s", 2)))
    t_step, t_inv_step = (s_inv, u1), (u_inv, s1)
    runs: list[tuple[Sequence[Syllable], int]] = []
    flat: list[Syllable] = []

    def emit_t_power(k: int) -> None:
        nonlocal flat
        n = abs(k)
        if n <= _RUN_CUTOFF:
            flat.extend((t_step if k > 0 else t_inv_step) * n)
            return
        if n > sys.maxsize // 2:
            raise ValueError(f"T^{k} needs {2 * n} syllables, more than a list can hold")
        runs.extend(((flat, 1), (t_step if k > 0 else t_inv_step, n)))
        flat = []

    a, b, c, d = m.a, m.b, m.c, m.d
    while c != 0:
        q = (2 * a + c) // (2 * c)
        a, b, c, d = -c, -d, a - q * c, b - q * d
        emit_t_power(q)
        flat.append(s_inv)
    # Now [[a, b], [0, a]] with a = +-1: that is (-I if a = -1) * T^(a*b).
    if a == -1:
        flat.append(s2)
    emit_t_power(a * b)
    runs.append((flat, 1))
    return runs


def _decompose(mats: SyllableMatrices, m: Mat2) -> NormalForm:
    """The normal form over ``mats.spec`` of a determinant +-1 matrix, checked
    exactly against the realization ``mats``: for m = m' J^eps, the Euclid
    word of m' then j^eps, each letter power read through ``mats.syllables``,
    reduced once."""
    m1, eps = gl2_split(m)
    syllables = dict(mats.syllables)
    runs = _euclid_runs(m1, syllables)
    if eps:
        runs.append(((syllables["j", eps],), 1))
    form, periods = _fold_runs(mats.spec, runs)
    if mats.evaluate(form, periods) != m:
        raise RuntimeError(f"decomposition of {m} failed its evaluation check")
    return form


def _check_entries(m: Mat2) -> None:
    """Both decomposers' check of a caller's matrix, before any arithmetic: a
    ValueError names the first entry (a, b, c or d) that is not an int.  True
    and False pass as 1 and 0, as in ``SemidirectGroup.encode``."""
    for name, x in zip(Mat2._fields, m):
        if not isinstance(x, int):
            raise ValueError(f"matrix entry {name} is {x!r}, not an integer")


def sl2_decompose(m: Mat2) -> NormalForm:
    """Canonical amalgam normal form of a determinant-1 matrix, checked exactly."""
    _check_entries(m)
    if mat_det(m) != 1:
        raise ValueError(f"matrix has determinant {mat_det(m)}, expected 1")
    return _decompose(build_dihedral_model().small_mats, m)


def gl2_split(m: Mat2) -> tuple[Mat2, int]:
    """Split off the determinant: m = m' * J^eps with det m' = 1."""
    det = mat_det(m)
    if det == 1:
        return m, 0
    if det == -1:
        return mat_mul(m, _J), 1
    raise ValueError(f"matrix has determinant {det}, expected +-1")


def gl2_decompose(m: Mat2) -> DihedralAmalgamForm:
    """Canonical dihedral-amalgam form of a determinant +-1 matrix, checked
    exactly."""
    _check_entries(m)
    return DihedralAmalgamForm(_decompose(build_dihedral_model().big_mats, m))


def word_to_form(word: Glt2Word) -> DihedralAmalgamForm:
    """Reduce a letter word directly into the dihedral amalgam."""
    model = build_dihedral_model()
    syllables = dict(model.big_mats.syllables)
    syls = [syllables[name, k] for name, k in _reduced_letters(word) if k]
    return DihedralAmalgamForm(reduce_word(model.big.spec, syls))


def _render(mats: SyllableMatrices, form: NormalForm) -> Glt2Word:
    """A form over ``mats.spec`` as a letter word: the letter words of its
    syllables in ``mats.words``, joined, with adjacent equal letters folded.
    Table words are folded and their exponents positive, so ``fold_letters``
    would copy every letter before the first pair of adjacent equal letters
    and never pop back past it: only the letters from that pair are folded
    (for a canonical form, at most those of the tail)."""
    words = dict(mats.words)
    letters = tuple(chain.from_iterable([words[s][x] for s, x in to_word(mats.spec, form)]))
    names = "".join(map(itemgetter(0), letters))  # every letter name is one character
    i = min([j for j in map(names.find, [name * 2 for name in LETTERS]) if j >= 0],
            default=len(letters))
    return Glt2Word(letters[:i] + fold_letters(letters[i:]))


def form_to_letters(form: DihedralAmalgamForm) -> Glt2Word:
    """Render a dihedral form as a letter word in s, u and j."""
    model = build_dihedral_model()
    return _render(model.big_mats, form.form)


def small_form_to_letters(form: NormalForm) -> Glt2Word:
    """Render a plain Z4/Z6/Z2 form as a letter word in s and u: side a's x in
    its word as s^x and side b's as u^x."""
    model = build_dihedral_model()
    return _render(model.small_mats, form)
