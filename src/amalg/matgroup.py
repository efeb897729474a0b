"""Exact 2x2 integer matrices and word decomposition over GL2(Z).

``sl2_decompose`` writes a determinant-1 matrix as a canonical normal form in
the order-4 / order-6 amalgam generated by

    S = [[0, -1], [1, 0]]    (S^2 = -I)
    U = [[0, -1], [1, 1]]    (U^3 = -I)

by Euclidean reduction on the first column, and ``gl2_decompose`` extends this
to determinant -1 through the order-2 section

    J = [[0, 1], [1, 0]]     (J S J = S^-1, J U J = U^-1)

landing in the dihedral amalgam built from Z4 x| Z2, Z6 x| Z2, Z2 x| Z2 with
inversion actions, whose realization ``build_dihedral_model`` tabulates once.
Both reduce their Euclid word once, with each long T^q folded a period at a
time as a run, and evaluate the flat form exactly.  All arithmetic is plain
Python int, so entries may grow without overflow.

``LETTERS`` is the one table of the letters s, u, j: their powers, orders and
amalgam sides.  Every function here that reads or writes letter words uses it.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import chain
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .amalgam import (
    SIDE_A, SIDE_B, NormalForm, Syllable, check_form, make_amalgam, reduce_runs, reduce_word,
    to_word,
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


def _table_product(tables: Mapping[str, Any], keys: Iterable[tuple[str, int]]) -> Mat2:
    """The product of ``tables[name][i]`` over the pairs (name, i), left to
    right.  It folds the four entries as local ints and builds one ``Mat2`` at
    the end, none per step."""
    a, b, c, d = 1, 0, 0, 1
    for name, i in keys:
        p, q, r, s = tables[name][i]
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    return Mat2(a, b, c, d)


class Letter(NamedTuple):
    """A letter of GL2(Z) words: ``powers[k]`` is its k-th power, so its order
    is ``len(powers)``.  Syllable x of ``side`` is its x-th power; j lies in
    the amalgamated subgroup and has no side."""

    powers: tuple[Mat2, ...]
    side: str | None

    def __getitem__(self, k: int) -> Mat2:
        """The k-th power, for any integer k."""
        return self.powers[k % len(self.powers)]

    def syllable(self, k: int) -> Syllable:
        """The k-th power as a syllable of the Z4/Z6/Z2 amalgam."""
        return self.side, k % len(self.powers)


_S, _U, _J = standard_generators()
LETTERS = {
    name: Letter(tuple(mat_pow(m, n) for n in range(order)), side)
    for name, m, order, side in (
        ("s", _S, 4, SIDE_A),
        ("u", _U, 6, SIDE_B),
        ("j", _J, 2, None),
    )
}
_SIDE_LETTER = {letter.side: name for name, letter in LETTERS.items() if letter.side}


def _letter(name: str) -> Letter:
    try:
        return LETTERS[name]
    except KeyError:
        raise ValueError(f"unknown letter {name!r}") from None


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


class DihedralAmalgamForm(NamedTuple):
    """A normal form over the dihedral amalgam (D4 amalgamated with D6)."""

    form: NormalForm


class SyllableMatrices(NamedTuple):
    """The matrix of every syllable of one amalgam's realization: ``a[x]`` and
    ``b[x]`` for the elements of each side, ``d[x]`` for the subgroup."""

    a: tuple[Mat2, ...]
    b: tuple[Mat2, ...]
    d: tuple[Mat2, ...]

    def evaluate(self, form: NormalForm) -> Mat2:
        """Exact matrix value of a normal form: one table lookup and one
        product per syllable."""
        head = _table_product({SIDE_A: self.a, SIDE_B: self.b}, form.head)
        return mat_mul(head, self.d[form.tail])


class DihedralModel(NamedTuple):
    """The dihedral amalgam together with its matrix realization, as
    ``build_dihedral_model`` tabulates it: ``small_mats`` for the small
    amalgam Z4 *_Z2 Z6, and for the dihedral one the letter word of each
    syllable of each side (``letters``, pairs (side, words)), their matrices
    (``big_mats``) and the syllable of each one-letter word (``syllables``,
    pairs ((letter, k), syllable)).
    """

    big: BigAmalgam
    small_mats: SyllableMatrices
    big_mats: SyllableMatrices
    letters: tuple[tuple[str, tuple[tuple[tuple[str, int], ...], ...]], ...]
    syllables: tuple[tuple[tuple[str, int], Syllable], ...]

    def side_matrix(self, side: str, x: int) -> Mat2:
        check_form(self.big.spec, NormalForm(((side, x),), self.big.spec.d.identity))
        return {SIDE_A: self.big_mats.a, SIDE_B: self.big_mats.b}[side][x]

    def sub_matrix(self, x: int) -> Mat2:
        check_form(self.big.spec, NormalForm((), x))
        return self.big_mats.d[x]


@lru_cache(maxsize=1)
def build_dihedral_model() -> DihedralModel:
    """Construct the Z4/Z6/Z2 amalgam, its Z2-inversion lift, and the
    realization of both.  In the small amalgam side a is n -> S^n and side b
    is n -> U^n.  In the dihedral amalgam the syllable (n, c) is the letter
    word s^n j^c on side a and u^n j^c on side b, with only nonzero
    exponents; the subgroup is realized through side a's lifted embedding,
    and side b's would give the same matrices because S^2 = U^3 = -I."""
    a_pows, b_pows = (LETTERS[_SIDE_LETTER[side]].powers for side in (SIDE_A, SIDE_B))
    z2, za, zb = make_cyclic(2), make_cyclic(len(a_pows)), make_cyclic(len(b_pows))
    # The subgroup is generated by -I, the half-order power on both sides.
    small = make_amalgam(
        za,
        zb,
        z2,
        hom_from_generators(z2, za, {1: len(a_pows) // 2}),
        hom_from_generators(z2, zb, {1: len(b_pows) // 2}),
    )
    actor = make_cyclic(len(LETTERS["j"].powers))
    acts = CompatibleActionTriple(
        inversion_action(actor, za),
        inversion_action(actor, zb),
        inversion_action(actor, z2),
    )
    big = make_big_amalgam(small, acts)
    small_mats = SyllableMatrices(a_pows, b_pows, tuple(a_pows[x] for x in small.iota_a.image))

    letters = tuple(
        (side, tuple(fold_letters(((_SIDE_LETTER[side], n), ("j", c)))
                     for n, c in map(sd.decode, sd.flat.elements())))
        for side, sd in ((SIDE_A, big.sd_a), (SIDE_B, big.sd_b))
    )
    a_mats, b_mats = (tuple(_table_product(LETTERS, word) for word in words) for _, words in letters)
    big_mats = SyllableMatrices(a_mats, b_mats, tuple(a_mats[x] for x in big.spec.iota_a.image))
    syllables = {word[0]: (side, x) for side, words in letters
                 for x, word in enumerate(words) if len(word) == 1}
    return DihedralModel(big, small_mats, big_mats, letters, tuple(syllables.items()))


def evaluate_word(word: Glt2Word | DihedralAmalgamForm | NormalForm) -> Mat2:
    """Exact matrix value of a letter word or a (small or dihedral) form.  A
    letter word is evaluated from generator powers alone, never through the
    amalgam, so it can check the decomposition; a form is checked first."""
    if isinstance(word, Glt2Word):
        letters = {name: _letter(name) for name, _ in word.letters}
        return _table_product(letters, word.letters)
    model = build_dihedral_model()
    if isinstance(word, DihedralAmalgamForm):
        check_form(model.big.spec, word.form)
        return model.big_mats.evaluate(word.form)
    if isinstance(word, NormalForm):
        check_form(model.big.small, word)
        return model.small_mats.evaluate(word)
    raise TypeError(f"cannot evaluate {type(word).__name__}")


# A T^q with |q| above this many blocks is one run, folded in O(period)
# blocks; shorter powers stay flat, where tracking the run's state costs more
# than it saves (perfbench's random decompose words took about 50% longer at a
# cutoff of 2 and 15% longer at 4).
_RUN_CUTOFF = 16


def _euclid_runs(m: Mat2, syllable: Callable[[str, int], Syllable]) -> list[tuple[Sequence, int]]:
    """The raw word of a determinant-1 matrix as runs (block, k) for
    ``reduce_runs``, unchecked, with ``syllable(name, k)`` the syllable of the
    letter power name^k.

    Euclidean reduction on the first column: while the lower-left entry is
    nonzero, M = T^q * S^-1 * (S * T^-q * M) with q the nearest-integer
    quotient, which at least halves |c|, so the loop takes logarithmically
    many steps.  The terminal +-upper-triangular matrix is a power of
    T = S^-1 U times a central element.
    """
    # T = S^-1 U, so T^k is k pairs (S^-1, U) and T^-k is k pairs (U^-1, S).
    s_inv, u1, u_inv, s1, s2 = (syllable(name, k) for name, k in
                                (("s", -1), ("u", 1), ("u", -1), ("s", 1), ("s", 2)))
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


def sl2_decompose(m: Mat2) -> NormalForm:
    """Canonical amalgam normal form of a determinant-1 matrix, checked exactly."""
    if mat_det(m) != 1:
        raise ValueError(f"matrix has determinant {mat_det(m)}, expected 1")
    model = build_dihedral_model()
    form = reduce_runs(model.big.small, _euclid_runs(m, lambda name, k: LETTERS[name].syllable(k)))
    if model.small_mats.evaluate(form) != m:
        raise RuntimeError(f"decomposition of {m} failed its evaluation check")
    return form


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
    exactly: for m = m' J^eps, the Euclid word of m' then j^eps, with each
    letter power read as a dihedral syllable, reduced once."""
    model = build_dihedral_model()
    m1, eps = gl2_split(m)
    syllables = dict(model.syllables)
    runs = _euclid_runs(m1, lambda name, k: syllables[name, k % len(LETTERS[name].powers)])
    if eps:
        runs.append(((syllables["j", eps],), 1))
    form = DihedralAmalgamForm(reduce_runs(model.big.spec, runs))
    if model.big_mats.evaluate(form.form) != m:
        raise RuntimeError(f"decomposition of {m} failed its evaluation check")
    return form


def word_to_form(word: Glt2Word) -> DihedralAmalgamForm:
    """Reduce a letter word directly into the dihedral amalgam."""
    model = build_dihedral_model()
    syllables = dict(model.syllables)
    syls: list[Syllable] = []
    for name, k in word.letters:
        k %= len(_letter(name).powers)
        if k:
            syls.append(syllables[name, k])
    return DihedralAmalgamForm(reduce_word(model.big.spec, syls))


def form_to_letters(form: DihedralAmalgamForm) -> Glt2Word:
    """Render a dihedral form as a letter word: the letter words of its
    syllables, with adjacent equal letters folded."""
    model = build_dihedral_model()
    letters = dict(model.letters)
    return Glt2Word(fold_letters(chain.from_iterable(
        [letters[side][x] for side, x in to_word(model.big.spec, form.form)]
    )))


def small_form_to_letters(form: NormalForm) -> Glt2Word:
    """Render a plain Z4/Z6/Z2 form as a letter word in s and u: side a's x in
    its word as s^x and side b's as u^x, adjacent equal letters folded."""
    spec = build_dihedral_model().big.small
    return Glt2Word(fold_letters((_SIDE_LETTER[side], x) for side, x in to_word(spec, form)))
