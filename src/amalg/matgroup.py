"""Exact 2x2 integer matrices and word decomposition over GL2(Z).

``sl2_decompose`` writes a determinant-1 matrix as a canonical normal form in
the order-4 / order-6 amalgam generated by

    S = [[0, -1], [1, 0]]    (S^2 = -I)
    U = [[0, -1], [1, 1]]    (U^3 = -I)

by Euclidean reduction on the first column, and ``gl2_decompose`` extends this
to determinant -1 through the order-2 section

    J = [[0, 1], [1, 0]]     (J S J = S^-1, J U J = U^-1)

landing in the dihedral amalgam built from Z4 x| Z2, Z6 x| Z2, Z2 x| Z2 with
inversion actions as phi(w, eps) = nu(w) * tau(eps) of the SL2 form w, with one
reduction there: nu maps each syllable to one syllable and normal forms are
unique.  All arithmetic is plain Python int, so entries may grow without overflow.

``LETTERS`` is the one table of the letters s, u, j: their powers, orders and
amalgam sides.  Every function here that reads or writes letter words uses it.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .amalgam import (
    SIDE_A, SIDE_B, AmalgamSpec, NormalForm, Syllable, check_form, make_amalgam, reduce_word,
    to_word, word_mul,
)
from .groups import hom_from_generators, inversion_action, make_cyclic
from .iso import BigAmalgam, CompatibleActionTriple, make_big_amalgam, nu, tau
from .products import SemidirectGroup

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
    """The dihedral amalgam together with its matrix realization.

    In the small amalgam Z4 *_Z2 Z6, side a is n -> S^n, side b is n -> U^n
    and the subgroup is d -> S^2d = (-I)^d.  In the dihedral amalgam, side a
    is Z4 x| Z2 realized by (n, c) -> S^n J^c, side b is Z6 x| Z2 realized by
    (n, c) -> U^n J^c, and the subgroup Z2 x| Z2 is realized by
    (d, c) -> (-I)^d J^c.  Both lifted embeddings realize the same matrices
    because S^2 = U^3 = -I.
    """

    big: BigAmalgam
    small_mats: SyllableMatrices
    big_mats: SyllableMatrices

    def side_matrix(self, side: str, x: int) -> Mat2:
        check_form(self.big.spec, NormalForm(((side, x),), self.big.spec.d.identity))
        return {SIDE_A: self.big_mats.a, SIDE_B: self.big_mats.b}[side][x]

    def sub_matrix(self, x: int) -> Mat2:
        check_form(self.big.spec, NormalForm((), x))
        return self.big_mats.d[x]


@lru_cache(maxsize=1)
def build_dihedral_model() -> DihedralModel:
    """Construct the Z4/Z6/Z2 amalgam, its Z2-inversion lift, and the
    syllable matrix tables of both."""
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

    d_pows = tuple(a_pows[x] for x in small.iota_a.image)
    small_mats = SyllableMatrices(a_pows, b_pows, d_pows)

    def lifted(sd: SemidirectGroup, base: tuple[Mat2, ...]) -> tuple[Mat2, ...]:
        return tuple(
            mat_mul(base[n], _J) if c else base[n]
            for n, c in map(sd.decode, sd.flat.elements())
        )

    big_mats = SyllableMatrices(
        lifted(big.sd_a, small_mats.a),
        lifted(big.sd_b, small_mats.b),
        lifted(big.sd_d, small_mats.d),
    )
    return DihedralModel(big, small_mats, big_mats)


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


def _sl2_form(m: Mat2, spec: AmalgamSpec, base: Mapping[str, Sequence[int]]) -> NormalForm:
    """The normal form of a determinant-1 matrix in ``spec``, unchecked.

    Euclidean reduction on the first column: while the lower-left entry is
    nonzero, M = T^q * S^-1 * (S * T^-q * M) with q the nearest-integer
    quotient, which at least halves |c|, so the loop takes logarithmically
    many steps.  The terminal +-upper-triangular matrix is a power of
    T = S^-1 U times a central element.  Each syllable (side, x) of the word,
    a power of S or U in the Z4/Z6/Z2 amalgam, is written (side, base[side][x])
    and the word reduced once in ``spec``: the small amalgam with identity
    tables, or the dihedral one with nu's, giving nu of the small form.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    quotients: list[int] = []
    while c != 0:
        q = (2 * a + c) // (2 * c)
        a, b, c, d = -c, -d, a - q * c, b - q * d
        quotients.append(q)
    # Now [[a, b], [0, a]] with a = +-1: that is (-I if a = -1) * T^(a*b).
    # T = S^-1 U, so T^k is k pairs (S^-1, U) and T^-k is k pairs (U^-1, S).
    steps = (("s", -1), ("u", 1), ("u", -1), ("s", 1), ("s", 2))
    s_inv, u1, u_inv, s1, s2 = [(side, base[side][x]) for side, x in
                                (LETTERS[name].syllable(k) for name, k in steps)]
    t_step, t_inv_step = (s_inv, u1), (u_inv, s1)
    syls: list[Syllable] = []

    def emit_t_power(k: int) -> None:
        if abs(k) > sys.maxsize // 2:
            raise ValueError(f"T^{k} needs {2 * abs(k)} syllables, more than a list can hold")
        syls.extend((t_step if k > 0 else t_inv_step) * abs(k))

    for q in quotients:
        emit_t_power(q)
        syls.append(s_inv)
    if a == -1:
        syls.append(s2)
    emit_t_power(a * b)
    return reduce_word(spec, syls)


def sl2_decompose(m: Mat2) -> NormalForm:
    """Canonical amalgam normal form of a determinant-1 matrix, checked exactly."""
    if mat_det(m) != 1:
        raise ValueError(f"matrix has determinant {mat_det(m)}, expected 1")
    small = build_dihedral_model().big.small
    form = _sl2_form(m, small, {SIDE_A: range(small.a.order), SIDE_B: range(small.b.order)})
    if build_dihedral_model().small_mats.evaluate(form) != m:
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
    """Canonical dihedral-amalgam form of a determinant +-1 matrix, checked exactly:
    phi(w, eps) = nu(w) * tau(eps) for m = m' J^eps and w the SL2 form of m', but
    no w is built: the Euclid word of m' is reduced once in the dihedral amalgam."""
    big = build_dihedral_model().big
    m1, eps = gl2_split(m)
    base = {SIDE_A: big.base_a, SIDE_B: big.base_b}
    form = DihedralAmalgamForm(word_mul(big.spec, _sl2_form(m1, big.spec, base), tau(big, eps)))
    if build_dihedral_model().big_mats.evaluate(form.form) != m:
        raise RuntimeError(f"decomposition of {m} failed its evaluation check")
    return form


def word_to_form(word: Glt2Word) -> DihedralAmalgamForm:
    """Reduce a letter word directly into the dihedral amalgam."""
    big = build_dihedral_model().big
    base = {SIDE_A: big.base_a, SIDE_B: big.base_b}
    syls: list[Syllable] = []
    for name, k in word.letters:
        letter = _letter(name)
        if letter.side:
            side, x = letter.syllable(k)
            syls.append((side, base[side][x]))
        else:  # j generates the actor: (0, 1) on side a
            syls.append((SIDE_A, big.sd_a.encode(0, k % len(letter.powers))))
    return DihedralAmalgamForm(reduce_word(big.spec, syls))


def form_to_letters(form: DihedralAmalgamForm) -> Glt2Word:
    """Render a dihedral form as a letter word, folding adjacent letters: a
    syllable (n, c) is its side's letter to the n, then j to the c."""
    big = build_dihedral_model().big
    q = big.actor.order
    raw: list[tuple[str, int]] = []
    for side, x in to_word(big.spec, form.form):
        n, c = divmod(x, q)
        raw.append((_SIDE_LETTER[side], n))
        if c:
            raw.append(("j", c))
    return Glt2Word(fold_letters(raw))


def small_form_to_letters(form: NormalForm) -> Glt2Word:
    """Render a plain Z4/Z6/Z2 form as a letter word in s and u: its image
    under nu is a dihedral form with no j."""
    return form_to_letters(DihedralAmalgamForm(nu(build_dihedral_model().big, form)))
