"""Exact 2x2 integer matrices and word decomposition over GL2(Z).

``sl2_decompose`` writes a determinant-1 matrix as a canonical normal form in
the order-4 / order-6 amalgam generated by

    S = [[0, -1], [1, 0]]    (S^2 = -I)
    U = [[0, -1], [1, 1]]    (U^3 = -I)

by Euclidean reduction on the first column, and ``gl2_decompose`` extends this
to determinant -1 through the order-2 section

    J = [[0, 1], [1, 0]]     (J S J = S^-1, J U J = U^-1)

landing in the dihedral amalgam built from Z4 x| Z2, Z6 x| Z2, Z2 x| Z2 with
inversion actions.  All arithmetic is plain Python int, so entries may grow
without overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .amalgam import SIDE_A, SIDE_B, NormalForm, Syllable, make_amalgam, reduce_word
from .groups import hom_from_generators, inversion_action, make_cyclic
from .iso import BigAmalgam, CompatibleActionTriple, make_big_amalgam, phi
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
    "SyllableMatrices",
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


@dataclass(frozen=True)
class Mat2:
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


@dataclass(frozen=True)
class Glt2Word:
    """A word in the letters s, u, j with nonzero integer exponents."""

    letters: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class DihedralAmalgamForm:
    """A normal form over the dihedral amalgam (D4 amalgamated with D6)."""

    form: NormalForm


@dataclass(frozen=True)
class SyllableMatrices:
    """The matrix of every syllable of one amalgam's realization: ``a[x]`` and
    ``b[x]`` for the elements of each side, ``d[x]`` for the subgroup."""

    a: tuple[Mat2, ...]
    b: tuple[Mat2, ...]
    d: tuple[Mat2, ...]

    def evaluate(self, form: NormalForm) -> Mat2:
        """Exact matrix value of a normal form: one table lookup and one
        product per syllable."""
        acc = IDENTITY
        for side, x in form.head:
            acc = mat_mul(acc, (self.a if side == SIDE_A else self.b)[x])
        return mat_mul(acc, self.d[form.tail])


@dataclass(frozen=True)
class DihedralModel:
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
        return (self.big_mats.a if side == SIDE_A else self.big_mats.b)[x]

    def sub_matrix(self, x: int) -> Mat2:
        return self.big_mats.d[x]


@lru_cache(maxsize=1)
def build_dihedral_model() -> DihedralModel:
    """Construct the Z4/Z6/Z2 amalgam, its Z2-inversion lift, and the
    syllable matrix tables of both."""
    z2, z4, z6 = make_cyclic(2), make_cyclic(4), make_cyclic(6)
    small = make_amalgam(
        z4,
        z6,
        z2,
        hom_from_generators(z2, z4, {1: 2}),
        hom_from_generators(z2, z6, {1: 3}),
    )
    actor = make_cyclic(2)
    acts = CompatibleActionTriple(
        inversion_action(actor, z4),
        inversion_action(actor, z6),
        inversion_action(actor, z2),
    )
    big = make_big_amalgam(small, acts)

    s_mat, u_mat, j_mat = standard_generators()
    s_pows = tuple(mat_pow(s_mat, n) for n in range(4))
    u_pows = tuple(mat_pow(u_mat, n) for n in range(6))
    small_mats = SyllableMatrices(s_pows, u_pows, s_pows[::2])

    def lifted(sd: SemidirectGroup, base: tuple[Mat2, ...]) -> tuple[Mat2, ...]:
        return tuple(
            mat_mul(base[n], j_mat) if c else base[n]
            for n, c in map(sd.decode, sd.flat.elements())
        )

    big_mats = SyllableMatrices(
        lifted(big.sd_a, small_mats.a),
        lifted(big.sd_b, small_mats.b),
        lifted(big.sd_d, small_mats.d),
    )
    return DihedralModel(big, small_mats, big_mats)


def _eval_letters(word: Glt2Word) -> Mat2:
    s_mat, u_mat, j_mat = standard_generators()
    mats = {"s": s_mat, "u": u_mat, "j": j_mat}
    acc = IDENTITY
    for letter, k in word.letters:
        if letter not in mats:
            raise ValueError(f"unknown letter {letter!r}")
        acc = mat_mul(acc, mat_pow(mats[letter], k))
    return acc


def evaluate_word(word: Glt2Word | DihedralAmalgamForm | NormalForm) -> Mat2:
    """Exact matrix value of a letter word or a (small or dihedral) form."""
    model = build_dihedral_model()
    if isinstance(word, Glt2Word):
        return _eval_letters(word)
    if isinstance(word, DihedralAmalgamForm):
        return model.big_mats.evaluate(word.form)
    if isinstance(word, NormalForm):
        return model.small_mats.evaluate(word)
    raise TypeError(f"cannot evaluate {type(word).__name__}")


def sl2_decompose(m: Mat2) -> NormalForm:
    """Canonical amalgam normal form of a determinant-1 matrix.

    Euclidean reduction on the first column: while the lower-left entry is
    nonzero, M = T^q * S^-1 * (S * T^-q * M) with q the floor quotient, which
    strictly shrinks |c|.  The terminal +-upper-triangular matrix is a power
    of T = S^-1 U times a central element, and the collected word is folded
    into the Z4/Z6/Z2 amalgam (a-syllables are powers of S, b-syllables
    powers of U, the subgroup generator is S^2 = -I).
    """
    if mat_det(m) != 1:
        raise ValueError(f"matrix has determinant {mat_det(m)}, expected 1")
    a, b, c, d = m.a, m.b, m.c, m.d
    quotients: list[int] = []
    while c != 0:
        q = a // c
        a, b, c, d = -c, -d, a - q * c, b - q * d
        quotients.append(q)
    # Now [[a, b], [0, d]] with a = d = +-1.  Syllable a:n is S^n and b:n is
    # U^n, so S^-1 = a:3, S^2 = a:2, U = b:1 and U^-1 = b:5.
    syls: list[Syllable] = []

    def emit_t_power(k: int) -> None:
        # T = S^-1 U, so T^k is k alternating (S^-1, U) pairs.
        step = ((SIDE_A, 3), (SIDE_B, 1)) if k > 0 else ((SIDE_B, 5), (SIDE_A, 1))
        syls.extend(step * abs(k))

    for q in quotients:
        emit_t_power(q)
        syls.append((SIDE_A, 3))
    if a == 1:
        emit_t_power(b)
    else:
        syls.append((SIDE_A, 2))
        emit_t_power(-b)

    model = build_dihedral_model()
    form = reduce_word(model.big.small, syls)
    if model.small_mats.evaluate(form) != m:
        raise RuntimeError(f"decomposition of {m} failed its evaluation check")
    return form


def gl2_split(m: Mat2) -> tuple[Mat2, int]:
    """Split off the determinant: m = m' * J^eps with det m' = 1."""
    det = mat_det(m)
    if det == 1:
        return m, 0
    if det == -1:
        _, _, j_mat = standard_generators()
        return mat_mul(m, j_mat), 1
    raise ValueError(f"matrix has determinant {det}, expected +-1")


def gl2_decompose(m: Mat2) -> DihedralAmalgamForm:
    """Canonical dihedral-amalgam form of a determinant +-1 matrix."""
    model = build_dihedral_model()
    m1, eps = gl2_split(m)
    small = sl2_decompose(m1)
    form = DihedralAmalgamForm(phi(model.big, small, eps))
    if model.big_mats.evaluate(form.form) != m:
        raise RuntimeError(f"decomposition of {m} failed its evaluation check")
    return form


def word_to_form(word: Glt2Word) -> DihedralAmalgamForm:
    """Reduce a letter word directly into the dihedral amalgam."""
    model = build_dihedral_model()
    big = model.big
    syls: list[Syllable] = []
    for letter, k in word.letters:
        if letter == "s":
            k %= 4
            if k:
                syls.append((SIDE_A, big.sd_a.encode(k, 0)))
        elif letter == "u":
            k %= 6
            if k:
                syls.append((SIDE_B, big.sd_b.encode(k, 0)))
        elif letter == "j":
            if k % 2:
                syls.append((SIDE_A, big.sd_a.encode(0, 1)))
        else:
            raise ValueError(f"unknown letter {letter!r}")
    return DihedralAmalgamForm(reduce_word(big.spec, syls))


_LETTER_ORDER = {"s": 4, "u": 6, "j": 2}


def _fold_mod(raw: list[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """Fold adjacent equal letters, reducing exponents by the letter orders."""
    stack: list[tuple[str, int]] = []
    for letter, k in raw:
        k %= _LETTER_ORDER[letter]
        if not k:
            continue
        if stack and stack[-1][0] == letter:
            k = (stack.pop()[1] + k) % _LETTER_ORDER[letter]
            if not k:
                continue
        stack.append((letter, k))
    return tuple(stack)


def form_to_letters(form: DihedralAmalgamForm) -> Glt2Word:
    """Render a dihedral form as a letter word, folding adjacent letters."""
    big = build_dihedral_model().big
    raw: list[tuple[str, int]] = []
    for side, x in form.form.head:
        n, c = big.side_sd(side).decode(x)
        raw.append(("s" if side == SIDE_A else "u", n))
        if c:
            raw.append(("j", 1))
    d, c = big.sd_d.decode(form.form.tail)
    raw.append(("s", 2 * d))
    if c:
        raw.append(("j", 1))
    return Glt2Word(_fold_mod(raw))


def small_form_to_letters(form: NormalForm) -> Glt2Word:
    """Render a plain Z4/Z6/Z2 form as a letter word in s and u."""
    raw = [("s" if side == SIDE_A else "u", x) for side, x in form.head]
    raw.append(("s", 2 * form.tail))
    return Glt2Word(_fold_mod(raw))
