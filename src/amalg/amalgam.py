"""Amalgamated free products A *_D B with canonical transversal normal forms.

Elements are words in the disjoint union of A and B subject to the relations
of both groups and the identification iota_a(d) = iota_b(d).  Every element
has a unique normal form

    t_1 t_2 ... t_k * d

where the t_i are non-identity coset representatives alternating between the
two sides and d lies in the amalgamated subgroup D.  Representatives are
fixed per side: identity for the subgroup's own coset, lowest element index
for every other coset, and the subgroup part always trails (a = t * iota(d)).

Reduction folds a raw word left to right onto a stack of representatives,
carrying the trailing subgroup part d.  Appending a syllable x on side S
forms iota_S(d) * x, multiplies it into the top of the stack when the top is
on side S (popping the top), splits the result into representative *
subgroup part via the decomposition table, and pushes the representative
unless it is the identity.  Because the subgroup part always trails, it
never has to travel back through the stack, so each syllable costs O(1)
table lookups and reduction is linear in the word length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .groups import FiniteGroup, GroupHom, is_injective, make_hom

__all__ = [
    "SIDE_A",
    "SIDE_B",
    "AmalgamSpec",
    "AmalgamWord",
    "NormalForm",
    "make_amalgam",
    "identity_form",
    "reduce_word",
    "to_word",
    "word_mul",
    "word_inv",
    "word_eq",
    "syllable_count",
    "enumerate_forms",
    "random_form",
]

SIDE_A = "a"
SIDE_B = "b"

Syllable = tuple[str, int]


@dataclass(frozen=True)
class AmalgamWord:
    """A raw, unreduced word: syllables (side, element index)."""

    syllables: tuple[Syllable, ...]

    def __mul__(self, other: "AmalgamWord") -> "AmalgamWord":
        return AmalgamWord(self.syllables + other.syllables)


@dataclass(frozen=True)
class NormalForm:
    """Canonical form: alternating non-identity representatives, then a
    trailing element of the amalgamated subgroup."""

    head: tuple[Syllable, ...]
    tail: int


@dataclass(frozen=True)
class AmalgamSpec:
    """The two factor groups, the embedded subgroup, and the coset data.

    ``trans_a`` lists the chosen representatives (identity first), and
    ``decomp_a[x] = (t, d)`` is the unique splitting x = t * iota_a(d) with t
    a representative; likewise for the b side.
    """

    a: FiniteGroup
    b: FiniteGroup
    d: FiniteGroup
    iota_a: GroupHom
    iota_b: GroupHom
    trans_a: tuple[int, ...]
    trans_b: tuple[int, ...]
    decomp_a: tuple[tuple[int, int], ...]
    decomp_b: tuple[tuple[int, int], ...]
    label: str

    def side_group(self, side: str) -> FiniteGroup:
        return self.a if side == SIDE_A else self.b

    def iota(self, side: str) -> GroupHom:
        return self.iota_a if side == SIDE_A else self.iota_b

    def trans(self, side: str) -> tuple[int, ...]:
        return self.trans_a if side == SIDE_A else self.trans_b

    def decomp(self, side: str) -> tuple[tuple[int, int], ...]:
        return self.decomp_a if side == SIDE_A else self.decomp_b


def _coset_data(
    g: FiniteGroup, iota: GroupHom
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Representatives and splitting table for the cosets t * iota(D) in g."""
    sub = iota.image
    assigned: list[tuple[int, int] | None] = [None] * g.order
    reps: list[int] = []
    scan = [g.identity] + [x for x in range(g.order) if x != g.identity]
    for t in scan:
        if assigned[t] is not None:
            continue
        reps.append(t)
        for dj, h in enumerate(sub):
            y = g.mul[t][h]
            if assigned[y] is not None:
                raise ValueError(
                    f"coset splitting in {g.label} is not unique at element {y}"
                )
            assigned[y] = (t, dj)
    decomp = tuple(assigned)  # type: ignore[arg-type]
    return tuple(reps), decomp


def make_amalgam(
    a: FiniteGroup,
    b: FiniteGroup,
    d: FiniteGroup,
    iota_a: GroupHom,
    iota_b: GroupHom,
    label: str | None = None,
) -> AmalgamSpec:
    """Assemble the amalgam data for A *_D B from two embeddings of D.

    Each embedding is checked once, here, as an injective homomorphism from
    D into its side.  The coset data is correct by construction.
    """
    for name, hom, src, tgt in (
        ("iota_a", iota_a, d, a),
        ("iota_b", iota_b, d, b),
    ):
        if hom.source != src or hom.target != tgt:
            raise ValueError(f"{name} must map {src.label} into {tgt.label}")
        make_hom(hom.source, hom.target, hom.image)
        if not is_injective(hom):
            raise ValueError(f"{name} is not injective")
    trans_a, decomp_a = _coset_data(a, iota_a)
    trans_b, decomp_b = _coset_data(b, iota_b)
    if label is None:
        label = f"{a.label} *[{d.label}] {b.label}"
    return AmalgamSpec(
        a, b, d, iota_a, iota_b, trans_a, trans_b, decomp_a, decomp_b, label
    )


def identity_form(spec: AmalgamSpec) -> NormalForm:
    return NormalForm((), spec.d.identity)


def _append(
    spec: AmalgamSpec, stack: list[Syllable], d: int, syllables: Iterable[Syllable]
) -> int:
    """Append raw syllables to the normal form (stack, d) in place.

    Returns the new trailing subgroup part; ``stack`` is mutated.
    """
    a, b = spec.a, spec.b
    side_a = (a.mul, spec.decomp_a, spec.iota_a.image, a.identity)
    side_b = (b.mul, spec.decomp_b, spec.iota_b.image, b.identity)
    for side, x in syllables:
        if side == SIDE_A:
            mul, decomp, img, e = side_a
        elif side == SIDE_B:
            mul, decomp, img, e = side_b
        else:
            raise ValueError(f"unknown side {side!r}")
        if not 0 <= x < len(mul):
            raise ValueError(
                f"element {x} out of range for side {side} of {spec.label}"
            )
        x = mul[img[d]][x]
        if stack and stack[-1][0] == side:
            x = mul[stack.pop()[1]][x]
        t, d = decomp[x]
        if t != e:
            stack.append((side, t))
    return d


def reduce_word(spec: AmalgamSpec, word: AmalgamWord | Sequence[Syllable]) -> NormalForm:
    """Fold a raw word into its unique normal form, left to right, in time
    linear in its length."""
    syllables = word.syllables if isinstance(word, AmalgamWord) else word
    stack: list[Syllable] = []
    tail = _append(spec, stack, spec.d.identity, syllables)
    return NormalForm(tuple(stack), tail)


def to_word(spec: AmalgamSpec, form: NormalForm) -> AmalgamWord:
    """Embed a normal form back into raw-word syllables (tail on side a)."""
    syls = list(form.head)
    if form.tail != spec.d.identity:
        syls.append((SIDE_A, spec.iota_a.image[form.tail]))
    return AmalgamWord(tuple(syls))


def syllable_count(spec: AmalgamSpec, form: NormalForm) -> int:
    return len(form.head) + (1 if form.tail != spec.d.identity else 0)


def word_mul(spec: AmalgamSpec, u: NormalForm, v: NormalForm) -> NormalForm:
    """Product of two normal forms: fold v's head onto u, then multiply the
    tails, in time O(|u| + |v|)."""
    stack = list(u.head)
    d = _append(spec, stack, u.tail, v.head)
    return NormalForm(tuple(stack), spec.d.mul[d][v.tail])


def word_inv(spec: AmalgamSpec, u: NormalForm) -> NormalForm:
    """Inverse: reverse the embedded word and invert each syllable."""
    syls = to_word(spec, u).syllables
    inverted = [
        (side, spec.side_group(side).inv[x]) for side, x in reversed(syls)
    ]
    return reduce_word(spec, inverted)


def word_eq(
    spec: AmalgamSpec,
    u: AmalgamWord | NormalForm,
    v: AmalgamWord | NormalForm,
) -> bool:
    """Whether two words (raw or reduced) name the same group element."""
    nu = u if isinstance(u, NormalForm) else reduce_word(spec, u)
    nv = v if isinstance(v, NormalForm) else reduce_word(spec, v)
    return nu == nv


def _heads(spec: AmalgamSpec, max_len: int) -> list[tuple[Syllable, ...]]:
    reps = {
        SIDE_A: [t for t in spec.trans_a if t != spec.a.identity],
        SIDE_B: [t for t in spec.trans_b if t != spec.b.identity],
    }
    out: list[tuple[Syllable, ...]] = [()]
    layer: list[tuple[Syllable, ...]] = [()]
    for _ in range(max_len):
        nxt = []
        for h in layer:
            sides = (SIDE_A, SIDE_B) if not h else (
                (SIDE_B,) if h[-1][0] == SIDE_A else (SIDE_A,)
            )
            for s in sides:
                for t in reps[s]:
                    nxt.append(h + ((s, t),))
        out.extend(nxt)
        layer = nxt
    return out


def enumerate_forms(spec: AmalgamSpec, max_head: int) -> list[NormalForm]:
    """All normal forms with head length at most max_head, in a fixed order."""
    return [
        NormalForm(h, d)
        for h in _heads(spec, max_head)
        for d in spec.d.elements()
    ]


def random_form(rng: random.Random, spec: AmalgamSpec, max_head: int) -> NormalForm:
    """A seeded random normal form with head length at most max_head."""
    reps_a = [t for t in spec.trans_a if t != spec.a.identity]
    reps_b = [t for t in spec.trans_b if t != spec.b.identity]
    length = rng.randint(0, max_head)
    head: list[Syllable] = []
    if reps_a or reps_b:
        if not reps_a:
            side = SIDE_B
        elif not reps_b:
            side = SIDE_A
        else:
            side = rng.choice((SIDE_A, SIDE_B))
        for _ in range(length):
            reps = reps_a if side == SIDE_A else reps_b
            if not reps:
                break
            head.append((side, rng.choice(reps)))
            side = SIDE_B if side == SIDE_A else SIDE_A
    tail = rng.randrange(spec.d.order)
    return NormalForm(tuple(head), tail)
