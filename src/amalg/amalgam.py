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

A word may also be given as runs (block, k), the block repeated k times.
Folding m syllables pops at most m entries, so a block of m syllables reads
and rewrites only the top m.  While the stack has not shrunk from one block
boundary to the next, the state (d, top m entries) at a boundary fixes every
later boundary, up to the untouched entries below.  So once a state recurs,
each further period pushes the same entries under the top m, and a periodic
run costs O(period) folds however large k is (``_fold_runs``).  The stack
entries from the recurring state's top up to the current top are then one
period, repeated once per period, and ``_fold_runs`` reports where, so that a
reader of the form can take the stretch as one period raised to a power.
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple, Sequence

from .groups import FiniteGroup, GroupHom, check_group_axioms, is_injective, make_hom

__all__ = [
    "SIDE_A",
    "SIDE_B",
    "AmalgamSpec",
    "NormalForm",
    "make_amalgam",
    "identity_form",
    "reduce_word",
    "check_form",
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


class NormalForm(NamedTuple):
    """Canonical form: alternating non-identity representatives, then a
    trailing element of the amalgamated subgroup."""

    head: tuple[Syllable, ...]
    tail: int


class AmalgamSpec(NamedTuple):
    """The two factor groups, the embedded subgroup, and the coset data.

    ``trans_a`` lists the chosen representatives (identity first), and
    ``decomp_a[x] = (t, d)`` is the unique splitting x = t * iota_a(d) with t
    a representative; likewise for the b side.  ``tables_a`` is the tuple
    ``(a.mul, decomp_a, iota_a.image, a.identity)`` that reduction reads,
    built once by ``make_amalgam``; likewise ``tables_b``.  ``syllables``,
    the frozenset of every syllable of either side, is read by ``check_form``.
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
    tables_a: tuple
    tables_b: tuple
    syllables: frozenset


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
) -> AmalgamSpec:
    """Assemble the amalgam data for A *_D B from two embeddings of D.

    The three groups are read from a caller, so ``check_group_axioms`` checks
    each, A then B then D; a ValueError names the first that fails, with its
    first failed axiom and witness.  Then ``_amalgam`` builds the rest.
    """
    for g in (a, b, d):
        failed = check_group_axioms(g).first_failure()
        if failed is not None:
            raise ValueError(f"group {g.label} violates {failed.check}: {failed.witness}")
    return _amalgam(a, b, d, iota_a, iota_b)


def _amalgam(
    a: FiniteGroup,
    b: FiniteGroup,
    d: FiniteGroup,
    iota_a: GroupHom,
    iota_b: GroupHom,
) -> AmalgamSpec:
    """``make_amalgam``'s core, for groups known to be groups.  Each
    embedding is checked once, here, as an injective homomorphism from D into
    its side.  The coset data is correct by construction.
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
    label = f"{a.label} *[{d.label}] {b.label}"
    return AmalgamSpec(
        a, b, d, iota_a, iota_b, trans_a, trans_b, decomp_a, decomp_b, label,
        (a.mul, decomp_a, iota_a.image, a.identity),
        (b.mul, decomp_b, iota_b.image, b.identity),
        frozenset([(SIDE_A, x) for x in a.elements()] + [(SIDE_B, x) for x in b.elements()]),
    )


def identity_form(spec: AmalgamSpec) -> NormalForm:
    return NormalForm((), spec.d.identity)


def _append(
    spec: AmalgamSpec, stack: list[Syllable], d: int, syllables: Sequence[Syllable]
) -> int:
    """Append raw syllables to the normal form (stack, d) in place.

    Returns the new trailing subgroup part; ``stack`` is mutated.  An element
    that is not an int in range, such as 1.5 or "1", is out of range, and a
    syllable that is not a (side, element) pair is named with its position.
    """
    side_a, side_b = spec.tables_a, spec.tables_b
    x = 0  # an error with x an int comes from a syllable that is not a pair
    try:
        for side, x in syllables:
            if side == SIDE_A:
                mul, decomp, img, e = side_a
            elif side == SIDE_B:
                mul, decomp, img, e = side_b
            else:
                break
            if not 0 <= x < len(mul):
                break
            x = mul[img[d]][x]
            if stack and stack[-1][0] == side:
                x = mul[stack.pop()[1]][x]
            t, d = decomp[x]
            if t != e:
                stack.append((side, t))
        else:
            return d
    except (TypeError, ValueError):
        if isinstance(x, int):  # every syllable before the failing one is a pair
            for i, syllable in enumerate(syllables):
                try:
                    side, x = syllable
                except (TypeError, ValueError):
                    raise ValueError(
                        f"syllable {syllable!r} at position {i} is not a (side, element) pair"
                    ) from None
    if side not in (SIDE_A, SIDE_B):
        raise ValueError(f"unknown side {side!r}")
    raise ValueError(f"element {x!r} out of range for side {side} of {spec.label}")


def reduce_word(spec: AmalgamSpec, word: Iterable[Syllable]) -> NormalForm:
    """Fold a raw word, a sequence of syllables (side, element index), into
    its unique normal form, left to right, in time linear in its length."""
    stack: list[Syllable] = []
    word = word if isinstance(word, (list, tuple)) else list(word)  # read again on errors
    tail = _append(spec, stack, spec.d.identity, word)
    return NormalForm(tuple(stack), tail)


def _fold_runs(
    spec: AmalgamSpec, runs: Iterable[tuple[Sequence[Syllable], int]]
) -> tuple[NormalForm, list[tuple[int, int, int]]]:
    """The normal form of a word given as runs (block, k), each the block
    repeated k times, and where it inserted whole periods: one (start, p,
    count) per run whose state recurred on a higher stack, saying that the
    head's entries from ``start`` were then p entries repeated ``count``
    times.  Later runs may pop or rewrite them, so a reader compares before
    it relies on one."""
    stack: list[Syllable] = []
    periods: list[tuple[int, int, int]] = []
    d = spec.d.identity
    for block, k in runs:
        if k == 1:
            d = _append(spec, stack, d, block)
            continue
        m = len(block)
        seen: dict[tuple, tuple[int, int]] = {}  # state -> (boundary, stack height)
        height = len(stack)
        for i in range(k):
            if len(stack) < height:
                seen.clear()  # entries under the earlier states' tops were popped
            height = len(stack)
            j, h = seen.setdefault((d, tuple(stack[-m:])), (i, height))
            if j < i:
                count, rest = divmod(k - i, i - j)
                stack[height - m:height - m] = stack[h - m:height - m] * count
                if height > h:
                    periods.append((h - m, height - h, count + 1))
                d = _append(spec, stack, d, block * rest)
                break
            d = _append(spec, stack, d, block)
    return NormalForm(tuple(stack), d), periods


def check_form(spec: AmalgamSpec, form: NormalForm) -> None:
    """The one check of a form read from a caller: ``reduce_word``'s
    ValueError for its first bad syllable, else one for a tail that is not an
    int in range.  True and False hash and compare equal to 1 and 0, so they
    pass as those, as an element or as a tail.  A head the set test rejects
    or cannot hash, such as one with a list pair, is read by ``reduce_word``.
    Public functions call it once on what their caller passed; a form the
    library made goes to a private core (``_word``, ``_mul``, the iso maps'
    cores) unchecked."""
    try:
        known = spec.syllables.issuperset(form.head)
    except TypeError:
        known = False
    if not known:
        reduce_word(spec, form.head)  # raises the error for the first bad syllable
    if not (isinstance(form.tail, int) and 0 <= form.tail < len(spec.d.mul)):
        raise ValueError(
            f"tail {form.tail!r} out of range for the subgroup {spec.d.label} of {spec.label}"
        )


def _word(spec: AmalgamSpec, form: NormalForm) -> tuple[Syllable, ...]:
    """``to_word``'s core, for a form the library made: its head, then its
    tail as a side-a syllable unless the tail is the identity.  This is the
    only place that writes a tail as a syllable."""
    if form.tail == spec.d.identity:
        return form.head
    return form.head + ((SIDE_A, spec.iota_a.image[form.tail]),)


def to_word(spec: AmalgamSpec, form: NormalForm) -> tuple[Syllable, ...]:
    """A normal form read from a caller, checked by ``check_form``, as a raw
    word (``_word``)."""
    check_form(spec, form)
    return _word(spec, form)


def syllable_count(spec: AmalgamSpec, form: NormalForm) -> int:
    return len(to_word(spec, form))


def _mul(spec: AmalgamSpec, u: NormalForm, v: NormalForm) -> NormalForm:
    """``word_mul``'s core, for forms the library made: fold v's head onto
    u, then multiply the tails, in time O(|u| + |v|); a head-less v only
    multiplies the tails."""
    d_mul = spec.d.mul
    if v.head == ():
        return NormalForm(tuple(u.head), d_mul[u.tail][v.tail])
    stack = list(u.head)
    d = _append(spec, stack, u.tail, v.head)
    return NormalForm(tuple(stack), d_mul[d][v.tail])


def word_mul(spec: AmalgamSpec, u: NormalForm, v: NormalForm) -> NormalForm:
    """Product of two normal forms read from a caller (``_mul``).
    ``check_form`` checks u and v's tail, and ``_append`` checks v's head as
    it folds it."""
    check_form(spec, u)
    if not (isinstance(v.tail, int) and 0 <= v.tail < len(spec.d.mul)):
        check_form(spec, v)  # raises the error for v's tail
    return _mul(spec, u, v)


def _inverse_word(spec: AmalgamSpec, u: NormalForm) -> list[Syllable]:
    """``word_inv``'s core, for a form the library made: the raw word of u's
    inverse, u's word reversed with each syllable inverted."""
    inv = {SIDE_A: spec.a.inv, SIDE_B: spec.b.inv}
    return [(s, inv[s][x]) for s, x in reversed(_word(spec, u))]


def word_inv(spec: AmalgamSpec, u: NormalForm) -> NormalForm:
    """Inverse of a normal form read from a caller, checked by
    ``check_form``: its ``_inverse_word``, reduced."""
    check_form(spec, u)
    return reduce_word(spec, _inverse_word(spec, u))


def word_eq(
    spec: AmalgamSpec,
    u: tuple[Syllable, ...] | NormalForm,
    v: tuple[Syllable, ...] | NormalForm,
) -> bool:
    """Whether two words name the same element: each is reduced, a form
    through its word, which ``to_word`` checks, so a form need not be canonical."""
    nu, nv = (reduce_word(spec, to_word(spec, w) if isinstance(w, NormalForm) else w)
              for w in (u, v))
    return nu == nv


def _reps(spec: AmalgamSpec) -> dict[str, tuple[int, ...]]:
    """The non-identity representatives of each side, in transversal order
    (``_coset_data`` lists the identity first)."""
    return {SIDE_A: spec.trans_a[1:], SIDE_B: spec.trans_b[1:]}


def _heads(spec: AmalgamSpec, max_len: int) -> list[tuple[Syllable, ...]]:
    reps = _reps(spec)
    out: list[tuple[Syllable, ...]] = [()]
    layer: list[tuple[Syllable, ...]] = [()]
    for _ in range(max_len):
        nxt = []
        for h in layer:
            for s in (SIDE_A, SIDE_B):
                if not h or h[-1][0] != s:
                    nxt.extend(h + ((s, t),) for t in reps[s])
        out.extend(nxt)
        layer = nxt
    return out


def enumerate_forms(spec: AmalgamSpec, max_head: int) -> list[NormalForm]:
    """All normal forms with head length at most max_head, in a fixed order."""
    if max_head < 0:
        raise ValueError(f"max_head must be non-negative, got {max_head}")
    return [
        NormalForm(h, d)
        for h in _heads(spec, max_head)
        for d in spec.d.elements()
    ]


def random_form(rng: random.Random, spec: AmalgamSpec, max_head: int) -> NormalForm:
    """A seeded random normal form with head length at most max_head."""
    if max_head < 0:
        raise ValueError(f"max_head must be non-negative, got {max_head}")
    reps = _reps(spec)
    length = rng.randint(0, max_head)
    sides = [s for s in (SIDE_A, SIDE_B) if reps[s]]
    if len(sides) == 2 and rng.choice(sides) == SIDE_B:
        sides.reverse()
    # Heads alternate sides, so with representatives on one side only a head
    # has at most one syllable.
    sides = (sides * length)[: length if len(sides) == 2 else 1]
    # A list first: tuple() of a generator regrows the tuple (+0.5 MB peak RSS).
    head = tuple([(s, rng.choice(reps[s])) for s in sides])
    return NormalForm(head, rng.randrange(spec.d.order))
