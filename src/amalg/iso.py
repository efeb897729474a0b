"""Distributing a semidirect action over an amalgam.

Given compatible actions of C on A, B, and D (compatible meaning the
embeddings intertwine them), C acts on A *_D B syllable-wise, so the
semidirect product (A *_D B) x| C makes sense.  On the other side, the lifted
embeddings (d, c) -> (iota(d), c) exhibit a second amalgam
(A x| C) *_(D x| C) (B x| C).  This module builds both (make_big_amalgam
checks compatibility once) and the mutually inverse maps between them.  The
law (w1, c1)(w2, c2) = (w1 c1(w2), c1 c2) is written once, in the fold
``_times``, for the induced action BigAmalgam.act, SmallSemidirect, phi_inv
and the Cayley edges of verify_split.

  nu   embeds the plain amalgam into the big one (syllables pick up a
       trivial C-component),
  mu   projects the big amalgam onto C (product of the C-components in word
       order),
  tau  sections mu through the subgroup side (c -> the class of (e_A, c)),
  phi  (w, c) -> nu(w) * tau(c), with inverse phi_inv (Psi), which reads each
       syllable (n, c) as the pair ((n), c) and multiplies the pairs out.

verify_exact_sequence checks image nu = kernel mu at a head-length bound,
and verify_split checks the section and hom laws plus both round trips.  Its
hom law on single-syllable pairs is proved on the pairs (e, x) and on the
Cayley edges of the two factor products; the proof needs what
make_big_amalgam checks: actions by automorphisms and generating sets of the
semidirect tables.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .amalgam import (
    SIDE_A,
    SIDE_B,
    AmalgamSpec,
    NormalForm,
    Syllable,
    _append,
    check_form,
    enumerate_forms,
    identity_form,
    make_amalgam,
    random_form,
    reduce_word,
    to_word,
    word_inv,
    word_mul,
)
from .groups import FiniteGroup, GroupAction, GroupHom
from .products import SemidirectGroup, semidirect, split_maps
from .reporting import Report, first_witness

__all__ = [
    "CompatibleActionTriple",
    "BigAmalgam",
    "make_big_amalgam",
    "SmallSemidirect",
    "nu",
    "mu",
    "tau",
    "phi",
    "phi_inv",
    "verify_exact_sequence",
    "verify_split",
]


class CompatibleActionTriple(NamedTuple):
    """Actions of one actor C on the two factors and the subgroup."""

    act_a: GroupAction
    act_b: GroupAction
    act_d: GroupAction

    @property
    def actor(self) -> FiniteGroup:
        return self.act_a.actor


def _require_compatible(spec: AmalgamSpec, acts: CompatibleActionTriple) -> None:
    """The embeddings must intertwine the subgroup action with each side's."""
    c_group = acts.act_a.actor
    if acts.act_b.actor != c_group or acts.act_d.actor != c_group:
        raise ValueError("compatibility violation: actions have different actors")
    if (
        acts.act_a.space != spec.a
        or acts.act_b.space != spec.b
        or acts.act_d.space != spec.d
    ):
        raise ValueError("compatibility violation: actions do not match the amalgam")
    for side, act, iota in (
        (SIDE_A, acts.act_a, spec.iota_a),
        (SIDE_B, acts.act_b, spec.iota_b),
    ):
        for c in c_group.elements():
            for d in spec.d.elements():
                if iota.image[acts.act_d.table[c][d]] != act.table[c][iota.image[d]]:
                    raise ValueError(
                        f"compatibility violation on side {side}: "
                        f"witness (c, d) = ({c}, {d})"
                    )


class BigAmalgam(NamedTuple):
    """The amalgam of the three semidirect products, plus its ingredients.

    ``make_big_amalgam`` builds it once ``acts`` is checked compatible with
    ``small``, which ``act`` relies on.  It also tabulates, for ``nu`` and
    ``tau``, the base embeddings n -> (n, e_C) of the two sides and the
    forms tau(c) of the section c -> (e_D, c).  The three products share C,
    so a big syllable or tail x of either side is the pair divmod(x, |C|).
    """

    small: AmalgamSpec
    acts: CompatibleActionTriple
    sd_a: SemidirectGroup
    sd_b: SemidirectGroup
    sd_d: SemidirectGroup
    spec: AmalgamSpec
    base_a: tuple[int, ...]
    base_b: tuple[int, ...]
    taus: tuple[NormalForm, ...]

    @property
    def actor(self) -> FiniteGroup:
        return self.acts.actor

    def act(self, c: int, form: NormalForm) -> NormalForm:
        """The induced action: c(form) is the form part of (e, c) times
        (form, e_C).  An actor element out of range gets ``tau``'s error."""
        tau(self, c)
        word = to_word(self.small, form)
        return _times(self, (((), self.small.d.identity), c), [(word, self.actor.identity)])[0]


def make_big_amalgam(spec: AmalgamSpec, acts: CompatibleActionTriple) -> BigAmalgam:
    """Build (A x| C) *_(D x| C) (B x| C) with the lifted embeddings.

    The actions are checked for compatibility first.  The lifts
    (d, c) -> (iota(d), c) are then checked once, by ``make_amalgam``, as
    injective homomorphisms of the flat semidirect tables.
    """
    _require_compatible(spec, acts)
    c_group = acts.actor
    sd_a = semidirect(spec.a, c_group, acts.act_a)
    sd_b = semidirect(spec.b, c_group, acts.act_b)
    sd_d = semidirect(spec.d, c_group, acts.act_d)
    lift_a, lift_b = (
        GroupHom(sd_d.flat, sd.flat, tuple(
            sd.encode(iota.image[d], c) for d in spec.d.elements() for c in c_group.elements()
        ))
        for sd, iota in ((sd_a, spec.iota_a), (sd_b, spec.iota_b))
    )
    big_spec = make_amalgam(sd_a.flat, sd_b.flat, sd_d.flat, lift_a, lift_b)
    base_a, base_b = (split_maps(sd)[0].image for sd in (sd_a, sd_b))
    taus = tuple([NormalForm((), x) for x in split_maps(sd_d)[2].image])
    return BigAmalgam(spec, acts, sd_a, sd_b, sd_d, big_spec, base_a, base_b, taus)


class SmallSemidirect:
    """(A *_D B) x| C: pairs (normal form, actor element), each actor element
    checked by ``tau``."""

    def __init__(self, big: BigAmalgam):
        self.big = big
        self.spec = big.small
        self.actor = big.actor

    def identity(self) -> tuple[NormalForm, int]:
        return identity_form(self.spec), self.actor.identity

    def mul(
        self, x: tuple[NormalForm, int], y: tuple[NormalForm, int]
    ) -> tuple[NormalForm, int]:
        (w1, c1), (w2, c2) = x, y
        tau(self.big, c2), tau(self.big, c1)  # report actor elements out of range
        check_form(self.spec, w1)
        return _times(self.big, x, [(to_word(self.spec, w2), c2)])

    def inv(self, x: tuple[NormalForm, int]) -> tuple[NormalForm, int]:
        w, c = x
        tau(self.big, c)  # reports c out of range
        ci = self.actor.inv[c]
        return self.big.act(ci, word_inv(self.spec, w)), ci


def nu(big: BigAmalgam, form: NormalForm) -> NormalForm:
    """Embed a plain normal form: each syllable gains a trivial C-component,
    read from the base embedding of its side."""
    base = {SIDE_A: big.base_a, SIDE_B: big.base_b}
    return reduce_word(big.spec, [(s, base[s][t]) for s, t in to_word(big.small, form)])


def mu(big: BigAmalgam, form: NormalForm) -> int:
    """Project onto C: multiply the C-components in word order."""
    check_form(big.spec, form)
    c_group = big.actor
    q = c_group.order
    acc = c_group.identity
    for _, x in form.head:
        acc = c_group.mul[acc][x % q]
    return c_group.mul[acc][form.tail % q]


def tau(big: BigAmalgam, c: int) -> NormalForm:
    """Section of mu: the class of (e_D, c), a pure subgroup element.
    ``encode`` reports an actor element out of range or not an int."""
    try:
        if 0 <= c < len(big.taus):
            return big.taus[c]
    except TypeError:
        pass
    return NormalForm((), big.sd_d.encode(big.small.d.identity, c))


def phi(big: BigAmalgam, form: NormalForm, c: int) -> NormalForm:
    """The distribution isomorphism: (w, c) -> nu(w) * tau(c)."""
    return word_mul(big.spec, nu(big, form), tau(big, c))


def _times(
    big: BigAmalgam, x: tuple[tuple[Sequence[Syllable], int], int], pairs: list
) -> tuple[NormalForm, int]:
    """The product in (A *_D B) x| C of x = (form, c) and the pairs (raw word,
    c), left to right: the C-part gathered so far acts on each later syllable
    through the side actions, and the acted syllables fold onto a copy of x's
    stack, as in ``word_mul``.  The form is read only as a pair (head, tail),
    so a plain tuple will do.  Callers check x and the actor elements."""
    act_a, act_b, _ = big.acts
    act = {SIDE_A: act_a.table, SIDE_B: act_b.table}
    c_mul = act_a.actor.mul
    (head, tail), acc = x
    word: list[Syllable] = []
    for syllables, c in pairs:
        for s, n in syllables:
            word.append((s, act[s][acc][n]))
        acc = c_mul[acc][c]
    stack = list(head)
    d = _append(big.small, stack, tail, word)
    return NormalForm(tuple(stack), d), acc


def phi_inv(big: BigAmalgam, g: NormalForm) -> tuple[NormalForm, int]:
    """Psi, the inverse of phi: ``_times`` of the identity and the pairs
    ((n), c), one for each syllable (n, c) of ``to_word(g)``.  The tail
    (d, c) is its syllable (iota_a(d), c), which compatibility acts on as on
    d.  It reads only the actions, never ``tau``, and folds once."""
    q, e = big.actor.order, (((), big.small.d.identity), big.actor.identity)
    return _times(big, e, [(((s, x // q),), x % q) for s, x in to_word(big.spec, g)])


def verify_exact_sequence(big: BigAmalgam, bound: int) -> Report:
    """Check that nu is injective, mu is onto C, and image nu = kernel mu,
    over all big-amalgam forms of head length at most ``bound`` (ValueError
    if it is negative)."""
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    images = [nu(big, w) for w in enumerate_forms(big.small, bound)]
    image = set(images)
    big_forms = enumerate_forms(big.spec, bound)
    mus = [mu(big, g) for g in big_forms]
    missing = sorted(set(big.actor.elements()) - set(mus))
    # Ordered like the enumeration, so the witness does not follow str hashing.
    kernel = dict.fromkeys(g for g, c in zip(big_forms, mus) if c == big.actor.identity)
    stray = [g for g in kernel if g not in image] or [g for g in images if g not in kernel]
    checks = (
        ("nu-injective", ["nu collides within the bound"] if len(image) != len(images) else []),
        ("mu-surjective", [f"missing actor elements {missing}"] if missing else []),
        ("kernel-equals-image", (f"symmetric difference sample: {g}" for g in stray)),
    )
    return Report(tuple(first_witness(check, big.spec.label, w) for check, w in checks))


def verify_split(big: BigAmalgam, samples: int, seed: int) -> Report:
    """Check the splitting: mu o tau = id, tau is a hom, phi satisfies the
    hom law on every pair of single-syllable shorts and on seeded samples,
    and phi/phi_inv invert each other.

    The shorts are S = S_A u S_B, where S_A = A x| C and S_B = B x| C are
    read as pairs (form, c) of (A *_D B) x| C.  Their hom law is proved in
    one pass, whose first failing pair is the witness.  First the pairs
    (e, x) for x in S: phi(e) phi(x) is a normal form, so this shows that
    phi(x) is one and phi(e) the identity.  Then the Cayley edges: close S_A
    under right multiplication by the generators of B x| C, each (n, c) read
    as the pair ((n), c), to get S_A S_B; close S_B under those of A x| C to
    get S_B S_A; check phi(z s) = phi(z) phi(s) on every edge (z, s).  If
    every pair holds, write y in S_B as s1 ... sk: induction on k gives
    phi(x y) = phi(x) phi(s1) ... phi(sk) for every x in S_A S_B, and x = e
    gives phi(y) = phi(s1) ... phi(sk).  So phi(x y) = phi(x) phi(y) for x
    in S and y in S_B, and likewise for y in S_A.  This holds for any phi,
    since every value compared is the implemented phi's, and rests on facts
    that ``make_big_amalgam`` establishes: both products are associative (C
    acts by automorphisms, checked by ``make_action`` and
    ``_require_compatible``) and the flat generators generate their groups
    (``semidirect``'s ``check_group_axioms``).  The edges equate elements
    and the pairs compare forms: phi takes normal forms on S, and so, edge
    by edge, on both closures, and these are unique.

    Samples are drawn only as a check reads them, and a check stops at its
    first counterexample, so a later check's draws start where it stopped.
    Negative ``samples`` raise ValueError.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    spec, c_group = big.spec, big.actor
    cs = c_group.elements()
    sd = SmallSemidirect(big)
    rng = random.Random(seed)

    def drawn(draw: Callable[[], Any]) -> Iterator[Any]:
        return (draw() for _ in range(samples))

    def small() -> NormalForm:
        return random_form(rng, big.small, 6)

    def pair() -> tuple[NormalForm, int]:
        return small(), rng.randrange(c_group.order)

    # The hom law on all pairs of shorts.  One table lives for this call only:
    # phi of each short and of each new product.
    def phi_hom_shorts() -> Iterator[str]:
        shorts = [(w, c) for w in enumerate_forms(big.small, 1) for c in cs]
        phis = {x: phi(big, *x) for x in shorts}
        e = sd.identity()
        for x in shorts:
            if word_mul(spec, phis[e], phis[x]) != phis[x]:
                yield f"x = {e}, y = {x}"
        for start, side, flat in ((SIDE_A, SIDE_B, big.sd_b.flat), (SIDE_B, SIDE_A, big.sd_a.flat)):
            gens = [(reduce_word(big.small, [(side, n)]), c) for n, c in (
                divmod(g, c_group.order) for g in flat.generators or (flat.identity,))]
            closure = [x for x in shorts if all(s == start for s, _ in x[0].head)]
            seen = set(closure)
            for z in closure:  # grows by each new product
                for s in gens:
                    zs = sd.mul(z, s)
                    if zs not in phis:
                        phis[zs] = phi(big, *zs)
                    if phis[zs] != word_mul(spec, phis[z], phis[s]):
                        yield f"x = {z}, y = {s}"
                    if zs not in seen:
                        seen.add(zs)
                        closure.append(zs)

    checks = (
        ("mu-tau-identity", (f"c = {c}" for c in cs if mu(big, tau(big, c)) != c)),
        ("tau-homomorphism", (
            f"(c1, c2) = ({c1}, {c2})" for c1 in cs for c2 in cs
            if word_mul(spec, tau(big, c1), tau(big, c2)) != tau(big, c_group.mul[c1][c2])
        )),
        ("phi-hom-single-syllable", phi_hom_shorts()),
        ("phi-homomorphism", (
            f"x = {x}, y = {y}" for x, y in drawn(lambda: (pair(), pair()))
            if phi(big, *sd.mul(x, y)) != word_mul(spec, phi(big, *x), phi(big, *y))
        )),
        ("phi-inv-after-phi", (
            f"x = {x}" for x in drawn(pair) if phi_inv(big, phi(big, *x)) != x
        )),
        ("phi-after-phi-inv", (
            f"g = {g}" for g in drawn(lambda: random_form(rng, spec, 6))
            if phi(big, *phi_inv(big, g)) != g
        )),
        ("nu-homomorphism", (
            f"u = {u}, v = {v}" for u, v in drawn(lambda: (small(), small()))
            if nu(big, word_mul(big.small, u, v)) != word_mul(spec, nu(big, u), nu(big, v))
        )),
    )
    return Report(tuple(first_witness(check, spec.label, w) for check, w in checks))
