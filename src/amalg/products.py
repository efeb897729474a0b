"""Semidirect products N x| C as flat multiplication-table groups.

The pair (n, c) is stored at flat index n * |C| + c, decodes as the plain pair
divmod(i, |C|), and multiplies by (n1, c1)(n2, c2) = (n1 * act(c1)(n2), c1 c2).
Each product table passes the group axiom check when built, and the functor
that sends an equivariant hom psi to psi x id checks equivariance and the hom
law of each lift.  The split maps (base embedding, actor projection, actor
section) are correct by construction.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .groups import (
    FiniteGroup,
    GroupAction,
    GroupHom,
    check_group_axioms,
    hom_compose,
    identity_hom,
    inversion_action,
    make_action,
    make_cyclic,
    make_hom,
)
from .reporting import CheckRecord, Report, first_witness

__all__ = [
    "SemidirectGroup",
    "semidirect",
    "split_maps",
    "functor_on_hom",
    "verify_functor_laws",
    "inversion_embedding_catalog",
]


class SemidirectGroup(NamedTuple):
    """A semidirect product bundled with its flat table group."""

    space: FiniteGroup
    actor: FiniteGroup
    action: GroupAction
    flat: FiniteGroup

    def encode(self, n: int, c: int) -> int:
        """The flat index of the pair (n, c); True and False pass as 1 and 0."""
        if not (isinstance(n, int) and isinstance(c, int)
                and 0 <= n < self.space.order and 0 <= c < self.actor.order):
            raise ValueError(f"pair ({n!r}, {c!r}) out of range for {self.flat.label}")
        return n * self.actor.order + c

    def decode(self, i: int) -> tuple[int, int]:
        return divmod(i, self.actor.order)


def semidirect(space: FiniteGroup, actor: FiniteGroup, action: GroupAction) -> SemidirectGroup:
    """Build N x| C for a verified action of C on N."""
    if action.space != space or action.actor != actor:
        raise ValueError("action does not match the given space and actor")
    # Re-run the action checks: semidirect correctness depends on them.
    make_action(actor, space, action.table)

    cc, act = actor.order, action.table
    # Row (n1, c1) lists (n1 * c1(n2), c1 c2) for n2, then c2, as flat indices,
    # and (n, c)^-1 = (c^-1(n^-1), c^-1).
    mul = [tuple([row_n1[n] * cc + c for n in act_c1 for c in row_c1])
           for row_n1 in space.mul for act_c1, row_c1 in zip(act, actor.mul)]
    inv = [act[ci][ni] * cc + ci for ni in space.inv for ci in actor.inv]
    identity = space.identity * cc + actor.identity

    gens = tuple(n * cc + actor.identity for n in space.generators)
    gens += tuple(space.identity * cc + c for c in actor.generators)
    flat = FiniteGroup(f"{space.label}:{actor.label}", tuple(mul), identity, tuple(inv), gens)
    report = check_group_axioms(flat)
    if not report.ok:
        bad = report.first_failure()
        raise ValueError(
            f"semidirect product {flat.label} violates {bad.check}: {bad.witness}"
        )
    return SemidirectGroup(space, actor, action, flat)


def split_maps(s: SemidirectGroup) -> tuple[GroupHom, GroupHom, GroupHom]:
    """The base embedding n -> (n, e), actor projection (n, c) -> c, and
    actor section c -> (e, c); projection o section = id and the projection's
    kernel is exactly the embedding's image.  These hold by construction of
    the verified product, so the maps are not re-checked here."""
    cc = s.actor.order
    base = GroupHom(
        s.space, s.flat, tuple(s.encode(n, s.actor.identity) for n in s.space.elements())
    )
    proj = GroupHom(s.flat, s.actor, tuple(i % cc for i in range(s.flat.order)))
    sect = GroupHom(
        s.actor, s.flat, tuple(s.encode(s.space.identity, c) for c in s.actor.elements())
    )
    return base, proj, sect


def _lift(
    psi: GroupHom,
    actor: FiniteGroup,
    act_n: GroupAction,
    act_m: GroupAction,
    products: dict[GroupAction, SemidirectGroup],
) -> GroupHom:
    """psi x id, with each product N x| C built at most once per action in
    ``products``; psi must be equivariant."""
    if act_n.actor != actor or act_m.actor != actor:
        raise ValueError("both actions must be actions of the given actor")
    if act_n.space != psi.source or act_m.space != psi.target:
        raise ValueError("actions do not match the hom's source and target")
    for c in actor.elements():
        for n in psi.source.elements():
            if psi.image[act_n.table[c][n]] != act_m.table[c][psi.image[n]]:
                raise ValueError(f"not equivariant: witness (c, n) = ({c}, {n})")
    for act in (act_n, act_m):
        if act not in products:
            products[act] = semidirect(act.space, actor, act)
    sn, sm = products[act_n], products[act_m]
    image = tuple(
        sm.encode(psi.image[n], c) for n in psi.source.elements() for c in actor.elements()
    )
    return make_hom(sn.flat, sm.flat, image)


def functor_on_hom(
    psi: GroupHom, actor: FiniteGroup, act_n: GroupAction, act_m: GroupAction
) -> GroupHom:
    """Send an equivariant hom psi: N -> M to psi x id: N x| C -> M x| C.

    Requires psi(act_n(c)(n)) = act_m(c)(psi(n)) for all c, n; violations are
    reported with the offending (c, n) pair.
    """
    return _lift(psi, actor, act_n, act_m, {})


def verify_functor_laws(
    actor: FiniteGroup,
    spaces: list[tuple[FiniteGroup, GroupAction]],
    homs: list[GroupHom],
) -> Report:
    """Check identity and composition laws of psi -> psi x id over a catalog.

    ``spaces`` pairs each group with its actor action; ``homs`` are
    equivariant homs between catalog groups.  The composition law is checked
    on every composable ordered pair.  Each group's semidirect product is
    built once and shared by every lift.  Construction errors (a
    non-equivariant or corrupted hom) are reported as failures, not raised.
    """
    action_of = {g: a for g, a in spaces}
    products: dict[GroupAction, SemidirectGroup] = {}

    def identity_law(g: FiniteGroup, act: GroupAction) -> Iterator[str]:
        lifted = _lift(identity_hom(g), actor, act, act, products)
        if lifted.image != tuple(range(lifted.source.order)):
            yield "lift of identity is not the identity"

    def composition_law(f: GroupHom, g: GroupHom) -> Iterator[str]:
        act_f, act_mid, act_g = action_of[f.source], action_of[f.target], action_of[g.target]
        lift_comp = _lift(hom_compose(f, g), actor, act_f, act_g, products)
        comp_lift = hom_compose(
            _lift(f, actor, act_f, act_mid, products),
            _lift(g, actor, act_mid, act_g, products),
        )
        for i, (x, y) in enumerate(zip(lift_comp.image, comp_lift.image)):
            if x != y:
                yield f"images differ at flat element {i}"

    def record(check: str, inst: str, witnesses: Iterator[str]) -> CheckRecord:
        try:
            return first_witness(check, inst, witnesses)
        except (KeyError, ValueError) as e:
            return CheckRecord(check, inst, False, str(e))

    records = [
        record("functor-identity", f"id_{g.label}", identity_law(g, act)) for g, act in spaces
    ]
    for f in homs:
        for g in homs:
            if f.target == g.source:
                inst = f"{f.source.label}->{f.target.label}->{g.target.label}"
                records.append(record("functor-composition", inst, composition_law(f, g)))
    return Report(tuple(records))


def inversion_embedding_catalog() -> tuple[
    FiniteGroup, list[tuple[FiniteGroup, GroupAction]], list[GroupHom]
]:
    """The catalog Z2, Z4, Z6 with Z2 inversion actions and every embedding
    between them (all such embeddings are automatically equivariant)."""
    c2 = make_cyclic(2)
    groups = [make_cyclic(2), make_cyclic(4), make_cyclic(6)]
    spaces = [(g, inversion_action(c2, g)) for g in groups]
    homs: list[GroupHom] = []
    for src in groups:
        for tgt in groups:
            # src is cyclic, so a hom is fixed by the image of generator 1.
            for x in tgt.elements():
                image = tuple(tgt.power(x, k) for k in src.elements())
                try:
                    hom = make_hom(src, tgt, image)
                except ValueError:
                    continue
                if len(set(image)) == src.order:
                    homs.append(hom)
    return c2, spaces, homs
