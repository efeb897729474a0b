"""Finite groups as explicit multiplication tables with 0-based element indices.

Every group here is a complete order x order table; nothing is lazy or
presented by relations.  Homomorphisms are full image tables and actions are
full permutation tables, so all structural claims can be (and are) checked
exhaustively.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

from .reporting import CheckRecord, Report, first_witness

__all__ = [
    "FiniteGroup",
    "GroupHom",
    "GroupAction",
    "make_cyclic",
    "make_dihedral",
    "check_group_axioms",
    "make_hom",
    "identity_hom",
    "hom_from_generators",
    "hom_compose",
    "is_injective",
    "make_action",
    "trivial_action",
    "inversion_action",
    "element_order",
    "is_abelian",
    "find_isomorphism",
]


class FiniteGroup(NamedTuple):
    """A finite group: label, multiplication table, identity, inverses, generators.

    ``mul[x][y]`` is the product xy.  ``generators`` is a tuple of element
    indices whose closure under the table is the whole element set.
    """

    label: str
    mul: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.mul)

    def elements(self) -> range:
        return range(len(self.mul))

    def power(self, x: int, k: int) -> int:
        """x**k via the table; k may be negative."""
        if k < 0:
            x, k = self.inv[x], -k
        acc = self.identity
        row = self.mul
        while k:
            if k & 1:
                acc = row[acc][x]
            x = row[x][x]
            k >>= 1
        return acc


class GroupHom(NamedTuple):
    """A homomorphism given by its full image table: image[x] in the target."""

    source: FiniteGroup
    target: FiniteGroup
    image: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.image[x]


class GroupAction(NamedTuple):
    """A left action of ``actor`` on ``space`` by automorphisms.

    ``table[c]`` is the permutation of the space induced by actor element c,
    and table[c1 * c2] = table[c1] o table[c2].
    """

    actor: FiniteGroup
    space: FiniteGroup
    table: tuple[tuple[int, ...], ...]

    def __call__(self, c: int, x: int) -> int:
        return self.table[c][x]


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n with elements the residues 0..n-1."""
    if n <= 0:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    mul = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inv = tuple((-i) % n for i in range(n))
    return FiniteGroup(f"Z{n}", mul, 0, inv, (1,) if n > 1 else ())


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: index i < n is r^i, index n + i is r^i * f.

    Relations r^n = f^2 = e and f r f = r^-1, so
    (r^i f^s)(r^j f^t) = r^(i + j or i - j) f^(s+t).
    """
    if n <= 0:
        raise ValueError(f"dihedral rotation order must be positive, got {n}")

    def enc(i: int, s: int) -> int:
        return i % n + (n if s % 2 else 0)

    def dec(x: int) -> tuple[int, int]:
        return (x % n, x // n)

    order = 2 * n
    mul = []
    for x in range(order):
        i, s = dec(x)
        row = []
        for y in range(order):
            j, t = dec(y)
            row.append(enc(i + (-j if s else j), s + t))
        mul.append(tuple(row))
    inv = []
    for x in range(order):
        i, s = dec(x)
        inv.append(enc(i, s) if s else enc(-i, 0))
    return FiniteGroup(f"D{n}", tuple(mul), 0, tuple(inv), (1, n) if n >= 2 else (1,))


def check_group_axioms(g: FiniteGroup) -> Report:
    """Verify associativity, identity, inverses, and generation.

    The axioms are read in turn, stopping at the first violated one to report
    its first witness.  Associativity is proved on the generators by Light's
    test: the elements s with (x s) y = x (s y) for all x, y form a submagma
    containing the identity, so when they include the generators, and right
    products of generators reach every element, the table is associative.
    Only when that fails is associativity scanned exhaustively.
    """
    n, mul, e, gens = g.order, g.mul, g.identity, g.generators
    # Each stream is read only up to its first witness, so a later loop may
    # assume that the loops before it found nothing.

    def associativity() -> Iterator[str]:
        if any(len(row) != n for row in mul):
            yield "table is not square"
        yield from (f"entry {v} out of range" for row in mul for v in row if not 0 <= v < n)
        # Light's test, on a square table in range, needs the identity and generation.
        if (
            next(identity(), None) is None
            and next(generation(), None) is None
            and all(list(mul[row_x[s]]) == [row_x[v] for v in mul[s]]
                    for s in gens for row_x in mul)
        ):
            return
        for x, row_x in enumerate(mul):
            for y, row_y in enumerate(mul):
                row_xy = mul[row_x[y]]
                for z in range(n):
                    if row_xy[z] != row_x[row_y[z]]:
                        yield f"(x, y, z) = ({x}, {y}, {z})"

    def identity() -> Iterator[str]:
        if not 0 <= e < n:
            yield f"identity index {e} out of range"
        yield from (f"x = {x}" for x in range(n) if mul[e][x] != x or mul[x][e] != x)

    def inverses() -> Iterator[str]:
        if len(g.inv) != n:
            yield "inverse table has wrong length"
        for x, y in enumerate(g.inv):
            if not 0 <= y < n or mul[x][y] != e or mul[y][x] != e:
                yield f"x = {x}, claimed inverse {y}"

    def generation() -> Iterator[str]:
        yield from (f"generator index {s} out of range" for s in gens if not 0 <= s < n)
        # Right products of the generators: what Light's test needs, and in
        # the scan, where g is a finite group by now, their subgroup.
        image, _ = _extend_generator_images(g, g, {s: s for s in gens})
        yield from (f"unreached element {x}" for x, v in enumerate(image) if v is None)

    records: list[CheckRecord] = []
    for check, witnesses in (
        ("associativity", associativity),
        ("identity", identity),
        ("inverses", inverses),
        ("generation", generation),
    ):
        records.append(first_witness(check, g.label, witnesses()))
        if not records[-1].ok:
            break
    return Report(tuple(records))


def make_hom(source: FiniteGroup, target: FiniteGroup, image: tuple[int, ...]) -> GroupHom:
    """Build a GroupHom after exhaustively verifying the homomorphism law."""
    if len(image) != source.order:
        raise ValueError(
            f"image table has length {len(image)}, expected {source.order}"
        )
    for v in image:
        if not 0 <= v < target.order:
            raise ValueError(f"image entry {v} out of range for {target.label}")
    if image[source.identity] != target.identity:
        raise ValueError(
            f"not a homomorphism {source.label} -> {target.label}: "
            f"identity maps to {image[source.identity]}"
        )
    for x in source.elements():
        for y in source.elements():
            if image[source.mul[x][y]] != target.mul[image[x]][image[y]]:
                raise ValueError(
                    f"not a homomorphism {source.label} -> {target.label}: "
                    f"witness pair ({x}, {y})"
                )
    return GroupHom(source, target, tuple(image))


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, tuple(g.elements()))


def _extend_generator_images(
    source: FiniteGroup, target: FiniteGroup, gen_images: dict[int, int]
) -> tuple[list[int | None], str | None]:
    """Close generator images under right multiplication by the generators.

    Returns the image table, with None where the generators do not reach, and
    the first conflict found, or None if there is none.
    """
    image: list[int | None] = [None] * source.order
    image[source.identity] = target.identity
    if source.identity in gen_images and gen_images[source.identity] != target.identity:
        return image, f"generator {source.identity} is the identity but maps elsewhere"
    frontier = [source.identity]
    while frontier:
        nxt = []
        for x in frontier:
            ix = image[x]
            for g, ig in gen_images.items():
                y = source.mul[x][g]
                iy = target.mul[ix][ig]
                if image[y] is None:
                    image[y] = iy
                    nxt.append(y)
                elif image[y] != iy:
                    return image, f"ambiguous image for element {y}"
        frontier = nxt
    return image, None


def hom_from_generators(
    source: FiniteGroup, target: FiniteGroup, gen_images: dict[int, int]
) -> GroupHom:
    """Extend images of the source generators to a verified homomorphism.

    ``gen_images`` maps each generator's element index to a target element
    index.  Raises ValueError if the assignment does not extend.
    """
    gen_idx = set(source.generators)
    if set(gen_images) != gen_idx:
        raise ValueError(
            f"generator images must be given for exactly {sorted(gen_idx)}, "
            f"got {sorted(gen_images)}"
        )
    for v in gen_images.values():
        if not 0 <= v < target.order:
            raise ValueError(f"image {v} out of range for {target.label}")
    image, why = _extend_generator_images(source, target, gen_images)
    if why is None and None in image:
        why = f"generators do not reach element {image.index(None)}"
    if why is not None:
        raise ValueError(
            f"not a homomorphism {source.label} -> {target.label}: {why}"
        )
    return make_hom(source, target, tuple(image))


def hom_compose(f: GroupHom, g: GroupHom) -> GroupHom:
    """The composite 'f then g'; requires f.target = g.source."""
    if f.target != g.source:
        raise ValueError(
            f"cannot compose: {f.source.label} -> {f.target.label} "
            f"then {g.source.label} -> {g.target.label}"
        )
    return make_hom(f.source, g.target, tuple(g.image[v] for v in f.image))


def is_injective(f: GroupHom) -> bool:
    return len(set(f.image)) == len(f.image)


def make_action(
    actor: FiniteGroup, space: FiniteGroup, table: tuple[tuple[int, ...], ...]
) -> GroupAction:
    """Build a GroupAction after verifying it acts by automorphisms.

    Checks: each row is a permutation and a homomorphism of the space, the
    identity row is trivial, and rows compose as a left action:
    table[c1 c2] = table[c1] o table[c2].
    """
    if len(table) != actor.order:
        raise ValueError(
            f"action table has {len(table)} rows, expected {actor.order}"
        )
    n = space.order
    for c, row in enumerate(table):
        if len(row) != n or set(row) != set(range(n)):
            raise ValueError(f"action invariant violation: row {c} is not a permutation")
        for x in range(n):
            for y in range(n):
                if row[space.mul[x][y]] != space.mul[row[x]][row[y]]:
                    raise ValueError(
                        f"action invariant violation: row {c} is not an "
                        f"automorphism, witness ({x}, {y})"
                    )
    e = actor.identity
    if any(table[e][x] != x for x in range(n)):
        raise ValueError("action invariant violation: identity row is not trivial")
    for c1 in actor.elements():
        for c2 in actor.elements():
            row = table[actor.mul[c1][c2]]
            for x in range(n):
                if row[x] != table[c1][table[c2][x]]:
                    raise ValueError(
                        f"action invariant violation: rows do not compose, "
                        f"witness (c1, c2, x) = ({c1}, {c2}, {x})"
                    )
    return GroupAction(actor, space, tuple(tuple(r) for r in table))


def trivial_action(actor: FiniteGroup, space: FiniteGroup) -> GroupAction:
    row = tuple(space.elements())
    return GroupAction(actor, space, tuple(row for _ in actor.elements()))


def inversion_action(actor: FiniteGroup, space: FiniteGroup) -> GroupAction:
    """The order-2 actor acts on an abelian space, its other element by x -> x^-1."""
    if actor.order != 2:
        raise ValueError(
            f"inversion action needs an order-2 actor, got order {actor.order}"
        )
    if not is_abelian(space):
        raise ValueError(f"inversion action needs an abelian space, {space.label} is not")
    ident = tuple(space.elements())
    table = tuple(ident if c == actor.identity else space.inv for c in actor.elements())
    return make_action(actor, space, table)


def element_order(g: FiniteGroup, x: int) -> int:
    k, acc = 1, x
    while acc != g.identity:
        acc = g.mul[acc][x]
        k += 1
    return k


def is_abelian(g: FiniteGroup) -> bool:
    return all(
        g.mul[x][y] == g.mul[y][x] for x in g.elements() for y in g.elements()
    )


def find_isomorphism(g: FiniteGroup, h: FiniteGroup) -> GroupHom | None:
    """Exhaustive generator-image search for an isomorphism g -> h, or None."""
    if g.order != h.order:
        return None
    if not g.generators:
        return identity_hom(g) if g == h else make_hom(g, h, (h.identity,))
    candidates = [
        [x for x in h.elements() if element_order(h, x) == element_order(g, s)]
        for s in g.generators
    ]
    for images in product(*candidates):
        table, why = _extend_generator_images(g, h, dict(zip(g.generators, images)))
        if why is None and None not in table and len(set(table)) == g.order:
            return make_hom(g, h, tuple(table))
    return None
