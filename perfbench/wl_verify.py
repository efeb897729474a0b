"""Workload ``verify``: distribution-law verdicts over a census of instances.

One op is one (instance, seed) pair: ``make_amalgam``, ``make_big_amalgam``,
then ``verify_exact_sequence(bound)`` and ``verify_split(samples, seed)``.
Groups, embeddings and actions are shared set-up; the seed picks the
embedding (among equivalent ones), the acting element and the split seed.
A pass runs every census entry ROUNDS times:

- the flagship Z4 *_Z2 Z6 with C = Z2 inverting, eight times, so that the
  median op is a flagship one and not a jump between instances;
- cyclic Z(2d) *_Zd Z(3d) with a large subgroup D (construction and the
  pairwise single-syllable check dominate);
- cyclic Z(2a) *_Z2 Z(2b) with many representatives (form enumeration and
  the pair check dominate), the largest with semidirect tables of order 80;
- Z9 *_Z3 Z6 with C = Z3 acting on Z9 by a multiplier;
- D4 *_Z2 D6 over the centres, C = Z2 conjugating by a reflection;
- Z6 *_Z3 Z6 with inversion on the factors but the trivial action on Z3,
  which is not compatible and must be rejected with ValueError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Any

ROUNDS = 4
EXPECTED_CHECKS = (
    "nu-injective",
    "mu-surjective",
    "kernel-equals-image",
    "mu-tau-identity",
    "tau-homomorphism",
    "phi-hom-single-syllable",
    "phi-homomorphism",
    "phi-inv-after-phi",
    "phi-after-phi-inv",
    "nu-homomorphism",
)


@dataclass
class Instance:
    name: str
    a: Any
    b: Any
    d: Any
    iotas_a: list[Any]  # equivalent embeddings; the seed picks one
    iotas_b: list[Any]
    acts: list[Any]  # CompatibleActionTriple choices
    bound: int
    samples: int
    compatible: bool
    repeat: int = 1


@dataclass(frozen=True)
class Op:
    instance: Instance
    iota_a: Any
    iota_b: Any
    acts: Any
    seed: int

    @property
    def family(self) -> str:
        return self.instance.name


class Verify:
    name = "verify"
    tail_percentile = 75.0

    def setup(self) -> None:
        from amalg import amalgam, groups, iso

        self.amalgam, self.iso = amalgam, iso
        G = groups
        cyc = G.make_cyclic
        c2, c3 = cyc(2), cyc(3)

        def embeddings(d, g, step):
            """Injective Z_d -> g sending 1 to step * u, u a unit mod d."""
            return [G.hom_from_generators(d, g, {1: step * u}) for u in range(1, d.order)
                    if gcd(u, d.order) == 1] if d.order > 1 else [None]

        def inversions(a, b, d):
            return [iso.CompatibleActionTriple(
                G.inversion_action(c2, a), G.inversion_action(c2, b), G.inversion_action(c2, d))]

        census: list[Instance] = []
        z2, z4, z6 = cyc(2), cyc(4), cyc(6)
        census.append(Instance("flagship", z4, z6, z2, embeddings(z2, z4, 2), embeddings(z2, z6, 3),
                               inversions(z4, z6, z2), 3, 60, True, repeat=8))
        for dd, bound, samples in ((3, 2, 30), (5, 2, 30), (8, 2, 30)):
            a, b, d = cyc(2 * dd), cyc(3 * dd), cyc(dd)
            census.append(Instance(f"Z{2 * dd}*Z{dd}Z{3 * dd}", a, b, d, embeddings(d, a, 2),
                                   embeddings(d, b, 3), inversions(a, b, d), bound, samples, True))
        for ha, hb, bound in ((4, 3, 4), (6, 5, 3), (20, 3, 2)):
            a, b = cyc(2 * ha), cyc(2 * hb)
            census.append(Instance(f"Z{2 * ha}*Z2Z{2 * hb}", a, b, z2, embeddings(z2, a, ha),
                                   embeddings(z2, b, hb), inversions(a, b, z2), bound, 20, True))

        z9, z3 = cyc(9), cyc(3)
        triv = lambda g: G.trivial_action(c3, g)  # noqa: E731
        mult = [G.make_action(c3, z9, tuple(tuple(pow(r, c, 9) * x % 9 for x in range(9))
                                            for c in range(3))) for r in (4, 7)]
        census.append(Instance("Z9*Z3Z6:Z3", z9, z6, z3, embeddings(z3, z9, 3), embeddings(z3, z6, 2),
                               [iso.CompatibleActionTriple(m, triv(z6), triv(z3)) for m in mult],
                               2, 30, True))

        d4, d6 = G.make_dihedral(4), G.make_dihedral(6)

        def conjugations(g, n):
            ident = tuple(g.elements())
            return [G.make_action(c2, g, (ident, tuple(g.mul[g.mul[f][x]][g.inv[f]] for x in ident)))
                    for f in range(n, 2 * n)]

        census.append(Instance("D4*Z2D6", d4, d6, z2, [G.hom_from_generators(z2, d4, {1: 2})],
                               [G.hom_from_generators(z2, d6, {1: 3})],
                               [iso.CompatibleActionTriple(x, y, G.trivial_action(c2, z2))
                                for x in conjugations(d4, 4) for y in conjugations(d6, 6)],
                               2, 30, True))

        z6b = cyc(6)
        census.append(Instance("Z6*Z3Z6-incompatible", z6, z6b, z3, embeddings(z3, z6, 2),
                               embeddings(z3, z6b, 2),
                               [iso.CompatibleActionTriple(G.inversion_action(c2, z6),
                                                           G.inversion_action(c2, z6b),
                                                           G.trivial_action(c2, z3))],
                               2, 30, False))
        self.census = census

    def make_pass(self, rng: random.Random, small: bool = False) -> list[Op]:
        ops = []
        for inst in self.census:
            if small and inst.name not in ("flagship", "Z6*Z3Z6-incompatible"):
                continue
            for _ in range(inst.repeat * (1 if small else ROUNDS)):
                ops.append(Op(inst, rng.choice(inst.iotas_a), rng.choice(inst.iotas_b),
                              rng.choice(inst.acts), rng.randrange(2**31)))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        inst = op.instance
        spec = self.amalgam.make_amalgam(inst.a, inst.b, inst.d, op.iota_a, op.iota_b)
        try:
            big = self.iso.make_big_amalgam(spec, op.acts)
        except ValueError as e:
            return "rejected", str(e)
        report = self.iso.verify_exact_sequence(big, inst.bound) + self.iso.verify_split(
            big, inst.samples, op.seed)
        return "verdict", tuple((r.check, r.ok) for r in report.records)

    def check(self, op: Op, output) -> str | None:
        kind, detail = output
        if op.instance.compatible:
            if output != ("verdict", tuple((c, True) for c in EXPECTED_CHECKS)):
                return f"expected every check to pass, got {output}"
        elif kind != "rejected" or "compatibility violation" not in detail:
            return f"incompatible instance not rejected: {output}"
        return None

    def corrupt(self, op: Op, output):
        kind, detail = output
        if kind == "rejected":
            return "verdict", tuple((c, True) for c in EXPECTED_CHECKS)
        return kind, ((detail[0][0], not detail[0][1]),) + detail[1:]

    def counters(self, op: Op, output) -> dict[str, float]:
        return {}
