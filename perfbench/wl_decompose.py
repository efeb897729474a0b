"""Workload ``decompose``: canonical GL2(Z) words for a stream of matrices.

One op is ``gl2_decompose(m)`` followed by ``form_to_letters``.  A pass is
ROUNDS of a fixed mix of families; the seed draws sizes within fixed strata
(and the words and quotients), so every seed gives about the same work:

- upper and lower unipotents [[1,N],[0,1]], [[1,0],[N,1]] with N up to about
  10^3: 2N-syllable forms, with a central carry (-I) at every s^-1.  Each
  stratum takes each sign of N, with and without J, once per pass, because
  the cost depends on both;
- Fibonacci and continued-fraction matrices with entries of 100-200 digits:
  many Euclid steps and big-int evaluation checks;
- random products of s, u, u^2 with no cancellation, so the form length is
  the drawn length: short forms with large entries.  They are over half of
  the ops, so that the median op is one of them and not a jump between
  families;
- half of the other families multiplied by J (determinant -1), which goes
  through the phi lift.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle

ROUNDS = 4
# Stratum centres; each op draws its size within +-JITTER of its centre.
UNIPOTENT_N = (125, 375, 625, 875)
UNIPOTENT_JITTER = 25
# (sign of N, times J); round r gives stratum i variant (i + r) % 4 (upper)
# and (i + r + 2) % 4 (lower).
UNIPOTENT_VARIANTS = ((1, False), (-1, False), (1, True), (-1, True))
FIBONACCI_STEPS = 560
CF_STEPS = 300
CF_JITTER = 10
# Head lengths of the random canonical words.
RANDOM_LENGTHS = tuple(range(20, 321, 20))
RANDOM_JITTER = 5


@dataclass(frozen=True)
class Op:
    family: str
    matrix: oracle.Mat


class Decompose:
    name = "decompose"
    tail_percentile = 90.0

    def setup(self) -> None:
        from amalg import matgroup

        self.matgroup = matgroup
        self.spec = matgroup.build_dihedral_model().big.spec

    def make_pass(self, rng: random.Random, small: bool = False) -> list[Op]:
        scale = 0.02 if small else 1.0

        def size(centre: int, jitter: int, least: int) -> int:
            return max(least, int(scale * (centre + rng.randint(-jitter, jitter))))

        ops: list[Op] = []

        def add(family: str, m: oracle.Mat, flip: bool) -> None:
            ops.append(Op(family, oracle.mat_mul(m, oracle.J) if flip else m))

        for r in range(ROUNDS):
            for i, centre in enumerate(UNIPOTENT_N):
                for family, shift in (("upper", 0), ("lower", 2)):
                    sign, flip = UNIPOTENT_VARIANTS[(i + r + shift) % 4]
                    n = sign * size(centre, UNIPOTENT_JITTER, 1)
                    add(family, (1, n, 0, 1) if family == "upper" else (1, 0, n, 1), flip)
            k = size(FIBONACCI_STEPS, CF_JITTER, 2)
            add("fibonacci", oracle.continued_fraction_matrix([1] * k), r % 2 == 1)
            k = size(CF_STEPS, CF_JITTER, 2)
            quotients = [rng.randint(1, 3) for _ in range(k)]
            add("cfrac", oracle.continued_fraction_matrix(quotients), r % 2 == 0)
            for j, length in enumerate(RANDOM_LENGTHS):
                word = oracle.random_canonical(rng, size(length, RANDOM_JITTER, 1), gl2=False)
                add("random", oracle.letters_value(word), (j + r) % 2 == 1)
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        mg = self.matgroup
        form = mg.gl2_decompose(mg.Mat2(*op.matrix))
        return form, mg.form_to_letters(form)

    def check(self, op: Op, output) -> str | None:
        form, word = output
        head, tail = form.form.head, form.form.tail
        spec = self.spec
        reps = {"a": set(spec.trans_a) - {spec.a.identity}, "b": set(spec.trans_b) - {spec.b.identity}}
        for i, (side, x) in enumerate(head):
            if side not in reps or x not in reps[side]:
                return f"syllable {i} ({side}, {x}) is not a non-identity representative"
            if i and head[i - 1][0] == side:
                return f"syllables {i - 1} and {i} are on the same side"
        if not 0 <= tail < spec.d.order:
            return f"tail {tail} is not in the subgroup"
        # Side groups are Z4 x| Z2 and Z6 x| Z2, subgroup Z2 x| Z2, each pair
        # (n, c) stored at n * 2 + c: s^n j^c, u^n j^c and s^2d j^c.
        raw: oracle.Letters = []
        for side, x in head:
            n, c = divmod(x, 2)
            raw += [("s" if side == "a" else "u", n), ("j", c)]
        d, c = divmod(tail, 2)
        raw += [("s", 2 * d), ("j", c)]
        letters = list(word.letters)
        if oracle.fold(raw) != letters:
            return "letter word does not render the form"
        if not oracle.is_canonical_word(letters, gl2=True):
            return "letter word is not canonical"
        if oracle.letters_value(letters) != op.matrix:
            return "letter word does not evaluate to the input"
        return None

    def corrupt(self, op: Op, output):
        form, word = output
        nf = form.form
        # Move the tail to another subgroup element: still well formed, wrong value.
        bad = type(nf)(nf.head, (nf.tail + 1) % self.spec.d.order)
        return type(form)(bad), word

    def counters(self, op: Op, output) -> dict[str, float]:
        nf = output[0].form
        return {
            "matgroup.euclid_steps": oracle.euclid_steps(op.matrix),
            "matgroup.form_syllables": len(nf.head) + (nf.tail != self.spec.d.identity),
        }
