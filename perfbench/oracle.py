"""The benchmark's own arithmetic, used to check amalg's outputs.

Nothing here imports amalg.  Matrices are 4-tuples (a, b, c, d) of Python
ints for [[a, b], [c, d]].  The letters s, u, j stand for

    S = [[0, -1], [1, 0]]   (order 4)
    U = [[0, -1], [1, 1]]   (order 6)
    J = [[0, 1], [1, 0]]    (order 2)

and the canonical words are those of the normal form theorem for the
amalgams <S> *_{-I} <U> (SL2(Z)) and <S, J> *_{<-I, J>} <U, J> (GL2(Z)),
with amalg's documented transversal: the lowest element index per coset.
That makes the non-identity representatives s on the first side and u, u^2
on the second; the trailing subgroup element is -I^d (times J^c in GL2).
"""

from __future__ import annotations

import random

Mat = tuple[int, int, int, int]
Letters = list[tuple[str, int]]

IDENTITY: Mat = (1, 0, 0, 1)
S: Mat = (0, -1, 1, 0)
U: Mat = (0, -1, 1, 1)
J: Mat = (0, 1, 1, 0)
LETTER_MATRIX = {"s": S, "u": U, "j": J}
LETTER_ORDER = {"s": 4, "u": 6, "j": 2}


def mat_mul(m: Mat, n: Mat) -> Mat:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def det(m: Mat) -> int:
    return m[0] * m[3] - m[1] * m[2]


def letter_power(letter: str, k: int) -> Mat:
    """S^k, U^k or J^k for any integer k (the letters have finite order)."""
    acc = IDENTITY
    for _ in range(k % LETTER_ORDER[letter]):
        acc = mat_mul(acc, LETTER_MATRIX[letter])
    return acc


def letters_value(letters: Letters) -> Mat:
    """Exact product of a letter word, left to right."""
    acc = IDENTITY
    for letter, k in letters:
        acc = mat_mul(acc, letter_power(letter, k))
    return acc


def fold(letters: Letters) -> Letters:
    """Merge adjacent equal letters, exponents reduced mod the letter order."""
    out: Letters = []
    for letter, k in letters:
        k %= LETTER_ORDER[letter]
        if out and out[-1][0] == letter:
            k = (out.pop()[1] + k) % LETTER_ORDER[letter]
        if k:
            out.append((letter, k))
    return out


def render_letters(letters: Letters) -> str:
    return " * ".join(l if k == 1 else f"{l}^{k}" for l, k in letters)


def render_matrix(m: Mat) -> str:
    return f"[[{m[0]},{m[1]}],[{m[2]},{m[3]}]]"


def euclid_steps(m: Mat) -> int:
    """Floor-division Euclid steps on the first column of the det-1 part."""
    if det(m) == -1:
        m = mat_mul(m, J)
    a, c = m[0], m[2]
    steps = 0
    while c:
        a, c = -c, a - (a // c) * c
        steps += 1
    return steps


def is_canonical_word(letters: Letters, gl2: bool) -> bool:
    """Whether a folded letter word has the canonical amalgam shape.

    Head syllables alternate between s and u^1|u^2; the trailing subgroup
    element renders as s^2 and/or j (s^2 may fold into a last s as s^3).
    """
    body = list(letters)
    if gl2 and body and body[-1] == ("j", 1):
        body.pop()
    if any(l == "j" for l, _ in body):
        return False
    if body and body[-1] in (("s", 2), ("s", 3)):
        last = body.pop()
        if last == ("s", 3):
            body.append(("s", 1))
    prev = None
    for letter, k in body:
        if letter == prev:
            return False
        if (letter, k) not in (("s", 1), ("u", 1), ("u", 2)):
            return False
        prev = letter
    return True


def random_canonical(rng: random.Random, head_len: int, gl2: bool) -> Letters:
    """A random canonical word with the given head length, folded."""
    side = rng.choice("su")
    raw: Letters = []
    for _ in range(head_len):
        raw.append(("s", 1) if side == "s" else ("u", rng.choice((1, 2))))
        side = "u" if side == "s" else "s"
    raw.append(("s", 2 * rng.randrange(2)))
    if gl2:
        raw.append(("j", rng.randrange(2)))
    return fold(raw)


def random_letter_word(rng: random.Random, length: int) -> Letters:
    """A word in s, u, j with no two adjacent equal letters (unfolded)."""
    out: Letters = []
    for _ in range(length):
        letter = rng.choice([l for l in "suj" if not out or out[-1][0] != l])
        out.append((letter, rng.randrange(1, LETTER_ORDER[letter])))
    return out


def continued_fraction_matrix(quotients: list[int]) -> Mat:
    """prod [[q, 1], [1, 0]]: entries are continuants, det = (-1)^len."""
    acc = IDENTITY
    for q in quotients:
        acc = mat_mul(acc, (q, 1, 1, 0))
    return acc


# -- finite group tables --------------------------------------------------

Table = list[list[int]]


def cyclic_table(n: int) -> tuple[Table, list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)], [1 % n]


def dihedral_table(n: int) -> tuple[Table, list[int]]:
    """Order 2n; index i + n*s is r^i f^s."""
    def enc(i: int, s: int) -> int:
        return i % n + n * (s % 2)

    table = [
        [enc(x % n + (-(y % n) if x // n else y % n), x // n + y // n) for y in range(2 * n)]
        for x in range(2 * n)
    ]
    return table, [1, n]


def metacyclic_table(m: int, k: int, r: int) -> tuple[Table, list[int]]:
    """Z_m x| Z_k with c acting by x -> r^c x (needs r^k = 1 mod m).

    Index x * k + c is the pair (x, c); (x1, c1)(x2, c2) = (x1 + r^c1 x2, c1 + c2).
    """
    if pow(r, k, m) != 1 % m:
        raise ValueError(f"{r}^{k} != 1 mod {m}")
    table = [
        [((x1 + pow(r, c1, m) * x2) % m) * k + (c1 + c2) % k
         for x2 in range(m) for c2 in range(k)]
        for x1 in range(m) for c1 in range(k)
    ]
    return table, [k, 1]


def relabel(table: Table, gens: list[int], perm: list[int]) -> tuple[Table, list[int], int]:
    """Rename element x to perm[x]; returns (table, generators, identity)."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out, [perm[g] for g in gens], perm[0]


def first_associativity_failure(table: Table) -> tuple[int, int, int] | None:
    """The lexicographically first (x, y, z) with (xy)z != x(yz)."""
    n = len(table)
    for x in range(n):
        for y in range(n):
            xy = table[x][y]
            for z in range(n):
                if table[xy][z] != table[x][table[y][z]]:
                    return x, y, z
    return None


def group_file(label: str, table: Table, identity: int, gens: list[int], row_order: list[int]) -> str:
    lines = [f"group {label} order {len(table)}", f"identity {identity}"]
    lines += [f"row {i}: " + " ".join(map(str, table[i])) for i in row_order]
    lines.append("generators: " + " ".join(map(str, gens)))
    return "\n".join(lines) + "\n"
