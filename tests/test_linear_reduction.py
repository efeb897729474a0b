"""The left-to-right reduction fold against a right-to-left reference.

The reference below is the earlier reduction: it prepends syllables one at a
time and pushes each new subgroup part through the whole head, which is
quadratic but obviously correct.  It reads only the spec's tables.
"""

import random

import pytest

from amalg import (
    SIDE_A,
    SIDE_B,
    IDENTITY,
    Mat2,
    NormalForm,
    evaluate_word,
    hom_from_generators,
    identity_form,
    make_amalgam,
    make_cyclic,
    make_dihedral,
    mat_mul,
    mat_pow,
    reduce_word,
    sl2_decompose,
    standard_generators,
    word_inv,
    word_mul,
)
from amalg import amalgam

WORDS = 10_000
MAX_LEN = 12


def _reference_prepend(spec, head, tail, side, x):
    """Prepend (side, x) to the normal form (head, tail); return the new tail."""
    def tables(s):
        if s == SIDE_A:
            return spec.a, spec.decomp_a, spec.iota_a.image
        return spec.b, spec.decomp_b, spec.iota_b.image

    g, dec, _ = tables(side)
    if head and head[0][0] == side:
        x = g.mul[x][head[0][1]]
        head.pop(0)
    t, d_run = dec[x]
    lead = (side, t) if t != g.identity else None
    e_d = spec.d.identity
    i = 0
    while d_run != e_d and i < len(head):
        s2, t2 = head[i]
        g2, dec2, img2 = tables(s2)
        t2n, d_run = dec2[g2.mul[img2[d_run]][t2]]
        head[i] = (s2, t2n)
        i += 1
    if d_run != e_d:
        tail = spec.d.mul[d_run][tail]
    if lead is not None:
        head.insert(0, lead)
    return tail


def reference_reduce(spec, syllables):
    head = []
    tail = spec.d.identity
    for side, x in reversed(syllables):
        tail = _reference_prepend(spec, head, tail, side, x)
    return NormalForm(tuple(head), tail)


def random_raw_word(rng, spec, max_len):
    word = []
    for _ in range(rng.randint(0, max_len)):
        side = rng.choice((SIDE_A, SIDE_B))
        word.append((side, rng.randrange((spec.a if side == SIDE_A else spec.b).order)))
    return word


def dihedral_amalgam():
    """D4 *_Z2 D6 with Z2 on a reflection of each side: nonabelian factors
    and a subgroup that is neither central nor normal."""
    z2, d4, d6 = make_cyclic(2), make_dihedral(4), make_dihedral(6)
    return make_amalgam(
        d4, d6, z2, hom_from_generators(z2, d4, {1: 4}), hom_from_generators(z2, d6, {1: 7})
    )


@pytest.fixture(scope="module", params=["small", "big", "dihedral"])
def spec(request, model):
    if request.param == "small":
        return model.big.small
    if request.param == "big":
        return model.big.spec
    return dihedral_amalgam()


def test_reduce_word_matches_the_reference(spec):
    rng = random.Random(11)
    for _ in range(WORDS):
        word = random_raw_word(rng, spec, MAX_LEN)
        assert reduce_word(spec, word) == reference_reduce(spec, word), word


def test_word_mul_agrees_with_reducing_the_concatenation(spec):
    rng = random.Random(12)
    for _ in range(WORDS):
        u = random_raw_word(rng, spec, MAX_LEN)
        v = random_raw_word(rng, spec, MAX_LEN)
        product = word_mul(spec, reduce_word(spec, u), reduce_word(spec, v))
        assert product == reduce_word(spec, u + v), (u, v)


def test_word_inv_round_trips(spec):
    rng = random.Random(13)
    e = identity_form(spec)
    for _ in range(WORDS):
        u = reduce_word(spec, random_raw_word(rng, spec, MAX_LEN))
        inv = word_inv(spec, u)
        assert word_inv(spec, inv) == u
        assert word_mul(spec, u, inv) == e
        assert word_mul(spec, inv, u) == e


def test_reduce_word_checks_each_syllable(spec):
    with pytest.raises(ValueError, match="unknown side 'c'"):
        reduce_word(spec, [(SIDE_A, 1), ("c", 0)])
    with pytest.raises(ValueError, match="element -1 out of range for side b"):
        reduce_word(spec, [(SIDE_B, -1)])


def test_matrix_tables_match_mat_pow(model):
    s_mat, u_mat, j_mat = standard_generators()
    big = model.big
    assert model.small_mats.a == tuple(mat_pow(s_mat, n) for n in range(4))
    assert model.small_mats.b == tuple(mat_pow(u_mat, n) for n in range(6))
    assert model.small_mats.d == tuple(mat_pow(s_mat, 2 * d) for d in range(2))
    for mats, sd, base in (
        (model.big_mats.a, big.sd_a, s_mat),
        (model.big_mats.b, big.sd_b, u_mat),
        (model.big_mats.d, big.sd_d, mat_pow(s_mat, 2)),
    ):
        assert len(mats) == sd.flat.order
        for x, m in enumerate(mats):
            n, c = sd.decode(x)
            assert m == mat_mul(mat_pow(base, n), mat_pow(j_mat, c))


def test_long_unipotent_decomposes_and_evaluates_back():
    m = Mat2(1, 20_000, 0, 1)
    form = sl2_decompose(m)
    assert len(form.head) == 40_000
    acc = IDENTITY
    s_mat, u_mat, _ = standard_generators()
    for side, x in form.head:
        acc = mat_mul(acc, mat_pow(s_mat if side == SIDE_A else u_mat, x))
    assert mat_mul(acc, mat_pow(s_mat, 2 * form.tail)) == m
    assert evaluate_word(form) == m


def test_a_unipotent_folds_as_many_blocks_whatever_its_size(monkeypatch):
    # T^N is one run of N (S^-1, U) blocks: the fold stops once the state
    # recurs, so the syllables _append folds do not grow with N.
    folded = []
    true = amalgam._append

    def counted(spec, stack, d, syllables):
        folded.append(len(syllables))
        return true(spec, stack, d, syllables)

    monkeypatch.setattr(amalgam, "_append", counted)
    counts = {}
    for n in (10**3, 10**4, 10**5):
        folded.clear()
        assert len(sl2_decompose(Mat2(1, n, 0, 1)).head) == 2 * n
        counts[n] = (len(folded), sum(folded))
    assert len(set(counts.values())) == 1
    assert counts[10**3][1] <= 16, counts
