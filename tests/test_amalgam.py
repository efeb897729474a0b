"""Amalgamated free products: coset data, reduction, and word algebra."""

import hashlib
import random

import pytest

from amalg import (
    SIDE_A,
    SIDE_B,
    AmalgamSpec,
    DihedralAmalgamForm,
    FiniteGroup,
    GroupHom,
    Mat2,
    NormalForm,
    enumerate_forms,
    evaluate_word,
    hom_from_generators,
    identity_form,
    identity_hom,
    make_amalgam,
    make_cyclic,
    make_dihedral,
    make_hom,
    nu,
    random_form,
    reduce_word,
    small_form_to_letters,
    syllable_count,
    to_word,
    word_eq,
    word_inv,
    word_mul,
)

from amalg.amalgam import _append, _fold_runs

from oracles import ClosureOracle, all_words


def assert_valid_form(spec: AmalgamSpec, form: NormalForm) -> None:
    """Structural invariant: alternating non-identity reps, tail in D."""
    assert 0 <= form.tail < spec.d.order
    prev_side = None
    for side, t in form.head:
        assert side in (SIDE_A, SIDE_B)
        assert side != prev_side
        group, trans = (spec.a, spec.trans_a) if side == SIDE_A else (spec.b, spec.trans_b)
        assert t in trans
        assert t != group.identity
        prev_side = side


def make_free_product():
    z1, z2, z3 = make_cyclic(1), make_cyclic(2), make_cyclic(3)
    return make_amalgam(z2, z3, z1, make_hom(z1, z2, (0,)), make_hom(z1, z3, (0,)))


def make_degenerate_amalgam():
    z4 = make_cyclic(4)
    return make_amalgam(z4, z4, z4, identity_hom(z4), identity_hom(z4))


def make_dihedral_amalgam():
    z2, d4, d6 = make_cyclic(2), make_dihedral(4), make_dihedral(6)
    return make_amalgam(
        d4, d6, z2, hom_from_generators(z2, d4, {1: 4}), hom_from_generators(z2, d6, {1: 7})
    )


def make_one_sided_amalgam():
    """Z2 *[Z2] Z4: the subgroup is all of side a, so only side b has
    non-identity representatives."""
    z2, z4 = make_cyclic(2), make_cyclic(4)
    return make_amalgam(z2, z4, z2, identity_hom(z2), make_hom(z2, z4, (0, 2)))


AMALGAMS = {
    "small": lambda model: model.big.small,
    "big": lambda model: model.big.spec,
    "dihedral": lambda model: make_dihedral_amalgam(),
    "free": lambda model: make_free_product(),
    "degenerate": lambda model: make_degenerate_amalgam(),
    "one-sided": lambda model: make_one_sided_amalgam(),
}


def test_transversals_of_the_z4_z6_amalgam(small_spec):
    assert small_spec.trans_a == (0, 1)
    assert small_spec.trans_b == (0, 1, 2)
    assert small_spec.label == "Z4 *[Z2] Z6"


def sides(spec):
    """(group, iota, trans, decomp) of side a, then of side b."""
    return (
        (spec.a, spec.iota_a, spec.trans_a, spec.decomp_a),
        (spec.b, spec.iota_b, spec.trans_b, spec.decomp_b),
    )


def test_decomposition_tables_split_every_element(small_spec):
    for group, iota, trans, decomp in sides(small_spec):
        seen = set()
        for x in group.elements():
            t, d = decomp[x]
            assert t in trans
            assert group.mul[t][iota.image[d]] == x
            seen.add((t, d))
        # The splitting is a bijection between elements and (rep, d) pairs.
        assert len(seen) == group.order


def test_non_subgroup_representatives_are_coset_minima(small_spec):
    for group, iota, trans, _ in sides(small_spec):
        sub = set(iota.image)
        for t in trans:
            coset = {group.mul[t][h] for h in sub}
            if group.identity in coset:
                assert t == group.identity
            else:
                assert t == min(coset)


def test_make_amalgam_rejects_non_injective_embedding():
    z2, z4 = make_cyclic(2), make_cyclic(4)
    collapse = make_hom(z2, z4, (0, 0))
    with pytest.raises(ValueError, match="not injective"):
        make_amalgam(z4, z4, z2, collapse, make_hom(z2, z4, (0, 2)))


def test_make_amalgam_rejects_mismatched_embedding_groups():
    z2, z4, z6 = make_cyclic(2), make_cyclic(4), make_cyclic(6)
    iota = make_hom(z2, z6, (0, 3))
    with pytest.raises(ValueError, match="must map"):
        make_amalgam(z4, z6, z2, iota, iota)


BAD2 = FiniteGroup("Bad2", ((0, 1), (1, 1)), 0, (0, 1), (1,))  # associative; 1 has no inverse


@pytest.mark.parametrize("a, b, d", [
    (BAD2, make_cyclic(2), make_cyclic(1)),
    (make_cyclic(2), BAD2, make_cyclic(1)),
    (make_cyclic(2), make_cyclic(2), BAD2),
], ids=["a", "b", "d"])
def test_make_amalgam_rejects_a_group_that_fails_an_axiom(a, b, d):
    with pytest.raises(ValueError) as err:
        make_amalgam(a, b, d, GroupHom(d, a, tuple(d.elements())),
                     GroupHom(d, b, tuple(d.elements())))
    assert str(err.value) == "group Bad2 violates inverses: x = 1, claimed inverse 1"


def test_reduce_empty_word_is_identity(small_spec):
    assert reduce_word(small_spec, ()) == identity_form(small_spec)
    assert identity_form(small_spec) == NormalForm((), 0)


def test_reduce_subgroup_syllables_to_tail(small_spec):
    assert reduce_word(small_spec, [(SIDE_A, 2)]) == NormalForm((), 1)
    assert reduce_word(small_spec, [(SIDE_B, 3)]) == NormalForm((), 1)
    # Both copies of the subgroup generator cancel across the seam.
    assert reduce_word(small_spec, [(SIDE_A, 2), (SIDE_B, 3)]) == NormalForm((), 0)


def test_reduce_splits_off_coset_representative(small_spec):
    assert reduce_word(small_spec, [(SIDE_A, 3)]) == NormalForm(((SIDE_A, 1),), 1)
    assert reduce_word(small_spec, [(SIDE_B, 5)]) == NormalForm(((SIDE_B, 2),), 1)


def test_reduce_cancels_inverse_pairs(small_spec):
    word = [(SIDE_A, 1), (SIDE_B, 2), (SIDE_B, 4), (SIDE_A, 3)]
    assert reduce_word(small_spec, word) == identity_form(small_spec)


def test_reduce_rejects_bad_syllables(small_spec):
    with pytest.raises(ValueError, match="unknown side"):
        reduce_word(small_spec, [("c", 0)])
    with pytest.raises(ValueError, match="out of range"):
        reduce_word(small_spec, [(SIDE_A, 4)])
    # A syllable that is not a pair is named with its position, not reported
    # as an element out of range or as Python's unpacking error.
    for word, syllable, i in (([5], "5", 0), ([(SIDE_A, 1), 5], "5", 1),
                              ([("a", 1, 2)], "('a', 1, 2)", 0), ([(SIDE_B, 1), "a"], "'a'", 1)):
        with pytest.raises(ValueError) as err:
            reduce_word(small_spec, word)
        assert str(err.value) == f"syllable {syllable} at position {i} is not a (side, element) pair"


@pytest.mark.parametrize("name", ["small", "dihedral"])
def test_the_fold_names_a_bad_syllable_anywhere_and_folds_onto_either_top(model, name):
    spec = AMALGAMS[name](model)
    label, na, nb = spec.label, spec.a.order, spec.b.order
    starts = enumerate_forms(spec, 2)  # heads as _mul, _times and _fold_runs pass them
    assert {u.head[-1][0] for u in starts if u.head} == {SIDE_A, SIDE_B}
    word = [(SIDE_A, 1), (SIDE_B, 2), (SIDE_B, nb - 2), (SIDE_A, na - 1), (SIDE_A, 1), (SIDE_B, 1)]
    for syllable, message in (
        (("c", 1), "unknown side 'c'"),
        ((SIDE_A, -1), f"element -1 out of range for side a of {label}"),
        ((SIDE_A, na), f"element {na} out of range for side a of {label}"),
        ((SIDE_B, nb), f"element {nb} out of range for side b of {label}"),
        ((SIDE_A, 1.5), f"element 1.5 out of range for side a of {label}"),
        ((SIDE_B, "1"), f"element '1' out of range for side b of {label}"),
        ((SIDE_A, 1, 2), "syllable ('a', 1, 2) at position {i} is not a (side, element) pair"),
        (5, "syllable 5 at position {i} is not a (side, element) pair"),
    ):
        for i in range(len(word) + 1):
            for u in starts:
                with pytest.raises(ValueError) as err:
                    _append(spec, list(u.head), u.tail, word[:i] + [syllable] + word[i:])
                assert str(err.value) == message.format(i=i)
    for u in starts:
        for w in all_words(spec, 2):
            stack = list(u.head)
            d = _append(spec, stack, u.tail, w)
            assert NormalForm(tuple(stack), d) == reduce_word(spec, to_word(spec, u) + w)


def test_reduce_is_idempotent_on_enumerated_forms(small_spec):
    for form in enumerate_forms(small_spec, 4):
        assert_valid_form(small_spec, form)
        assert reduce_word(small_spec, to_word(small_spec, form)) == form


def test_enumerated_form_count(small_spec):
    # Heads by length: 1, 3, 4, 6 (alternating over 1 a-rep and 2 b-reps).
    assert len(enumerate_forms(small_spec, 3)) == 14 * 2
    assert len(enumerate_forms(small_spec, 4)) == 22 * 2


def test_reduction_matches_relation_closure_at_bound_three(small_spec):
    oracle = ClosureOracle(small_spec, 3)
    forms_of_class: dict[int, set[NormalForm]] = {}
    classes_of_form: dict[NormalForm, set[int]] = {}
    for word in all_words(small_spec, 3):
        key = oracle.key(word)
        form = reduce_word(small_spec, word)
        forms_of_class.setdefault(key, set()).add(form)
        classes_of_form.setdefault(form, set()).add(key)
    # Oracle-equal words share a normal form; oracle-separated words differ.
    assert all(len(v) == 1 for v in forms_of_class.values())
    assert all(len(v) == 1 for v in classes_of_form.values())
    assert len(forms_of_class) == len(classes_of_form)


def test_word_mul_agrees_with_concatenation(small_spec):
    rng = random.Random(1)
    for _ in range(1500):
        u = random_form(rng, small_spec, 5)
        v = random_form(rng, small_spec, 5)
        product = word_mul(small_spec, u, v)
        assert_valid_form(small_spec, product)
        concat = to_word(small_spec, u) + to_word(small_spec, v)
        assert product == reduce_word(small_spec, concat)


def test_word_mul_is_associative(small_spec):
    rng = random.Random(2)
    for _ in range(500):
        u = random_form(rng, small_spec, 4)
        v = random_form(rng, small_spec, 4)
        w = random_form(rng, small_spec, 4)
        left = word_mul(small_spec, word_mul(small_spec, u, v), w)
        right = word_mul(small_spec, u, word_mul(small_spec, v, w))
        assert left == right


def test_word_inv_gives_two_sided_inverses(small_spec):
    rng = random.Random(3)
    e = identity_form(small_spec)
    for _ in range(500):
        u = random_form(rng, small_spec, 5)
        assert word_mul(small_spec, u, word_inv(small_spec, u)) == e
        assert word_mul(small_spec, word_inv(small_spec, u), u) == e


def test_identity_form_is_neutral(small_spec):
    rng = random.Random(4)
    e = identity_form(small_spec)
    for _ in range(100):
        u = random_form(rng, small_spec, 5)
        assert word_mul(small_spec, u, e) == u
        assert word_mul(small_spec, e, u) == u


def make_nonabelian_amalgam():
    """D3 *[D3] D6, with D3 in D6 as r -> r^2, f -> f: the subgroup is not
    abelian, so tails multiply in one order only."""
    d3, d6 = make_dihedral(3), make_dihedral(6)
    return make_amalgam(d3, d6, d3, identity_hom(d3), hom_from_generators(d3, d6, {1: 2, 3: 6}))


@pytest.mark.parametrize("name", ["small", "big", "nonabelian"])
def test_word_mul_by_a_headless_form_agrees_with_concatenation(model, name):
    spec = make_nonabelian_amalgam() if name == "nonabelian" else AMALGAMS[name](model)
    for u in enumerate_forms(spec, 2):
        for d in spec.d.elements():
            v = NormalForm((), d)
            concat = to_word(spec, u) + to_word(spec, v)
            assert word_mul(spec, u, v) == reduce_word(spec, concat)
    # A bad left factor and a bad tail still raise the errors of check_form.
    v = NormalForm((), 0)
    for u, message in (
        (NormalForm(((SIDE_A, -1),), 0), f"element -1 out of range for side a of {spec.label}"),
        (NormalForm((("z", 1),), 0), "unknown side 'z'"),
        (NormalForm((), 99), f"tail 99 out of range for the subgroup {spec.d.label} of {spec.label}"),
    ):
        with pytest.raises(ValueError) as err:
            word_mul(spec, u, v)
        assert str(err.value) == message
    for tail in (-1, 99, 1.5):
        with pytest.raises(ValueError) as err:
            word_mul(spec, identity_form(spec), NormalForm((), tail))
        assert str(err.value) == (
            f"tail {tail!r} out of range for the subgroup {spec.d.label} of {spec.label}")
    # A right factor whose head and tail are both bad: its head's error first.
    with pytest.raises(ValueError) as err:
        word_mul(spec, identity_form(spec), NormalForm(((SIDE_A, -1),), 99))
    assert str(err.value) == f"element -1 out of range for side a of {spec.label}"


def random_raw_word(rng, spec, length):
    groups = {SIDE_A: spec.a, SIDE_B: spec.b}
    return [(side, rng.randrange(groups[side].order))
            for side in (rng.choice((SIDE_A, SIDE_B)) for _ in range(length))]


def random_run(rng, spec, prefix):
    """A block and a count: the block is random, or the inverse of a stretch
    of the prefix's end, perhaps with a syllable added, so that repeating it
    first shrinks the stack; the count is 0, 1, small or large."""
    if prefix and rng.random() < 0.5:
        inv = {SIDE_A: spec.a.inv, SIDE_B: spec.b.inv}
        block = [(s, inv[s][x]) for s, x in reversed(prefix[-rng.randint(1, len(prefix)):])]
        block += random_raw_word(rng, spec, rng.randint(0, 1))
    else:
        block = random_raw_word(rng, spec, rng.randint(1, 4))
    k = rng.choice((0, 1, rng.randint(2, 40), rng.randint(100, 2000)))
    return block, k


@pytest.mark.parametrize("name", ["small", "big", "dihedral", "nonabelian"])
def test_a_run_reduces_as_its_expanded_word(model, name):
    spec = make_nonabelian_amalgam() if name == "nonabelian" else AMALGAMS[name](model)
    rng = random.Random(21)
    for _ in range(600):
        prefix = random_raw_word(rng, spec, rng.randint(0, 8))
        block, k = random_run(rng, spec, prefix)
        suffix = random_raw_word(rng, spec, rng.randint(0, 4))
        runs = [(prefix, 1), (block, k), (suffix, 1)]
        assert _fold_runs(spec, runs)[0] == reduce_word(spec, prefix + block * k + suffix), runs


def test_word_eq_accepts_raw_and_reduced_arguments(small_spec):
    raw = ((SIDE_A, 3), (SIDE_A, 2))
    assert word_eq(small_spec, raw, reduce_word(small_spec, [(SIDE_A, 1)]))
    assert word_eq(small_spec, raw, [(SIDE_A, 1)])
    assert not word_eq(small_spec, raw, [(SIDE_A, 2)])
    # A form that is not canonical names the element of its word.
    assert word_eq(small_spec, NormalForm(((SIDE_A, 3),), 0), [(SIDE_A, 3)])
    assert word_eq(small_spec, NormalForm(((SIDE_A, 3),), 0), NormalForm(((SIDE_A, 1),), 1))
    assert not word_eq(small_spec, NormalForm(((SIDE_A, 3),), 0), [(SIDE_A, 1)])


def test_a_list_syllable_reads_as_reduce_word_reads_it(small_spec, big):
    # reduce_word accepts a syllable written as a list pair, so check_form
    # and every reader behind it do too.
    head = ([SIDE_A, 1], [SIDE_B, 2])
    form = NormalForm(head, 1)
    canonical = reduce_word(small_spec, [(SIDE_A, 1), (SIDE_B, 2), (SIDE_A, 2)])
    assert to_word(small_spec, form) == head + ((SIDE_A, 2),)
    assert reduce_word(small_spec, to_word(small_spec, form)) == canonical
    assert word_eq(small_spec, form, canonical)
    assert nu(big, form) == nu(big, canonical)
    # The matrix readers hash their pairs, so they read a list pair as a tuple.
    tupled = NormalForm(tuple(map(tuple, head)), 1)
    assert evaluate_word(form) == evaluate_word(canonical)
    assert evaluate_word(NormalForm(([SIDE_A, 1], (SIDE_B, 1)), 0)) == Mat2(-1, -1, 0, -1)
    assert evaluate_word(DihedralAmalgamForm(form)) == evaluate_word(DihedralAmalgamForm(tupled))
    assert small_form_to_letters(form) == small_form_to_letters(tupled)
    with pytest.raises(ValueError, match="^element 9 out of range for side a"):
        to_word(small_spec, NormalForm(([SIDE_A, 9],), 0))


def test_syllable_count(small_spec):
    assert syllable_count(small_spec, identity_form(small_spec)) == 0
    assert syllable_count(small_spec, NormalForm(((SIDE_A, 1),), 0)) == 1
    assert syllable_count(small_spec, NormalForm(((SIDE_A, 1),), 1)) == 2


def test_to_word_embeds_tail_on_side_a(small_spec):
    form = NormalForm(((SIDE_B, 2),), 1)
    assert to_word(small_spec, form) == ((SIDE_B, 2), (SIDE_A, 2))


def test_random_form_is_deterministic_and_valid(small_spec):
    first = [random_form(random.Random(7), small_spec, 6) for _ in range(50)]
    second = [random_form(random.Random(7), small_spec, 6) for _ in range(50)]
    assert first == second
    for form in first:
        assert_valid_form(small_spec, form)
        assert reduce_word(small_spec, to_word(small_spec, form)) == form


def test_degenerate_amalgam_collapses_to_the_subgroup():
    spec = make_degenerate_amalgam()
    assert spec.trans_a == (0,)
    assert spec.trans_b == (0,)
    assert reduce_word(spec, [(SIDE_A, 3), (SIDE_B, 2)]) == NormalForm((), 1)
    assert enumerate_forms(spec, 3) == [NormalForm((), d) for d in range(4)]


def test_free_product_keeps_sides_separate():
    spec = make_free_product()
    assert spec.trans_a == (0, 1)
    assert spec.trans_b == (0, 1, 2)
    ab = reduce_word(spec, [(SIDE_A, 1), (SIDE_B, 1)])
    ba = reduce_word(spec, [(SIDE_B, 1), (SIDE_A, 1)])
    assert ab != ba
    assert ab == NormalForm(((SIDE_A, 1), (SIDE_B, 1)), 0)
    # 22 alternating heads of length <= 4 over one a-rep and two b-reps.
    assert len(enumerate_forms(spec, 4)) == 22


def test_free_product_closure_oracle_agreement():
    spec = make_free_product()
    oracle = ClosureOracle(spec, 3)
    forms_of_class: dict[int, set[NormalForm]] = {}
    classes_of_form: dict[NormalForm, set[int]] = {}
    for word in all_words(spec, 3):
        key = oracle.key(word)
        form = reduce_word(spec, word)
        forms_of_class.setdefault(key, set()).add(form)
        classes_of_form.setdefault(form, set()).add(key)
    assert all(len(v) == 1 for v in forms_of_class.values())
    assert all(len(v) == 1 for v in classes_of_form.values())


@pytest.mark.parametrize("name", list(AMALGAMS))
def test_side_tables_are_built_once_and_hash_by_value(model, name):
    spec = AMALGAMS[name](model)
    for tables, (g, iota, _, decomp) in zip((spec.tables_a, spec.tables_b), sides(spec)):
        assert tables == (tuple(g.mul[x] for x in iota.image), g.mul, decomp, g.identity, g.order)
        assert all(row is g.mul[x] for row, x in zip(tables[0], iota.image))  # rows shared
    again = make_amalgam(spec.a, spec.b, spec.d, spec.iota_a, spec.iota_b)
    assert again == spec
    assert hash(again) == hash(spec)


def test_negative_max_head_is_rejected_before_any_draw(small_spec):
    with pytest.raises(ValueError) as err:
        enumerate_forms(small_spec, -1)
    assert str(err.value) == "max_head must be non-negative, got -1"
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(ValueError) as err:
        random_form(rng, small_spec, -1)
    assert str(err.value) == "max_head must be non-negative, got -1"
    assert rng.getstate() == state
    assert enumerate_forms(small_spec, 0) == [NormalForm((), 0), NormalForm((), 1)]


# SHA-256 of the repr of 200 draws random_form(random.Random(7), spec, 6) from
# one generator, and of enumerate_forms(spec, 3): seeded draws feed every
# verifier, so a change to how representatives are listed or drawn shows here.
PINNED_DRAWS = {
    "small": ("71d118700be05827c122dcf3fec536018c61dc93aa88a704b6cdea27b3317cec",
              "6d3d361e27814b32b5170f990e47af06f9443609bf714b086453bee9890bf850"),
    "big": ("b9ff8992fd56448f7b108eea42d0eaec4d2a76a0c6f2362e1c324f432a95efc5",
            "723a1bbfd9cc6c9212bc32373b32bec90acc900fad30e118dc937a289b976021"),
    "dihedral": ("1cf0c1954ff0c27d617d469209e972d2f6ebf8b895727a0a893445d226ad7348",
                 "d491d2e5e53c4c0b7a69b53eb111eba1b4cb98bb9a597db269adfe74f2d5cbbc"),
    "free": ("7fc3c08d2bc96a04040712a19a186d39a361fe633dbda9b965fcdde78239ede9",
             "e7f1303c74b2756f596cbf4b7fecfbf6a7c379fb472491c4e1bdf8655b310e1b"),
    "degenerate": ("8a5973fcba610a5e6946103c1de9dfffa3beb3f338885f3704ab23719e174149",
                   "0caf46750ef5f812b3b70ce1787d5e958a6f361501b093d25e5890f670230222"),
    "one-sided": ("ba7feae34cdbab79543328ab77374effcbea47d68f830f660e20ead037938560",
                  "98937b8252fdd4e2ea306748ec7232290375404e866b3839e67f7f17eb58287e"),
}


def randint_random_form(rng, spec, max_head):
    """random_form as a reference: the same draws written with ``randint``,
    a per-call table of each side's representatives and ``choice``."""
    reps = {SIDE_A: spec.trans_a[1:], SIDE_B: spec.trans_b[1:]}
    length = rng.randint(0, max_head)
    sides = [s for s in (SIDE_A, SIDE_B) if reps[s]]
    if len(sides) == 2 and rng.choice(sides) == SIDE_B:
        sides.reverse()
    sides = (sides * length)[: length if len(sides) == 2 else 1]
    head = tuple([(s, rng.choice(reps[s])) for s in sides])
    return NormalForm(head, rng.randrange(spec.d.order))


@pytest.mark.parametrize("name", list(AMALGAMS))
def test_random_form_draws_as_the_reference_at_every_max_head(model, name):
    spec = AMALGAMS[name](model)
    for max_head in range(9):
        rng, ref = random.Random(max_head), random.Random(max_head)
        draws = [random_form(rng, spec, max_head) for _ in range(200)]
        assert draws == [randint_random_form(ref, spec, max_head) for _ in range(200)]
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("name", list(PINNED_DRAWS))
def test_random_and_enumerated_forms_are_pinned(model, name):
    spec = AMALGAMS[name](model)
    rng = random.Random(7)
    draws = [random_form(rng, spec, 6) for _ in range(200)]
    digests = tuple(
        hashlib.sha256(repr(x).encode()).hexdigest() for x in (draws, enumerate_forms(spec, 3))
    )
    assert digests == PINNED_DRAWS[name]
