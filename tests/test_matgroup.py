"""Exact 2x2 integer matrices and the dihedral-amalgam decomposition."""

import functools
import random
import sys
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalg import matgroup
from amalg import (
    IDENTITY,
    SIDE_A,
    SIDE_B,
    DihedralAmalgamForm,
    Glt2Word,
    Mat2,
    NormalForm,
    build_dihedral_model,
    check_form,
    enumerate_forms,
    evaluate_word,
    form_to_letters,
    gl2_decompose,
    gl2_split,
    mat_det,
    mat_inv,
    mat_mul,
    mat_pow,
    nu,
    phi,
    random_form,
    reduce_word,
    sl2_decompose,
    small_form_to_letters,
    standard_generators,
    to_word,
    word_to_form,
)

from test_amalgam import make_nonabelian_amalgam, random_raw_word, random_run

S, U, J = standard_generators()
NEG_I = Mat2(-1, 0, 0, -1)

# Words over s, u, j that evaluate to the identity matrix.
RELATORS = (
    (("s", 4),),
    (("u", 6),),
    (("j", 2),),
    (("s", 2), ("u", -3)),
    (("j", 1), ("s", 1), ("j", 1), ("s", 1)),
    (("j", 1), ("u", 1), ("j", 1), ("u", 1)),
)


def random_letter_word(rng: random.Random, max_len: int) -> Glt2Word:
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letter = rng.choice("suj")
        exp = 1 if letter == "j" else rng.choice((-2, -1, 1, 2))
        letters.append((letter, exp))
    return Glt2Word(tuple(letters))


def test_matrix_arithmetic():
    m = Mat2(2, 3, 1, 2)
    assert m * mat_inv(m) == IDENTITY
    assert mat_det(m) == 1
    assert mat_mul(m, IDENTITY) == m
    assert mat_pow(m, 0) == IDENTITY
    assert mat_pow(m, 3) == m * m * m
    assert mat_pow(m, -2) == mat_inv(m * m)
    # Determinant -1: the adjugate changes sign.
    assert mat_inv(J) == J
    assert S * J * mat_inv(S * J) == IDENTITY


def test_det_is_multiplicative():
    rng = random.Random(20)
    for _ in range(100):
        m = evaluate_word(random_letter_word(rng, 8))
        n = evaluate_word(random_letter_word(rng, 8))
        assert mat_det(mat_mul(m, n)) == mat_det(m) * mat_det(n)


def test_inverse_requires_unit_determinant():
    with pytest.raises(ValueError, match="determinant"):
        mat_inv(Mat2(1, 0, 0, 2))
    with pytest.raises(ValueError, match="determinant"):
        mat_inv(Mat2(1, 1, 1, 1))


def test_generator_relations():
    assert mat_pow(S, 4) == IDENTITY
    assert mat_pow(U, 6) == IDENTITY
    assert mat_pow(J, 2) == IDENTITY
    assert mat_pow(S, 2) == NEG_I
    assert mat_pow(U, 3) == NEG_I
    assert J * S * J == mat_inv(S)
    assert J * U * J == mat_inv(U)
    assert mat_mul(mat_inv(S), U) == Mat2(1, 1, 0, 1)
    assert mat_det(S) == 1 and mat_det(U) == 1 and mat_det(J) == -1


def test_each_realization_carries_the_amalgam_it_realizes(model):
    assert model.small_mats.spec is model.big.small
    assert model.big_mats.spec is model.big.spec
    assert hash(build_dihedral_model()) == hash(model)  # the records stay hashable


def test_model_matrix_images(model):
    side_a = {model.side_matrix(SIDE_A, x) for x in model.big.sd_a.flat.elements()}
    side_b = {model.side_matrix(SIDE_B, x) for x in model.big.sd_b.flat.elements()}
    sub = {model.sub_matrix(x) for x in model.big.sd_d.flat.elements()}
    assert len(side_a) == 8
    assert len(side_b) == 12
    assert sub == {IDENTITY, NEG_I, J, mat_mul(NEG_I, J)}


def test_side_matrix_is_a_homomorphism(model):
    for side in (SIDE_A, SIDE_B):
        flat = {SIDE_A: model.big.sd_a, SIDE_B: model.big.sd_b}[side].flat
        for x in flat.elements():
            for y in flat.elements():
                lhs = model.side_matrix(side, flat.mul[x][y])
                rhs = mat_mul(model.side_matrix(side, x), model.side_matrix(side, y))
                assert lhs == rhs


def test_sub_matrix_agrees_with_both_embeddings(model):
    big = model.big
    for x in big.sd_d.flat.elements():
        assert model.sub_matrix(x) == model.side_matrix(
            SIDE_A, big.spec.iota_a.image[x]
        )
        assert model.sub_matrix(x) == model.side_matrix(
            SIDE_B, big.spec.iota_b.image[x]
        )


def test_side_and_sub_matrices_are_the_dihedral_realizations_entries(model):
    mats = model.big_mats
    assert tuple(model.side_matrix(SIDE_A, x) for x in range(len(mats.a))) == mats.a
    assert tuple(model.side_matrix(SIDE_B, x) for x in range(len(mats.b))) == mats.b
    assert tuple(model.sub_matrix(x) for x in range(len(mats.d))) == mats.d


def error_of(call, *args) -> str:
    with pytest.raises(ValueError) as err:
        call(*args)
    return str(err.value)


def test_side_and_sub_matrices_raise_the_errors_of_check_form(model):
    spec = model.big.spec
    for side, x in ((SIDE_A, 99), ("z", 1), (SIDE_A, 1.5)):
        form = NormalForm(((side, x),), spec.d.identity)
        assert error_of(model.side_matrix, side, x) == error_of(check_form, spec, form)
    for tail in (9, "x"):
        form = NormalForm((), tail)
        assert error_of(model.sub_matrix, tail) == error_of(check_form, spec, form)


def test_sl2_decompose_frozen_examples():
    assert sl2_decompose(IDENTITY) == NormalForm((), 0)
    assert sl2_decompose(NEG_I) == NormalForm((), 1)
    assert sl2_decompose(S) == NormalForm(((SIDE_A, 1),), 0)
    assert sl2_decompose(U) == NormalForm(((SIDE_B, 1),), 0)
    assert sl2_decompose(Mat2(1, 1, 0, 1)) == NormalForm(
        ((SIDE_A, 1), (SIDE_B, 1)), 1
    )


def test_sl2_decompose_requires_determinant_one():
    with pytest.raises(ValueError, match="determinant"):
        sl2_decompose(J)
    with pytest.raises(ValueError, match="determinant"):
        sl2_decompose(Mat2(2, 0, 0, 1))


@pytest.mark.parametrize("decompose", [sl2_decompose, gl2_decompose])
@pytest.mark.parametrize("position", range(4), ids=list("abcd"))
@pytest.mark.parametrize("kind", [float, Fraction, str])
def test_a_matrix_entry_that_is_not_an_int_is_named_with_its_position(decompose, position, kind):
    # The identity with one entry of equal value but another type: its
    # determinant still compares equal to 1.
    entries = list(IDENTITY)
    entries[position] = bad = kind(entries[position])
    message = f"matrix entry {'abcd'[position]} is {bad!r}, not an integer"
    assert error_of(decompose, Mat2(*entries)) == message


def test_true_and_false_entries_pass_as_1_and_0():
    m = Mat2(True, False, False, True)
    assert sl2_decompose(m) == sl2_decompose(IDENTITY)
    assert gl2_decompose(m) == gl2_decompose(IDENTITY)
    assert gl2_decompose(Mat2(False, True, True, False)) == gl2_decompose(J)


def test_sl2_round_trips_on_seeded_words():
    rng = random.Random(21)
    count = 0
    while count < 200:
        word = random_letter_word(rng, 12)
        if any(letter == "j" for letter, _ in word.letters):
            continue
        m = evaluate_word(word)
        assert evaluate_word(sl2_decompose(m)) == m
        count += 1


def test_fibonacci_powers_round_trip():
    fib = Mat2(1, 1, 1, 0)
    for k in range(1, 13):
        m = mat_pow(fib, k)
        if mat_det(m) == 1:
            assert evaluate_word(sl2_decompose(m)) == m
        else:
            assert evaluate_word(gl2_decompose(m)) == m


def test_gl2_split_examples():
    assert gl2_split(IDENTITY) == (IDENTITY, 0)
    assert gl2_split(Mat2(1, 0, 0, -1)) == (Mat2(0, 1, -1, 0), 1)
    assert gl2_split(J) == (IDENTITY, 1)
    with pytest.raises(ValueError, match="determinant"):
        gl2_split(Mat2(2, 0, 0, 1))


def test_gl2_decompose_frozen_examples():
    assert gl2_decompose(IDENTITY) == DihedralAmalgamForm(NormalForm((), 0))
    assert gl2_decompose(J) == DihedralAmalgamForm(NormalForm((), 1))
    assert gl2_decompose(NEG_I) == DihedralAmalgamForm(NormalForm((), 2))


def test_gl2_round_trips_on_seeded_words():
    rng = random.Random(22)
    for _ in range(200):
        word = random_letter_word(rng, 12)
        m = evaluate_word(word)
        form = gl2_decompose(m)
        assert evaluate_word(form) == m
        # Reducing the word directly gives the same canonical form.
        assert word_to_form(word) == form


def test_relator_insertion_does_not_change_the_form():
    rng = random.Random(23)
    for _ in range(100):
        word = random_letter_word(rng, 10)
        relator = RELATORS[rng.randrange(len(RELATORS))]
        cut = rng.randint(0, len(word.letters))
        perturbed = Glt2Word(word.letters[:cut] + relator + word.letters[cut:])
        assert evaluate_word(perturbed) == evaluate_word(word)
        assert word_to_form(perturbed) == word_to_form(word)


def test_relators_evaluate_to_identity_and_reduce_to_identity():
    for relator in RELATORS:
        word = Glt2Word(relator)
        assert evaluate_word(word) == IDENTITY
        assert word_to_form(word) == DihedralAmalgamForm(NormalForm((), 0))


def test_word_to_form_folds_exponents_mod_letter_order():
    assert word_to_form(Glt2Word((("s", 5),))) == word_to_form(Glt2Word((("s", 1),)))
    assert word_to_form(Glt2Word((("u", 7),))) == word_to_form(Glt2Word((("u", 1),)))
    assert word_to_form(Glt2Word((("j", 3),))) == word_to_form(Glt2Word((("j", 1),)))


def test_word_to_form_rejects_unknown_letter():
    with pytest.raises(ValueError, match="unknown letter"):
        word_to_form(Glt2Word((("x", 1),)))


@pytest.mark.parametrize("k", [1.5, "1", None, 2.0])
def test_a_letter_exponent_that_is_not_an_int_is_named_with_its_position(k):
    word = Glt2Word((("u", 1), ("s", k), ("j", 1.5)))
    message = f"exponent {k!r} of letter 's' at position 1 is not an integer"
    for read in (word_to_form, evaluate_word):
        with pytest.raises(ValueError) as err:
            read(word)
        assert str(err.value) == message


def test_true_and_false_exponents_pass_as_1_and_0():
    word = Glt2Word((("s", True), ("u", False), ("j", True)))
    assert evaluate_word(word) == evaluate_word(Glt2Word((("s", 1), ("j", 1)))) == mat_mul(S, J)
    assert word_to_form(word) == word_to_form(Glt2Word((("s", 1), ("j", 1))))


@pytest.mark.parametrize("letter, message", [
    (("s",), "letter ('s',) at position 1 is not a (name, exponent) pair"),
    ("s", "letter 's' at position 1 is not a (name, exponent) pair"),
    (("s", 1, 2), "letter ('s', 1, 2) at position 1 is not a (name, exponent) pair"),
    ((["s"], 1), "unknown letter ['s']"),
], ids=["one-tuple", "bare-name", "triple", "list-name"])
def test_a_malformed_letter_gets_a_value_error_naming_it(letter, message):
    word = Glt2Word((("u", 1), letter, ("q", 1)))
    for read in (word_to_form, evaluate_word):
        assert error_of(read, word) == message


@pytest.mark.parametrize("letters", [5, None])
def test_letters_that_cannot_be_iterated_get_a_value_error_naming_them(letters):
    message = f"letters {letters!r} are not a sequence of (name, exponent) pairs"
    for read in (word_to_form, evaluate_word):
        assert error_of(read, Glt2Word(letters)) == message


def divmod_letters(model, form):
    """The rendering of a dihedral form read as flat pairs: each syllable or
    tail x of side a or b is divmod(x, |C|) = (n, c), written s^n or u^n
    then j^c, and the raw letters are folded."""
    raw = []
    for side, x in to_word(model.big.spec, form):
        n, c = divmod(x, model.big.actor.order)
        raw.append(({SIDE_A: "s", SIDE_B: "u"}[side], n))
        if c:
            raw.append(("j", c))
    return Glt2Word(matgroup.fold_letters(raw))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_caller_forms_render_as_their_flat_pairs(model, data):
    # Any element of either side, the identity included, next to any other,
    # on the same side or not, and any tail: every form check_form accepts.
    spec = model.big.spec
    head = data.draw(st.lists(st.sampled_from(sorted(spec.syllables)), max_size=12))
    form = NormalForm(tuple(head), data.draw(st.integers(0, spec.d.order - 1)))
    assert form_to_letters(DihedralAmalgamForm(form)) == divmod_letters(model, form)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(dihedral=st.booleans(), canonical=st.booleans(), data=st.data())
def test_render_folds_the_joined_table_words(model, dihedral, canonical, data):
    # Canonical forms, and any form check_form accepts: identity syllables
    # (empty table words) and neighbours on the same side included.
    spec, mats = (model.big.spec, model.big_mats) if dihedral else (model.big.small, model.small_mats)
    if canonical:
        form = random_form(random.Random(data.draw(st.integers(0, 2**32))), spec, 40)
    else:
        head = data.draw(st.lists(st.sampled_from(sorted(spec.syllables)), max_size=12))
        form = NormalForm(tuple(head), data.draw(st.integers(0, spec.d.order - 1)))
    words = dict(mats.words)
    joined = [letter for side, x in to_word(spec, form) for letter in words[side][x]]
    assert matgroup._render(mats, form) == Glt2Word(matgroup.fold_letters(joined))


def test_each_letter_power_is_read_as_its_flat_pair(model):
    big = model.big
    base = {SIDE_A: big.base_a, SIDE_B: big.base_b}
    small = dict(model.small_mats.syllables)
    for name, powers in matgroup.LETTERS.items():
        for k in range(-13, 14):
            r = k % len(powers)
            if name == "j":  # j generates the actor: (0, c) on side a
                word = [(SIDE_A, big.sd_a.encode(0, r))]
            elif r:  # s^r on side a, u^r on side b of the small amalgam
                assert small[name, r] == ({"s": SIDE_A, "u": SIDE_B}[name], r)
                side, x = small[name, r]
                word = [(side, base[side][x])]
            else:
                word = []
            expected = reduce_word(big.spec, word)
            assert word_to_form(Glt2Word(((name, k),))).form == expected, (name, k)


def test_form_to_letters_round_trips_through_evaluation():
    rng = random.Random(24)
    for _ in range(100):
        m = evaluate_word(random_letter_word(rng, 10))
        form = gl2_decompose(m)
        letters = form_to_letters(form)
        assert evaluate_word(letters) == m
        for letter, exp in letters.letters:
            assert letter in ("s", "u", "j")
            assert 0 < exp < {"s": 4, "u": 6, "j": 2}[letter]


def test_small_form_to_letters_round_trips_through_evaluation():
    rng = random.Random(25)
    count = 0
    while count < 100:
        word = random_letter_word(rng, 10)
        if any(letter == "j" for letter, _ in word.letters):
            continue
        m = evaluate_word(word)
        letters = small_form_to_letters(sl2_decompose(m))
        assert evaluate_word(letters) == m
        count += 1


def test_small_form_to_letters_renders_a_canonical_form_as_its_dihedral_image(model):
    # nu gives each syllable a trivial C-part, which renders as no j.
    forms = enumerate_forms(model.big.small, 8)
    assert len(forms) == 212
    for form in forms:
        expected = form_to_letters(DihedralAmalgamForm(nu(model.big, form)))
        assert small_form_to_letters(form) == expected, form


def test_small_form_to_letters_renders_a_form_as_its_own_syllables():
    # b:3 is -I, the tail 1, whose canonical form renders as s^2; the form
    # itself renders as u^3, as the same element b:6 does in the dihedral form.
    assert small_form_to_letters(NormalForm(((SIDE_B, 3),), 0)) == Glt2Word((("u", 3),))
    assert form_to_letters(DihedralAmalgamForm(NormalForm(((SIDE_B, 6),), 0))) == Glt2Word(
        (("u", 3),))
    # s * s then the tail s^2, folded as written: s^4, not the identity's empty word.
    form = NormalForm(((SIDE_A, 1), (SIDE_A, 1)), 1)
    assert small_form_to_letters(form) == Glt2Word((("s", 4),))


def test_sl2_decompose_agrees_with_bfs_oracle(model, bfs6):
    spec = model.big.small
    for m, word in bfs6.items():
        syls = []
        for letter, exp in word:
            if letter == "s":
                syls.append((SIDE_A, exp % 4))
            else:
                syls.append((SIDE_B, exp % 6))
        assert reduce_word(spec, syls) == sl2_decompose(m)


def test_evaluating_a_letter_word_does_not_build_the_model():
    build_dihedral_model.cache_clear()
    assert evaluate_word(Glt2Word((("s", 1), ("u", -1), ("j", 1)))) == mat_mul(
        mat_mul(S, mat_inv(U)), J
    )
    assert build_dihedral_model.cache_info().currsize == 0


def test_evaluate_word_rejects_unknown_types():
    with pytest.raises(TypeError):
        evaluate_word([("s", 1)])


MATRICES = (IDENTITY, S, J, Mat2(2, 3, 1, 2), Mat2(3, 2, 1, 1), Mat2(1, 40, 0, 1))


def count_evaluations(monkeypatch) -> list[int]:
    calls: list[int] = []
    evaluate = matgroup.SyllableMatrices.evaluate

    def counted(self, form, periods=()):
        calls.append(1)
        return evaluate(self, form, periods)

    monkeypatch.setattr(matgroup.SyllableMatrices, "evaluate", counted)
    return calls


@pytest.mark.parametrize("m", MATRICES)
def test_each_decomposition_is_evaluated_once(monkeypatch, m):
    calls = count_evaluations(monkeypatch)
    assert evaluate_word(form_to_letters(gl2_decompose(m))) == m
    assert len(calls) == 1
    if mat_det(m) == 1:
        calls.clear()
        sl2_decompose(m)
        assert len(calls) == 1


def count_calls(monkeypatch, *names: str) -> dict[str, int]:
    """Count the calls of each amalg function ``names`` ("module.function"),
    through every amalg module that holds it, so calls between modules count."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        module, attr = name.split(".")
        true = getattr(sys.modules[f"amalg.{module}"], attr)

        def counted(*args, name=name, true=true):
            counts[name] += 1
            return true(*args)

        for mod in [m for n, m in sys.modules.items() if n == "amalg" or n.startswith("amalg.")]:
            if getattr(mod, attr, None) is true:
                monkeypatch.setattr(mod, attr, counted)
    return counts


@pytest.mark.parametrize("m", MATRICES)
def test_each_decomposition_is_reduced_once(monkeypatch, m):
    build_dihedral_model()  # built before counting: construction is not decomposition
    names = ("amalgam._fold_runs", "amalgam.reduce_word", "iso.phi", "iso.nu",
             "amalgam.word_mul", "iso.tau")
    once = {name: int(name == "amalgam._fold_runs") for name in names}
    counts = count_calls(monkeypatch, *names)
    gl2_decompose(m)
    assert counts == once
    if mat_det(m) == 1:
        counts["amalgam._fold_runs"] = 0
        sl2_decompose(m)
        assert counts == once


def test_a_wrong_decomposition_fails_its_evaluation_check(monkeypatch):
    wrong = NormalForm(((SIDE_A, 1),), 0)
    monkeypatch.setattr(matgroup, "_fold_runs", lambda spec, runs: (wrong, []))
    with pytest.raises(RuntimeError, match="failed its evaluation check"):
        gl2_decompose(U)
    monkeypatch.setattr(matgroup, "_fold_runs", lambda spec, runs: (wrong, []))
    with pytest.raises(RuntimeError, match="failed its evaluation check"):
        sl2_decompose(U)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("suj"),
                          st.integers(-10**6, 10**6).filter(bool)), max_size=40))
def test_evaluate_word_agrees_with_a_product_of_generator_powers(letters):
    generators = dict(zip("suj", standard_generators()))
    expected = functools.reduce(
        mat_mul, [mat_pow(generators[name], k) for name, k in letters], IDENTITY)
    assert evaluate_word(Glt2Word(tuple(letters))) == expected


def flat_product(mats, form):
    """The product of the table entries of a form's syllables and tail, one
    by one: the reference that ``evaluate`` must equal."""
    side = {SIDE_A: mats.a, SIDE_B: mats.b}
    entries = [side[s][x] for s, x in form.head] + [mats.d[form.tail]]
    return functools.reduce(mat_mul, entries, IDENTITY)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(dihedral=st.booleans(), seed=st.integers(0, 2**32))
def test_evaluate_agrees_with_a_product_of_table_entries(model, dihedral, seed):
    spec, mats = (model.big.spec, model.big_mats) if dihedral else (model.big.small, model.small_mats)
    form = random_form(random.Random(seed), spec, 60)
    assert mats.evaluate(form) == flat_product(mats, form)


def edited_report(periods, n, edit):
    """The fold's report ``periods`` on a head of n syllables, as given
    ("right") or edited so that each stretch (start, p, count) is stale
    (shifted, or with the wrong period), doubled by an overlapping one,
    split in two adjacent ones, joined by stretches out of range, empty, or
    with a negative period or count."""
    if edit == "right":
        return list(periods)
    edits = {
        "stale": lambda s, p, c: [(s + i, p + 1, p * c // (p + 1) - 1) for i in (0, 1)],
        "overlapping": lambda s, p, c: [(s, p, c), (s + p, p, c - 1), (s + 1, p, 1)],
        "adjacent": lambda s, p, c: [(s, p, c // 2), (s + p * (c // 2), p, c - c // 2)],
        "out of range": lambda s, p, c: [(-p, p, c), (s, p, c + n), (n, p, 1), (s, p, c)],
        "empty": lambda s, p, c: [(s, 0, c), (s, p, 0)],
        "negative": lambda s, p, c: [(s + p * c, -p, c), (s + p * c, p, -c)],
    }
    return [stretch for s, p, c in periods for stretch in edits[edit](s, p, c)]


REPORT_EDITS = ("right", "stale", "overlapping", "adjacent", "out of range", "empty", "negative")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(name=st.sampled_from(["small", "dihedral", "nonabelian"]), seed=st.integers(0, 2**32),
       edit=st.sampled_from(REPORT_EDITS))
def test_the_run_aware_check_equals_the_flat_product(model, name, seed, edit):
    # Forms of prefix * block^k * suffix from the run fold, the suffix often
    # popping into the repeated stretch, so that the report goes stale.  The
    # nonabelian amalgam gets random matrices for its table entries: the
    # check reads only the tables, and a product of random matrices shows a
    # stretch read out of place.
    rng = random.Random(seed)
    if name == "nonabelian":
        spec = make_nonabelian_amalgam()
        mats = matgroup.SyllableMatrices(spec, *(
            tuple(evaluate_word(random_letter_word(rng, 3)) for _ in range(g.order))
            for g in (spec.a, spec.b, spec.d)), (), ())
    else:
        spec, mats = ((model.big.small, model.small_mats) if name == "small"
                      else (model.big.spec, model.big_mats))
    prefix = random_raw_word(rng, spec, rng.randint(0, 8))
    block, _ = random_run(rng, spec, prefix)
    k = rng.randint(2, 60)
    raw = prefix + block * k
    inv = {SIDE_A: spec.a.inv, SIDE_B: spec.b.inv}
    suffix = ([(s, inv[s][x]) for s, x in reversed(raw[-rng.randint(1, len(raw)):])]
              if raw and rng.random() < 0.5 else random_raw_word(rng, spec, rng.randint(0, 4)))
    form, periods = matgroup._fold_runs(spec, [(prefix, 1), (block, k), (suffix, 1)])
    assert form == reduce_word(spec, raw + suffix)
    assert mats.evaluate(form, edited_report(periods, len(form.head), edit)) == flat_product(mats, form)


def kernel_tables(model, name, rng):
    """The tables ``_table_product`` reads, by name: the letter powers, both
    realizations' sides, or random matrices for a nonabelian amalgam's sides."""
    if name == "letters":
        return matgroup.LETTERS
    if name == "nonabelian":
        spec = make_nonabelian_amalgam()
        return {side: tuple(evaluate_word(random_letter_word(rng, 3)) for _ in range(g.order))
                for side, g in ((SIDE_A, spec.a), (SIDE_B, spec.b))}
    mats = model.small_mats if name == "small" else model.big_mats
    return {SIDE_A: mats.a, SIDE_B: mats.b}


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(name=st.sampled_from(["letters", "small", "dihedral", "nonabelian"]),
       seed=st.integers(0, 2**32))
def test_the_blocked_kernel_equals_the_flat_product(model, name, seed):
    # Every key count up to three blocks and a remainder; each whole block is
    # one of two drawn per count, so that blocks repeat, or a fresh one.  The
    # keys come as a list with a drawn start, and as a generator.
    rng = random.Random(seed)
    tables = kernel_tables(model, name, rng)
    keys = [(t, i) for t in tables for i in range(len(tables[t]))]
    size = matgroup._BLOCK

    def fresh(n):
        return [rng.choice(keys) for _ in range(n)]

    for n in range(3 * size + 4):
        pool = [fresh(size), fresh(size)]
        word = [key for _ in range(n // size)
                for key in (rng.choice(pool) if rng.random() < 0.7 else fresh(size))]
        word += fresh(n % size)
        entries = [tables[t][i] for t, i in word]
        start = Mat2(*(rng.randint(-10**30, 10**30) for _ in range(4)))
        assert matgroup._table_product(tables, word, start) == functools.reduce(
            mat_mul, entries, start)
        assert matgroup._table_product(tables, (key for key in word)) == functools.reduce(
            mat_mul, entries, IDENTITY)


class CountingTables(Mapping):
    """Tables that count how often their sides are read."""

    def __init__(self, tables):
        self.tables, self.reads = tables, 0

    def __getitem__(self, side):
        self.reads += 1
        return self.tables[side]

    def __iter__(self):
        return iter(self.tables)

    def __len__(self):
        return len(self.tables)


@pytest.mark.parametrize("length, first", [(400, SIDE_A), (403, SIDE_B)])
def test_the_kernel_reads_each_distinct_block_once_per_call(model, length, first):
    # A canonical dihedral head alternates side a's one representative with
    # one of side b's two, so its blocks of 4 take at most 8 values.
    spec, mats = model.big.spec, model.big_mats
    rng = random.Random(length)
    reps = {SIDE_A: spec.trans_a[1:], SIDE_B: spec.trans_b[1:]}
    other = SIDE_B if first == SIDE_A else SIDE_A
    head = tuple((s, rng.choice(reps[s])) for s in [first, other] * (length // 2 + 1))[:length]
    assert reduce_word(spec, head) == NormalForm(head, spec.d.identity)
    size = matgroup._BLOCK
    blocks = {head[i:i + size] for i in range(0, length - length % size, size)}
    assert len(blocks) <= 8
    tables = CountingTables({SIDE_A: mats.a, SIDE_B: mats.b})
    expected = flat_product(mats, NormalForm(head, spec.d.identity))
    reads = []
    for _ in range(2):  # the second call reads as much: no table outlives a call
        tables.reads = 0
        assert matgroup._table_product(tables, head) == expected
        reads.append(tables.reads)
    assert reads[0] == reads[1] <= size * len(blocks) + length % size


def count_table_entries(monkeypatch) -> list[int]:
    """Count the table entries that ``_table_product`` multiplies."""
    entries: list[int] = []
    true = matgroup._table_product

    def counted(tables, keys, start=IDENTITY):
        keys = list(keys)
        entries.append(len(keys))
        return true(tables, keys, start)

    monkeypatch.setattr(matgroup, "_table_product", counted)
    return entries


def test_a_long_unipotents_check_multiplies_few_table_entries(monkeypatch):
    build_dihedral_model()  # built before counting: construction is not decomposition
    entries = count_table_entries(monkeypatch)
    m = Mat2(1, 10**5, 0, 1)
    form = sl2_decompose(m)
    assert len(form.head) == 2 * 10**5
    assert 0 < sum(entries) <= 64
    entries.clear()
    gl2_decompose(mat_mul(m, J))
    assert 0 < sum(entries) <= 64


def continued_fraction_matrix(quotients):
    """prod [[q, 1], [1, 0]], of determinant (-1)^len(quotients)."""
    return functools.reduce(mat_mul, [Mat2(q, 1, 1, 0) for q in quotients], IDENTITY)


# Long decompositions: a determinant -1 matrix with entries of over 100
# digits, and a unipotent whose form has 1000 syllables.
LONG_MATRICES = (continued_fraction_matrix([1, 2, 3] * 100 + [1]), Mat2(1, 500, 0, 1))


def swapped(spec, form, i):
    """``form`` with the b syllable at or after position i swapped for another
    non-identity representative of side b: still a normal form."""
    head = list(form.head)
    i += head[i][0] != SIDE_B
    head[i] = (SIDE_B, next(r for r in spec.trans_b[1:] if r != head[i][1]))
    return NormalForm(tuple(head), form.tail)


def corrupted(spec, form, what):
    """``form`` with its tail changed, or with its middle b syllable swapped:
    still a normal form, of another element."""
    if what == "tail":
        return NormalForm(form.head, (form.tail + 1) % spec.d.order)
    return swapped(spec, form, len(form.head) // 2)


def _decomposable_matrices():
    """Matrices of determinant +-1: letter words over s, u, j; unipotents
    [[1, n], [0, 1]] and [[1, 0], [n, 1]], times J or not; continued fractions."""
    words = st.lists(st.tuples(st.sampled_from("suj"), st.integers(-12, 12).filter(bool)),
                     max_size=30)
    unipotents = st.builds(
        lambda n, upper, eps: mat_mul(Mat2(1, n, 0, 1) if upper else Mat2(1, 0, n, 1),
                                      mat_pow(J, eps)),
        st.integers(-400, 400), st.booleans(), st.integers(0, 1))
    return st.one_of(
        words.map(lambda letters: evaluate_word(Glt2Word(tuple(letters)))),
        unipotents,
        st.lists(st.integers(1, 60), min_size=1, max_size=40).map(continued_fraction_matrix),
    )


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_decomposable_matrices())
def test_gl2_decompose_equals_phi_of_the_sl2_form(model, m):
    # The iso map is the oracle: one reduction in the dihedral amalgam gives
    # phi(w, eps) = nu(w) * tau(eps) of the SL2 form w, exactly.
    m1, eps = gl2_split(m)
    assert gl2_decompose(m).form == phi(model.big, sl2_decompose(m1), eps)


def test_unipotents_reduce_as_their_expanded_euclid_words(model):
    # The Euclid word as letter powers with each run written out: the flat
    # word whose reduction the run fold must reproduce.
    def expanded_letters(m):
        keys = [("s", 1), ("s", 2), ("s", 3), ("u", 1), ("u", 5)]
        runs = matgroup._euclid_runs(m, dict(zip(keys, keys)))
        return [letter for block, k in runs for letter in list(block) * k]

    syllables = dict(model.small_mats.syllables)
    for n in range(-300, 301):
        for m in (Mat2(1, n, 0, 1), Mat2(1, 0, n, 1)):
            letters = expanded_letters(m)
            small = [syllables[name, k % len(matgroup.LETTERS[name])] for name, k in letters]
            assert sl2_decompose(m) == reduce_word(model.big.small, small)
            assert gl2_decompose(m) == word_to_form(Glt2Word(tuple(letters)))
            with_j = Glt2Word(tuple(letters) + (("j", 1),))
            assert gl2_decompose(mat_mul(m, J)) == word_to_form(with_j)


class KeyLog(dict):
    """A dict that records every key read with ``[]``."""

    def __init__(self, items):
        super().__init__(items)
        self.asked = set()

    def __getitem__(self, key):
        self.asked.add(key)
        return super().__getitem__(key)


def test_the_euclid_word_asks_only_for_one_letter_powers_the_table_holds(model):
    rng = random.Random(27)
    seeded = [gl2_split(evaluate_word(random_letter_word(rng, 40)))[0] for _ in range(200)]
    unipotents = [m for n in range(-300, 301) for m in (Mat2(1, n, 0, 1), Mat2(1, 0, n, 1))]
    for mats in (model.small_mats, model.big_mats):
        syllables = KeyLog(mats.syllables)
        for m in unipotents + seeded:
            matgroup._euclid_runs(m, syllables)
        assert syllables.asked
        words = {word for _, ws in mats.words for word in ws}
        for name, k in syllables.asked:
            assert ((name, k),) in words
            assert 1 <= k < len(matgroup.LETTERS[name])


@pytest.mark.parametrize("what", ["syllable", "tail"])
@pytest.mark.parametrize("m", LONG_MATRICES, ids=["cfrac", "unipotent"])
def test_the_check_catches_a_wrong_form_deep_in_a_long_decomposition(model, monkeypatch, m, what):
    if mat_det(m) == -1:
        assert min(map(abs, m)) >= 10**99  # every entry has 100 digits or more
    # Each decomposition's form comes from its one _fold_runs call, returned
    # corrupted with the fold's true report of its repeated stretches.
    for decompose, spec, name in (
        (gl2_decompose, model.big.spec, "_fold_runs"),
        (sl2_decompose, model.big.small, "_fold_runs"),
    ):
        true = getattr(matgroup, name)
        wrong_forms = []

        def wrong(*args):
            form, periods = true(*args)
            wrong_forms.append(corrupted(spec, form, what))
            assert len(form.head) >= 200 and wrong_forms[-1] != form
            assert reduce_word(spec, to_word(spec, wrong_forms[-1])) == wrong_forms[-1]
            return wrong_forms[-1], periods

        target = m if decompose is gl2_decompose else gl2_split(m)[0]
        monkeypatch.setattr(matgroup, name, wrong)
        with pytest.raises(RuntimeError, match="failed its evaluation check"):
            decompose(target)
        assert len(wrong_forms) == 1
        monkeypatch.setattr(matgroup, name, true)
        decompose(target)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_the_check_catches_a_wrong_syllable_in_a_repeated_stretch(model, monkeypatch, where):
    # The fold's true report comes with a form corrupted inside the stretch
    # it names: the comparison guard must refuse the stretch.
    m = Mat2(1, 0, -500, 1)
    for decompose, spec in ((gl2_decompose, model.big.spec), (sl2_decompose, model.big.small)):
        true = matgroup._fold_runs

        def wrong(*args):
            form, periods = true(*args)
            ((start, p, count),) = periods
            assert count >= 100
            period = {"first": 0, "middle": count // 2, "last": count - 1}[where]
            return swapped(spec, form, start + p * period), periods

        monkeypatch.setattr(matgroup, "_fold_runs", wrong)
        with pytest.raises(RuntimeError, match="failed its evaluation check"):
            decompose(m)
        monkeypatch.setattr(matgroup, "_fold_runs", true)
        decompose(m)
