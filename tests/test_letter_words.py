"""Words over the letters s, u, j and over amalgam syllables: where the
parsers report malformed input, that parsing raises nothing but
``ParseError``, and that rendered forms are canonical words."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalg import (
    DihedralAmalgamForm,
    Glt2Word,
    enumerate_forms,
    evaluate_word,
    form_to_letters,
    small_form_to_letters,
)
from amalg.cli import ParseError, parse_amalgam_word, parse_letter_word, parse_matrix, run

ORDER = {"s": 4, "u": 6, "j": 2}

MALFORMED_LETTER_WORDS = [
    ("q", 0, "unknown letter 'q'"),
    ("S", 0, "unknown letter 'S'"),
    ("s * q", 4, "unknown letter 'q'"),
    ("* s", 0, "unknown letter '*'"),
    ("s ** u", 3, "unknown letter '*'"),
    ("s *", 3, "expected a term after '*'"),
    ("s*", 2, "expected a term after '*'"),
    ("s u", 2, "expected '*', found 'u'"),
    ("s^2^3", 3, "expected '*', found '^'"),
    ("s^1 0", 4, "expected '*', found '0'"),
    ("s^", 2, "expected an integer"),
    ("s^-", 2, "expected an integer"),
    ("s^x", 2, "expected an integer"),
    ("s^ -x", 3, "expected an integer"),
    ("s^0", 2, "zero exponent"),
    ("j^-0", 2, "zero exponent"),
    ("u * s^ 0", 6, "zero exponent"),
]

MALFORMED_AMALGAM_WORDS = [
    ("c:1", 0, "unknown side 'c'"),
    ("a:1 * * b:1", 6, "unknown side '*'"),
    ("a1", 1, "expected ':', found '1'"),
    ("a", 1, "expected ':', found end of input"),
    ("a:", 2, "expected an integer"),
    ("a:x", 2, "expected an integer"),
    ("a:9", 2, "element index 9 out of range for side a"),
    ("a:-1", 2, "element index -1 out of range for side a"),
    ("b:6", 2, "element index 6 out of range for side b"),
    ("a:1^0", 4, "zero exponent"),
    ("a:1^", 4, "expected an integer"),
    ("a:1 *", 5, "expected a term after '*'"),
    ("a:1 b:2", 4, "expected '*', found 'b'"),
]


def assert_parse_error(parse, text, offset, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset
    assert str(err.value) == f"parse error at offset {offset}: {message}"


@pytest.mark.parametrize("text, offset, message", MALFORMED_LETTER_WORDS)
def test_malformed_letter_word_reports_offset_and_message(text, offset, message):
    assert_parse_error(parse_letter_word, text, offset, message)


@pytest.mark.parametrize("text, offset, message", MALFORMED_AMALGAM_WORDS)
def test_malformed_amalgam_word_reports_offset_and_message(
    small_spec, text, offset, message
):
    assert_parse_error(lambda t: parse_amalgam_word(t, small_spec), text, offset, message)


def parsers(spec):
    return {
        "letter": parse_letter_word,
        "amalgam": lambda text: parse_amalgam_word(text, spec),
        "matrix": parse_matrix,
    }


@pytest.mark.parametrize("grammar, text, offset", [
    ("letter", "s^²", 2),
    ("letter", "u^1²", 3),
    ("letter", "s^-٣", 3),
    ("amalgam", "a:²", 2),
    ("matrix", "[[1,0],[0,¹]]", 10),
])
def test_only_ascii_digits_make_an_integer(small_spec, grammar, text, offset):
    with pytest.raises(ParseError) as err:
        parsers(small_spec)[grammar](text)
    assert err.value.offset == offset


def test_cli_reports_a_non_ascii_digit_with_its_offset(capsys):
    assert run(["gl2", "eval", "s^²"]) == 2
    assert capsys.readouterr().err.startswith("parse error at offset 2: ")


# Inputs shaped like each grammar, with integers that may hold the digits
# and spaces str.isdigit and str.isspace accept beyond ASCII.
INTEGERS = st.text(alphabet="-0123456789 ²٣\u2003", max_size=4)
TERMS = st.tuples(
    st.sampled_from(["s", "u", "j", "q", "a:", "b:", "c:", ""]),
    INTEGERS,
    st.sampled_from(["", "^"]),
    INTEGERS,
).map("".join)
WORDS = st.lists(TERMS, max_size=4).map(" * ".join)
MATRICES = st.lists(INTEGERS, min_size=4, max_size=4).map(
    lambda e: "[[{},{}],[{},{}]]".format(*e)
)
TEXTS = st.one_of(WORDS, MATRICES, st.text(max_size=16))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(TEXTS)
def test_parsers_raise_only_parse_errors_within_the_text(small_spec, text):
    for parse in parsers(small_spec).values():
        try:
            parse(text)
        except ParseError as err:
            assert 0 <= err.offset <= len(text)


@pytest.mark.parametrize("dihedral", [False, True], ids=["small", "dihedral"])
def test_rendered_forms_are_canonical_words(model, dihedral):
    spec = model.big.spec if dihedral else model.big.small
    for form in enumerate_forms(spec, 6):
        if dihedral:
            form = DihedralAmalgamForm(form)
            word = form_to_letters(form).letters
        else:
            word = small_form_to_letters(form).letters
        for letter, k in word:
            assert 1 <= k < ORDER[letter], (form, word)
        for (left, _), (right, _) in zip(word, word[1:]):
            assert left != right, (form, word)
        assert evaluate_word(Glt2Word(word)) == evaluate_word(form)
