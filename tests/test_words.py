import pytest
from hypothesis import given, strategies as st

from perifold.words import (
    MAX_WORD_LETTERS,
    ParseError,
    Presentation,
    Word,
    WordError,
    cyclic_reduce,
    cyclically_conjugate,
    free_reduce,
    generator_occurrences,
    inverse,
    is_cyclically_reduced,
    parse_presentation,
    parse_word,
    period_exponent,
    power,
    render_word,
)

from reference import word

letters = st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0)
words = st.lists(letters, max_size=12).map(lambda ls: Word(tuple(ls)))
cyc_words = words.map(cyclic_reduce).filter(lambda w: len(w) > 0)


def test_parse_power_expansion():
    p = parse_presentation("gens a b / rel (a b)^3")
    assert p.relators[0].letters == (1, 2, 1, 2, 1, 2)


def test_parse_free_reduction():
    p = parse_presentation("gens a / rel a a^-1 a")
    assert p.relators[0].letters == (1,)


def test_parse_cyclic_reduction_warns():
    p = parse_presentation("gens a b / rel b a b^-1")
    assert p.relators[0].letters == (1,)
    assert p.warnings


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_presentation("gens a / rel a b")  # unknown generator
    with pytest.raises(ParseError):
        parse_presentation("gens a / rel a a^-1")  # empty after reduction
    with pytest.raises(ParseError):
        parse_presentation("rel a")  # rel before gens
    with pytest.raises(ParseError):
        parse_presentation("gens a / rel ( a")  # unbalanced paren
    with pytest.raises(ParseError) as err:
        parse_presentation("gens a\ngens b")
    assert err.value.line == 2


def test_parse_empty_exponent():
    # a caret with no exponent after a generator or a group
    for text, column in (("a^", 1), ("( a )^", 6), ("b (a)^", 6)):
        with pytest.raises(ParseError, match="bad exponent ''") as err:
            parse_word(text, ("a", "b"), line=3)
        assert (err.value.line, err.value.column) == (3, column)


def test_parse_negative_powers_and_nesting():
    w = parse_word("( a b^-1 )^-2", ("a", "b"))
    assert w.letters == (2, -1, 2, -1)


def test_parse_power_bound(bounded_power):
    with pytest.raises(ParseError, match="longer than") as err:
        parse_word("a a^1000000000000", ("a",), line=3)
    assert (err.value.line, err.value.column) == (3, 3)
    with pytest.raises(ParseError, match="longer than") as err:
        parse_word("((a)^100000)^100000", ("a",))
    assert err.value.column == 13  # the outer exponent
    assert len(parse_word("(a b)^500000", ("a", "b"))) == MAX_WORD_LETTERS
    with pytest.raises(ParseError, match="longer than"):
        parse_word("(a b)^500000 a", ("a", "b"))
    bounded_power[0] = 0
    with pytest.raises(ParseError, match="longer than"):  # groups see what encloses them
        parse_word("a^999999 (" * 5 + "a" + ")" * 5, ("a",))
    assert bounded_power[0] == 999999


def test_parse_deep_nesting(bounded_power):
    depth = 3000
    assert parse_word("(" * depth + "a b" + ")" * depth, ("a", "b")).letters == (1, 2)
    with pytest.raises(ParseError, match="missing"):
        parse_word("(" * depth + "a", ("a",))
    with pytest.raises(ParseError, match="unbalanced") as err:
        parse_word("(" * depth + "a" + ")" * (depth + 1), ("a",))
    assert err.value.column == 2 * depth + 2
    # doubling at every level passes the bound at level 20, before expanding
    bounded_power[0] = 0
    with pytest.raises(ParseError, match="longer than") as err:
        parse_word("(" * depth + "a" + ")^2" * depth, ("a",))
    assert err.value.column == depth + 2 + 3 * 19 + 1
    assert bounded_power[0] == 2 ** 20 - 1  # 'a', then levels 1 to 19


def test_free_reduce_examples():
    assert free_reduce(word([1, -1, 2])).letters == (2,)
    assert free_reduce(word([])).letters == ()
    assert free_reduce(word([1, 2, -2, -1])).letters == ()


def test_cyclic_reduce_examples():
    assert cyclic_reduce(word([2, 1, -2])).letters == (1,)
    assert cyclic_reduce(word([1, 2])).letters == (1, 2)
    assert cyclic_reduce(word([-1, 2, 1])).letters == (2,)


def test_period_exponent_examples():
    assert period_exponent(word([1, 1, 2, 1, 1, 2])) == (word([1, 1, 2]), 2)
    assert period_exponent(word([1, 2])) == (word([1, 2]), 1)
    assert period_exponent(word([1, 1, 1])) == (word([1]), 3)
    with pytest.raises(ValueError):
        period_exponent(word([]))


def test_cyclically_conjugate_examples():
    assert cyclically_conjugate(word([1, 2]), word([2, 1]))
    assert cyclically_conjugate(word([1, 2]), word([-2, -1]))
    assert not cyclically_conjugate(word([1, 2]), word([1, -2]))


def test_generator_occurrences():
    p = parse_presentation("gens a b / rel a b a b a b")
    assert generator_occurrences(p) == {"a": 3, "b": 3}
    p2 = Presentation(("a", "b"), ())
    assert generator_occurrences(p2) == {"a": 0, "b": 0}
    p3 = parse_presentation("gens a b c / rel a b c / rel c^-1 b")
    assert generator_occurrences(p3) == {"a": 1, "b": 2, "c": 2}


@given(words)
def test_free_reduce_idempotent_and_nonincreasing(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert len(r) <= len(w)


@given(cyc_words, st.integers(min_value=1, max_value=4))
def test_period_exponent_reconstructs(base, k):
    w = power(base, k)
    if not is_cyclically_reduced(w):
        return
    period, exponent = period_exponent(w)
    assert power(period, exponent) == w
    # maximality against a brute divisor check
    m = len(w)
    brute = max(
        m // p
        for p in range(1, m + 1)
        if m % p == 0 and w.letters == w.letters[:p] * (m // p)
    )
    assert exponent == brute


@given(cyc_words, cyc_words, cyc_words)
def test_cyclic_conjugacy_equivalence(u, v, z):
    u, v, z = cyclic_reduce(u), cyclic_reduce(v), cyclic_reduce(z)
    assert cyclically_conjugate(u, u)
    assert cyclically_conjugate(u, v) == cyclically_conjugate(v, u)
    if cyclically_conjugate(u, v) and cyclically_conjugate(v, z):
        assert cyclically_conjugate(u, z)


@given(words)
def test_inverse_involution(w):
    assert inverse(inverse(w)) == w
    assert free_reduce(Word(w.letters + inverse(w).letters)).letters == ()


def test_render_round_trip():
    p = parse_presentation("gens a b / rel ( a a b )^3")
    text = render_word(p.relators[0], p.generators)
    assert parse_word(text, p.generators) == p.relators[0]
    assert render_word(word([1, 1, -2, -2, 1]), ("a", "b")) == "a^2 b^-2 a"


REFUSED = {
    "zero-letter": (lambda: Word((0,)), "letters must be nonzero"),
    "repeated-name": (lambda: Presentation(("a", "a"), ()), "generator names must be distinct"),
    "bad-name": (lambda: Presentation(("a b",), ()), "invalid generator name 'a b'"),
    "empty-relator": (lambda: Presentation(("a",), (Word(()),)), "empty relator"),
    "unreduced-relator": (lambda: Presentation(("a", "b"), (Word((1, 2, -1)),)),
                          "relators must be cyclically reduced"),
    "unknown-generator": (lambda: Presentation(("a",), (Word((2,)),)),
                          "relator uses unknown generator"),
}


@pytest.mark.parametrize("build, message", REFUSED.values(), ids=list(REFUSED))
def test_hostile_words_are_refused(build, message):
    with pytest.raises(WordError) as refused:
        build()
    assert refused.type is WordError and str(refused.value) == message


def test_words_iterate_and_empty_words_are_conjugate():
    assert list(Word((1, -2, 2))) == [1, -2, 2]
    assert cyclically_conjugate(Word(()), Word(()))
    assert not cyclically_conjugate(Word(()), Word((1,)))
