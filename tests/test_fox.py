import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bredonkit import Alphabet, FreeRingElement, Word, total_derivative
from bredonkit.errors import UnknownGeneratorError

from helpers import (
    exponent_sum,
    fox_by_definition,
    fox_derivative,
    fundamental_identity_check,
    random_word,
    zf_add,
    zf_mul,
)

XY = Alphabet(["x", "y"])
X, Y = 1, 2
ONE = XY.identity()


def test_derivative_of_generator_is_one():
    assert fox_derivative(Word(XY, [X]), "x").terms == {ONE: 1}


def test_derivative_of_inverse_generator():
    # From x * x^-1 = 1 the derivation identity forces d(x^-1)/dx = -x^-1.
    xinv = Word(XY, [-X])
    assert fox_derivative(xinv, "x").terms == {xinv: -1}


def test_derivative_of_commutator():
    word = Word(XY, [X, Y, -X, -Y])
    assert fox_derivative(word, "x").terms == {ONE: 1, Word(XY, [X, Y, -X]): -1}


def test_derivative_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        fox_derivative(Word(XY, [X]), "q")


def test_total_derivative_of_xy():
    dx, dy = total_derivative(Word(XY, [X, Y]))
    assert dx.terms == {ONE: 1}
    assert dy.terms == {Word(XY, [X]): 1}


def test_total_derivative_of_identity_is_zero():
    for deriv in total_derivative(ONE):
        assert deriv.is_zero


def test_total_derivative_of_power():
    n = 5
    dx, dy = total_derivative(Word(XY, [X]) ** n)
    x = Word(XY, [X])
    assert dx.terms == {x**k: 1 for k in range(n)}
    assert dy.is_zero


def test_total_derivative_matches_componentwise():
    rng = random.Random(3)
    for _ in range(100):
        word = random_word(rng, XY, rng.randint(0, 30))
        table = total_derivative(word)
        for gen, deriv in zip(XY, table):
            assert deriv == fox_derivative(word, gen)


def test_derivatives_are_values_without_ring_arithmetic():
    dx, dy = total_derivative(Word(XY, [X, Y]))
    assert dx == total_derivative(Word(XY, [X, Y]))[0] and dx != dy
    for op in ("__add__", "__sub__", "__mul__", "__neg__"):
        assert not hasattr(dx, op)
    with pytest.raises(TypeError):
        FreeRingElement(XY, {ONE: 1})


def test_augment_examples():
    x = Word(XY, [X])
    assert fox_derivative(Word(XY, [X, Y, -X]), "x").augmentation() == 0
    assert fox_derivative(x**3, "x").augmentation() == 3
    assert fox_derivative(x**-3, "x").augmentation() == -3


def test_augmented_derivative_is_exponent_sum():
    rng = random.Random(5)
    for _ in range(200):
        word = random_word(rng, XY, rng.randint(0, 40))
        for gen in XY:
            assert fox_derivative(word, gen).augmentation() == exponent_sum(word, gen)


def test_derivation_law():
    rng = random.Random(9)
    for _ in range(150):
        a = random_word(rng, XY, rng.randint(0, 24))
        b = random_word(rng, XY, rng.randint(0, 24))
        for gen in XY:
            left = fox_derivative(a * b, gen).terms
            da, db = fox_derivative(a, gen).terms, fox_derivative(b, gen).terms
            assert left == zf_add(da, zf_mul({a: 1}, db))


def test_inverse_law():
    rng = random.Random(15)
    for _ in range(150):
        word = random_word(rng, XY, rng.randint(0, 24))
        for gen in XY:
            left = fox_derivative(word.inverse(), gen).terms
            right = zf_mul({word.inverse(): -1}, fox_derivative(word, gen).terms)
            assert left == right


def test_fundamental_identity_on_examples():
    assert fundamental_identity_check(Word(XY, [X]))
    assert fundamental_identity_check(Word(XY, [X, Y, -X, -Y]))
    assert fundamental_identity_check(ONE)


def test_fundamental_identity_random():
    rng = random.Random(21)
    for _ in range(200):
        assert fundamental_identity_check(random_word(rng, XY, rng.randint(0, 48)))


def test_zf_helpers():
    x, y = Word(XY, [X]), Word(XY, [Y])
    a = {x: 1, ONE: 2}
    b = {y: 3, x: -1}
    assert zf_add(a, b) == {y: 3, ONE: 2}
    assert zf_add(a, zf_mul({ONE: -1}, a)) == {}
    assert zf_mul(a, b) == {x * y: 3, x * x: -1, y: 6, x: -2}
    assert zf_mul({x: 1}, {x.inverse(): 1}) == {ONE: 1}


def test_string_rendering_is_canonical():
    x = Word(XY, [X])
    assert str(total_derivative(ONE)[0]) == "0"
    assert str(fox_derivative(Word(XY, [X, Y, -X, -Y]), "x")) == "1 - x*y*x^-1"
    assert str(fox_derivative(x**3, "x")) == "1 + x + x^2"
    assert str(fox_derivative(x.inverse(), "x")) == "-x^-1"
    assert str(fox_derivative(Word(XY, [Y, -X, Y]), "y")) == "1 + y*x^-1"


# -- derivatives stored by prefix length, against a dict-backed reference -------


@st.composite
def reduced_words(draw, max_size=24):
    """A reduced word over 1-5 generators; the identity and single letters included."""
    n = draw(st.integers(1, 5))
    alphabet = Alphabet([f"g{i}" for i in range(n)])
    letters = st.sampled_from([s for i in range(1, n + 1) for s in (i, -i)])
    return Word(alphabet, draw(st.lists(letters, max_size=max_size)))


def probe_words(w):
    """Every prefix of w, and each prefix followed by each letter."""
    alphabet = w.alphabet
    out = []
    for n in range(len(w) + 1):
        out.append(Word(alphabet, w.code[:n]))
        for i in range(1, len(alphabet) + 1):
            out.append(Word(alphabet, w.code[:n] + (i,)))
            out.append(Word(alphabet, w.code[:n] + (-i,)))
    return out


def letterwise_key(item):
    """Words length-first, then letter by letter, x before x^-1 before y."""
    code = item[0].code
    return len(code), [(abs(s), s < 0) for s in code]


def text_by_definition(terms) -> str:
    """A derivative's text from its terms in letterwise order."""
    chunks = []
    for word, coeff in sorted(terms.items(), key=letterwise_key):
        if chunks:
            chunks.append(f"+ {word}" if coeff > 0 else f"- {word}")
        else:
            chunks.append(f"{word}" if coeff > 0 else f"-{word}")
    return " ".join(chunks) or "0"


@given(reduced_words())
def test_total_derivative_matches_definition(w):
    derivs = total_derivative(w)
    assert len(derivs) == len(w.alphabet)
    for deriv, ref in zip(derivs, fox_by_definition(w)):
        assert deriv.terms == ref and ref == deriv.terms
        assert set(ref.values()) <= {1, -1}
        assert len(deriv.terms) == len(ref)
        assert sorted(deriv.terms.values()) == sorted(ref.values())
        assert dict(deriv.terms.items()) == ref
        assert len(deriv.terms.items()) == len(ref)
        assert deriv.augmentation() == sum(ref.values())
        # Ordering by length alone is the letterwise order: no two prefixes
        # of one word share a length.
        assert deriv.sorted_terms() == sorted(ref.items(), key=letterwise_key)
        assert str(deriv) == text_by_definition(ref)
        for word, coeff in ref.items():
            assert word in deriv.terms
            assert deriv.terms[word] == coeff
            assert deriv.terms.get(word) == coeff
        for word in probe_words(w):
            assert (word in deriv.terms) == (word in ref)
            assert deriv.terms.get(word) == ref.get(word)


@given(reduced_words())
def test_derivative_terms_reject_foreign_keys(w):
    other = Alphabet([f"h{i}" for i in range(len(w.alphabet))])
    for deriv in total_derivative(w):
        for word in list(deriv.terms):
            assert deriv.terms.get(Word(other, word.code)) is None
            assert Word(other, word.code) not in deriv.terms
            assert deriv.terms.get(word.code) is None
            assert str(word) not in deriv.terms
            with pytest.raises(KeyError):
                deriv.terms[word.code]
        assert deriv.terms.get(None, "absent") == "absent"


def test_total_derivative_scales_linearly_in_memory():
    # A reduced 100k-letter word: the terms alone, as prefix words, would
    # hold about 5 * 10^9 letters.
    rng = random.Random(17)
    alphabet = Alphabet(["x", "y", "z"])
    code = [1]
    while len(code) < 100_000:
        s = rng.choice((1, -1, 2, -2, 3, -3))
        if s != -code[-1]:
            code.append(s)
    word = Word(alphabet, code)
    assert len(word) == 100_000
    tracemalloc.start()
    try:
        derivs = total_derivative(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert sum(len(d.terms) for d in derivs) == len(word)
    last = code[-1]
    prefix = Word(alphabet, code if last < 0 else code[:-1])
    assert derivs[abs(last) - 1].terms[prefix] == (1 if last > 0 else -1)


def test_sorted_terms_hold_no_per_letter_keys():
    # (x*y)^706 is 1412 letters, just under the budget of the `fox` verb.
    # The terms are prefixes of total length about 10^6 letters; ordering
    # them by prefix length adds nothing letter by letter.
    derivs = total_derivative(Word(XY, [X, Y]) ** 706)
    tracemalloc.start()
    try:
        for deriv in derivs:
            terms = deriv.sorted_terms()
            assert [len(word) for word, _ in terms] == sorted(len(word) for word in deriv.terms)
            del terms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
