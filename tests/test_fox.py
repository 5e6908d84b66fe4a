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
)

XY = Alphabet(["x", "y"])
X, Y = 1, 2


def elem(terms):
    return FreeRingElement(XY, terms)


def test_derivative_of_generator_is_one():
    assert fox_derivative(Word(XY, [X]), "x") == FreeRingElement.one(XY)


def test_derivative_of_inverse_generator():
    # From x * x^-1 = 1 the derivation identity forces d(x^-1)/dx = -x^-1.
    xinv = Word(XY, [-X])
    assert fox_derivative(xinv, "x") == elem({xinv: -1})


def test_derivative_of_commutator():
    word = Word(XY, [X, Y, -X, -Y])
    expected = elem({XY.identity(): 1, Word(XY, [X, Y, -X]): -1})
    assert fox_derivative(word, "x") == expected


def test_derivative_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        fox_derivative(Word(XY, [X]), "q")


def test_total_derivative_of_xy():
    dx, dy = total_derivative(Word(XY, [X, Y]))
    assert dx == FreeRingElement.one(XY)
    assert dy == elem({Word(XY, [X]): 1})


def test_total_derivative_of_identity_is_zero():
    for deriv in total_derivative(XY.identity()):
        assert deriv.is_zero


def test_total_derivative_of_power():
    n = 5
    dx, dy = total_derivative(Word(XY, [X]) ** n)
    x = Word(XY, [X])
    assert dx == elem({x**k: 1 for k in range(n)})
    assert dy.is_zero


def test_total_derivative_matches_componentwise():
    rng = random.Random(3)
    for _ in range(100):
        word = random_word(rng, XY, rng.randint(0, 30))
        table = total_derivative(word)
        for gen, deriv in zip(XY, table):
            assert deriv == fox_derivative(word, gen)


def test_augment_examples():
    word = Word(XY, [X, Y, -X])
    assert elem({XY.identity(): 1, word: -1}).augmentation() == 0
    x = Word(XY, [X])
    assert elem({XY.identity(): 1, x: 1, x * x: 1}).augmentation() == 3


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
            left = fox_derivative(a * b, gen)
            right = fox_derivative(a, gen) + FreeRingElement.from_word(a) * fox_derivative(b, gen)
            assert left == right


def test_inverse_law():
    rng = random.Random(15)
    for _ in range(150):
        word = random_word(rng, XY, rng.randint(0, 24))
        for gen in XY:
            left = fox_derivative(word.inverse(), gen)
            right = -(FreeRingElement.from_word(word.inverse()) * fox_derivative(word, gen))
            assert left == right


def test_fundamental_identity_on_examples():
    assert fundamental_identity_check(Word(XY, [X]))
    assert fundamental_identity_check(Word(XY, [X, Y, -X, -Y]))
    assert fundamental_identity_check(XY.identity())


def test_fundamental_identity_random():
    rng = random.Random(21)
    for _ in range(200):
        assert fundamental_identity_check(random_word(rng, XY, rng.randint(0, 48)))


def test_ring_arithmetic_sanity():
    x = Word(XY, [X])
    y = Word(XY, [Y])
    a = elem({x: 1, XY.identity(): 2})
    b = elem({y: 3, x: -1})
    assert a + b == elem({x: 0, y: 3, XY.identity(): 2}) + elem({x: 0})  # zero terms dropped
    assert (a - a).is_zero
    product = a * b
    assert product == elem({x * y: 3, x * x: -1, y: 6, x: -2})
    assert 2 * a == a * 2 == elem({x: 2, XY.identity(): 4})


def test_string_rendering_is_canonical():
    x = Word(XY, [X])
    assert str(FreeRingElement.zero(XY)) == "0"
    assert str(elem({XY.identity(): 1, Word(XY, [X, Y, -X]): -1})) == "1 - x*y*x^-1"
    assert str(elem({x: 3, x * x: 1})) == "3*x + x^2"
    assert str(elem({x: -1})) == "-x"


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


@given(reduced_words())
def test_total_derivative_matches_definition(w):
    derivs = total_derivative(w)
    assert len(derivs) == len(w.alphabet)
    for deriv, ref in zip(derivs, fox_by_definition(w)):
        assert deriv == ref and ref == deriv
        assert len(deriv.terms) == len(ref.terms)
        assert sorted(deriv.terms.values()) == sorted(ref.terms.values())
        assert dict(deriv.terms.items()) == ref.terms
        assert len(deriv.terms.items()) == len(ref.terms)
        assert deriv.sorted_terms() == ref.sorted_terms()
        assert str(deriv) == str(ref)
        for word, coeff in ref.terms.items():
            assert word in deriv.terms
            assert deriv.terms[word] == coeff
            assert deriv.terms.get(word) == coeff
        for word in probe_words(w):
            assert (word in deriv.terms) == (word in ref.terms)
            assert deriv.terms.get(word) == ref.terms.get(word)


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


@given(reduced_words(max_size=10), st.data())
def test_derivative_ring_arithmetic_matches_definition(w, data):
    v = Word(w.alphabet, data.draw(st.lists(st.sampled_from(w.code or (1,)), max_size=10)))
    pairs = zip(total_derivative(w), total_derivative(v), fox_by_definition(w), fox_by_definition(v))
    for dw, dv, rw, rv in pairs:
        assert dw + dv == rw + rv == dw + rv == rw + dv
        assert dw - dv == rw - rv == dw - rv == rw - dv
        assert dw * dv == rw * rv == dw * rv == rw * dv
        assert -dw == -rw
        assert 3 * dw == dw * 3 == 3 * rw
        assert (dw - dw).is_zero
        assert dw.augmentation() == rw.augmentation()


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
