import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bredonkit import Alphabet, Word, X1Letter, are_conjugate
from bredonkit.errors import (
    AlphabetMismatchError,
    DuplicateGeneratorError,
    RootOfIdentityError,
    UnknownGeneratorError,
)
from bredonkit.free_group import _conjugacy_key, _cyclic_span, _least_rotation

from helpers import (
    cyclic_core,
    exponent_sum,
    naive_random_order_reduce,
    power_by_multiplication,
    random_word,
    root_by_divisor_search,
    rotation_by_slices,
    substitute_by_multiplication,
    time_limit,
)

XY = Alphabet(["x", "y"])
XYZ = Alphabet(["x", "y", "z"])


def w(text_codes):
    return Word(XYZ, text_codes)


X, Y, Z = 1, 2, 3


def test_multiply_inverse_cancellation():
    assert w([X]) * w([-X]) == XYZ.identity()


def test_multiply_single_cancellation():
    assert w([X, Y]) * w([-Y, Z]) == w([X, Z])


def test_multiply_multi_step():
    # (x y x^-1) * (x y^-1) frees down to x
    assert w([X, Y, -X]) * w([X, -Y]) == w([X])


def test_multiply_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        Word(XY, [1]) * Word(XYZ, [1])


def test_invert_reverse_and_flip():
    assert w([X, Y, -Z]).inverse() == w([Z, -Y, -X])


def test_invert_identity():
    assert XYZ.identity().inverse() == XYZ.identity()


def test_invert_is_involution_and_inverse_law():
    rng = random.Random(7)
    for _ in range(200):
        word = random_word(rng, XYZ, rng.randint(0, 64))
        assert word.inverse().inverse() == word
        assert word * word.inverse() == XYZ.identity()


def test_free_reduction_is_confluent():
    rng = random.Random(11)
    for _ in range(300):
        raw = []
        for _ in range(rng.randint(0, 40)):
            idx = rng.randrange(3) + 1
            raw.append(idx if rng.random() < 0.5 else -idx)
        stack_reduced = Word(XYZ, raw).code
        assert naive_random_order_reduce(rng, raw) == stack_reduced


def test_cyclic_reduce_single_conjugator():
    assert _cyclic_span(w([X, Y, -X]).code) == (1, 2)


def test_cyclic_reduce_already_reduced():
    assert _cyclic_span(w([X, Y]).code) == (0, 2)


def test_cyclic_reduce_peels_matching_ends():
    assert _cyclic_span(w([X, Y, Z, -Y, -X]).code) == (2, 3)


def test_cyclic_reduce_reconstructs_and_is_idempotent():
    rng = random.Random(13)
    for _ in range(200):
        word = random_word(rng, XYZ, rng.randint(0, 30))
        _, j = _cyclic_span(word.code)
        u, core = cyclic_core(word)
        assert u * core * u.inverse() == word
        assert word.code[j:] == u.inverse().code
        code = core.code
        assert len(code) < 2 or code[0] != -code[-1]  # cyclically reduced
        assert _cyclic_span(code) == (0, len(code))


def test_root_visible_power():
    cube = w([X, Y]) ** 3
    root, log = cube.root()
    assert root == w([X, Y]) and log == 3


def test_root_single_letter():
    root, log = w([X]).root()
    assert root == w([X]) and log == 1


def test_root_conjugated_square():
    # y x x y^-1 = (y x y^-1)^2
    root, log = w([Y, X, X, -Y]).root()
    assert root == w([Y, X, -Y]) and log == 2


def test_root_of_identity_is_an_error():
    with pytest.raises(RootOfIdentityError):
        XYZ.identity().root()


def test_root_matches_divisor_search_oracle():
    rng = random.Random(17)
    for _ in range(300):
        word = random_word(rng, XYZ, rng.randint(1, 40))
        if word.is_identity:
            continue
        root, log = word.root()
        oracle_root, oracle_log = root_by_divisor_search(word)
        assert (root, log) == (oracle_root, oracle_log)
        assert root**log == word
        # the root itself is not a proper power
        assert root.root().log == 1


@st.composite
def conjugated_powers(draw):
    """(u * v^k * u^-1, k) with v cyclically reduced and not a proper power,
    and |v| * k = 2^a * 3^b * 5^c, so that the core length has repeated prime
    factors.  v is a reduced word over x, y followed by one z^+-1, which makes
    it primitive (a proper power has a multiple of its exponent many z)."""
    a, b, c = draw(st.integers(0, 4)), draw(st.integers(0, 2)), draw(st.integers(0, 1))
    length = 2**a * 3**b * 5**c
    k = draw(st.sampled_from([k for k in range(1, length + 1) if length % k == 0]))
    m = length // k
    code: list[int] = []
    for step in draw(st.lists(st.integers(0, 2), min_size=m - 1, max_size=m - 1)):
        code.append([s for s in (X, -X, Y, -Y) if not code or s != -code[-1]][step])
    v = Word(XYZ, code + [draw(st.sampled_from((Z, -Z)))])
    u = draw(words_over(XYZ, 6))
    return u * v**k * u.inverse(), k


@given(conjugated_powers())
@example((w([Z]) ** 360, 360))
@example((w([Y, X, X, -Y, Z]) ** 24, 24))
@example((w([X, Y, X, X, Y, X, -Z]), 1))
def test_root_matches_divisor_search_on_repeated_prime_factors(case):
    word, k = case
    assert word.root() == root_by_divisor_search(word)
    assert word.root().log == k


def test_root_of_long_powers_within_a_time_bound():
    # 2^17 and 3*5*7*11*13*17 letters; a root a^(m-1)*b is never a power.
    for m, k in ((2**5, 2**12), (3 * 5 * 7, 11 * 13 * 17)):
        v = (X,) * (m - 1) + (Y,)
        word = Word(XY, v * k)
        with time_limit(2.0):
            root, log = word.root()
        assert (root.code, log) == (v, k)


def test_log_is_multiplicative_on_powers():
    rng = random.Random(19)
    tried = 0
    while tried < 60:
        word = random_word(rng, XYZ, rng.randint(1, 12))
        if word.is_identity:
            continue
        base_root, base_log = word.root()
        for k in range(2, 6):
            root_k, log_k = (word**k).root()
            assert log_k == k * base_log
            assert root_k == base_root
        tried += 1


def test_exponent_sum_commutator():
    assert exponent_sum(w([X, Y, -X, -Y]), "x") == 0


def test_exponent_sum_powers():
    word = w([X, X, X, -Y, -Y])
    assert exponent_sum(word, "y") == -2


def test_exponent_sum_additive_under_multiplication():
    rng = random.Random(23)
    for _ in range(200):
        a = random_word(rng, XYZ, rng.randint(0, 20))
        b = random_word(rng, XYZ, rng.randint(0, 20))
        for gen in XYZ:
            assert exponent_sum(a * b, gen) == exponent_sum(a, gen) + exponent_sum(b, gen)


def test_exponent_sum_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        exponent_sum(w([X]), "q")


def test_word_power_and_str():
    word = w([X, X, X, -Y])
    assert str(word) == "x^3*y^-1"
    assert str(XYZ.identity()) == "1"
    assert word**0 == XYZ.identity()
    assert word**-2 == (word.inverse()) ** 2


def test_substitute_homomorphism():
    target = Alphabet(["a", "b"])
    images = [Word(target, [1]), Word(target, [2]), Word(target, [1, 2])]
    word = w([Z, -X])
    assert word.substitute(images) == Word(target, [1, 2, -1])


def words_over(alphabet, max_size):
    letters = [s for i in range(1, len(alphabet) + 1) for s in (i, -i)]
    return st.lists(st.sampled_from(letters), max_size=max_size).map(
        lambda code: Word(alphabet, code)
    )


@st.composite
def substitutions(draw):
    """Words over 1-4 generators, and one image per generator over 1-4 others.

    An image may start or end with the inverse of an earlier image, so that
    images cancel against each other where they meet; the empty word occurs
    both as a word and as an image.
    """
    source = Alphabet([f"g{i}" for i in range(draw(st.integers(1, 4)))])
    target = Alphabet([f"h{i}" for i in range(draw(st.integers(1, 4)))])
    images: list[Word] = []
    for _ in source:
        image = draw(words_over(target, 6))
        if images and draw(st.booleans()):
            earlier = images[draw(st.integers(0, len(images) - 1))].inverse()
            image = earlier * image if draw(st.booleans()) else image * earlier
        images.append(image)
    words = draw(st.lists(words_over(source, 12), max_size=4))
    return words, images


@given(substitutions())
def test_substitute_matches_multiplication(case):
    words, images = case
    expected = tuple(substitute_by_multiplication(word, images) for word in words)
    assert tuple(word.substitute(images) for word in words) == expected
    # A homomorphism sends inverses to inverses.
    for word, result in zip(words, expected):
        assert word.inverse().substitute(images) == result.inverse()


@st.composite
def conjugate_images(draw):
    """Images y^i * z * y^-i and powers y^i over (y, z1..zk), the shape of the
    HNN round-trip, where whole runs of y cancel or merge where images meet."""
    target = Alphabet(["y"] + [f"z{j}" for j in range(1, draw(st.integers(1, 3)) + 1)])
    y = Word(target, [1])
    images = []
    for _ in range(draw(st.integers(1, 5))):
        level = draw(st.integers(-40, 40))
        if draw(st.booleans()):
            z = Word(target, [draw(st.sampled_from(range(2, len(target) + 1)))])
            images.append(y**level * z * y**-level)
        else:
            images.append(y**level)
    source = Alphabet([f"g{i}" for i in range(len(images))])
    words = draw(st.lists(words_over(source, 16), max_size=4))
    return words, images


@given(conjugate_images())
def test_substitute_matches_multiplication_on_runs(case):
    words, images = case
    expected = tuple(substitute_by_multiplication(word, images) for word in words)
    assert tuple(word.substitute(images) for word in words) == expected


def test_substitute_checks_the_images():
    target = Alphabet(["a", "b"])
    images = [Word(target, [1]), Word(target, [2]), Word(target, [1, 2])]
    word = w([Z, -X])
    mixed = images[:2] + [Word(XY, [1, 2])]
    for bad in (mixed, images[:2], images + [Word(target, [2])]):
        with pytest.raises(AlphabetMismatchError):
            word.substitute(bad)
    # A word over an alphabet of the wrong size, and no images at all.
    with pytest.raises(AlphabetMismatchError):
        Word(XY, [1]).substitute(images)
    with pytest.raises(AlphabetMismatchError):
        word.substitute([])
    empty = Alphabet([])
    assert empty.identity().substitute([]) == empty.identity()


def test_word_takes_only_int_letter_codes():
    for bad in (1.0, "x", ("x", 1)):
        with pytest.raises(TypeError):
            Word(XY, [1, bad])
    for bad in (0, 3, -3):
        with pytest.raises(UnknownGeneratorError, match=f"letter code {bad} out of range"):
            Word(XY, [bad])


def test_alphabet_iterates_names_and_resolves_to_indices():
    assert list(XYZ) == ["x", "y", "z"]
    assert [XYZ.resolve(name) for name in XYZ] == [0, 1, 2]
    assert [XYZ.resolve(i) for i in range(3)] == [0, 1, 2]
    with pytest.raises(UnknownGeneratorError, match="^unknown generator 'q'$"):
        XYZ.resolve("q")
    for bad in (3, -1):
        with pytest.raises(UnknownGeneratorError, match=f"^generator index {bad} out of range$"):
            XYZ.resolve(bad)
    with pytest.raises(TypeError):
        XYZ.resolve(1.0)


def test_conjugacy_test():
    a = w([X, Y])
    assert are_conjugate(a, w([Y, X]))
    assert not are_conjugate(a, w([X, -Y]))
    assert are_conjugate(w([Z, X, Y, -Z]), w([Y, X]))


def test_are_conjugate_matches_slice_search_on_cores():
    rng = random.Random(43)
    for _ in range(600):
        a = random_word(rng, XY, rng.randint(0, 10))
        u = random_word(rng, XY, rng.randint(0, 3))
        # Half the pairs are conjugate by construction; half have b's core
        # rotated, so that cores that differ only by a rotation are common.
        b = u * a * u.inverse() if rng.random() < 0.5 else random_word(rng, XY, len(a))
        if rng.random() < 0.5:
            code = cyclic_core(b)[1].code
            shift = rng.randint(0, len(code))
            b = Word(XY, code[shift:] + code[:shift])
        expected = rotation_by_slices(cyclic_core(a)[1].code, cyclic_core(b)[1].code)
        assert are_conjugate(a, b) == expected, (a, b)
        assert (_conjugacy_key(a.code) == _conjugacy_key(b.code)) == expected, (a, b)


def test_cyclic_rotation_matches_slice_search():
    # Equal least rotations decide "is a rotation of", on plain sequences.
    def same_key(a, b):
        return _least_rotation(a) == _least_rotation(b)

    rng = random.Random(41)
    for _ in range(600):
        # Few letters and short periods, so that rotations often coincide.
        period = [rng.choice((1, -1, 2)) for _ in range(rng.randint(1, 4))]
        a = tuple(period * rng.randint(1, 5))[: rng.randint(0, 20)]
        shift = rng.randint(0, len(a))
        b = list(a[shift:] + a[:shift])
        kind = rng.randrange(3)
        if kind == 1 and b:
            b[rng.randrange(len(b))] = rng.choice((1, -1, 2))
        elif kind == 2:
            b.append(rng.choice((1, 2)))
        b = tuple(b)
        assert same_key(a, b) == rotation_by_slices(a, b), (a, b)
    # Every two-letter sequence up to length 10 against all of its rotations
    # and its reversal, through the conjugacy key of cyclically reduced codes.
    for n in range(1, 11):
        for a in itertools.product((1, 2), repeat=n):
            for b in [a[i:] + a[:i] for i in range(n)] + [a[::-1]]:
                same = _conjugacy_key(a) == _conjugacy_key(b)
                assert same == rotation_by_slices(a, b), (a, b)


def test_least_rotation_is_the_minimum_over_all_rotations():
    def brute(c):
        return min((c[i:] + c[:i] for i in range(len(c))), default=())

    for letters in ((1, 2), (1, -1, 2)):
        for n in range(9):
            for c in itertools.product(letters, repeat=n):
                assert _least_rotation(c) == brute(c), c
    rng = random.Random(53)
    pool = [X1Letter(base, level, sign) for base in (0, 1) for level in (0, 1) for sign in (1, -1)]
    for _ in range(500):
        # Short periods with a few changed letters, so that ties are common.
        period = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        c = (period * rng.randint(1, 6))[: rng.randint(0, 24)]
        for _ in range(rng.randint(0, 2)):
            if c:
                c[rng.randrange(len(c))] = rng.choice(pool)
        c = tuple(c)
        assert _least_rotation(c) == brute(c), c


def test_power_matches_repeated_multiplication():
    rng = random.Random(47)
    for _ in range(300):
        core = random_word(rng, XYZ, rng.randint(0, 8))
        u = random_word(rng, XYZ, rng.randint(0, 4))
        word = u * core * u.inverse()  # often not cyclically reduced
        k = rng.randint(-6, 6)
        assert word**k == power_by_multiplication(word, k), (word, k)


def test_duplicate_generator_names_rejected():
    with pytest.raises(DuplicateGeneratorError):
        Alphabet(["x", "x"])
    # The error names the first name met a second time.
    with pytest.raises(DuplicateGeneratorError, match="^duplicate generator 'b'$"):
        Alphabet(["a", "b", "b", "a"])
