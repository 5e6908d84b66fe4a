import random
import re
import tracemalloc

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bredonkit import (
    AbelianGroupInvariants,
    Alphabet,
    Presentation,
    Word,
    bredon_full,
    build_hnn,
    detect_asphericity,
    hempel_context,
    int_linalg,
    ktheory,
    one_relator_product_homology,
    parse,
    torsion_data,
)
from bredonkit.bredon import (
    HIGHER_ALL_ZERO,
    HIGHER_EQUALS_H_BG,
    SOURCE_HEMPEL,
    SOURCE_ONE_RELATOR,
    SOURCE_USER_ASSERTED,
)
from bredonkit.errors import (
    CombinatorDegreeError,
    DeclaredTorsionFormError,
    NotTwoDimensionalError,
)

from helpers import (
    character_count,
    conjugate_root_classes_pairwise,
    h1_and_kernel_rank_by_two_matrices,
    random_word,
    time_limit,
)

Z = AbelianGroupInvariants.free
TRIVIAL = AbelianGroupInvariants.trivial()

NEC_TEXT = """< a1, c1, c2 | c1^2, c2^3, c1^-1*c2^-1*a1^2 >
!torsion rel=0 order=2
!torsion rel=1 order=3"""

HEMPEL_TEXT = "< x, y, z1, z2 | [x,y][z1,z2], z1 >"


def test_torsion_data_derive_mode():
    data = torsion_data(parse("< x | x^3 >"))
    assert len(data) == 1
    assert (data[0].relator_index, str(data[0].root), data[0].order) == (0, "x", 3)


def test_torsion_data_commutator_is_torsion_free():
    data = torsion_data(parse("< x, y | [x, y] >"))
    assert data[0].order == 1
    assert str(data[0].root) == "x*y*x^-1*y^-1"


def test_torsion_data_declared_mode():
    data = torsion_data(parse(NEC_TEXT))
    assert [(d.relator_index, d.order) for d in data] == [(0, 2), (1, 3), (2, 1)]
    assert str(data[0].root) == "c1"
    # A declared relator is c^g or c^-g, at its order g; an undeclared proper
    # power carries its torsion all the same.
    data = torsion_data(parse("< x, y | x^-3, y^2 >\n!torsion rel=0 order=3"))
    assert [(str(d.root), d.order) for d in data] == [("x^-1", 3), ("y", 2)]
    for text in ("< x | x^2 >\n!torsion rel=0 order=5", "< x | x^4 >\n!torsion rel=0 order=2"):
        with pytest.raises(DeclaredTorsionFormError, match="differs from its exponent"):
            parse(text)


def test_h0_examples():
    assert bredon_full(parse("< x | x^3 >")).h0 == Z(3)
    assert bredon_full(parse("< x, y | [x, y] >")).h0 == Z(1)
    assert bredon_full(parse(NEC_TEXT)).h0 == Z(5)


def test_h0_rank_matches_character_counts():
    for n in range(2, 10):
        assert bredon_full(parse(f"< x | x^{n} >")).h0.rank == character_count(n)


def test_h1_examples():
    assert bredon_full(parse("< x, y | (x*y)^3 >")).h1 == Z(1)
    assert bredon_full(parse("< x | x^3 >")).h1 == TRIVIAL
    assert bredon_full(parse(NEC_TEXT)).h1 == AbelianGroupInvariants(0, (2,))


def test_h1_equals_plain_abelianization_without_proper_powers():
    from bredonkit import cokernel_invariants, exponent_matrix

    rng = random.Random(53)
    alphabet = Alphabet(["x", "y", "z"])
    count = 0
    while count < 30:
        rel = random_word(rng, alphabet, rng.randint(1, 10))
        if rel.is_identity or rel.root().log != 1:
            continue
        p = Presentation(alphabet, (rel,))
        assert bredon_full(p).h1 == cokernel_invariants(exponent_matrix(alphabet, p.relators))
        count += 1


def test_h2_examples():
    genus2 = parse("< x1, y1, x2, y2 | [x1,y1][x2,y2] >")
    assert bredon_full(genus2).h2 == Z(1)
    assert bredon_full(parse("< x | x^5 >")).h2 == TRIVIAL
    assert bredon_full(parse(HEMPEL_TEXT)).h2 == Z(1)


def test_h2_requires_certified_model():
    uncertified = bredon_full(parse(NEC_TEXT))
    assert uncertified.h2 is None
    with pytest.raises(NotTwoDimensionalError):
        ktheory(uncertified)
    # Exponent matrix has full rank 3, so the asserted-aspherical H2 is 0.
    assert bredon_full(parse(NEC_TEXT), assert_aspherical=True).h2 == TRIVIAL


def test_detect_asphericity_sources():
    assert detect_asphericity(parse("< x | x^6 >")) == SOURCE_ONE_RELATOR
    assert detect_asphericity(parse(HEMPEL_TEXT)) == SOURCE_HEMPEL
    two_random = parse("< x, y | x^2, y^2 >")
    assert detect_asphericity(two_random) is None
    asserted = bredon_full(two_random, assert_aspherical=True)
    assert asserted.aspherical_source == SOURCE_USER_ASSERTED


def test_surface_pair_failing_hempel_is_not_auto_certified():
    # Right shape, but the second relator fails (H4): no certificate.
    p = parse("< x, y, z1, z2 | [x,y][z1,z2], y*x*y^-1 >")
    assert detect_asphericity(p) is None
    result = bredon_full(p)
    assert result.h2 is None and result.higher == HIGHER_EQUALS_H_BG


def test_bredon_full_cyclic():
    result = bredon_full(parse("< x | x^6 >"))
    assert result.h0 == Z(6)
    assert result.h1 == TRIVIAL
    assert result.h2 == TRIVIAL
    assert result.higher == HIGHER_ALL_ZERO
    assert result.aspherical_source == SOURCE_ONE_RELATOR


def test_bredon_full_genus3():
    genus3 = parse("< x1, y1, x2, y2, x3, y3 | [x1,y1][x2,y2][x3,y3] >")
    result = bredon_full(genus3)
    assert (result.h0, result.h1, result.h2) == (Z(1), Z(6), Z(1))


def test_bredon_full_nec_marker():
    result = bredon_full(parse(NEC_TEXT))
    assert result.h2 is None
    assert result.higher == HIGHER_EQUALS_H_BG
    assert result.note
    assert result.aspherical_source is None


def test_bredon_full_user_asserted_warns():
    result = bredon_full(parse(NEC_TEXT), assert_aspherical=True)
    assert result.higher == HIGHER_ALL_ZERO
    assert result.aspherical_source == SOURCE_USER_ASSERTED
    assert any("asserted" in w for w in result.warnings)


def test_conjugate_root_warning():
    p = parse("< x, y | x^2, (y*x*y^-1)^2 >")
    result = bredon_full(p)
    assert any("conjugate" in w for w in result.warnings)


def test_three_conjugate_roots_give_one_warning():
    result = bredon_full(parse("< x, y | x^2, (y*x*y^-1)^3, x^-5 >"))
    assert [w for w in result.warnings if "conjugate" in w] == [
        "roots of relators 0, 1 and 2 are conjugate in the free group; their"
        " torsion subgroups may coincide and would then be double-counted"
    ]


def test_many_equal_roots_give_one_warning_quickly():
    # One pass over the roots; a pairwise test runs for seconds here.
    p = parse("< x, y | " + ", ".join(["x^2"] * 1000) + " >")
    with time_limit(1.0):
        result = bredon_full(p)
    assert len(result.warnings) == 1
    assert result.warnings[0].startswith("roots of relators 0, 1, 2, ")


@st.composite
def torsion_relators(draw):
    """2-6 conjugated proper powers over two generators, so that conjugate
    roots, and roots conjugate to inverses, are common."""
    alphabet = Alphabet(["x", "y"])
    letters = st.sampled_from((1, -1, 2, -2))
    relators = []
    for _ in range(draw(st.integers(2, 6))):
        root = Word(alphabet, draw(st.lists(letters, min_size=1, max_size=4)))
        assume(not root.is_identity)
        u = Word(alphabet, draw(st.lists(letters, max_size=2)))
        relators.append(u * root ** draw(st.integers(2, 3)) * u.inverse())
    return Presentation(alphabet, tuple(relators))


@given(torsion_relators())
def test_conjugate_root_warnings_match_pairwise_classes(p):
    result = bredon_full(p)
    named = [
        [int(i) for i in re.findall(r"\d+", w.split(" are ")[0])]
        for w in result.warnings
        if "conjugate" in w
    ]
    assert named == conjugate_root_classes_pairwise(result.torsion)


def test_no_warning_for_distinct_roots():
    result = bredon_full(parse(NEC_TEXT))
    assert not any("conjugate" in w for w in result.warnings)


def test_torsion_scaling_property():
    rng = random.Random(59)
    alphabet = Alphabet(["x", "y"])
    done = 0
    while done < 25:
        rel = random_word(rng, alphabet, rng.randint(1, 10))
        if rel.is_identity:
            continue
        p = Presentation(alphabet, (rel,))
        squared = Presentation(alphabet, (rel * rel,))
        base = torsion_data(p)[0]
        doubled = torsion_data(squared)[0]
        assert doubled.order == 2 * base.order
        assert doubled.root == base.root
        assert bredon_full(p).h1 == bredon_full(squared).h1
        done += 1


def test_ktheory_cyclic():
    for n in (2, 5, 9):
        result = bredon_full(parse(f"< x | x^{n} >"))
        k = ktheory(result)
        assert k.k0 == Z(n)
        assert k.k1 == TRIVIAL


def test_ktheory_surface():
    result = bredon_full(parse("< x1, y1, x2, y2 | [x1,y1][x2,y2] >"))
    k = ktheory(result)
    assert k.k0 == Z(2)
    assert k.k1 == Z(4)


def test_ktheory_hempel_example():
    result = bredon_full(parse(HEMPEL_TEXT))
    k = ktheory(result)
    assert k.k0 == Z(2)
    assert k.k1 == Z(3)


def test_ktheory_torsion_free_matches_classical_case():
    rng = random.Random(61)
    alphabet = Alphabet(["x", "y", "z"])
    from bredonkit import cokernel_invariants, exponent_matrix

    done = 0
    while done < 20:
        rel = random_word(rng, alphabet, rng.randint(1, 8))
        if rel.is_identity or rel.root().log != 1:
            continue
        p = Presentation(alphabet, (rel,))
        result = bredon_full(p)
        assert result.h0 == Z(1)
        k = ktheory(result)
        assert k.k0 == Z(1).direct_sum(result.h2)
        assert k.k1 == cokernel_invariants(exponent_matrix(alphabet, p.relators))
        done += 1


def test_ktheory_requires_two_dimensional_model():
    with pytest.raises(NotTwoDimensionalError):
        ktheory(bredon_full(parse(NEC_TEXT)))


def test_combinator_examples():
    za = [TRIVIAL, TRIVIAL, TRIVIAL, Z(1)]
    zb = [TRIVIAL, TRIVIAL, TRIVIAL, AbelianGroupInvariants(0, (2,))]
    assert one_relator_product_homology(za, zb, 3) == AbelianGroupInvariants(1, (2,))
    assert one_relator_product_homology([TRIVIAL], [TRIVIAL], 4) == TRIVIAL
    ha = [TRIVIAL] * 4 + [Z(2)]
    hb = [TRIVIAL] * 4 + [AbelianGroupInvariants(0, (2, 4))]
    assert one_relator_product_homology(ha, hb, 4) == AbelianGroupInvariants(2, (2, 4))


def test_combinator_degree_validation():
    with pytest.raises(CombinatorDegreeError):
        one_relator_product_homology([Z(1)], [Z(1)], 2)


def test_relatorless_presentation_is_treated_as_free():
    alphabet = Alphabet(["x", "y"])
    p = Presentation(alphabet, ())
    result = bredon_full(p)
    assert result.h0 == Z(1)
    assert result.h1 == Z(2)
    assert result.h2 == TRIVIAL
    k = ktheory(result)
    assert k.k0 == Z(1)
    assert k.k1 == Z(2)


@st.composite
def presentations(draw):
    """1-3 relators over 1-3 generators, with some powers c^g, c^-g declared
    at their order g."""
    n = draw(st.integers(1, 3))
    alphabet = Alphabet(["x", "y", "z"][:n])
    relators, declared = [], []
    for i in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            g = draw(st.integers(1, 6))
            letter = draw(st.integers(1, n)) * draw(st.sampled_from((1, -1)))
            rel = Word(alphabet, [letter] * g)
            if g > 1 and draw(st.booleans()):
                declared.append((i, g))
        else:
            letters = st.sampled_from([s for j in range(1, n + 1) for s in (j, -j)])
            base = Word(alphabet, draw(st.lists(letters, min_size=1, max_size=10)))
            assume(not base.is_identity)
            rel = base ** draw(st.integers(1, 3))
        relators.append(rel)
    return Presentation(alphabet, tuple(relators), tuple(declared))


@given(presentations())
def test_one_d2_matches_the_two_matrix_derivation(p):
    h1, kernel = h1_and_kernel_rank_by_two_matrices(p)
    result = bredon_full(p, assert_aspherical=True)
    assert result.h1 == h1
    assert result.h2 == Z(kernel)
    assert bredon_full(p).h1 == h1
    # Declarations only assert what the roots say: dropping them changes nothing.
    bare = Presentation(p.alphabet, p.relators)
    bare_result = bredon_full(bare, assert_aspherical=True)
    assert bare_result == result
    assert ktheory(bare_result) == ktheory(result)
    assert bredon_full(bare) == bredon_full(p)


def test_bredon_full_eliminates_once(monkeypatch):
    shapes = []
    original = int_linalg.invariant_factors

    def counted(m):
        shapes.append((m.rows, m.cols))
        return original(m)

    monkeypatch.setattr(int_linalg, "invariant_factors", counted)
    for text, certified in (
        ("< x | x^6 >", True),
        (HEMPEL_TEXT, True),
        ("< x1, y1, x2, y2 | [x1,y1][x2,y2] >", True),
        (NEC_TEXT, False),
    ):
        shapes.clear()
        p = parse(text)
        assert (bredon_full(p).h2 is not None) == certified
        assert shapes == [(len(p.relators), len(p.alphabet))]


def test_bredon_full_keeps_the_nu_1000_split_sparse():
    # d2 is 3002 x 3005 with 6008 non-zeros; a dense copy alone takes 9 * 10^6
    # cells, about 70 MiB of pointers.
    text = "<x,y,z1,z2,z3|[x,y]*z1*z2*z3, z1*(y^1000*z3*y^-1000)*(y*x*y^-1)>"
    ctx, r = hempel_context(parse(text))
    full = build_hnn(r, ctx).full_presentation()
    tracemalloc.start()
    try:
        result = bredon_full(full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.h0, result.h1) == (Z(1), Z(3))
    assert peak < 16 * 2**20
