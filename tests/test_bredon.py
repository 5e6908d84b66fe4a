import random

import pytest

from bredonkit import (
    AbelianGroupInvariants,
    Alphabet,
    Presentation,
    bredon_full,
    bredon_h0,
    bredon_h1,
    bredon_h2,
    detect_asphericity,
    ktheory,
    one_relator_product_homology,
    parse,
    torsion_data,
)
from bredonkit.bredon import (
    HIGHER_ALL_ZERO,
    HIGHER_EQUALS_H_BG,
    INTERPRETATION_LITERAL,
    SOURCE_HEMPEL,
    SOURCE_ONE_RELATOR,
    SOURCE_USER_ASSERTED,
)
from bredonkit.errors import CombinatorDegreeError, NotTwoDimensionalError

from helpers import character_count, random_word

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


def test_h0_examples():
    assert bredon_h0(torsion_data(parse("< x | x^3 >"))) == Z(3)
    assert bredon_h0(torsion_data(parse("< x, y | [x, y] >"))) == Z(1)
    assert bredon_h0(torsion_data(parse(NEC_TEXT))) == Z(5)


def test_h0_rank_matches_character_counts():
    for n in range(2, 10):
        data = torsion_data(parse(f"< x | x^{n} >"))
        assert bredon_h0(data).rank == character_count(n)


def test_h1_examples():
    assert bredon_h1(parse("< x, y | (x*y)^3 >")) == Z(1)
    assert bredon_h1(parse("< x | x^3 >")) == TRIVIAL
    assert bredon_h1(parse(NEC_TEXT)) == AbelianGroupInvariants(0, (2,))


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
        assert bredon_h1(p) == cokernel_invariants(exponent_matrix(p))
        count += 1


def test_h2_examples():
    genus2 = parse("< x1, y1, x2, y2 | [x1,y1][x2,y2] >")
    assert bredon_h2(genus2) == Z(1)
    assert bredon_h2(parse("< x | x^5 >")) == TRIVIAL
    assert bredon_h2(parse(HEMPEL_TEXT)) == Z(1)


def test_h2_requires_certified_model():
    with pytest.raises(NotTwoDimensionalError):
        bredon_h2(parse(NEC_TEXT))
    # Exponent matrix has full rank 3, so the asserted-aspherical H2 is 0.
    assert bredon_h2(parse(NEC_TEXT), assert_aspherical=True) == TRIVIAL


def test_detect_asphericity_sources():
    assert detect_asphericity(parse("< x | x^6 >")) == SOURCE_ONE_RELATOR
    assert detect_asphericity(parse(HEMPEL_TEXT)) == SOURCE_HEMPEL
    two_random = parse("< x, y | x^2, y^2 >")
    assert detect_asphericity(two_random) is None
    assert detect_asphericity(two_random, assert_aspherical=True) == SOURCE_USER_ASSERTED


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
        assert bredon_h1(p) == bredon_h1(squared)
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
        assert k.k1 == cokernel_invariants(exponent_matrix(p))
        done += 1


def test_ktheory_requires_two_dimensional_model():
    with pytest.raises(NotTwoDimensionalError):
        ktheory(bredon_full(parse(NEC_TEXT)))


def test_ktheory_records_interpretation():
    result = bredon_full(parse("< x | x^4 >"))
    k = ktheory(result, INTERPRETATION_LITERAL)
    assert k.h0_interpretation == INTERPRETATION_LITERAL
    assert k.k0 == Z(4)


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
