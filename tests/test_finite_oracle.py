import random

import pytest

from bredonkit import (
    Alphabet,
    IntMatrix,
    Word,
    bredon_full,
    parse,
    verify_cyclic_resolution,
)
from bredonkit import finite_oracle, int_linalg
from bredonkit.errors import InputFormatError, ResourceLimitError
from bredonkit.finite_oracle import check_resolution, resolution_blocks, subdivided_blocks

from helpers import character_count, cyclic_bredon_homology, embed, entry, zf_add, zf_mul

ONE_GEN = Alphabet(["x"])
X = Word(ONE_GEN, [1])


def test_embed_norm_element_is_all_ones():
    e = {ONE_GEN.identity(): 1, X: 1, X * X: 1}
    assert embed(e, 3) == IntMatrix.from_rows([[1, 1, 1]] * 3)


def test_embed_x_minus_one_mod_two():
    e = {X: 1, ONE_GEN.identity(): -1}
    assert embed(e, 2) == IntMatrix.from_rows([[-1, 1], [1, -1]])


def test_embed_zero():
    assert embed({}, 4).is_zero()


def test_embed_rejects_multi_generator_elements():
    two = Alphabet(["x", "y"])
    with pytest.raises(ValueError):
        embed({two.identity(): 1}, 3)


def test_embed_is_a_ring_homomorphism():
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(2, 8)
        def random_elem():
            terms = {}
            for _ in range(rng.randint(0, 4)):
                k = rng.randint(-6, 6)
                terms[X**k if k >= 0 else (X.inverse()) ** (-k)] = rng.randint(-3, 3)
            return terms

        a, b = random_elem(), random_elem()
        assert embed(zf_mul(a, b), n) == embed(a, n) @ embed(b, n)
        assert embed(zf_add(a, b), n) == IntMatrix.from_rows(
            [
                [
                    entry(embed(a, n), i, j) + entry(embed(b, n), i, j)
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )


def test_embed_output_is_circulant():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(2, 7)
        terms = {X**k: rng.randint(-4, 4) for k in range(rng.randint(1, 5))}
        block = embed(terms, n)
        for i in range(n):
            for j in range(n):
                assert entry(block, i, j) == entry(block, 0, (j - i) % n)


def test_resolution_exact_for_small_orders():
    for n in range(2, 13):
        report = verify_cyclic_resolution(n)
        assert report.ok, f"resolution failed for n={n}"
        assert report.relation_sequence.theta_rank == 1
        assert report.relation_sequence.boundary_rank == n - 1


def test_resolution_rejects_small_n():
    with pytest.raises(InputFormatError):
        verify_cyclic_resolution(1)


def test_oracle_size_budget(monkeypatch):
    monkeypatch.setattr(finite_oracle, "MAX_N", 5)
    assert verify_cyclic_resolution(5).ok
    with pytest.raises(ResourceLimitError):
        verify_cyclic_resolution(6)
    with pytest.raises(InputFormatError):
        verify_cyclic_resolution(1)


def test_oracle_eliminates_each_matrix_once(monkeypatch):
    eliminated, products = [], []
    eliminate, multiply = int_linalg.invariant_factors, IntMatrix.__matmul__

    def counted_eliminate(m):
        eliminated.append(m)
        return eliminate(m)

    def counted_multiply(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(int_linalg, "invariant_factors", counted_eliminate)
    monkeypatch.setattr(IntMatrix, "__matmul__", counted_multiply)
    for n in (2, 5, 9):
        eliminated.clear()
        products.clear()
        assert verify_cyclic_resolution(n).ok
        blocks = resolution_blocks(n) + subdivided_blocks(n)
        assert eliminated == list(blocks)
        assert products == [blocks[0:2], blocks[1:3], blocks[3:5], blocks[4:6]]


def test_all_ones_block_as_first_map_fails_start_exact():
    # The n x n embedding of the norm element has the right image but is not
    # injective: its rank is 1, not its row count.
    n = 4
    _, boundary, augmentation = resolution_blocks(n)
    all_ones = embed({X**k: 1 for k in range(n)}, n)
    checks = check_resolution(all_ones, boundary, augmentation)
    assert checks.theta_rank == 1 and checks.composite_zero and checks.middle_exact
    assert not checks.start_exact and not checks.ok


def test_theta_is_the_norm_row():
    theta, boundary, _ = resolution_blocks(5)
    assert theta == IntMatrix.from_rows([[1] * 5])
    assert boundary == embed({X: 1, ONE_GEN.identity(): -1}, 5)


def test_corrupted_theta_fails():
    n = 6
    _, boundary, augmentation = resolution_blocks(n)
    # Drop the top summand of the norm row: 1 + x + ... + x^(n-2).
    corrupted = IntMatrix.from_rows([[1] * (n - 1) + [0]])
    checks = check_resolution(corrupted, boundary, augmentation)
    assert not checks.composite_zero
    assert not checks.ok


def test_corrupted_boundary_fails():
    n = 4
    theta, _, augmentation = resolution_blocks(n)
    wrong = embed({X: 1, ONE_GEN.identity(): 1}, n)
    checks = check_resolution(theta, wrong, augmentation)
    assert not checks.ok


def test_character_count_examples():
    assert character_count(1) == 1
    assert character_count(3) == 3
    assert character_count(6) == 6


def test_character_count_range():
    for n in range(1, 15):
        assert character_count(n) == n


def test_bredon_complex_matches_pipeline():
    for n in range(2, 13):
        h0, h1, h2 = cyclic_bredon_homology(n)
        result = bredon_full(parse(f"< x | x^{n} >"))
        assert h0 == result.h0
        assert h1 == result.h1
        assert h2 == result.h2
        assert h0.rank == character_count(n)
