import random
from itertools import accumulate
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from bredonkit import (
    AbelianGroupInvariants,
    IntMatrix,
    build_hnn,
    cokernel_invariants,
    hempel_context,
    homology_invariants,
    invariant_factors,
    parse,
    rank,
)
from bredonkit.finite_oracle import resolution_blocks, subdivided_blocks

from helpers import (
    diagonal_matrix,
    direct_sum_by_dense_diagonal,
    exponent_matrix_by_counting,
    invariant_factors_by_minor_gcds,
    invariant_factors_by_smallest_pivot,
    invariant_factors_by_stain_folding,
    kernel_rank,
    matmul_by_triple_loop,
    random_matrix,
    rank_by_fraction_elimination,
    time_limit,
    to_rows,
)


def snf_diag(m):
    return list(invariant_factors(m))


def test_snf_of_diag_2_3():
    m = diagonal_matrix([2, 3])
    assert snf_diag(m) == [1, 6]
    # Diagonals that are not divisor chains, with no unit to pivot on.
    assert invariant_factors(diagonal_matrix([4, 6, 0])) == (2, 12, 0)
    assert invariant_factors(diagonal_matrix([6, 10, 15])) == (1, 30, 30)


def test_snf_of_zero_row():
    m = IntMatrix.from_rows([[0, 0, 0, 0]])
    assert invariant_factors(m) == (0,)
    assert invariant_factors(IntMatrix.from_rows([[0, 0], [0, 5], [0, 0]])) == (5, 0)


def test_snf_properties_random():
    rng = random.Random(31)
    for _ in range(120):
        m = random_matrix(rng)
        diag = snf_diag(m)
        # min(rows, cols) entries, non-negative, divisibility chain, zeros last
        assert len(diag) == min(m.rows, m.cols)
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a:
                assert b % a == 0
            else:
                assert b == 0
        assert diag == invariant_factors_by_minor_gcds(m)
        assert rank(m) == rank_by_fraction_elimination(m)


def test_cokernel_examples():
    assert cokernel_invariants(IntMatrix.from_rows([[2, 2]])) == AbelianGroupInvariants(1, (2,))
    assert cokernel_invariants(IntMatrix.from_rows([[0, 0]])) == AbelianGroupInvariants(2)
    assert cokernel_invariants(IntMatrix.from_rows([[3]])) == AbelianGroupInvariants(0, (3,))


def test_cokernel_invariant_under_row_permutation_and_negation():
    rng = random.Random(37)
    for _ in range(60):
        m = random_matrix(rng, max_dim=4)
        rows = to_rows(m)
        rng.shuffle(rows)
        rows = [[-e for e in row] if rng.random() < 0.5 else row for row in rows]
        assert cokernel_invariants(m) == cokernel_invariants(
            IntMatrix.from_rows(rows, cols=m.cols)
        )


def test_kernel_rank_examples():
    assert kernel_rank(IntMatrix.from_rows([[0, 0, 0, 0]])) == 1
    assert kernel_rank(IntMatrix.from_rows([[3]])) == 0
    assert kernel_rank(IntMatrix.from_rows([[0, 0, 0, 0], [0, 0, 1, 0]])) == 1


def test_empty_matrix_conventions():
    no_rows = IntMatrix(0, 3, [])
    assert rank(no_rows) == 0
    assert cokernel_invariants(no_rows) == AbelianGroupInvariants(3)
    no_cols = IntMatrix.from_entries(4, 0, ())
    assert kernel_rank(no_cols) == 4
    assert invariant_factors(no_rows) == ()
    assert invariant_factors(no_cols) == ()
    assert invariant_factors(IntMatrix(0, 0, [])) == ()


def canonical_factors(diag):
    """Bring any diagonal to invariant-factor form by gcd/lcm exchanges.

    A diagonal matrix presents the same cokernel after replacing a pair of
    entries (a, b) by (gcd, lcm); sweeping every pair yields a non-negative
    divisibility chain with the zeros last."""
    diag = [abs(d) for d in diag]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return diag


def sympy_factors(m):
    entries = [e for row in to_rows(m) for e in row]
    d = sympy_smith_normal_form(Matrix(m.rows, m.cols, entries), domain=ZZ)
    return canonical_factors([int(d[i, i]) for i in range(min(m.rows, m.cols))])


def random_unimodular(rng, n):
    """Product of random elementary row operations on the n x n identity."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            a[i] = [-e for e in a[i]]
        else:
            q = rng.randint(-3, 3)
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
    return IntMatrix.from_rows(a, cols=n)


def udv_matrix(rng, rows, cols, diag):
    """U * D * V for random unimodular U, V and the rows x cols diagonal D."""
    d = IntMatrix.from_entries(
        rows, cols, [diag[i] if i == j else 0 for i in range(rows) for j in range(cols)]
    )
    return random_unimodular(rng, rows) @ d @ random_unimodular(rng, cols)


def test_invariant_factors_match_sympy():
    rng = random.Random(47)
    for _ in range(150):
        rows, cols = rng.randint(0, 20), rng.randint(0, 20)
        bound = rng.choice((1, 4, 30))
        entries = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        for row in rng.sample(entries, rng.randint(0, rows) // 3):
            row[:] = [0] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols) // 3):
            for row in entries:
                row[j] = 0
        m = IntMatrix.from_rows(entries, cols=cols)
        assert snf_diag(m) == sympy_factors(m)
    for _ in range(60):
        rows, cols = rng.randint(1, 20), rng.randint(1, 20)
        size = min(rows, cols)
        zeros = rng.randint(0, size)
        chain, d = [], 1
        for _ in range(size - zeros):
            d *= rng.choice((1, 1, 2, 3, 5))
            chain.append(d)
        expected = chain + [0] * zeros
        m = udv_matrix(rng, rows, cols, expected)
        assert snf_diag(m) == expected == sympy_factors(m)


# Entry pools for random matrices: a full range; two with no unit, so the
# pivots are non-units and the gcd/lcm pass has work to do; and a mostly-zero
# one, which gives zero rows and columns, rows that a row operation empties,
# and pivot columns with no other entry.
ENTRY_POOLS = (
    tuple(range(-9, 10)),
    (0, 2, -2, 6, 10, -15),
    (0, 0, 4, -6, 9, 10),
    (0, 0, 0, 0, 0, 1, -1, 2, -3),
)


@st.composite
def small_matrices(draw, max_side=12):
    rows, cols = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    pool = draw(st.sampled_from(ENTRY_POOLS))
    entries = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    return IntMatrix.from_entries(rows, cols, entries)


@given(small_matrices())
@example(IntMatrix.from_rows([[2, 1]]))
@example(IntMatrix.from_rows([[2, 0], [3, 1]]))
@example(IntMatrix(0, 5, []))
@example(IntMatrix.from_entries(5, 0, ()))
@example(IntMatrix.from_rows([[0, 0, 0], [0, -6, 0]]))
def test_invariant_factors_match_stain_folding(m):
    # A pivot search that stops before the smallest entry can pick the same
    # non-dividing pivot forever; the time limit turns that into a failure.
    with time_limit(10):
        diag = invariant_factors(m)
    assert diag == invariant_factors_by_stain_folding(m)


@st.composite
def product_pairs(draw, max_side=6):
    """Two matrices that can be multiplied, 0-sided ones included; the
    entry pools are mostly zero, so whole rows and columns vanish often."""
    n, k, m = (draw(st.integers(0, max_side)) for _ in range(3))
    pool = draw(st.sampled_from(((0, 0, 0, 1, -2), ENTRY_POOLS[0], (0,))))
    a = draw(st.lists(st.sampled_from(pool), min_size=n * k, max_size=n * k))
    b = draw(st.lists(st.sampled_from(pool), min_size=k * m, max_size=k * m))
    return IntMatrix.from_entries(n, k, a), IntMatrix.from_entries(k, m, b)


@given(product_pairs())
@example((IntMatrix.from_entries(2, 0, ()), IntMatrix(0, 3, [])))
@example((IntMatrix.from_rows([[0, 3], [0, 0]]), IntMatrix.from_rows([[5, 0], [0, 0]])))
def test_product_matches_triple_loop(pair):
    a, b = pair
    assert a @ b == matmul_by_triple_loop(a, b)


def test_product_checks_dimensions():
    with pytest.raises(ValueError):
        diagonal_matrix([1, 1]) @ diagonal_matrix([1, 1, 1])


@given(st.lists(st.sampled_from((0, 1, 2, -3, 4, 6, 9, -10, 12, 15, 25, 30)), max_size=8))
def test_diagonal_inputs_reach_the_chain(entries):
    m = diagonal_matrix(entries)
    expected = tuple(canonical_factors(entries))
    assert invariant_factors(m) == invariant_factors_by_stain_folding(m) == expected


def banded_udv_matrix(rng, n, diag):
    """U * D * V from row and column additions between indices at most two
    apart, with rows and columns then shuffled: sparse, with a known chain."""
    a = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]

    def nearby():
        i, d = rng.randrange(n), rng.choice((-2, -1, 1, 2))
        return i, i + d if 0 <= i + d < n else i - d, rng.choice((1, -1, 2, -2))

    for _ in range(2 * n):
        i, j, q = nearby()
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]  # row i += q * row j
        i, j, q = nearby()
        for row in a:  # column i += q * column j
            row[i] += q * row[j]
    rng.shuffle(a)
    perm = list(range(n))
    rng.shuffle(perm)
    return IntMatrix.from_rows([[row[p] for p in perm] for row in a])


def test_banded_udv_matrices():
    rng = random.Random(53)
    for n in (40, 63, 97, 150, 400):
        zeros = rng.randint(0, 2)
        top = [2, 6, 12, 60][: rng.randint(1, 4)]
        chain = [1] * (n - zeros - len(top)) + top + [0] * zeros
        with time_limit(30):
            assert invariant_factors(banded_udv_matrix(rng, n, chain)) == tuple(chain)


UNIT_FREE = (0, 0, 0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9)


@st.composite
def elimination_inputs(draw):
    """Matrices that steer the elimination down each of its paths: no unit
    at all, so the smallest-entry pivot runs first; units in only a few
    columns, so both pivot kinds alternate; sparse banded U * D * V
    matrices; and the cyclic oracle's blocks."""
    kind = draw(st.sampled_from(("unit-free", "few unit columns", "banded", "oracle")))
    if kind == "oracle":
        n = draw(st.integers(2, 40))
        return draw(st.sampled_from((*resolution_blocks(n), *subdivided_blocks(n))))
    if kind == "banded":
        rng = random.Random(draw(st.integers(0, 2**32)))
        n = draw(st.integers(6, 40))
        zeros = rng.randint(0, 2)
        top = [2, 6, 12, 60][: rng.randint(0, 4)]
        return banded_udv_matrix(rng, n, [1] * (n - zeros - len(top)) + top + [0] * zeros)
    rows, cols = draw(st.integers(0, 10)), draw(st.integers(0, 10))
    pool = UNIT_FREE + (1, -1, 1, -1) * (kind == "few unit columns")
    entries = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    # Units outside the chosen columns become threes.
    unit_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2))
    entries = [
        3 * e if e in (1, -1) and k % cols not in unit_cols else e
        for k, e in enumerate(entries)
    ]
    return IntMatrix.from_entries(rows, cols, entries)


@settings(max_examples=300)
@given(elimination_inputs())
@example(IntMatrix.from_rows([[2, 3], [4, 6]]))
@example(IntMatrix.from_rows([[6, 4, 0], [9, 0, 1], [0, 2, -1]]))
def test_invariant_factors_match_both_references(m):
    before = [dict(row) for row in m.nonzeros]
    with time_limit(10):
        diag = invariant_factors(m)
    assert m.nonzeros == before
    assert diag == invariant_factors_by_smallest_pivot(m) == invariant_factors_by_stain_folding(m)


def test_invariant_factors_of_the_nu_10000_split():
    # 30,002 x 30,005 with about 60,000 non-zeros, all of them units.  An
    # elimination that scans the rows for each pivot's column takes about
    # 22 s on it.  `exponent_matrix` refuses its 9 * 10^8 cells.
    text = "<x,y,z1,z2,z3|[x,y]*z1*z2*z3, z1*(y^10000*z3*y^-10000)*(y*x*y^-1)>"
    ctx, r = hempel_context(parse(text))
    m = exponent_matrix_by_counting(build_hnn(r, ctx).full_presentation())
    assert (m.rows, m.cols) == (30_002, 30_005)
    with time_limit(5):
        assert invariant_factors(m) == (1,) * 30_002


def test_homology_invariants_subquotient():
    # Z --(2)--> Z --> 0 has homology Z/2 in the middle.
    d_in = IntMatrix.from_rows([[2]])
    d_out = IntMatrix.from_entries(1, 0, ())
    assert homology_invariants(d_in, d_out) == AbelianGroupInvariants(0, (2,))


def test_homology_invariants_rejects_non_complex():
    d_in = IntMatrix.from_rows([[1]])
    d_out = IntMatrix.from_rows([[1]])
    with pytest.raises(ValueError):
        homology_invariants(d_in, d_out)


def test_invariants_validation():
    with pytest.raises(ValueError):
        AbelianGroupInvariants(-1)
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (4, 2))


def test_invariants_strings():
    assert str(AbelianGroupInvariants.trivial()) == "0"
    assert str(AbelianGroupInvariants.free(1)) == "Z"
    assert str(AbelianGroupInvariants(3, (2,))) == "Z^3 + Z/2"
    assert str(AbelianGroupInvariants(0, (2, 4))) == "Z/2 + Z/4"


def test_direct_sum_renormalises():
    a = AbelianGroupInvariants(0, (2,))
    b = AbelianGroupInvariants(0, (3,))
    assert a.direct_sum(b) == AbelianGroupInvariants(0, (6,))
    c = AbelianGroupInvariants(2)
    d = AbelianGroupInvariants(0, (2, 4))
    assert c.direct_sum(d) == AbelianGroupInvariants(2, (2, 4))
    assert AbelianGroupInvariants.trivial().direct_sum(
        AbelianGroupInvariants.trivial()
    ) == AbelianGroupInvariants.trivial()


@st.composite
def abelian_groups(draw):
    """Z^r + Z/d1 + ... + Z/dk for a random chain d1 | d2 | ..., often empty."""
    steps = draw(st.lists(st.integers(1, 6), max_size=5))
    torsion = tuple(d for d in accumulate(steps, mul) if d > 1)
    return AbelianGroupInvariants(draw(st.integers(0, 3)), torsion)


@given(st.lists(abelian_groups(), min_size=1, max_size=4))
def test_direct_sum_matches_the_dense_diagonal(groups):
    assert groups[0].direct_sum(*groups[1:]) == direct_sum_by_dense_diagonal(*groups)


def test_json_round_trip():
    g = AbelianGroupInvariants(2, (2, 4))
    assert AbelianGroupInvariants.from_json(g.to_json()) == g


def test_from_rows_stores_plain_ints():
    m = IntMatrix.from_rows([[True, 0], [0, -2]])
    assert m.nonzeros == [{0: 1}, {1: -2}]
    assert all(type(e) is int for row in m.nonzeros for e in row.values())
    assert IntMatrix.from_entries(2, 2, (True, 0, 0, -2)) == m


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix.from_entries(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_entries(-1, 0, ())
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [{}])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
