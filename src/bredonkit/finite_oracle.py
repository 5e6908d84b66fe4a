"""Brute-force verification over finite cyclic quotients.

For G = Z/n presented as <x | x^n>, the relation-module sequence and its
subdivided refinement become honest integer block matrices through the
regular representation.  This module builds those matrices from scratch and
checks the exactness of both complexes with one routine, `check_resolution`,
which reads every rank and cokernel off one elimination per matrix.  It is
an independent cross-check of the homology pipeline at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmbeddingRestrictionError, InputFormatError, ResourceLimitError
from .fox import FreeRingElement
from .free_group import Alphabet, Word
from .int_linalg import (
    AbelianGroupInvariants,
    IntMatrix,
    cokernel_invariants,
    homology_from_cokernel,
    homology_invariants,
    kernel_rank,
)

# The blocks have O(n^2) entries, mostly zero, and their eliminations touch
# only the non-zeros: `bredonkit oracle --n 400` takes 0.5 s and peaks at
# 30 MiB RSS as a subprocess (Python 3.11.7, shared 2-vCPU host), while
# n = 10^8 would exhaust memory while building the first block.  Larger n is
# refused before any matrix is built.
MAX_N = 400


def shift_matrix(n: int) -> IntMatrix:
    """Regular representation of the generator of Z/n: the n-cycle matrix."""
    return IntMatrix.from_rows(
        [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    )


def embed(e: FreeRingElement, n: int, gen_image: int = 1) -> IntMatrix:
    """Evaluate a one-generator ring element in Z[Z/n], as an n x n block.

    The single generator maps to the cyclic shift raised to ``gen_image``;
    the embedding is linear in ``e`` and multiplicative on products.
    """
    if len(e.alphabet) != 1:
        raise EmbeddingRestrictionError(
            "the cyclic oracle only embeds one-generator ring elements"
        )
    gen = e.alphabet.generators[0]
    rows = [[0] * n for _ in range(n)]
    for word, coeff in e.terms.items():
        k = (word.exponent_sum(gen) * gen_image) % n
        # shift^k has a one at (i, i+k mod n)
        for i in range(n):
            rows[i][(i + k) % n] += coeff
    return IntMatrix.from_rows(rows, cols=n)


def _powers_of_x(n: int) -> FreeRingElement:
    alphabet = Alphabet(["x"])
    x = Word(alphabet, [1])
    terms = {x**k: 1 for k in range(n)}
    return FreeRingElement(alphabet, terms)


def _x_minus_one(n: int) -> FreeRingElement:
    alphabet = Alphabet(["x"])
    x = Word(alphabet, [1])
    return FreeRingElement(alphabet, {x: 1, alphabet.identity(): -1})


def resolution_blocks(n: int) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(theta, boundary, augmentation) blocks of the relation-module sequence
    for <x | x^n>: theta embeds 1 + x + ... + x^(n-1), the boundary embeds
    x - 1, and the augmentation is the all-ones column."""
    theta = embed(_powers_of_x(n), n)
    boundary = embed(_x_minus_one(n), n)
    augmentation = IntMatrix.from_rows([[1] for _ in range(n)], cols=1)
    return theta, boundary, augmentation


@dataclass(frozen=True)
class ResolutionChecks:
    composite_zero: bool
    start_exact: bool
    middle_exact: bool
    end_exact: bool
    augmentation_onto: bool
    theta_rank: int
    boundary_rank: int

    @property
    def ok(self) -> bool:
        return (
            self.composite_zero
            and self.start_exact
            and self.middle_exact
            and self.end_exact
            and self.augmentation_onto
        )


def check_resolution(
    theta: IntMatrix, boundary: IntMatrix, augmentation: IntMatrix, start_rank: int = 1
) -> ResolutionChecks:
    """Exactness bookkeeping for 0 -> C2 -> C1 -> C0 -> Z -> 0.

    The first map is injective when its rank is ``start_rank``: 1 for the
    relation sequence 0 -> Z[G/G_r] -> ZG -> ZG -> Z -> 0, whose theta block
    is a full n x n matrix with the rank-one summand Z[G/G_r] as row space,
    and the row count for a free C2.  Middle and end exactness compare
    kernels against images by rank plus the torsion of the cokernel, never
    by explicit preimage search.  Each matrix is eliminated once and each
    composite formed once.
    """
    maps = (theta, boundary, augmentation)
    cokernels = [cokernel_invariants(m) for m in maps]
    ranks = [m.cols - c.rank for m, c in zip(maps, cokernels)]
    composite_zero = (theta @ boundary).is_zero() and (boundary @ augmentation).is_zero()
    middle_exact = (
        composite_zero and homology_from_cokernel(cokernels[0], ranks[1]).is_trivial
    )
    end_exact = composite_zero and homology_from_cokernel(cokernels[1], ranks[2]).is_trivial
    return ResolutionChecks(
        composite_zero=composite_zero,
        start_exact=ranks[0] == start_rank,
        middle_exact=middle_exact,
        end_exact=end_exact,
        augmentation_onto=cokernels[2].is_trivial,
        theta_rank=ranks[0],
        boundary_rank=ranks[1],
    )


def subdivided_blocks(n: int) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Integer chain maps of the subdivided classifying complex for <x | x^n>.

    One free orbit of 2-cells (the n sectors of the relator polygon), edges =
    original Cayley edges e plus spokes f, vertices = group elements plus one
    coset orbit for the added centre.  d2(sector) = e + f*(x-1);
    d1(e) = v*(x-1); d1(f) = -v + centre.
    """
    s = shift_matrix(n).to_rows()
    eye = IntMatrix.identity(n).to_rows()
    s_minus_i = [[s[i][j] - eye[i][j] for j in range(n)] for i in range(n)]

    d2 = IntMatrix.from_rows(
        [eye[i] + s_minus_i[i] for i in range(n)], cols=2 * n
    )
    d1_rows = []
    for i in range(n):  # edge orbit e
        d1_rows.append(s_minus_i[i] + [0])
    for i in range(n):  # spoke orbit f
        d1_rows.append([-eye[i][j] for j in range(n)] + [1])
    d1 = IntMatrix.from_rows(d1_rows, cols=n + 1)
    eps = IntMatrix.from_rows([[1] for _ in range(n + 1)], cols=1)
    return d2, d1, eps


@dataclass(frozen=True)
class CyclicResolutionReport:
    n: int
    relation_sequence: ResolutionChecks
    subdivided_injective: bool
    subdivided_middle_exact: bool
    subdivided_vertices_exact: bool
    subdivided_onto: bool
    d2_rank: int
    d1_rank: int

    @property
    def subdivided_exact(self) -> bool:
        return (
            self.subdivided_injective
            and self.subdivided_middle_exact
            and self.subdivided_vertices_exact
            and self.subdivided_onto
        )

    @property
    def ok(self) -> bool:
        return self.relation_sequence.ok and self.subdivided_exact

    def to_json(self) -> dict:
        rs = self.relation_sequence
        return {
            "n": self.n,
            "ok": self.ok,
            "relation_sequence": {
                "composite_zero": rs.composite_zero,
                "start_exact": rs.start_exact,
                "middle_exact": rs.middle_exact,
                "end_exact": rs.end_exact,
                "augmentation_onto": rs.augmentation_onto,
                "theta_rank": rs.theta_rank,
                "boundary_rank": rs.boundary_rank,
            },
            "subdivided_complex": {
                "injective": self.subdivided_injective,
                "middle_exact": self.subdivided_middle_exact,
                "vertices_exact": self.subdivided_vertices_exact,
                "augmentation_onto": self.subdivided_onto,
                "d2_rank": self.d2_rank,
                "d1_rank": self.d1_rank,
            },
        }


def verify_cyclic_resolution(n: int) -> CyclicResolutionReport:
    """Exactness of both integer complexes for <x | x^n>, 2 <= n <= MAX_N."""
    if n < 2:
        raise InputFormatError("the cyclic oracle needs n >= 2")
    if n > MAX_N:
        raise ResourceLimitError(f"the cyclic oracle allows n <= {MAX_N}")
    relation = check_resolution(*resolution_blocks(n))
    d2, d1, eps = subdivided_blocks(n)
    subdivided = check_resolution(d2, d1, eps, start_rank=d2.rows)
    return CyclicResolutionReport(
        n=n,
        relation_sequence=relation,
        subdivided_injective=subdivided.start_exact,
        subdivided_middle_exact=subdivided.middle_exact,
        subdivided_vertices_exact=subdivided.end_exact,
        subdivided_onto=subdivided.augmentation_onto,
        d2_rank=subdivided.theta_rank,
        d1_rank=subdivided.boundary_rank,
    )


def cyclic_bredon_homology(
    n: int,
) -> tuple[AbelianGroupInvariants, AbelianGroupInvariants, AbelianGroupInvariants]:
    """(H0, H1, H2) of the Bredon chain complex of the subdivided model.

    Tensoring the free chains down to Z and sending the centre orbit to the
    character lattice of Z/n: the spoke boundary hits -vertex plus the
    induced regular character (1, ..., 1)."""
    if n < 1:
        raise InputFormatError("need n >= 1")
    d2 = IntMatrix.from_rows([[1, 0]], cols=2)
    d1 = IntMatrix.from_rows(
        [
            [0] * (n + 1),  # edge orbit: augmentation of x - 1
            [-1] + [1] * n,  # spoke: -vertex + induced regular character
        ],
        cols=n + 1,
    )
    h0 = cokernel_invariants(d1)
    h1 = homology_invariants(d2, d1)
    h2 = AbelianGroupInvariants.free(kernel_rank(d2))
    return h0, h1, h2

