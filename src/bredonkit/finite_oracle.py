"""Brute-force verification over finite cyclic quotients.

For G = Z/n presented as <x | x^n>, the relation-module sequence and its
subdivided refinement become honest integer block matrices through the
regular representation.  This module builds those matrices from scratch and
checks the exactness of both complexes with one routine, `check_resolution`,
which reads every rank and cokernel off one elimination per matrix.  It is
an independent cross-check of the homology pipeline at desk scale.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import InputFormatError, ResourceLimitError
from .int_linalg import IntMatrix, cokernel_invariants, homology_from_cokernel

# The n x n blocks have O(n^2) entries, mostly zero; they are built as their
# non-zeros, and their eliminations touch only those: `bredonkit oracle
# --n 400` takes 0.2-0.3 s and peaks at 17 MiB RSS as a subprocess (Python
# 3.11.7, shared 2-vCPU host), while n = 10^8 would exhaust memory while
# building the first block.  Larger n is refused before any matrix is built.
MAX_N = 400


def _circulant(
    n: int, coeffs: dict[int, int], rows: int | None = None, shift: int = 0
) -> list[dict[int, int]]:
    """The first ``rows`` rows (all n by default) of the n x n circulant block
    with coeffs[k] at (i, i + k mod n), the regular representation of
    sum coeffs[k] x^k in Z[Z/n], as {column + shift: value} rows of
    non-zeros in column order."""
    block = []
    for i in range(n if rows is None else rows):
        row: dict[int, int] = {}
        for k, c in coeffs.items():
            j = (i + k) % n
            row[j] = row.get(j, 0) + c
        block.append({shift + j: row[j] for j in sorted(row) if row[j]})
    return block


_X_MINUS_ONE = {1: 1, 0: -1}


def resolution_blocks(n: int) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(theta, boundary, augmentation) blocks of the relation-module sequence
    0 -> Z[G/G] -> ZG -> ZG -> Z -> 0 for <x | x^n>: theta is the 1 x n norm
    row, sending the single coset to 1 + x + ... + x^(n-1), the boundary
    embeds x - 1, and the augmentation is the all-ones column."""
    theta = IntMatrix(1, n, _circulant(n, dict.fromkeys(range(n), 1), rows=1))
    boundary = IntMatrix(n, n, _circulant(n, _X_MINUS_ONE))
    augmentation = IntMatrix.from_rows([[1]] * n, cols=1)
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
    theta: IntMatrix, boundary: IntMatrix, augmentation: IntMatrix
) -> ResolutionChecks:
    """Exactness bookkeeping for 0 -> C2 -> C1 -> C0 -> Z -> 0.

    The first map is injective when its rank equals its row count.  Middle
    and end exactness compare kernels against images by rank plus the
    torsion of the cokernel, never by explicit preimage search.  Each matrix
    is eliminated once and each composite formed once.
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
        start_exact=ranks[0] == theta.rows,
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
    d2 = IntMatrix(
        n,
        2 * n,
        [a | b for a, b in zip(_circulant(n, {0: 1}), _circulant(n, _X_MINUS_ONE, shift=n))],
    )
    d1 = IntMatrix(
        2 * n,
        n + 1,
        _circulant(n, _X_MINUS_ONE)  # edge orbit e
        + [row | {n: 1} for row in _circulant(n, {0: -1})],  # spoke orbit f
    )
    eps = IntMatrix.from_rows([[1]] * (n + 1), cols=1)
    return d2, d1, eps


@dataclass(frozen=True)
class CyclicResolutionReport:
    n: int
    relation_sequence: ResolutionChecks
    subdivided: ResolutionChecks

    @property
    def d2_rank(self) -> int:
        return self.subdivided.theta_rank

    @property
    def d1_rank(self) -> int:
        return self.subdivided.boundary_rank

    @property
    def ok(self) -> bool:
        return self.relation_sequence.ok and self.subdivided.ok

    def to_json(self) -> dict:
        sd = self.subdivided
        return {
            "n": self.n,
            "ok": self.ok,
            "relation_sequence": asdict(self.relation_sequence),
            "subdivided_complex": {
                "injective": sd.start_exact,
                "middle_exact": sd.middle_exact,
                "vertices_exact": sd.end_exact,
                "augmentation_onto": sd.augmentation_onto,
                "d2_rank": sd.theta_rank,
                "d1_rank": sd.boundary_rank,
            },
        }


def verify_cyclic_resolution(n: int) -> CyclicResolutionReport:
    """Exactness of both integer complexes for <x | x^n>, 2 <= n <= MAX_N."""
    if n < 2:
        raise InputFormatError("the cyclic oracle needs n >= 2")
    if n > MAX_N:
        raise ResourceLimitError(f"the cyclic oracle allows n <= {MAX_N}")
    return CyclicResolutionReport(
        n=n,
        relation_sequence=check_resolution(*resolution_blocks(n)),
        subdivided=check_resolution(*subdivided_blocks(n)),
    )

