"""Exact invariant factors of integer matrices and abelian-group invariants.

An `IntMatrix` stores only its non-zeros, row by row, because the boundary
matrices of the toolkit are mostly zero: an HNN split has thousands of
columns and about two non-zeros in each.  One elimination,
`invariant_factors`, yields the Smith normal form diagonal; rank, cokernels
and homology are all read off it.  It eliminates to some diagonal, pivoting
on a unit whenever one is left, and then restores the divisibility chain by
gcd/lcm exchanges on the non-unit entries; there is no stain folding.  All
arithmetic is arbitrary-precision.  A matrix encodes a map Z^rows -> Z^cols
acting by row-vector-times-matrix, so rows index relators and columns index
generators throughout the toolkit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd
from typing import Sequence


@dataclass(frozen=True)
class IntMatrix:
    """Row i is nonzeros[i], a {column: value} dict of its non-zeros in
    increasing column order; neither the list nor a row changes once built.
    No tuples: CPython keeps up to 2000 freed tuples of each length below 20,
    so short-lived short tuples grow the benchmark's RSS by up to 4 MB."""

    rows: int
    cols: int
    nonzeros: list[dict[int, int]]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0 or len(self.nonzeros) != self.rows:
            raise ValueError("dimensions do not match the stored rows")

    @staticmethod
    def check_shape(rows: int, cols: int, count: int) -> None:
        """Refuse negative dimensions or a row-major entry count off rows * cols."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if count != rows * cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        nc = len(rows[0]) if rows else cols
        if nc is None:
            raise ValueError("row-less matrix needs an explicit column count")
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != nc:
            raise ValueError("explicit column count disagrees with rows")
        values = (list(map(int, r)) for r in rows)
        return cls(len(rows), nc, [dict(compress(enumerate(v), v)) for v in values])

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Sequence[int]) -> "IntMatrix":
        """The matrix of the row-major `entries`."""
        cls.check_shape(rows, cols, len(entries))
        return cls.from_rows([entries[i * cols : (i + 1) * cols] for i in range(rows)], cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for row in self.nonzeros:
            acc: dict[int, int] = {}
            for k, a in row.items():
                for j, b in other.nonzeros[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: acc[j] for j in sorted(acc) if acc[j]})
        return IntMatrix(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return not any(self.nonzeros)


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """The min(rows, cols) diagonal entries of the Smith normal form of M.

    The entries are non-negative, form the divisibility chain d1 | d2 | ...,
    and the zeros come last.  Each pivot is the smallest non-zero absolute
    value, the first met scanning the rows in index order; the scan stops at
    the first unit, which nothing beats, so the elimination is fully
    deterministic.  It only reaches some diagonal; a gcd/lcm pass over the
    non-unit entries then restores the divisibility chain.  No transforms
    are kept, since every invariant in the toolkit is read off the diagonal
    alone.

    The rows of M are copied into working dicts; M is left as it is.  A
    pivot cycle scans the live rows twice, once to pick the pivot and once
    to find the rows of its column, and a row operation touches the pivot
    row's support.
    Column operations wait until the pivot is alone in its column.  A
    finished pivot row is deleted and an emptied row drops out; nothing is
    ever swapped.
    """
    rows = {i: dict(row) for i, row in enumerate(m.nonzeros) if row}

    def pick_pivot():
        low = None
        for i, row in rows.items():
            least = min(map(abs, row.values()))
            if low is None or least < low:
                low, pi, top = least, i, row
                if low == 1:
                    break
        for j, e in top.items():
            if e == low or e == -low:
                return pi, j

    diag = []
    while rows:
        pi, pj = pick_pivot()
        while True:
            # Re-selecting the smallest entry every cycle keeps remainders
            # shrinking towards the gcd and tames entry growth.
            top = rows[pi]
            pivot = top[pj]
            column = [i for i, row in rows.items() if pj in row]
            if len(column) == 1 and (pivot == 1 or pivot == -1):
                pivot = 1  # a unit alone in its column divides its row
                break
            if pivot < 0:
                top = rows[pi] = {j: -v for j, v in top.items()}
                pivot = -pivot
            # Row i -= q * top, with the pivot column's remainder set apart.
            rest = [(j, v) for j, v in top.items() if j != pj]
            cleared = True
            for i in column:
                if i == pi:
                    continue
                row = rows[i]
                q, r = divmod(row[pj], pivot)
                if r:
                    row[pj] = r
                    cleared = False
                else:
                    del row[pj]
                if not q:
                    continue
                for j, v in rest:
                    e = row.get(j)
                    if e is None:
                        row[j] = -q * v
                    else:
                        e -= q * v
                        if e:
                            row[j] = e
                        else:
                            del row[j]
                if not row:
                    del rows[i]
            if cleared:
                # The pivot is alone in its column, so the column operations
                # reduce the other entries of its row modulo the pivot.
                if pivot == 1:
                    break
                remainders = [(j, v % pivot) for j, v in rest]
                if not any(r for _, r in remainders):
                    break
                for j, r in remainders:
                    if r:
                        top[j] = r
                    else:
                        del top[j]
            # A remainder below the pivot survives.  While one is left in the
            # pivot's column, the column operations wait: the next pivot is
            # at most that remainder, and its row operations come first.
            pi, pj = pick_pivot()
        diag.append(pivot)
        del rows[pi]
    # Units already divide everything.
    factors = _divisibility_chain([d for d in diag if d != 1])
    units = len(diag) - len(factors)
    return (1,) * units + tuple(factors) + (0,) * (min(m.rows, m.cols) - len(diag))


def _divisibility_chain(factors: list[int]) -> list[int]:
    """The invariant factors of the diagonal matrix of positive `factors`.

    A diagonal matrix keeps its cokernel when a pair (x, y) becomes
    (gcd, lcm).  Sweeping every pair sorts each prime's exponents, which is
    the divisibility chain d1 | d2 | ...; units come first.  The list is
    changed in place and returned.
    """
    for i, x in enumerate(factors):
        for j in range(i + 1, len(factors)):
            y = factors[j]
            if y % x:
                g = gcd(x, y)
                factors[j] = x // g * y
                factors[i] = x = g
    return factors


def rank(m: IntMatrix) -> int:
    return sum(1 for d in invariant_factors(m) if d)


@dataclass(frozen=True)
class AbelianGroupInvariants:
    """A finitely generated abelian group: free rank plus invariant factors.

    The torsion list is the canonical divisibility chain d1 | d2 | ... with
    every entry >= 2; Z^r alone is (r, ()).
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        previous = None
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion entries must be >= 2")
            if previous is not None and d % previous:
                raise ValueError("torsion entries must form a divisibility chain")
            previous = d

    @classmethod
    def trivial(cls) -> "AbelianGroupInvariants":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "AbelianGroupInvariants":
        return cls(rank, ())

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def direct_sum(self, *others: "AbelianGroupInvariants") -> "AbelianGroupInvariants":
        groups = (self,) + others
        total_rank = sum(g.rank for g in groups)
        merged = _divisibility_chain([d for g in groups for d in g.torsion])
        return AbelianGroupInvariants(total_rank, tuple(d for d in merged if d != 1))

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, obj: dict) -> "AbelianGroupInvariants":
        rank, torsion = obj["rank"], tuple(obj.get("torsion", ()))
        # bool is a subclass of int, and int() would also take floats and strings.
        if any(type(v) is not int for v in (rank, *torsion)):
            raise ValueError("rank and torsion entries must be JSON integers")
        return cls(rank, torsion)


def cokernel_invariants(m: IntMatrix) -> AbelianGroupInvariants:
    """Invariants of Z^cols / row-space(M)."""
    nonzero = [d for d in invariant_factors(m) if d]
    free_rank = m.cols - len(nonzero)
    torsion = tuple(e for e in nonzero if e > 1)
    return AbelianGroupInvariants(free_rank, torsion)


def kernel_rank(m: IntMatrix) -> int:
    """Rank of the kernel of Z^rows -> Z^cols; kernels of integer maps are free."""
    return m.rows - rank(m)


def homology_invariants(d_in: IntMatrix, d_out: IntMatrix) -> AbelianGroupInvariants:
    """Invariants of ker(d_out) / im(d_in) for a two-step complex.

    Raises ValueError unless d_in * d_out = 0.
    """
    if d_in.cols != d_out.rows:
        raise ValueError("chain modules do not line up")
    if not (d_in @ d_out).is_zero():
        raise ValueError("not a chain complex: composite is non-zero")
    return homology_from_cokernel(cokernel_invariants(d_in), rank(d_out))


def homology_from_cokernel(
    coker_in: AbelianGroupInvariants, rank_out: int
) -> AbelianGroupInvariants:
    """ker(d_out) / im(d_in) from coker(d_in) and rank(d_out).

    Valid only when d_in * d_out = 0, which the caller has checked.  Since
    Z^b/ker(d_out) is torsion-free, the torsion of the subquotient is that of
    coker(d_in).  Its free rank, nullity(d_out) - rank(d_in), equals
    coker.rank - rank(d_out) because rank(d_in) = b - coker.rank.
    """
    return AbelianGroupInvariants(coker_in.rank - rank_out, coker_in.torsion)
