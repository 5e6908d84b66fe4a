"""Exact invariant factors of integer matrices and abelian-group invariants.

An `IntMatrix` stores only its non-zeros, row by row, because the boundary
matrices of the toolkit are mostly zero: an HNN split has thousands of
columns and about two non-zeros in each.  One elimination,
`invariant_factors`, yields the Smith normal form diagonal; rank, cokernels
and homology are all read off it.  It keeps a column index, the live rows
of each column, so a pivot's column is read rather than searched.  While a
unit is left it pivots on one: a ±1 of the first row holding one, in the
column with the fewest rows, which clears the column with no division.
Only when none is left does it pivot on the smallest entry and reduce by
remainders.  It eliminates to some diagonal and then restores the
divisibility chain by gcd/lcm exchanges on the non-unit entries; there is
no stain folding.  All arithmetic is arbitrary-precision.  A matrix encodes
a map Z^rows -> Z^cols acting by row-vector-times-matrix, so rows index
relators and columns index generators throughout the toolkit.
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
            support = [j for j, v in acc.items() if v]
            support.sort()
            out.append({j: acc[j] for j in support})
        return IntMatrix(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return not any(self.nonzeros)


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """The min(rows, cols) diagonal entries of the Smith normal form of M.

    The entries are non-negative, form the divisibility chain d1 | d2 | ...,
    and the zeros come last.  No transforms are kept, since every invariant
    in the toolkit is read off the diagonal alone.

    The rows of M are copied into working dicts; M is left as it is.  A
    column index maps each column to the set of its live rows; it follows
    every fill-in, cancellation and deleted row, so no step scans the rows
    for a column.  Each step scans the live rows in index order:
    - While a unit is left, the pivot is a unit of the first row holding one,
      the ±1 of that row whose column has the fewest rows.  Every other row
      of the column drops its entry e and subtracts e * s times the rest of
      the pivot row, s being the pivot; the pivot row and column then leave.
      No division is made and no remainder kept.
    - Otherwise the pivot is the smallest absolute value, the first met.
      Each row of its column subtracts the quotient's multiple of the pivot
      row and keeps its remainder there.  Once the pivot is alone in its
      column, the column operations reduce its row modulo it, and the pivot
      row leaves once nothing else is left in it.  A surviving remainder is
      smaller than the pivot, so the next step pivots on a smaller entry,
      which keeps the remainders shrinking towards the gcd and tames entry
      growth.
    The elimination is deterministic and only reaches some diagonal; a
    gcd/lcm pass over the non-unit entries then restores the divisibility
    chain.  An emptied row drops out; nothing is ever swapped.
    """
    rows = {i: dict(row) for i, row in enumerate(m.nonzeros) if row}
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            if j in cols:
                cols[j].add(i)
            else:
                cols[j] = {i}

    def subtract(i: int, q: int, rest: dict[int, int]) -> None:
        """Row i -= q * rest, keeping the column index."""
        row = rows[i]
        for j, v in rest.items():
            e = row.get(j)
            if e is None:
                row[j] = -q * v
                cols[j].add(i)
            else:
                e -= q * v
                if e:
                    row[j] = e
                else:
                    del row[j]
                    cols[j].remove(i)
        if not row:
            del rows[i]

    units = 0
    diag = []
    while rows:
        for pi, top in rows.items():
            values = top.values()
            if 1 in values or -1 in values:
                break
        else:
            top = None
        if top is not None:
            # A unit pivot clears its column with no division; then its row
            # and column leave.
            fewest = None
            for j, e in top.items():
                if (e == 1 or e == -1) and (fewest is None or len(cols[j]) < fewest):
                    fewest, pj = len(cols[j]), j
            s = top.pop(pj)
            del rows[pi]
            for j in top:
                cols[j].remove(pi)
            column = cols.pop(pj)
            column.remove(pi)
            for i in column:
                subtract(i, rows[i].pop(pj) * s, top)
            units += 1
            continue
        # No unit is left: pivot on the smallest entry.
        pivot = None
        for i, row in rows.items():
            least = min(map(abs, row.values()))
            if pivot is None or least < pivot:
                pivot, pi, top = least, i, row
        for pj, s in top.items():
            if s == pivot or s == -pivot:
                break
        # Row i -= q * top leaves the remainder of its entry in the pivot
        # column modulo the pivot s: q is the quotient up to the sign of s.
        rest = {j: v for j, v in top.items() if j != pj}
        cleared = True
        for i in [i for i in cols[pj] if i != pi]:
            row = rows[i]
            q, r = divmod(row[pj], pivot)
            if r:
                row[pj] = r
                cleared = False
            else:
                del row[pj]
                cols[pj].remove(i)
            if q:
                subtract(i, q if s > 0 else -q, rest)
        # While a remainder is left in the pivot's column, the column
        # operations wait: the next pivot is at most that remainder, and its
        # row operations come first.
        if not cleared:
            continue
        # The pivot is alone in its column, so the column operations reduce
        # the other entries of its row modulo the pivot.
        finished = True
        for j, v in rest.items():
            r = v % pivot
            if r:
                top[j] = r
                finished = False
            else:
                del top[j]
                cols[j].remove(pi)
        if finished:
            diag.append(pivot)
            del rows[pi]
            del cols[pj]
    # Units already divide everything; the chain may turn up more of them.
    factors = _divisibility_chain(diag)
    return (1,) * units + tuple(factors) + (0,) * (min(m.rows, m.cols) - units - len(diag))


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
        return AbelianGroupInvariants(total_rank, tuple([d for d in merged if d != 1]))

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
    torsion = tuple([e for e in nonzero if e > 1])
    return AbelianGroupInvariants(free_rank, torsion)


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
