"""Exact integer matrix normal forms and abelian-group invariants.

All arithmetic is arbitrary-precision; there are no modular shortcuts.  A
matrix encodes a map Z^rows -> Z^cols acting by row-vector-times-matrix, so
rows index relators and columns index generators throughout the toolkit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        nr = len(rows)
        if nr == 0:
            if cols is None:
                raise ValueError("row-less matrix needs an explicit column count")
            return cls(0, cols, ())
        nc = len(rows[0])
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != nc:
            raise ValueError("explicit column count disagrees with rows")
        return cls(nr, nc, tuple(int(e) for row in rows for e in row))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "IntMatrix":
        n = len(diag)
        return cls(n, n, tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        nc = self.cols
        return [list(self.entries[i * nc : (i + 1) * nc]) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        a = self.to_rows()
        b = other.to_rows()
        out = []
        for i in range(self.rows):
            ai = a[i]
            row = [0] * other.cols
            for k, aik in enumerate(ai):
                if aik:
                    bk = b[k]
                    for j in range(other.cols):
                        row[j] += aik * bk[j]
            out.extend(row)
        return IntMatrix(self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(self.entry(i, i) for i in range(min(self.rows, self.cols)))


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*M*V = D, U and V unimodular, D diagonal.

    The diagonal is non-negative and satisfies d1 | d2 | ... .  Pivots are
    chosen as the smallest non-zero absolute value, ties broken at the lowest
    (row, col); the elimination is fully deterministic.
    """
    nr, nc = m.rows, m.cols
    a = m.to_rows()
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_negate(i):
        a[i] = [-e for e in a[i]]
        u[i] = [-e for e in u[i]]

    def row_submul(i, j, q):
        # row i -= q * row j
        ai, aj = a[i], a[j]
        for k in range(nc):
            ai[k] -= q * aj[k]
        ui, uj = u[i], u[j]
        for k in range(nr):
            ui[k] -= q * uj[k]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def col_submul(i, j, q):
        # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def pick_pivot(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                e = a[i][j]
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
        return best

    t = 0
    while t < nr and t < nc:
        best = pick_pivot(t)
        if best is None:
            break
        while True:
            # Re-selecting the smallest entry every cycle keeps remainders
            # shrinking towards the gcd and tames entry growth.
            _, pi, pj = best
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            if a[t][t] < 0:
                row_negate(t)
            pivot = a[t][t]
            leftover = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // pivot
                    if q:
                        row_submul(i, t, q)
                    leftover = leftover or a[i][t] != 0
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // pivot
                    if q:
                        col_submul(j, t, q)
                    leftover = leftover or a[t][j] != 0
            if leftover:
                best = pick_pivot(t)  # some remainder < pivot survives
                continue
            stain = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % pivot:
                        stain = i
                        break
                if stain is not None:
                    break
            if stain is None:
                break
            # Fold the offending row into row t so the next cycle reaches
            # gcd(pivot, entry); guarantees the divisibility chain.
            row_submul(t, stain, -1)
            best = pick_pivot(t)
        t += 1

    U = IntMatrix.from_rows(u, cols=nr)
    D = IntMatrix.from_rows(a, cols=nc)
    V = IntMatrix.from_rows(v, cols=nc)
    return U, D, V


def rank(m: IntMatrix) -> int:
    _, d, _ = smith_normal_form(m)
    return sum(1 for e in d.diagonal_entries() if e)


def determinant(m: IntMatrix) -> int:
    """Exact determinant of a square matrix (fraction-free Bareiss)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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
        merged = [d for g in groups for d in g.torsion]
        if not merged:
            return AbelianGroupInvariants(total_rank, ())
        # Renormalise to invariant-factor form via the SNF of the diagonal stack.
        torsion = cokernel_invariants(IntMatrix.diagonal(merged)).torsion
        return AbelianGroupInvariants(total_rank, torsion)

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
        return cls(int(obj["rank"]), tuple(int(d) for d in obj.get("torsion", ())))


def cokernel_invariants(m: IntMatrix) -> AbelianGroupInvariants:
    """Invariants of Z^cols / row-space(M)."""
    _, d, _ = smith_normal_form(m)
    diag = d.diagonal_entries()
    nonzero = [e for e in diag if e]
    free_rank = m.cols - len(nonzero)
    torsion = tuple(e for e in nonzero if e > 1)
    return AbelianGroupInvariants(free_rank, torsion)


def kernel_rank(m: IntMatrix) -> int:
    """Rank of the kernel of Z^rows -> Z^cols; kernels of integer maps are free."""
    return m.rows - rank(m)


def homology_invariants(d_in: IntMatrix, d_out: IntMatrix) -> AbelianGroupInvariants:
    """Invariants of ker(d_out) / im(d_in) for a two-step complex.

    Requires d_in * d_out = 0.  Since Z^b/ker(d_out) is torsion-free, the
    torsion of the subquotient equals the torsion of coker(d_in), and the
    rank is nullity(d_out) - rank(d_in).
    """
    if d_in.cols != d_out.rows:
        raise ValueError("chain modules do not line up")
    if not (d_in @ d_out).is_zero():
        raise ValueError("not a chain complex: composite is non-zero")
    # rank(d_in) = d_in.cols - coker.rank, so the free rank of the homology,
    # nullity(d_out) - rank(d_in), is coker.rank - rank(d_out).
    coker = cokernel_invariants(d_in)
    return AbelianGroupInvariants(coker.rank - rank(d_out), coker.torsion)
