"""Shared test utilities: random inputs and independent brute-force oracles.

Everything here is deliberately naive and separate from the library code so
it can serve as a second opinion.
"""

from __future__ import annotations

import random
import signal
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import gcd

from bredonkit import (
    AbelianGroupInvariants,
    Alphabet,
    FreeRingElement,
    IntMatrix,
    Presentation,
    Word,
    cokernel_invariants,
    exponent_matrix,
    homology_invariants,
    parse_word,
    rank,
    total_derivative,
)
from bredonkit import presentation
from bredonkit.errors import DegenerateRelatorError, UnknownGeneratorError
from bredonkit.free_group import _conjugacy_class_key, _cyclic_span, _runs
from bredonkit.int_linalg import _divisibility_chain


def exponent_sum(w: Word, gen: str | int) -> int:
    """The exponent sum of one generator, given by name or index, in w."""
    target = w.alphabet.resolve(gen) + 1
    return sum(1 if s == target else -1 for s in w.code if abs(s) == target)


def fox_derivative(w: Word, gen: str | int) -> FreeRingElement:
    """The Fox derivative of w with respect to one generator."""
    return total_derivative(w)[w.alphabet.resolve(gen)]


# Elements of ZF as plain {Word: int} dicts with no zero coefficient.


def zf_add(*elements) -> dict[Word, int]:
    """The sum in ZF of {Word: int} mappings."""
    out: dict[Word, int] = {}
    for e in elements:
        for w, c in e.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def zf_mul(a, b) -> dict[Word, int]:
    """The product in ZF of two {Word: int} mappings."""
    return zf_add(*({u * v: c * k} for u, c in a.items() for v, k in b.items()))


def fundamental_identity_check(w: Word) -> bool:
    """Check sum_i (dw/dx_i) * (x_i - 1) == w - 1 in ZF, which holds for
    every word."""
    one = w.alphabet.identity()
    total = zf_add(
        *(
            zf_mul(deriv.terms, {Word(w.alphabet, (g,)): 1, one: -1})
            for g, deriv in enumerate(total_derivative(w), 1)
        )
    )
    # Built by addition: for the identity word the two terms cancel.
    return total == zf_add({w: 1}, {one: -1})


def random_word(rng: random.Random, alphabet: Alphabet, length: int) -> Word:
    n = len(alphabet)
    items = []
    for _ in range(length):
        idx = rng.randrange(n) + 1
        items.append(idx if rng.random() < 0.5 else -idx)
    return Word(alphabet, items)


def random_alphabet(rng: random.Random, max_generators: int = 5) -> Alphabet:
    n = rng.randint(1, max_generators)
    return Alphabet([f"g{i}" for i in range(n)])


def naive_random_order_reduce(rng: random.Random, code: list[int]) -> tuple[int, ...]:
    """Cancel inverse pairs in random order until none remain."""
    work = list(code)
    while True:
        spots = [i for i in range(len(work) - 1) if work[i] == -work[i + 1]]
        if not spots:
            return tuple(work)
        i = rng.choice(spots)
        del work[i : i + 2]


def cyclic_core(w: Word) -> tuple[Word, Word]:
    """Shortest u and cyclically reduced c with w == u * c * u^-1."""
    i, j = _cyclic_span(w.code)
    return Word(w.alphabet, w.code[:i]), Word(w.alphabet, w.code[i:j])


def root_by_divisor_search(w: Word) -> tuple[Word, int]:
    """Exhaust divisors of the cyclic core's length, largest exponent first."""
    u, core = cyclic_core(w)
    length = len(core)
    for k in range(length, 0, -1):
        if length % k:
            continue
        candidate = Word(w.alphabet, core.code[: length // k])
        if candidate**k == core:
            return u * candidate * u.inverse(), k
    raise AssertionError("unreachable: k = 1 always works")


def fox_by_definition(w: Word) -> list[dict[Word, int]]:
    """All Fox derivatives by the left-to-right rule, as {Word: int} dicts.

    Reading w = u * s letter by letter, d(u * s)/dx = du/dx + u * ds/dx, with
    dx/dx = 1 and d(x^-1)/dx = -x^-1.
    """
    alphabet = w.alphabet
    terms: list[dict[Word, int]] = [{} for _ in alphabet]
    prefix = alphabet.identity()
    for s in w.code:
        letter = Word(alphabet, [s])
        term = prefix if s > 0 else prefix * letter
        slot = terms[abs(s) - 1]
        slot[term] = slot.get(term, 0) + (1 if s > 0 else -1)
        prefix = prefix * letter
    return [zf_add(t) for t in terms]


def rotation_by_slices(a: tuple, b: tuple) -> bool:
    """Compare `a` with every length-len(a) window of b + b."""
    if len(a) != len(b):
        return False
    doubled = b + b
    return not a or any(doubled[i : i + len(a)] == a for i in range(len(b)))


def hnn_image_by_substitution(code, d: int, nu: int) -> list[tuple[int, int]]:
    """Runs in F = <x, y, z1..zd> of a word over the full HNN alphabet
    x, y, z1_0..z1_nu, .., zd_nu, by the homomorphism x -> x, y -> y and
    z<j>_<i> -> y^i z_j y^-i."""
    f = Alphabet(["x", "y", *(f"z{j}" for j in range(1, d + 1))])
    y = Word(f, [2])
    images = [Word(f, [1]), y]
    images += [y**i * Word(f, [2 + j]) * y**-i for j in range(1, d + 1) for i in range(nu + 1)]
    full = Alphabet([f"g{k}" for k in range(len(images))])
    return _runs(Word(full, code).substitute(images).code)


def hnn_split_by_names(d: int, nu: int) -> tuple[Alphabet, Alphabet, list[Word]]:
    """The base alphabet x, z1_0..zd_nu, the full alphabet, which inserts y
    after x, and the d * nu z-conjugation relators y*z<j>_<i-1>*y^-1*z<j>_<i>^-1
    level by level, each parsed from its name over the full alphabet."""
    zs = [f"z{j}_{i}" for j in range(1, d + 1) for i in range(nu + 1)]
    full = Alphabet(["x", "y", *zs])
    relators = [
        parse_word(f"y*z{j}_{i - 1}*y^-1*z{j}_{i}^-1", full)
        for i in range(1, nu + 1)
        for j in range(1, d + 1)
    ]
    return Alphabet(["x", *zs]), full, relators


class _ExpandingParser(presentation._Parser):
    """The presentation grammar read the long way: every power and commutator
    is spelled out letter by letter, the letter budget counts the spelled-out
    letters, and each relator is freely reduced only at the end, by `Word()`."""

    def parse_word(self, alphabet: Alphabet) -> list[int]:
        code = self.parse_term(alphabet)
        while True:
            at = self.pos
            tok = self.peek()
            if tok == "*":
                self.take()
            elif presentation._kind(tok) not in ("IDENT", "(", "["):
                return code
            term = self.parse_term(alphabet)
            if len(code) + len(term) > presentation.MAX_LETTERS:
                raise self.budget_error(at)
            code += term

    def parse_term(self, alphabet: Alphabet) -> list[int]:
        code = self.parse_factor(alphabet)
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            at = self.pos
            digits = self.expect("INT")
            if len(digits) > presentation._EXPONENT_DIGITS:
                digits = digits.lstrip("0") or "0"
                if len(digits) > presentation._EXPONENT_DIGITS:
                    raise self.error(
                        at, f"exponent longer than {presentation._EXPONENT_DIGITS} digits"
                    )
            exp = sign * int(digits)
            if exp == 0:
                return []
            if exp < 0:
                code = [-s for s in reversed(code)]
                exp = -exp
            if len(code) * exp > presentation.MAX_LETTERS:
                raise self.budget_error(at)
            code = code * exp
        return code

    def parse_factor(self, alphabet: Alphabet) -> list[int]:
        at = self.pos
        tok = self.take()
        kind = presentation._kind(tok)
        if kind == "IDENT":
            try:
                return [alphabet.resolve(tok) + 1]
            except UnknownGeneratorError:
                raise self.error(at, f"unknown generator {tok!r}", UnknownGeneratorError) from None
        if kind in ("(", "["):
            self.depth += 1
            if self.depth > presentation.MAX_NESTING:
                raise self.error(at, f"brackets nested more than {presentation.MAX_NESTING} deep")
            if kind == "(":
                code = self.parse_word(alphabet)
                self.expect(")")
            else:
                a = self.parse_word(alphabet)
                self.expect(",")
                b = self.parse_word(alphabet)
                self.expect("]")
                if 2 * (len(a) + len(b)) > presentation.MAX_LETTERS:
                    raise self.budget_error(at)
                code = a + b + [-s for s in reversed(a)] + [-s for s in reversed(b)]
            self.depth -= 1
            return code
        raise self.error(at, f"expected a word, found {tok or 'end of input'!r}")

    def parse_presentation(self) -> tuple[Alphabet, list[Word]]:
        self.expect("<")
        names = [self.expect("IDENT")]
        while self.peek() == ",":
            self.take()
            names.append(self.expect("IDENT"))
        alphabet = Alphabet(names)
        self.expect("|")
        relators, starts, letters = [], [], 0
        while True:
            starts.append(self.pos)
            code = self.parse_word(alphabet)
            letters += len(code)
            if letters > presentation.MAX_LETTERS:
                raise self.budget_error(starts[-1])
            relators.append(Word(alphabet, code))
            if self.peek() != ",":
                break
            self.take()
        self.expect(">")
        self.expect("EOF")
        for i, (rel, start) in enumerate(zip(relators, starts)):
            if rel.is_identity:
                line, col = self.where(start)
                raise DegenerateRelatorError(
                    f"relator {i} reduces to the identity (line {line}, column {col})"
                )
        return alphabet, relators


def parse_by_expansion(text: str) -> Presentation:
    """Presentation text without `!torsion` lines, each relator spelled out
    in full before it is reduced."""
    alphabet, relators = _ExpandingParser(text).parse_presentation()
    return Presentation(alphabet, tuple(relators))


def conjugate_into_cyclic_by_keys(expr: tuple, generator: tuple) -> bool:
    """(H2)'s test by class keys alone: is the conjugate-basis word `expr`
    conjugate to a power of `generator`?"""
    i, j = _cyclic_span(expr)
    rcore = expr[i:j]
    i, j = _cyclic_span(generator)
    gcore = generator[i:j]
    if not rcore:
        return True
    if not gcore or len(rcore) % len(gcore):
        return False
    power = gcore * (len(rcore) // len(gcore))
    return _conjugacy_class_key(rcore) == _conjugacy_class_key(power)


def power_by_multiplication(w: Word, k: int) -> Word:
    base = w if k >= 0 else w.inverse()
    result = w.alphabet.identity()
    for _ in range(abs(k)):
        result = result * base
    return result


def substitute_by_multiplication(w: Word, images) -> Word:
    """Multiply the images of w's letters together one letter at a time."""
    result = Word(images[0].alphabet if images else w.alphabet, ())
    for s in w.code:
        image = images[abs(s) - 1]
        result = result * (image if s > 0 else image.inverse())
    return result


def character_count(n: int) -> int:
    """Number of irreducible complex characters of Z/n.

    Enumerated explicitly: character k sends the generator to the k-th n-th
    root of unity, recorded as the exponent tuple (k*j mod n)_j.
    """
    return len({tuple((k * j) % n for j in range(n)) for k in range(n)})


def kernel_rank(m: IntMatrix) -> int:
    """Rank of the kernel of Z^rows -> Z^cols; kernels of integer maps are free."""
    return m.rows - rank(m)


def cyclic_bredon_homology(
    n: int,
) -> tuple[AbelianGroupInvariants, AbelianGroupInvariants, AbelianGroupInvariants]:
    """(H0, H1, H2) of the Bredon chain complex of the subdivided model of
    <x | x^n>.

    Tensoring the free chains down to Z and sending the centre orbit to the
    character lattice of Z/n: the spoke boundary hits -vertex plus the
    induced regular character (1, ..., 1)."""
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


# A finite graph of finite cyclic groups: `orders[v]` is the order of the
# vertex group Z/orders[v], and each edge (tail, head, e) carries Z/e, which
# sits in each end's Z/v as the multiples of v/e.  The group acts on its
# Bass-Serre tree with finite stabilisers, so the tree is a 1-dimensional
# model of its classifying space for proper actions.


def tree_bredon_complex(orders: list[int], edges: list[tuple[int, int, int]]) -> IntMatrix:
    """d1 : C1 -> C0 of the Bredon chain complex of the tree with
    coefficients in the representation ring: C1 = sum over edges of
    R_C(Z/e), C0 = sum over vertices of R_C(Z/v), on the character bases,
    and d1 = Ind(edge -> head) - Ind(edge -> tail).  Ind takes the character
    a of Z/e to the sum of the characters b of Z/v with b = a (mod e)."""
    offsets = [0]
    for v in orders:
        offsets.append(offsets[-1] + v)
    rows = []
    for tail, head, e in edges:
        for a in range(e):
            row: dict[int, int] = {}
            for vertex, sign in ((head, 1), (tail, -1)):
                for b in range(a, orders[vertex], e):
                    j = offsets[vertex] + b
                    row[j] = row.get(j, 0) + sign
            rows.append({j: row[j] for j in sorted(row) if row[j]})
    return IntMatrix(len(rows), offsets[-1], rows)


def tree_bredon_homology(
    orders: list[int], edges: list[tuple[int, int, int]]
) -> tuple[AbelianGroupInvariants, AbelianGroupInvariants, AbelianGroupInvariants]:
    """(H0, H1, H2) of the graph of groups from its Bass-Serre tree:
    H0 = coker d1, H1 = ker d1 (free), and H2 = 0."""
    d1 = tree_bredon_complex(orders, edges)
    h1 = AbelianGroupInvariants.free(kernel_rank(d1))
    return cokernel_invariants(d1), h1, AbelianGroupInvariants.trivial()


def graph_of_groups_text(orders: list[int], edges: list[tuple[int, int, int]]) -> str:
    """A presentation of the graph of groups, for a connected graph: one
    generator a<v> per vertex and t<k> per edge k outside the spanning tree
    that the edges grow in order, the relators a<v>^orders[v], and for each
    edge with a non-trivial group one relator identifying the two images of
    its generator, a<tail>^(orders[tail]/e) and a<head>^(orders[head]/e),
    conjugated by t<k> off the tree."""
    gens = [f"a{v}" for v in range(len(orders))]
    relators = [f"a{v}^{n}" for v, n in enumerate(orders)]
    component = list(range(len(orders)))

    def find(v: int) -> int:
        while component[v] != v:
            v = component[v]
        return v

    for k, (tail, head, e) in enumerate(edges):
        image = f"a{tail}^{orders[tail] // e}"
        if find(tail) != find(head):
            component[find(tail)] = find(head)
        else:
            gens.append(f"t{k}")
            image = f"t{k}*{image}*t{k}^-1"
        if e > 1:
            relators.append(f"{image}*a{head}^-{orders[head] // e}")
    return f"<{','.join(gens)}|{','.join(relators)}>"


def conjugate_root_classes_pairwise(data) -> list[list[int]]:
    """Relator indices of each class of two or more torsion roots that are
    conjugate to one another or to one another's inverses, by pairwise tests
    in order of first appearance: cyclic cores compared window by window."""

    def core(w: Word) -> tuple:
        return cyclic_core(w)[1].code

    classes: list[list] = []
    for d in (d for d in data if d.order > 1):
        for c in classes:
            first = core(c[0].root)
            if rotation_by_slices(first, core(d.root)) or rotation_by_slices(
                first, core(d.root.inverse())
            ):
                c.append(d)
                break
        else:
            classes.append([d])
    return [[d.relator_index for d in c] for c in classes if len(c) > 1]


def killed_torsion_relators(p: Presentation) -> tuple[Word, ...]:
    """Relators presenting G/Tor(G): every relator replaced by its root."""
    return tuple(r.root().root for r in p.relators)


def h1_and_kernel_rank_by_two_matrices(p: Presentation) -> tuple[AbelianGroupInvariants, int]:
    """H1 as the abelianization of the torsion-killed presentation, and the
    kernel rank of the original exponent matrix (H2 on a certified model),
    each from its own matrix and its own elimination."""
    h1 = cokernel_invariants(exponent_matrix(p.alphabet, killed_torsion_relators(p)))
    return h1, kernel_rank(exponent_matrix(p.alphabet, p.relators))


def direct_sum_by_dense_diagonal(*groups: AbelianGroupInvariants) -> AbelianGroupInvariants:
    """The direct sum through the cokernel of the dense diagonal matrix of
    every torsion entry: quadratic in the entry count, kept as a reference."""
    merged = [d for g in groups for d in g.torsion]
    torsion = cokernel_invariants(diagonal_matrix(merged)).torsion if merged else ()
    return AbelianGroupInvariants(sum(g.rank for g in groups), torsion)


def diagonal_matrix(diag) -> IntMatrix:
    """The square matrix with `diag` on its diagonal and zeros elsewhere."""
    n = len(diag)
    return IntMatrix.from_entries(
        n, n, [diag[i] if i == j else 0 for i in range(n) for j in range(n)]
    )


def exponent_matrix_by_counting(p: Presentation) -> IntMatrix:
    """The exponent matrix of p from a letter count of each relator, with no
    cell budget: `exponent_matrix` refuses the largest HNN splits."""
    rows = []
    for w in p.relators:
        counts = Counter(w.code)
        sums = {abs(s) - 1: counts[abs(s)] - counts[-abs(s)] for s in counts}
        rows.append({j: sums[j] for j in sorted(sums) if sums[j]})
    return IntMatrix(len(rows), len(p.alphabet), rows)


def to_rows(m: IntMatrix) -> list[list[int]]:
    """The dense rows of M, zeros included."""
    rows = [[0] * m.cols for _ in range(m.rows)]
    for row, nonzeros in zip(rows, m.nonzeros):
        for j, e in nonzeros.items():
            row[j] = e
    return rows


def entry(m: IntMatrix, i: int, j: int) -> int:
    return m.nonzeros[i].get(j, 0)


def embed(e, n: int) -> IntMatrix:
    """Evaluate a one-generator element of ZF, a {Word: int} mapping, in
    Z[Z/n], as an n x n block.

    The single generator maps to the cyclic shift; the embedding is linear
    in ``e`` and multiplicative on products.
    """
    if any(len(word.alphabet) != 1 for word in e):
        raise ValueError("only one-generator ring elements embed in Z[Z/n]")
    coeffs: dict[int, int] = {}
    for word, coeff in e.items():
        k = exponent_sum(word, 0) % n
        coeffs[k] = coeffs.get(k, 0) + coeff
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for k, c in coeffs.items():
            row[(i + k) % n] += c
    return IntMatrix.from_rows(rows, cols=n)


def random_matrix(rng: random.Random, max_dim: int = 5, bound: int = 9) -> IntMatrix:
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
    )


def matmul_by_triple_loop(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a @ b by the dense definition, every entry of every row."""
    assert a.cols == b.rows
    ra, rb = to_rows(a), to_rows(b)
    return IntMatrix.from_entries(
        a.rows,
        b.cols,
        [
            sum(ra[i][k] * rb[k][j] for k in range(a.cols))
            for i in range(a.rows)
            for j in range(b.cols)
        ],
    )


def det_by_expansion(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * rows[0][j] * det_by_expansion(minor)
    return total


def invariant_factors_by_minor_gcds(m: IntMatrix) -> list[int]:
    """d_k = gcd(k-minors) / gcd((k-1)-minors); 0 once the minors vanish."""
    rows = to_rows(m)
    size = min(m.rows, m.cols)
    gcds = [1]
    for k in range(1, size + 1):
        g = 0
        for row_idx in combinations(range(m.rows), k):
            for col_idx in combinations(range(m.cols), k):
                sub = [[rows[i][j] for j in col_idx] for i in row_idx]
                g = gcd(g, det_by_expansion(sub))
        gcds.append(g)
    factors = []
    for k in range(1, size + 1):
        if gcds[k] == 0:
            factors.append(0)
        else:
            factors.append(gcds[k] // gcds[k - 1])
    return factors


def invariant_factors_by_smallest_pivot(m: IntMatrix) -> tuple[int, ...]:
    """Smith normal form diagonal by pivoting on the smallest entry, the
    elimination `invariant_factors` used before its column index and unit
    pivots, kept as a reference.

    Each pivot is the smallest non-zero absolute value, the first met
    scanning the rows in index order; the scan stops at the first unit.  A
    pivot cycle scans the live rows twice, once for the pivot and once for
    the rows of its column, and reduces that column by divmod; column
    operations wait until the pivot is alone in its column.  A gcd/lcm pass
    over the non-unit entries then restores the divisibility chain.
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
            top = rows[pi]
            pivot = top[pj]
            column = [i for i, row in rows.items() if pj in row]
            if len(column) == 1 and (pivot == 1 or pivot == -1):
                pivot = 1
                break
            if pivot < 0:
                top = rows[pi] = {j: -v for j, v in top.items()}
                pivot = -pivot
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
                    e = row.get(j, 0) - q * v
                    if e:
                        row[j] = e
                    else:
                        del row[j]
                if not row:
                    del rows[i]
            if cleared:
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
            pi, pj = pick_pivot()
        diag.append(pivot)
        del rows[pi]
    factors = _divisibility_chain([d for d in diag if d != 1])
    units = len(diag) - len(factors)
    return (1,) * units + tuple(factors) + (0,) * (min(m.rows, m.cols) - len(diag))


def invariant_factors_by_stain_folding(m: IntMatrix) -> tuple[int, ...]:
    """Smith normal form diagonal by stain folding, the reference elimination.

    After every pivot it scans the rest of the matrix for an entry the pivot
    does not divide and folds that row into the pivot row, so the diagonal
    comes out as a divisibility chain without a final pass.  Pivots are the
    smallest non-zero absolute value, ties broken at the lowest (row, col).
    """
    nr, nc = m.rows, m.cols
    a = to_rows(m)

    def pick_pivot(t):
        best = None
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                e = row[j]
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
        return best

    def row_submul(i, j, q):
        # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    # Rows and columns before t are zero outside the diagonal, so column
    # operations at step t only need to visit rows t and below.
    diag = []
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
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a[t:]:
                    row[t], row[pj] = row[pj], row[t]
            if a[t][t] < 0:
                a[t] = [-e for e in a[t]]
            pivot = a[t][t]
            leftover = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // pivot
                    if q:
                        row_submul(i, t, q)
                    leftover = leftover or a[i][t] != 0
            top = a[t]
            for j in range(t + 1, nc):
                if top[j]:
                    q = top[j] // pivot
                    if q:
                        for row in a[t:]:
                            row[j] -= q * row[t]
                    leftover = leftover or top[j] != 0
            if leftover:
                best = pick_pivot(t)  # some remainder < pivot survives
                continue
            stain = None
            for i in range(t + 1, nr):
                if any(e % pivot for e in a[i][t + 1 :]):
                    stain = i
                    break
            if stain is None:
                break
            # Fold the offending row into row t so the next cycle reaches
            # gcd(pivot, entry); guarantees the divisibility chain.
            row_submul(t, stain, -1)
            best = pick_pivot(t)
        diag.append(a[t][t])
        t += 1
    return tuple(diag) + (0,) * (min(nr, nc) - t)


def rank_by_fraction_elimination(m: IntMatrix) -> int:
    """Row-echelon rank over the rationals, independent of the SNF code."""
    rows = [[Fraction(e) for e in row] for row in to_rows(m)]
    rank = 0
    col = 0
    while rank < len(rows) and col < m.cols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass.

    An elimination whose pivot choice cannot shrink the remainders never
    returns, so a bounded call turns that hang into a test failure."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
