"""Reference arithmetic for the benchmark's expected answers.

Everything here is written independently of bredonkit, so that an answer the
benchmark expects never comes from the code it measures.  Words are tuples of
non-zero integers: generator ``i`` (0-based) is ``i + 1``, its inverse
``-(i + 1)``.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import gcd


def reduce(code) -> tuple[int, ...]:
    out: list[int] = []
    for s in code:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def invert(code) -> tuple[int, ...]:
    return tuple(-s for s in reversed(code))


def render(code, names) -> str:
    """Canonical text: runs of one signed letter as ``name^e``, joined by ``*``."""
    if not code:
        return "1"
    parts = []
    i, n = 0, len(code)
    while i < n:
        j = i
        while j < n and code[j] == code[i]:
            j += 1
        exp = j - i if code[i] > 0 else i - j
        name = names[abs(code[i]) - 1]
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return "*".join(parts)


def presentation_text(names, relator_codes) -> str:
    return "< {} | {} >".format(
        ", ".join(names), ", ".join(render(r, names) for r in relator_codes)
    )


def min_period(seq) -> int:
    """Smallest p dividing len(seq) with seq == seq[:p] * (len/p)."""
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0 and tuple(seq[:p]) * (n // p) == tuple(seq):
            return p
    return n


def exponent_vector(code, ngens: int) -> list[int]:
    vec = [0] * ngens
    for s in code:
        vec[abs(s) - 1] += 1 if s > 0 else -1
    return vec


# -- abelian groups --------------------------------------------------------


def _det(m) -> int:
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        prod = 1
        for i, j in enumerate(perm):
            prod *= m[i][j]
        total += -prod if inversions % 2 else prod
    return total


def coker_invariants(rows, ncols: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion chain) of Z^ncols / row-space, by gcds of minors.

    Meant for the small matrices the workloads build (at most 3 rows).
    """
    nrows = len(rows)
    divisors = [1]
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                g = gcd(g, _det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        divisors.append(g)
    factors = [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]
    rank = len(factors)
    return ncols - rank, tuple(f for f in factors if f > 1)


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant-factor chain of a direct sum of cyclic groups Z/n."""
    by_prime: dict[int, list[int]] = {}
    for n in orders:
        for p, e in _factor(n).items():
            by_prime.setdefault(p, []).append(e)
    length = max((len(v) for v in by_prime.values()), default=0)
    chain = [1] * length
    for p, exps in by_prime.items():
        exps.sort(reverse=True)
        for i, e in enumerate(exps):
            chain[i] *= p**e
    return tuple(sorted(c for c in chain if c > 1))


def group_text(rank: int, torsion) -> str:
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) if parts else "0"


def group_json(rank: int, torsion) -> dict:
    return {"rank": rank, "torsion": list(torsion)}


# -- Fox derivatives ---------------------------------------------------------


def fox_terms(code, ngens: int) -> list[list[tuple[tuple[int, ...], int]]]:
    """Terms of d(w)/d(x_i) for a reduced word: one +-1 term per letter.

    A ``+x`` at position i contributes the prefix of length i, an ``x^-1``
    at position i the prefix of length i + 1; in a reduced word these are
    pairwise distinct, so nothing cancels.
    """
    slots: list[list] = [[] for _ in range(ngens)]
    for i, s in enumerate(code):
        if s > 0:
            slots[s - 1].append((tuple(code[:i]), 1))
        else:
            slots[-s - 1].append((tuple(code[: i + 1]), -1))
    key = lambda t: (len(t[0]), tuple((abs(s) - 1, 0 if s > 0 else 1) for s in t[0]))
    return [sorted(slot, key=key) for slot in slots]


def ring_text(terms, names) -> str:
    if not terms:
        return "0"
    chunks = []
    for word, coeff in terms:
        body = "1" if not word else render(word, names)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


# -- the conjugate basis of the Hempel normal closure -------------------------
#
# A basis letter is (base, level, sign): base 0 is x, base j >= 1 is z_j, and
# the letter stands for y^level * g^sign * y^-level in F = <x, y, z_1..z_d>.


def x1_reduce(letters) -> tuple:
    out: list = []
    for b, l, s in letters:
        if out and out[-1] == (b, l, -s):
            out.pop()
        else:
            out.append((b, l, s))
    return tuple(out)


def x1_invert(expr) -> tuple:
    return tuple((b, l, -s) for b, l, s in reversed(expr))


def x1_core(expr) -> tuple:
    i, j = 0, len(expr)
    while j - i >= 2 and expr[i] == (expr[j - 1][0], expr[j - 1][1], -expr[j - 1][2]):
        i += 1
        j -= 1
    return tuple(expr[i:j])


def _is_rotation(a, b) -> bool:
    return len(a) == len(b) and any(b[i:] + b[:i] == a for i in range(max(len(b), 1)))


def x1_conjugate_into_cyclic(expr, gen) -> bool:
    """Is expr conjugate to a power (possibly negative) of gen?"""
    core, gcore = x1_core(expr), x1_core(gen)
    if not core:
        return True
    if not gcore or len(core) % len(gcore):
        return False
    k = len(core) // len(gcore)
    return _is_rotation(core, gcore * k) or _is_rotation(core, x1_invert(gcore) * k)


def x1_to_f(expr) -> tuple[int, ...]:
    """Image in F (codes x=1, y=2, z_j=2+j), freely reduced."""
    code: list[int] = []
    for b, l, s in expr:
        g = 1 if b == 0 else 2 + b
        ys = [2] * l if l >= 0 else [-2] * (-l)
        code.extend(ys)
        code.append(g * s)
        code.extend(-c for c in reversed(ys))
    return reduce(code)
