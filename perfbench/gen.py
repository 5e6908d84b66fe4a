"""Seeded workload inputs, each with its answer known by construction.

``cases(workload, seed)`` is an endless stream of JSON-serialisable dicts.
Case ``i`` is drawn from its own ``random.Random`` seeded by the workload
name, the seed and ``i``, so one seed always gives byte-identical inputs.
Sizes are stratified: a workload has a fixed list of slots (kind and size),
every consecutive block of ``len(slots)`` cases uses each slot once in a
seeded order, and so each run sees the same size mix whatever its seed.
The program under test only ever receives the generated inputs.
"""

from __future__ import annotations

import itertools
import random

import ref

WORKLOADS = ("hempel_hnn", "long_relator_fox", "snf_homology", "small_cli")


def log_grid(lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers spread log-uniformly over [lo, hi]."""
    return [round(lo * (hi / lo) ** ((k + 0.5) / count)) for k in range(count)]


def cycle_length(workload: str) -> int:
    slots_for, _ = _WORKLOADS[workload]
    return len(slots_for(0))


def cases(workload: str, seed: int):
    slots_for, make = _WORKLOADS[workload]
    seen: set[str] = set()
    i = 0
    for cycle in itertools.count():
        slots = slots_for(cycle)
        order = list(range(len(slots)))
        random.Random(f"{workload}/{seed}/cycle/{cycle}").shuffle(order)
        for k in order:
            rng = random.Random(f"{workload}/{seed}/case/{i}")
            while True:
                case = make(rng, *slots[k])
                key = case.get("unique")
                if key is None or key not in seen:
                    break
            if key is not None:
                seen.add(key)
                del case["unique"]
            case["id"] = i
            case["cycle"] = cycle
            yield case
            i += 1


def _sign(rng) -> int:
    return rng.choice((1, -1))


# -- hempel_hnn ----------------------------------------------------------------
#
# F = <x, y, z1..zd> with codes x=1, y=2, z_j=2+j.  The surface relator is
# [x,y]*u for u from a short shared list, so contexts repeat across cases.

SURFACE_U = {
    1: ((3, 3), (3, 3, 3)),
    2: ((3, 4, -3, -4), (3, 3, 4, 4)),
    3: ((3, 4, -3, -4, 5, 5), (3, 4, 5)),
}


def hempel_names(d: int) -> list[str]:
    return ["x", "y"] + [f"z{j}" for j in range(1, d + 1)]


def hempel_relator(rng, d: int, nu: int, u, max_power: int = 3):
    """A basis word s and power m whose image in F passes (H1)-(H4) with level nu.

    x-letters sit at level 1 and z-letters at levels 0..nu, with one z-letter
    at level 0 and one at level nu (H1, H4); s is cyclically reduced over the
    basis (H3) and not a proper power, and s^m is not conjugate to a power of
    u0^-1 * x[1] (H2).
    """
    gen = ref.x1_reduce(
        ref.x1_invert(tuple((abs(s) - 2, 0, 1 if s > 0 else -1) for s in u))
        + ((0, 1, 1),)
    )
    while True:
        letters = [
            (rng.randint(1, d), 0, _sign(rng)),
            (rng.randint(1, d), nu, _sign(rng)),
        ]
        for _ in range(rng.randint(2, 6)):
            if rng.random() < 0.3:
                letters.append((0, 1, _sign(rng)))
            else:
                letters.append((rng.randint(1, d), rng.randint(0, nu), _sign(rng)))
        rng.shuffle(letters)
        s = tuple(letters)
        if ref.x1_reduce(s) != s or ref.x1_core(s) != s:
            continue
        if ref.min_period(s) != len(s):
            continue
        m = rng.choice((1, 1, 2, 3)[: max_power + 1])
        if ref.x1_conjugate_into_cyclic(s * m, gen):
            continue
        return s, m


def hempel_expect(d: int, nu: int, u, s, m) -> dict:
    """Answers for < x,y,z.. | [x,y]*u, phi(s)^m >."""
    ngens = d + 2
    w_vec = ref.exponent_vector((1, 2, -1, -2) + tuple(u), ngens)
    s_vec = ref.exponent_vector(ref.x1_to_f(s), ngens)
    free, torsion = ref.coker_invariants([w_vec, s_vec], ngens)
    h2 = 2 - (ngens - free)
    h0 = m if m > 1 else 1

    # Base relator of the HNN base group: x[1] -> u0*x, z_j[i] -> z<j>_<i>.
    def base_z(j: int, i: int) -> int:
        return 2 + (j - 1) * (nu + 1) + i

    u0 = [(1 if c > 0 else -1) * base_z(abs(c) - 2, 0) for c in u]
    ux = ref.reduce(u0 + [1])
    code: list[int] = []
    for b, level, sign in s * m:
        if b == 0:
            code.extend(ux if sign > 0 else ref.invert(ux))
        else:
            code.append(sign * base_z(b, level))
    return {
        "nu": nu,
        "log": m,
        "H0": h0,
        "H1": [free, list(torsion)],
        "H2": h2,
        "exponent_rows": [w_vec, s_vec],
        "hnn_generators": 2 + d * (nu + 1),
        "hnn_conjugation_relators": 1 + nu * d,
        "base_relator": list(ref.reduce(code)),
    }


def hempel_text(d: int, u, s, m) -> str:
    names = hempel_names(d)
    r = ref.render(ref.x1_to_f(s), names)
    second = f"({r})^{m}" if m > 1 else r
    return f"< {', '.join(names)} | [x,y]*{ref.render(u, names)}, {second} >"


def _hempel_slots(cycle):
    return [(nu, d) for nu in log_grid(10, 160, 12) for d in (1, 2, 3)]


def _make_hempel(rng, nu, d):
    u = rng.choice(SURFACE_U[d])
    s, m = hempel_relator(rng, d, nu, u)
    return {
        "kind": "hempel",
        "d": d,
        "text": hempel_text(d, u, s, m),
        "expect": hempel_expect(d, nu, u, s, m),
    }


# -- long_relator_fox ------------------------------------------------------------

FOX_NAMES = ("a", "b", "c", "d")


def primitive_word(rng, k: int, length: int) -> list[int]:
    """Cyclically reduced, not a proper power, written as runs of 1-4 letters."""
    while True:
        w: list[int] = []
        while len(w) < length:
            g = rng.randint(1, k)
            if w and abs(w[-1]) == g:
                continue
            w.extend([_sign(rng) * g] * rng.randint(1, 4))
        w = w[:length]
        if w[0] != -w[-1] and ref.min_period(w) == len(w):
            return w


def power_relator_expect(w, n: int, k: int) -> dict:
    vec = ref.exponent_vector(w, k)
    free, torsion = ref.coker_invariants([vec], k)
    h2 = 0 if any(vec) else 1
    h0 = n if n > 1 else 1
    return {"root": list(w), "log": n, "H0": h0, "H1": [free, list(torsion)], "H2": h2,
            "vec": vec}


def power_text(w, n: int, names) -> str:
    body = ref.render(w, names)
    return f"({body})^{n}" if n > 1 else body


def _fox_slots(cycle):
    return [(length,) for length in log_grid(200, 3000, 16)]


def _make_fox(rng, length):
    k = rng.randint(2, 4)
    n = rng.randint(1, 6)
    w = primitive_word(rng, k, max(2, round(length / n)))
    names = FOX_NAMES[:k]
    text = f"< {', '.join(names)} | {power_text(w, n, names)} >"
    return {
        "kind": "fox",
        "text": text,
        "expect": power_relator_expect(w, n, k),
        "unique": text,
    }


# -- snf_homology ------------------------------------------------------------------


def divisor_chain(rng, nonzero: int) -> list[int]:
    """``nonzero`` invariant factors: ones, then up to three entries > 1."""
    count = rng.randint(0, min(3, nonzero))
    chain = []
    f = rng.choice((2, 3, 4, 5, 6))
    for _ in range(count):
        chain.append(f)
        f *= rng.choice((1, 2, 3))
    return [1] * (nonzero - count) + chain


def _row_add(m, i, j, q):
    mi, mj = m[i], m[j]
    for t in range(len(mi)):
        mi[t] += q * mj[t]


def _col_add(m, i, j, q):
    for row in m:
        row[i] += q * row[j]


def _multiplier(rng) -> int:
    return rng.choice((1, -1, 2, -2))


def scrambled(rng, rows: int, cols: int, diag, ops: int, band: int | None):
    """U * D * V for random unimodular U, V made of ``ops`` row and column
    additions each; with ``band`` set, additions only mix nearby rows and
    columns, which keeps the result sparse."""
    m = [[0] * cols for _ in range(rows)]
    for t, e in enumerate(diag):
        m[t][t] = e

    def pair(n):
        i = rng.randrange(n)
        if band is None:
            j = rng.randrange(n - 1)
            return i, j + (j >= i)
        j = min(n - 1, max(0, i + rng.choice((-1, 1)) * rng.randint(1, band)))
        return (i, j) if j != i else (i, (i + 1) % n)

    for _ in range(ops):
        if rows > 1:
            _row_add(m, *pair(rows), _multiplier(rng))
        if cols > 1:
            _col_add(m, *pair(cols), _multiplier(rng))
    rng.shuffle(m)
    perm = list(range(cols))
    rng.shuffle(perm)
    return [[row[p] for p in perm] for row in m]


def _matrix_case(rng, kind, rows, cols, ops, band):
    zeros = rng.choice((0, 0, 1, 2))
    rank = min(rows, cols) - zeros
    diag = divisor_chain(rng, rank)
    return {
        "kind": kind,
        "call": rng.choice(("cokernel", "rank")),
        "rows": rows,
        "cols": cols,
        "entries": scrambled(rng, rows, cols, diag, ops, band),
        "expect": {"free": cols - rank, "torsion": [d for d in diag if d > 1], "rank": rank},
    }


def _chain_case(rng, b):
    """d_in: Z^a -> Z^b and d_out: Z^b -> Z^c with d_in * d_out = 0.

    In a hidden basis of Z^b = A + B + C, d_in is diag(D_in) onto A and d_out
    is injective on C and zero on A + B, so the homology is Z^|B| plus
    coker(D_in).  Paired column/row additions change the basis of Z^b.
    """
    a_dim = rng.randint(1, b // 3)
    c_dim = rng.randint(1, b // 3)
    b_dim = b - a_dim - c_dim
    in_zeros = rng.choice((0, 0, 1))
    d_in_diag = divisor_chain(rng, a_dim - in_zeros) + [0] * in_zeros
    d_in = [[0] * b for _ in range(a_dim)]
    for t, e in enumerate(d_in_diag):
        d_in[t][t] = e
    d_out = [[0] * c_dim for _ in range(b)]
    for t in range(c_dim):
        d_out[a_dim + b_dim + t][t] = rng.choice((1, 1, 2, 3))
    for _ in range(3 * b):
        i = rng.randrange(b)
        j = (i + 1 + rng.randrange(b - 1)) % b
        q = _multiplier(rng)
        _col_add(d_in, i, j, q)  # d_in * E
        _row_add(d_out, j, i, -q)  # E^-1 * d_out
    for _ in range(a_dim):
        if a_dim > 1:
            i, j = rng.sample(range(a_dim), 2)
            _row_add(d_in, i, j, _multiplier(rng))
    for _ in range(c_dim):
        if c_dim > 1:
            i, j = rng.sample(range(c_dim), 2)
            _col_add(d_out, i, j, _multiplier(rng))
    return {
        "kind": "chain",
        "d_in": d_in,
        "d_out": d_out,
        "dims": [a_dim, b, c_dim],
        "expect": {
            "free": b_dim + in_zeros,
            "torsion": [d for d in d_in_diag if d > 1],
        },
    }


def _snf_slots(cycle):
    return (
        [("dense", n) for n in log_grid(10, 40, 8)]
        + [("sparse", n) for n in log_grid(40, 150, 8)]
        + [("chain", n) for n in log_grid(10, 40, 8)]
        + [("oracle", n) for n in log_grid(8, 40, 8)]
    )


def _make_snf(rng, kind, n):
    if kind == "dense":
        cols = n + rng.choice((0, 0, 1, 2))
        return _matrix_case(rng, "dense", n, cols, 2 * n, None)
    if kind == "sparse":
        return _matrix_case(rng, "sparse", n, n, n, 2)
    if kind == "chain":
        return _chain_case(rng, n)
    return {"kind": "oracle", "n": n, "expect": {}}


# -- small_cli ---------------------------------------------------------------------------
#
# README-sized inputs through cli.main.  A case is an argv plus the expected
# exit status and either the exact stdout text ("stdout"), the exact JSON
# document ("json"), required leading lines ("lines"), a JSON subset
# ("json_subset"), or the error code printed as "error[<code>]" ("error").

SCHEMA = "bredonkit/1"
XY = ("x", "y")
XYZ = ("x", "y", "z")


def reduced_word(rng, k: int, length: int) -> list[int]:
    w: list[int] = []
    while len(w) < length:
        s = _sign(rng) * rng.randint(1, k)
        if not w or w[-1] != -s:
            w.append(s)
    return w


def _spaced(rng, code, names) -> str:
    """Non-canonical spelling of a word: ``*`` or a space between letters."""
    parts = [names[abs(s) - 1] if s > 0 else f"{names[abs(s) - 1]}^-1" for s in code]
    return "".join(p + rng.choice(("*", " ")) for p in parts[:-1]) + parts[-1]


def _json_case(argv, doc):
    return {"argv": argv, "status": 0, "json": {"schema": SCHEMA, **doc}}


def _cli_parse_text(rng):
    p, q = rng.randint(2, 6), rng.randint(2, 6)
    doc = f"< a1, c1, c2 | c1^{p}, c2^{q}, c1^-1*c2^-1*a1^2 >\n!torsion rel=0 order={p}\n!torsion rel=1 order={q}"
    return {"argv": ["parse", "--in", doc], "status": 0, "stdout": doc}


def _cli_parse_json(rng):
    names = XYZ[: rng.randint(2, 3)]
    rels = [reduced_word(rng, len(names), rng.randint(2, 8)) for _ in range(rng.randint(1, 3))]
    text = "<{}|{}>".format(",".join(names), ", ".join(_spaced(rng, r, names) for r in rels))
    return _json_case(
        ["parse", "--in", text, "--format", "json"],
        {
            "generators": list(names),
            "relators": [ref.render(r, names) for r in rels],
            "torsion_mode": "DERIVE_FROM_ROOTS",
            "declared_torsion": [],
        },
    )


def _fox_case(rng):
    names = XYZ[: rng.randint(2, 3)]
    rels = [reduced_word(rng, len(names), rng.randint(3, 8)) for _ in range(rng.randint(1, 2))]
    text = "< {} | {} >".format(", ".join(names), ", ".join(ref.render(r, names) for r in rels))
    return names, rels, text


def _cli_fox_text(rng):
    names, rels, text = _fox_case(rng)
    lines = []
    for r in rels:
        for name, terms in zip(names, ref.fox_terms(r, len(names))):
            lines.append(f"d({ref.render(r, names)})/d({name}) = {ref.ring_text(terms, names)}")
    return {"argv": ["fox", "--in", text], "status": 0, "stdout": "\n".join(lines)}


def _cli_fox_json(rng):
    names, rels, text = _fox_case(rng)
    derivs = [
        [[[c, ref.render(w, names)] for w, c in terms] for terms in ref.fox_terms(r, len(names))]
        for r in rels
    ]
    return _json_case(
        ["fox", "--in", text, "--format", "json"],
        {
            "generators": list(names),
            "relators": [ref.render(r, names) for r in rels],
            "derivatives": derivs,
        },
    )


def _power_case(rng):
    k = rng.randint(2, 3)
    names = XYZ[:k]
    n = rng.randint(1, 5)
    w = primitive_word(rng, k, rng.randint(2, 6))
    return names, w, n, f"< {', '.join(names)} | {power_text(w, n, names)} >"


def _cli_root_text(rng):
    names, w, n, text = _power_case(rng)
    line = f"root({ref.render(w * n, names)}) = {ref.render(w, names)}, log = {n}"
    return {"argv": ["root", "--in", text], "status": 0, "stdout": line}


def _cli_root_json(rng):
    names, w, n, text = _power_case(rng)
    return _json_case(
        ["root", "--in", text, "--format", "json"], {"root": ref.render(w, names), "log": n}
    )


def _snf_input(rng):
    rows, cols = rng.randint(2, 4), rng.randint(2, 4)
    rank = min(rows, cols) - rng.choice((0, 0, 1))
    diag = divisor_chain(rng, rank)
    m = scrambled(rng, rows, cols, diag, 4, None)
    text = '{"rows":%d,"cols":%d,"entries":%s}' % (
        rows, cols, str([e for row in m for e in row]).replace(" ", "")
    )
    return text, diag + [0] * (min(rows, cols) - rank), rank


def _cli_snf_text(rng):
    text, diag, rank = _snf_input(rng)
    return {"argv": ["snf", "--in", text], "status": 0, "stdout": f"D = {diag}\nrank = {rank}",
            "diag": diag}


def _cli_snf_json(rng):
    text, diag, rank = _snf_input(rng)
    case = _json_case(["snf", "--in", text, "--format", "json"], {"D": diag, "rank": rank})
    case["diag"] = diag
    return case


def _small_hempel(rng):
    d = rng.randint(1, 2)
    nu = rng.randint(1, 3)
    u = rng.choice(SURFACE_U[d])
    s, m = hempel_relator(rng, d, nu, u, max_power=1)
    return d, nu, u, s, hempel_text(d, u, s, m)


def _cli_hempel_json(rng):
    d, nu, u, s, text = _small_hempel(rng)
    doc = {f"h{i}": {"holds": True} for i in range(1, 5)}
    return {
        "argv": ["hempel-check", "--in", text, "--format", "json"],
        "status": 0,
        "json_subset": {"schema": SCHEMA, **doc, "nu": nu, "is_hempel": True},
    }


def _cli_hempel_text(rng):
    d, nu, u, s, text = _small_hempel(rng)
    lines = [f"H{i}: pass" for i in range(1, 5)] + [f"nu = {nu}", "hempel relator: yes"]
    return {"argv": ["hempel-check", "--in", text], "status": 0, "lines": lines}


def _off_kernel_text(rng):
    """Hempel-shaped input whose second relator has non-zero y-exponent."""
    d, nu, u, s, text = _small_hempel(rng)
    head, tail = text.rsplit(",", 1)
    return f"{head},{tail[:-2]}*y >"


def _cli_hempel_negative(rng):
    false = {"holds": False}
    return {
        "argv": ["hempel-check", "--in", _off_kernel_text(rng), "--format", "json"],
        "status": 0,
        "json_subset": {
            "schema": SCHEMA, "h1": false, "h2": false, "h3": false, "h4": false,
            "nu": None, "is_hempel": False,
        },
    }


def _hnn_parts(rng):
    d, nu, u, s, text = _small_hempel(rng)
    z = [f"z{j}_{i}" for j in range(1, d + 1) for i in range(nu + 1)]
    base = hempel_expect(d, nu, u, s, 1)["base_relator"]
    return d, nu, u, text, z, base


def _cli_hnn_json(rng):
    d, nu, u, text, z, base = _hnn_parts(rng)
    return {
        "argv": ["hnn", "--in", text, "--format", "json"],
        "status": 0,
        "json_subset": {
            "schema": SCHEMA,
            "generators": ["x", "y"] + z,
            "stable_letter": "y",
            "base_generators": ["x"] + z,
            "base_relator": ref.render(base, ["x"] + z),
            "nu": nu,
            "magnus": {"relator_involves_level_zero": True, "relator_involves_level_nu": True},
        },
    }


def _cli_hnn_text(rng):
    d, nu, u, text, z, base = _hnn_parts(rng)

    def full_z(j, i):
        return 3 + (j - 1) * (nu + 1) + i

    # Base codes shift up by one in the full alphabet, where y takes code 2.
    lifted = [s if abs(s) == 1 else s + (1 if s > 0 else -1) for s in base]
    u0 = [(1 if c > 0 else -1) * full_z(abs(c) - 2, 0) for c in u]
    rels = [lifted, ref.reduce([2, 1, -2, -1] + list(ref.invert(u0)))]
    for i in range(1, nu + 1):
        for j in range(1, d + 1):
            rels.append([2, full_z(j, i - 1), -2, -full_z(j, i)])
    return {
        "argv": ["hnn", "--in", text],
        "status": 0,
        "stdout": ref.presentation_text(["x", "y"] + z, rels),
    }


def _cli_bredon_json(rng):
    names, w, n, text = _power_case(rng)
    e = power_relator_expect(w, n, len(names))
    return _json_case(
        ["bredon", "--in", text, "--format", "json"],
        {
            "H0": ref.group_json(e["H0"], ()),
            "H1": ref.group_json(*e["H1"]),
            "H2": ref.group_json(e["H2"], ()),
            "higher": "ALL_ZERO",
            "note": "",
            "aspherical_source": "one-relator",
            "torsion": [{"rel": 0, "root": ref.render(w, names), "order": n}],
            "warnings": [],
        },
    )


def _cli_bredon_conjugate(rng):
    """Two torsion relators with conjugate roots: H0 follows the sum-of-orders rule."""
    a, b = rng.randint(2, 6), rng.randint(2, 6)
    text = f"<x,y|x^{a},(y*x*y^-1)^{b}>"
    lines = [f"H0 = Z^{a + b}", "H1 = Z", "H2 = Z", "higher = ALL_ZERO",
             "aspherical_source = user-asserted", "warning: ", "warning: "]
    return {"argv": ["bredon", "--in", text, "--assert-aspherical"], "status": 0, "lines": lines}


def _cli_bredon_nec(rng):
    """The README NEC example family with declared torsion orders p and q."""
    p, q = rng.randint(2, 6), rng.randint(2, 6)
    text = "< a1, c1, c2 | c1^%d, c2^%d, c1^-1*c2^-1*a1^2 >" % (p, q)
    lines = [f"H0 = Z^{p + q}", "H1 = Z/2", "H2 = not computed", "higher = EQUALS_H_BG",
             "note: ", "aspherical_source = None"]
    argv = ["bredon", "--in", text, "--torsion", f"0={p}", "--torsion", f"1={q}"]
    return {"argv": argv, "status": 0, "lines": lines}


def _cli_ktheory_json(rng):
    names, w, n, text = _power_case(rng)
    e = power_relator_expect(w, n, len(names))
    return _json_case(
        ["ktheory", "--in", text, "--format", "json"],
        {
            "H0": ref.group_json(e["H0"], ()),
            "H1": ref.group_json(*e["H1"]),
            "H2": ref.group_json(e["H2"], ()),
            "higher": "ALL_ZERO",
            "note": "",
            "aspherical_source": "one-relator",
            "torsion": [{"rel": 0, "root": ref.render(w, names), "order": n}],
            "warnings": [],
            "K0": ref.group_json(e["H0"] + e["H2"], ()),
            "K1": ref.group_json(*e["H1"]),
            "h0_interpretation": "BREDON_H0",
        },
    )


def _cli_ktheory_text(rng):
    """<x,y|x^a,y^b> = Z/a * Z/b: K0 by the sum-of-orders rule is Z^(a+b)."""
    a, b = rng.randint(2, 6), rng.randint(2, 6)
    literal = rng.random() < 0.5
    argv = ["ktheory", "--in", f"<x,y|x^{a},y^{b}>", "--assert-aspherical"]
    if literal:
        argv += ["--h0-interpretation", "literal"]
    lines = [f"K0 = Z^{a + b}", "K1 = 0",
             f"h0_interpretation = {'LITERAL_RC_G' if literal else 'BREDON_H0'}",
             f"H0 = Z^{a + b}", "H1 = 0", "H2 = 0", "warning: "]
    return {"argv": argv, "status": 0, "lines": lines}


def _cli_oracle_text(rng):
    n = rng.randint(2, 8)
    lines = [
        f"n = {n}",
        "relation sequence: composite_zero=True start=True middle=True end=True onto=True",
        f"theta rank = 1, boundary rank = {n - 1}",
        "subdivided complex: injective=True middle=True vertices=True onto=True",
        f"d2 rank = {n}, d1 rank = {n}",
        "PASS",
    ]
    return {"argv": ["oracle", "--n", str(n)], "status": 0, "stdout": "\n".join(lines)}


def _cli_oracle_json(rng):
    n = rng.randint(2, 8)
    return _json_case(
        ["oracle", "--n", str(n), "--format", "json"],
        {
            "n": n,
            "ok": True,
            "relation_sequence": {
                "composite_zero": True, "start_exact": True, "middle_exact": True,
                "end_exact": True, "augmentation_onto": True,
                "theta_rank": 1, "boundary_rank": n - 1,
            },
            "subdivided_complex": {
                "injective": True, "middle_exact": True, "vertices_exact": True,
                "augmentation_onto": True, "d2_rank": n, "d1_rank": n,
            },
        },
    )


def _random_groups(rng, count):
    out = []
    for _ in range(count):
        torsion = sorted(rng.choice((2, 3, 4, 6)) for _ in range(rng.randint(0, 2)))
        out.append((rng.randint(0, 3), ref.invariant_factors(torsion)))
    return out


def _combinator_parts(rng):
    i = rng.randint(3, 5)
    ha, hb = _random_groups(rng, rng.randint(2, 6)), _random_groups(rng, rng.randint(2, 6))
    doc = {"HA": [ref.group_json(*g) for g in ha], "HB": [ref.group_json(*g) for g in hb], "i": i}
    picked = [h[i] for h in (ha, hb) if i < len(h)]
    rank = sum(g[0] for g in picked)
    torsion = ref.invariant_factors([t for g in picked for t in g[1]])
    text = '{"HA":%s,"HB":%s,"i":%d}' % (
        str(doc["HA"]).replace("'", '"'), str(doc["HB"]).replace("'", '"'), i
    )
    return text, rank, torsion


def _cli_combinator_text(rng):
    text, rank, torsion = _combinator_parts(rng)
    return {"argv": ["combinator", "--in", text], "status": 0,
            "stdout": ref.group_text(rank, torsion)}


def _cli_combinator_json(rng):
    text, rank, torsion = _combinator_parts(rng)
    return _json_case(["combinator", "--in", text, "--format", "json"],
                      ref.group_json(rank, torsion))


def _rejected(argv, status, code):
    return {"argv": argv, "status": status, "error": code}


def _bad_parse(rng):
    w = ref.render(reduced_word(rng, 2, rng.randint(1, 5)), XY)
    text = rng.choice((f"< x, y | {w}^ >", f"< x, y | ({w} >", f"< x, y | {w} & y >"))
    return _rejected(["parse", "--in", text], 2, "parse-error")


def _bad_generator(rng):
    w = ref.render(reduced_word(rng, 2, rng.randint(1, 5)), XY)
    return _rejected(["root", "--in", f"< x, y | {w}*q >"], 2, "unknown-generator")


def _bad_dimension(rng):
    a, b = rng.randint(2, 6), rng.randint(2, 6)
    return _rejected(["ktheory", "--in", f"<x,y|x^{a},y^{b}>"], 1, "not-2-dimensional")


def _bad_degenerate(rng):
    w = reduced_word(rng, 2, rng.randint(1, 5))
    text = f"< x, y | {ref.render(w, XY)}*{ref.render(ref.invert(w), XY)} >"
    return _rejected(["bredon", "--in", text], 1, "degenerate-relator")


def _bad_hempel(rng):
    return _rejected(["hnn", "--in", _off_kernel_text(rng)], 1, "hempel-precondition")


def _bad_matrix(rng):
    return _rejected(["snf", "--in", '{"rows":2,"cols":2,"entries":[1,2,3]}'], 2, "invalid-input")


def _bad_degree(rng):
    text = '{"HA":[{"rank":1}],"HB":[{"rank":1}],"i":%d}' % rng.randint(0, 2)
    return _rejected(["combinator", "--in", text], 1, "combinator-degree")


def _bad_oracle(rng):
    return _rejected(["oracle", "--n", str(rng.randint(-3, 1))], 2, "invalid-input")


CLI_VALID = (
    _cli_parse_text, _cli_parse_json, _cli_fox_text, _cli_fox_json, _cli_root_text,
    _cli_root_json, _cli_snf_text, _cli_snf_json, _cli_hempel_text, _cli_hempel_json,
    _cli_hempel_negative, _cli_hnn_text, _cli_hnn_json, _cli_bredon_json,
    _cli_bredon_conjugate, _cli_bredon_nec, _cli_ktheory_text, _cli_ktheory_json,
    _cli_oracle_text, _cli_oracle_json, _cli_combinator_text, _cli_combinator_json,
)
CLI_REJECTED = (
    _bad_parse, _bad_generator, _bad_dimension, _bad_degenerate,
    _bad_hempel, _bad_matrix, _bad_degree, _bad_oracle,
)
REJECTED_PER_CYCLE = 4  # 4 of 26 cases, about 15%


def _cli_slots(cycle):
    start = cycle * REJECTED_PER_CYCLE
    rejected = [CLI_REJECTED[(start + t) % len(CLI_REJECTED)] for t in range(REJECTED_PER_CYCLE)]
    return [(f,) for f in CLI_VALID + tuple(rejected)]


def _make_cli(rng, template):
    case = template(rng)
    case["kind"] = "cli"
    case["template"] = template.__name__.lstrip("_")
    return case


_WORKLOADS = {
    "hempel_hnn": (_hempel_slots, _make_hempel),
    "long_relator_fox": (_fox_slots, _make_fox),
    "snf_homology": (_snf_slots, _make_snf),
    "small_cli": (_cli_slots, _make_cli),
}
