"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact integer arithmetic; there are no tolerances anywhere.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import json
import random

from bredonkit import (
    AbelianGroupInvariants,
    Alphabet,
    Presentation,
    bredon_full,
    build_hnn,
    check_hempel,
    hempel_context,
    hnn_roundtrip_check,
    invariant_factors,
    ktheory,
    one_relator_product_homology,
    parse,
    rewrite_in_normal_closure_basis,
    torsion_data,
    verify_cyclic_resolution,
)
from bredonkit.bredon import HIGHER_ALL_ZERO, HIGHER_EQUALS_H_BG
from bredonkit.cli import main as cli_main
from bredonkit.errors import NotInKernelError

from helpers import (
    exponent_sum,
    fox_derivative,
    fundamental_identity_check,
    invariant_factors_by_minor_gcds,
    random_matrix,
    random_word,
    zf_add,
    zf_mul,
)

Z = AbelianGroupInvariants.free
TRIVIAL = AbelianGroupInvariants.trivial()


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")


def test_acceptance_01_fox_suite():
    rng = random.Random(101)
    alphabet = Alphabet(["a", "b", "c", "d", "e"])
    words = [random_word(rng, alphabet, rng.randint(0, 64)) for _ in range(1000)]
    ok = True
    for i, w in enumerate(words):
        if not fundamental_identity_check(w):
            ok = False
        partner = words[(i + 1) % len(words)]
        for gen in alphabet:
            deriv = fox_derivative(w, gen)
            # augmentation of the derivative is the exponent sum
            if deriv.augmentation() != exponent_sum(w, gen):
                ok = False
            # derivation law on the pair (w, partner)
            law = fox_derivative(w * partner, gen).terms
            expected = zf_add(deriv.terms, zf_mul({w: 1}, fox_derivative(partner, gen).terms))
            if law != expected:
                ok = False
            # inverse law
            inv = fox_derivative(w.inverse(), gen).terms
            if inv != zf_mul({w.inverse(): -1}, deriv.terms):
                ok = False
    report(1, "Fox calculus laws on 1000 random words", ok)
    assert ok


def test_acceptance_02_snf_suite():
    rng = random.Random(102)
    ok = True
    for _ in range(500):
        m = random_matrix(rng, max_dim=5, bound=9)
        if list(invariant_factors(m)) != invariant_factors_by_minor_gcds(m):
            ok = False
    report(2, "Invariant factors vs minor-gcd oracle on 500 matrices", ok)
    assert ok


def test_acceptance_03_cyclic_groups():
    ok = True
    for n in range(2, 13):
        result = bredon_full(parse(f"< x | x^{n} >"))
        k = ktheory(result)
        if not (
            result.h0 == Z(n)
            and result.h1 == TRIVIAL
            and result.h2 == TRIVIAL
            and result.higher == HIGHER_ALL_ZERO
            and k.k0 == Z(n)
            and k.k1 == TRIVIAL
        ):
            ok = False
        if not verify_cyclic_resolution(n).ok:
            ok = False
    report(3, "cyclic groups <x | x^n>, n = 2..12, plus exactness oracle", ok)
    assert ok


def test_acceptance_04_surface_groups():
    ok = True
    for g in (2, 3):
        gens = ", ".join(f"x{i}, y{i}" for i in range(1, g + 1))
        relator = "".join(f"[x{i},y{i}]" for i in range(1, g + 1))
        result = bredon_full(parse(f"< {gens} | {relator} >"))
        k = ktheory(result)
        if not (
            result.h0 == Z(1)
            and result.h1 == Z(2 * g)
            and result.h2 == Z(1)
            and k.k0 == Z(2)
            and k.k1 == Z(2 * g)
        ):
            ok = False
    report(4, "surface groups of genus 2 and 3", ok)
    assert ok


def test_acceptance_05_proper_power_one_relator():
    ok = True
    for n in range(2, 7):
        result = bredon_full(parse(f"< x, y | (x*y)^{n} >"))
        k = ktheory(result)
        if not (
            result.h0 == Z(n)
            and result.h1 == Z(1)
            and result.h2 == TRIVIAL
            and k.k0 == Z(n)
            and k.k1 == Z(1)
        ):
            ok = False
    report(5, "proper-power one-relator groups <x,y | (xy)^n>, n = 2..6", ok)
    assert ok


def test_acceptance_06_hempel_pipeline():
    p = parse("< x, y, z1, z2 | [x,y][z1,z2], z1 >")
    ctx, r = hempel_context(p)
    rep = check_hempel(r, ctx)
    ok = rep.is_hempel and rep.nu == 0
    h = build_hnn(r, ctx)
    ok = ok and h.base_presentation.alphabet.names == ("x", "z1_0", "z2_0")
    ok = ok and str(h.base_presentation.relators[0]) == "z1_0"
    ok = ok and len(h.conjugation_relators) == 1
    ok = ok and hnn_roundtrip_check(h, p)
    result = bredon_full(p)
    ok = (
        ok
        and result.h0 == Z(1)
        and result.h1 == Z(3)
        and result.h2 == Z(1)
        and result.aspherical_source == "hempel"
    )
    report(6, "Hempel pipeline for w = [x,y][z1,z2], r = z1", ok)
    assert ok


def test_acceptance_07_negative_hempel_cases():
    p = parse("< x, y, z1, z2 | [x,y][z1,z2], z1 >")
    ctx, _ = hempel_context(p)

    def w(text):
        from bredonkit import parse_word

        return parse_word(text, ctx.alphabet)

    fails_h1 = check_hempel(w("x"), ctx)
    fails_h4 = check_hempel(w("y*x*y^-1"), ctx)
    ok = not fails_h1.h1 and fails_h4.h1 and not fails_h4.h4
    try:
        rewrite_in_normal_closure_basis(w("x*y"), ctx)
        ok = False
    except NotInKernelError:
        pass
    report(7, "negative Hempel verdicts (H1, H4, NotInKernel)", ok)
    assert ok


def test_acceptance_08_nec_family():
    text = "\n".join(
        [
            "< a1, c1, c2 | c1^2, c2^3, c1^-1*c2^-1*a1^2 >",
            "!torsion rel=0 order=2",
            "!torsion rel=1 order=3",
        ]
    )
    result = bredon_full(parse(text))
    ok = (
        result.h0 == Z(5)
        and result.h1 == AbelianGroupInvariants(0, (2,))
        and result.h2 is None
        and result.higher == HIGHER_EQUALS_H_BG
    )
    report(8, "NEC family with declared torsion (2, 3)", ok)
    assert ok


def test_acceptance_09_torsion_scaling():
    rng = random.Random(109)
    ok = True
    done = 0
    while done < 50:
        alphabet = Alphabet([f"g{i}" for i in range(rng.randint(1, 4))])
        rel = random_word(rng, alphabet, rng.randint(1, 12))
        if rel.is_identity:
            continue
        p = Presentation(alphabet, (rel,))
        squared = Presentation(alphabet, (rel * rel,))
        base = torsion_data(p)[0]
        doubled = torsion_data(squared)[0]
        if doubled.order != 2 * base.order or doubled.root != base.root:
            ok = False
        if bredon_full(p).h1 != bredon_full(squared).h1:
            ok = False
        done += 1
    report(9, "torsion scaling r -> r^2 on 50 random one-relator inputs", ok)
    assert ok


def test_acceptance_10_combinator():
    merged = one_relator_product_homology(
        [TRIVIAL, TRIVIAL, TRIVIAL, Z(2)],
        [TRIVIAL, TRIVIAL, TRIVIAL, AbelianGroupInvariants(0, (2, 4))],
        3,
    )
    ok = merged == AbelianGroupInvariants(2, (2, 4))
    rng = random.Random(110)
    for _ in range(100):
        def random_group():
            torsion = []
            d = 1
            for _ in range(rng.randint(0, 3)):
                d *= rng.randint(1, 4)
                if d > 1:
                    torsion.append(d)
            return AbelianGroupInvariants(rng.randint(0, 3), tuple(torsion))

        a, b = random_group(), random_group()
        ha = [TRIVIAL, TRIVIAL, TRIVIAL, a]
        hb = [TRIVIAL, TRIVIAL, TRIVIAL, b]
        if one_relator_product_homology(ha, hb, 3) != one_relator_product_homology(
            hb, ha, 3
        ):
            ok = False
    report(10, "one-relator product combinator merge and commutativity", ok)
    assert ok


def test_acceptance_cli_smoke(capsys):
    # The documented CLI example from the cyclic family, end to end.
    code = cli_main(["bredon", "--in", "<x|x^6>", "--format", "json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    ok = (
        code == 0
        and payload["H0"]["rank"] == 6
        and payload["H1"] == {"rank": 0, "torsion": []}
        and payload["H2"] == {"rank": 0, "torsion": []}
    )
    with capsys.disabled():
        report(11, "CLI smoke: bredon <x|x^6> --format json", ok)
    assert ok
