import random
from dataclasses import replace

import pytest

from bredonkit import (
    Word,
    build_hnn,
    check_hempel,
    cokernel_invariants,
    exponent_matrix,
    hempel_context,
    hnn_roundtrip_check,
    parse,
    parse_word,
    presentation_text,
    rewrite_in_normal_closure_basis,
)
from bredonkit.errors import (
    HempelPreconditionError,
    NotHempelFormError,
    NotInKernelError,
)
from bredonkit.hempel import X1Letter, X_BASE

GENUS2 = parse("< x, y, z1, z2 | [x,y][z1,z2], z1 >")


def genus2_ctx():
    ctx, r = hempel_context(GENUS2)
    return ctx


def word(ctx, text):
    return parse_word(text, ctx.alphabet)


def test_context_extraction():
    ctx, r = hempel_context(GENUS2)
    assert ctx.d == 2
    assert str(ctx.u) == "z1*z2*z1^-1*z2^-1"
    assert str(r) == "z1"
    assert str(ctx.surface_relator()) == "x*y*x^-1*y^-1*z1*z2*z1^-1*z2^-1"


def test_context_shape_validation():
    with pytest.raises(NotHempelFormError):
        hempel_context(parse("< x, y, z1 | [x,y]z1 >"))  # one relator
    with pytest.raises(NotHempelFormError):
        hempel_context(parse("< x, y | [x,y], x >"))  # no z-generators
    with pytest.raises(NotHempelFormError):
        hempel_context(parse("< x, y, z1 | z1*[x,y], z1 >"))  # wrong shape
    with pytest.raises(NotHempelFormError):
        hempel_context(parse("< x, y, z1 | [x,y]*x, z1 >"))  # u involves x


def test_rewrite_x_conjugate():
    ctx = genus2_ctx()
    expr = rewrite_in_normal_closure_basis(word(ctx, "y*x*y^-1"), ctx)
    assert expr == (X1Letter(X_BASE, 1, 1),)


def test_rewrite_levels():
    ctx = genus2_ctx()
    expr = rewrite_in_normal_closure_basis(word(ctx, "z1*y*z2*y^-1"), ctx)
    assert expr == (X1Letter(1, 0, 1), X1Letter(2, 1, 1))


def test_rewrite_raises_outside_kernel():
    ctx = genus2_ctx()
    with pytest.raises(NotInKernelError):
        rewrite_in_normal_closure_basis(word(ctx, "x*y"), ctx)


def test_rewrite_is_multiplicative():
    rng = random.Random(43)
    ctx = genus2_ctx()
    alphabet = ctx.alphabet
    y = Word(alphabet, [2])

    def random_kernel_word():
        items = []
        for _ in range(rng.randint(0, 14)):
            idx = rng.randrange(len(alphabet)) + 1
            items.append(idx if rng.random() < 0.5 else -idx)
        w = Word(alphabet, items)
        return w * y ** (-w.exponent_sum("y"))

    for _ in range(120):
        a, b = random_kernel_word(), random_kernel_word()
        ea = rewrite_in_normal_closure_basis(a, ctx)
        eb = rewrite_in_normal_closure_basis(b, ctx)
        combined = rewrite_in_normal_closure_basis(a * b, ctx)
        # reduced concatenation in the conjugate basis
        stack = list(ea)
        for letter in eb:
            if stack and stack[-1] == letter.inverse():
                stack.pop()
            else:
                stack.append(letter)
        assert combined == tuple(stack)


def test_check_genus2_passes():
    ctx = genus2_ctx()
    report = check_hempel(word(ctx, "z1"), ctx)
    assert (report.h1, report.h2, report.h3, report.h4) == (True, True, True, True)
    assert report.nu == 0
    assert report.is_hempel


def test_check_x_fails_h1():
    ctx = genus2_ctx()
    report = check_hempel(word(ctx, "x"), ctx)
    assert not report.h1
    assert report.nu is None
    assert "level" in report.details["h1"] or "fails" in report.details["h1"]


def test_check_conjugated_x_fails_h4_only():
    ctx = genus2_ctx()
    report = check_hempel(word(ctx, "y*x*y^-1"), ctx)
    assert (report.h1, report.h2, report.h3, report.h4) == (True, True, True, False)


def test_check_word_outside_kernel_reports_h1():
    ctx = genus2_ctx()
    report = check_hempel(word(ctx, "x*y"), ctx)
    assert not report.h1
    assert report.nu is None
    assert not report.is_hempel


def test_check_h2_detects_conjugates_of_powers():
    ctx = genus2_ctx()
    # c = u^-1 * (y x y^-1) generates the excluded cyclic subgroup.
    c = word(ctx, "(z1*z2*z1^-1*z2^-1)^-1 * y*x*y^-1")
    for candidate in (c, c * c, word(ctx, "z1") * c * word(ctx, "z1^-1")):
        report = check_hempel(candidate, ctx)
        assert not report.h2
    inverse_case = check_hempel(c.inverse(), ctx)
    assert not inverse_case.h2


def test_check_h3_cyclic_reduction():
    ctx = genus2_ctx()
    report = check_hempel(word(ctx, "z1*(y*z1*y^-1)*z1^-1"), ctx)
    assert report.h1 and not report.h3


def test_nu_is_the_top_z_level():
    ctx = genus2_ctx()
    report = check_hempel(word(ctx, "z1*(y*z1*y^-1)"), ctx)
    assert report.nu == 1
    deeper = check_hempel(word(ctx, "z2*(y^3*z1*y^-3)"), ctx)
    assert deeper.nu == 3


def test_build_hnn_genus2():
    ctx = genus2_ctx()
    h = build_hnn(word(ctx, "z1"), ctx)
    assert h.nu == 0
    assert h.base_presentation.alphabet.names == ("x", "z1_0", "z2_0")
    assert str(h.base_presentation.relators[0]) == "z1_0"
    assert h.stable_letter == "y"
    assert len(h.conjugation_relators) == 1
    assert str(h.conjugation_relators[0]) == "y*x*y^-1*x^-1*z2_0*z1_0*z2_0^-1*z1_0^-1"
    assert h.involves_level_zero and h.involves_level_nu


def test_build_hnn_nu_one():
    ctx = genus2_ctx()
    h = build_hnn(word(ctx, "z1*(y*z1*y^-1)"), ctx)
    assert h.nu == 1
    assert h.base_presentation.alphabet.names == ("x", "z1_0", "z1_1", "z2_0", "z2_1")
    assert str(h.base_presentation.relators[0]) == "z1_0*z1_1"
    texts = [str(rel) for rel in h.conjugation_relators[1:]]
    assert texts == ["y*z1_0*y^-1*z1_1^-1", "y*z2_0*y^-1*z2_1^-1"]


def test_build_hnn_rejects_failing_relator():
    ctx = genus2_ctx()
    with pytest.raises(HempelPreconditionError):
        build_hnn(word(ctx, "y*x*y^-1"), ctx)  # fails (H4)


def test_roundtrip_genus2():
    ctx, r = hempel_context(GENUS2)
    h = build_hnn(r, ctx)
    assert hnn_roundtrip_check(h, GENUS2)


def test_roundtrip_nu_one():
    p = parse("< x, y, z1, z2 | [x,y][z1,z2], z1*y*z1*y^-1 >")
    ctx, r = hempel_context(p)
    h = build_hnn(r, ctx)
    assert h.nu == 1
    assert hnn_roundtrip_check(h, p)


def test_roundtrip_with_x_letters_in_relator():
    p = parse("< x, y, z1, z2 | [x,y][z1,z2], z1*(y*x*y^-1) >")
    ctx, r = hempel_context(p)
    report = check_hempel(r, ctx)
    assert report.is_hempel
    h = build_hnn(r, ctx)
    assert hnn_roundtrip_check(h, p)


def test_roundtrip_deeper_levels():
    p = parse("< x, y, z1, z2 | [x,y][z1,z2], z1*(y^2*z2*y^-2)*(y*x*y^-1) >")
    ctx, r = hempel_context(p)
    report = check_hempel(r, ctx)
    assert report.is_hempel and report.nu == 2
    h = build_hnn(r, ctx)
    assert h.base_presentation.alphabet.names == (
        "x", "z1_0", "z1_1", "z1_2", "z2_0", "z2_1", "z2_2",
    )
    assert len(h.conjugation_relators) == 1 + 2 * 2
    assert hnn_roundtrip_check(h, p)


def test_roundtrip_detects_perturbation():
    p = parse("< x, y, z1, z2 | [x,y][z1,z2], z1*y*z1*y^-1 >")
    ctx, r = hempel_context(p)
    h = build_hnn(r, ctx)
    # Corrupt one conjugation relator: shift the z-index by one.
    bad_relator = parse_word("y*z1_0*y^-1*z2_1^-1", h.full_alphabet)
    relators = list(h.conjugation_relators)
    relators[1] = bad_relator
    perturbed = replace(h, conjugation_relators=tuple(relators))
    assert not hnn_roundtrip_check(perturbed, p)


def test_roundtrip_detects_perturbed_base_relator():
    p = parse("< x, y, z1, z2 | [x,y][z1,z2], z1*y*z1*y^-1 >")
    ctx, r = hempel_context(p)
    h = build_hnn(r, ctx)
    assert hnn_roundtrip_check(h, p)
    base = h.base_presentation
    bad_relator = base.relators[0] * parse_word("z2_0", base.alphabet)
    perturbed = replace(h, base_presentation=replace(base, relators=(bad_relator,)))
    assert not hnn_roundtrip_check(perturbed, p)


def test_roundtrip_detects_perturbed_x1_relator():
    p = parse("< x, y, z1, z2 | [x,y][z1,z2], z1*y*z1*y^-1 >")
    ctx, r = hempel_context(p)
    h = build_hnn(r, ctx)
    assert hnn_roundtrip_check(h, p)
    perturbed = replace(h, x1_relator=h.x1_relator + (X1Letter(2, 0, 1),))
    assert not hnn_roundtrip_check(perturbed, p)


def test_abelianized_roundtrip():
    samples = [
        GENUS2,
        parse("< x, y, z1, z2 | [x,y][z1,z2], z1*y*z1*y^-1 >"),
        parse("< x, y, z1 | [x,y]z1^2, z1*(y*z1^3*y^-1) >"),
    ]
    for p in samples:
        ctx, r = hempel_context(p)
        if not check_hempel(r, ctx).is_hempel:
            continue
        h = build_hnn(r, ctx)
        original = cokernel_invariants(exponent_matrix(p))
        lifted = cokernel_invariants(exponent_matrix(h.full_presentation()))
        assert original == lifted


def test_full_presentation_is_printable():
    ctx, r = hempel_context(GENUS2)
    h = build_hnn(r, ctx)
    text = presentation_text(h.full_presentation())
    assert parse(text).alphabet.names == ("x", "y", "z1_0", "z2_0")


def test_trivial_u_case():
    # u = 1 makes the excluded cyclic generator a single basis letter; the
    # same rotation test applies with no special-casing.
    p = parse("< x, y, z1 | [x,y], z1 >")
    ctx, r = hempel_context(p)
    assert ctx.u.is_identity
    report = check_hempel(r, ctx)
    assert report.is_hempel and report.nu == 0
    h = build_hnn(r, ctx)
    assert str(h.conjugation_relators[0]) == "y*x*y^-1*x^-1"
    assert hnn_roundtrip_check(h, p)
    # x itself is now (a rotation of) the excluded generator in the base basis
    failing = check_hempel(word(ctx, "y*x*y^-1"), ctx)
    assert not failing.h2 and not failing.h4


def test_h2_brute_force_rotation_agreement():
    # (H2) on small cases: enumerate all rotations of c^k, |k| bounded by the
    # length ratio plus one, and compare against the production test.
    from bredonkit import is_cyclic_rotation
    from bredonkit.free_group import _invert as _invert_x1
    from bredonkit.hempel import (
        _conjugate_into_cyclic,
        _cyclic_core_x1,
        _cyclic_generator_expression,
    )

    rng = random.Random(47)
    ctx = genus2_ctx()
    gen = _cyclic_generator_expression(ctx)
    gcore = _cyclic_core_x1(gen)
    alphabet = ctx.alphabet
    y = Word(alphabet, [2])
    seen_conjugate = 0
    for _ in range(200):
        if rng.random() < 0.3:
            # Seed genuine conjugates of powers of c to exercise both verdicts.
            k = rng.choice([-2, -1, 1, 2])
            conjugator = Word(alphabet, [rng.randrange(len(alphabet)) + 1])
            power = gcore * k if k > 0 else _invert_x1(gcore) * (-k)
            expr = tuple(power)
        else:
            items = [
                (rng.randrange(len(alphabet)) + 1) * (1 if rng.random() < 0.5 else -1)
                for _ in range(rng.randint(1, 12))
            ]
            w = Word(alphabet, items)
            w = w * y ** (-w.exponent_sum("y"))
            if w.is_identity:
                continue
            expr = rewrite_in_normal_closure_basis(w, ctx)
        rcore = _cyclic_core_x1(expr)
        limit = len(rcore) // max(len(gcore), 1) + 1
        brute = not rcore
        for k in range(1, limit + 1):
            for power in (gcore * k, _invert_x1(gcore) * k):
                if is_cyclic_rotation(rcore, power):
                    brute = True
        verdict = _conjugate_into_cyclic(expr, gen)
        assert verdict == brute
        seen_conjugate += verdict
    assert seen_conjugate > 0
