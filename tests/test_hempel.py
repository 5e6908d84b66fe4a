import random
import re
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bredonkit.hempel as hempel_module
from bredonkit import (
    Alphabet,
    Word,
    bredon_full,
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
from bredonkit.free_group import _cyclic_span, _flatten, _invert, _reduce, _runs
from bredonkit.hempel import (
    X1Letter,
    X_BASE,
    HempelContext,
    _ConjugationRelators,
    _conjugate_into_cyclic,
    _basis_letters,
    _cyclic_generator_expression,
    _runs_in_f,
)

from helpers import (
    conjugate_into_cyclic_by_keys,
    exponent_sum,
    hnn_image_by_substitution,
    hnn_split_by_names,
    rotation_by_slices,
    time_limit,
)

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
    surface_relator = word(ctx, "[x,y]") * ctx.u
    assert str(surface_relator) == "x*y*x^-1*y^-1*z1*z2*z1^-1*z2^-1"


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
        return w * y ** (-exponent_sum(w, "y"))

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
    assert h.full_alphabet.names == ("x", "y", "z1_0", "z2_0")  # y is the stable letter
    assert len(h.conjugation_relators) == 1
    assert str(h.conjugation_relators[0]) == "y*x*y^-1*x^-1*z2_0*z1_0*z2_0^-1*z1_0^-1"


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
    # The x-relator times y has a non-zero y-exponent, so it maps to no
    # conjugate of ([x,y]u)^-1; conjugated by y it still does.
    x_relator, *rest = h.conjugation_relators
    y = Word(h.full_alphabet, [2])
    for relator, ok in ((x_relator * y, False), (y * x_relator * y.inverse(), True)):
        perturbed = replace(h, conjugation_relators=(relator, *rest))
        assert hnn_roundtrip_check(perturbed, p) == ok


def test_roundtrip_refuses_malformed_conjugation_relators():
    p = parse("< x, y, z1, z2 | [x,y][z1,z2], z1*(y^3*z2*y^-3) >")
    ctx, r = hempel_context(p)
    h = build_hnn(r, ctx)
    assert h.nu == 3 and hnn_roundtrip_check(h, p)
    x_relator, *rest = h.conjugation_relators
    dropped = [rel for rel in rest if str(rel) != "y*z2_2*y^-1*z2_3^-1"]
    assert len(dropped) == len(rest) - 1
    duplicated = rest[:-1] + rest[:1]
    # The x-relator's letters over other names, and a z-relator over too few.
    renamed = Alphabet([f"g{i}" for i in range(len(h.full_alphabet))])
    short = Alphabet(["x", "y", "z1_0"])
    for relators in (
        [x_relator, *dropped],
        [x_relator, *duplicated],
        [Word(renamed, x_relator.code), *rest],
        [x_relator, *rest, Word(short, (2, 3, -2))],
        [],
    ):
        perturbed = replace(h, conjugation_relators=tuple(relators))
        assert not hnn_roundtrip_check(perturbed, p)


def test_roundtrip_detects_perturbed_last_relator():
    p = parse("< x, y, z1, z2, z3 | [x,y][z1,z2]z3^2, z1*(y^40*z3*y^-40)*(y*x*y^-1) >")
    ctx, r = hempel_context(p)
    h = build_hnn(r, ctx)
    assert (h.nu, len(h.conjugation_relators)) == (40, 1 + 40 * 3)
    assert hnn_roundtrip_check(h, p)
    assert str(h.conjugation_relators[-1]) == "y*z3_39*y^-1*z3_40^-1"

    def perturbed(index, text):
        relators = list(h.conjugation_relators)
        relators[index] = parse_word(text, h.full_alphabet)
        return replace(h, conjugation_relators=tuple(relators))

    last = len(h.conjugation_relators) - 1
    for text in ("y*z3_39*y^-1*z2_40^-1", "y*z3_40*y^-1*z3_40^-1", "z3_39*y^-1*z3_40^-1"):
        assert not hnn_roundtrip_check(perturbed(last, text), p), text
    # A z-relator at a random index, y*z<j>_<i-1>*y^-1*z<j>_<i>^-1 with its two
    # levels swapped, j changed, and one y dropped.
    rng = random.Random(53)
    for index in rng.sample(range(1, last + 1), 8):
        i, j = divmod(index - 1, 3)
        i, j = i + 1, j + 1
        assert str(h.conjugation_relators[index]) == f"y*z{j}_{i - 1}*y^-1*z{j}_{i}^-1"
        other = rng.choice([k for k in (1, 2, 3) if k != j])
        for text in (
            f"y*z{j}_{i}*y^-1*z{j}_{i - 1}^-1",
            f"y*z{j}_{i - 1}*y^-1*z{other}_{i}^-1",
            f"y*z{other}_{i - 1}*y^-1*z{j}_{i}^-1",
            f"z{j}_{i - 1}*y^-1*z{j}_{i}^-1",
            f"y*z{j}_{i - 1}*z{j}_{i}^-1",
        ):
            assert not hnn_roundtrip_check(perturbed(index, text), p), text


@st.composite
def hnn_words(draw):
    """(code, d, nu): a reduced word over the full HNN alphabet x, y,
    z1_0..zd_nu with d = 1-3 and nu = 0-12.  Its letters other than y are x,
    up to three neighbouring levels of one z_j and up to two other letters,
    and y-letters are drawn as often as the rest, so that images meet across
    y-runs and cancel or merge there."""
    d = draw(st.integers(1, 3))
    nu = draw(st.integers(0, 12))
    first = 3 + (draw(st.integers(1, d)) - 1) * (nu + 1) + draw(st.integers(0, nu))
    last = min(first + 2, 3 + (first - 3) // (nu + 1) * (nu + 1) + nu)
    other = st.integers(1, 2 + d * (nu + 1)).filter(lambda g: g != 2)
    pool = [1, *range(first, last + 1), *draw(st.lists(other, max_size=2))]
    signed = st.tuples(st.sampled_from(pool), st.sampled_from((1, -1)))
    letter = st.one_of(st.sampled_from((2, -2)), signed.map(lambda pair: pair[0] * pair[1]))
    code = draw(st.lists(letter, max_size=24))
    names = ["x", "y"] + [f"z{j}_{i}" for j in range(1, d + 1) for i in range(nu + 1)]
    return Word(Alphabet(names), code).code, d, nu


@given(hnn_words())
def test_level_walk_matches_image_substitution(case):
    code, d, nu = case
    letters, level = _basis_letters(code, nu)
    f = Alphabet(["x", "y", *(f"z{j}" for j in range(1, d + 1))])
    runs = _runs_in_f(letters)
    assert _runs(_flatten(runs)) == runs
    image = Word(f, _flatten(runs)) * Word(f, [2]) ** level
    assert _runs(image.code) == hnn_image_by_substitution(code, d, nu)


@st.composite
def kernel_words(draw):
    """A reduced word of zero y-exponent over F = <x, y, z1..zd>, d = 1-3,
    with y-letters drawn as often as the rest."""
    d = draw(st.integers(1, 3))
    f = Alphabet(["x", "y", *(f"z{j}" for j in range(1, d + 1))])
    other = st.sampled_from([s for g in (1, *range(3, 3 + d)) for s in (g, -g)])
    code = draw(st.lists(st.one_of(st.sampled_from((2, -2)), other), max_size=30))
    level = code.count(2) - code.count(-2)
    code += [-2 if level > 0 else 2] * abs(level)
    return Word(f, code)


@given(kernel_words())
def test_level_walk_inverts_the_rewrite(r):
    ctx = HempelContext(Word(r.alphabet, [3]))
    runs = _runs_in_f(rewrite_in_normal_closure_basis(r, ctx))
    assert runs == _runs(r.code)
    assert _flatten(runs) == r.code


def test_roundtrip_scales_linearly_in_memory():
    # Images y^i z_j y^-i stay three runs each, so the check never spells out
    # the d * nu^2 letters of the substituted conjugation relators.
    nu = 2000
    p = parse(f"< x, y, z1, z2 | [x,y][z1,z2], z1*(y^{nu}*z2*y^-{nu})*(y*x*y^-1) >")
    ctx, r = hempel_context(p)
    h = build_hnn(r, ctx)
    assert len(h.conjugation_relators) == 1 + 2 * nu
    tracemalloc.start()
    try:
        ok = hnn_roundtrip_check(h, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 4 * 2**20


def top_level_presentation(d: int, nu: int):
    """<x, y, z1..zd | [x,y]*z1..zd, z1*(y^nu*zd*y^-nu)*(y*x*y^-1)>, whose
    HNN split has nu levels."""
    zs = [f"z{j}" for j in range(1, d + 1)]
    return parse(
        f"< x, y, {', '.join(zs)} | [x,y]*{'*'.join(zs)}, z1*(y^{nu}*z{d}*y^-{nu})*(y*x*y^-1) >"
    )


def split(p):
    ctx, r = hempel_context(p)
    return build_hnn(r, ctx)


@given(st.integers(1, 3), st.integers(0, 12))
def test_z_conjugation_relators_match_their_names(d, nu):
    p = top_level_presentation(d, nu)
    h = split(p)
    assert h.nu == nu
    base, full, z_relators = hnn_split_by_names(d, nu)
    for view, plain in ((h.base_presentation.alphabet, base), (h.full_alphabet, full)):
        assert len(view) == len(plain)
        assert view.names == plain.names
        assert [view.resolve(name) for name in plain.names] == list(range(len(plain)))
        assert view == plain and plain == view
        assert hash(view) == hash(plain)
        assert repr(view) == repr(plain)

    relators = h.conjugation_relators
    expected = (relators[0], *z_relators)
    n = len(expected)
    assert len(relators) == n == 1 + d * nu
    for k in range(-n, n):
        assert relators[k] == expected[k]
    with pytest.raises(IndexError):
        relators[n]
    with pytest.raises(IndexError):
        relators[-n - 1]
    cuts = (slice(None), slice(1, None), slice(-1, None), slice(1, -1, 2), slice(None, None, -3))
    for cut in cuts:
        assert relators[cut] == expected[cut]
    assert list(relators) == list(expected)
    assert relators == expected and expected == relators
    assert not (relators != expected or expected != relators)
    assert relators != expected[:-1] and expected[:-1] != relators
    assert hash(relators) == hash(expected)
    assert repr(relators) == repr(expected)
    assert hnn_roundtrip_check(h, p)
    assert hnn_roundtrip_check(replace(h, conjugation_relators=expected), p)


def test_roundtrip_checks_a_relator_view_by_its_parameters():
    p = top_level_presentation(2, 3)
    h = split(p)
    x_relator = h.conjugation_relators[0]
    assert h.conjugation_relators == _ConjugationRelators(x_relator, h.full_alphabet, 2, 3)
    other = split(top_level_presentation(2, 4)).full_alphabet
    for alphabet, d, nu in ((h.full_alphabet, 1, 3), (h.full_alphabet, 2, 2), (other, 2, 3)):
        view = _ConjugationRelators(x_relator, alphabet, d, nu)
        assert not hnn_roundtrip_check(replace(h, conjugation_relators=view), p)


def test_split_at_nu_20000_builds_and_checks_in_small_memory():
    # The level names and the 60,000 z-relators are views of (d, nu): neither
    # the split nor its round-trip spells them out.
    p = top_level_presentation(3, 20000)
    ctx, r = hempel_context(p)
    tracemalloc.start()
    try:
        with time_limit(5):
            h = build_hnn(r, ctx)
            ok = hnn_roundtrip_check(h, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert (h.nu, len(h.full_alphabet), len(h.conjugation_relators)) == (20000, 60005, 60001)
    assert peak < 2 * 2**20


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


def test_roundtrip_refuses_a_split_without_the_magnus_certificate(monkeypatch):
    p = parse("< x, y, z1, z2 | [x,y][z1,z2], z1*y*z1*y^-1 >")
    ctx, r = hempel_context(p)
    h = build_hnn(r, ctx)
    assert h.relator_involves_level_zero and h.relator_involves_level_nu
    assert hnn_roundtrip_check(h, p)
    for name in ("relator_involves_level_zero", "relator_involves_level_nu"):
        with monkeypatch.context() as patched:
            patched.setattr(hempel_module.HnnPresentation, name, property(lambda self: False))
            assert not hnn_roundtrip_check(h, p), name


def test_roundtrip_refuses_x1_letters_outside_the_split():
    p = parse("< x, y, z1, z2 | [x,y][z1,z2], z1*y*z1*y^-1 >")
    ctx, r = hempel_context(p)
    h = build_hnn(r, ctx)
    assert h.nu == 1
    # z1 two levels up, z1 below level 0, and a z3 the context lacks.
    for letter in (X1Letter(1, 2, 1), X1Letter(1, -1, 1), X1Letter(3, 0, 1)):
        perturbed = replace(h, x1_relator=h.x1_relator + (letter,))
        assert not hnn_roundtrip_check(perturbed, p), letter


def count_decisions(monkeypatch) -> list:
    """Start with no remembered verdict, and record each pair decided."""
    calls = []
    decide = hempel_module._decide_hempel

    def counted(r, ctx):
        calls.append((r, ctx))
        return decide(r, ctx)

    monkeypatch.setattr(hempel_module, "_decide_hempel", counted)
    monkeypatch.setattr(hempel_module, "_last_verdict", None)
    return calls


HEMPEL_PAIR = "< x, y, z1, z2 | [x,y][z1,z2], z1*y*z1*y^-1 >"


def test_equal_pairs_are_decided_once(monkeypatch):
    calls = count_decisions(monkeypatch)
    ctx_a, r_a = hempel_context(parse(HEMPEL_PAIR))
    ctx_b, r_b = hempel_context(parse(HEMPEL_PAIR))
    assert (r_a, ctx_a) == (r_b, ctx_b) and r_a is not r_b and ctx_a is not ctx_b
    first = check_hempel(r_a, ctx_a)
    assert check_hempel(r_b, ctx_b) is first
    assert len(calls) == 1
    # A new relator, or the same relator in a new context, is decided afresh,
    # and only the last pair is remembered.
    assert check_hempel(word(ctx_a, "z1"), ctx_a).nu == 0
    assert len(calls) == 2
    other_ctx = HempelContext(word(ctx_a, "z1*z2"))
    assert check_hempel(r_a, other_ctx) is not first
    assert len(calls) == 3
    assert check_hempel(r_a, ctx_a) == first
    assert len(calls) == 4


def test_bredon_and_build_hnn_share_one_decision(monkeypatch):
    calls = count_decisions(monkeypatch)
    p = parse(HEMPEL_PAIR)
    assert bredon_full(p).aspherical_source == "hempel"
    ctx, r = hempel_context(p)
    assert build_hnn(r, ctx).nu == 1
    assert len(calls) == 1


def test_report_details_are_read_only():
    ctx = genus2_ctx()
    for relator in ("z1", "x*y"):
        report = check_hempel(word(ctx, relator), ctx)
        assert set(report.details) == {"h1", "h2", "h3", "h4"}
        with pytest.raises(TypeError):
            report.details["h1"] = "holds"
        with pytest.raises(TypeError):
            del report.details["h2"]


@st.composite
def h2_candidates(draw):
    """(kind, expr, generator): the excluded generator u0^-1*x[1] of a random
    context over d = 1-3, and a conjugate-basis word that is either random or
    a conjugate of a rotation of a power of the generator's core or of its
    inverse."""
    d = draw(st.integers(1, 3))
    alphabet = Alphabet(["x", "y", *(f"z{j}" for j in range(1, d + 1))])
    z_letter = st.integers(3, 2 + d).flatmap(lambda g: st.sampled_from((g, -g)))
    ctx = HempelContext(Word(alphabet, draw(st.lists(z_letter, max_size=4))))
    generator = _cyclic_generator_expression(ctx)
    i, j = _cyclic_span(generator)
    gcore = generator[i:j]
    letters = st.builds(X1Letter, st.integers(0, d), st.integers(-1, 2), st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(["random", "power", "inverse power"]))
    if kind == "random":
        return kind, _reduce(draw(st.lists(letters, max_size=12))), generator
    k = draw(st.integers(1, 3))
    power = gcore * k if kind == "power" else _invert(gcore) * k
    shift = draw(st.integers(0, len(power) - 1))
    conjugator = _reduce(draw(st.lists(letters, max_size=3)))
    expr = _reduce(conjugator + power[shift:] + power[:shift] + _invert(conjugator))
    return kind, expr, generator


@given(h2_candidates())
def test_h2_letter_filter_agrees_with_the_class_keys(case):
    kind, expr, generator = case
    verdict = _conjugate_into_cyclic(expr, generator)
    assert verdict == conjugate_into_cyclic_by_keys(expr, generator)
    if kind != "random":
        assert verdict


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
        original = cokernel_invariants(exponent_matrix(p.alphabet, p.relators))
        full = h.full_presentation()
        lifted = cokernel_invariants(exponent_matrix(full.alphabet, full.relators))
        assert original == lifted


def test_lift_matches_generators_by_name():
    # The full alphabet inserts y at code 2; lifting by code shift must send
    # each base generator to the full generator of the same name.
    for text in (
        "< x, y, z1, z2 | [x,y][z1,z2], z1*(y^2*z2*y^-2)*(y*x^-1*y^-1) >",
        "< x, y, z1, z2, z3 | [x,y]*z3*z1*z2, z2^-1*(y^3*z3^2*y^-3)*(y*x*y^-1)*z1 >",
    ):
        ctx, r = hempel_context(parse(text))
        h = build_hnn(r, ctx)
        base = h.base_presentation.relators[0]
        lifted = h.full_presentation().relators[0]
        assert lifted == parse_word(str(base), h.full_alphabet)
        u0 = re.sub(r"(z\d+)", r"\1_0", str(h.context.u))
        assert h.conjugation_relators[0] == parse_word(f"y*x*y^-1*({u0}*x)^-1", h.full_alphabet)


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
    from bredonkit.free_group import _cyclic_span
    from bredonkit.free_group import _invert as _invert_x1
    from bredonkit.hempel import _conjugate_into_cyclic, _cyclic_generator_expression

    def core(expr):
        i, j = _cyclic_span(expr)
        return expr[i:j]

    rng = random.Random(47)
    ctx = genus2_ctx()
    gen = _cyclic_generator_expression(ctx)
    gcore = core(gen)
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
            w = w * y ** (-exponent_sum(w, "y"))
            if w.is_identity:
                continue
            expr = rewrite_in_normal_closure_basis(w, ctx)
        rcore = core(expr)
        limit = len(rcore) // max(len(gcore), 1) + 1
        brute = not rcore
        for k in range(1, limit + 1):
            for power in (gcore * k, _invert_x1(gcore) * k):
                if rotation_by_slices(rcore, power):
                    brute = True
        verdict = _conjugate_into_cyclic(expr, gen)
        assert verdict == brute
        seen_conjugate += verdict
    assert seen_conjugate > 0
