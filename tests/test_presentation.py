import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import bredonkit.presentation as presentation_module
from bredonkit import (
    AbelianGroupInvariants,
    Alphabet,
    IntMatrix,
    Presentation,
    Word,
    bredon_full,
    document_text,
    exponent_matrix,
    invariant_factors,
    parse,
    parse_word,
    presentation_text,
)
from bredonkit.errors import (
    AlphabetMismatchError,
    BredonkitError,
    DeclaredTorsionFormError,
    DegenerateRelatorError,
    PresentationSyntaxError,
    TorsionDeclarationError,
    UnknownGeneratorError,
)

from helpers import (
    entry,
    exponent_sum,
    fox_derivative,
    parse_by_expansion,
    random_word,
    time_limit,
    to_rows,
)

NEC_TEXT = """< a1, c1, c2 | c1^2, c2^3, c1^-1*c2^-1*a1^2 >
!torsion rel=0 order=2
!torsion rel=1 order=3"""


def test_parse_power_sugar():
    p = parse("< x | x^3 >")
    assert p.alphabet.names == ("x",)
    assert p.relators == (Word(p.alphabet, [1, 1, 1]),)


def test_parse_commutator_sugar():
    p = parse("< x, y | [x, y] >")
    assert p.relators[0] == Word(p.alphabet, [1, 2, -1, -2])


def test_parse_klein_bottle_relator():
    p = parse("< x, y | x*y*x^-1*y >")
    assert p.relators[0] == Word(p.alphabet, [1, 2, -1, 2])


def test_whitespace_acts_like_multiplication():
    assert parse("< x, y | x y >").relators[0] == parse("< x, y | x*y >").relators[0]


def test_nested_sugar_and_negative_exponents():
    p = parse("< x, y | ([x, y^2])^-1 >")
    inner = Word(p.alphabet, [1, 2, 2, -1, -2, -2])
    assert p.relators[0] == inner.inverse()


def test_zero_exponent_gives_identity_factor():
    p = parse("< x, y | x^0*y >")
    assert p.relators[0] == Word(p.alphabet, [2])


def test_multiline_and_multiple_relators():
    p = parse("< x,\n  y | x^2,\n [x, y] >")
    assert len(p.relators) == 2


def test_syntax_error_carries_position():
    with pytest.raises(PresentationSyntaxError) as err:
        parse("< x | x^ >")
    assert err.value.line == 1
    assert err.value.col == 10


def test_double_exponent_is_rejected():
    with pytest.raises(PresentationSyntaxError):
        parse("< x | x^2^3 >")


def test_unknown_generator_error():
    with pytest.raises(UnknownGeneratorError):
        parse("< x | x*q >")


def test_degenerate_relator_rejected():
    with pytest.raises(DegenerateRelatorError):
        parse("< x | x*x^-1 >")


def test_unexpected_character():
    with pytest.raises(PresentationSyntaxError):
        parse("< x | x$ >")


def test_print_parse_round_trip():
    samples = [
        "< x | x^3 >",
        "< x, y | [x, y] >",
        "< x, y, z1, z2 | [x,y][z1,z2], z1 >",
        "< a1, c1, c2 | c1^2, c2^3, c1^-1*c2^-1*a1^2 >",
    ]
    for text in samples:
        p = parse(text)
        assert parse(presentation_text(p)) == p


def test_document_round_trip_with_directives():
    p = parse(NEC_TEXT)
    assert p.declared_torsion == ((0, 2), (1, 3))
    assert parse(document_text(p)) == p


def test_malformed_directive():
    with pytest.raises(TorsionDeclarationError):
        parse("< x | x^2 >\n!torsion rel=zero order=2")


def test_directive_validation():
    with pytest.raises(TorsionDeclarationError):
        parse("< x | x^2 >\n!torsion rel=5 order=2")
    with pytest.raises(TorsionDeclarationError):
        parse("< x | x^2 >\n!torsion rel=0 order=1")
    with pytest.raises(TorsionDeclarationError):
        parse("< x | x^2 >\n!torsion rel=0 order=2\n!torsion rel=0 order=3")


def test_parse_word_helper():
    alphabet = Alphabet(["x", "y"])
    assert parse_word("x*y^-2", alphabet) == Word(alphabet, [1, -2, -2])


@st.composite
def presentation_texts(draw):
    """Presentation text over x, y, z from the whole word grammar: nested
    parentheses and commutators, '*' and whitespace products, and exponents
    that are zero, negative or have leading zeros.  It may name an unknown
    generator, and may be cut short."""
    names = ["x", "y", "z"][: draw(st.integers(1, 3))]
    rarely = st.sampled_from([False] * 5 + [True])
    idents = st.sampled_from(names + ["w"] if draw(rarely) else names)
    exponents = st.sampled_from(["0", "00", "1", "2", "3", "007", "12", "40", "0000000041"])

    def word(depth):
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["ident", "ident", "paren", "bracket"]))
            if depth >= 3 or kind == "ident":
                factor = draw(idents)
            elif kind == "paren":
                factor = f"({word(depth + 1)})"
            else:
                factor = f"[{word(depth + 1)},{word(depth + 1)}]"
            if draw(st.booleans()):
                factor += "^" + draw(st.sampled_from(["", "-"])) + draw(exponents)
            terms.append(factor)
        return draw(st.sampled_from(["*", " "])).join(terms)

    relators = ", ".join(word(0) for _ in range(draw(st.integers(1, 3))))
    text = f"< {', '.join(names)} | {relators} >"
    if draw(rarely):
        text = text[: draw(st.integers(0, len(text)))]
    return text


def parse_outcome(parser, text):
    """The generator names and relator codes, or the error's class, message,
    line and column."""
    try:
        p = parser(text)
    except BredonkitError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return p.alphabet.names, [r.code for r in p.relators]


@given(presentation_texts(), st.sampled_from([presentation_module.MAX_LETTERS]) | st.integers(1, 80))
@example("< x | x^40*x^-40*x >", 80)
@example("< x | x^40*x^-40*x >", 79)
@example("< x, y | [x^20,y^20] >", 80)
@example("< x, y | [x^20,y^20] >", 79)
@example("< x | (x*x^-1)^40, x >", 81)
@example("< x | (x*x^-1)^40, x >", 80)
def test_parse_agrees_with_spelling_out_every_letter(text, budget):
    # A small budget brings its edges within reach of short texts.
    with mock.patch.object(presentation_module, "MAX_LETTERS", budget):
        fast = parse_outcome(parse, text)
        slow = parse_outcome(parse_by_expansion, text)
    assert fast == slow


def test_budget_counts_letters_before_reduction():
    with time_limit(10):
        with pytest.raises(PresentationSyntaxError) as err:
            parse("<x|x^1000000*x^-1000000*x>")
        assert str(err.value) == (
            "input expands to more than 1000000 letters (line 1, column 13)"
        )
        p = parse("<x,y|(x*y^-1)^500000>")
    assert len(p.relators[0]) == 1_000_000


def test_parse_at_the_letter_budget():
    text = "<x,y|" + "*".join(["x*y^-1"] * 500_000) + ">"  # 1,000,000 letters, 3.5 MB
    # tracemalloc books every object the parse creates, which makes it 5 to 8
    # times slower, so the traced parse has a wider time bound than the failing
    # one below, which also reads a million letters.
    with time_limit(60):
        tracemalloc.start()
        try:
            p = parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert p.relators[0].code == (1, -2) * 500_000
    assert peak < 100 * 2**20
    text = "<x|" + "*".join(["x"] * 1_000_001) + ">"
    with time_limit(20):
        with pytest.raises(PresentationSyntaxError) as err:
            parse(text)
    assert str(err.value) == (
        "input expands to more than 1000000 letters (line 1, column 2000003)"
    )


# One malformed input per error site of the grammar, with the class and the
# message, line and column included, that the character-by-character
# tokenizer gave.  The differential test above shares the token scan and the
# positions with the parser it checks, so only this table pins them.
PARSE_ERRORS = [
    # characters that start no token
    ("<x|x٣>", PresentationSyntaxError, "unexpected character '٣' (line 1, column 5)"),
    ("<x|x\x1c>", PresentationSyntaxError, "unexpected character '\\x1c' (line 1, column 5)"),
    ("<α|α>", PresentationSyntaxError, "unexpected character 'α' (line 1, column 2)"),
    ("<x|x^2_>", PresentationSyntaxError, "unexpected character '_' (line 1, column 7)"),
    ("<x|x!y>", PresentationSyntaxError, "unexpected character '!' (line 1, column 5)"),
    ("<x|_x>", PresentationSyntaxError, "unexpected character '_' (line 1, column 4)"),
    ("<x|2_>", PresentationSyntaxError, "unexpected character '_' (line 1, column 5)"),
    ("<x|x>٣", PresentationSyntaxError, "unexpected character '٣' (line 1, column 6)"),
    ("<x|>\xa0", PresentationSyntaxError, "unexpected character '\\xa0' (line 1, column 5)"),
    ("<x|x\n٣>", PresentationSyntaxError, "unexpected character '٣' (line 2, column 1)"),
    # expected ..., found ...
    ("", PresentationSyntaxError, "expected '<', found 'end of input' (line 1, column 1)"),
    ("x|x>", PresentationSyntaxError, "expected '<', found 'x' (line 1, column 1)"),
    ("<|x>", PresentationSyntaxError, "expected 'IDENT', found '|' (line 1, column 2)"),
    ("<x,|x>", PresentationSyntaxError, "expected 'IDENT', found '|' (line 1, column 4)"),
    ("<x x>", PresentationSyntaxError, "expected '|', found 'x' (line 1, column 4)"),
    ("<x", PresentationSyntaxError, "expected '|', found 'end of input' (line 1, column 3)"),
    ("<x|(x>", PresentationSyntaxError, "expected ')', found '>' (line 1, column 6)"),
    ("<x|[x>", PresentationSyntaxError, "expected ',', found '>' (line 1, column 6)"),
    ("<x|[x,x>", PresentationSyntaxError, "expected ']', found '>' (line 1, column 8)"),
    ("<x|x)", PresentationSyntaxError, "expected '>', found ')' (line 1, column 5)"),
    ("<x|x", PresentationSyntaxError, "expected '>', found 'end of input' (line 1, column 5)"),
    ("<x|(x)^2^3>", PresentationSyntaxError, "expected '>', found '^' (line 1, column 9)"),
    ("<x|x>x", PresentationSyntaxError, "expected 'EOF', found 'x' (line 1, column 6)"),
    ("<x|x>>", PresentationSyntaxError, "expected 'EOF', found '>' (line 1, column 6)"),
    ("<x|x^>", PresentationSyntaxError, "expected 'INT', found '>' (line 1, column 6)"),
    ("<x|x^-y>", PresentationSyntaxError, "expected 'INT', found 'y' (line 1, column 7)"),
    ("<x|x^-", PresentationSyntaxError, "expected 'INT', found 'end of input' (line 1, column 7)"),
    ("<x|>", PresentationSyntaxError, "expected a word, found '>' (line 1, column 4)"),
    ("<x|x*>", PresentationSyntaxError, "expected a word, found '>' (line 1, column 6)"),
    ("<x|x,>", PresentationSyntaxError, "expected a word, found '>' (line 1, column 6)"),
    ("<x|", PresentationSyntaxError, "expected a word, found 'end of input' (line 1, column 4)"),
    # exponent digits
    ("<x|x^12345678>", PresentationSyntaxError, "exponent longer than 7 digits (line 1, column 6)"),
    (
        "<x|x^-0000000012345678>",
        PresentationSyntaxError,
        "exponent longer than 7 digits (line 1, column 7)",
    ),
    # the letter budget: at a '*', at a join by a space or a bracket, at an
    # exponent, at a '[' and at the start of a relator
    (
        "<x|x^1000000*x>",
        PresentationSyntaxError,
        "input expands to more than 1000000 letters (line 1, column 13)",
    ),
    (
        "<x|x^1000000 x>",
        PresentationSyntaxError,
        "input expands to more than 1000000 letters (line 1, column 14)",
    ),
    (
        "<x|x^1000000(x)>",
        PresentationSyntaxError,
        "input expands to more than 1000000 letters (line 1, column 13)",
    ),
    (
        "<x|(x*x)^500001>",
        PresentationSyntaxError,
        "input expands to more than 1000000 letters (line 1, column 10)",
    ),
    (
        "<x,y|[x^250000*y^250000,x]>",
        PresentationSyntaxError,
        "input expands to more than 1000000 letters (line 1, column 6)",
    ),
    (
        "<x,y|x^600000, y^600000>",
        PresentationSyntaxError,
        "input expands to more than 1000000 letters (line 1, column 16)",
    ),
    # nesting, unknown generators and degenerate relators
    (
        "<x|" + "(" * 101 + "x" + ")" * 101 + ">",
        PresentationSyntaxError,
        "brackets nested more than 100 deep (line 1, column 104)",
    ),
    (
        "<x|" + "[" * 101 + "x,x" + "]" * 101 + ">",
        PresentationSyntaxError,
        "brackets nested more than 100 deep (line 1, column 104)",
    ),
    ("<x|y>", UnknownGeneratorError, "unknown generator 'y' (line 1, column 4)"),
    ("<x|x*x^-1>", DegenerateRelatorError, "relator 0 reduces to the identity (line 1, column 4)"),
    ("<x|x, [x,x]>", DegenerateRelatorError, "relator 1 reduces to the identity (line 1, column 7)"),
    (
        "<x,y|y^2, (x*y)^0>",
        DegenerateRelatorError,
        "relator 1 reduces to the identity (line 1, column 11)",
    ),
    # positions after line 1, after a blanked directive line, tabs and '\r'
    ("<x,y|\nx*z>", UnknownGeneratorError, "unknown generator 'z' (line 2, column 3)"),
    (
        "<x|x^2\n!torsion rel=0 order=2\n, q>",
        UnknownGeneratorError,
        "unknown generator 'q' (line 3, column 3)",
    ),
    ("<x,\ty|\tx*\tq>", UnknownGeneratorError, "unknown generator 'q' (line 1, column 11)"),
    ("<x|x\r\n*q>", UnknownGeneratorError, "unknown generator 'q' (line 2, column 2)"),
    (
        "<x|x^2\n  !torsion rel=0 order=2\n\n\tx^2)>",
        PresentationSyntaxError,
        "expected '>', found ')' (line 4, column 5)",
    ),
    (
        "<x,y|x^2,\ny*x^-1*x*y^-1>",
        DegenerateRelatorError,
        "relator 1 reduces to the identity (line 2, column 1)",
    ),
]

PARSE_WORD_ERRORS = [
    ("x*q", UnknownGeneratorError, "unknown generator 'q' (line 1, column 3)"),
    ("x)", PresentationSyntaxError, "expected 'EOF', found ')' (line 1, column 2)"),
    ("", PresentationSyntaxError, "expected a word, found 'end of input' (line 1, column 1)"),
    ("x^2_", PresentationSyntaxError, "unexpected character '_' (line 1, column 4)"),
]


def raised(call, text, *args):
    with pytest.raises(BredonkitError) as err:
        call(text, *args)
    return text, type(err.value), str(err.value)


def test_parse_errors_are_pinned():
    assert [raised(parse, text) for text, _, _ in PARSE_ERRORS] == PARSE_ERRORS
    x = Alphabet(["x"])
    assert [raised(parse_word, text, x) for text, _, _ in PARSE_WORD_ERRORS] == PARSE_WORD_ERRORS


def test_parse_outcomes_are_pinned():
    parsed = [
        ("<x,y|x^2, y^3, (x*y)^5>", ("x", "y"), ((1, 1), (2, 2, 2), (1, 2) * 5), ()),
        (
            "<a,b1,c_2|[a,b1]*[c_2,a]^-2, a b1 a^-1>",
            ("a", "b1", "c_2"),
            ((1, 2, -1, -2, 1, 3, -1, -3, 1, 3, -1, -3), (1, 2, -1)),
            (),
        ),
        ("<x|x^0000002>", ("x",), ((1, 1),), ()),
        ("<x,y|x\t*\x0by\x0c\r>\n", ("x", "y"), ((1, 2),), ()),
        ("<x|x^2>\n!torsion rel=0 order=2\n", ("x",), ((1, 1),), ((0, 2),)),
    ]
    for text, names, codes, declared in parsed:
        p = parse(text)
        assert (p.alphabet.names, tuple(r.code for r in p.relators)) == (names, codes)
        assert p.declared_torsion == declared
    xy = Alphabet(["x", "y"])
    assert parse_word("[x,y]^-2 x", xy).code == (2, 1, -2, -1, 2, 1, -2)


def check_sparse_form(m):
    """No stored zero, columns in order, the same matrix as the from_rows
    build of its rows, and left as it was by invariant_factors."""
    for row in m.nonzeros:
        assert all(row.values())
        assert list(row) == sorted(row)
    rows = to_rows(m)
    assert m == IntMatrix.from_rows(rows, cols=m.cols)
    invariant_factors(m)
    assert to_rows(m) == rows


def test_exponent_matrix_examples():
    def matrix(text):
        p = parse(text)
        m = exponent_matrix(p.alphabet, p.relators)
        check_sparse_form(m)
        return m

    assert matrix("< x | x^3 >") == IntMatrix.from_rows([[3]])
    assert matrix("< x, y | [x, y] >") == IntMatrix.from_rows([[0, 0]])
    assert matrix("< x1, y1, x2, y2 | [x1,y1][x2,y2] >") == IntMatrix.from_rows([[0, 0, 0, 0]])
    # The x letters cancel, so row 0 stores only the y column.
    assert matrix("< x, y | [x,y]*x*y^-1*x^-1, y*x^2 >") == IntMatrix.from_rows(
        [[0, -1], [2, 1]]
    )


def test_exponent_matrix_matches_augmented_derivative():
    rng = random.Random(41)
    alphabet = Alphabet(["x", "y", "z"])
    for _ in range(50):
        rel = random_word(rng, alphabet, rng.randint(1, 16))
        if rel.is_identity:
            continue
        m = exponent_matrix(alphabet, (rel,))
        for j, gen in enumerate(alphabet):
            assert entry(m, 0, j) == fox_derivative(rel, gen).augmentation()


@st.composite
def words_over_one_alphabet(draw):
    alphabet = Alphabet([f"g{i}" for i in range(draw(st.integers(1, 6)))])
    letters = st.sampled_from([s for j in range(1, len(alphabet) + 1) for s in (j, -j)])
    words = draw(st.lists(st.lists(letters, max_size=30), max_size=4))
    return alphabet, [Word(alphabet, w) for w in words]


XY = Alphabet(["x", "y"])


@given(words_over_one_alphabet())
@example((XY, [parse_word("[x,y]*x*y^-1*x^-1", XY), parse_word("y*x^2", XY)]))
def test_exponent_matrix_matches_exponent_sums(case):
    alphabet, words = case
    m = exponent_matrix(alphabet, words)
    assert (m.rows, m.cols) == (len(words), len(alphabet))
    check_sparse_form(m)
    for i, w in enumerate(words):
        for j, gen in enumerate(alphabet):
            assert entry(m, i, j) == exponent_sum(w, gen)


def test_exponent_matrix_over_many_generators_is_one_pass():
    # One counting pass per word: a scan per generator takes seconds here.
    n = 8000
    alphabet = Alphabet([f"g{i}" for i in range(n)])
    word = Word(alphabet, [(i % n) + 1 for i in range(n)])
    with time_limit(1.0):
        m = exponent_matrix(alphabet, [word])
    assert m.nonzeros == [dict.fromkeys(range(n), 1)]


def test_exponent_matrix_refuses_other_alphabets():
    xy, xyz = Alphabet(["x", "y"]), Alphabet(["x", "y", "z"])
    for alphabet, word in ((xy, Word(xyz, [1, 3])), (xyz, Word(xy, [1, 2]))):
        with pytest.raises(AlphabetMismatchError):
            exponent_matrix(alphabet, [word])


# The rows of bredon_full's d2 are the relator roots, i.e. the root
# presentation of G/Tor(G).


def test_root_presentation_examples():
    for text, rooted in (
        ("< x | x^3 >", "< x | x >"),
        ("< x, y | (x*y)^3 >", "< x, y | x*y >"),
        ("< x, y | [x, y] >", "< x, y | [x, y] >"),
    ):
        result = bredon_full(parse(text))
        assert tuple(d.root for d in result.torsion) == parse(rooted).relators
        assert result.h1 == bredon_full(parse(rooted)).h1


def test_root_presentation_idempotent_and_scales_rows():
    p = parse("< x, y | (x*y^2)^4, x^2 >")
    data = bredon_full(p, assert_aspherical=True).torsion
    roots = tuple(d.root for d in data)
    rooted = Presentation(p.alphabet, roots)
    assert tuple(d.root for d in bredon_full(rooted, assert_aspherical=True).torsion) == roots
    original = exponent_matrix(p.alphabet, p.relators)
    reduced = exponent_matrix(p.alphabet, roots)
    for i, d in enumerate(data):
        for j in range(original.cols):
            assert entry(original, i, j) == d.order * entry(reduced, i, j)


# A directive restates what the roots say: the rows of d2 kill the declared
# torsion generators.


def test_kill_torsion_nec_example():
    p = parse(NEC_TEXT)
    result = bredon_full(p)
    rows = [d.root if d.order > 1 else rel for d, rel in zip(result.torsion, p.relators)]
    assert [str(w) for w in rows] == ["c1", "c2", "c1^-1*c2^-1*a1^2"]
    assert result.h1 == AbelianGroupInvariants(0, (2,))


def test_kill_torsion_rejects_non_single_generator_powers():
    text = "< c1, c2 | (c1*c2)^2 >\n!torsion rel=0 order=2"
    with pytest.raises(DeclaredTorsionFormError, match="not a power of a single generator"):
        parse(text)


def test_presentation_validation():
    alphabet = Alphabet(["x"])
    with pytest.raises(DegenerateRelatorError):
        Presentation(alphabet, (alphabet.identity(),))
    x_squared = (Word(alphabet, [1, 1]),)
    assert Presentation(alphabet, x_squared, ((0, 2),)).declared_torsion == ((0, 2),)
    with pytest.raises(DeclaredTorsionFormError, match="differs from its exponent 2"):
        Presentation(alphabet, x_squared, ((0, 3),))


def test_relatorless_presentation_via_api():
    alphabet = Alphabet(["x", "y"])
    p = Presentation(alphabet, ())
    assert exponent_matrix(alphabet, p.relators).rows == 0
    assert exponent_matrix(alphabet, p.relators).cols == 2
