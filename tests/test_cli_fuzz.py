"""Hypothesis fuzzing of the command line, in process.

Whatever the text, JSON or option values, `main` returns 0, 1 or 2 and raises
nothing.  The letter budget and the oracle's size limit are lowered for these
tests, so that each call stays small; the limits themselves are tested in
test_cli.py.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bredonkit import cli, document_text, finite_oracle, parse, presentation
from bredonkit.errors import BredonkitError

PRESENTATION_VERBS = ("parse", "fox", "root", "bredon", "ktheory", "hempel-check", "hnn")

# Loose pieces of presentation text: the grammar's punctuation, names, digits
# that int() reads but the grammar refuses, and directive lines, some broken.
TOKENS = (
    "<", ">", "|", ",", "*", " ", "^", "-", "(", ")", "[", "]", "\n", "\t",
    "x", "y", "z1", "z2", "a_1", "X9", "0", "1", "2", "3", "12",
    "٣", "１", "²", "ä",
    "!torsion rel=0 order=2", "\n!torsion rel=1 order=3\n", "!torsion rel=٠ order=٢",
    "!torsion bogus", "!", "\r\n",
)


@st.composite
def words(draw, names, depth=2):
    """A relator in the grammar: powers, parentheses and commutators."""
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("name", "name", "group", "commutator") if depth else ("name",)))
        if kind == "name":
            factor = draw(st.sampled_from(names))
        elif kind == "group":
            factor = f"({draw(words(names, depth - 1))})"
        else:
            factor = f"[{draw(words(names, depth - 1))},{draw(words(names, depth - 1))}]"
        if draw(st.booleans()):
            factor += f"^{draw(st.integers(-4, 4))}"
        parts.append(factor)
    return draw(st.sampled_from(("*", " "))).join(parts)


@st.composite
def presentations(draw):
    """Well-formed presentation text, with or without torsion directives."""
    names = draw(st.lists(st.sampled_from(("x", "y", "z1", "z2", "c")), min_size=1, unique=True))
    relators = draw(st.lists(words(names), min_size=1, max_size=3))
    text = f"< {', '.join(names)} | {', '.join(relators)} >"
    for _ in range(draw(st.integers(0, 2))):
        rel, order = draw(st.integers(0, 3)), draw(st.integers(0, 5))
        text += f"\n!torsion rel={rel} order={order}"
    return text


@st.composite
def hempel_shaped(draw):
    """< x, y, z1.. | [x,y]u, r > with r a product of y-conjugates of letters,
    mostly at the levels the Hempel conditions allow."""
    d = draw(st.integers(1, 3))
    zs = [f"z{j}" for j in range(1, d + 1)]
    u = "*".join(draw(st.permutations(zs)))
    pieces = [draw(st.sampled_from(zs))]
    for _ in range(draw(st.integers(0, 3))):
        letter = draw(st.sampled_from(["x"] + zs))
        level = draw(st.integers(-1, 2) if letter == "x" else st.integers(-1, 30))
        sign = draw(st.sampled_from(("", "^-1")))
        pieces.append(f"y^{level}*{letter}{sign}*y^{-level}" if level else f"{letter}{sign}")
    return f"< x, y, {', '.join(zs)} | [x,y]*{u}, {'*'.join(draw(st.permutations(pieces)))} >"


presentation_texts = st.one_of(
    presentations(),
    hempel_shaped(),
    st.lists(st.sampled_from(TOKENS), max_size=30).map("".join),
    st.text(max_size=40),
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def spoiled(draw, document):
    """A well-formed JSON document, or, one time in four, one with a field
    replaced by any value."""
    doc = draw(document)
    if not draw(st.integers(0, 3)):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(json_values)
    return doc


@st.composite
def matrix_documents(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entries = st.lists(st.integers(-9, 9), min_size=rows * cols, max_size=rows * cols)
    return {"rows": rows, "cols": cols, "entries": draw(entries)}


groups = st.fixed_dictionaries(
    {"rank": st.integers(0, 3)},
    optional={"torsion": st.sampled_from(([], [2], [2, 4], [3, 6, 12], [2, 2]))},
)
combinator_requests = st.fixed_dictionaries(
    {"HA": st.lists(groups, max_size=5), "HB": st.lists(groups, max_size=5), "i": st.integers(0, 6)}
)
snf_documents = st.one_of(json_values, spoiled(matrix_documents())).map(json.dumps)
combinator_documents = st.one_of(json_values, spoiled(combinator_requests)).map(json.dumps)
oracle_sizes = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers().map(str),
    st.sampled_from(("", " 7", "7 ", "+5", "1_0", "٣", "１２", "0x10", "1e2", "2.0", "-", "nan", "9" * 5000)),
)


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(PRESENTATION_VERBS + ("snf", "combinator", "oracle")))
    if verb == "oracle":
        argv = [verb, "--n", draw(oracle_sizes)]
    else:
        text = {"snf": snf_documents, "combinator": combinator_documents}.get(verb, presentation_texts)
        argv = [verb, "--in", draw(text)]
    argv += ["--format", draw(st.sampled_from(("text", "json")))]
    if verb in ("bredon", "ktheory"):
        if draw(st.booleans()):
            argv.append("--assert-aspherical")
        for spec in draw(st.lists(st.sampled_from(("0=2", "1=3", "0=5", "x", "0=", "=2", "-1=2")), max_size=2)):
            argv += ["--torsion", spec]
    return argv


@pytest.fixture(scope="module")
def small_limits():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(presentation, "MAX_LETTERS", 400)
        mp.setattr(finite_oracle, "MAX_N", 30)
        yield


@settings(max_examples=250)
@given(argv=argvs())
def test_main_exits_0_1_or_2_and_raises_nothing(small_limits, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue().endswith("\n")


@settings(max_examples=150)
@given(text=presentation_texts)
def test_document_text_parses_back(small_limits, text):
    try:
        p = parse(text)
    except BredonkitError:
        return
    assert parse(document_text(p)) == p
