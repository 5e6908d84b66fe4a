import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from bredonkit import build_hnn, cli, hempel_context, parse, presentation
from bredonkit.cli import main
from bredonkit.hempel import HnnPresentation

NEC_TEXT = """< a1, c1, c2 | c1^2, c2^3, c1^-1*c2^-1*a1^2 >
!torsion rel=0 order=2
!torsion rel=1 order=3"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == "bredonkit/1"
    return payload


def test_root_single_relator_shape(capsys):
    payload = run_json(capsys, "root", "--in", "<x,y|(x*y)^3>", "--format", "json")
    assert payload["root"] == "x*y"
    assert payload["log"] == 3


def test_root_multi_relator_shape(capsys):
    payload = run_json(capsys, "root", "--in", "<x,y|x^2, y^3>", "--format", "json")
    assert payload["roots"] == [
        {"relator": "x^2", "root": "x", "log": 2},
        {"relator": "y^3", "root": "y", "log": 3},
    ]


def test_parse_round_trip_text(capsys):
    code, out, _ = run(capsys, "parse", "--in", "<x,y|[x,y]>")
    assert code == 0
    assert out.strip() == "< x, y | x*y*x^-1*y^-1 >"


def test_snf_verb(capsys):
    payload = run_json(
        capsys,
        "snf",
        "--in",
        '{"rows":2,"cols":2,"entries":[2,0,0,3]}',
        "--format",
        "json",
    )
    assert payload["D"] == [1, 6]
    assert payload["rank"] == 2


def test_snf_verb_output_is_pinned(capsys):
    # [[0, 0, 0], [0, 4, 6]] has invariant factors 2, 0: a zero on the diagonal.
    matrix = '{"rows":2,"cols":3,"entries":[0,0,0,0,4,6]}'
    assert run(capsys, "snf", "--in", matrix) == (0, "D = [2, 0]\nrank = 1\n", "")
    assert run(capsys, "snf", "--in", matrix, "--format", "json") == (
        0,
        '{"schema":"bredonkit/1","D":[2,0],"rank":1}\n',
        "",
    )


def test_snf_rejects_bad_json(capsys):
    code, _, err = run(capsys, "snf", "--in", "{broken", "--format", "json")
    assert code == 2
    assert "error[invalid-input]" in err


@pytest.mark.parametrize(
    "matrix",
    [
        '{"rows":1,"cols":1,"entries":[1.5]}',
        '{"rows":1,"cols":1,"entries":[2.0]}',
        '{"rows":1,"cols":2,"entries":[true,"4"]}',
        '{"rows":1,"cols":1,"entries":[false]}',
        '{"rows":1,"cols":1,"entries":["3"]}',
        '{"rows":2.7,"cols":1,"entries":[1,2]}',
        '{"rows":true,"cols":1,"entries":[1]}',
        '{"rows":1,"cols":"1","entries":[1]}',
        '{"rows":1,"cols":1,"entries":"1"}',
    ],
)
def test_snf_accepts_only_json_integers(capsys, matrix):
    code, out, err = run(capsys, "snf", "--in", matrix)
    assert (code, out) == (2, "")
    assert err.startswith("error[invalid-input]: ")


def test_snf_size_budget(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SNF_SIDE", 3)
    code, out, _ = run(capsys, "snf", "--in", '{"rows":3,"cols":3,"entries":[2,0,0,0,3,0,0,0,0]}')
    assert (code, out) == (0, "D = [1, 6, 0]\nrank = 2\n")
    for rows, cols in ((4, 1), (1, 4)):
        matrix = json.dumps({"rows": rows, "cols": cols, "entries": [1] * 4})
        assert run(capsys, "snf", "--in", matrix) == (
            2,
            "",
            "error[resource-limit]: snf allows at most 3 rows and columns\n",
        )


def test_bredon_cyclic_json(capsys):
    payload = run_json(capsys, "bredon", "--in", "<x|x^6>", "--format", "json")
    assert payload["H0"] == {"rank": 6, "torsion": []}
    assert payload["H1"] == {"rank": 0, "torsion": []}
    assert payload["H2"] == {"rank": 0, "torsion": []}
    assert payload["higher"] == "ALL_ZERO"
    assert payload["aspherical_source"] == "one-relator"


def test_bredon_declared_torsion_flags_match_directives(capsys):
    from_flags = run_json(
        capsys,
        "bredon",
        "--in",
        "< a1, c1, c2 | c1^2, c2^3, c1^-1*c2^-1*a1^2 >",
        "--torsion",
        "0=2",
        "--torsion",
        "1=3",
        "--format",
        "json",
    )
    from_directives = run_json(capsys, "bredon", "--in", NEC_TEXT, "--format", "json")
    assert from_flags == from_directives
    assert from_flags["H0"] == {"rank": 5, "torsion": []}
    assert from_flags["H1"] == {"rank": 0, "torsion": [2]}
    assert from_flags["H2"] is None
    assert from_flags["higher"] == "EQUALS_H_BG"


def test_declared_order_must_match_the_relator(capsys):
    digits = "9" * 4000
    refused = (
        ("<x|x^2>\n!torsion rel=0 order=5",),
        ("<x|x^4>\n!torsion rel=0 order=2",),
        (f"<x|x^2>\n!torsion rel=0 order={digits}",),
        ("<x|x^2>", "--torsion", "0=5"),
        ("<x|x^2>", "--torsion", f"0={digits}"),
    )
    # Every verb that reads a presentation refuses a false directive.
    for verb in ("parse", "fox", "root", "hempel-check", "hnn", "bredon", "ktheory"):
        for text, *flags in refused:
            if flags and verb not in ("bredon", "ktheory"):
                continue
            code, out, err = run(capsys, verb, "--in", text, *flags)
            assert (code, out) == (1, "")
            assert err.startswith("error[declared-torsion-form]: declared order of torsion")
            assert "relator 0 differs from its exponent" in err
            assert len(err) < 200  # the declared number is not echoed


def test_declarations_only_assert_what_the_roots_say(capsys):
    # Z/2 * Z/3 (put z = x*y): the undeclared (x*y)^3 carries torsion too.
    plain = run(capsys, "bredon", "--in", "<x,y|x^2,(x*y)^3>")
    assert plain == run(capsys, "bredon", "--in", "<x,y|x^2,(x*y)^3>", "--torsion", "0=2")
    assert plain[0] == 0 and "\nH1 = 0\n" in plain[1]
    # A directive does not keep a Hempel pair from its certificate.
    hempel = "<x,y,z1|[x,y]*z1, z1^2>"
    certified = run(capsys, "bredon", "--in", hempel)
    assert certified == run(capsys, "bredon", "--in", hempel + "\n!torsion rel=1 order=2")
    assert certified[0] == 0 and "aspherical_source = hempel\n" in certified[1]


def test_consistent_declarations_are_unchanged(capsys):
    nec = (
        "H0 = Z^5\nH1 = Z/2\nH2 = not computed\nhigher = EQUALS_H_BG\n"
        "note: H_i = H_i(BG-bar; Z) for i >= 2, not computed\naspherical_source = None\n"
    )
    flags = ("--torsion", "0=2", "--torsion", "1=3")
    assert run(capsys, "bredon", "--in", NEC_TEXT) == (0, nec, "")
    assert run(capsys, "bredon", "--in", NEC_TEXT.split("\n")[0], *flags) == (0, nec, "")
    cyclic = "K0 = Z^3\nK1 = 0\nh0_interpretation = BREDON_H0\nH0 = Z^3\nH1 = 0\nH2 = 0\n"
    assert run(capsys, "ktheory", "--in", "<x|x^-3>", "--torsion", "0=3") == (0, cyclic, "")
    nec_json = (
        '{"schema":"bredonkit/1","H0":{"rank":5,"torsion":[]},"H1":{"rank":0,"torsion":[2]},'
        '"H2":null,"higher":"EQUALS_H_BG","note":"H_i = H_i(BG-bar; Z) for i >= 2, not computed",'
        '"aspherical_source":null,"torsion":[{"rel":0,"root":"c1","order":2},'
        '{"rel":1,"root":"c2","order":3},{"rel":2,"root":"c1^-1*c2^-1*a1^2","order":1}],'
        '"warnings":[]}\n'
    )
    assert run(capsys, "bredon", "--in", NEC_TEXT, "--format", "json") == (0, nec_json, "")
    parsed = (
        '{"schema":"bredonkit/1","generators":["a1","c1","c2"],'
        '"relators":["c1^2","c2^3","c1^-1*c2^-1*a1^2"],"torsion_mode":"DECLARED",'
        '"declared_torsion":[{"rel":0,"order":2},{"rel":1,"order":3}]}\n'
    )
    assert run(capsys, "parse", "--in", NEC_TEXT, "--format", "json") == (0, parsed, "")


def test_ktheory_json(capsys):
    payload = run_json(capsys, "ktheory", "--in", "<x|x^4>", "--format", "json")
    assert payload["K0"] == {"rank": 4, "torsion": []}
    assert payload["K1"] == {"rank": 0, "torsion": []}
    assert payload["h0_interpretation"] == "BREDON_H0"


def test_ktheory_literal_interpretation(capsys):
    argv = ("ktheory", "--in", "<x|x^4>", "--h0-interpretation", "literal")
    assert run(capsys, *argv, "--format", "json") == (
        0,
        '{"schema":"bredonkit/1","H0":{"rank":4,"torsion":[]},"H1":{"rank":0,"torsion":[]},'
        '"H2":{"rank":0,"torsion":[]},"higher":"ALL_ZERO","note":"",'
        '"aspherical_source":"one-relator","torsion":[{"rel":0,"root":"x","order":4}],'
        '"warnings":[],"K0":{"rank":4,"torsion":[]},"K1":{"rank":0,"torsion":[]},'
        '"h0_interpretation":"LITERAL_RC_G"}\n',
        "",
    )
    assert run(capsys, *argv)[1].split("\n")[2] == "h0_interpretation = LITERAL_RC_G"


def test_ktheory_fails_without_model(capsys):
    code, _, err = run(capsys, "ktheory", "--in", NEC_TEXT)
    assert code == 1
    assert "error[not-2-dimensional]" in err


def test_ktheory_with_assertion(capsys):
    payload = run_json(
        capsys, "ktheory", "--in", NEC_TEXT, "--assert-aspherical", "--format", "json"
    )
    assert payload["aspherical_source"] == "user-asserted"
    assert payload["K1"] == {"rank": 0, "torsion": [2]}


def test_hempel_check_json(capsys):
    payload = run_json(
        capsys,
        "hempel-check",
        "--in",
        "<x,y,z1,z2|[x,y][z1,z2], z1>",
        "--format",
        "json",
    )
    assert payload["is_hempel"] is True
    assert payload["nu"] == 0
    assert all(payload[key]["holds"] for key in ("h1", "h2", "h3", "h4"))


def test_hempel_check_rejects_wrong_shape(capsys):
    code, _, err = run(capsys, "hempel-check", "--in", "<x,y,z1|z1*[x,y], z1>")
    assert code == 1
    assert "error[not-hempel-form]" in err
    assert "not a Hempel-form presentation" in err


def test_hnn_text_is_a_presentation(capsys):
    code, out, _ = run(capsys, "hnn", "--in", "<x,y,z1,z2|[x,y][z1,z2], z1>")
    assert code == 0
    assert out.strip() == (
        "< x, y, z1_0, z2_0 | z1_0, y*x*y^-1*x^-1*z2_0*z1_0*z2_0^-1*z1_0^-1 >"
    )


def test_hnn_json_payload(capsys):
    text = "<x,y,z1,z2|[x,y][z1,z2], z1*y*z1*y^-1>"
    assert run(capsys, "hnn", "--in", text, "--format", "json") == (
        0,
        '{"schema":"bredonkit/1","generators":["x","y","z1_0","z1_1","z2_0","z2_1"],'
        '"stable_letter":"y","base_generators":["x","z1_0","z1_1","z2_0","z2_1"],'
        '"base_relator":"z1_0*z1_1","conjugation_relators":['
        '"y*x*y^-1*x^-1*z2_0*z1_0*z2_0^-1*z1_0^-1","y*z1_0*y^-1*z1_1^-1",'
        '"y*z2_0*y^-1*z2_1^-1"],"nu":1,"relator_over_conjugate_basis":"z1[0]*z1[1]",'
        '"magnus":{"relator_involves_level_zero":true,"relator_involves_level_nu":true},'
        '"roundtrip":true,"presentation":"< x, y, z1_0, z1_1, z2_0, z2_1 | z1_0*z1_1, '
        'y*x*y^-1*x^-1*z2_0*z1_0*z2_0^-1*z1_0^-1, y*z1_0*y^-1*z1_1^-1, '
        'y*z2_0*y^-1*z2_1^-1 >"}\n',
        "",
    )


def test_hnn_json_reads_the_magnus_certificate_off_the_split(capsys):
    text = "<x,y,z1,z2|[x,y][z1,z2], z1*y*z1*y^-1>"
    payload = run_json(capsys, "hnn", "--in", text, "--format", "json")
    ctx, r = hempel_context(parse(text))
    h = build_hnn(r, ctx)
    assert payload["magnus"] == {
        "relator_involves_level_zero": h.relator_involves_level_zero,
        "relator_involves_level_nu": h.relator_involves_level_nu,
    }


def test_hnn_refuses_a_split_without_the_magnus_certificate(capsys, monkeypatch):
    text = "<x,y,z1,z2|[x,y][z1,z2], z1*y*z1*y^-1>"
    for name in ("relator_involves_level_zero", "relator_involves_level_nu"):
        with monkeypatch.context() as patched:
            patched.setattr(HnnPresentation, name, property(lambda self: False))
            for fmt in ("text", "json"):
                code, out, err = run(capsys, "hnn", "--in", text, "--format", fmt)
                assert code != 0 and out == ""
                assert "Magnus subgroup certificate failed" in err


def test_hnn_refuses_a_split_that_fails_its_roundtrip(capsys, monkeypatch):
    monkeypatch.setattr(cli, "hnn_roundtrip_check", lambda h, p: False)
    for fmt in ("text", "json"):
        assert run(capsys, "hnn", "--in", "<x,y,z1,z2|[x,y][z1,z2], z1>", "--format", fmt) == (
            1,
            "",
            "error[hnn-roundtrip]: the HNN presentation does not recover the input"
            " by Tietze moves\n",
        )


def test_oracle_text(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "6")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_oracle_json(capsys):
    payload = run_json(capsys, "oracle", "--n", "5", "--format", "json")
    assert payload["ok"] is True
    assert payload["relation_sequence"]["boundary_rank"] == 4


def test_oracle_size_budget(capsys):
    code, out, err = run(capsys, "oracle", "--n", "401")
    assert (code, out) == (2, "")
    assert err == "error[resource-limit]: the cyclic oracle allows n <= 400\n"


def test_huge_oracle_exits_before_building_matrices():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "bredonkit.cli", "oracle", "--n", "100000000"],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error[resource-limit]: ")
    assert "Traceback" not in proc.stderr


def test_combinator(capsys):
    request = json.dumps(
        {
            "HA": [{"rank": 0}, {"rank": 0}, {"rank": 0}, {"rank": 2, "torsion": []}],
            "HB": [{"rank": 0}, {"rank": 0}, {"rank": 0}, {"rank": 0, "torsion": [2, 4]}],
            "i": 3,
        }
    )
    payload = run_json(capsys, "combinator", "--in", request, "--format", "json")
    assert payload == {"schema": "bredonkit/1", "rank": 2, "torsion": [2, 4]}


def test_combinator_torsion_budget(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SNF_SIDE", 3)
    request = {"HA": [{"rank": 0, "torsion": [2, 2, 2]}], "HB": [], "i": 4}
    assert run(capsys, "combinator", "--in", json.dumps(request)) == (0, "0\n", "")
    request["HB"] = [{"rank": 0, "torsion": [3] * 4}]
    assert run(capsys, "combinator", "--in", json.dumps(request)) == (
        2,
        "",
        "error[resource-limit]: combinator allows at most 3 torsion entries per group\n",
    )


def test_combinator_degree_error(capsys):
    request = json.dumps({"HA": [], "HB": [], "i": 2})
    code, _, err = run(capsys, "combinator", "--in", request)
    assert code == 1
    assert "error[combinator-degree]" in err


@pytest.mark.parametrize(
    "request_text",
    [
        # Each of these was truncated or coerced by int() and answered with exit 0.
        '{"HA":[{"rank":0},{"rank":0},{"rank":0},{"rank":1.5,"torsion":[2.9]}],'
        '"HB":[{"rank":0},{"rank":0},{"rank":0},{"rank":"2"}],"i":3.9}',
        '{"HA":[],"HB":[],"i":3.0}',
        '{"HA":[],"HB":[],"i":"3"}',
        '{"HA":[],"HB":[],"i":true}',
        '{"HA":[{"rank":true}],"HB":[],"i":3}',
        '{"HA":[{"rank":2.0}],"HB":[],"i":3}',
        '{"HA":[{"rank":0,"torsion":[2,"4"]}],"HB":[],"i":3}',
        '{"HA":[{"rank":0,"torsion":[false]}],"HB":[],"i":3}',
        '{"HA":[{"rank":0,"torsion":"2"}],"HB":[],"i":3}',
        '{"HA":[{"rank":-1}],"HB":[],"i":3}',
    ],
)
def test_combinator_accepts_only_json_integers(capsys, request_text):
    code, out, err = run(capsys, "combinator", "--in", request_text, "--format", "json")
    assert (code, out) == (2, "")
    assert err.startswith("error[invalid-input]: ")


@pytest.mark.parametrize(
    "exc, reason",
    [(MemoryError, "out of memory"), (RecursionError, "recursion too deep")],
)
def test_interpreter_limits_are_resource_errors(capsys, monkeypatch, exc, reason):
    def exhausted(args):
        raise exc()

    monkeypatch.setitem(cli._HANDLERS, "parse", exhausted)
    assert run(capsys, "parse", "--in", "<x|x^2>") == (
        2,
        "",
        f"error[resource-limit]: {reason}\n",
    )


def test_fox_text(capsys):
    code, out, _ = run(capsys, "fox", "--in", "<x,y|[x,y]>")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d(x*y*x^-1*y^-1)/d(x) = 1 - x*y*x^-1"
    assert lines[1] == "d(x*y*x^-1*y^-1)/d(y) = x - x*y*x^-1*y^-1"


def test_exit_code_on_syntax_error(capsys):
    code, _, err = run(capsys, "parse", "--in", "<x|x^>")
    assert code == 2
    assert "error[parse-error]" in err


def test_deep_nesting_is_a_parse_error(capsys):
    nested = "(" * 5000 + "x" + ")" * 5000
    code, _, err = run(capsys, "parse", "--in", f"<x|{nested}>")
    assert code == 2
    assert err.startswith("error[parse-error]")
    assert "Traceback" not in err


def test_non_decimal_digit_is_a_parse_error(capsys):
    code, _, err = run(capsys, "parse", "--in", "<x|x^\u00b2>")
    assert code == 2
    assert err.startswith("error[parse-error]")
    assert "Traceback" not in err
    # The grammar's digits are ASCII: decimal digits of other scripts are refused too.
    code, out, err = run(capsys, "parse", "--in", "<x|x^\u0663>")
    assert (code, out) == (2, "")
    assert err == "error[parse-error]: unexpected character '\u0663' (line 1, column 6)\n"


def assert_over_budget(capsys, text, message, column):
    code, _, err = run(capsys, "parse", "--in", text)
    assert code == 2
    assert err == f"error[parse-error]: {message} (line 1, column {column})\n"


def test_overlong_exponent_is_a_parse_error(capsys):
    assert_over_budget(capsys, "<x|x^" + "1" * 5000 + ">", "exponent longer than 7 digits", 6)


def test_nested_commutators_stop_at_the_letter_budget(capsys):
    # Each level more than doubles the word, long before MAX_NESTING is reached.
    nested = "[" * 60 + "[x,y]" + ",y]" * 60
    message = "input expands to more than 1000000 letters"
    assert_over_budget(capsys, f"<x,y|{nested}>", message, 48)


def test_huge_power_stops_at_the_letter_budget(capsys, monkeypatch):
    assert_over_budget(capsys, "<x|x^1000000000>", "exponent longer than 7 digits", 6)
    monkeypatch.setattr(presentation, "MAX_LETTERS", 12)
    within = ("<x|x^12>", "<x|x^-4 x^8>", "<x,y|[x^3,y^3]>", "<x|x^0012>", "<x,y|x^6, y^6>")
    for text in within:
        assert run(capsys, "parse", "--in", text)[0] == 0
    # The error points at the exponent, the term, the bracket or the relator
    # whose letters first exceed the budget.
    over = {
        "<x|x^13>": 6,
        "<x|x^-5 x^8>": 9,
        "<x,y|[x^3,y^4]>": 6,
        "<x|(x^2)^-7>": 11,
        "<x|x^99>": 6,
        "<x,y|x^6, y^7>": 11,
    }
    for text, column in over.items():
        assert_over_budget(capsys, text, "input expands to more than 12 letters", column)


def test_overlong_torsion_directive_number_is_refused(capsys):
    digits = "1" * 5000
    for directive in (f"!torsion rel={digits} order=2", f"!torsion rel=0 order={digits}"):
        code, _, err = run(capsys, "parse", "--in", f"<x|x^2>\n{directive}")
        assert code == 2
        assert err.startswith("error[invalid-torsion-declaration]: malformed directive")
        assert "Traceback" not in err


# The grammar is ASCII; str.isalpha, str.isdecimal and int() take the letters
# and digits of other scripts, and int() also signs, spaces and underscores.
@pytest.mark.parametrize(
    "text, column",
    [("<α|α^2>", 2), ("<x²|x²^2>", 3), ("<x|x^٢>", 6), ("<x|x^１>", 6), ("<x,ä|x>", 4)],
)
def test_non_ascii_letters_and_digits_are_refused(capsys, text, column):
    ch = text[column - 1]
    assert run(capsys, "bredon", "--in", text) == (
        2,
        "",
        f"error[parse-error]: unexpected character {ch!r} (line 1, column {column})\n",
    )


# str.isspace, str.splitlines, str.strip and re's \s also take the separators
# of other scripts and the ASCII file, group, record and unit separators.
@pytest.mark.parametrize(
    "text, err",
    [
        ("<x|x\u00a0x\u2003x>", "parse-error]: unexpected character '\\xa0' (line 1, column 5)"),
        ("<x|x\x1cx>", "parse-error]: unexpected character '\\x1c' (line 1, column 5)"),
        (
            "<x|x^2>\u2028!torsion rel=0 order=2",
            "parse-error]: unexpected character '\\u2028' (line 1, column 8)",
        ),
        (
            "<x|x^2>\n!torsion\u3000rel=0 order=2",
            "invalid-torsion-declaration]: malformed directive '!torsion\\u3000rel=0 order=2'",
        ),
        (
            "<x|x^2>\n!torsion rel=0 order=2\u3000",
            "invalid-torsion-declaration]: malformed directive '!torsion rel=0 order=2\\u3000'",
        ),
    ],
    ids=["tokenizer", "tokenizer-ascii-separator", "line-split", "directive", "strip"],
)
def test_non_ascii_whitespace_is_refused(capsys, text, err):
    assert run(capsys, "parse", "--in", text) == (2, "", f"error[{err}\n")


def test_crlf_document_parses(capsys):
    crlf = NEC_TEXT.replace("\n", "\r\n") + "\r\n"
    assert run(capsys, "parse", "--in", crlf) == (0, NEC_TEXT + "\n", "")


@pytest.mark.parametrize("verb", ["parse", "snf"])
def test_non_utf8_file_is_invalid_input(capsys, tmp_path, verb):
    path = tmp_path / "input.txt"
    path.write_bytes(b"<x|x^2>\xff")
    assert run(capsys, verb, "--file", str(path)) == (
        2,
        "",
        f"error[invalid-input]: {path} is not UTF-8 text: byte 7 cannot be decoded\n",
    )


def test_torsion_directive_takes_ascii_digits_only(capsys):
    for directive in ("!torsion rel=٠ order=٢", "!torsion rel=0 order=２"):
        assert run(capsys, "bredon", "--in", f"<x|x^2>\n{directive}") == (
            2,
            "",
            f"error[invalid-torsion-declaration]: malformed directive {directive!r}\n",
        )


@pytest.mark.parametrize("spec", ["0=+2", "0= 2", "0=1_0", "0=٢", "٠=2", "+0=2", "0=2=3"])
def test_torsion_flag_takes_ascii_digits_only(capsys, spec):
    assert run(capsys, "bredon", "--in", "<x|x^2>", "--torsion", spec) == (
        2,
        "",
        f"error[invalid-torsion-declaration]: malformed --torsion value {spec!r};"
        " expected <rel>=<order>\n",
    )


def test_exit_code_on_degenerate_relator(capsys):
    code, _, err = run(capsys, "parse", "--in", "<x|x*x^-1>")
    assert code == 1
    assert "error[degenerate-relator]" in err


def test_exit_code_on_unknown_generator(capsys):
    code, _, err = run(capsys, "parse", "--in", "<x|q>")
    assert code == 2
    assert "error[unknown-generator]" in err


def test_exit_code_on_usage_error(capsys):
    assert main(["bredon"]) == 2  # neither --in nor --file
    capsys.readouterr()


def test_unknown_verb_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_file_reports_io_error(capsys):
    code, _, err = run(capsys, "parse", "--file", "/nonexistent/path.txt")
    assert code == 1
    assert "error[io]" in err


def test_file_input_with_directives(capsys, tmp_path):
    path = tmp_path / "nec.txt"
    path.write_text(NEC_TEXT + "\n", encoding="utf-8")
    payload = run_json(capsys, "bredon", "--file", str(path), "--format", "json")
    assert payload["H0"] == {"rank": 5, "torsion": []}
    assert payload["torsion"] == [
        {"rel": 0, "root": "c1", "order": 2},
        {"rel": 1, "root": "c2", "order": 3},
        {"rel": 2, "root": "c1^-1*c2^-1*a1^2", "order": 1},
    ]


def test_hnn_fails_on_non_hempel_relator(capsys):
    code, _, err = run(capsys, "hnn", "--in", "<x,y,z1,z2|[x,y][z1,z2], y*x*y^-1>")
    assert code == 1
    assert "error[hempel-precondition]" in err


# Each x-letter of the base relator becomes u0*x, and there are d*nu four-letter
# z-conjugation relators: either count grows past what the input costs.
@pytest.mark.parametrize(
    "text, letters",
    [
        ("<x,y,z1,z2 | [x,y]*(z1*z2)^10, y*x^20*y^-1*z1>", 445),
        ("<x,y,z1,z2 | [x,y]*z1*z2, z1*y^50*z2*y^-50>", 408),
    ],
    ids=["long-u", "high-level"],
)
def test_hnn_refuses_a_presentation_over_the_letter_budget(capsys, monkeypatch, text, letters):
    monkeypatch.setattr(presentation, "MAX_LETTERS", 400)
    assert run(capsys, "parse", "--in", text)[0] == 0
    assert run(capsys, "hnn", "--in", text) == (
        2,
        "",
        f"error[resource-limit]: the HNN presentation has {letters} letters, more than 400\n",
    )
    monkeypatch.setattr(presentation, "MAX_LETTERS", letters)
    assert run(capsys, "hnn", "--in", text)[0] == 0


def run_capped(*argv, timeout):
    """The CLI as a subprocess with its address space capped at 1 GiB."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    limit = 1 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "bredonkit.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap_address_space,
        timeout=timeout,
    )


def test_huge_hnn_exits_before_building_the_presentation():
    # About 3 * 10^8 letters of HNN presentation from a 60-byte input.
    text = "<x,y,z1,z2 | [x,y]*(z1*z2)^1000, y*x^150000*y^-1*z1>"
    proc = run_capped("hnn", "--in", text, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error[resource-limit]: the HNN presentation has ")


# A relator of length L has derivative terms on its L prefixes, each printed
# in full: L*(L+1)/2 letters in all, in text and in JSON.
def test_fox_refuses_output_over_the_letter_budget(capsys, monkeypatch):
    monkeypatch.setattr(presentation, "MAX_LETTERS", 20)
    text = "<x,y|(x*y)^2, x^3>"  # 4*5/2 + 3*4/2 = 16 letters
    assert run(capsys, "fox", "--in", text)[0] == 0
    monkeypatch.setattr(presentation, "MAX_LETTERS", 15)
    for fmt in ("text", "json"):
        assert run(capsys, "fox", "--in", text, "--format", fmt) == (
            2,
            "",
            "error[resource-limit]: the Fox derivatives have 16 prefix letters, more than 15\n",
        )
    monkeypatch.setattr(presentation, "MAX_LETTERS", 16)
    assert run(capsys, "fox", "--in", text, "--format", "json")[0] == 0


def test_snf_checks_shape_then_budget_before_building_rows():
    # The shape is valid and 10^8 empty rows would exhaust the cap, so the
    # side budget must refuse it first; a bad entry count is refused earlier.
    refusals = {
        '{"rows":100000000,"cols":0,"entries":[]}': (
            "error[resource-limit]: snf allows at most 400 rows and columns\n"
        ),
        '{"rows":500,"cols":1,"entries":[1]}': (
            "error[invalid-input]: expected matrix JSON {rows, cols, entries}:"
            " entry count does not match dimensions\n"
        ),
    }
    for matrix, err in refusals.items():
        proc = run_capped("snf", "--in", matrix, timeout=30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


def test_huge_fox_exits_before_computing_derivatives():
    # 1414 letters: 1,000,405 prefix letters, just over the real budget.
    proc = run_capped("fox", "--in", "<x,y|(x*y)^707>", timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error[resource-limit]: the Fox derivatives have 1000405 prefix letters,"
        " more than 1000000\n"
    )


def test_exponent_matrix_cell_budget(capsys, monkeypatch):
    text = "<x,y,z|(x*y)^3*z^2>"  # one relator over three generators: 3 cells
    monkeypatch.setattr(presentation, "MAX_MATRIX_CELLS", 3)
    for verb in ("bredon", "ktheory"):
        assert run(capsys, verb, "--in", text)[0] == 0
    monkeypatch.setattr(presentation, "MAX_MATRIX_CELLS", 2)
    for verb in ("bredon", "ktheory"):
        assert run(capsys, verb, "--in", text) == (
            2,
            "",
            "error[resource-limit]: the exponent matrix has 3 cells, more than 2\n",
        )


def test_cell_budget_admits_the_nu_1000_split():
    text = "<x,y,z1,z2,z3|[x,y]*z1*z2*z3, z1*(y^1000*z3*y^-1000)*(y*x*y^-1)>"
    ctx, r = hempel_context(parse(text))
    full = build_hnn(r, ctx).full_presentation()
    cells = len(full.relators) * len(full.alphabet)
    assert cells == 3002 * 3005 <= presentation.MAX_MATRIX_CELLS


def test_wide_presentation_exits_before_building_the_exponent_matrix(tmp_path):
    # 20,000 generators and 1,000 relators in 136 KB: 2 * 10^7 cells.
    gens = ",".join(f"g{i}" for i in range(20_000))
    rels = ",".join(f"g{i}^2" for i in range(1_000))
    path = tmp_path / "wide.txt"
    path.write_text(f"<{gens}|{rels}>")
    proc = run_capped("bredon", "--file", str(path), timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error[resource-limit]: the exponent matrix has 20000000 cells, more than 10000000\n"
    )


def test_output_is_deterministic(capsys):
    first = run(capsys, "bredon", "--in", "<x,y|(x*y)^4>", "--format", "json")
    second = run(capsys, "bredon", "--in", "<x,y|(x*y)^4>", "--format", "json")
    assert first == second
