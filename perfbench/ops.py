"""One timed operation per case kind, and the check of its answer.

Every call into bredonkit goes through a module attribute looked up at call
time (``bredon.bredon_full``, not a name bound at import), so the traced run
can wrap the public functions after this module is imported.
"""

from __future__ import annotations

import contextlib
import io
import json

import bredonkit.bredon as bredon
import bredonkit.cli as cli
import bredonkit.finite_oracle as finite_oracle
import bredonkit.fox as fox
import bredonkit.hempel as hempel
import bredonkit.int_linalg as int_linalg
import bredonkit.presentation as presentation
from bredonkit.free_group import Word


class WrongAnswer(Exception):
    pass


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise WrongAnswer(what)


def _group(g, rank: int, torsion, what: str) -> None:
    _expect(
        g is not None and g.rank == rank and tuple(g.torsion) == tuple(torsion),
        f"{what}: got {g}, expected rank {rank} torsion {list(torsion)}",
    )


def prepare(case: dict):
    """Input objects built before the clock starts."""
    kind = case["kind"]
    if kind in ("dense", "sparse"):
        return int_linalg.IntMatrix.from_rows(case["entries"], cols=case["cols"])
    if kind == "chain":
        a, b, c = case["dims"]
        return (
            int_linalg.IntMatrix.from_rows(case["d_in"], cols=b),
            int_linalg.IntMatrix.from_rows(case["d_out"], cols=c),
        )
    return None


# -- operations (timed) ---------------------------------------------------------


def _run_hempel(case, _):
    p = presentation.parse(case["text"])
    b = bredon.bredon_full(p)
    k = bredon.ktheory(b)
    ctx, r = hempel.hempel_context(p)
    h = hempel.build_hnn(r, ctx)
    return b, k, h, hempel.hnn_roundtrip_check(h, p)


def _run_fox(case, _):
    p = presentation.parse(case["text"])
    rel = p.relators[0]
    root = rel.root()
    b = bredon.bredon_full(p)
    k = bredon.ktheory(b)
    return rel, root, b, k, fox.total_derivative(rel)


def _run_matrix(case, m):
    if case["call"] == "rank":
        return int_linalg.rank(m)
    return int_linalg.cokernel_invariants(m)


def _run_chain(case, pair):
    return int_linalg.homology_invariants(*pair)


def _run_oracle(case, _):
    return finite_oracle.verify_cyclic_resolution(case["n"])


def _run_cli(case, _):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(case["argv"]))
    return status, out.getvalue(), err.getvalue()


# -- checks (untimed) -------------------------------------------------------------


def _check_hempel(case, result):
    b, k, h, roundtrip = result
    e = case["expect"]
    _group(b.h0, e["H0"], (), "H0")
    _group(b.h1, *e["H1"], "H1")
    _group(b.h2, e["H2"], (), "H2")
    _group(k.k0, e["H0"] + e["H2"], (), "K0")
    _group(k.k1, *e["H1"], "K1")
    _expect(b.aspherical_source == "hempel", f"aspherical source {b.aspherical_source}")
    _expect([d.order for d in b.torsion] == [1, e["log"]], "torsion orders")
    _expect(not b.warnings, f"warnings {b.warnings}")
    _expect(h.nu == e["nu"], f"nu {h.nu} != {e['nu']}")
    _expect(len(h.full_alphabet) == e["hnn_generators"], "HNN generator count")
    _expect(
        len(h.conjugation_relators) == e["hnn_conjugation_relators"],
        "HNN conjugation relator count",
    )
    _expect(
        h.base_presentation.relators[0].code == tuple(e["base_relator"]), "HNN base relator"
    )
    _expect(roundtrip is True, "Tietze round-trip failed")


def _check_fox(case, result):
    rel, root, b, k, derivs = result
    e = case["expect"]
    n, w = e["log"], tuple(e["root"])
    _expect(rel.code == w * n, "parsed relator")
    _expect(root.root.code == w and root.log == n, f"root log {root.log} != {n}")
    _group(b.h0, e["H0"], (), "H0")
    _group(b.h1, *e["H1"], "H1")
    _group(b.h2, e["H2"], (), "H2")
    _group(k.k0, e["H0"] + e["H2"], (), "K0")
    _group(k.k1, *e["H1"], "K1")
    _expect(b.aspherical_source == "one-relator", "aspherical source")
    _expect(len(derivs) == len(e["vec"]), "one derivative per generator")
    # A reduced word of length L has exactly L Fox terms, all of coefficient +-1.
    _expect(sum(len(d.terms) for d in derivs) == len(rel), "Fox term count")
    _expect(
        [sum(d.terms.values()) for d in derivs] == [n * v for v in e["vec"]],
        "augmented Fox derivatives",
    )
    code = rel.code
    for pos in (0, len(code) - 1):
        s = code[pos]
        prefix = code[:pos] if s > 0 else code[: pos + 1]
        term = derivs[abs(s) - 1].terms.get(Word(rel.alphabet, prefix))
        _expect(term == (1 if s > 0 else -1), f"Fox term at position {pos}")


def _check_matrix(case, result):
    e = case["expect"]
    if case["call"] == "rank":
        _expect(result == e["rank"], f"rank {result} != {e['rank']}")
    else:
        _group(result, e["free"], e["torsion"], "cokernel")


def _check_chain(case, result):
    e = case["expect"]
    _group(result, e["free"], e["torsion"], "homology")


def _check_oracle(case, report):
    n = case["n"]
    rs = report.relation_sequence
    _expect(report.ok, "resolution not exact")
    _expect(rs.theta_rank == 1 and rs.boundary_rank == n - 1, "relation-sequence ranks")
    _expect(report.d2_rank == n and report.d1_rank == n, "subdivided ranks")


def _subset(got, want) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and all(
            k in got and _subset(got[k], v) for k, v in want.items()
        )
    return got == want


def _check_cli(case, result):
    status, out, err = result
    name = case["template"]
    _expect(status == case["status"], f"{name}: exit status {status} != {case['status']}")
    if "error" in case:
        _expect(out == "", f"{name}: stdout on error")
        _expect(err.startswith(f"error[{case['error']}]: "), f"{name}: stderr {err!r}")
        return
    _expect(err == "", f"{name}: stderr {err!r}")
    _expect(out.endswith("\n"), f"{name}: output not newline-terminated")
    body = out[:-1]
    if "stdout" in case:
        _expect(body == case["stdout"], f"{name}: stdout {body!r}")
    elif "lines" in case:
        lines = body.split("\n")
        _expect(
            len(lines) == len(case["lines"])
            and all(got.startswith(want) for got, want in zip(lines, case["lines"])),
            f"{name}: stdout {body!r}",
        )
    else:
        _expect("\n" not in body, f"{name}: JSON is not one line")
        doc = json.loads(body)
        if "json" in case:
            _expect(doc == case["json"], f"{name}: JSON {body}")
        else:
            _expect(_subset(doc, case["json_subset"]), f"{name}: JSON {body}")


_KINDS = {
    "hempel": (_run_hempel, _check_hempel),
    "fox": (_run_fox, _check_fox),
    "dense": (_run_matrix, _check_matrix),
    "sparse": (_run_matrix, _check_matrix),
    "chain": (_run_chain, _check_chain),
    "oracle": (_run_oracle, _check_oracle),
    "cli": (_run_cli, _check_cli),
}


def run(case: dict, prepared):
    return _KINDS[case["kind"]][0](case, prepared)


def check(case: dict, result) -> None:
    """Raise WrongAnswer unless ``result`` is the case's known answer."""
    _KINDS[case["kind"]][1](case, result)
