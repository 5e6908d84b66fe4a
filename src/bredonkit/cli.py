"""Command-line front end.

Exit statuses: 0 on success, 1 on domain errors (degenerate relators, failed
preconditions), 2 on usage or parse errors and exceeded size budgets, the
interpreter's memory and recursion limits included.  Output is byte-deterministic
for a fixed input: JSON is emitted compactly with a fixed key order and a
top-level "schema" version field.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__, presentation
from .bredon import bredon_full, ktheory, one_relator_product_homology
from .errors import (
    BredonkitError,
    HnnRoundtripError,
    InputFormatError,
    ResourceLimitError,
    TorsionDeclarationError,
)
from .finite_oracle import verify_cyclic_resolution
from .fox import total_derivative
from .hempel import build_hnn, check_hempel, hempel_context, hnn_roundtrip_check, x1_to_text
from .int_linalg import AbelianGroupInvariants, IntMatrix, invariant_factors
from .presentation import Presentation, document_text, parse, presentation_text

SCHEMA = "bredonkit/1"
MAX_SNF_SIDE = 400  # the largest row or column count `snf` accepts
# How `ktheory` labels the degree-0 term of K0; both read the same group.
_H0_LABELS = {"bredon": "BREDON_H0", "literal": "LITERAL_RC_G"}


def _emit(payload: dict) -> str:
    return json.dumps({"schema": SCHEMA, **payload}, separators=(",", ":"))


def _load_text(args) -> str:
    if args.inline is not None:
        return args.inline
    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputFormatError(
                f"{args.file} is not UTF-8 text: byte {exc.start} cannot be decoded"
            ) from None


def _load_presentation(args) -> Presentation:
    p = parse(_load_text(args))
    flags = getattr(args, "torsion", None) or []
    if flags:
        declared = list(p.declared_torsion)
        for spec in flags:
            # int() alone would also take signs, spaces, underscores and the
            # digits of other scripts.
            m = re.fullmatch("([0-9]+)=([0-9]+)", spec)
            try:
                if not m:
                    raise ValueError(spec)
                declared.append((int(m[1]), int(m[2])))
            except ValueError:  # no match, or more digits than int() converts
                raise TorsionDeclarationError(
                    f"malformed --torsion value {spec!r}; expected <rel>=<order>"
                ) from None
        p = Presentation(p.alphabet, p.relators, tuple(declared))
    return p


def _group_lines(label: str, g: AbelianGroupInvariants | None) -> str:
    if g is None:
        return f"{label} = not computed"
    return f"{label} = {g}"


# -- verb handlers -----------------------------------------------------------


def _run_parse(args) -> str:
    p = _load_presentation(args)
    if args.format == "json":
        return _emit(
            {
                "generators": list(p.alphabet.names),
                "relators": [str(r) for r in p.relators],
                # Only a label of whether directives were given: torsion is
                # always read off the roots.
                "torsion_mode": "DECLARED" if p.declared_torsion else "DERIVE_FROM_ROOTS",
                "declared_torsion": [
                    {"rel": idx, "order": order} for idx, order in p.declared_torsion
                ],
            }
        )
    return document_text(p)


def _run_fox(args) -> str:
    p = _load_presentation(args)
    # Each term of a derivative is a prefix of its relator, rendered in full:
    # a relator of length L prints up to L*(L+1)/2 letters, text or JSON.
    letters = sum(len(r) * (len(r) + 1) // 2 for r in p.relators)
    if letters > presentation.MAX_LETTERS:
        raise ResourceLimitError(
            f"the Fox derivatives have {letters} prefix letters,"
            f" more than {presentation.MAX_LETTERS}"
        )
    table = [total_derivative(r) for r in p.relators]
    if args.format == "json":
        return _emit(
            {
                "generators": list(p.alphabet.names),
                "relators": [str(r) for r in p.relators],
                "derivatives": [
                    [
                        [[coeff, str(word)] for word, coeff in deriv.sorted_terms()]
                        for deriv in row
                    ]
                    for row in table
                ],
            }
        )
    lines = []
    for rel, row in zip(p.relators, table):
        for name, deriv in zip(p.alphabet.names, row):
            lines.append(f"d({rel})/d({name}) = {deriv}")
    return "\n".join(lines)


def _run_root(args) -> str:
    p = _load_presentation(args)
    results = [r.root() for r in p.relators]
    if args.format == "json":
        if len(results) == 1:
            root, log = results[0]
            return _emit({"root": str(root), "log": log})
        return _emit(
            {
                "roots": [
                    {"relator": str(rel), "root": str(root), "log": log}
                    for rel, (root, log) in zip(p.relators, results)
                ]
            }
        )
    return "\n".join(
        f"root({rel}) = {root}, log = {log}"
        for rel, (root, log) in zip(p.relators, results)
    )


def _run_snf(args) -> str:
    text = _load_text(args)
    try:
        obj = json.loads(text)
        values = [obj["rows"], obj["cols"], *obj["entries"]]
        # bool is a subclass of int, and int() would also take floats and strings.
        if any(type(v) is not int for v in values):
            raise ValueError("rows, cols and entries must be JSON integers")
        rows, cols, *entries = values
        IntMatrix.check_shape(rows, cols, len(entries))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"expected matrix JSON {{rows, cols, entries}}: {exc}") from None
    # The shape is checked before the budget, and both before any row is built.
    if max(rows, cols) > MAX_SNF_SIDE:
        raise ResourceLimitError(f"snf allows at most {MAX_SNF_SIDE} rows and columns")
    diag = list(invariant_factors(IntMatrix.from_entries(rows, cols, entries)))
    r = sum(1 for e in diag if e)
    if args.format == "json":
        return _emit({"D": diag, "rank": r})
    return f"D = {diag}\nrank = {r}"


def _run_hempel_check(args) -> str:
    p = _load_presentation(args)
    ctx, r = hempel_context(p)
    report = check_hempel(r, ctx)
    if args.format == "json":
        payload = {}
        for name, value in (("h1", report.h1), ("h2", report.h2), ("h3", report.h3), ("h4", report.h4)):
            payload[name] = {"holds": value, "detail": report.details[name]}
        payload["nu"] = report.nu
        payload["is_hempel"] = report.is_hempel
        return _emit(payload)
    lines = []
    for name, value in (("H1", report.h1), ("H2", report.h2), ("H3", report.h3), ("H4", report.h4)):
        verdict = "pass" if value else "FAIL"
        lines.append(f"{name}: {verdict} ({report.details[name.lower()]})")
    lines.append(f"nu = {report.nu}")
    lines.append(f"hempel relator: {'yes' if report.is_hempel else 'no'}")
    return "\n".join(lines)


def _run_hnn(args) -> str:
    p = _load_presentation(args)
    ctx, r = hempel_context(p)
    h = build_hnn(r, ctx)
    if not hnn_roundtrip_check(h, p):
        raise HnnRoundtripError("the HNN presentation does not recover the input by Tietze moves")
    # The split's level names and z-relators are spelled out here, once.
    full = h.full_presentation()
    if args.format == "json":
        return _emit(
            {
                "generators": list(full.alphabet.names),
                "stable_letter": "y",
                "base_generators": list(h.base_presentation.alphabet.names),
                "base_relator": str(h.base_presentation.relators[0]),
                "conjugation_relators": [str(rel) for rel in full.relators[1:]],
                "nu": h.nu,
                "relator_over_conjugate_basis": x1_to_text(h.x1_relator),
                "magnus": {
                    "relator_involves_level_zero": h.relator_involves_level_zero,
                    "relator_involves_level_nu": h.relator_involves_level_nu,
                },
                # The verb returns only when the round-trip holds.
                "roundtrip": True,
                "presentation": presentation_text(full),
            }
        )
    return presentation_text(full)


def _run_bredon(args) -> str:
    p = _load_presentation(args)
    result = bredon_full(p, assert_aspherical=args.assert_aspherical)
    if args.format == "json":
        return _emit(result.to_json())
    lines = [
        _group_lines("H0", result.h0),
        _group_lines("H1", result.h1),
        _group_lines("H2", result.h2),
        f"higher = {result.higher}",
    ]
    if result.note:
        lines.append(f"note: {result.note}")
    lines.append(f"aspherical_source = {result.aspherical_source}")
    for warning in result.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


def _run_ktheory(args) -> str:
    p = _load_presentation(args)
    result = bredon_full(p, assert_aspherical=args.assert_aspherical)
    k = ktheory(result)
    label = _H0_LABELS[args.h0_interpretation]
    if args.format == "json":
        return _emit({**result.to_json(), **k.to_json(), "h0_interpretation": label})
    lines = [
        _group_lines("K0", k.k0),
        _group_lines("K1", k.k1),
        f"h0_interpretation = {label}",
        _group_lines("H0", result.h0),
        _group_lines("H1", result.h1),
        _group_lines("H2", result.h2),
    ]
    for warning in result.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)


def _run_oracle(args) -> str:
    report = verify_cyclic_resolution(args.n)
    if args.format == "json":
        return _emit(report.to_json())
    rs, sd = report.relation_sequence, report.subdivided
    lines = [
        f"n = {report.n}",
        f"relation sequence: composite_zero={rs.composite_zero}"
        f" start={rs.start_exact} middle={rs.middle_exact} end={rs.end_exact}"
        f" onto={rs.augmentation_onto}",
        f"theta rank = {rs.theta_rank}, boundary rank = {rs.boundary_rank}",
        f"subdivided complex: injective={sd.start_exact} middle={sd.middle_exact}"
        f" vertices={sd.end_exact} onto={sd.augmentation_onto}",
        f"d2 rank = {sd.theta_rank}, d1 rank = {sd.boundary_rank}",
        "PASS" if report.ok else "FAIL",
    ]
    return "\n".join(lines)


def _run_combinator(args) -> str:
    text = _load_text(args)
    try:
        obj = json.loads(text)
        ha = [AbelianGroupInvariants.from_json(g) for g in obj["HA"]]
        hb = [AbelianGroupInvariants.from_json(g) for g in obj["HB"]]
        degree = obj["i"]
        if type(degree) is not int:
            raise ValueError("i must be a JSON integer")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"expected JSON {{HA, HB, i}}: {exc}") from None
    # Merging k torsion entries takes O(k^2) gcd steps.
    if any(len(g.torsion) > MAX_SNF_SIDE for g in ha + hb):
        raise ResourceLimitError(
            f"combinator allows at most {MAX_SNF_SIDE} torsion entries per group"
        )
    merged = one_relator_product_homology(ha, hb, degree)
    if args.format == "json":
        return _emit(merged.to_json())
    return str(merged)


_HANDLERS = {
    "parse": _run_parse,
    "fox": _run_fox,
    "root": _run_root,
    "snf": _run_snf,
    "hempel-check": _run_hempel_check,
    "hnn": _run_hnn,
    "bredon": _run_bredon,
    "ktheory": _run_ktheory,
    "oracle": _run_oracle,
    "combinator": _run_combinator,
}


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--in", dest="inline", metavar="TEXT", help="inline input text")
    group.add_argument("--file", dest="file", metavar="PATH", help="read input from a file")


def _add_format_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bredonkit",
        description=(
            "Verify structural hypotheses of a finite presentation and compute"
            " Bredon homology and proper-action K-theory data."
        ),
    )
    parser.add_argument("--version", action="version", version=f"bredonkit {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, help_text in (
        ("parse", "parse a presentation and echo its canonical form"),
        ("fox", "Fox derivatives of every relator"),
        ("root", "root and logarithm of every relator"),
        ("bredon", "Bredon homology H0, H1, H2"),
        ("ktheory", "K0 and K1 of the classifying space for proper actions"),
        ("hempel-check", "check the Hempel conditions (H1)-(H4)"),
        ("hnn", "HNN decomposition of a verified Hempel presentation"),
    ):
        s = sub.add_parser(verb, help=help_text)
        _add_input_options(s)
        _add_format_option(s)
        if verb in ("bredon", "ktheory"):
            s.add_argument("--assert-aspherical", action="store_true")
            s.add_argument(
                "--torsion",
                action="append",
                metavar="REL=ORDER",
                help="assert a torsion order, checked against the relator (repeatable)",
            )
        if verb == "ktheory":
            s.add_argument(
                "--h0-interpretation",
                choices=tuple(_H0_LABELS),
                default="bredon",
                dest="h0_interpretation",
            )

    s = sub.add_parser("snf", help="Smith normal form of an integer matrix (JSON input)")
    _add_input_options(s)
    _add_format_option(s)

    s = sub.add_parser("oracle", help="verify the cyclic resolution for <x | x^n>")
    s.add_argument("--n", type=int, required=True)
    _add_format_option(s)

    s = sub.add_parser(
        "combinator", help="direct-sum homology of a one-relator product (JSON input)"
    )
    _add_input_options(s)
    _add_format_option(s)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        output = _HANDLERS[args.verb](args)
    except BredonkitError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_status
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError) as exc:
        # Past the input budgets, the interpreter's own limits still bound
        # the work; report them as a budget, not as a traceback.
        reason = "out of memory" if isinstance(exc, MemoryError) else "recursion too deep"
        print(f"error[{ResourceLimitError.code}]: {reason}", file=sys.stderr)
        return ResourceLimitError.exit_status
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
