"""Finite group presentations: parsing, printing, exponent matrices.

Grammar (ASCII; ASCII whitespace acts like '*'):

    presentation := '<' gens '|' relators '>'
    gens         := ident (',' ident)*
    relators     := word (',' word)*
    word         := term (('*' | WS) term)*
    term         := factor ('^' sint)?
    factor       := ident | '(' word ')' | '[' word ',' word ']'
    sint         := '-'? [0-9]+ ; ident := [A-Za-z][A-Za-z0-9_]*

'[a,b]' expands to a b a^-1 b^-1 and '^' binds tighter than '*'; brackets
nest at most MAX_NESTING deep, and the relators together may expand to at
most MAX_LETTERS letters.  Sidecar lines of the form
"!torsion rel=<index> order=<n>" (relator indices are 0-based) assert that a
relator is c^n or c^-n for one generator c; `Presentation` checks each one.
Only '\n' ends a line.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from .errors import (
    AlphabetMismatchError,
    DeclaredTorsionFormError,
    DegenerateRelatorError,
    PresentationSyntaxError,
    ResourceLimitError,
    TorsionDeclarationError,
    UnknownGeneratorError,
)
from .free_group import Alphabet, Word, _invert, _power, _seam
from .int_linalg import IntMatrix

_TORSION_DIRECTIVE = re.compile(r"!torsion\s+rel=([0-9]+)\s+order=([0-9]+)\s*$", re.ASCII)


# One match per token, skipping the ASCII whitespace between tokens; the empty
# match at the end of the text stands for end of input.
_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[0-9]+|[<>|,*^()\[\]-]|\Z")
# A match ends at the first character that starts no token: one outside the
# grammar's ASCII (str.isalpha and str.isspace would take other scripts too),
# or an '_' that does not continue an identifier.
_UNEXPECTED = re.compile(r"[^A-Za-z0-9_<>|,*^()\[\]\- \t\n\r\x0b\x0c]|(?<![A-Za-z0-9_])[0-9]*_")

# Each level of '(' or '[' costs three parser frames, so this stays well below
# the interpreter's default recursion limit of 1000.
MAX_NESTING = 100

# Powers and commutators expand while parsing, so a short text can ask for an
# exponentially long word; lengths are checked against this before allocating,
# and it bounds the letters of all relators of a presentation together.  It
# counts letters before free reduction: x^1000000*x^-1000000 is over it,
# although it reduces to the identity.
MAX_LETTERS = 1_000_000
_EXPONENT_DIGITS = len(str(MAX_LETTERS))

# An exponent matrix stores only its non-zeros, but the elimination's fill-in
# can reach all rows x cols cells, and neither count is bounded by the letters:
# 20,000 generators and 1,000 relators fit in a 136 KB file.  That product is
# checked against this before any row is built.
MAX_MATRIX_CELLS = 10_000_000


def _kind(tok: str) -> str:
    """A token's kind: IDENT, INT, EOF or the punctuation mark itself."""
    if tok[:1].isalpha():
        return "IDENT"
    if tok[:1].isdigit():
        return "INT"
    return tok or "EOF"


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _extend(code: list[int], part: Sequence[int]) -> None:
    """Multiply the reduced `code` in place by the reduced `part`."""
    k = _seam(code, part)
    if k:
        del code[-k:]
        part = part[k:]
    code += part


class _Parser:
    """Recursive descent over the token texts of one scan.  A token is known
    by its index; only an error scans the text again, up to its token, for
    the line and column."""

    def __init__(self, text: str):
        bad = _UNEXPECTED.search(text)
        if bad:
            at = bad.end() - 1
            raise PresentationSyntaxError(
                f"unexpected character {text[at]!r}", *_line_col(text, at)
            )
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.pos = 0
        self.depth = 0

    def where(self, index: int) -> tuple[int, int]:
        """The line and column of token `index`."""
        token = next(islice(_TOKEN.finditer(self.text), index, None))
        return _line_col(self.text, token.start())

    def error(self, index: int, message: str, cls=PresentationSyntaxError) -> Exception:
        return cls(message, *self.where(index))

    def budget_error(self, index: int) -> Exception:
        return self.error(index, f"input expands to more than {MAX_LETTERS} letters")

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind: str) -> str:
        tok = self.peek()
        if _kind(tok) != kind:
            raise self.error(self.pos, f"expected {kind!r}, found {tok or 'end of input'!r}")
        return self.take()

    # -- words ---------------------------------------------------------------
    #
    # Each step returns the freely reduced letter codes of what it read, as a
    # new list, and the number of letters they stand for before reduction,
    # which is what the budget counts.  Reduced pieces join by cancelling at
    # the seam only.

    def parse_word(self, alphabet: Alphabet) -> tuple[list[int], int]:
        code, length = self.parse_term(alphabet)
        while True:
            at = self.pos
            tok = self.peek()
            if tok == "*":
                self.take()
            elif _kind(tok) not in ("IDENT", "(", "["):
                return code, length
            term, n = self.parse_term(alphabet)
            length += n
            if length > MAX_LETTERS:
                raise self.budget_error(at)
            _extend(code, term)

    def parse_term(self, alphabet: Alphabet) -> tuple[list[int], int]:
        code, length = self.parse_factor(alphabet)
        if self.peek() != "^":
            return code, length
        self.take()
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        at = self.pos
        digits = self.expect("INT")
        # int() refuses very long digit strings, so their length is checked first.
        if len(digits) > _EXPONENT_DIGITS:
            digits = digits.lstrip("0") or "0"
            if len(digits) > _EXPONENT_DIGITS:
                raise self.error(at, f"exponent longer than {_EXPONENT_DIGITS} digits")
        exp = sign * int(digits)
        if exp == 0:
            return [], 0
        length *= abs(exp)
        if length > MAX_LETTERS:
            raise self.budget_error(at)
        return _power(code, exp), length

    def parse_factor(self, alphabet: Alphabet) -> tuple[list[int], int]:
        at = self.pos
        tok = self.take()
        kind = _kind(tok)
        if kind == "IDENT":
            try:
                return [alphabet.resolve(tok) + 1], 1
            except UnknownGeneratorError:
                raise self.error(at, f"unknown generator {tok!r}", UnknownGeneratorError) from None
        if kind not in ("(", "["):
            raise self.error(at, f"expected a word, found {tok or 'end of input'!r}")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(at, f"brackets nested more than {MAX_NESTING} deep")
        if kind == "(":
            code, length = self.parse_word(alphabet)
            self.expect(")")
        else:
            a, na = self.parse_word(alphabet)
            self.expect(",")
            b, nb = self.parse_word(alphabet)
            self.expect("]")
            length = 2 * (na + nb)
            if length > MAX_LETTERS:
                raise self.budget_error(at)
            code = a
            for part in (b, _invert(a), _invert(b)):
                _extend(code, part)
        self.depth -= 1
        return code, length

    # -- presentations ---------------------------------------------------------

    def parse_presentation(self) -> tuple[Alphabet, list[Word]]:
        self.expect("<")
        names = [self.expect("IDENT")]
        while self.peek() == ",":
            self.take()
            names.append(self.expect("IDENT"))
        alphabet = Alphabet(names)
        self.expect("|")
        relators, starts = [], []
        letters = 0  # the budget covers all relators together
        while True:
            starts.append(self.pos)
            code, length = self.parse_word(alphabet)
            letters += length
            if letters > MAX_LETTERS:
                raise self.budget_error(starts[-1])
            # Every letter came from Alphabet.resolve, and the code is reduced.
            relators.append(Word._raw(alphabet, tuple(code)))
            if self.peek() != ",":
                break
            self.take()
        self.expect(">")
        self.expect("EOF")
        for i, (rel, start) in enumerate(zip(relators, starts)):
            if rel.is_identity:
                line, col = self.where(start)
                raise DegenerateRelatorError(
                    f"relator {i} reduces to the identity (line {line}, column {col})"
                )
        return alphabet, relators


@dataclass(frozen=True)
class Presentation:
    """Generators, relators, and the declared torsion, if any.

    Declared torsion is a tuple of (relator index, order) pairs.  Each is an
    assertion about the relator, not an input: the relator must be c^order or
    c^-order for a single generator c, so it restates the order that
    `bredon.torsion_data` reads off the relator's root.
    """

    alphabet: Alphabet
    relators: tuple[Word, ...]
    declared_torsion: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "relators", tuple(self.relators))
        object.__setattr__(self, "declared_torsion", tuple(self.declared_torsion))
        for i, rel in enumerate(self.relators):
            if rel.alphabet != self.alphabet:
                raise UnknownGeneratorError(f"relator {i} is over a different alphabet")
            if rel.is_identity:
                raise DegenerateRelatorError(f"relator {i} reduces to the identity")
        seen: set[int] = set()
        for idx, order in self.declared_torsion:
            if not 0 <= idx < len(self.relators):
                raise TorsionDeclarationError(f"torsion index {idx} out of range")
            if idx in seen:
                raise TorsionDeclarationError(f"torsion declared twice for relator {idx}")
            if order < 2:
                raise TorsionDeclarationError(f"declared order {order} must be >= 2")
            seen.add(idx)
        # Every declaration is well-formed before any is compared with its relator.
        for idx, order in self.declared_torsion:
            root, log = self.relators[idx].root()
            if len(root) != 1:
                raise DeclaredTorsionFormError(
                    f"declared torsion relator {idx} is not a power of a single generator"
                )
            if order != log:
                raise DeclaredTorsionFormError(
                    f"declared order of torsion relator {idx} differs from its exponent {log}"
                )

    def __str__(self) -> str:
        return presentation_text(self)


def parse(text: str) -> Presentation:
    """Parse presentation text, including optional !torsion directive lines."""
    declared: list[tuple[int, int]] = []
    body_lines: list[str] = []
    # A final newline ends the last line; it does not start another.
    for line in text.removesuffix("\n").split("\n"):
        stripped = line.strip(string.whitespace)
        if stripped.startswith("!"):
            m = _TORSION_DIRECTIVE.fullmatch(stripped)
            if not m:
                raise TorsionDeclarationError(f"malformed directive {stripped!r}")
            try:
                declared.append((int(m.group(1)), int(m.group(2))))
            except ValueError:  # more digits than int() converts
                raise TorsionDeclarationError(f"malformed directive {stripped!r}") from None
            body_lines.append("")  # keep line numbers stable for diagnostics
        else:
            body_lines.append(line)
    parser = _Parser("\n".join(body_lines))
    alphabet, relators = parser.parse_presentation()
    return Presentation(alphabet, tuple(relators), tuple(declared))


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse a single word in the presentation grammar over a known alphabet."""
    parser = _Parser(text)
    code, _ = parser.parse_word(alphabet)
    parser.expect("EOF")
    return Word._raw(alphabet, tuple(code))


def presentation_text(p: Presentation) -> str:
    gens = ", ".join(p.alphabet.names)
    rels = ", ".join(str(r) for r in p.relators)
    return f"< {gens} | {rels} >"


def document_text(p: Presentation) -> str:
    """Canonical printing including declared-torsion directive lines."""
    lines = [presentation_text(p)]
    for idx, order in p.declared_torsion:
        lines.append(f"!torsion rel={idx} order={order}")
    return "\n".join(lines)


def exponent_matrix(alphabet: Alphabet, words: Sequence[Word]) -> IntMatrix:
    """Rows are the words, columns the generators; entries are exponent sums.

    For the relators of a presentation this is the augmented image of the
    total Fox derivative, i.e. the matrix of the relation map after
    tensoring down to the integers.  Each row holds only the non-zero sums;
    more than MAX_MATRIX_CELLS cells are refused before any row is built.
    """
    n = len(alphabet)
    cells = len(words) * n
    if cells > MAX_MATRIX_CELLS:
        raise ResourceLimitError(
            f"the exponent matrix has {cells} cells, more than {MAX_MATRIX_CELLS}"
        )
    rows = []
    for w in words:
        if w.alphabet != alphabet:
            raise AlphabetMismatchError("every word must be over the given alphabet")
        counts = Counter(w.code)
        sums = {abs(s) - 1: counts[abs(s)] - counts[-abs(s)] for s in counts}
        rows.append({j: sums[j] for j in sorted(sums) if sums[j]})
    return IntMatrix(len(rows), n, rows)
