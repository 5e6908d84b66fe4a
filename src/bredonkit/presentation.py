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
from typing import NamedTuple, Sequence

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


class _Token(NamedTuple):
    kind: str  # one of < > | , * ^ ( ) [ ] - INT IDENT EOF
    text: str
    line: int
    col: int


_PUNCT = set("<>|,*^()[]-")
# The grammar is ASCII: str.isalpha and str.isdecimal would also take letters
# and digits of other scripts.
_LETTERS = frozenset(string.ascii_letters)
_DIGITS = frozenset(string.digits)
_IDENT_CHARS = _LETTERS | _DIGITS | {"_"}
# str.isspace would also take the separators of other scripts.
_SPACES = frozenset(string.whitespace)

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


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in _SPACES:
            i += 1
            col += 1
            continue
        if ch in _LETTERS:
            j = i + 1
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise PresentationSyntaxError(f"unexpected character {ch!r}", line, col)
    last_line = line
    tokens.append(_Token("EOF", "", last_line, col))
    return tokens


def _over_budget(tok: _Token) -> PresentationSyntaxError:
    return PresentationSyntaxError(
        f"input expands to more than {MAX_LETTERS} letters", tok.line, tok.col
    )


def _extend(code: list[int], part: Sequence[int]) -> None:
    """Multiply the reduced `code` in place by the reduced `part`."""
    k = _seam(code, part)
    del code[len(code) - k :]
    code += part[k:]


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise PresentationSyntaxError(
                f"expected {kind!r}, found {shown!r}", tok.line, tok.col
            )
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
            tok = self.peek()
            if tok.kind == "*":
                self.take()
            elif tok.kind not in ("IDENT", "(", "["):
                return code, length
            term, n = self.parse_term(alphabet)
            length += n
            if length > MAX_LETTERS:
                raise _over_budget(tok)
            if code and term and code[-1] == -term[0]:
                _extend(code, term)
            else:
                # Nothing cancels in 78% to 100% of joins on the perfbench
                # workloads' texts; appending skips _extend's scan and copy.
                code += term

    def parse_term(self, alphabet: Alphabet) -> tuple[list[int], int]:
        code, length = self.parse_factor(alphabet)
        if self.peek().kind == "^":
            self.take()
            sign = 1
            if self.peek().kind == "-":
                self.take()
                sign = -1
            tok = self.expect("INT")
            digits = tok.text
            # int() refuses very long digit strings, so their length is checked first.
            if len(digits) > _EXPONENT_DIGITS:
                digits = digits.lstrip("0") or "0"
                if len(digits) > _EXPONENT_DIGITS:
                    raise PresentationSyntaxError(
                        f"exponent longer than {_EXPONENT_DIGITS} digits", tok.line, tok.col
                    )
            exp = sign * int(digits)
            if exp == 0:
                return [], 0
            length *= abs(exp)
            if length > MAX_LETTERS:
                raise _over_budget(tok)
            if len(code) == 1:
                # Over 94% of powers on the perfbench workloads' texts are of
                # one letter, which repeats with no conjugator to look for.
                code = [code[0] if exp > 0 else -code[0]] * abs(exp)
            else:
                code = _power(code, exp)
        return code, length

    def parse_factor(self, alphabet: Alphabet) -> tuple[list[int], int]:
        tok = self.peek()
        if tok.kind == "IDENT":
            self.take()
            try:
                return [alphabet.resolve(tok.text) + 1], 1
            except UnknownGeneratorError:
                raise UnknownGeneratorError(
                    f"unknown generator {tok.text!r}", tok.line, tok.col
                ) from None
        if tok.kind in ("(", "["):
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise PresentationSyntaxError(
                    f"brackets nested more than {MAX_NESTING} deep", tok.line, tok.col
                )
            if tok.kind == "(":
                code, length = self.parse_word(alphabet)
                self.expect(")")
            else:
                a, na = self.parse_word(alphabet)
                self.expect(",")
                b, nb = self.parse_word(alphabet)
                self.expect("]")
                length = 2 * (na + nb)
                if length > MAX_LETTERS:
                    raise _over_budget(tok)
                parts = (b, _invert(a), _invert(b))
                code = a
                for part in parts:
                    _extend(code, part)
            self.depth -= 1
            return code, length
        shown = tok.text or "end of input"
        raise PresentationSyntaxError(f"expected a word, found {shown!r}", tok.line, tok.col)

    # -- presentations ---------------------------------------------------------

    def parse_presentation(self) -> tuple[Alphabet, list[Word]]:
        self.expect("<")
        names = [self.expect("IDENT").text]
        while self.peek().kind == ",":
            self.take()
            names.append(self.expect("IDENT").text)
        alphabet = Alphabet(names)
        self.expect("|")
        relators: list[Word] = []
        positions: list[_Token] = []
        letters = 0  # the budget covers all relators together
        while True:
            positions.append(self.peek())
            code, length = self.parse_word(alphabet)
            letters += length
            if letters > MAX_LETTERS:
                raise _over_budget(positions[-1])
            # Every letter came from Alphabet.resolve, and the code is reduced.
            relators.append(Word._raw(alphabet, tuple(code)))
            if self.peek().kind != ",":
                break
            self.take()
        self.expect(">")
        self.expect("EOF")
        for i, (rel, tok) in enumerate(zip(relators, positions)):
            if rel.is_identity:
                raise DegenerateRelatorError(
                    f"relator {i} reduces to the identity"
                    f" (line {tok.line}, column {tok.col})"
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
    parser = _Parser(_tokenize("\n".join(body_lines)))
    alphabet, relators = parser.parse_presentation()
    return Presentation(alphabet, tuple(relators), tuple(declared))


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse a single word in the presentation grammar over a known alphabet."""
    parser = _Parser(_tokenize(text))
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
