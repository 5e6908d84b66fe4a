"""Fox free-derivative calculus in the integral group ring of a free group.

The derivative with respect to a generator x is the unique derivation
F -> ZF with dx/dx = 1 and dy/dx = 0 for other generators, satisfying
d(fg)/dx = df/dx + f * dg/dx.  Augmenting a derivative recovers the plain
exponent sum, which is what turns the relation-module sequence into integer
matrices downstream.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping

from .errors import AlphabetMismatchError
from .free_group import Alphabet, Word


def _word_sort_key(word: Word):
    return (
        len(word.code),
        tuple((abs(s) - 1, 0 if s > 0 else 1) for s in word.code),
    )


class FreeRingElement:
    """Formal integer combination of freely reduced words (element of ZF).

    Coefficients are arbitrary-precision integers; zero coefficients are
    never stored.
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, int] | None = None):
        clean: dict[Word, int] = {}
        if terms:
            for word, coeff in terms.items():
                if word.alphabet != alphabet:
                    raise AlphabetMismatchError("term over a different alphabet")
                if coeff:
                    clean[word] = clean.get(word, 0) + coeff
                    if not clean[word]:
                        del clean[word]
        self.alphabet = alphabet
        self.terms = clean

    @classmethod
    def _raw(cls, alphabet: Alphabet, terms: Mapping[Word, int]) -> "FreeRingElement":
        # Caller guarantees every word is over `alphabet` and no coefficient is 0.
        out = cls.__new__(cls)
        out.alphabet = alphabet
        out.terms = terms
        return out

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "FreeRingElement":
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet: Alphabet) -> "FreeRingElement":
        return cls(alphabet, {alphabet.identity(): 1})

    @classmethod
    def from_word(cls, word: Word, coeff: int = 1) -> "FreeRingElement":
        return cls(word.alphabet, {word: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "FreeRingElement") -> None:
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("elements over different alphabets")

    def __add__(self, other: "FreeRingElement") -> "FreeRingElement":
        if not isinstance(other, FreeRingElement):
            return NotImplemented
        self._check(other)
        # dict(terms) would look up every key again in a derivative's terms.
        terms = dict(self.terms.items())
        for word, coeff in other.terms.items():
            acc = terms.get(word, 0) + coeff
            if acc:
                terms[word] = acc
            elif word in terms:
                del terms[word]
        return FreeRingElement._raw(self.alphabet, terms)

    def __neg__(self) -> "FreeRingElement":
        return FreeRingElement._raw(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "FreeRingElement") -> "FreeRingElement":
        if not isinstance(other, FreeRingElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "FreeRingElement":
        if isinstance(other, int):
            if not other:
                return FreeRingElement.zero(self.alphabet)
            terms = {w: c * other for w, c in self.terms.items()}
            return FreeRingElement._raw(self.alphabet, terms)
        if not isinstance(other, FreeRingElement):
            return NotImplemented
        self._check(other)
        terms: dict[Word, int] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                prod = w1 * w2
                acc = terms.get(prod, 0) + c1 * c2
                if acc:
                    terms[prod] = acc
                elif prod in terms:
                    del terms[prod]
        return FreeRingElement._raw(self.alphabet, terms)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FreeRingElement)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def augmentation(self) -> int:
        """Ring homomorphism ZF -> Z sending every word to 1."""
        return sum(self.terms.values())

    def sorted_terms(self) -> list[tuple[Word, int]]:
        """Terms in canonical order: words length-first, then letterwise."""
        return sorted(self.terms.items(), key=lambda item: _word_sort_key(item[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for word, coeff in self.sorted_terms():
            mag = abs(coeff)
            if word.is_identity:
                body = str(mag)
            elif mag == 1:
                body = str(word)
            else:
                body = f"{mag}*{word}"
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"FreeRingElement({self})"


def total_derivative(w: Word) -> tuple[FreeRingElement, ...]:
    """All Fox derivatives of ``w``, indexed like the alphabet, in one pass.

    A letter x at position i contributes +w[:i] to dw/dx, and x^-1 there
    contributes -w[:i+1].  The prefixes of a reduced word are pairwise
    distinct, and +x at i never meets -x at i - 1 (that would be x^-1 x), so
    every term is +-1 and is fixed by its prefix length.  Each derivative is
    stored as {prefix length: sign}, and prefix words are built on demand:
    time and memory are linear in len(w).
    """
    code = w.code
    signs: list[dict[int, int]] = [{} for _ in w.alphabet]
    for i, s in enumerate(code):
        if s > 0:
            signs[s - 1][i] = 1
        else:
            signs[-s - 1][i + 1] = -1
    return tuple(
        FreeRingElement._raw(w.alphabet, _PrefixTerms(w.alphabet, code, d)) for d in signs
    )


class _PrefixTerms(Mapping):
    """Read-only terms {code[:n]: sign} of one derivative, stored as {n: sign}.

    Only lookup compares a word; len, values and items never rebuild or
    re-check a key.
    """

    __slots__ = ("_alphabet", "_code", "_signs")

    def __init__(self, alphabet: Alphabet, code: tuple[int, ...], signs: dict[int, int]):
        self._alphabet = alphabet
        self._code = code
        self._signs = signs

    def __getitem__(self, word: Word) -> int:
        if isinstance(word, Word) and word.alphabet == self._alphabet:
            n = len(word.code)
            if n in self._signs and self._code[:n] == word.code:
                return self._signs[n]
        raise KeyError(word)

    def __iter__(self):
        alphabet, code = self._alphabet, self._code
        return (Word._raw(alphabet, code[:n]) for n in self._signs)

    def __len__(self) -> int:
        return len(self._signs)

    def values(self):
        return self._signs.values()

    def items(self):
        return _PrefixItems(self)


class _PrefixItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        terms = self._mapping
        alphabet, code = terms._alphabet, terms._code
        return ((Word._raw(alphabet, code[:n]), s) for n, s in terms._signs.items())
