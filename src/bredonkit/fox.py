"""Fox free-derivative calculus in the integral group ring of a free group.

The derivative with respect to a generator x is the unique derivation
F -> ZF with dx/dx = 1 and dy/dx = 0 for other generators, satisfying
d(fg)/dx = df/dx + f * dg/dx.  Augmenting a derivative recovers the plain
exponent sum, which is what turns the relation-module sequence into integer
matrices downstream.
"""

from __future__ import annotations

from typing import Mapping

from .errors import AlphabetMismatchError
from .free_group import Alphabet, GeneratorId, Word


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
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            acc = terms.get(word, 0) + coeff
            if acc:
                terms[word] = acc
            elif word in terms:
                del terms[word]
        out = FreeRingElement.__new__(FreeRingElement)
        out.alphabet = self.alphabet
        out.terms = terms
        return out

    def __neg__(self) -> "FreeRingElement":
        out = FreeRingElement.__new__(FreeRingElement)
        out.alphabet = self.alphabet
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def __sub__(self, other: "FreeRingElement") -> "FreeRingElement":
        if not isinstance(other, FreeRingElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "FreeRingElement":
        if isinstance(other, int):
            if not other:
                return FreeRingElement.zero(self.alphabet)
            out = FreeRingElement.__new__(FreeRingElement)
            out.alphabet = self.alphabet
            out.terms = {w: c * other for w, c in self.terms.items()}
            return out
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
        out = FreeRingElement.__new__(FreeRingElement)
        out.alphabet = self.alphabet
        out.terms = terms
        return out

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


def fox_derivative(w: Word, gen: GeneratorId | str | int) -> FreeRingElement:
    """Left-to-right Fox derivative of ``w`` with respect to one generator."""
    return total_derivative(w)[w.alphabet.resolve(gen).index]


def total_derivative(w: Word) -> tuple[FreeRingElement, ...]:
    """All Fox derivatives of ``w``, indexed like the alphabet, in one pass."""
    slots: list[dict[Word, int]] = [{} for _ in w.alphabet]
    prefix: list[int] = []
    for s in w.code:
        idx = abs(s) - 1
        if s > 0:
            key = Word._raw(w.alphabet, tuple(prefix))
            acc = slots[idx].get(key, 0) + 1
            if acc:
                slots[idx][key] = acc
            else:
                del slots[idx][key]
            prefix.append(s)
        else:
            prefix.append(s)
            key = Word._raw(w.alphabet, tuple(prefix))
            acc = slots[idx].get(key, 0) - 1
            if acc:
                slots[idx][key] = acc
            else:
                del slots[idx][key]
    out = []
    for terms in slots:
        elem = FreeRingElement.__new__(FreeRingElement)
        elem.alphabet = w.alphabet
        elem.terms = terms
        out.append(elem)
    return tuple(out)


def augment(e: FreeRingElement) -> int:
    """Ring homomorphism ZF -> Z sending every word to 1."""
    return e.augmentation()


def fundamental_identity_check(w: Word) -> bool:
    """Check sum_i (dw/dx_i) * (x_i - 1) == w - 1 in ZF.

    This holds for every word; the function exists as a test oracle for the
    derivative implementation.
    """
    alphabet = w.alphabet
    one = alphabet.identity()
    total = FreeRingElement.zero(alphabet)
    for g, deriv in zip(alphabet, total_derivative(w)):
        xg = Word(alphabet, [(g, 1)])
        total = total + deriv * FreeRingElement(alphabet, {xg: 1, one: -1})
    # Built by subtraction: for the identity word the two terms coincide.
    expected = FreeRingElement.from_word(w) - FreeRingElement.one(alphabet)
    return total == expected
