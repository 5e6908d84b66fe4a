"""Fox free-derivative calculus in the integral group ring of a free group.

The derivative with respect to a generator x is the unique derivation
F -> ZF with dx/dx = 1 and dy/dx = 0 for other generators, satisfying
d(fg)/dx = df/dx + f * dg/dx.  Augmenting a derivative recovers the plain
exponent sum, which is what turns the relation-module sequence into integer
matrices downstream.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping

from .free_group import Alphabet, Word


class FreeRingElement:
    """One Fox derivative of a reduced word w, as `total_derivative` returns it.

    Its terms map distinct prefixes of w to +-1.  No two prefixes of one word
    share a length, so the length alone orders the terms.  The value is
    read-only and has no ring arithmetic: only its augmentation, the exponent
    sum, reaches the matrices downstream.
    """

    __slots__ = ("alphabet", "terms")

    @classmethod
    def _raw(cls, alphabet: Alphabet, terms: Mapping[Word, int]) -> "FreeRingElement":
        # Caller guarantees every word is a prefix of one reduced word over
        # `alphabet` and every coefficient is +-1.
        out = cls.__new__(cls)
        out.alphabet = alphabet
        out.terms = terms
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FreeRingElement)
            and self.alphabet == other.alphabet
            and self.terms == other.terms
        )

    def augmentation(self) -> int:
        """The ring homomorphism ZF -> Z sending every word to 1."""
        return sum(self.terms.values())

    def sorted_terms(self) -> list[tuple[Word, int]]:
        """Terms in canonical order: shortest prefix first."""
        return sorted(self.terms.items(), key=lambda item: len(item[0].code))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for word, coeff in self.sorted_terms():
            body = str(word)
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
