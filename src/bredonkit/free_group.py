"""Freely reduced words over a fixed finite alphabet.

Words are immutable and always freely reduced: no adjacent pair of a letter
and its inverse can ever be observed.  Every operation here is a pure
function, so values can be shared freely across threads.

Internally a word is a tuple of non-zero integers: generator ``i`` with sign
``+1`` is stored as ``i + 1``, with sign ``-1`` as ``-(i + 1)``.  Inversion
of a single letter is integer negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    AlphabetMismatchError,
    DuplicateGeneratorError,
    RootOfIdentityError,
    UnknownGeneratorError,
)


class GeneratorId(NamedTuple):
    index: int
    name: str


class Letter(NamedTuple):
    gen: GeneratorId
    sign: int


class Alphabet:
    """Ordered list of named generators, fixed for a whole session.

    Generators compare by position; names are display labels and must be
    pairwise distinct.
    """

    __slots__ = ("generators", "names", "_by_name")

    def __init__(self, names: Iterable[str]):
        generators = tuple(GeneratorId(i, name) for i, name in enumerate(names))
        by_name: dict[str, GeneratorId] = {}
        for gen in generators:
            if gen.name in by_name:
                raise DuplicateGeneratorError(f"duplicate generator {gen.name!r}")
            by_name[gen.name] = gen
        self.generators = generators
        self.names = tuple(g.name for g in generators)
        self._by_name = by_name

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self) -> Iterator[GeneratorId]:
        return iter(self.generators)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({', '.join(self.names)})"

    def resolve(self, gen: GeneratorId | str | int) -> GeneratorId:
        """Map a generator, name, or index onto this alphabet's GeneratorId."""
        if isinstance(gen, GeneratorId):
            if 0 <= gen.index < len(self.generators) and self.generators[gen.index] == gen:
                return gen
            raise UnknownGeneratorError(f"generator {gen!r} does not belong to {self!r}")
        if isinstance(gen, str):
            try:
                return self._by_name[gen]
            except KeyError:
                raise UnknownGeneratorError(f"unknown generator {gen!r}") from None
        if isinstance(gen, int):
            if 0 <= gen < len(self.generators):
                return self.generators[gen]
            raise UnknownGeneratorError(f"generator index {gen} out of range")
        raise TypeError(f"cannot resolve generator from {gen!r}")

    def __getitem__(self, key: str | int) -> GeneratorId:
        return self.resolve(key)

    def identity(self) -> "Word":
        return Word(self, ())

    def word(self, items: Iterable) -> "Word":
        return Word(self, items)


# The three code-level helpers below work on any letters whose inverse is
# unary minus: the integer codes of a Word, and the X1Letter expressions over
# the conjugate basis in the Hempel layer.


def _reduce(code: Iterable) -> tuple:
    out: list = []
    for s in code:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def _invert(code: Sequence) -> tuple:
    return tuple(-s for s in reversed(code))


def _cyclic_span(code: Sequence) -> tuple[int, int]:
    """Bounds (i, j) of the cyclic core code[i:j] of a reduced code.

    The core is cyclically reduced, and code[:i] is the shortest conjugator.
    """
    i, j = 0, len(code)
    while j - i >= 2 and code[i] == -code[j - 1]:
        i += 1
        j -= 1
    return i, j


class Root(NamedTuple):
    root: "Word"
    log: int


class Word:
    """A freely reduced word; the empty word is the identity."""

    __slots__ = ("alphabet", "code")

    def __init__(self, alphabet: Alphabet, items: Iterable = ()):
        code: list[int] = []
        n = len(alphabet)
        for item in items:
            if isinstance(item, int):
                if item == 0 or abs(item) > n:
                    raise UnknownGeneratorError(f"letter code {item} out of range")
                code.append(item)
            else:
                gen, exp = item
                gen = alphabet.resolve(gen)
                step = gen.index + 1 if exp > 0 else -(gen.index + 1)
                code.extend([step] * abs(exp))
        self.alphabet = alphabet
        self.code = _reduce(code)

    @classmethod
    def _raw(cls, alphabet: Alphabet, code: tuple[int, ...]) -> "Word":
        # Caller guarantees `code` is already freely reduced.
        w = cls.__new__(cls)
        w.alphabet = alphabet
        w.code = code
        return w

    # -- basic structure ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.code)

    @property
    def is_identity(self) -> bool:
        return not self.code

    @property
    def letters(self) -> tuple[Letter, ...]:
        gens = self.alphabet.generators
        return tuple(
            Letter(gens[abs(s) - 1], 1 if s > 0 else -1) for s in self.code
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.code == other.code
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.code))

    def __str__(self) -> str:
        if not self.code:
            return "1"
        names = self.alphabet.names
        parts = []
        i, n = 0, len(self.code)
        while i < n:
            s = self.code[i]
            j = i
            while j < n and self.code[j] == s:
                j += 1
            exp = (j - i) if s > 0 else -(j - i)
            name = names[abs(s) - 1]
            parts.append(name if exp == 1 else f"{name}^{exp}")
            i = j
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Word({self})"

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot multiply words over different alphabets")
        out = list(self.code)
        for s in other.code:
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
        return Word._raw(self.alphabet, tuple(out))

    def inverse(self) -> "Word":
        return Word._raw(self.alphabet, _invert(self.code))

    __invert__ = inverse

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        result = Word._raw(self.alphabet, ())
        for _ in range(k):
            result = result * self
        return result

    def conjugated_by(self, u: "Word") -> "Word":
        """u * self * u^-1."""
        return u * self * u.inverse()

    def substitute(self, images: Sequence["Word"]) -> "Word":
        """Apply the homomorphism sending generator i to images[i]."""
        if len(images) != len(self.alphabet):
            raise AlphabetMismatchError("need one image per generator")
        target = images[0].alphabet if images else self.alphabet
        for im in images:
            if im.alphabet != target:
                raise AlphabetMismatchError("images live over different alphabets")
        result = Word._raw(target, ())
        for s in self.code:
            im = images[abs(s) - 1]
            result = result * (im if s > 0 else im.inverse())
        return result

    # -- queries -----------------------------------------------------------

    def exponent_sum(self, gen: GeneratorId | str | int) -> int:
        g = self.alphabet.resolve(gen)
        target = g.index + 1
        return sum(1 if s == target else -1 for s in self.code if abs(s) == target)

    def involves(self, gens: Iterable[GeneratorId | str | int]) -> bool:
        targets = {self.alphabet.resolve(g).index + 1 for g in gens}
        return any(abs(s) in targets for s in self.code)

    # -- conjugacy structure -------------------------------------------------

    def cyclic_decomposition(self) -> "CyclicDecomposition":
        """Shortest u and cyclically reduced c with self == u * c * u^-1."""
        code = self.code
        i, j = _cyclic_span(code)
        return CyclicDecomposition(
            conjugator=Word._raw(self.alphabet, code[:i]),
            core=Word._raw(self.alphabet, code[i:j]),
        )

    def is_cyclically_reduced(self) -> bool:
        code = self.code
        return len(code) < 2 or code[0] != -code[-1]

    def root(self) -> Root:
        """Largest n and word v with self == v**n; v is not a proper power."""
        if not self.code:
            raise RootOfIdentityError("the identity element has no root")
        dec = self.cyclic_decomposition()
        core = dec.core.code
        length = len(core)
        # Minimal period via the KMP failure function; the core is a proper
        # power exactly when its minimal period divides its length.
        fail = [0] * length
        k = 0
        for i in range(1, length):
            while k and core[i] != core[k]:
                k = fail[k - 1]
            if core[i] == core[k]:
                k += 1
            fail[i] = k
        period = length - fail[-1]
        if length % period:
            period = length
        log = length // period
        u = dec.conjugator.code
        root_code = u + core[:period] + _invert(u)
        return Root(Word._raw(self.alphabet, root_code), log)


@dataclass(frozen=True)
class CyclicDecomposition:
    conjugator: Word
    core: Word


def is_cyclic_rotation(a: Sequence, b: Sequence) -> bool:
    """True when `a` is a cyclic rotation of `b` (as plain sequences)."""
    a = tuple(a)
    b = tuple(b)
    if len(a) != len(b):
        return False
    if not a:
        return True
    doubled = b + b
    n = len(a)
    return any(doubled[i : i + n] == a for i in range(len(b)))


def are_conjugate(a: Word, b: Word) -> bool:
    """Conjugacy test in the free group: cyclic cores must be rotations."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("cannot compare words over different alphabets")
    return is_cyclic_rotation(
        a.cyclic_decomposition().core.code, b.cyclic_decomposition().core.code
    )
