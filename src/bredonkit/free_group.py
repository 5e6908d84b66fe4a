"""Freely reduced words over a fixed finite alphabet.

Words are immutable and always freely reduced: no adjacent pair of a letter
and its inverse can ever be observed.  Every operation here is a pure
function, so values can be shared freely across threads.

A generator is its index in the alphabet; the public functions also take its
name.  A word is a tuple of signed letter codes, the code a ``Word`` is built
from: generator ``i`` with sign ``+1`` is stored as ``i + 1``, with sign
``-1`` as ``-(i + 1)``.  Inversion of a single letter is integer negation.
"""

from __future__ import annotations

from itertools import chain, groupby
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    AlphabetMismatchError,
    DuplicateGeneratorError,
    RootOfIdentityError,
    UnknownGeneratorError,
)


class Alphabet:
    """Ordered list of named generators, fixed for a whole session.

    Generators compare by position; names are display labels and must be
    pairwise distinct.  Iterating an alphabet yields its names.
    """

    __slots__ = ("names", "_by_name")

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        self._by_name = dict(zip(self.names, range(len(self.names))))
        if len(self._by_name) != len(self.names):
            seen: set[str] = set()
            for name in self.names:
                if name in seen:
                    raise DuplicateGeneratorError(f"duplicate generator {name!r}")
                seen.add(name)

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Alphabet) and self.names == other.names)

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet({', '.join(self.names)})"

    def resolve(self, gen: str | int) -> int:
        """The index of a generator given by name or by index."""
        if isinstance(gen, str):
            try:
                return self._by_name[gen]
            except KeyError:
                raise UnknownGeneratorError(f"unknown generator {gen!r}") from None
        if isinstance(gen, int):
            if 0 <= gen < len(self.names):
                return gen
            raise UnknownGeneratorError(f"generator index {gen} out of range")
        raise TypeError(f"cannot resolve generator from {gen!r}")

    def identity(self) -> "Word":
        return Word(self, ())


# The code-level helpers below work on any letters whose inverse is
# unary minus and that compare in a total order: the integer codes of a Word,
# and the X1Letter expressions over the conjugate basis in the Hempel layer.


def _reduce(code: Iterable) -> tuple:
    out: list = []
    for s in code:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def _invert(code: Sequence) -> tuple:
    # From a list, not a generator: tuple() guesses a generator's length and
    # resizes, and each resized short tuple is freed into CPython's free list
    # for its new length, which grows until a full collection empties it.
    return tuple([-s for s in reversed(code)])


def _seam(left: Sequence, right: Sequence) -> int:
    """How many letters cancel where the reduced `left` meets the reduced
    `right`: left[:-k] + right[k:] is then their reduced product."""
    k, n = 0, min(len(left), len(right))
    while k < n and left[-1 - k] == -right[k]:
        k += 1
    return k


def _power(code: Sequence, k: int) -> list:
    """A reduced code raised to the k-th power, itself reduced, as a list.

    With code == u * c * u^-1 and c cyclically reduced, u c^k u^-1 is already
    reduced for k >= 1.  c^k is copied once; u is moved in front of it.
    """
    if not k:
        return []
    if k < 0:
        code, k = _invert(code), -k
    i, j = _cyclic_span(code)
    out = list(code[i:j]) * k
    out[:0] = code[:i]
    out += code[j:]
    return out


def _cyclic_span(code: Sequence) -> tuple[int, int]:
    """Bounds (i, j) of the cyclic core code[i:j] of a reduced code.

    The core is cyclically reduced, and code[:i] is the shortest conjugator.
    """
    i, j = 0, len(code)
    while j - i >= 2 and code[i] == -code[j - 1]:
        i += 1
        j -= 1
    return i, j


def _least_rotation(code: Sequence) -> tuple:
    """The lexicographically least rotation of `code`, by Duval's Lyndon
    factorization of code * 2 in O(len(code)): two sequences are rotations of
    each other exactly when their least rotations agree."""
    doubled = tuple(code) * 2
    n = len(code)
    i = start = 0
    while i < n:
        # Each pass reads the run of equal Lyndon factors that starts at i; the
        # least rotation starts where the last run inside the first copy does.
        start = i
        j, k = i + 1, i
        while j < 2 * n and doubled[k] <= doubled[j]:
            k = i if doubled[k] < doubled[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return doubled[start : start + n]


def _conjugacy_key(code: Sequence) -> tuple:
    """The least rotation of the cyclic core: reduced codes are conjugate in
    the free group exactly when their keys agree."""
    i, j = _cyclic_span(code)
    return _least_rotation(code[i:j])


def _conjugacy_class_key(code: Sequence) -> tuple:
    """Names the class of codes conjugate to `code` or to its inverse."""
    return min(_conjugacy_key(code), _conjugacy_key(_invert(code)))


# Run-length codes: a reduced code as a list of runs (generator, count), the
# generator a positive letter code and the count a non-zero exponent, with
# adjacent runs on different generators.  y^i*z*y^-i is three runs, whatever i.


def _runs(code: Iterable[int]) -> list[tuple[int, int]]:
    """The runs of a reduced code, where equal neighbours are one run."""
    return [(s, len(list(run))) if s > 0 else (-s, -len(list(run))) for s, run in groupby(code)]


def _flatten(runs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    code: list[int] = []
    for g, c in runs:
        code += (g,) * c if c > 0 else (-g,) * -c
    return tuple(code)


class Root(NamedTuple):
    root: "Word"
    log: int


class Word:
    """A freely reduced word; the empty word is the identity."""

    __slots__ = ("alphabet", "code")

    def __init__(self, alphabet: Alphabet, code: Iterable[int] = ()):
        code = tuple(code)
        n = len(alphabet)
        for s in code:
            if not isinstance(s, int):
                raise TypeError(f"letter code must be an int, not {s!r}")
            if s == 0 or abs(s) > n:
                raise UnknownGeneratorError(f"letter code {s} out of range")
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
        return "*".join(
            names[g - 1] if c == 1 else f"{names[g - 1]}^{c}" for g, c in _runs(self.code)
        )

    def __repr__(self) -> str:
        return f"Word({self})"

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot multiply words over different alphabets")
        a, b = self.code, other.code
        k = _seam(a, b)
        return Word._raw(self.alphabet, a[: len(a) - k] + b[k:])

    def inverse(self) -> "Word":
        return Word._raw(self.alphabet, _invert(self.code))

    __invert__ = inverse

    def __pow__(self, k: int) -> "Word":
        return Word._raw(self.alphabet, tuple(_power(self.code, k)))

    def substitute(self, images: Sequence["Word"]) -> "Word":
        """Apply the homomorphism sending generator i to images[i].

        The images must be one per generator, all over one alphabet.  Each
        inverse image is formed once, and the result is the letters' images
        laid end to end and freely reduced in one pass.
        """
        target = images[0].alphabet if images else self.alphabet
        if any(im.alphabet != target for im in images):
            raise AlphabetMismatchError("images live over different alphabets")
        if len(self.alphabet) != len(images):
            raise AlphabetMismatchError("need one image per generator")
        codes = [im.code for im in images]
        inverses = [_invert(c) for c in codes]
        image = chain.from_iterable(codes[s - 1] if s > 0 else inverses[-s - 1] for s in self.code)
        return Word._raw(target, _reduce(image))

    # -- queries -----------------------------------------------------------

    def root(self) -> Root:
        """Largest n and word v with self == v**n; v is not a proper power."""
        if not self.code:
            raise RootOfIdentityError("the identity element has no root")
        code = self.code
        i, j = _cyclic_span(code)
        core = code[i:j]
        # The p dividing the core length with core == core[:p] * (length // p)
        # are the multiples of the least such p, the root's length; dividing
        # by each prime factor q while the quotient is still one reaches it.
        # Such a repeat ends as core[:p] does and starts again at core[p], so
        # those two letters reject most candidates before a whole comparison.
        period = length = rest = len(core)
        first, last = core[0], core[-1]
        q = 2
        while rest > 1:
            if q * q > rest:
                q = rest
            if not rest % q:
                while not rest % q:
                    rest //= q
                while not period % q:
                    p = period // q
                    if core[p] != first or core[p - 1] != last or core[:p] * (length // p) != core:
                        break
                    period = p
            q += 1
        # code[j:] is the inverse of the conjugator code[:i].
        root_code = code[:i] + core[:period] + code[j:]
        return Root(Word._raw(self.alphabet, root_code), length // period)


def are_conjugate(a: Word, b: Word) -> bool:
    """Conjugacy test in the free group: cyclic cores must be rotations."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("cannot compare words over different alphabets")
    if a.code == b.code:
        return True
    i, j = _cyclic_span(a.code)
    k, m = _cyclic_span(b.code)
    core_a, core_b = a.code[i:j], b.code[k:m]
    # Equal cores are the common case, and need no key.
    return core_a == core_b or (
        len(core_a) == len(core_b) and _conjugacy_key(core_a) == _conjugacy_key(core_b)
    )
