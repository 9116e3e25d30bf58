"""Integer compositions and pairs of compositions with equal sums.

A composition is a nonempty sequence of positive integers (a_1, ..., a_r).
A pair of compositions with equal sums -- here a :class:`BiComposition` --
parametrizes a standard seaweed subalgebra of sl_n: the first composition
cuts the block-upper-triangular shape, the second the transposed one.  A
single composition parametrizes a standard parabolic subalgebra, i.e. the
seaweed whose second composition is (n).

The operator machinery needs one extra value: an absorbing null element
(:data:`NULL`) that every operator letter maps to itself.  Its sum and
part counts are zero by convention.

All values here are immutable and hashable, so they can be shared between
threads and used as set members.

Canonical text forms (used by the CLI and test fixtures):

    composition      2,3,2
    bicomposition    2,3,2|4,3
    null element     o
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union


class NullElement:
    """The absorbing null value adjoined to the bicompositions.

    There is exactly one instance, :data:`NULL`.  Conventions: sum 0,
    zero parts on both sides.
    """

    _instance = None

    total = 0
    num_parts = 0
    parts_pair = (0, 0)

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NULL"

    def __str__(self):
        return "o"


NULL = NullElement()


@dataclass(frozen=True)
class Composition:
    """A nonempty sequence of positive integer parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("a composition needs at least one part")
        for a in parts:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise ValueError(f"parts must be positive integers, got {parts!r}")
        object.__setattr__(self, "parts", parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def reversed(self) -> "Composition":
        return Composition(self.parts[::-1])

    def scaled(self, k: int) -> "Composition":
        if k < 1:
            raise ValueError(f"scale factor must be a positive integer, got {k}")
        return Composition(tuple(k * a for a in self.parts))

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __str__(self):
        return ",".join(map(str, self.parts))

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse the canonical comma-separated form, e.g. ``"2,3,2"``."""
        pieces = text.strip().split(",")
        try:
            parts = tuple(int(x) for x in pieces)
        except ValueError:
            raise ValueError(f"not a composition: {text!r}") from None
        return cls(parts)


@dataclass(frozen=True)
class BiComposition:
    """An ordered pair of compositions with equal sums.

    Construction rejects pairs with unequal sums; this is the sole
    validity condition beyond each side being a composition.
    """

    plus: Composition
    minus: Composition

    def __post_init__(self):
        plus, minus = self.plus, self.minus
        if not isinstance(plus, Composition):
            plus = Composition(tuple(plus))
            object.__setattr__(self, "plus", plus)
        if not isinstance(minus, Composition):
            minus = Composition(tuple(minus))
            object.__setattr__(self, "minus", minus)
        if plus.total != minus.total:
            raise ValueError(
                f"sides must have equal sums: {plus} sums to {plus.total}, "
                f"{minus} sums to {minus.total}"
            )

    @property
    def total(self) -> int:
        return self.plus.total

    @property
    def parts_pair(self) -> tuple[int, int]:
        return (self.plus.num_parts, self.minus.num_parts)

    @property
    def num_parts(self) -> int:
        return self.plus.num_parts + self.minus.num_parts

    def swapped(self) -> "BiComposition":
        return BiComposition(self.minus, self.plus)

    def scaled(self, k: int) -> "BiComposition":
        return BiComposition(self.plus.scaled(k), self.minus.scaled(k))

    def __str__(self):
        return f"{self.plus}|{self.minus}"

    @classmethod
    def parse(cls, text: str) -> "BiComposition":
        """Parse the canonical form ``"2,3,2|4,3"``."""
        left, sep, right = text.partition("|")
        if not sep:
            raise ValueError(f"not a bicomposition (missing '|'): {text!r}")
        return cls(Composition.parse(left), Composition.parse(right))


MaybeBiComposition = Union[BiComposition, NullElement]


def rho(a: MaybeBiComposition) -> MaybeBiComposition:
    """Exchange the two sides; fixes the null element.  An involution."""
    if a is NULL:
        return NULL
    return a.swapped()


def theta(a: Composition) -> Composition:
    """Reverse the order of parts.  An involution."""
    return a.reversed()


def scale(k: int, a: BiComposition) -> BiComposition:
    """Multiply every part of both sides by the positive integer ``k``."""
    return a.scaled(k)


def parse_maybe(text: str) -> MaybeBiComposition:
    """Parse either a bicomposition or the null token ``"o"``."""
    if text.strip() == "o":
        return NULL
    return BiComposition.parse(text)


def iter_compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield all 2^(n-1) compositions of ``n`` as raw tuples.

    Raw tuples, not :class:`Composition` objects: this is the inner loop
    of the exhaustive oracles, which keep their own representations lean.
    Order is lexicographic by first part.
    """
    if n < 1:
        raise ValueError(f"compositions exist only for n >= 1, got {n}")

    def rec(rest: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield prefix
            return
        for first in range(1, rest + 1):
            yield from rec(rest - first, prefix + (first,))

    return rec(n, ())


def iter_compositions_odd(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield the compositions of ``n`` with exactly ``k`` odd parts, as raw tuples.

    An explicit-stack depth-first walk in the same lexicographic order as
    :func:`iter_compositions`.  ``j`` odd parts can make up ``rest`` exactly
    when ``rest >= j`` and ``rest - j`` is even.  The walk starts from such
    a state and no part changes the parity of ``rest - j``, so a part is
    placed only when it leaves ``rest >= j``, and no branch is a dead end.
    """
    if n < 1:
        raise ValueError(f"compositions exist only for n >= 1, got {n}")
    if k < 0 or k > n or (n - k) % 2:
        return
    stack = [((), n, k)]
    while stack:
        prefix, rest, odd = stack.pop()
        if rest == 0:
            yield prefix
            continue
        for first in range(rest, 0, -1):
            left = odd - (first & 1)
            if 0 <= left <= rest - first:
                stack.append((prefix + (first,), rest - first, left))
