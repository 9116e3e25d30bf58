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
threads and used as set members.  :class:`_Value` is the base of the
package's value classes.

Canonical text forms (used by the CLI and test fixtures):

    composition      2,3,2
    bicomposition    2,3,2|4,3
    null element     o
"""

from __future__ import annotations

from typing import Iterator, Union


class _Value:
    """Base of the package's immutable value classes.

    A subclass declares its ``__slots__`` and names in ``_fields`` the ones
    that equality, hashing, ``repr`` and pickling read, in constructor order.
    A value equals only values of its own class; assigning or deleting an
    attribute raises :class:`AttributeError`.

    This class's constructor binds its arguments like a signature listing
    ``_fields`` in order, with the defaults in ``_defaults``.  The records
    that only store their fields (``WordStats``, ``WSequence``,
    ``DeltaDecomposition``, ``ComponentCensus``, ``_Kind``, ``PolyFit``,
    ``VerifyRow``, ``VerifyReport``) take it as it is; ``MeanderGraph``
    checks its arcs first, and ``CountTable`` makes a fresh ``{}`` per
    table first, then each calls it; the letters call it first, then check
    the fields and store ``text``, a slot outside ``_fields``.  Only the
    classes built on every query write their own stores, setting each slot
    once through ``object.__setattr__``, since the generic binder about
    doubles the time of a construction: ``Composition`` and
    ``BiComposition``, which check their arguments and are built on every
    index query, and ``_Word``, built on every factorization.  Letters are
    interned, so their binder runs once per distinct letter.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}  # field -> default value; read, never written

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments at most")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        for name in kwargs:
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{type(self).__name__}() got {problem} argument {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


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


class Composition(_Value):
    """A nonempty sequence of positive integer parts."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(parts)
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

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __str__(self):
        return ",".join(map(str, self.parts))

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse the canonical comma-separated form, e.g. ``"2,3,2"``."""
        stripped = text.strip()
        pieces = stripped.split(",")
        # ASCII digits only: int would also take signs, underscores, inner
        # spaces and non-ASCII digits
        if not (stripped.isascii() and all(map(str.isdigit, pieces))):
            raise ValueError(f"not a composition: {text!r}")
        return cls(tuple(map(int, pieces)))


class BiComposition(_Value):
    """An ordered pair of compositions with equal sums.

    Construction rejects pairs with unequal sums; this is the sole
    validity condition beyond each side being a composition.
    """

    __slots__ = _fields = ("plus", "minus")

    def __init__(self, plus: Composition, minus: Composition):
        if plus.total != minus.total:
            raise ValueError(
                f"sides must have equal sums: {plus} sums to {plus.total}, "
                f"{minus} sums to {minus.total}"
            )
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    @property
    def total(self) -> int:
        return self.plus.total

    @property
    def parts_pair(self) -> tuple[int, int]:
        return (self.plus.num_parts, self.minus.num_parts)

    @property
    def num_parts(self) -> int:
        return self.plus.num_parts + self.minus.num_parts

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
    return BiComposition(a.minus, a.plus)


def theta(a: Composition) -> Composition:
    """Reverse the order of parts.  An involution."""
    return Composition(a.parts[::-1])


def scale(k: int, a: BiComposition) -> BiComposition:
    """Multiply every part of both sides by the positive integer ``k``."""
    if k < 1:
        raise ValueError(f"scale factor must be a positive integer, got {k}")
    return BiComposition(
        Composition(tuple(k * x for x in a.plus.parts)),
        Composition(tuple(k * x for x in a.minus.parts)),
    )


def parse_maybe(text: str) -> MaybeBiComposition:
    """Parse either a bicomposition or the null token ``"o"``."""
    if text.strip() == "o":
        return NULL
    return BiComposition.parse(text)


def iter_compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield all 2^(n-1) compositions of ``n`` as raw tuples.

    Raw tuples, not :class:`Composition` objects: this is the full
    enumerator behind the tests' exhaustive reference sweeps, which keep
    their own representations lean.  Order is lexicographic: from n ones,
    each next composition drops the last part k, adds 1 to the part
    before it and appends k - 1 ones, until one part is left.  The walk
    holds one list of at most n parts and does not recurse, so a large n
    meets no recursion limit.
    """
    if n < 1:
        raise ValueError(f"compositions exist only for n >= 1, got {n}")

    def walk() -> Iterator[tuple[int, ...]]:
        parts = [1] * n
        yield tuple(parts)
        while len(parts) > 1:
            last = parts.pop()
            parts[-1] += 1
            parts += [1] * (last - 1)
            yield tuple(parts)

    return walk()
