"""Index-preserving operator words on single compositions.

The parabolic alphabet has two base families plus their reversed ("tilde")
variants, tokens ``Sm``, ``S~m``, ``Tm``, ``T~m`` for m >= 0:

    Sm    (a1, ..., ar) -> ((m+2)a1, a2, ..., ar, (m+1)a1)
    Tm    (a1, ..., ar) -> ((m+1)a1 + (m+2)a2, a3, ..., ar, m a1 + (m+1)a2)
          and the identity when r = 1
    S~m, T~m   the same followed by reversal of the whole composition.

Every letter preserves the parabolic index and adds an even amount to the
sum (S adds 2(m+1)a1, T adds 2m a1 + 2(m+1)a2, or nothing when r = 1), so
compositions of even and odd totals live in separate worlds with seeds
(1,1) and (1).  Evaluation from the seed is bijective onto the Frobenius
compositions of the matching parity, provided odd-world words start (in
application order) with an S-family letter -- a T letter would sit idle
on the one-part seed.

:func:`factorize_p` inverts evaluation by stripping letters: comparing
the first and last parts identifies tilde-ness, and division with
remainder on (first - last) identifies the family and m.  The inverse
rule is validated on every step by re-applying the stripped letter;
a failure would falsify freeness of the word monoid and raises
:class:`AmbiguousInverse` rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

from .compositions import Composition
# CollisionError is raised by the shared search; it stays importable from here.
from .seaweed_words import CollisionError, WSequence, _search  # noqa: F401


class FirstLastEqual(ValueError):
    """Reduction asked for a composition whose first and last parts coincide."""


class AmbiguousInverse(RuntimeError):
    """The stripped letter does not reproduce its input: freeness violated."""


@dataclass(frozen=True)
class ParabolicLetter:
    family: str  # "S" or "T"
    tilde: bool
    m: int
    text: str = field(init=False, repr=False, compare=False)  # the token

    def __post_init__(self):
        if self.family not in ("S", "T"):
            raise ValueError(f"letter family must be 'S' or 'T', got {self.family!r}")
        if self.m < 0:
            raise ValueError(f"letter index m must be >= 0, got {self.m}")
        token = f"{self.family}{'~' if self.tilde else ''}{self.m}"
        object.__setattr__(self, "text", token)

    def token(self) -> str:
        return self.text

    def __str__(self):
        return self.text

    @classmethod
    def parse(cls, tok: str) -> "ParabolicLetter":
        if not tok or tok[0] not in "ST":
            raise ValueError(f"bad letter token {tok!r}; expected e.g. 'S0' or 'T~1'")
        tilde = len(tok) > 1 and tok[1] == "~"
        try:
            m = int(tok[2:] if tilde else tok[1:])
        except ValueError:
            raise ValueError(f"bad letter token {tok!r}") from None
        return letter_p(tok[0], tilde, m)


@lru_cache(maxsize=None)
def letter_p(family: str, tilde: bool, m: int) -> ParabolicLetter:
    return ParabolicLetter(family, tilde, m)


@dataclass(frozen=True)
class ParabolicWord:
    """A word over the parabolic alphabet; the rightmost letter applies first."""

    letters: tuple[ParabolicLetter, ...] = ()

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        return " ".join([l.text for l in self.letters])

    def __mul__(self, other: "ParabolicWord") -> "ParabolicWord":
        return ParabolicWord(self.letters + other.letters)

    @classmethod
    def parse(cls, text: str) -> "ParabolicWord":
        return cls(tuple(ParabolicLetter.parse(tok) for tok in text.split()))


IOTA_P = ParabolicWord(())

SEED_EVEN = Composition((1, 1))
SEED_ODD = Composition((1,))

_SEEDS_RAW = {0: (1, 1), 1: (1,)}


def seed(epsilon: int) -> Composition:
    """The generation seed for the parity class: (1,1) for even, (1) for odd."""
    if epsilon not in (0, 1):
        raise ValueError(f"epsilon must be 0 or 1, got {epsilon!r}")
    return SEED_EVEN if epsilon == 0 else SEED_ODD


def _apply_raw_p(family: str, tilde: bool, m: int, a: tuple) -> tuple:
    if family == "S":
        out = ((m + 2) * a[0],) + a[1:] + ((m + 1) * a[0],)
    elif len(a) == 1:
        return a  # T letters sit idle on one-part compositions
    else:
        out = ((m + 1) * a[0] + (m + 2) * a[1],) + a[2:] + (m * a[0] + (m + 1) * a[1],)
    return out[::-1] if tilde else out


def apply_letter_p(l: ParabolicLetter, a: Composition) -> Composition:
    return Composition(_apply_raw_p(l.family, l.tilde, l.m, a.parts))


def evaluate_p(w: ParabolicWord, a: Composition) -> Composition:
    for l in reversed(w.letters):
        a = apply_letter_p(l, a)
    return a


def w_sequence_p(w: ParabolicWord, a: Composition) -> WSequence:
    """Sum increments along the suffix evaluations; all entries are even.

    An entry is 0 exactly when a T letter met a one-part composition.
    ``beta`` counts the increments above 2.
    """
    increments = []
    cur = a.parts
    for l in reversed(w.letters):
        nxt = _apply_raw_p(l.family, l.tilde, l.m, cur)
        increments.append(sum(nxt) - sum(cur))
        cur = nxt
    values = tuple(reversed(increments))
    return WSequence(values, beta=sum(1 for v in values if v > 2))


def _reduce_raw_p(a: tuple) -> tuple:
    """Strip the last-applied letter from a raw tuple with a[0] != a[-1]."""
    tilde = a[0] < a[-1]
    c = a[::-1] if tilde else a
    d = c[0] - c[-1]
    rem = c[-1] % d
    if rem == 0:
        pred = (d,) + c[1:-1]
        l = letter_p("S", tilde, c[-1] // d - 1)
    else:
        pred = (d - rem, rem) + c[1:-1]
        l = letter_p("T", tilde, c[-1] // d)
    if _apply_raw_p(l.family, l.tilde, l.m, pred) != a:
        raise AmbiguousInverse(
            f"stripping {l} from {a} suggested predecessor {pred}, "
            f"which does not map back"
        )
    return pred, l


def reduce_once_p(a: Composition) -> tuple[Composition, ParabolicLetter]:
    """Strip the unique last-applied letter; the sum strictly drops.

    Raises :class:`FirstLastEqual` at the reduction's terminal situation
    and :class:`AmbiguousInverse` if the arithmetic inverse fails to
    reproduce ``a`` (which would disprove freeness -- report, don't mend).
    """
    if a.parts[0] == a.parts[-1]:
        raise FirstLastEqual(f"first and last parts equal in {a}; nothing to strip")
    pred, l = _reduce_raw_p(a.parts)
    return Composition(pred), l


def factorize_p(a: Composition) -> Optional[tuple[int, ParabolicWord]]:
    """(parity, word) with word(seed) = ``a``, or None when not Frobenius.

    Compositions of sum 1 are rejected: the sum-1 world is deliberately
    outside the even/odd generation scheme.
    """
    if a.total < 2:
        raise ValueError("factorization is defined for compositions of sum >= 2")
    cur = a.parts
    collected: list[ParabolicLetter] = []
    while cur[0] != cur[-1]:
        cur, l = _reduce_raw_p(cur)
        collected.append(l)
    if cur == (1, 1):
        return 0, ParabolicWord(tuple(collected))
    if cur == (1,):
        # reaching (1) shrinks the length, which only S-family strips do
        if not collected or collected[-1].family != "S":
            raise AmbiguousInverse(
                f"{a} reduces to the odd seed (1), but not by stripping an S letter last"
            )
        return 1, ParabolicWord(tuple(collected))
    return None


def _child_moves_p(a: tuple, budget: int) -> Iterator[tuple[ParabolicLetter, tuple, int]]:
    """All letter applications from ``a`` whose (even) sum increment fits.

    One-part compositions only take S letters: T would sit idle and
    reproduce the same composition, which the free generation forbids.
    """
    a1 = a[0]
    half = budget // 2
    for tilde in (False, True):
        for m in range(half // a1):
            inc = 2 * (m + 1) * a1
            yield letter_p("S", tilde, m), _apply_raw_p("S", tilde, m, a), inc
    if len(a) > 1:
        a2 = a[1]
        top = (half - a2) // (a1 + a2) + 1 if half >= a2 else 0
        for tilde in (False, True):
            for m in range(top):
                inc = 2 * m * a1 + 2 * (m + 1) * a2
                yield letter_p("T", tilde, m), _apply_raw_p("T", tilde, m, a), inc


def composition_nodes(epsilon: int, n_max: int, t: Optional[int] = None) -> Iterator[tuple]:
    """Raw search nodes of the Frobenius compositions of parity ``epsilon``
    with sum <= n_max (and deficiency <= t when given).

    States are one-side tuples ``(a,)``; the odd seed (1) is not emitted.
    """
    if epsilon not in (0, 1):
        raise ValueError(f"epsilon must be 0 or 1, got {epsilon!r}")
    return _search((_SEEDS_RAW[epsilon],), _child_moves_p, n_max, 2 - epsilon, t,
                   unit=2, emit_start=epsilon == 0)


def generate_frobenius_p(
    epsilon: int, n_max: int
) -> Iterator[tuple[ParabolicWord, Composition]]:
    """Every Frobenius composition of parity ``epsilon`` with sum <= n_max.

    Depth-first closure of the parity seed in pre-order, children in
    :func:`_child_moves_p` order; each composition comes with its unique
    word.  The odd seed (1) itself is not emitted -- the odd world starts
    at sum 3.  Reaching any composition twice raises
    :class:`CollisionError`.
    """
    for (a,), _, _, letters in composition_nodes(epsilon, n_max):
        yield ParabolicWord(letters), Composition(a)


def generate_deficiency_p(
    epsilon: int, t: int, n_max: int
) -> Iterator[tuple[int, int, Composition]]:
    """Frobenius compositions of parity ``epsilon`` with high part counts.

    Emits (n, p, composition) for every Frobenius composition of sum
    n = 2k + epsilon <= n_max whose part count satisfies p >= k + 1 - t.
    Pruned on the running deficiency tau(w) + sum(increment/2 - 1), which
    equals k + 1 - p of the current composition and never decreases.
    """
    for (a,), n, _, _ in composition_nodes(epsilon, n_max, t):
        yield n, len(a), Composition(a)
