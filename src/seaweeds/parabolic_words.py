"""Index-preserving operator words on single compositions.

The parabolic alphabet has two base families plus their reversed ("tilde")
variants, tokens ``Sm``, ``S~m``, ``Tm``, ``T~m`` for m >= 0:

    Sm    (a1, ..., ar) -> ((m+2)a1, a2, ..., ar, (m+1)a1)
    Tm    (a1, ..., ar) -> ((m+1)a1 + (m+2)a2, a3, ..., ar, m a1 + (m+1)a2)
          and the identity when r = 1
    S~m, T~m   the same followed by reversal of the whole composition.

A letter's new first and last parts are the pair alphabet's new first and
pushed parts (``seaweed_words._ends``).  Evaluation runs :func:`_walk_p`,
which keeps the parts in a deque with an orientation flag for the tilde
letters and so costs O(1) per letter.

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
rule is validated on every step by re-applying the stripped letter.
For first = last + d the parts it finds always map back: S q-1 on (d)
and T q on (d - r, r) both give (last + d, last).  So the check guards
the forward code of :func:`_ends` against the strip's own division, and
its failure, :class:`AmbiguousInverse`, would be a defect of this
module, not a counterexample to freeness; freeness is checked by the
round trips of the tests and by the search's :class:`CollisionError`.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache, partial
from typing import Iterator, Optional

from .compositions import Composition
# CollisionError is raised by the shared search; it stays importable from here.
from .seaweed_words import (  # noqa: F401
    CollisionError, WSequence, _ends, _Letter, _letter_index, _Memo, _search, _Word,
)


class FirstLastEqual(ValueError):
    """Reduction asked for a composition whose first and last parts coincide."""


class AmbiguousInverse(RuntimeError):
    """A strip contradicted its own arithmetic (its letter does not map back):
    a defect of this module, which the division rules out, not a
    counterexample to freeness."""


class ParabolicLetter(_Letter):
    __slots__ = ("tilde",)
    _fields = ("family", "tilde", "m")

    def _mark(self) -> str:
        if not isinstance(self.tilde, bool):
            raise ValueError(f"letter tilde must be a bool, got {self.tilde!r}")
        return "~" if self.tilde else ""

    @classmethod
    def parse(cls, tok: str) -> "ParabolicLetter":
        if not tok or tok[0] not in "ST":
            raise ValueError(f"bad letter token {tok!r}; expected e.g. 'S0' or 'T~1'")
        tilde = len(tok) > 1 and tok[1] == "~"
        return letter_p(tok[0], tilde, _letter_index(tok, tok[2:] if tilde else tok[1:]))


letter_p = lru_cache(maxsize=None, typed=True)(ParabolicLetter)  # typed, as ``letter``


# the move lister's letters by m, as in seaweed_words
_S, _S_TILDE, _T, _T_TILDE = (
    _Memo(partial(letter_p, family, tilde)).__getitem__
    for family, tilde in (("S", False), ("S", True), ("T", False), ("T", True))
)


class ParabolicWord(_Word):
    """A word over the parabolic alphabet."""

    __slots__ = ()
    _letter = ParabolicLetter


IOTA_P = ParabolicWord(())

SEED_EVEN = Composition((1, 1))
SEED_ODD = Composition((1,))


def seed(epsilon: int) -> Composition:
    """The generation seed for the parity class: (1,1) for even, (1) for odd."""
    if epsilon not in (0, 1):
        raise ValueError(f"epsilon must be 0 or 1, got {epsilon!r}")
    return SEED_EVEN if epsilon == 0 else SEED_ODD


def _walk_p(letters, a: tuple) -> tuple[tuple, list[int]]:
    """Apply ``letters``, a word's letters with the last-applied one first, to
    the parts ``a``, in O(1) per letter.

    The parts sit in a deque read backwards while ``rev`` is set, so a
    tilde costs nothing; a letter takes what it consumes from the front,
    puts back the new first part and appends the last one (:func:`_ends`).
    Returns the final parts and each letter's sum increment, in
    application order: twice the new last part, and 0 for a T letter idle
    on one part.
    """
    parts, rev = deque(a), False
    increments = []
    for l in reversed(letters):
        if l.family == "T" and len(parts) == 1:
            increments.append(0)  # T letters sit idle on one-part compositions
            continue
        take, put_first, put_last = (
            (parts.pop, parts.append, parts.appendleft) if rev
            else (parts.popleft, parts.appendleft, parts.append)
        )
        core = (take(),) if l.family == "S" else (take(), take())
        first, last = _ends(l.family, l.m, core)
        put_first(first)
        put_last(last)
        increments.append(2 * last)
        rev ^= l.tilde
    return tuple(reversed(parts)) if rev else tuple(parts), increments


def apply_letter_p(l: ParabolicLetter, a: Composition) -> Composition:
    return evaluate_p(ParabolicWord((l,)), a)


def evaluate_p(w: ParabolicWord, a: Composition) -> Composition:
    """w(a), innermost letter first, in O(1) per letter (:func:`_walk_p`)."""
    return Composition(_walk_p(w.letters, a.parts)[0])


def w_sequence_p(w: ParabolicWord, a: Composition) -> WSequence:
    """Sum increments along the suffix evaluations; all entries are even.

    An entry is 0 exactly when a T letter met a one-part composition.
    ``beta`` counts the increments above 2.
    """
    values = tuple(reversed(_walk_p(w.letters, a.parts)[1]))
    return WSequence(values, beta=sum(1 for v in values if v > 2))


def _strip_p(parts: deque, rev: bool) -> tuple[ParabolicLetter, bool]:
    """Strip the last-applied letter, in place, from a composition whose first
    and last parts differ; return it and the new orientation.

    The composition is ``parts`` read backwards when ``rev`` is set, so
    the reversal of a tilde letter costs nothing and a strip costs O(1)
    whatever the length.  The larger end part is the first part the
    untilded letter made, so the order of the ends gives the tilde.  With
    d = first - last, division with remainder last = q d + r gives S q-1,
    which consumed the part (d), when r = 0, and T q, which consumed
    (d - r, r), otherwise.  The letter is re-applied to those parts by the
    forward code (:func:`_ends`) before anything changes; as no strip
    touches the middle parts, that is the whole of the check, and a
    failure raises :class:`AmbiguousInverse`.
    """
    first, last = (parts[-1], parts[0]) if rev else (parts[0], parts[-1])
    tilde = first < last
    if tilde:
        first, last = last, first
        rev = not rev  # the untilded letter's output reads the other way
    d = first - last
    m, r = divmod(last, d)
    if r:
        family, core, l = "T", (d - r, r), (_T_TILDE if tilde else _T)(m)
    else:
        m -= 1
        family, core, l = "S", (d,), (_S_TILDE if tilde else _S)(m)
    if _ends(family, m, core) != (first, last):
        c = tuple(parts)[::-1] if rev else tuple(parts)
        a, pred = c[::-1] if tilde else c, core + c[1:-1]
        raise AmbiguousInverse(
            f"stripping {l} from {a} suggested predecessor {pred}, "
            f"which does not map back"
        )
    if rev:
        parts.popleft()
        parts[-1] = core[-1]
        if r:
            parts.append(core[0])
    else:
        parts.pop()
        parts[0] = core[-1]
        if r:
            parts.appendleft(core[0])
    return l, rev


def reduce_once_p(a: Composition) -> tuple[Composition, ParabolicLetter]:
    """Strip the unique last-applied letter; the sum strictly drops.

    Raises :class:`FirstLastEqual` at the reduction's terminal situation
    and :class:`AmbiguousInverse` if the arithmetic inverse fails to
    reproduce ``a`` (a defect of this module, not of freeness -- report,
    don't mend).
    The strip is :func:`factorize_p`'s own step, map-back included, and
    costs O(1); copying the parts in and out costs O(k) for k parts.
    """
    if a.parts[0] == a.parts[-1]:
        raise FirstLastEqual(f"first and last parts equal in {a}; nothing to strip")
    parts = deque(a.parts)
    l, rev = _strip_p(parts, False)
    return Composition(tuple(reversed(parts)) if rev else tuple(parts)), l


def factorize_p(a: Composition) -> Optional[tuple[int, ParabolicWord]]:
    """(parity, word) with word(seed) = ``a``, or None when not Frobenius.

    Compositions of sum 1 are rejected: the sum-1 world is deliberately
    outside the even/odd generation scheme.  Each strip costs O(1),
    including the map-back of its letter (:func:`_strip_p`), so the whole
    factorization is linear in the parts and letters.
    """
    if a.total < 2:
        raise ValueError("factorization is defined for compositions of sum >= 2")
    parts, rev = deque(a.parts), False
    collected: list[ParabolicLetter] = []
    while parts[0] != parts[-1]:
        l, rev = _strip_p(parts, rev)
        collected.append(l)
    end = tuple(parts)
    if end == (1, 1):
        return 0, ParabolicWord(tuple(collected))
    if end == (1,):
        # reaching (1) shrinks the length, which only S-family strips do
        if not collected or collected[-1].family != "S":
            raise AmbiguousInverse(
                f"{a} reduces to the odd seed (1), but not by stripping an S letter last"
            )
        return 1, ParabolicWord(tuple(collected))
    return None


def _child_moves_p(a: tuple, budget: int) -> Iterator[tuple[ParabolicLetter, tuple, int]]:
    """All letter applications from ``a`` whose (even) sum increment fits, as
    (letter, (child,), increment).

    One-part compositions only take S letters: T would sit idle and
    reproduce the same composition, which the free generation forbids.
    The smallest increments are 2 a1 (S0, S~0) and 2 a2 (T0, T~0), so a
    budget below both lists nothing and slices nothing.  Otherwise the
    middle each family keeps, or its reversal for a tilde family, is sliced
    once per call, into ``rest``, just before that family's loop, so a
    listing suspended while the walk is below one of its children holds
    one middle; the new first part is the new last part plus the parts the
    letter consumed.  The T ranges are empty on their own when half the
    budget is below a2: the floor division then gives at most -1.
    """
    a1 = a[0]
    half = budget // 2
    if half < a1 and (len(a) < 2 or half < a[1]):
        return
    top = half // a1
    rest = a[1:]
    for m in range(top):
        last = (m + 1) * a1
        yield _S(m), ((last + a1,) + rest + (last,),), 2 * last
    rest = a[:0:-1]
    for m in range(top):
        last = (m + 1) * a1
        yield _S_TILDE(m), ((last,) + rest + (last + a1,),), 2 * last
    if len(a) > 1:
        a2, rest = a[1], a[2:]
        top = (half - a2) // (a1 + a2) + 1
        for m in range(top):
            last = m * a1 + (m + 1) * a2
            yield _T(m), ((last + a1 + a2,) + rest + (last,),), 2 * last
        rest = a[:1:-1]
        for m in range(top):
            last = m * a1 + (m + 1) * a2
            yield _T_TILDE(m), ((last,) + rest + (last + a1 + a2,),), 2 * last


def composition_nodes(epsilon: int, n_max: int, t: Optional[int] = None) -> Iterator[tuple]:
    """Raw search nodes of the Frobenius compositions of parity ``epsilon``
    with sum <= n_max (and deficiency <= t when given).

    Nodes come as ``_search`` yields them, ``((a,), n, depth, letter)`` in
    pre-order; the seen-set keys a state ``(a,)`` by ``a`` itself.  Every
    increment is even, so the search's unit is 2, and by its start rule a
    seed is emitted unless its sum is below 2: the even seed (1,1) is
    emitted at depth 0, the odd seed (1) is not, and its children come
    first, at depth 1.
    """
    return _search((seed(epsilon).parts,), _child_moves_p, n_max, t, unit=2)


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
    words = [()]  # words[d]: the latest word of d letters, as in pre-order
    for (a,), _, depth, l in composition_nodes(epsilon, n_max):
        if depth:
            words[depth:] = ((l,) + words[depth - 1],)
        yield ParabolicWord(words[depth]), Composition(a)


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
