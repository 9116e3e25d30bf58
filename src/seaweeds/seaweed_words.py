"""Index-preserving operator words on pairs of compositions.

The alphabet has four letter families, each indexed by an integer m >= 0
(tokens ``S+m``, ``S-m``, ``T+m``, ``T-m``):

    S+m   (a+, a-) -> ( ((m+2)a1+, a2+, ...),  ((m+1)a1+, a1-, ...) )
    T+m   (a+, a-) -> ( ((m+1)a1+ + (m+2)a2+, a3+, ...),
                         (m a1+ + (m+1)a2+, a1-, ...) )     [null if a+ has one part]
    S-m, T-m    the mirror images: swap sides, apply the + letter, swap back.

Every letter fixes the null element, preserves the equal-sums condition
and preserves the meander index.  A word eta_1 ... eta_k acts right to
left: eta_k is applied first, eta_1 last.  The empty word is the
identity.

Two facts drive everything downstream:

* The word monoid is free and evaluation at a fixed pair is injective;
  in particular, generation from the seed ((1),(1)) never produces the
  same pair twice.  A repeat would falsify that, so the generators treat
  it as a hard error (:class:`CollisionError`), never as something to
  deduplicate.
* Evaluation at the seed ((1),(1)) is a bijection onto the Frobenius
  (index-zero) pairs.  :func:`factorize` computes the inverse by
  stripping one letter at a time: the side with the larger first part
  identifies the sign, and a division with remainder identifies the
  family and m.

Sum bookkeeping for a letter applied to (a+, a-):

    S(+/-)m adds (m+1) * a1(+/-);  T(+/-)m adds m * a1(+/-) + (m+1) * a2(+/-).

The per-letter sum increments of a word, read left to right, form its
increment sequence; ``beta`` counts increments above 1.  The running
deficiency  tau(w) + sum_i (increment_i - 1)  equals  n + 1 - p  of the
evaluated pair and never decreases as letters are added, which is what
makes the pruned generator :func:`generate_deficiency` exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional

from .compositions import NULL, BiComposition, Composition, MaybeBiComposition


class NullEncountered(ValueError):
    """A word hit the null element where a genuine pair was required."""


class FirstPartsEqual(ValueError):
    """Reduction asked for a pair whose two first parts coincide."""


class CollisionError(RuntimeError):
    """Generation reached the same pair twice: freeness would be false."""


@dataclass(frozen=True)
class SeaweedLetter:
    family: str  # "S" or "T"
    sign: int    # +1 or -1
    m: int
    text: str = field(init=False, repr=False, compare=False)  # the token

    def __post_init__(self):
        if self.family not in ("S", "T"):
            raise ValueError(f"letter family must be 'S' or 'T', got {self.family!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {self.sign!r}")
        if self.m < 0:
            raise ValueError(f"letter index m must be >= 0, got {self.m}")
        token = f"{self.family}{'+' if self.sign == 1 else '-'}{self.m}"
        object.__setattr__(self, "text", token)

    def token(self) -> str:
        return self.text

    def __str__(self):
        return self.text

    def barred(self) -> "SeaweedLetter":
        return letter(self.family, -self.sign, self.m)

    @classmethod
    def parse(cls, tok: str) -> "SeaweedLetter":
        if len(tok) < 3 or tok[0] not in "ST" or tok[1] not in "+-":
            raise ValueError(f"bad letter token {tok!r}; expected e.g. 'S+0' or 'T-2'")
        try:
            m = int(tok[2:])
        except ValueError:
            raise ValueError(f"bad letter token {tok!r}") from None
        return letter(tok[0], 1 if tok[1] == "+" else -1, m)


@lru_cache(maxsize=None)
def letter(family: str, sign: int, m: int) -> SeaweedLetter:
    """Interned letter factory; generation shares letter objects heavily."""
    return SeaweedLetter(family, sign, m)


@dataclass(frozen=True)
class SeaweedWord:
    """A word eta_1 ... eta_k over the letter alphabet; eta_k applies first."""

    letters: tuple[SeaweedLetter, ...] = ()

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        return " ".join([l.text for l in self.letters])

    def __mul__(self, other: "SeaweedWord") -> "SeaweedWord":
        """Concatenation: (v * w)(a) = v(w(a))."""
        return SeaweedWord(self.letters + other.letters)

    def barred(self) -> "SeaweedWord":
        """Flip the sign of every letter; an involution."""
        return SeaweedWord(tuple(l.barred() for l in self.letters))

    @classmethod
    def parse(cls, text: str) -> "SeaweedWord":
        """Parse whitespace-separated tokens, leftmost token applied last."""
        return cls(tuple(SeaweedLetter.parse(tok) for tok in text.split()))


IOTA = SeaweedWord(())

SEED = BiComposition(Composition((1,)), Composition((1,)))

_SEED_RAW = ((1,), (1,))


@dataclass(frozen=True)
class WordStats:
    """Letter counts of a word by family and sign."""

    ell: int
    sigma_plus: int
    sigma_minus: int
    tau_plus: int
    tau_minus: int

    @property
    def sigma(self) -> int:
        return self.sigma_plus + self.sigma_minus

    @property
    def tau(self) -> int:
        return self.tau_plus + self.tau_minus


@dataclass(frozen=True)
class WSequence:
    """Per-letter sum increments of a word, indexed like the written word."""

    values: tuple[int, ...]
    beta: int  # number of increments above the family's unit step


def word_stats(w: SeaweedWord) -> WordStats:
    sp = sm = tp = tm = 0
    for l in w.letters:
        if l.family == "S":
            if l.sign == 1:
                sp += 1
            else:
                sm += 1
        else:
            if l.sign == 1:
                tp += 1
            else:
                tm += 1
    return WordStats(len(w.letters), sp, sm, tp, tm)


def _apply_raw(family: str, sign: int, m: int, plus, minus):
    """Letter action on raw part tuples; None encodes the null element."""
    if sign == 1:
        if family == "S":
            return ((m + 2) * plus[0],) + plus[1:], ((m + 1) * plus[0],) + minus
        if len(plus) < 2:
            return None
        return (
            ((m + 1) * plus[0] + (m + 2) * plus[1],) + plus[2:],
            (m * plus[0] + (m + 1) * plus[1],) + minus,
        )
    if family == "S":
        return ((m + 1) * minus[0],) + plus, ((m + 2) * minus[0],) + minus[1:]
    if len(minus) < 2:
        return None
    return (
        (m * minus[0] + (m + 1) * minus[1],) + plus,
        ((m + 1) * minus[0] + (m + 2) * minus[1],) + minus[2:],
    )


def apply_letter(l: SeaweedLetter, a: MaybeBiComposition) -> MaybeBiComposition:
    """Apply one letter; the null element absorbs everything."""
    if a is NULL:
        return NULL
    raw = _apply_raw(l.family, l.sign, l.m, a.plus.parts, a.minus.parts)
    if raw is None:
        return NULL
    return BiComposition(Composition(raw[0]), Composition(raw[1]))


def evaluate(w: SeaweedWord, a: MaybeBiComposition) -> MaybeBiComposition:
    """Apply a word right to left; the empty word is the identity."""
    for l in reversed(w.letters):
        a = apply_letter(l, a)
    return a


def w_sequence(w: SeaweedWord, a: BiComposition) -> WSequence:
    """Sum increments (m_1, ..., m_k) along the suffix evaluations at ``a``.

    Requires w(a) to be a genuine pair; raises :class:`NullEncountered`
    as soon as some suffix evaluates to null.
    """
    if a is NULL:
        raise NullEncountered("base pair is the null element")
    increments = []
    cur: MaybeBiComposition = a
    for l in reversed(w.letters):
        nxt = apply_letter(l, cur)
        if nxt is NULL:
            raise NullEncountered(f"suffix ending at letter {l} evaluates to null")
        increments.append(nxt.total - cur.total)
        cur = nxt
    values = tuple(reversed(increments))
    return WSequence(values, beta=sum(1 for v in values if v > 1))


def zeta(r: int, sign: int) -> SeaweedWord:
    """The alternating word of r letters S(+/-)0 whose first-applied letter
    (the rightmost one) carries ``sign``."""
    if r < 1:
        raise ValueError(f"zeta words need length >= 1, got {r}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    letters = tuple(
        letter("S", sign if (r - j) % 2 == 0 else -sign, 0) for j in range(1, r + 1)
    )
    return SeaweedWord(letters)


def bar_conjugate(w: SeaweedWord) -> SeaweedWord:
    """Flip every letter's sign (conjugation by the side swap)."""
    return w.barred()


@dataclass(frozen=True)
class DeltaDecomposition:
    """Blocks (w_0, z_1, w_1, ..., z_q, w_q) grouping unit-step S0 runs.

    Odd positions hold the z-blocks: maximal runs of letter/increment
    pairs of the form (S+0 or S-0, increment 1).  Even positions hold
    what is left between the runs; the two outermost may be empty, the
    interior ones never are.  Concatenating all blocks restores the word.
    """

    blocks: tuple[SeaweedWord, ...]

    @property
    def q(self) -> int:
        return (len(self.blocks) - 1) // 2

    @property
    def w_blocks(self) -> tuple[SeaweedWord, ...]:
        return self.blocks[0::2]

    @property
    def z_blocks(self) -> tuple[SeaweedWord, ...]:
        return self.blocks[1::2]


def delta_decompose(w: SeaweedWord, a: BiComposition) -> DeltaDecomposition:
    """Group the letter/increment pairs of ``w`` at ``a`` into the blocks above."""
    seq = w_sequence(w, a)
    blocks: list[SeaweedWord] = []
    current: list[SeaweedLetter] = []
    in_z = False
    for l, inc in zip(w.letters, seq.values):
        is_z = l.family == "S" and l.m == 0 and inc == 1
        if is_z != in_z:
            blocks.append(SeaweedWord(tuple(current)))
            current = []
            in_z = is_z
        current.append(l)
    blocks.append(SeaweedWord(tuple(current)))
    if in_z:
        blocks.append(IOTA)  # decomposition always ends on a w-block
    return DeltaDecomposition(tuple(blocks))


def _reduce_raw(plus, minus):
    """Strip the last-applied letter from raw tuples with plus[0] != minus[0].

    Returns (new_plus, new_minus, letter).  The smaller first part sits
    on the side the letter pushed into; division with remainder on the
    first parts recovers the family and m.
    """
    if plus[0] < minus[0]:
        sign = -1
        hi, lo = minus, plus
    else:
        sign = 1
        hi, lo = plus, minus
    d = hi[0] - lo[0]
    m = (lo[0] - 1) // d
    first = (m + 1) * hi[0] - (m + 2) * lo[0]
    second = (m + 1) * lo[0] - m * hi[0]
    if first == 0:
        fam = "S"
        new_hi = (second,) + hi[1:]
    else:
        fam = "T"
        new_hi = (first, second) + hi[1:]
    new_lo = lo[1:]
    if sign == -1:
        return new_lo, new_hi, letter(fam, -1, m)
    return new_hi, new_lo, letter(fam, 1, m)


def reduce_once(b: BiComposition) -> tuple[BiComposition, SeaweedLetter]:
    """Strip the unique last-applied letter from ``b``; the sum strictly drops.

    Raises :class:`FirstPartsEqual` when the two first parts coincide
    (the reduction's terminal situation, handled by :func:`factorize`).
    """
    plus, minus = b.plus.parts, b.minus.parts
    if plus[0] == minus[0]:
        raise FirstPartsEqual(f"first parts equal in {b}; nothing to strip")
    new_plus, new_minus, l = _reduce_raw(plus, minus)
    return BiComposition(Composition(new_plus), Composition(new_minus)), l


def factorize(b: BiComposition) -> Optional[SeaweedWord]:
    """The word that evaluates to ``b`` from the seed ((1),(1)), or None.

    Strips letters while the first parts differ.  Ending at the seed
    yields the word (letters collected outermost-first, so evaluation
    reproduces ``b``); ending anywhere else means ``b`` is not Frobenius
    and None is returned.
    """
    plus, minus = b.plus.parts, b.minus.parts
    collected: list[SeaweedLetter] = []
    while plus[0] != minus[0]:
        plus, minus, l = _reduce_raw(plus, minus)
        collected.append(l)
    if (plus, minus) == _SEED_RAW:
        return SeaweedWord(tuple(collected))
    return None


def _child_moves(plus, minus, budget) -> Iterator[tuple[SeaweedLetter, tuple, tuple, int]]:
    """All letter applications from (plus, minus) whose sum increment fits."""
    a1p, a1m = plus[0], minus[0]
    for m in range(budget // a1p):
        inc = (m + 1) * a1p
        yield (
            letter("S", 1, m),
            ((m + 2) * a1p,) + plus[1:],
            (inc,) + minus,
            inc,
        )
    for m in range(budget // a1m):
        inc = (m + 1) * a1m
        yield (
            letter("S", -1, m),
            (inc,) + plus,
            ((m + 2) * a1m,) + minus[1:],
            inc,
        )
    if len(plus) > 1:
        a2p = plus[1]
        for m in range((budget - a2p) // (a1p + a2p) + 1 if budget >= a2p else 0):
            inc = m * a1p + (m + 1) * a2p
            yield (
                letter("T", 1, m),
                ((m + 1) * a1p + (m + 2) * a2p,) + plus[2:],
                (inc,) + minus,
                inc,
            )
    if len(minus) > 1:
        a2m = minus[1]
        for m in range((budget - a2m) // (a1m + a2m) + 1 if budget >= a2m else 0):
            inc = m * a1m + (m + 1) * a2m
            yield (
                letter("T", -1, m),
                (inc,) + plus,
                ((m + 1) * a1m + (m + 2) * a2m,) + minus[2:],
                inc,
            )


def _search(start, moves, n_max: int, total: int, t: Optional[int] = None,
            unit: int = 1, emit_start: bool = True) -> Iterator[tuple]:
    """Pre-order depth-first closure of a raw state under operator letters.

    A state is a tuple of part tuples, one per side: ``(plus, minus)`` for
    pairs, ``(a,)`` for a single composition.  ``moves(*state, budget)``
    yields ``(letter, *child_sides, increment)`` for every letter whose sum
    increment fits ``budget``, in a fixed order; children are visited in
    that order, each subtree before the next sibling.  ``total`` is the
    sum of ``start``, and nodes with a sum above ``n_max`` are never
    emitted.  ``emit_start`` decides whether ``start`` itself is emitted.

    With a deficiency bound ``t`` the walk is pruned on the running
    deficiency, whose step per letter is ``increment // unit - 1``, plus 1
    for a T letter.  The deficiency never decreases, so a node at
    deficiency d can only take increments up to ``unit * (t - d + 1)``,
    and the budget handed to ``moves`` is capped there.

    Yields nodes ``(state, total, deficiency, letters)``, where ``letters``
    is the word reaching ``state`` from ``start``, leftmost (last-applied)
    letter first.  Every state is checked against all states reached so
    far; a repeat raises :class:`CollisionError`.  The stack is explicit,
    so the depth of the walk is not limited by the interpreter.
    """
    if t is not None and t < 0:
        raise ValueError(f"deficiency bound must be >= 0, got {t}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if total > n_max:
        return
    node = (start, total, 0, ())
    if emit_start:
        yield node
    seen = {start}
    stack: list[tuple] = []
    while True:
        state, total, deficit, letters = node
        budget = n_max - total
        if t is not None:
            budget = min(budget, unit * (t - deficit + 1))
        children = []
        for move in moves(*state, budget):
            l, inc = move[0], move[-1]
            if t is not None:
                child_deficit = deficit + inc // unit - 1 + (l.family == "T")
                if child_deficit > t:
                    continue
            else:
                child_deficit = 0
            key = move[1:-1]
            if key in seen:
                raise CollisionError(
                    f"{'|'.join(map(str, key))} reached twice; "
                    f"second route ends with letter {l}"
                )
            seen.add(key)
            children.append((key, total + inc, child_deficit, (l,) + letters))
        children.reverse()
        stack += children
        if not stack:
            return
        node = stack.pop()
        yield node


def pair_nodes(n_max: int, t: Optional[int] = None) -> Iterator[tuple]:
    """Raw search nodes of the Frobenius pairs with sum <= n_max (and
    deficiency <= t when given), as :func:`_search` yields them."""
    return _search(_SEED_RAW, _child_moves, n_max, 1, t)


def generate_frobenius(n_max: int) -> Iterator[tuple[SeaweedWord, BiComposition]]:
    """Every Frobenius pair with sum <= n_max, each with its unique word.

    Depth-first closure of the seed under all letters whose sum increment
    fits the budget, in pre-order with children in :func:`_child_moves`
    order; reaching any pair twice raises :class:`CollisionError`.
    """
    for (plus, minus), _, _, letters in pair_nodes(n_max):
        yield SeaweedWord(letters), BiComposition(Composition(plus), Composition(minus))


def generate_deficiency(t: int, n_max: int) -> Iterator[tuple[int, int, BiComposition]]:
    """Frobenius pairs with sum n <= n_max and at least n + 1 - t total parts.

    Same closure as :func:`generate_frobenius`, but pruned on the running
    deficiency tau(w) + sum(increment - 1), which equals n + 1 - p of the
    current pair and never decreases.  Every visited pair is therefore
    emitted, annotated as (n, p, pair), and the stream is exactly the
    deficiency <= t slice of the full generator's output.
    """
    for (plus, minus), n, _, _ in pair_nodes(n_max, t):
        yield n, len(plus) + len(minus), BiComposition(Composition(plus), Composition(minus))
