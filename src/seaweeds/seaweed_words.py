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

A letter's arithmetic is written once, in :func:`_ends`, for this
alphabet and the parabolic one: S m consumes the first part a1 of its
side and T m the first two, (a1, a2), and each makes a new first part
and one part pushed onto the other side.  :func:`evaluate`,
:func:`w_sequence` and :func:`apply_letter` all run :func:`_walk`, which
keeps each side as a reversed list and so costs O(1) per letter.

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
makes the pruned walk of :func:`_search`, and so
:func:`seaweeds.counting.generate_deficiency`, exact.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import groupby
from typing import Callable, ClassVar, Iterator, Optional

from .compositions import NULL, BiComposition, Composition, MaybeBiComposition, _Value


class NullEncountered(ValueError):
    """A word hit the null element where a genuine pair was required."""


class FirstPartsEqual(ValueError):
    """Reduction asked for a pair whose two first parts coincide."""


class CollisionError(RuntimeError):
    """Generation reached the same pair twice: freeness would be false."""


class _Letter(_Value):
    """A letter of one alphabet: family S or T, a mark, and an index m >= 0.

    Subclasses add the slot of their mark; their ``_fields`` are
    ``family``, the mark's field and ``m``, and ``_mark`` turns the middle
    one into the token's mark, checking it.  The constructor binds the
    fields through :class:`_Value`'s, checks them, and stores the token in
    ``text``.  Letters are interned (``letter``, ``letter_p`` and the move
    listers' memos), so the binder runs once per distinct letter.
    """

    __slots__ = ("family", "m", "text")  # text: the token, not compared

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        family, m = self.family, self.m
        if family not in ("S", "T"):
            raise ValueError(f"letter family must be 'S' or 'T', got {family!r}")
        mark = self._mark()
        if not isinstance(m, int) or isinstance(m, bool):
            raise ValueError(f"letter index m must be an int, got {m!r}")
        if m < 0:
            raise ValueError(f"letter index m must be >= 0, got {m}")
        object.__setattr__(self, "text", f"{family}{mark}{m}")

    def token(self) -> str:
        return self.text

    def __str__(self):
        return self.text


class _Word(_Value):
    """A word eta_1 ... eta_k over one alphabet; eta_k applies first.

    Subclasses name their letter class; equality and repr are per class,
    so equal letter tuples over the two alphabets stay distinct words.
    """

    __slots__ = _fields = ("letters",)
    _letter: ClassVar[type]

    def __init__(self, letters: tuple = ()):
        object.__setattr__(self, "letters", letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        return " ".join([l.text for l in self.letters])

    def __mul__(self, other: "_Word") -> "_Word":
        """Concatenation: (v * w)(a) = v(w(a)), of two words of one class."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return type(self)(self.letters + other.letters)

    @classmethod
    def parse(cls, text: str) -> "_Word":
        """Parse whitespace-separated tokens, leftmost token applied last."""
        return cls(tuple(cls._letter.parse(tok) for tok in text.split()))


class SeaweedLetter(_Letter):
    __slots__ = ("sign",)
    _fields = ("family", "sign", "m")  # sign: +1 or -1

    def _mark(self) -> str:
        sign = self.sign
        if not isinstance(sign, int) or isinstance(sign, bool) or sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        return "+" if sign == 1 else "-"

    @classmethod
    def parse(cls, tok: str) -> "SeaweedLetter":
        if len(tok) < 3 or tok[0] not in "ST" or tok[1] not in "+-":
            raise ValueError(f"bad letter token {tok!r}; expected e.g. 'S+0' or 'T-2'")
        return letter(tok[0], 1 if tok[1] == "+" else -1, _letter_index(tok, tok[2:]))


def _letter_index(tok: str, digits: str) -> int:
    """The letter index m of ``tok``: ASCII decimal digits in canonical form,
    with no leading zero, so each letter has one token.  ``int`` alone would
    also take a sign, underscores, non-ASCII digits and ``007``."""
    if not (digits.isascii() and digits.isdigit()) or (digits[0] == "0" and len(digits) > 1):
        raise ValueError(f"bad letter token {tok!r}")
    return int(digits)


# the interned letter factory; generation shares letter objects heavily.
# typed: 1 and True hash alike, and an untyped cache would hand back the
# letter first made from either
letter = lru_cache(maxsize=None, typed=True)(SeaweedLetter)


class _Memo(dict):
    """``make(key)`` by key, each made once, on first use; a read then costs
    one dict lookup, less than a call of a cached function."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


# the move listers' letters by m: the factory's own objects, read faster
_S_PLUS, _S_MINUS, _T_PLUS, _T_MINUS = (
    _Memo(partial(letter, family, sign)).__getitem__
    for family, sign in (("S", 1), ("S", -1), ("T", 1), ("T", -1))
)


class SeaweedWord(_Word):
    """A word over the pair alphabet."""

    __slots__ = ()
    _letter = SeaweedLetter


IOTA = SeaweedWord(())

SEED = BiComposition(Composition((1,)), Composition((1,)))

_SEED_RAW = ((1,), (1,))


class WordStats(_Value):
    """Letter counts of a word by family and sign: ``ell: int``, the length,
    then ``sigma_plus``, ``sigma_minus``, ``tau_plus`` and ``tau_minus``, all
    ``int``, the numbers of S+, S-, T+ and T- letters."""

    __slots__ = _fields = ("ell", "sigma_plus", "sigma_minus", "tau_plus", "tau_minus")

    @property
    def sigma(self) -> int:
        return self.sigma_plus + self.sigma_minus

    @property
    def tau(self) -> int:
        return self.tau_plus + self.tau_minus


class WSequence(_Value):
    """Per-letter sum increments of a word: ``values: tuple[int, ...]``,
    indexed like the written word, and ``beta: int``, the number of
    increments above the family's unit step."""

    __slots__ = _fields = ("values", "beta")


def word_stats(w: SeaweedWord) -> WordStats:
    c = Counter((l.family, l.sign) for l in w.letters)
    return WordStats(len(w.letters), c["S", 1], c["S", -1], c["T", 1], c["T", -1])


def _ends(family: str, m: int, core: tuple) -> tuple[int, int]:
    """The two parts the letter ``family`` m makes from the parts ``core`` it
    consumes, (a1,) for S and (a1, a2) for T: the new first part and the
    pushed part.  It is the whole of a letter's arithmetic in both
    alphabets; the pushed part is the sum increment of a pair letter and
    half that of a composition letter."""
    if family == "S":
        a1, = core
        return (m + 2) * a1, (m + 1) * a1
    a1, a2 = core
    return (m + 1) * a1 + (m + 2) * a2, m * a1 + (m + 1) * a2


def _walk(letters, plus, minus) -> tuple[Optional[tuple], list[int]]:
    """Apply ``letters``, a word's letters with the last-applied one first, to
    the raw pair (plus, minus), in O(1) per letter.

    Each side is held as a list of its parts in reverse order, first part
    last, as in :func:`_strip`.  A letter pops what it consumes from its
    own side, puts back the new first part and pushes the other part onto
    the other side (:func:`_ends`).  Returns the final raw pair and the
    letters' sum increments, in application order.  A T letter on a
    one-part side makes null: the walk then returns None and the
    increments of the letters applied before that one.
    """
    plus, minus = list(plus[::-1]), list(minus[::-1])
    increments = []
    for l in reversed(letters):
        own, other = (plus, minus) if l.sign == 1 else (minus, plus)
        if l.family == "T" and len(own) < 2:
            return None, increments
        core = (own.pop(),) if l.family == "S" else (own.pop(), own.pop())
        first, pushed = _ends(l.family, l.m, core)
        own.append(first)
        other.append(pushed)
        increments.append(pushed)
    return (tuple(plus[::-1]), tuple(minus[::-1])), increments


def apply_letter(l: SeaweedLetter, a: MaybeBiComposition) -> MaybeBiComposition:
    """Apply one letter; the null element absorbs everything."""
    return evaluate(SeaweedWord((l,)), a)


def evaluate(w: SeaweedWord, a: MaybeBiComposition) -> MaybeBiComposition:
    """Apply a word right to left, in O(1) per letter (:func:`_walk`); the
    empty word is the identity and the null element absorbs everything."""
    if a is NULL:
        return NULL
    raw = _walk(w.letters, a.plus.parts, a.minus.parts)[0]
    return NULL if raw is None else BiComposition(Composition(raw[0]), Composition(raw[1]))


def w_sequence(w: SeaweedWord, a: BiComposition) -> WSequence:
    """Sum increments (m_1, ..., m_k) along the suffix evaluations at ``a``.

    Requires w(a) to be a genuine pair; raises :class:`NullEncountered`
    naming the letter at which a suffix first evaluates to null.
    """
    if a is NULL:
        raise NullEncountered("base pair is the null element")
    raw, increments = _walk(w.letters, a.plus.parts, a.minus.parts)
    if raw is None:
        l = w.letters[-1 - len(increments)]
        raise NullEncountered(f"suffix ending at letter {l} evaluates to null")
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
    """Flip every letter's sign (conjugation by the side swap); an involution."""
    return SeaweedWord(tuple(letter(l.family, -l.sign, l.m) for l in w.letters))


class DeltaDecomposition(_Value):
    """Blocks (w_0, z_1, w_1, ..., z_q, w_q) grouping unit-step S0 runs.

    Odd positions hold the z-blocks: maximal runs of letter/increment
    pairs of the form (S+0 or S-0, increment 1).  Even positions hold
    what is left between the runs; the two outermost may be empty, the
    interior ones never are.  Concatenating all blocks restores the word.
    The one field is ``blocks: tuple[SeaweedWord, ...]``.
    """

    __slots__ = _fields = ("blocks",)

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
    pairs = zip(w.letters, w_sequence(w, a).values)
    blocks: list[SeaweedWord] = []
    for is_z, run in groupby(pairs, lambda pair: pair[0].family == "S"
                             and pair[0].m == 0 and pair[1] == 1):
        if is_z and not blocks:
            blocks.append(IOTA)  # the decomposition starts on a w-block
        blocks.append(SeaweedWord(tuple(l for l, _ in run)))
    if len(blocks) % 2 == 0:
        blocks.append(IOTA)  # and ends on one: the empty word is one empty w-block
    return DeltaDecomposition(tuple(blocks))


def _strip(plus: list, minus: list) -> SeaweedLetter:
    """Strip the last-applied letter from a pair with different first parts,
    in place, and return it.  Each side is a list of its parts in reverse
    order, first part last, so a strip costs O(1) whatever the lengths.

    The smaller first part l sits on the side the letter pushed into, and it
    is popped.  With h the other first part and d = h - l, division with
    remainder l - 1 = m d + r gives the letter's m.  The letter consumed
    parts of sum d on the larger side: (d - s, s) for T m, with s = r + 1 =
    l - m d, and (d) for S m, the case s = d.
    """
    if plus[-1] > minus[-1]:
        hi, lo, s_letter, t_letter = plus, minus, _S_PLUS, _T_PLUS
    else:
        hi, lo, s_letter, t_letter = minus, plus, _S_MINUS, _T_MINUS
    l = lo.pop()
    d = hi[-1] - l
    m = (l - 1) // d
    second = l - m * d
    hi[-1] = second
    if second < d:
        hi.append(d - second)
        return t_letter(m)
    return s_letter(m)


def reduce_once(b: BiComposition) -> tuple[BiComposition, SeaweedLetter]:
    """Strip the unique last-applied letter from ``b``; the sum strictly drops.

    Raises :class:`FirstPartsEqual` when the two first parts coincide
    (the reduction's terminal situation, handled by :func:`factorize`).
    The strip is :func:`factorize`'s own step and costs O(1); copying the
    parts in and out costs O(k) for k parts.
    """
    plus, minus = b.plus.parts, b.minus.parts
    if plus[0] == minus[0]:
        raise FirstPartsEqual(f"first parts equal in {b}; nothing to strip")
    plus, minus = list(plus[::-1]), list(minus[::-1])
    l = _strip(plus, minus)
    return BiComposition(Composition(tuple(reversed(plus))),
                         Composition(tuple(reversed(minus)))), l


def factorize(b: BiComposition) -> Optional[SeaweedWord]:
    """The word that evaluates to ``b`` from the seed ((1),(1)), or None.

    Strips letters while the first parts differ.  Ending at the seed
    yields the word (letters collected outermost-first, so evaluation
    reproduces ``b``); ending anywhere else means ``b`` is not Frobenius
    and None is returned.  Each strip costs O(1) (:func:`_strip`), so the
    whole factorization is linear in the parts and letters.
    """
    letters = _factorize_raw(b.plus.parts, b.minus.parts)
    return None if letters is None else SeaweedWord(letters)


def _factorize_raw(plus, minus) -> Optional[tuple[SeaweedLetter, ...]]:
    """:func:`factorize` on raw part tuples: the word's letters, or None."""
    plus, minus = list(plus[::-1]), list(minus[::-1])
    collected: list[SeaweedLetter] = []
    while plus[-1] != minus[-1]:
        collected.append(_strip(plus, minus))
    return tuple(collected) if plus == minus == [1] else None


def _child_moves(plus, minus, budget) -> Iterator[tuple[SeaweedLetter, tuple, int]]:
    """All letter applications from (plus, minus) whose sum increment fits, as
    (letter, (child plus, child minus), increment).

    The smallest increments are a1+ and a1- (S+0, S-0) and a2+ and a2- (T+0,
    T-0), so a budget below all of them lists nothing and slices nothing.
    Otherwise the tail each family keeps is sliced once per call, into
    ``rest``, just before that family's loop, so a listing suspended while
    the walk is below one of its children holds one tail, not four; a
    child's new first part is its increment plus the parts the letter
    consumed.  A T range is empty on its own when the budget is below that
    side's a2: the floor division then gives at most -1."""
    a1p, a1m = plus[0], minus[0]
    if (budget < a1p and budget < a1m and (len(plus) < 2 or budget < plus[1])
            and (len(minus) < 2 or budget < minus[1])):
        return
    rest = plus[1:]
    for m in range(budget // a1p):
        inc = (m + 1) * a1p
        yield _S_PLUS(m), ((inc + a1p,) + rest, (inc,) + minus), inc
    rest = minus[1:]
    for m in range(budget // a1m):
        inc = (m + 1) * a1m
        yield _S_MINUS(m), ((inc,) + plus, (inc + a1m,) + rest), inc
    if len(plus) > 1:
        a2p, rest = plus[1], plus[2:]
        for m in range((budget - a2p) // (a1p + a2p) + 1):
            inc = m * a1p + (m + 1) * a2p
            yield _T_PLUS(m), ((inc + a1p + a2p,) + rest, (inc,) + minus), inc
    if len(minus) > 1:
        a2m, rest = minus[1], minus[2:]
        for m in range((budget - a2m) // (a1m + a2m) + 1):
            inc = m * a1m + (m + 1) * a2m
            yield _T_MINUS(m), ((inc,) + plus, (inc + a1m + a2m,) + rest), inc


def _check_bounds(n_max: int, t: Optional[int]) -> None:
    """Reject a negative deficiency bound or a sum window below 1."""
    if t is not None and t < 0:
        raise ValueError(f"deficiency bound must be >= 0, got {t}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")


def _search(start, moves, n_max: int, t: Optional[int] = None, unit: int = 1,
            halve: bool = False) -> Iterator[tuple]:
    """Pre-order depth-first closure of a raw state under operator letters.

    A state is a tuple of part tuples, one per side: ``(plus, minus)`` for
    pairs, ``(a,)`` for a single composition.  ``moves(*state, budget)``
    yields ``(letter, child_state, increment)`` for every letter whose sum
    increment fits ``budget``, in a fixed order; children are visited in
    that order, each subtree before the next sibling.  The sum of a state
    is the sum of its first side (both sides of a pair sum to n), and nodes
    with a sum above ``n_max`` are never emitted.  Every increment is at
    least ``unit``, so a state with less room than that left under ``n_max``
    is a leaf and ``moves`` is not called for it.

    Start rule: ``start`` itself is emitted unless its sum is below
    ``unit``.  Of the seeds only the odd composition seed (1) is: its k is
    0, and it sits outside the generation scheme.

    The walk is lazy: the stack holds one open listing of ``moves`` per
    node on the current path, a child is yielded as soon as its listing
    gives it, and a child with room for a move opens its own listing
    before its next sibling is listed.  A leaf never touches the stack.

    With a deficiency bound ``t`` the walk is pruned on the running
    deficiency, whose step per letter is ``increment // unit - 1``, plus 1
    for a T letter.  The deficiency never decreases, so a node at
    deficiency d can only take increments up to ``unit * (t - d + 1)``,
    and the budget handed to ``moves`` is capped there.  Each open listing
    keeps its node's deficiency beside it on the stack, accumulated along
    the path; a node does not carry it, and a walk without ``t`` keeps
    none.

    Yields nodes ``(state, total, depth, letter)``: ``letter``
    is the last-applied letter of the word reaching ``state`` from
    ``start``, and ``depth`` that word's length; ``start`` itself comes as
    depth 0 and letter None.  The nodes come in pre-order, so a node's word
    is its letter followed by the word of the latest node at depth - 1, and
    a consumer that wants whole words rebuilds them so.  Beyond the state
    its listing built, a node costs its seen-set key and O(1) more,
    whatever its depth.  The stack is explicit, so the depth of the walk
    is not limited by the interpreter.

    Every state is checked against all states listed so far; a repeat
    raises :class:`CollisionError`, which names the state.  The seen-set
    holds one flat tuple per state, its sides concatenated: a composition
    ``(a,)`` is keyed by ``a`` itself, and a pair by plus + minus, which
    is injective because both sides sum to n, so plus ends where the
    running sum first reaches n.  One ``add`` both checks and inserts: the
    set grows unless the key was already in it.

    ``halve`` is for pairs from the seed, under the side swap: the minus
    letters are the plus letters conjugated by it, so the moves of a swapped
    pair are the swapped moves, at the same increments and deficiency steps.
    The children of ``start`` then come in swap pairs whose subtrees are
    mirror images, with the same sums, part counts and deficiencies.  So the
    start's listing, and no other, is wrapped in a filter that keeps the
    child of each pair whose plus side is not below its minus side (the S+
    half), and only their subtrees are walked.  Every node but ``start``
    then stands for two, so a tally counts it twice.  The seen-set holds
    exactly the walked nodes; each is also checked with its swap, keyed
    minus + plus, though no swap enters the set.  That still finds a repeat
    anywhere in the full walk, since every node the half walk skips is the
    swap of a walked one: the S- children of ``start`` are the swaps of its
    S+ children, listed after the whole S+ half, and their subtrees mirror
    the S+ subtrees.  Two walked nodes that repeat meet at the plain check.
    A walked node equal to a skipped one is the swap of a walked node (maybe
    itself), and the later of the two meets the other at its swap check.
    Two skipped nodes that repeat are the swaps of two walked nodes that
    repeat.
    """
    _check_bounds(n_max, t)
    total = sum(start[0])
    if total > n_max:
        return
    if total >= unit:
        yield start, total, 0, None
    room = n_max - total
    if room < unit:
        return
    seen = {sum(start, ())}
    listing = moves(*start, room if t is None else min(room, unit * (t + 1)))
    if halve:  # the half: the child of each swap pair that is not below its swap
        listing = (move for move in listing if move[1][0] >= move[1][1])
    stack = [(listing, total, 0)]
    child_deficit = None  # a walk without t never sets it
    while stack:
        listing, total, deficit = stack[-1]
        depth = len(stack)  # of the children this listing gives
        for l, state, inc in listing:
            if t is not None:
                child_deficit = deficit + inc // unit - 1 + (l.family == "T")
                if child_deficit > t:
                    continue
            size = len(seen)
            seen.add(sum(state, ()))
            if len(seen) == size:
                raise CollisionError(
                    f"{'|'.join(map(str, state))} reached twice; "
                    f"second route ends with letter {l}"
                )
            if halve and state[1] + state[0] in seen:  # each walked node stands for its swap
                raise CollisionError(
                    f"{state[1]}|{state[0]} reached twice; second route "
                    f"is the mirror of one ending with letter {l}"
                )
            n = total + inc
            yield state, n, depth, l
            room = n_max - n
            if room >= unit:
                budget = room if t is None else min(room, unit * (t - child_deficit + 1))
                stack.append((moves(*state, budget), n, child_deficit))
                break
        else:
            stack.pop()
