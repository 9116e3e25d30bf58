"""The seeded request stream of the ``queries`` workload.

Requests are built here, from the seed alone, with this module's own
arithmetic: the expected answers never come from the package under test.

* Index requests use two- and three-block instances whose index has a
  closed form (Coll, Giaquinto and Magnant, *Meander graphs and Frobenius
  seaweed Lie algebras*, J. Gen. Lie Theory Appl. 5, 2011)::

      index(a, b | n)    = gcd(a, b) - 1
      index(a, b, c | n) = gcd(a + b, b + c) - 1

  A parabolic composition (a, b, c) is the pair (a, b, c | n).  The sums n
  are log-uniform in [3, N_MAX_INDEX], stratified so that every seed
  draws the same spread of sizes; only the instances differ.
* Factorization requests apply a random operator word from the seed and
  expect that word back.  The letter actions are the ones documented in
  the README (leftmost letter applied last).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

N_REQUESTS = 2000
N_MAX_INDEX = 20_000
MAX_WORD_LETTERS = 40
MAX_WORD_SUM = 10**9

# Request kinds.  The first four ask for the index, the last two for a word.
INDEX_PAIR2 = "index-pair2"
INDEX_PAIR3 = "index-pair3"
INDEX_PARABOLIC3 = "index-parabolic3"
FROBENIUS_PAIR3 = "frobenius-pair3"
FACTORIZE_PAIR = "factorize-pair"
FACTORIZE_PARABOLIC = "factorize-parabolic"
INDEX_KINDS = (INDEX_PAIR2, INDEX_PAIR3, INDEX_PARABOLIC3, FROBENIUS_PAIR3)


@dataclass(frozen=True)
class Request:
    """One request: the CLI's text inputs and the answer it must produce.

    ``bottom`` is None for a single (parabolic) composition.  ``expected``
    is an int index, a bool for ``frobenius``, the word text for a pair
    factorization, or ``(epsilon, word text)`` for a composition.
    """

    kind: str
    top: str
    bottom: str | None
    expected: object


def closed_form_index(top: tuple[int, ...], bottom: tuple[int, ...]) -> int:
    """Index of a pair of two or three blocks against the single block (n)."""
    blocks = top if len(bottom) == 1 else bottom
    if len(blocks) == 2:
        return gcd(*blocks) - 1
    if len(blocks) == 3:
        a, b, c = blocks
        return gcd(a + b, b + c) - 1
    raise ValueError(f"no closed form for {blocks!r}")


def apply_pair_letter(family: str, sign: int, m: int, plus: tuple, minus: tuple):
    """Letter ``S+m``/``T+m`` (sign +1) or its mirror image on a pair."""
    if sign == -1:
        minus, plus = apply_pair_letter(family, 1, m, minus, plus)
        return plus, minus
    a1 = plus[0]
    if family == "S":
        return ((m + 2) * a1,) + plus[1:], ((m + 1) * a1,) + minus
    a2 = plus[1]
    return ((m + 1) * a1 + (m + 2) * a2,) + plus[2:], (m * a1 + (m + 1) * a2,) + minus


def apply_composition_letter(family: str, tilde: bool, m: int, parts: tuple) -> tuple:
    """Letter ``Sm``/``Tm`` on a composition, reversed afterwards for ``~``."""
    a1 = parts[0]
    if family == "S":
        out = ((m + 2) * a1,) + parts[1:] + ((m + 1) * a1,)
    else:
        a2 = parts[1]
        out = ((m + 1) * a1 + (m + 2) * a2,) + parts[2:] + (m * a1 + (m + 1) * a2,)
    return out[::-1] if tilde else out


def _text(parts: tuple) -> str:
    return ",".join(map(str, parts))


def _random_m(rng: random.Random) -> int:
    return min(int(rng.expovariate(0.7)), 12)


def _index_request(rng: random.Random, kind: str, n: int) -> Request:
    if kind == INDEX_PAIR2:
        a = rng.randint(1, n - 1)
        blocks = (a, n - a)
    else:
        i, j = sorted(rng.sample(range(1, n), 2))
        blocks = (i, j - i, n - j)
    expected = closed_form_index(blocks, (n,))
    if kind == INDEX_PARABOLIC3:
        return Request(kind, _text(blocks), None, expected)
    if kind == FROBENIUS_PAIR3:
        expected = expected == 0
    sides = [_text(blocks), str(n)]
    rng.shuffle(sides)
    return Request(kind, sides[0], sides[1], expected)


def _pair_word_request(rng: random.Random) -> Request:
    plus, minus = (1,), (1,)
    applied = []
    for _ in range(rng.randint(1, MAX_WORD_LETTERS)):
        sign = rng.choice((1, -1))
        side = plus if sign == 1 else minus
        family = "T" if len(side) > 1 and rng.random() < 0.5 else "S"
        m = _random_m(rng)
        new_plus, new_minus = apply_pair_letter(family, sign, m, plus, minus)
        if sum(new_plus) > MAX_WORD_SUM:
            break
        plus, minus = new_plus, new_minus
        applied.append(f"{family}{'+' if sign == 1 else '-'}{m}")
    return Request(FACTORIZE_PAIR, _text(plus), _text(minus), " ".join(reversed(applied)))


def _composition_word_request(rng: random.Random) -> Request:
    epsilon = rng.randint(0, 1)
    parts = (1,) if epsilon else (1, 1)
    applied = []
    for _ in range(rng.randint(1, MAX_WORD_LETTERS)):
        # T letters would sit idle on the one-part odd seed
        family = "T" if len(parts) > 1 and rng.random() < 0.5 else "S"
        tilde = rng.random() < 0.5
        m = _random_m(rng)
        new_parts = apply_composition_letter(family, tilde, m, parts)
        if sum(new_parts) > MAX_WORD_SUM:
            break
        parts = new_parts
        applied.append(f"{family}{'~' if tilde else ''}{m}")
    expected = (epsilon, " ".join(reversed(applied)))
    return Request(FACTORIZE_PARABOLIC, _text(parts), None, expected)


def build_requests(seed: int, count: int = N_REQUESTS) -> list[Request]:
    """The request stream for ``seed``: half index, half factorization, shuffled."""
    rng = random.Random(seed)
    half = count // 2
    requests = []
    for i in range(half):
        # stratum i of the log-uniform law, jittered inside the stratum
        u = (i + rng.random()) / half
        n = max(3, min(N_MAX_INDEX, round(3 * (N_MAX_INDEX / 3) ** u)))
        requests.append(_index_request(rng, INDEX_KINDS[i % len(INDEX_KINDS)], n))
    for i in range(count - half):
        make = _pair_word_request if i % 2 == 0 else _composition_word_request
        requests.append(make(rng))
    rng.shuffle(requests)
    return requests
