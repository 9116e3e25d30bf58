"""Command-line front end.

Subcommands: index, frobenius, factorize, evaluate, meander, generate,
table, fit, verify.  Compositions are given in the canonical comma form
("2,3,2"); commands taking a pair accept the two compositions as two
arguments.  With one composition the parabolic reading applies (the pair
is completed with the one-block composition of the same sum).

Exit codes: 0 success (or semantic "yes"), 1 semantic "no" (not
Frobenius, verification mismatch, unstable fit), 2 bad usage or input,
141 (128 + SIGPIPE) when the reader closed stdout early, as in
``seaweeds generate ... | head``; nothing is printed then.
Output written with --out goes through a temp file and an atomic rename,
so a failing run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO

from .compositions import BiComposition, Composition, NULL
# generate_frobenius(_p) are not called here; they stay bound because
# perfbench/tracing.py wraps this module's bindings of them.
from .counting import (  # noqa: F401
    KINDS,
    UnstableSequence,
    _Kind,
    _fit_orders,
    _kind,
    brute_table,
    deficiency_sequence,
    deficiency_table,
    fit_polynomial,
    generate_frobenius,
    generate_frobenius_p,
    generated_table,
    verify_published_polynomials,
)
from .meander import build_meander, index_seaweed, render
from .parabolic_words import (
    ParabolicWord,
    evaluate_p,
    factorize_p,
    seed,
)
from .seaweed_words import (
    SEED,
    SeaweedWord,
    _Memo,
    evaluate,
    factorize,
)


def _checked_kind(args) -> Optional[_Kind]:
    """Reject bad usage of the counting subcommands; return the kind, if any."""
    for dest in ("n_max", "seaweed_n_max", "parabolic_n_max"):
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            raise ValueError(f"--{dest.replace('_', '-')} must be >= 1, got {value}")
    if getattr(args, "kind", None) is None:
        return None
    kind = _kind(args.kind)
    if args.epsilon is not None and kind.epsilon is None:
        raise ValueError(f"--epsilon does not apply to kind {kind.name!r}")
    if args.epsilon is not None and args.epsilon != kind.epsilon:
        raise ValueError(f"--epsilon {args.epsilon} contradicts kind {kind.name!r}")
    if getattr(args, "method", None) == "deficiency" and args.t is None:
        raise ValueError("--method deficiency needs --t")
    if getattr(args, "method", None) not in (None, "deficiency") and args.t is not None:
        raise ValueError("--t applies only to --method deficiency")
    return kind


@contextmanager
def _output(out: Optional[str]) -> Iterator[TextIO]:
    """stdout, or a temp file renamed onto ``out`` once the block succeeds."""
    if out is None:
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(out))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".seaweeds-")
    except OSError as err:  # name the path given, not the temp file's random name
        raise OSError(err.errno, err.strerror, out) from None
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: Optional[str]) -> None:
    """Print to stdout, or write atomically (write-then-rename) to a file."""
    with _output(out) as handle:
        handle.write(text)


def _pair(args) -> BiComposition:
    """The pair given on the command line; one composition a of n reads as (a | (n))."""
    top = Composition.parse(args.top)
    bottom = Composition((top.total,)) if args.bottom is None else Composition.parse(args.bottom)
    return BiComposition(top, bottom)


def _cmd_index(args) -> int:
    print(index_seaweed(_pair(args)))
    return 0


def _cmd_frobenius(args) -> int:
    frob = index_seaweed(_pair(args)) == 0
    print("frobenius" if frob else "not-frobenius")
    return 0 if frob else 1


def _cmd_factorize(args) -> int:
    if args.bottom is not None:
        word = factorize(_pair(args))
        text = None if word is None else str(word)
    else:
        result = factorize_p(Composition.parse(args.top))
        text = None if result is None else f"epsilon={result[0]} {result[1]}".rstrip()
    print("not-frobenius" if text is None else text)
    return 1 if text is None else 0


def _cmd_evaluate(args) -> int:
    if args.epsilon is not None:
        word = ParabolicWord.parse(args.word)
        print(str(evaluate_p(word, seed(args.epsilon))))
        return 0
    word = SeaweedWord.parse(args.word)
    value = evaluate(word, SEED)
    print("o" if value is NULL else str(value))
    return 0


def _cmd_meander(args) -> int:
    _emit(render(build_meander(_pair(args)), args.format), args.out)
    return 0


def _generate_lines(kind: _Kind, n_max: int, t: Optional[int]) -> Iterator[str]:
    """The ``generate`` records of ``kind`` as JSONL lines, straight from the
    raw nodes of its walk (:meth:`~seaweeds.counting._Kind.nodes`).

    Each line is the text ``json.dumps`` gives for the record dict, with the
    same keys in the same order.  No value needs escaping: the values are
    ints, digits joined by commas, and letter tokens joined by spaces.

    The nodes come in pre-order, so a node's parent is the latest node one
    level up: its word is its letter and the parent's word, and
    ``words[d]`` holds the latest word of d letters.  Part values, sums and
    part counts come as text from a memo that holds only the values seen,
    so each record costs the same whatever its depth or the window.
    """
    part = _Memo(str).__getitem__  # the text of each int value
    words = [""]
    eps = kind.epsilon
    for state, n, depth, letter in kind.nodes(n_max, t):
        if t is None:
            if depth:
                words[depth:] = (f"{letter.text} {words[depth - 1]}" if depth > 1
                                 else letter.text,)
            word = f'"word": "{words[depth]}", '
        else:
            word = ""
        if eps is None:
            plus, minus = state
            yield (f'{{{word}"plus": "{",".join(map(part, plus))}", '
                   f'"minus": "{",".join(map(part, minus))}", '
                   f'"n": {part(n)}, "p": {part(len(plus) + len(minus))}}}\n')
        else:
            (a,) = state
            yield (f'{{"epsilon": {eps}, {word}"parts": "{",".join(map(part, a))}", '
                   f'"n": {part(n)}, "p": {part(len(a))}}}\n')


def _cmd_generate(args) -> int:
    lines = _generate_lines(_checked_kind(args), args.n_max, args.t)
    with _output(args.out) as handle:
        handle.writelines(lines)
    return 0


def _cmd_table(args) -> int:
    _checked_kind(args)
    if args.method in ("brute", "both"):  # first, so a refused budget counts nothing
        table = brute = brute_table(args.kind, args.n_max, budget_override=args.budget_override)
    if args.method in ("generated", "both"):
        table = generated_table(args.kind, args.n_max)
    if args.method == "deficiency":
        table = deficiency_table(args.kind, args.t, args.n_max)
    _emit(table.to_csv(), args.out)
    if args.method != "both":
        return 0
    agree = brute.entries == table.entries
    print("AGREE" if agree else "MISMATCH")
    return 0 if agree else 1


def _cmd_fit(args) -> int:
    eps = _checked_kind(args).epsilon
    try:
        _fit_orders(args.t, args.n_max)  # a too-short window fails before any count
        seq = deficiency_sequence(args.kind, args.t, range(1, args.n_max + 1))
        fit = fit_polynomial(seq, args.t, n_start=1, epsilon=eps)
    except UnstableSequence as err:
        print(f"unstable: {err}", file=sys.stderr)
        return 1
    _emit(json.dumps(fit.as_json_dict(), indent=2) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    _checked_kind(args)
    report = verify_published_polynomials(
        seaweed_n_max=args.seaweed_n_max, parabolic_n_max=args.parabolic_n_max
    )
    _emit(report.render(), args.out)
    return 0 if report.all_match else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="seaweeds",
        description="Meander index, Frobenius generation and counting for "
        "seaweed/parabolic subalgebras of sl_n.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_pair(p):
        p.add_argument("top", help="composition, e.g. 2,3,2")
        p.add_argument("bottom", nargs="?", default=None,
                       help="second composition; omit for the parabolic case")

    p = sub.add_parser("index", help="index of the seaweed/parabolic subalgebra")
    add_pair(p)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("frobenius", help="test for index zero (exit 0 yes / 1 no)")
    add_pair(p)
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("factorize", help="operator word reaching the input from the seed")
    add_pair(p)
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("evaluate", help="apply an operator word to the seed")
    p.add_argument("word", help="whitespace-separated letter tokens; may be empty")
    p.add_argument("--epsilon", type=int, choices=(0, 1), default=None,
                   help="parabolic parity; omit for the seaweed alphabet")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("meander", help="render the meander graph")
    add_pair(p)
    p.add_argument("--format", choices=("dot", "ascii"), default="ascii")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_meander)

    p = sub.add_parser("generate", help="stream Frobenius instances as JSONL")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--t", type=int, default=None,
                   help="prune to deficiency <= t (records then omit the word)")
    p.add_argument("--epsilon", type=int, choices=(0, 1), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("table", help="count table as CSV (n,p,count)")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--method", choices=("brute", "generated", "deficiency", "both"),
                   default="generated")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--epsilon", type=int, choices=(0, 1), default=None)
    p.add_argument("--budget-override", action="store_true",
                   help="allow brute enumeration past the default budget")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("fit", help="fit the deficiency-t diagonal polynomial")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n-max", type=int, default=40,
                   help="window end (sum for seaweed, half-variable for parabolic)")
    p.add_argument("--epsilon", type=int, choices=(0, 1), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("verify", help="check all nine published polynomials")
    p.add_argument("--seaweed-n-max", type=int, default=40)
    p.add_argument("--parabolic-n-max", type=int, default=30)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader left: point stdout at devnull so the flush at shutdown
        # stays silent, and exit as a writer killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
