"""Command-line front end.

Subcommands: index, frobenius, factorize, evaluate, meander, generate,
table, fit, verify.  Compositions are given in the canonical comma form
("2,3,2"); commands taking a pair accept the two compositions as two
arguments.  With one composition the parabolic reading applies (the pair
is completed with the one-block composition of the same sum).

Exit codes: 0 success (or semantic "yes"), 1 semantic "no" (not
Frobenius, verification mismatch, unstable fit), 2 bad usage or input.
Output written with --out goes through a temp file and an atomic rename,
so a failing run never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO

from .compositions import BiComposition, Composition, NULL
from .counting import (
    KINDS,
    UnstableSequence,
    _Kind,
    _kind,
    brute_table,
    deficiency_sequence,
    deficiency_table,
    fit_polynomial,
    generated_table,
    verify_published_polynomials,
)
from .meander import build_meander, index_parabolic, index_seaweed, render
# generate_frobenius(_p) are not called here; they stay bound because
# perfbench/tracing.py wraps this module's bindings of them.
from .parabolic_words import (  # noqa: F401
    ParabolicWord,
    composition_nodes,
    evaluate_p,
    factorize_p,
    generate_frobenius_p,
    seed,
)
from .seaweed_words import (  # noqa: F401
    SEED,
    SeaweedWord,
    evaluate,
    factorize,
    generate_frobenius,
    pair_nodes,
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
    return kind


@contextmanager
def _output(out: Optional[str]) -> Iterator[TextIO]:
    """stdout, or a temp file renamed onto ``out`` once the block succeeds."""
    if out is None:
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".seaweeds-")
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


def _parse_args_pair(args) -> tuple[Optional[BiComposition], Optional[Composition]]:
    """(bicomposition, None) for two compositions, (None, composition) for one."""
    top = Composition.parse(args.top)
    if args.bottom is None:
        return None, top
    return BiComposition(top, Composition.parse(args.bottom)), None


def _cmd_index(args) -> int:
    pair, single = _parse_args_pair(args)
    value = index_seaweed(pair) if pair is not None else index_parabolic(single)
    print(value)
    return 0


def _cmd_frobenius(args) -> int:
    pair, single = _parse_args_pair(args)
    if pair is not None:
        frob = index_seaweed(pair) == 0
    else:
        frob = index_parabolic(single) == 0
    print("frobenius" if frob else "not-frobenius")
    return 0 if frob else 1


def _cmd_factorize(args) -> int:
    pair, single = _parse_args_pair(args)
    if pair is not None:
        word = factorize(pair)
        if word is None:
            print("not-frobenius")
            return 1
        print(str(word))
        return 0
    result = factorize_p(single)
    if result is None:
        print("not-frobenius")
        return 1
    eps, word = result
    print(f"epsilon={eps} {word}".rstrip())
    return 0


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
    pair, single = _parse_args_pair(args)
    if pair is None:
        pair = BiComposition(single, Composition((single.total,)))
    _emit(render(build_meander(pair), args.format), args.out)
    return 0


def _generate_lines(eps: Optional[int], n_max: int, t: Optional[int]) -> Iterator[str]:
    """The ``generate`` records as JSONL lines, straight from the search's raw nodes.

    Each line is the text ``json.dumps`` gives for the record dict, with the
    same keys in the same order.  No value needs escaping: the values are
    ints, digits joined by commas, and letter tokens joined by spaces.
    """
    if eps is None:
        for (plus, minus), n, _, letters in pair_nodes(n_max, t):
            word = "" if t is not None else f'"word": "{" ".join([l.text for l in letters])}", '
            yield (f'{{{word}"plus": "{",".join(map(str, plus))}", '
                   f'"minus": "{",".join(map(str, minus))}", '
                   f'"n": {n}, "p": {len(plus) + len(minus)}}}\n')
    else:
        for (a,), n, _, letters in composition_nodes(eps, n_max, t):
            word = "" if t is not None else f'"word": "{" ".join([l.text for l in letters])}", '
            yield (f'{{"epsilon": {eps}, {word}"parts": "{",".join(map(str, a))}", '
                   f'"n": {n}, "p": {len(a)}}}\n')


def _cmd_generate(args) -> int:
    lines = _generate_lines(_checked_kind(args).epsilon, args.n_max, args.t)
    with _output(args.out) as handle:
        handle.writelines(lines)
    return 0


def _cmd_table(args) -> int:
    _checked_kind(args)
    if args.method == "brute":
        table = brute_table(args.kind, args.n_max, budget_override=args.budget_override)
    elif args.method == "generated":
        table = generated_table(args.kind, args.n_max)
    elif args.method == "deficiency":
        table = deficiency_table(args.kind, args.t, args.n_max)
    else:  # both
        brute = brute_table(args.kind, args.n_max, budget_override=args.budget_override)
        generated = generated_table(args.kind, args.n_max)
        _emit(generated.to_csv(), args.out)
        if brute.entries == generated.entries:
            print("AGREE")
            return 0
        print("MISMATCH")
        return 1
    _emit(table.to_csv(), args.out)
    return 0


def _cmd_fit(args) -> int:
    eps = _checked_kind(args).epsilon
    seq = deficiency_sequence(args.kind, args.t, range(1, args.n_max + 1))
    try:
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


def build_parser() -> argparse.ArgumentParser:
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
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
