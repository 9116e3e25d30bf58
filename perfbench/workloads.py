"""The four workloads: what one pass runs, what an item is, how it is checked.

A pass is a fixed list of operations (calls a client issues into the
package).  The operations are timed one by one by the run's ``Clock``;
the check runs after the pass, outside the timed region, and decides for
each operation whether its output is right.  Timed calls go through module attributes (for
example ``counting.generated_table``) so that the traced run can wrap
them; the checks use the bindings imported below, which stay untraced.

Only ``queries`` uses the seed for its inputs.  ``census``, ``generate``
and ``verify`` are exhaustive over fixed windows: their timed work
ignores the seed, which picks only the records the ``generate`` check
samples.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from pathlib import Path

from seaweeds import cli, compositions, counting, meander, parabolic_words, seaweed_words
from seaweeds.compositions import BiComposition, Composition
from seaweeds.counting import CountTable
from seaweeds.parabolic_words import ParabolicWord, evaluate_p, seed as parabolic_seed
from seaweeds.seaweed_words import SEED, SeaweedWord, evaluate, factorize

from perfbench import stream
from perfbench.clock import Clock, Op

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# sha256 of outputs recorded when the benchmark was defined; ROADMAP aim 2
# requires them to stay byte-identical.
DIGESTS = {
    ("table", "seaweed", 8): "86ca9baaee21e7c7825bcefdbcb52ba4264daa35477c6a2af9063de0593bfde8",
    ("table", "parabolic-even", 14): "12437af5b6e0a1d8152a204b8a2d7ae9fb90506c403dda2067b71f5ccdbd4627",
    ("table", "parabolic-odd", 13): "08fa4b6c4ff965b0738423cd8ed39c72e71555259733ff1c1f0c3c45a254e1b7",
    ("generated", "seaweed", 13): "beaa7bfef137f84a9cee0a6af6a427f3ae13a6dfa6f4a05975590fe4d98c09a4",
    ("generated", "parabolic-odd", 27): "7a7c1ce019eba995b047ea56ddfb7669395a0a32f747cc03bfdc14107131850f",
    ("generate", "seaweed", 11): "4f112a861100ff469f3130235f5689cd5dd10b0e0f9ea49df6668a3d5315ffc1",
    ("generate", "parabolic-even", 22): "becb5be9e527c7d25220c216e9d54efae58ad062e9e8dae9304f440506378099",
}

# Frobenius instances with sum <= n_max (parabolic: of the kind's parity).
FROBENIUS_COUNTS = {
    ("seaweed", 13): 16_287,
    ("parabolic-odd", 27): 19_620,
    ("seaweed", 11): 4_479,
    ("parabolic-even", 22): 11_995,
}

# Instances in the ten deficiency slices of verify(seaweed 26, parabolic 20):
# seaweed t=0..4 with n <= 26, parabolic with k <= 20.
VERIFY_ITEMS = 51 + 239 + 1349 + 5377 + 19337 + 39 + 40 + 253 + 152 + 766

ROUND_TRIP_SAMPLE = 32


def run_cli(clock: Clock, argv: list[str]) -> Op:
    """``cli.main`` in-process, with stdout captured; result is (code, stdout)."""

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    op = clock.timed(call)
    if not isinstance(op.result, Exception):
        op.out_bytes = len(op.result[1].encode())
        out = argv[argv.index("--out") + 1]
        if os.path.exists(out):
            op.out_bytes += os.path.getsize(out)
    return op


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def census_items(windows) -> int:
    """Candidates enumerated: 4^(n-1) pairs per seaweed sum, 2^(n-1) compositions
    per parabolic sum of the kind's parity."""
    total = 0
    for kind, n_max in windows:
        if kind == "seaweed":
            total += sum(4 ** (n - 1) for n in range(1, n_max + 1))
        else:
            start = 2 if kind == "parabolic-even" else 3
            total += sum(2 ** (n - 1) for n in range(start, n_max + 1, 2))
    return total


class Workload:
    name = ""
    items = 0  # per pass, fixed by the mathematics

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def run_pass(self, clock: Clock) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> list[str | None]:
        """One entry per operation: None when right, else what went wrong."""
        raise NotImplementedError


class Census(Workload):
    """``seaweeds table --method both``: brute census against generation."""

    name = "census"
    WINDOWS = (("seaweed", 8), ("parabolic-even", 14), ("parabolic-odd", 13))
    items = census_items(WINDOWS)

    def _out(self, kind: str) -> str:
        return str(self.workdir / f"census-{kind}.csv")

    def run_pass(self, clock):
        return [
            run_cli(clock, ["table", "--kind", kind, "--n-max", str(n), "--method", "both",
                     "--out", self._out(kind)])
            for kind, n in self.WINDOWS
        ]

    def check(self, ops):
        verdicts = []
        for (kind, n), op in zip(self.WINDOWS, ops):
            if isinstance(op.result, Exception):
                verdicts.append(f"table {kind}: raised {op.result!r}")
                continue
            code, out = op.result
            if code != 0 or out != "AGREE\n":
                verdicts.append(f"table {kind}: exit {code}, stdout {out!r}")
                continue
            data = Path(self._out(kind)).read_bytes()
            violations = CountTable(kind, "generated", _csv_entries(data.decode())).bound_violations()
            if sha256(data) != DIGESTS[("table", kind, n)]:
                verdicts.append(f"table {kind}: CSV differs from the recorded output")
            elif violations:
                verdicts.append(f"table {kind}: bound violations {violations}")
            else:
                verdicts.append(None)
        return verdicts


def _csv_entries(text: str) -> dict[tuple[int, int], int]:
    entries = {}
    for line in text.splitlines()[1:]:
        n, p, count = map(int, line.split(","))
        entries[(n, p)] = count
    return entries


class Generate(Workload):
    """Full monoid generation: two count tables and two JSONL streams."""

    name = "generate"
    TABLES = (("seaweed", 13), ("parabolic-odd", 27))
    STREAMS = (("seaweed", 11), ("parabolic-even", 22))
    items = sum(FROBENIUS_COUNTS[w] for w in TABLES + STREAMS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.reference = {w: counting.generated_table(*w).entries for w in self.STREAMS}

    def _out(self, kind: str) -> str:
        return str(self.workdir / f"generate-{kind}.jsonl")

    def run_pass(self, clock):
        ops = [clock.timed(counting.generated_table, kind, n) for kind, n in self.TABLES]
        ops += [
            run_cli(clock, ["generate", "--kind", kind, "--n-max", str(n), "--out", self._out(kind)])
            for kind, n in self.STREAMS
        ]
        return ops

    def check(self, ops):
        rng = random.Random(self.seed)
        verdicts = []
        for window, op in zip(self.TABLES, ops):
            if isinstance(op.result, Exception):
                verdicts.append(f"generated_table{window}: raised {op.result!r}")
            elif sha256(op.result.to_csv().encode()) != DIGESTS[("generated",) + window]:
                verdicts.append(f"generated_table{window}: CSV differs from the recorded output")
            else:
                verdicts.append(None)
        for window, op in zip(self.STREAMS, ops[len(self.TABLES):]):
            if isinstance(op.result, Exception):
                verdicts.append(f"generate {window}: raised {op.result!r}")
                continue
            if op.result != (0, ""):
                verdicts.append(f"generate {window}: exit/stdout {op.result!r}")
                continue
            data = Path(self._out(window[0])).read_bytes()
            if sha256(data) != DIGESTS[("generate",) + window]:
                verdicts.append(f"generate {window}: JSONL differs from the recorded output")
            else:
                verdicts.append(self._check_records(window, data, rng))
        return verdicts

    def _check_records(self, window, data: bytes, rng: random.Random) -> str | None:
        records = [json.loads(line) for line in data.splitlines()]
        tally: dict[tuple[int, int], int] = {}
        for r in records:
            tally[(r["n"], r["p"])] = tally.get((r["n"], r["p"]), 0) + 1
        if tally != self.reference[window]:
            return f"generate {window}: record tally differs from generated_table"
        for r in rng.sample(records, ROUND_TRIP_SAMPLE):
            if "epsilon" in r:
                got = str(evaluate_p(ParabolicWord.parse(r["word"]), parabolic_seed(r["epsilon"])))
                want = r["parts"]
            else:
                got = str(evaluate(SeaweedWord.parse(r["word"]), SEED))
                want = f"{r['plus']}|{r['minus']}"
            if got != want:
                return f"generate {window}: word {r['word']!r} evaluates to {got}, not {want}"
        return None


class Verify(Workload):
    """The nine published polynomials, on windows narrower than the defaults
    (40, 30) so that a call is short; every fit is still exact."""

    name = "verify"
    SEAWEED_N_MAX = 26
    PARABOLIC_N_MAX = 20
    items = VERIFY_ITEMS

    def run_pass(self, clock):
        return [clock.timed(counting.verify_published_polynomials,
                      self.SEAWEED_N_MAX, self.PARABOLIC_N_MAX)]

    def check(self, ops):
        expected = (EXPECTED_DIR / "verify_26_20.txt").read_text()
        report = ops[0].result
        if isinstance(report, Exception):
            return [f"verify: raised {report!r}"]
        if not report.all_match:
            return ["verify: not all cases match"]
        if report.render() != expected:
            return ["verify: report text differs from the recorded one"]
        return [None]


def answer(req: stream.Request):
    """Answer one request from its text, through the package's public calls."""
    top = compositions.Composition.parse(req.top)
    if req.bottom is None:
        if req.kind == stream.INDEX_PARABOLIC3:
            return meander.index_parabolic(top)
        return parabolic_words.factorize_p(top)
    pair = compositions.BiComposition(top, compositions.Composition.parse(req.bottom))
    if req.kind == stream.FROBENIUS_PAIR3:
        return meander.is_frobenius(pair)
    if req.kind == stream.FACTORIZE_PAIR:
        return seaweed_words.factorize(pair)
    return meander.index_seaweed(pair)


class Queries(Workload):
    """A seeded stream of single-instance index and factorization requests."""

    name = "queries"
    items = stream.N_REQUESTS

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.requests = stream.build_requests(seed)

    def run_pass(self, clock):
        return [clock.timed(answer, req) for req in self.requests]

    def check(self, ops):
        return [_check_answer(req, op.result) for req, op in zip(self.requests, ops)]


def _parts(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _check_answer(req: stream.Request, got) -> str | None:
    if isinstance(got, Exception):
        return f"{req}: raised {got!r}"
    if req.kind == stream.FACTORIZE_PAIR:
        got = None if got is None else str(got)
    elif req.kind == stream.FACTORIZE_PARABOLIC:
        got = None if got is None else (got[0], str(got[1]))
    if got != req.expected or type(got) is not type(req.expected):
        return f"{req}: answered {got!r}"
    if req.bottom is not None and req.kind in stream.INDEX_KINDS:
        top, bottom = _parts(req.top), _parts(req.bottom)
        frobenius = stream.closed_form_index(top, bottom) == 0
        pair = BiComposition(Composition(top), Composition(bottom))
        if frobenius != (factorize(pair) is not None):
            return f"{req}: factorize disagrees with index 0"
    return None


WORKLOADS = {w.name: w for w in (Census, Generate, Verify, Queries)}
