import collections
import errno
import hashlib
import itertools
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest

from seaweeds import cli, counting
from seaweeds.cli import main
from seaweeds.counting import (
    KINDS, CountTable, generate_deficiency, generate_deficiency_p, generate_frobenius,
    generate_frobenius_p, generated_table,
)
from seaweeds.seaweed_words import CollisionError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def generator_records(kind, n_max, t):
    """The ``generate`` records built from the public generators' objects."""
    eps = {"seaweed": None, "parabolic-even": 0, "parabolic-odd": 1}[kind]
    if eps is None and t is None:
        for w, b in generate_frobenius(n_max):
            yield {"word": str(w), "plus": str(b.plus), "minus": str(b.minus),
                   "n": b.total, "p": b.num_parts}
    elif eps is None:
        for n, p, b in generate_deficiency(t, n_max):
            yield {"plus": str(b.plus), "minus": str(b.minus), "n": n, "p": p}
    elif t is None:
        for w, c in generate_frobenius_p(eps, n_max):
            yield {"epsilon": eps, "word": str(w), "parts": str(c),
                   "n": c.total, "p": c.num_parts}
    else:
        for n, p, c in generate_deficiency_p(eps, t, n_max):
            yield {"epsilon": eps, "parts": str(c), "n": n, "p": p}


class TestIndex:
    def test_pair(self, capsys):
        assert run(capsys, "index", "2,3,2", "4,3") == (0, "0\n", "")

    def test_full_algebra(self, capsys):
        assert run(capsys, "index", "3", "3") == (0, "2\n", "")

    def test_parabolic(self, capsys):
        assert run(capsys, "index", "2,2") == (0, "1\n", "")

    def test_sum_mismatch_exits_2(self, capsys):
        code, out, err = run(capsys, "index", "1,2", "4")
        assert code == 2 and out == "" and err.count("\n") == 1

    def test_parse_failure_exits_2(self, capsys):
        code, _, err = run(capsys, "index", "2,x")
        assert code == 2 and "2,x" in err
        code, _, err = run(capsys, "index", "0,3")
        assert code == 2

    @pytest.mark.parametrize("argv, text", [
        (("index", "1_0"), "1_0"),
        (("frobenius", "1_0", "5,5"), "1_0"),
        (("index", "+3"), "+3"),
        (("index", "\u0663"), "\u0663"),
        (("index", "3, 4"), "3, 4"),
        (("index", "2,3", "+5"), "+5"),
    ])
    def test_only_ascii_digits_parse(self, capsys, argv, text):
        # int alone takes each of these; 1_0 would read as the composition (10)
        assert run(capsys, *argv) == (2, "", f"error: not a composition: {text!r}\n")


class TestHugeSums:
    """A sum above sys.maxsize is rejected before anything is allocated."""

    HUGE = 10**20 - 1  # above 2**63

    @pytest.mark.parametrize("command", ["index", "frobenius", "meander"])
    @pytest.mark.parametrize("pair, total", [
        ((str(HUGE),), HUGE),
        ((f"1,{HUGE}", str(HUGE + 1)), HUGE + 1),
        ((str(2**63),), 2**63),
    ])
    def test_exits_2_with_one_error_line(self, capsys, command, pair, total):
        assert run(capsys, command, *pair) == (
            2, "", f"error: sum {total} exceeds the largest supported sum {sys.maxsize}\n"
        )


class TestFrobenius:
    def test_yes(self, capsys):
        assert run(capsys, "frobenius", "1,2", "3") == (0, "frobenius\n", "")

    def test_no(self, capsys):
        assert run(capsys, "frobenius", "2", "2") == (1, "not-frobenius\n", "")

    def test_parabolic_seed(self, capsys):
        assert run(capsys, "frobenius", "1,1") == (0, "frobenius\n", "")


class TestFactorizeEvaluate:
    def test_seaweed_word(self, capsys):
        assert run(capsys, "factorize", "1,2", "3") == (0, "T-0 S+0\n", "")

    def test_not_frobenius(self, capsys):
        assert run(capsys, "factorize", "1,1", "1,1") == (1, "not-frobenius\n", "")

    def test_parabolic(self, capsys):
        assert run(capsys, "factorize", "1,2") == (0, "epsilon=1 S~0\n", "")

    def test_parabolic_seed_empty_word(self, capsys):
        assert run(capsys, "factorize", "1,1") == (0, "epsilon=0\n", "")

    def test_sum_one_rejected(self, capsys):
        code, _, err = run(capsys, "factorize", "1")
        assert code == 2 and err

    def test_round_trip_bytes(self, capsys):
        code, word, _ = run(capsys, "factorize", "2,3,2", "4,3")
        assert code == 0
        code, out, _ = run(capsys, "evaluate", word.strip())
        assert (code, out) == (0, "2,3,2|4,3\n")

        code, line, _ = run(capsys, "factorize", "1,4,4")
        assert code == 0
        eps_token, _, word = line.strip().partition(" ")
        code, out, _ = run(capsys, "evaluate", "--epsilon", eps_token[-1], word)
        assert (code, out) == (0, "1,4,4\n")

    def test_evaluate_empty_word(self, capsys):
        assert run(capsys, "evaluate", "") == (0, "1|1\n", "")
        assert run(capsys, "evaluate", "--epsilon", "0", "") == (0, "1,1\n", "")

    def test_evaluate_null(self, capsys):
        assert run(capsys, "evaluate", "T+0") == (0, "o\n", "")

    def test_evaluate_bad_token(self, capsys):
        code, _, err = run(capsys, "evaluate", "S?3")
        assert code == 2 and err

    def test_evaluate_rejects_pair_token_in_composition_alphabet(self, capsys):
        assert run(capsys, "evaluate", "--epsilon", "0", "S+0") == (
            2, "", "error: bad letter token 'S+0'\n"
        )

    @pytest.mark.parametrize("argv, token", [
        (("S+007",), "S+007"),
        (("S+0 T-00",), "T-00"),
        (("--epsilon", "1", "S~01"), "S~01"),
        (("--epsilon", "0", "S0 T010"), "T010"),
    ])
    def test_evaluate_rejects_leading_zeros(self, capsys, argv, token):
        assert run(capsys, "evaluate", *argv) == (
            2, "", f"error: bad letter token {token!r}\n"
        )

    def test_evaluate_accepts_zero_and_multidigit_indices(self, capsys):
        assert run(capsys, "evaluate", "S+10 S-0") == (0, "12,1|11,2\n", "")
        assert run(capsys, "evaluate", "--epsilon", "1", "S~10 S0") == (0, "22,1,24\n", "")


class TestMeander:
    def test_dot(self, capsys):
        code, out, _ = run(capsys, "meander", "2,3,2", "4,3", "--format", "dot")
        assert code == 0
        assert out.count("--") == 6
        assert sum(1 for line in out.splitlines() if line.strip().rstrip(";").isdigit()) == 7

    def test_ascii_columns(self, capsys):
        code, out, _ = run(capsys, "meander", "2,3,2", "4,3")
        assert code == 0
        vertex_row = next(l for l in out.splitlines() if l.startswith("1 "))
        assert len(vertex_row.split()) == 7

    def test_parabolic_form(self, capsys):
        code, out, _ = run(capsys, "meander", "2,2", "--format", "dot")
        assert code == 0 and out.count("--") == 4

    def test_ascii_above_the_size_limit_exits_2_at_once(self, capsys):
        # (100000 | 100000) would draw 100,001 lines of 2 * 10**5 bytes each
        start = time.perf_counter()
        assert run(capsys, "meander", "100000") == (2, "", (
            "error: the ascii drawing of 100000 vertices would take up to 20000200000 "
            "bytes, more than 67108864; use --format dot\n"))
        assert time.perf_counter() - start < 10

    def test_out_file_atomic(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run(capsys, "meander", "2", "2", "--format", "dot", "--out", str(target))
        assert code == 0 and out == ""
        assert 'label="top"' in target.read_text()
        leftovers = [p for p in os.listdir(tmp_path) if p != "graph.dot"]
        assert leftovers == []


class TestGenerate:
    def test_seaweed_jsonl(self, capsys):
        code, out, _ = run(capsys, "generate", "--kind", "seaweed", "--n-max", "3")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 9  # 1 + 2 + 6
        assert {r["n"] for r in records} == {1, 2, 3}
        first = next(r for r in records if r["word"] == "")
        assert first == {"word": "", "plus": "1", "minus": "1", "n": 1, "p": 2}

    def test_parabolic_jsonl(self, capsys):
        code, out, _ = run(capsys, "generate", "--kind", "parabolic-odd", "--n-max", "3")
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert {r["parts"] for r in records} == {"1,2", "2,1"}
        assert all(r["epsilon"] == 1 and r["p"] == 2 and r["n"] == 3 for r in records)

    def test_deficiency_mode(self, capsys):
        code, out, _ = run(capsys, "generate", "--kind", "seaweed", "--n-max", "6", "--t", "0")
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert all("word" not in r for r in records)
        assert sum(1 for r in records if r["n"] == 6) == 2

    def test_epsilon_kind_conflict(self, capsys):
        code, _, err = run(
            capsys, "generate", "--kind", "parabolic-odd", "--n-max", "4",
            "--epsilon", "0",
        )
        assert code == 2 and "epsilon" in err
        code, _, err = run(
            capsys, "generate", "--kind", "seaweed", "--n-max", "4", "--epsilon", "1",
        )
        assert code == 2

    # sha256 of the deficiency-mode JSONL, recorded before generation moved
    # to the explicit-stack engine with its capped child budgets
    @pytest.mark.parametrize("argv, lines, digest", [
        (("--kind", "seaweed", "--n-max", "14", "--t", "3"), 1525,
         "c2b6928a18539933ddbc7532cfba61e20d060da0a82d63c3c8fde06871c75d6b"),
        (("--kind", "parabolic-odd", "--n-max", "31", "--t", "2"), 486,
         "af808f04ae190bf3906692262b6b9007d93ead478843906925676a762f60db10"),
    ])
    def test_deficiency_stream_bytes_pinned(self, capsys, argv, lines, digest):
        code, out, _ = run(capsys, "generate", *argv)
        assert code == 0 and out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of the word-carrying JSONL, recorded before the records were
    # formatted straight from the search's raw nodes
    @pytest.mark.parametrize("argv, lines, digest", [
        (("--kind", "seaweed", "--n-max", "11"), 4479,
         "4f112a861100ff469f3130235f5689cd5dd10b0e0f9ea49df6668a3d5315ffc1"),
        (("--kind", "parabolic-even", "--n-max", "22"), 11995,
         "becb5be9e527c7d25220c216e9d54efae58ad062e9e8dae9304f440506378099"),
        (("--kind", "parabolic-odd", "--n-max", "21"), 3216,
         "e73bc97d5bba03ec38e457853b28238ae153678599240ce5780554c96b512f66"),
    ])
    def test_word_stream_bytes_pinned(self, capsys, argv, lines, digest):
        code, out, _ = run(capsys, "generate", *argv)
        assert code == 0 and out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("t", [None, 0, 2])
    @pytest.mark.parametrize("kind, n_max", [
        ("seaweed", 9), ("parabolic-even", 18), ("parabolic-odd", 19),
    ])
    def test_records_match_the_public_generators(self, capsys, kind, n_max, t):
        argv = ["generate", "--kind", kind, "--n-max", str(n_max)]
        code, out, _ = run(capsys, *argv, *(() if t is None else ("--t", str(t))))
        assert code == 0
        got = [list(json.loads(line).items()) for line in out.splitlines()]
        assert got == [list(r.items()) for r in generator_records(kind, n_max, t)]

    def test_records_stream_before_generation_ends(self, capsys, monkeypatch, tmp_path):
        import seaweeds.seaweed_words as sw

        def duplicate(plus, minus, budget):
            yield sw.letter("S", 1, 0), ((2,), (1, 1)), 1
            yield sw.letter("S", -1, 0), ((2,), (1, 1)), 1

        monkeypatch.setattr(sw, "_child_moves", duplicate)
        with pytest.raises(CollisionError):
            main(["generate", "--kind", "seaweed", "--n-max", "3"])
        # the seed's record, then its first child's: that child opens its own
        # listing, which meets the repeat before the seed lists its second
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["word"] == ""
        assert len(lines) == 2
        target = tmp_path / "g.jsonl"
        with pytest.raises(CollisionError):
            main(["generate", "--kind", "seaweed", "--n-max", "3", "--out", str(target)])
        assert os.listdir(tmp_path) == []


def row(eps):
    """The kind row of parity ``eps``, None for pairs."""
    return next(kind for kind in counting._KIND_TABLE if kind.epsilon == eps)


class TestStreamWindow:
    """Rendering keeps nothing sized by the window: at --t 0 and a window of
    10**12 the first records come at once, and rendering them takes little
    memory beyond what the walk holds (its seen-set keeps one flat key per
    state, and each node reaches the renderer as its depth and letter)."""

    @staticmethod
    def traced_peak(items) -> int:
        tracemalloc.start()
        try:
            collections.deque(itertools.islice(items, 1000), maxlen=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("eps", [None, 0, 1])
    def test_rendering_memory_does_not_depend_on_the_window(self, eps):
        start = time.perf_counter()
        rendered = self.traced_peak(cli._generate_lines(row(eps), 10**12, 0))
        assert time.perf_counter() - start < 10
        walked = self.traced_peak(row(eps).nodes(10**12, 0))
        assert rendered - walked < 2**20, (rendered, walked)

    @pytest.mark.parametrize("eps, bound", [(None, 11.2), (0, 3.6), (1, 3.6)])
    def test_open_listings_hold_one_tail_each(self, eps, bound):
        """A listing suspended on the path slices each family's tail just
        before that family's loop, so it holds one tail, not all of them:
        the peak here is about 10.2 MiB for pairs and 3.1 MiB for
        compositions, against 12.1 and 4.1 MiB with every tail sliced up
        front (Python 3.11)."""
        peak = self.traced_peak(row(eps).nodes(10**12, 0))
        assert peak < bound * 2**20, peak

    @pytest.mark.parametrize("eps", [None, 0, 1])
    def test_unpruned_stream_starts_at_once(self, eps):
        """The walk opens one listing per node on its path and yields each
        child as it is listed, so an unpruned window of 10**5 gives its
        first records without listing the seed's 2 * 10**5 children."""
        start = time.perf_counter()
        peak = self.traced_peak(cli._generate_lines(row(eps), 10**5, None))
        assert time.perf_counter() - start < 1
        assert peak < 2 * 2**20, peak


class TestTable:
    def test_both_agree(self, capsys):
        code, out, _ = run(
            capsys, "table", "--kind", "seaweed", "--n-max", "6", "--method", "both"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,p,count"
        assert lines[-1] == "AGREE"

    def test_brute_csv(self, capsys):
        code, out, _ = run(
            capsys, "table", "--kind", "parabolic-even", "--n-max", "6", "--method", "brute"
        )
        assert code == 0
        assert out.splitlines()[:4] == ["n,p,count", "2,2,1", "4,2,2", "4,3,2"]

    def test_deficiency_needs_t(self, capsys):
        code, _, err = run(
            capsys, "table", "--kind", "seaweed", "--n-max", "6", "--method", "deficiency"
        )
        assert code == 2 and "--t" in err

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_max", range(1, 7))
    def test_both_agree_from_the_smallest_window(self, capsys, kind, n_max):
        code, out, _ = run(
            capsys, "table", "--kind", kind, "--n-max", str(n_max), "--method", "both"
        )
        assert (code, out.splitlines()[-1]) == (0, "AGREE")

    def test_budget_guard(self, capsys):
        code, _, err = run(
            capsys, "table", "--kind", "seaweed", "--n-max", "19", "--method", "brute"
        )
        assert code == 2 and "budget" in err

    def test_both_writes_the_generated_csv_and_agrees(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        assert run(capsys, "table", "--kind", "parabolic-odd", "--n-max", "9",
                   "--method", "both", "--out", str(target)) == (0, "AGREE\n", "")
        assert target.read_text() == generated_table("parabolic-odd", 9).to_csv()

    def test_both_reports_a_mismatch_with_exit_1(self, capsys, monkeypatch, tmp_path):
        table = generated_table("seaweed", 6)
        key = max(table.entries)  # one count changed
        entries = {**table.entries, key: table.entries[key] + 1}
        planted = CountTable(table.kind, table.method, entries)
        monkeypatch.setattr(cli, "generated_table", lambda kind, n_max: planted)
        target = tmp_path / "t.csv"
        assert run(capsys, "table", "--kind", "seaweed", "--n-max", "6",
                   "--method", "both", "--out", str(target)) == (1, "MISMATCH\n", "")
        assert target.read_text() == planted.to_csv()

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, out, _ = run(
            capsys, "table", "--kind", "seaweed", "--n-max", "4", "--out", str(target)
        )
        assert code == 0
        assert target.read_text().startswith("n,p,count\n")

    @pytest.mark.parametrize("parent, code", [("missing", errno.ENOENT),
                                              ("file", errno.ENOTDIR)], ids=["missing", "file"])
    def test_out_in_no_directory_names_the_given_path(self, capsys, tmp_path, parent, code):
        """The temp file cannot be made beside ``--out``: the error names the
        path given, not the temp file's random name."""
        (tmp_path / "file").touch()
        target = str(tmp_path / parent / "t.csv")
        assert run(capsys, "table", "--kind", "seaweed", "--n-max", "3", "--out", target) == (
            2, "", f"error: [Errno {code}] {os.strerror(code)}: {target!r}\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["file"]


class TestFit:
    def test_seaweed_constant(self, capsys):
        code, out, _ = run(capsys, "fit", "--kind", "seaweed", "--t", "0", "--n-max", "12")
        assert code == 0
        data = json.loads(out)
        assert data["coefficients"] == ["2"]
        assert data["degree"] == 0
        assert "epsilon" not in data

    def test_parabolic_epsilon_recorded(self, capsys):
        code, out, _ = run(
            capsys, "fit", "--kind", "parabolic-odd", "--t", "1", "--n-max", "12"
        )
        data = json.loads(out)
        assert code == 0
        assert data["coefficients"] == ["6"] and data["epsilon"] == 1

    def test_unstable_exits_1(self, capsys):
        code, out, err = run(capsys, "fit", "--kind", "seaweed", "--t", "4", "--n-max", "9")
        assert code == 1 and out == "" and "unstable" in err

    @pytest.mark.parametrize("t", [100000, 10**9])
    def test_huge_t_on_a_tiny_window_exits_1_at_once(self, capsys, t):
        # the count allocates nothing of size t and lists children within the
        # room left; the window check comes before any differencing pass
        assert run(capsys, "fit", "--kind", "seaweed", "--t", str(t), "--n-max", "3") == (
            1, "", f"unstable: window of 3 values is too short to certify a degree-{t // 2} "
                   f"tail (need {3 * (t // 2) + 3} values)\n"
        )

    @pytest.mark.parametrize("kind, n_max", [("seaweed", 40), ("parabolic-even", 30)])
    def test_too_short_window_answers_before_counting(self, capsys, monkeypatch, kind, n_max):
        # the verdict depends only on t and the window's length; counting
        # these windows at t = 40 takes minutes
        def refuse(*args):
            raise AssertionError("a too-short window needs no count")
        monkeypatch.setattr(counting, "diagonal_counts", refuse)
        assert run(capsys, "fit", "--kind", kind, "--t", "40", "--n-max", str(n_max)) == (
            1, "", f"unstable: window of {n_max} values is too short to certify a "
                   "degree-20 tail (need 63 values)\n"
        )


class TestVerify:
    def test_small_windows_all_match(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--seaweed-n-max", "25", "--parabolic-n-max", "12"
        )
        assert code == 0
        assert out.count("match") >= 9
        assert "all cases match" in out

    def test_short_windows_report_the_failed_fits(self, capsys):
        # every published case but P_{e,0}'s odd half fails to fit windows
        # of 6 values, by an unsettled tail or by a window too short to certify
        code, out, err = run(
            capsys, "verify", "--seaweed-n-max", "6", "--parabolic-n-max", "6"
        )
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[-1] == "SOME CASES FAILED"
        assert ("  seaweed t=0: no stable fit (order-1 differences still nonzero "
                "on the last 5 entries)") in lines
        assert ("  seaweed t=2: no stable fit (window of 6 values is too short to "
                "certify a degree-1 tail (need 7 values))") in lines


class TestUsage:
    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("generate", "--kind", "seaweed"),
        ("table", "--kind", "parabolic-even"),
        ("fit", "--kind", "seaweed", "--t", "1"),
    ])
    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_n_max_below_one_exits_2(self, capsys, argv, n_max):
        code, out, err = run(capsys, *argv, "--n-max", n_max)
        assert (code, out) == (2, "")
        assert err == f"error: --n-max must be >= 1, got {n_max}\n"

    @pytest.mark.parametrize("flag", ["--seaweed-n-max", "--parabolic-n-max"])
    @pytest.mark.parametrize("n_max", ["0", "-2"])
    def test_verify_window_below_one_exits_2(self, capsys, flag, n_max):
        code, out, err = run(capsys, "verify", flag, n_max)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be >= 1, got {n_max}\n"

    def test_fit_negative_t_exits_2(self, capsys):
        assert run(capsys, "fit", "--kind", "seaweed", "--t", "-1") == (
            2, "", "error: deficiency bound must be >= 0, got -1\n"
        )

    def test_no_global_seed_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "1", "index", "2", "2"])
        assert exc.value.code == 2


# sha256 of stdout, exit code and exact stderr for every kind, recorded
# before the kind-specific branches were merged into one kind descriptor
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


@pytest.mark.parametrize("argv, code, digest, err", [
    ("table --kind seaweed --n-max 7 --method brute", 0,
     "dd487650ddcc8b1af5917687ac7bc3c73444039923d2c6e56693a0054ba0a9f8", ""),
    ("table --kind seaweed --n-max 14 --method deficiency --t 2", 0,
     "6a3519908d0d3fdd26315c1e79cb355d9b5156461d4e602d181aaf917833e014", ""),
    ("fit --kind seaweed --t 1", 0,
     "14d1b222991f5f459a8a9fc0a887fcc7b36b1e4eed21c53d499a8701fb6b6ebc", ""),
    ("table --kind parabolic-even --n-max 14 --method brute", 0,
     "12437af5b6e0a1d8152a204b8a2d7ae9fb90506c403dda2067b71f5ccdbd4627", ""),
    ("table --kind parabolic-even --n-max 30 --method deficiency --t 2", 0,
     "2a64cb25b489e7b860744be961228e428d63141f8946a7ae3293abe4b3b11df8", ""),
    ("fit --kind parabolic-even --t 1", 0,
     "d21de77bd52a0f8d9ba37351fe0d7c47b9dbba1ae672615e0d7413c23ffab17c", ""),
    ("table --kind parabolic-odd --n-max 15 --method brute", 0,
     "cfeb81254b362923bedeb8136bd356f4c32bb32f2fdef3a2af9b5bda1620b3ce", ""),
    ("table --kind parabolic-odd --n-max 31 --method deficiency --t 2", 0,
     "e8064cdcbee2d51709f43d135c3b31e22a5ab22e453776b691edba49a6414680", ""),
    ("fit --kind parabolic-odd --t 1", 0,
     "daea269b7829d7640e1e0286a3306c7759c04359ebc04e04838487b2e5b4f40e", ""),
    ("generate --kind parabolic-even --n-max 20 --t 1", 0,
     "67698019ddff0ffc8cc7b4046e034a1c5a4f051bf7db017920474c2ea32b4fcd", ""),
    # recorded before the fit's Newton form was expanded in integers: the
    # report on its default windows, and a fit whose coefficients include
    # "8137/6", "-3529/12" and "1/12"
    ("verify", 0,
     "4b53ace94605ac0a4fa9b8cf518439cf4fabf28ef921a2a1915df34cbfcb72e8", ""),
    ("fit --kind seaweed --t 8 --n-max 78", 0,
     "a1fea0aa00a7c71d66f2e0acb7edd557bfb72689c7f10bb7715a874004c81e94", ""),
    ("generate --kind seaweed --n-max 4 --epsilon 1", 2, EMPTY,
     "error: --epsilon does not apply to kind 'seaweed'\n"),
    ("generate --kind parabolic-odd --n-max 4 --epsilon 0", 2, EMPTY,
     "error: --epsilon 0 contradicts kind 'parabolic-odd'\n"),
    ("table --kind seaweed --n-max 6 --method deficiency", 2, EMPTY,
     "error: --method deficiency needs --t\n"),
    *[(f"table --kind seaweed --method {method} --t 3 --n-max 4", 2, EMPTY,
       "error: --t applies only to --method deficiency\n")
      for method in ("generated", "brute", "both")],
])
def test_per_kind_output_pinned(capsys, argv, code, digest, err):
    got_code, out, got_err = run(capsys, *argv.split())
    assert (got_code, got_err) == (code, err)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# exact stdout of the single-composition forms, which complete the input
# to the pair (a | (n)); recorded before the CLI read one pair for all three
@pytest.mark.parametrize("argv, code, out", [
    ("index 2,2", 0, "1\n"),
    ("index 1,4,4", 0, "0\n"),
    ("index 5", 0, "4\n"),
    ("frobenius 1,1", 0, "frobenius\n"),
    ("frobenius 3", 1, "not-frobenius\n"),
    ("meander 2,2 --format ascii", 0, "/-\\ /-\\\n1 2 3 4\n  \\-/\n\\-----/\n"),
    ("meander 1,2 --format ascii", 0, "  /-\\\n1 2 3\n\\---/\n"),
    ("meander 2,2 --format dot", 0,
     'graph meander {\n  1;\n  2;\n  3;\n  4;\n  1 -- 2 [label="top"];\n'
     '  3 -- 4 [label="top"];\n  1 -- 4 [label="bottom"];\n  2 -- 3 [label="bottom"];\n}\n'),
    ("meander 1,2 --format dot", 0,
     'graph meander {\n  1;\n  2;\n  3;\n  2 -- 3 [label="top"];\n'
     '  1 -- 3 [label="bottom"];\n}\n'),
])
def test_single_composition_output_pinned(capsys, argv, code, out):
    assert run(capsys, *argv.split()) == (code, out, "")


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_cli_examples():
    """(argv, expected stdout) of every README line ``seaweeds ...  # -> X``, or
    ``# "X", exit 0``: the documented results of the CLI block."""
    examples = []
    with open(README) as handle:
        for line in handle:
            command, _, comment = line.partition("#")
            comment = comment.strip()
            if not command.startswith("seaweeds ") or not comment.startswith(("-> ", '"')):
                continue
            result = comment.removeprefix("-> ")
            expected = result.split('"')[1] if result.startswith('"') else result.split()[0]
            examples.append((shlex.split(command)[1:], expected + "\n"))
    return examples


class TestReadmeExamples:
    def test_seven_documented_results(self):
        assert len(readme_cli_examples()) == 7

    @pytest.mark.parametrize("argv, out", readme_cli_examples())
    def test_documented_result(self, capsys, argv, out):
        assert run(capsys, *argv) == (0, out, "")


class TestDeepWords:
    """Word length grows with n; generation must not hit the recursion limit."""

    def cli_in_fresh_interpreter(self, *argv):
        code = "import sys; from seaweeds.cli import main; sys.exit(main(sys.argv[1:]))"
        return subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )

    def test_fit_t0_to_1200(self):
        done = self.cli_in_fresh_interpreter(
            "fit", "--kind", "seaweed", "--t", "0", "--n-max", "1200"
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["coefficients"] == ["2"]

    def test_generate_t0_to_1500(self):
        done = self.cli_in_fresh_interpreter(
            "generate", "--kind", "seaweed", "--t", "0", "--n-max", "1500"
        )
        assert (done.returncode, done.stderr) == (0, "")
        records = done.stdout.splitlines()
        assert len(records) == 2999
        assert json.loads(records[-1])["n"] == 1500


class TestClosedPipe:
    """A reader that stops early (``| head``) ends the run with exit 141,
    128 + SIGPIPE, and nothing on stderr: it is not bad usage."""

    @pytest.mark.parametrize("argv, lines", [
        (("--kind", "seaweed", "--n-max", "14"), 1),
        (("--kind", "seaweed", "--t", "0", "--n-max", str(10**12)), 3),
    ])
    def test_exit_141_and_silent(self, argv, lines):
        code = "import sys; from seaweeds.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "generate", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            records = [json.loads(proc.stdout.readline()) for _ in range(lines)]
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == ""
        finally:
            proc.kill()
            proc.stderr.close()
        assert records[0]["n"] == 1
