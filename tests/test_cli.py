import hashlib
import json
import os
import subprocess
import sys

import pytest

from seaweeds.cli import main
from seaweeds.counting import KINDS
from seaweeds.parabolic_words import generate_deficiency_p, generate_frobenius_p
from seaweeds.seaweed_words import CollisionError, generate_deficiency, generate_frobenius


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
            yield sw.letter("S", 1, 0), (2,), (1, 1), 1
            yield sw.letter("S", -1, 0), (2,), (1, 1), 1

        monkeypatch.setattr(sw, "_child_moves", duplicate)
        with pytest.raises(CollisionError):
            main(["generate", "--kind", "seaweed", "--n-max", "3"])
        assert json.loads(capsys.readouterr().out)["word"] == ""
        target = tmp_path / "g.jsonl"
        with pytest.raises(CollisionError):
            main(["generate", "--kind", "seaweed", "--n-max", "3", "--out", str(target)])
        assert os.listdir(tmp_path) == []


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
            capsys, "table", "--kind", "seaweed", "--n-max", "15", "--method", "brute"
        )
        assert code == 2 and "budget" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, out, _ = run(
            capsys, "table", "--kind", "seaweed", "--n-max", "4", "--out", str(target)
        )
        assert code == 0
        assert target.read_text().startswith("n,p,count\n")


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


class TestVerify:
    def test_small_windows_all_match(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--seaweed-n-max", "25", "--parabolic-n-max", "12"
        )
        assert code == 0
        assert out.count("match") >= 9
        assert "all cases match" in out


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
    ("generate --kind seaweed --n-max 4 --epsilon 1", 2, EMPTY,
     "error: --epsilon does not apply to kind 'seaweed'\n"),
    ("generate --kind parabolic-odd --n-max 4 --epsilon 0", 2, EMPTY,
     "error: --epsilon 0 contradicts kind 'parabolic-odd'\n"),
    ("table --kind seaweed --n-max 6 --method deficiency", 2, EMPTY,
     "error: --method deficiency needs --t\n"),
])
def test_per_kind_output_pinned(capsys, argv, code, digest, err):
    got_code, out, got_err = run(capsys, *argv.split())
    assert (got_code, got_err) == (code, err)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
