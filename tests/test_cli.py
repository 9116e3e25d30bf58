import hashlib
import json
import os
import subprocess
import sys

import pytest

from seaweeds import cli
from seaweeds.cli import main
from seaweeds.counting import KINDS
from seaweeds.seaweed_words import CollisionError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_records_stream_before_generation_ends(self, capsys, monkeypatch, tmp_path):
        real = cli.generate_frobenius

        def failing(n_max):
            yield from real(1)
            raise CollisionError("injected")

        monkeypatch.setattr(cli, "generate_frobenius", failing)
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

    def test_no_global_seed_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "1", "index", "2", "2"])
        assert exc.value.code == 2


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
