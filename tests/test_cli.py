"""End-to-end tests for the cumsub command line.

Conventions under test: exit code 0 on success, 2 for usage errors
(including argparse's own SystemExit), 3 for internal theorem
violations, 4 for I/O failures; --json everywhere; byte-identical output
for identical invocations.  The interactive mode is driven by feeding
canned answers through builtins.input.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys

import pytest

from cumsub import Ruleset, build_grid, multipile
from cumsub.cli import main, parse_ruleset


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed_input(monkeypatch, answers):
    answer_iter = iter(answers)
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answer_iter))


class TestParseRuleset:
    def test_parses(self):
        assert parse_ruleset("5,7") == Ruleset((5, 7))

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_ruleset("five,seven")


class TestTable:
    def test_text_layout(self, capsys):
        code, out, _ = run(capsys, ["table", "-S", "5,7", "-x", "12"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["x", "opt", "o"]
        assert lines[1].split() == ["0", "-", "0"]
        assert lines[-1].split() == ["12", "7", "2"]

    def test_single_terminal_row(self, capsys):
        code, out, _ = run(capsys, ["table", "-S", "5,7", "-x", "0"])
        assert code == 0
        assert len(out.splitlines()) == 2
        assert out.splitlines()[1].split() == ["0", "-", "0"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["table", "-S", "5,7", "-x", "7", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,opt,o"
        assert lines[1] == "0,,0"
        assert lines[-1] == "7,7,7"

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, ["table", "-S", "2,3", "-x", "7", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ruleset"] == [2, 3]
        assert payload["rows"][7] == {"x": 7, "opt": 2, "o": 1}
        assert payload["rows"][0] == {"x": 0, "opt": None, "o": 0}

    def test_format_json_without_flag(self, capsys):
        code, out, _ = run(capsys, ["table", "-S", "2,3", "-x", "3", "--format", "json"])
        assert code == 0
        assert json.loads(out)["x_max"] == 3

    @pytest.mark.parametrize("ruleset", ["bad", "3", "3,2", "3,3", "0,2"])
    def test_malformed_ruleset_is_usage_error(self, capsys, ruleset):
        code, _, err = run(capsys, ["table", "-S", ruleset, "-x", "5"])
        assert code == 2
        assert "error" in err

    def test_negative_action_is_usage_error(self, capsys):
        # The = form keeps argparse from reading the leading dash as a flag.
        code, _, _ = run(capsys, ["table", "--ruleset=-1,2", "-x", "5"])
        assert code == 2

    def test_negative_x_max_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["table", "-S", "5,7", "-x", "-1"])
        assert code == 2
        assert "x_max must be nonnegative" in err

    def test_table_too_large_is_usage_error(self, capsys):
        # 2*10^7 heaps: refused before anything is allocated.
        code, out, err = run(capsys, ["table", "-S", "5,7", "-x", "20000000"])
        assert code == 2
        assert out == ""
        assert "above the supported" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, ["table", "-S", "5,7", "-x", "55", "--json"])
        _, second, _ = run(capsys, ["table", "-S", "5,7", "-x", "55", "--json"])
        assert first == second


class TestConverge:
    def test_json_5_7(self, capsys):
        code, out, _ = run(capsys, ["converge", "-S", "5,7", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["xi"] == 31
        assert payload["converged_action"] == 7
        assert payload["bound_satisfied"] is True
        assert payload["period"]["period"] == 14
        assert payload["period"]["tail_start"] == 31

    def test_json_full_support(self, capsys):
        code, out, _ = run(capsys, ["converge", "-S", "1,2,3", "--json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["xi"] == 3
        assert payload["period"]["period"] == 6

    def test_json_neighbor_pair(self, capsys):
        _, out, _ = run(capsys, ["converge", "-S", "4,5", "--json"])
        assert json.loads(out)["xi"] == 32

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, ["converge", "-S", "5,7"])
        assert code == 0
        assert "xi = 31" in out
        assert "period = 14" in out

    def test_large_max_action_converges(self, capsys):
        # default_x_max is about 2*10^10 heaps here, far above the table
        # cap; the certified path tabulates a few multiples of max S.
        code, out, _ = run(capsys, ["converge", "-S", "1,100000", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["xi"] == 100000
        assert payload["period"]["period"] == 200000

    def test_json_1_2000(self, capsys):
        code, out, _ = run(capsys, ["converge", "-S", "1,2000", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["xi"] == 2000
        assert payload["period"] == {"period": 4000, "tail_start": 2000}
        assert "verified_up_to" not in payload

    def test_extremal_pair(self, capsys):
        # {s-1, s} has the largest xi for its max S, 2*(s-1)^2; the closed
        # form answers it from the 3*max S outcomes from xi - max S.
        code, out, _ = run(capsys, ["converge", "-S", "199,200", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["xi"] == 79202
        assert payload["period"] == {"period": 400, "tail_start": 79202}
        assert "verified_up_to" not in payload


class TestTwoAction:
    def test_json_5_7(self, capsys):
        code, out, _ = run(capsys, ["twoaction", "5", "7", "--json"])
        assert code == 0
        assert json.loads(out) == {
            "s2": 5,
            "s1": 7,
            "alpha": 2,
            "i_max": 3,
            "xi": 31,
            "x_star": [[5, 6], [17, 18], [29, 30]],
        }

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, ["twoaction", "5", "7"])
        assert code == 0
        assert "X*(2) = {17,18}  outcome 3" in out
        assert "xi = 31" in out

    def test_bad_order_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["twoaction", "7", "5"])
        assert code == 2

    def test_too_large_is_usage_error(self, capsys):
        # The X* blocks of s1 = 2*10^7 would hold 2*10^7 - 1 heaps: refused
        # before anything is allocated.
        code, out, err = run(capsys, ["twoaction", "1", "20000000"])
        assert code == 2
        assert out == ""
        assert "above the supported" in err


class TestTrunc:
    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, ["trunc", "2", "6", "--json"])
        assert code == 0
        reports = json.loads(out)
        assert [rep["m"] for rep in reports] == [2, 3, 4, 5, 6]
        assert reports[3]["tr"] == [1, 2, 2, 4]

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, ["trunc", "2", "4"])
        assert code == 0
        assert out.splitlines()[0] == "m=  2 tr=(1) distinct=1 conjecture=pass"

    def test_csv_dir(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["trunc", "2", "4", "--csv-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "tr_3.csv").read_text() == "a,tr\n1,1\n2,2\n"
        assert str(tmp_path) in out

    def test_bad_range_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["trunc", "1", "5"])
        assert code == 2


class TestGrid:
    def test_json_and_csv_export(self, capsys, tmp_path):
        path = tmp_path / "g.csv"
        code, out, _ = run(
            capsys,
            ["grid", "-S", "5,7", "-W", "20", "-H", "15", "--csv", str(path), "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["value_min"], payload["value_max"]) == (0, 7)
        assert payload["exports"] == [{"format": "csv", "path": str(path)}]
        rows = build_grid(Ruleset((5, 7)), 20, 15).values
        assert path.read_text() == "".join(",".join(map(str, row)) + "\n" for row in rows)

    def test_image_exports(self, capsys, tmp_path):
        pgm, ppm = tmp_path / "g.pgm", tmp_path / "g.ppm"
        code, _, _ = run(
            capsys,
            ["grid", "-S", "5,7", "-W", "20", "-H", "15",
             "--pgm", str(pgm), "--ppm", str(ppm), "--json"],
        )
        assert code == 0
        assert pgm.read_bytes().startswith(b"P5\n20 15\n255\n")
        assert ppm.read_bytes().startswith(b"P6\n20 15\n255\n")

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, ["grid", "-S", "5,7", "-W", "20", "-H", "15"])
        assert code == 0
        assert "grid 20x15 for {5,7}: values in [0, 7]" in out

    def test_period_probes(self, capsys):
        code, out, _ = run(
            capsys,
            ["grid", "-S", "5,7", "-W", "120", "-H", "120",
             "--periods", "--max-diag", "10", "--json"],
        )
        assert code == 0
        periods = json.loads(out)["periods"]
        assert (periods["lines"]["verdict"], periods["lines"]["counterexamples"]) == ("holds", [])
        assert periods["diagonals"]["verdict"] == "holds"

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        bad = tmp_path / "missing" / "g.csv"
        code, _, err = run(
            capsys,
            ["grid", "-S", "5,7", "-W", "10", "-H", "10", "--csv", str(bad)],
        )
        assert code == 4
        assert "i/o error" in err

    def test_zero_width_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["grid", "-S", "5,7", "-W", "0", "-H", "10"])
        assert code == 2

    def test_period_usage_error_writes_no_export(self, capsys, tmp_path, monkeypatch):
        # A 20x20 grid holds no shift certificate of its own, and {5,7}
        # certifies on no square below 99 cells a side; with squares capped
        # at 70, --periods refuses before any export is written.
        path = tmp_path / "g.csv"
        argv = ["grid", "-S", "5,7", "-W", "20", "-H", "20", "--periods", "--csv", str(path)]
        monkeypatch.setattr(multipile, "TABLE_HEAP_LIMIT", 5000)
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "no two-pile shift certificate for {5,7}" in err
        assert not path.exists()
        monkeypatch.undo()
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "lines: holds (0 counterexamples)" in out
        assert path.exists()

    def test_negative_max_diag_is_usage_error(self, capsys, tmp_path):
        # No diagonal is swept, so a "holds" verdict would hold over nothing.
        path = tmp_path / "g.csv"
        code, out, err = run(
            capsys,
            ["grid", "-S", "5,7", "-W", "60", "-H", "60", "--periods",
             "--max-diag", "-3", "--csv", str(path), "--json"],
        )
        assert code == 2
        assert out == ""
        assert "max_diag must be nonnegative" in err
        assert not path.exists()

    def test_grid_too_large_is_usage_error(self, capsys):
        # 10^10 cells: refused before anything is allocated.
        code, out, err = run(capsys, ["grid", "-S", "5,7", "-W", "100000", "-H", "100000"])
        assert code == 2
        assert out == ""
        assert "above the supported" in err

    def test_grid_with_action_beyond_both_sides(self, capsys):
        # max S = 10^8 on a 2x2 grid: only s = 1 is playable.
        code, out, _ = run(capsys, ["grid", "-S", "1,100000000", "-W", "2", "-H", "2", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert (payload["value_min"], payload["value_max"]) == (0, 1)


class TestScan:
    def test_one_greedy_sweep(self, capsys):
        code, out, _ = run(
            capsys, ["scan", "one-greedy", "--max-s", "6", "--x-cap", "80"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["conjecture"] == "two-action-one-player-all-greedy"
        assert report["verdict"] == "holds"

    def test_last_move_sweep(self, capsys):
        code, out, _ = run(
            capsys, ["scan", "last-move", "--max-s", "6", "--x-cap", "80"]
        )
        assert json.loads(out)["verdict"] == "holds"
        assert code == 0

    def test_sacrifice_sweep_small(self, capsys):
        # No double-sacrifice traces exist at this small scale.
        code, out, _ = run(
            capsys, ["scan", "sacrifice", "--max-s", "5", "--x-cap", "60"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "holds"
        assert report["swept_space"]["positions_with_both_sacrificing"] == 0

    def test_duality_sweep(self, capsys):
        code, out, _ = run(capsys, ["scan", "duality", "--m-min", "2", "--m-max", "10"])
        assert code == 0
        assert json.loads(out)["verdict"] == "holds"

    def test_grid_periods(self, capsys):
        code, out, _ = run(
            capsys,
            ["scan", "grid-periods", "-S", "5,7", "-W", "120", "-H", "120",
             "--max-diag", "5"],
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"lines", "diagonals"}
        assert report["lines"]["verdict"] == "holds"
        assert report["diagonals"]["verdict"] == "holds"

    @pytest.mark.parametrize("argv", [
        ["scan", "duality", "--m-min", "5", "--m-max", "3"],
        ["scan", "last-move", "--x-cap", "-1"],
        ["scan", "grid-periods", "-S", "5,7", "-W", "60", "-H", "60", "--max-diag", "-1"],
    ])
    def test_empty_range_is_usage_error(self, capsys, argv):
        # An empty sweep must not print a "holds" verdict over nothing.
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("conjecture", ["sacrifice"])
    def test_x_cap_too_large_is_usage_error(self, capsys, conjecture):
        # 2*10^7 heaps: refused before any table or list of heaps is built.
        code, out, err = run(capsys, ["scan", conjecture, "--x-cap", "20000000"])
        assert code == 2
        assert out == ""
        assert "above the supported" in err

    @pytest.mark.parametrize("conjecture", ["last-move", "one-greedy"])
    def test_observation_scan_answers_past_the_heap_limit(self, capsys, conjecture):
        # The observation scans read only the heaps below each pair's cut,
        # all under 3000 at the default --max-s 12, so a larger x_cap
        # changes nothing in the report but its parameters.
        reports = []
        for x_cap in ("3000", "20000000", "1000000000"):
            code, out, _ = run(capsys, ["scan", conjecture, "--x-cap", x_cap])
            assert code == 0
            reports.append(json.loads(out))
            reports[-1]["parameters"].pop("x_cap")
        assert reports[0]["verdict"] == "holds"
        assert reports[1:] == reports[:1] * 2

    def test_unknown_conjecture_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "nonsense"])
        assert exc.value.code == 2


class TestPlay:
    def test_engine_positive_sacrifice_opening(self, capsys, monkeypatch):
        # S={2,3}, heap 7: the engine opens with the sacrifice 2 and wins
        # the predicted score 1 against the greedy human reply.
        feed_input(monkeypatch, ["3"])
        code, out, _ = run(capsys, ["play", "-S", "2,3", "-x", "7"])
        assert code == 0
        assert "predicted result under optimal play: 1" in out
        assert "engine (positive) takes 2" in out
        assert "result: 1 (predicted 1)" in out

    def test_engine_positive_against_greedy_5_7(self, capsys, monkeypatch):
        feed_input(monkeypatch, ["7"])
        code, out, _ = run(capsys, ["play", "-S", "5,7", "-x", "17"])
        assert code == 0
        assert "engine (positive) takes 5" in out
        assert "result: 3 (predicted 3)" in out

    def test_immediate_terminal(self, capsys, monkeypatch):
        def no_input(prompt=""):
            raise AssertionError("input must not be requested on a terminal heap")

        monkeypatch.setattr("builtins.input", no_input)
        code, out, _ = run(capsys, ["play", "-S", "5,7", "-x", "4"])
        assert code == 0
        assert "result: 0 (predicted 0)" in out

    def test_illegal_inputs_reprompted(self, capsys, monkeypatch):
        feed_input(monkeypatch, ["9", "junk", "3"])
        code, out, _ = run(capsys, ["play", "-S", "2,3", "-x", "7"])
        assert code == 0
        assert out.count("illegal action") == 2
        assert "result: 1 (predicted 1)" in out

    def test_human_positive_underperforms_prediction(self, capsys, monkeypatch):
        # A greedy human Positive from 17 in {5,7} only collects 0.
        feed_input(monkeypatch, ["7", "5"])
        code, out, _ = run(
            capsys, ["play", "-S", "5,7", "-x", "17", "--human-side", "positive"]
        )
        assert code == 0
        assert "engine (negative) takes" in out
        assert "result: 0 (predicted 3)" in out

    def test_eof_aborts_with_usage_code(self, capsys, monkeypatch):
        def closed_input(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", closed_input)
        code, _, err = run(capsys, ["play", "-S", "2,3", "-x", "7"])
        assert code == 2
        assert "input closed" in err

    def test_negative_heap_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["play", "-S", "2,3", "-x", "-2"])
        assert code == 2

    def test_json_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["play", "-S", "2,3", "-x", "7", "--json"])
        assert exc.value.code == 2


class TestArgparseBehavior:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_option_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["grid", "-S", "5,7", "-W", "10"])
        assert exc.value.code == 2


def _cli_process(*argv: str) -> subprocess.Popen:
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    return subprocess.Popen(
        [sys.executable, "-c", "import sys; from cumsub.cli import main; sys.exit(main())", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
    )


class TestClosedPipe:
    def test_reader_closing_early_is_not_an_error(self):
        # Like `cumsub table -S 5,7 -x 200000 | head -1`.
        with _cli_process("table", "-S", "5,7", "-x", "200000") as proc:
            assert proc.stdout.readline().split() == [b"x", b"opt", b"o"]
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == b""

    def test_export_reader_closing_early_is_an_io_error(self, tmp_path):
        # Only a closed stdout is quiet; a FIFO export path whose reader
        # leaves mid-image is still an i/o failure.
        fifo = tmp_path / "grid.pgm"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with _cli_process("grid", "-S", "5,7", "-W", "400", "-H", "400",
                              "--pgm", str(fifo)) as proc:
                assert select.select([reader], [], [], 60)[0]
                assert os.read(reader, 2) == b"P5"
                os.close(reader)
                reader = None
                assert proc.wait(timeout=60) == 4
                assert proc.stdout.read() == b""
                assert proc.stderr.read().startswith(b"i/o error: ")
        finally:
            if reader is not None:
                os.close(reader)
