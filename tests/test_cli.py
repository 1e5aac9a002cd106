import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamfade
from streamfade import channel, cli, engine
from streamfade.errors import NumericFailure
from streamfade.experiments import FIELDS, config_fields

DATA = Path(__file__).resolve().parent / "data"
# Child interpreters import the same streamfade package as this test process.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(streamfade.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_main(args):
    return cli.main(args)


class TestSimulate:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_main(
            [
                "simulate",
                "--messages", "8",
                "--snr-db", "-5",
                "--trials", "300",
                "--seed", "5",
                "--scheme", "mt,ets",
                "--out-csv", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("sweep_var,scheme,B,")
        assert len(lines) == 4  # mt, ets, IT bound

    def test_stdout_when_no_path(self, capsys):
        code = run_main(
            ["simulate", "--messages", "6", "--trials", "100", "--scheme", "mt"]
        )
        assert code == 0
        assert "MT" in capsys.readouterr().out

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[channel]\nsnr_db = 5.0\nrate = 1.0\nmessages = 6\n"
            "[run]\ntrials = 200\nseed = 3\nthreads = 1\n"
            "[schemes]\nlist = mt\ninclude_it_bound = false\n"
        )
        out = tmp_path / "o.csv"
        assert run_main(["simulate", "--config", str(cfg), "--out-csv", str(out)]) == 0
        assert "MT" in out.read_text()

    def test_percent_in_the_csv_path(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        out = tmp_path / "out%1.csv"
        cfg.write_text(
            "[channel]\nsnr_db = 5.0\nrate = 1.0\nmessages = 6\n"
            "[run]\ntrials = 20\nseed = 3\n[schemes]\nlist = mt\n"
            f"[output]\ncsv = {out}\n"
        )
        assert run_main(["simulate", "--config", str(cfg)]) == 0
        assert out.read_text().startswith("sweep_var,scheme,B,")

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "broken.ini"
        cfg.write_text("[channel]\nsnr_db = 5.0\n")
        assert run_main(["simulate", "--config", str(cfg)]) == 2

    def test_bad_scheme_token_exits_2(self):
        assert run_main(["simulate", "--scheme", "bogus", "--trials", "10"]) == 2


class TestSweep:
    def test_explicit_values(self, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        out_svg = tmp_path / "sweep.svg"
        code = run_main(
            [
                "sweep",
                "--variable", "messages",
                "--values", "4,8",
                "--trials", "200",
                "--scheme", "mt,dwts",
                "--out-csv", str(out_csv),
                "--out-svg", str(out_svg),
            ]
        )
        assert code == 0
        text = out_csv.read_text()
        assert text.count("\nMT,".replace("MT,", "4,MT,")) or "4,MT," in text
        assert "8,MT," in text
        svg = out_svg.read_text()
        assert svg.count("<polyline") == 3  # MT, D-wTS, IT

    def test_flags_complete_an_ini_chart(self, tmp_path):
        # the file's chart needs the sweep that the command line adds
        cfg = tmp_path / "exp.ini"
        out_svg = tmp_path / "chart.svg"
        cfg.write_text(
            "[channel]\nsnr_db = 5.0\nrate = 1.0\nmessages = 6\n"
            "[run]\ntrials = 50\nseed = 3\n[schemes]\nlist = mt\n"
            f"[output]\nsvg = {out_svg}\n"
        )
        assert run_main(["sweep", "--config", str(cfg), "--values", "4,8"]) == 0
        assert out_svg.read_text().count("<polyline") == 1

    @staticmethod
    def _snr_sweep_ini(tmp_path):
        cfg = tmp_path / "snr.ini"
        cfg.write_text(
            "[channel]\nsnr_db = 5.0\nrate = 1.0\nmessages = 6\n"
            "[run]\ntrials = 50\nseed = 3\n[schemes]\nlist = mt\n"
            "[sweep]\nvariable = snr_db\nvalues = 0, 5\n"
        )
        return cfg

    @staticmethod
    def _sweep_points(path):
        return [line.split(",")[0] for line in path.read_text().splitlines()[1:]]

    def test_ini_sweep_alone(self, tmp_path):
        cfg = self._snr_sweep_ini(tmp_path)
        out, sim = tmp_path / "sweep.csv", tmp_path / "simulate.csv"
        assert run_main(["sweep", "--config", str(cfg), "--out-csv", str(out)]) == 0
        assert run_main(["simulate", "--config", str(cfg), "--out-csv", str(sim)]) == 0
        assert self._sweep_points(out) == ["0", "5"]
        assert out.read_bytes() == sim.read_bytes()

    def test_values_flag_over_the_ini(self, tmp_path):
        cfg = self._snr_sweep_ini(tmp_path)
        out = tmp_path / "sweep.csv"
        assert run_main(["sweep", "--config", str(cfg), "--values=-5,10", "--out-csv", str(out)]) == 0
        assert self._sweep_points(out) == ["-5", "10"]

    def test_variable_flag_without_values(self, tmp_path):
        cfg = self._snr_sweep_ini(tmp_path)
        same, other = tmp_path / "same.csv", tmp_path / "other.csv"
        # the file's variable keeps the file's grid
        argv = ["sweep", "--config", str(cfg), "--variable", "snr_db", "--out-csv", str(same)]
        assert run_main(argv) == 0
        assert self._sweep_points(same) == ["0", "5"]
        # another variable runs its own default grid
        argv = ["sweep", "--config", str(cfg), "--variable", "messages", "--out-csv", str(other)]
        assert run_main(argv) == 0
        assert self._sweep_points(other) == [str(m) for m in range(1, 65)]

    def test_snr_sweep_values(self, tmp_path):
        out_csv = tmp_path / "snr.csv"
        code = run_main(
            [
                "sweep",
                "--variable", "snr_db",
                "--values=-5,5",
                "--messages", "6",
                "--trials", "150",
                "--scheme", "mt",
                "--out-csv", str(out_csv),
            ]
        )
        assert code == 0
        assert "-5,MT," in out_csv.read_text()

    def test_negative_values_in_either_spelling(self, tmp_path):
        # argparse alone takes "-10,0,10" for an option and exits with a usage
        # error; both spellings must run the same sweep.
        outs = []
        spellings = (["--values", "-10,0,10"], ["--values=-10,0,10"], ["--value", "-10,0,10"])
        for values in spellings:
            outs.append(tmp_path / f"snr{len(outs)}.csv")
            argv = ["sweep", "--variable", "snr_db", *values, "--messages", "6"]
            assert run_main([*argv, "--trials", "150", "--out-csv", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        assert "-10,MT," in outs[0].read_text()


def _config_of_schemes(path, schemes):
    """`path`, an INI file of 150 trials at M = 9 with the `[schemes]`
    section `schemes`."""
    path.write_text(
        "[channel]\nsnr_db = -5.0\nrate = 1.0\nmessages = 9\n"
        f"[run]\ntrials = 150\nseed = 4\n[schemes]\n{schemes}\n"
    )
    return str(path)


def _outputs_of_scheme_lists(command, lists, tmp_path, capsys):
    """(exit code, standard output) of `command --config` on one INI file per
    `[schemes]` section of `lists`."""
    results = []
    for i, schemes in enumerate(lists):
        cfg = _config_of_schemes(tmp_path / f"exp{i}.ini", schemes)
        results.append((run_main([command, "--config", cfg]), capsys.readouterr().out))
    return results


# A file whose own run would evaluate nothing, and one with other rows.
_UNREAD_SCHEMES = ("list =\ninclude_it_bound = false", "list = ets, pb:2\ninclude_it_bound = true")
# Keys that do not parse: `analyze` and `bound` never read them.
_BAD_SCHEMES = "list = bogus\ninclude_it_bound = maybe"


@pytest.mark.parametrize("command", ["analyze", "bound"])
def test_an_unread_scheme_list_may_not_parse(command, tmp_path, capsys):
    good, bad = _outputs_of_scheme_lists(
        command, (_UNREAD_SCHEMES[0], _BAD_SCHEMES), tmp_path, capsys
    )
    assert bad == good and bad[0] == 0


def test_simulate_rejects_the_scheme_list_that_analyze_ignores(tmp_path, capsys):
    cfg = _config_of_schemes(tmp_path / "exp.ini", _BAD_SCHEMES)
    assert run_main(["simulate", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "schemes.list: unknown scheme token 'bogus'" in err


class TestAnalyze:
    def test_ignores_the_files_schemes(self, tmp_path, capsys):
        empty, other = _outputs_of_scheme_lists("analyze", _UNREAD_SCHEMES, tmp_path, capsys)
        assert empty == other
        code, out = empty
        assert code == 0
        assert [l.split(",")[1:3] for l in out.splitlines()[1:]] == [
            ["MT", ""], ["wTS", "2"], ["wTS", "3"], ["wTS", "5"]
        ]

    def test_closed_forms_only(self, capsys):
        code = run_main(["analyze", "--messages", "9", "--snr-db", "-5", "--windows", "2,3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MT" in out and "wTS" in out
        # simulated columns empty: row starts "9,MT,,,,..."
        mt_line = [l for l in out.splitlines() if ",MT," in l][0]
        fields = mt_line.split(",")
        assert fields[3] == "" and fields[8] != ""


class TestBound:
    def test_ignores_the_files_schemes(self, tmp_path, capsys):
        empty, other = _outputs_of_scheme_lists("bound", _UNREAD_SCHEMES, tmp_path, capsys)
        assert empty == other
        code, out = empty
        assert code == 0
        body = out.splitlines()[1:]
        assert len(body) == 1 and body[0].startswith("9,IT,,")

    def test_emits_it_rows_only(self, capsys):
        code = run_main(["bound", "--messages", "6", "--trials", "150", "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        body = [l for l in out.strip().splitlines()[1:]]
        assert body and all(",IT," in l for l in body)


class TestVerify:
    def test_passes(self, capsys):
        assert run_main(["verify", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_fails_on_a_fault_shared_with_the_evaluators(self, monkeypatch, capsys):
        # Every tile's equal-share running totals W become its prefix sums S:
        # the tile pass and the standalone evaluators then agree on wrong
        # numbers, which only references without the tile kernels expose.
        monkeypatch.setattr(channel.Tile, "running", property(lambda tile: tile.prefix))
        assert run_main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  equal-share and pre-buffering delay identities" in out
        assert "FAIL  pre-buffering threshold" in out
        assert "2 check(s) failed" in out

    def test_fails_on_a_row_major_fault(self, monkeypatch, capsys):
        # W becomes S on row-major tiles only (M > 64): every eTS and PB row
        # above M = 64 is wrong, and only a row-major reference pass sees it.
        running = channel.Tile.running

        def faulty(tile):
            return running.fget(tile) if channel.block_major(tile.caps) else tile.prefix

        monkeypatch.setattr(channel.Tile, "running", property(faulty))
        assert run_main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  equal-share and pre-buffering delay identities" in out
        assert "FAIL  pre-buffering threshold" in out
        assert "2 check(s) failed" in out

    def test_fails_on_a_fault_of_a_shared_pass(self, monkeypatch, capsys):
        # A head reads the wider tile's W, whose weights are those of the
        # larger M: only the points of a message sweep are wrong.
        def faulty(tile, blocks):
            head = channel.Tile(tile.caps[:, :blocks], tile.workspace, tile)
            head._running = tile.running[:, :blocks]
            return head

        monkeypatch.setattr(channel.Tile, "head", faulty)
        assert run_main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  equal-share and pre-buffering delay identities" in out
        assert "1 check(s) failed" in out

    @pytest.mark.parametrize(
        "snippet,fault",
        [
            # eTS reads the second capacity as S_0 at depth M.
            ("tile.caps[:, 0] if first == 0", "tile.caps[:, 1] if first == 0"),
            # The threshold takes the running total one column early.
            ("tau += running[:, first]", "tau += running[:, first - 1]"),
        ],
    )
    def test_fails_on_a_fault_of_the_fixed_pb_rows(self, snippet, fault, monkeypatch, capsys):
        # eTS and `pb:B` run `engine.evaluate_pb` only at a point without a
        # chosen PB depth, which verify's second pass is.
        source = inspect.getsource(engine.evaluate_pb)
        assert snippet in source
        faulty = {}
        exec(source.replace(snippet, fault), vars(engine), faulty)
        monkeypatch.setattr(engine, "evaluate_pb", faulty["evaluate_pb"])
        assert run_main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  equal-share and pre-buffering delay identities" in out
        assert "1 check(s) failed" in out


class TestBadInputExits2:
    @pytest.mark.parametrize(
        "argv,field",
        [
            (["simulate", "--snr-db", "nan"], "channel.snr_db"),
            (["simulate", "--rate", "inf"], "channel.rate"),
            (["analyze", "--windows", "0"], "analyze.windows"),
            (["sweep", "--variable", "messages", "--values", "8.7,16"], "sweep.values"),
            (["simulate", "--config", "/nonexistent/exp.ini"], "config"),
            (["simulate", "--out-csv", "/nonexistent/dir/x.csv"], "output.csv"),
            (["sweep", "--values", "4,8", "--out-svg", "/nonexistent/dir/x.svg"], "output.svg"),
            (["simulate", "--out-csv", "."], "output.csv"),  # a directory
            (["sweep", "--values", "4,8", "--out-svg", "."], "output.svg"),
            (["simulate", "--out-svg", "one-point.svg"], "output.svg"),
            (["sweep", "--values", "8", "--out-svg", "one-point.svg"], "output.svg"),
            (["analyze", "--out-svg", "one-point.svg"], "output.svg"),
            (["simulate", "--snr-db", "4000"], "channel.snr_db"),  # 10**400 overflows
            (["simulate", "--snr-db", "-4000"], "channel.snr_db"),  # 10**-400 is 0
            (["analyze", "--snr-db", "4000"], "channel.snr_db"),
            (["sweep", "--variable", "snr_db", "--values", "0,4000"], "sweep.values"),
            (["simulate", "--seed", "-1"], "run.seed"),
            (["simulate", "--seed", str(1 << 64)], "run.seed"),
            (["analyze", "--windows", "-1,2"], "analyze.windows"),
            (["analyze", "--windows", "2,2"], "analyze.windows"),
            (["analyze", "--windows", "3,2,3"], "analyze.windows"),
            (["analyze", "--window", "-1"], "analyze.windows"),
            (["sweep", "--variable", "messages", "--values", ","], "sweep.values"),
            (["sweep", "--variable", "messages", "--values", ""], "sweep.values"),
            (["sweep", "--variable", "snr_db", "--values", " , "], "sweep.values"),
            (["analyze", "--windows", ","], "analyze.windows"),
            (["analyze", "--windows", ""], "analyze.windows"),
            (["analyze", "--windows", " , "], "analyze.windows"),
            # A flag's text is read by its INI key's row, not by argparse.
            (["simulate", "--trials", "abc"], "run.trials"),
            (["simulate", "--snr-db", "x"], "channel.snr_db"),
            (["simulate", "--messages", "1e3"], "channel.messages"),
            (["simulate", "--threads", "two"], "run.threads"),
            (["simulate", "--seed", "0x4"], "run.seed"),
            (["sweep", "--variable", "power"], "sweep.variable"),
            (["simulate", "--out-csv", ""], "output.csv"),
            (["sweep", "--values", "4,8", "--out-svg", ""], "output.svg"),
            (["simulate", "--snr-db", "-3100"], "channel.snr_db"),  # 1 / 10**-310 overflows
            (["sweep", "--variable", "snr_db", "--values", "-3100,0"], "sweep.values"),
        ],
    )
    def test_names_the_field(self, argv, field, capsys):
        command, *flags = argv
        scheme = [] if command == "analyze" else ["--scheme", "mt"]  # analyze takes none
        assert run_main([command, "--trials", "10", *scheme, *flags]) == 2
        err = capsys.readouterr().err
        assert f"{field}:" in err
        assert "invalid" not in err  # no argparse type or choice error

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--snr-db", "-3100"],
            ["sweep", "--variable", "snr_db", "--values", "-3100,0"],
        ],
    )
    def test_a_refused_snr_names_the_reciprocal(self, argv, capsys):
        # At -3100 dB P = 1e-310 is positive and finite; 1 / P overflows.
        assert run_main([*argv, "--trials", "10", "--scheme", "mt"]) == 2
        assert channel.SNR_RULE in capsys.readouterr().err
        assert "reciprocal 1/P" in channel.SNR_RULE
        with pytest.raises(ValueError, match=re.escape(channel.SNR_RULE)):
            channel.ChannelParams(snr_db=-3100.0, rate=1.0, blocks=3)

    def test_trials_whose_sums_could_wrap(self, capsys):
        assert run_main(["simulate", "--messages", "64", "--trials", str(1 << 51)]) == 2
        assert "run.trials:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("value", ["mt,mt,pb:2,pb:2", "pb,pb:opt", "wts:3,ets,WTS:3"])
    def test_repeated_scheme(self, command, value, tmp_path, capsys):
        # A repeat would be evaluated and written twice; pb:opt is pb.
        assert run_main([command, "--scheme", value, "--trials", "10"]) == 2
        assert "schemes.list:" in capsys.readouterr().err
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[channel]\nsnr_db = 5.0\nrate = 1.0\nmessages = 6\n"
            f"[run]\ntrials = 20\nseed = 3\n[schemes]\nlist = {value}\n"
        )
        assert run_main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "schemes.list:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["simulate", "sweep", "bound"])
    @pytest.mark.parametrize("value", [",", "", " , "])
    def test_scheme_option_without_a_token(self, command, value):
        # The INI `[schemes] list` may be empty; `--scheme` must name a scheme.
        # bound takes no `--scheme`, so argparse refuses the option itself.
        code, output = _exit_code([command, "--scheme", value, "--trials", "10"])
        assert code == 2
        if command == "bound":
            assert "unrecognized arguments: --scheme" in output
        else:
            assert "schemes.list:" in output

    @pytest.mark.parametrize("command", ["analyze", "bound"])
    def test_no_scheme_option(self, command):
        # analyze writes its own MT and wTS rows and bound only the IT row:
        # a `--scheme` that they would ignore exits 2 instead.
        code, output = _exit_code([command, "--messages", "4", "--scheme", "mt"])
        assert code == 2
        assert "unrecognized arguments: --scheme mt" in output
        code, output = _exit_code([command, "--help"])
        assert code == 0 and "--trials" in output and "--scheme" not in output

    @pytest.mark.parametrize(
        "command,output,field",
        [
            ("simulate", "csv = /nonexistent/dir/x.csv", "output.csv"),
            ("simulate", "svg = one-point.svg", "output.svg"),
            ("analyze", "svg = chart.svg", "output.svg"),
            ("simulate", None, "config"),
            ("simulate", "csv =", "output.csv"),  # an empty path
            ("simulate", "svg =", "output.svg"),
            ("simulate", "csv = a.csv\ncsv = b.csv", "output.csv"),  # a key given twice
            ("simulate", "[channel]\nrate = 2", "channel"),  # a section given twice
            ("simulate", "=\n=", "output"),  # an empty key given twice
            ("simulate", "csv", "config"),  # a line without `=`
        ],
    )
    def test_ini_names_the_field(self, command, output, field, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        if output is None:  # not UTF-8
            cfg.write_bytes(b"[channel]\nsnr_db = \xff\n")
        else:
            sweep = "[sweep]\nvariable = messages\nvalues = 4, 8\n" if command == "analyze" else ""
            cfg.write_text(
                "[channel]\nsnr_db = 5.0\nrate = 1.0\nmessages = 6\n"
                "[run]\ntrials = 20\nseed = 3\n[schemes]\nlist = mt\n"
                f"{sweep}[output]\n{output}\n"
            )
        assert run_main([command, "--config", str(cfg)]) == 2
        assert f"{field}:" in capsys.readouterr().err
        assert not (tmp_path / "one-point.svg").exists()

    @pytest.mark.parametrize(
        "old,new,field",
        [
            ("snr_db = 5.0", "snr_db = -5%", "channel.snr_db"),
            (
                "list = mt\n",
                "list = mt\n[sweep]\nvariable = messages\nvalues = 4, 8%\n",
                "sweep.values",
            ),
        ],
    )
    def test_ini_percent_is_a_literal_character(self, old, new, field, tmp_path, capsys):
        # Not a `%` interpolation error with a traceback: a bad value.
        cfg = tmp_path / "exp.ini"
        text = (
            "[channel]\nsnr_db = 5.0\nrate = 1.0\nmessages = 6\n"
            "[run]\ntrials = 20\nseed = 3\n[schemes]\nlist = mt\n"
        )
        cfg.write_text(text.replace(old, new))
        command = "sweep" if "sweep" in field else "simulate"
        assert run_main([command, "--config", str(cfg)]) == 2
        assert f"{field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_outside_64_bits(self, seed, tmp_path, capsys):
        # Seeds are not reduced mod 2**64: -1 would draw as 2**64 - 1 and
        # 2**64 as 0 while the CSV printed another seed.
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[channel]\nsnr_db = 5.0\nrate = 1.0\nmessages = 6\n"
            f"[run]\ntrials = 20\nseed = {seed}\n[schemes]\nlist = mt\n"
        )
        assert run_main(["simulate", "--config", str(cfg)]) == 2
        assert "run.seed:" in capsys.readouterr().err
        assert run_main(["verify", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert "run.seed:" in captured.err and captured.out == ""

    def test_verify_seed_is_read_as_run_seed(self, capsys):
        assert run_main(["verify", "--seed", "abc"]) == 2
        captured = capsys.readouterr()
        assert "run.seed: bad value 'abc'" in captured.err and captured.out == ""

    def test_largest_seed_runs(self, capsys):
        seed = str((1 << 64) - 1)
        assert run_main(["simulate", "--messages", "4", "--trials", "10", "--seed", seed]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(f",{seed}")

    @pytest.mark.parametrize(
        "after,typo,field",
        [
            ("list = mt\n", "[output]\ncvs = out.csv\n", "output.cvs"),
            ("list = mt\n", "[ouput]\ncsv = out.csv\n", "ouput.csv"),  # misspelled section
            ("seed = 3\n", "thread = 4\n", "run.thread"),
            ("list = mt\n", "include_it = true\n", "schemes.include_it"),
        ],
    )
    def test_ini_unknown_key(self, after, typo, field, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        text = (
            "[channel]\nsnr_db = 5.0\nrate = 1.0\nmessages = 6\n"
            "[run]\ntrials = 20\nseed = 3\n[schemes]\nlist = mt\n"
        )
        cfg.write_text(text.replace(after, after + typo))
        assert run_main(["simulate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert f"{field}:" in captured.err
        assert captured.out == ""  # no CSV on standard output either


# Every key, for a row's key or flag to replace, and per flag a good and a bad text.
_FULL_INI = (
    "[channel]\nsnr_db = 5.0\nrate = 1.0\nmessages = 6\n"
    "[run]\ntrials = 20\nseed = 3\nthreads = 1\n"
    "[schemes]\nlist = mt\ninclude_it_bound = true\n"
    "[sweep]\nvariable = messages\nvalues = 4, 8\n"
    "[output]\ncsv = base.csv\nsvg = base.svg\n"
)
_FLAG_TEXTS = {
    "snr_db": ("-3.5", "x"),
    "rate": ("2", "1,5"),
    "messages": ("12", "1e3"),
    "trials": ("30", "abc"),
    "seed": ("7", "0x4"),
    "threads": ("2", "two"),
    "schemes": ("mt, pb:2", "bogus"),
    "sweep_variable": ("snr_db", "power"),
    "sweep_values": ("-3, 2", "0, x"),
    "csv_path": ("a.csv", ""),
    "svg_path": ("b.svg", ""),
}


class TestFlagsReadAsKeys:
    """A flag's text is read by its INI key's row: the same value for good
    text, and the same error line for bad text."""

    @pytest.mark.parametrize("row", [r for r in FIELDS if r.flag], ids=lambda r: r.name)
    def test_flag_and_key_agree(self, row, tmp_path, capsys):
        base = tmp_path / "base.ini"
        base.write_text(_FULL_INI)

        def by_key(text):  # the keys of _FULL_INI are unique across its sections
            path = tmp_path / "key.ini"
            path.write_text(re.sub(f"(?m)^{row.key} = .*$", lambda _: f"{row.key} = {text}", _FULL_INI))
            return str(path)

        def by_flag(text):
            return ["sweep", "--config", str(base), row.flag, text]

        good, bad = _FLAG_TEXTS[row.attr]
        args = cli.build_parser().parse_args(cli._attach_dash_values(by_flag(good)))
        expected = config_fields(Path(by_key(good)).read_text())[row.attr]
        assert cli._flag_fields(args)[row.attr] == expected
        assert run_main(["sweep", "--config", by_key(bad)]) == 2
        key_err = capsys.readouterr().err
        assert key_err.startswith(f"configuration error: {row.name}: ")
        assert run_main(by_flag(bad)) == 2
        assert capsys.readouterr().err == key_err


# Bad and edge tokens for the fuzzed inputs below.  No number among the
# tokens exceeds 4 and no INI line asks for more than 50 trials, 64 messages
# or 4 threads, so no mutation makes a run longer than that.
_VALUES = [
    "", " ", "-", "--", "-h", "nan", "inf", "-inf", "0", "1", "2", "4", "-1", "-5",
    "2.5", "+3", "0x4", "1e-300", "1e300", "1e309", "%", "%(x)s", ",", " , ", "1,2",
    "4,4", "2,1", "-5,0", "mt", "pb", "pb:0", "pb:3", "pb:99", "wts:0", "wts:x",
    "twts,dwts", "mt,,ets", "MT,pb:2", "pb,pb:opt", "it", "messages", "snr_db",
    "/nonexistent/x.csv", ".", "out.csv", "chart.svg",
]
_OPTIONS = [
    "--messages", "--trials", "--threads", "--seed", "--rate", "--snr-db", "--scheme",
    "--values", "--variable", "--windows", "--window", "--val", "--out-csv", "--out-svg",
    "--config", "--unknown",
]
_BASE_ARGV = {
    "simulate": ["--messages", "8", "--trials", "20", "--scheme", "mt,ets,pb,twts,dwts"],
    "sweep": ["--variable", "messages", "--values", "4,8", "--trials", "20", "--scheme", "pb,dwts"],
    "analyze": ["--messages", "8", "--windows", "1,2,3"],
}
_BASE_INI = [
    "[channel]", "snr_db = -5", "rate = 1", "messages = 8",
    "[run]", "trials = 20", "seed = 3", "threads = 1",
    "[schemes]", "list = mt,ets,pb,twts,dwts", "include_it_bound = true",
    "[sweep]", "variable = messages", "values = 4, 8",
]
_INI_LINES = [
    "", "=", "= 1", "trials", "[DEFAULT]", "[sweep]", "[output]", "[ouput]", "[run]",
    "threads = 4", "trials = 50", "messages = 64", "values = 1, 64", "variable = snr_db",
    "variable = bogus", "csv = out.csv", "svg = chart.svg", "list =", "include_it_bound = maybe",
    "; comment", "  indented = 1", "seed = 18446744073709551616", "snr_db = 1e309",
]


@st.composite
def _mutated(draw, base, tokens):
    """`base` after one to three replacements, insertions or deletions."""
    out = list(base)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert" or not out:
            out.insert(draw(st.integers(0, len(out))), draw(st.sampled_from(tokens)))
            continue
        i = draw(st.integers(0, len(out) - 1))
        if op == "delete":
            del out[i]
        elif "= " in out[i] and draw(st.booleans()):  # an INI line keeps its key
            out[i] = out[i].split("= ")[0] + "= " + draw(st.sampled_from(_VALUES))
        else:
            out[i] = draw(st.sampled_from(tokens))
    return out


def _exit_code(argv) -> tuple[int, str]:
    """`cli.main(argv)`'s exit code, an argparse exit included, and its
    output.  Any other exception propagates: a traceback."""
    out = io.StringIO()
    # Defaults as small as the base inputs, for an argv that loses its options.
    small = replace(cli._DEFAULTS, messages=8, trials=20)
    with mock.patch.object(cli, "_DEFAULTS", small), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


# What an exit 2 prints: a configuration error that names its field (a
# section, or `config` for the file as a whole), or argparse's error for an
# option it does not know, or one left without its argument.
_EXIT_2 = re.compile(
    r"configuration error: \w+(\.\w+)?: "
    r"|: error: (unrecognized arguments|ambiguous option|argument [-\w]+: expected one argument)"
)


def _check_exit(code, output):
    assert code in (0, 2), output
    assert "Traceback" not in output
    if code == 2:
        assert _EXIT_2.search(output), output
    for argparse_type_error in ("invalid int value", "invalid float value", "invalid choice"):
        assert argparse_type_error not in output


class TestFuzzedInputs:
    """Mutated command lines and INI files exit 0 or 2, never with a
    traceback, and an exit 2 says what was wrong."""

    @given(command=st.sampled_from(sorted(_BASE_ARGV)), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_argv(self, command, data, tmp_path_factory):
        argv = data.draw(_mutated(_BASE_ARGV[command], _VALUES + _OPTIONS))
        with contextlib.chdir(tmp_path_factory.getbasetemp()):  # outputs land there
            _check_exit(*_exit_code([command, *argv]))

    @given(command=st.sampled_from(sorted(_BASE_ARGV)), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_ini(self, command, data, tmp_path_factory):
        lines = data.draw(_mutated(_BASE_INI, _INI_LINES))
        cfg = tmp_path_factory.getbasetemp() / "fuzzed.ini"
        cfg.write_text("\n".join(lines) + "\n")
        with contextlib.chdir(cfg.parent):
            _check_exit(*_exit_code([command, "--config", str(cfg)]))


class TestHugeRate:
    """A rate whose 2**rate overflows a float decodes nothing; no traceback."""

    @pytest.mark.parametrize("rate", ["2000", "1e300"])
    def test_simulate(self, rate, capsys):
        argv = ["simulate", "--rate", rate, "--messages", "8", "--trials", "20"]
        assert run_main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[1] for row in rows] == ["MT", "eTS", "PB", "T-wTS", "D-wTS", "IT"]
        assert all(row[4] == "0" and row[5] == "8" for row in rows)  # counts 0, delays M
        assert rows[0][8] == "0"  # analytic MT throughput: the limit p = 0

    def test_analyze(self, capsys):
        assert run_main(["analyze", "--rate", "2000"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[1] for row in rows] == ["MT", "wTS", "wTS", "wTS"]
        assert rows[0][9] == rows[0][10] == "40"  # MT's exact delay is M


class TestTinyRate:
    """A rate so small that I/R is huge or overflows decodes every message."""

    @pytest.mark.parametrize("rate", ["1e-300", "5e-324"])
    def test_simulate(self, rate, capsys):
        assert run_main(["simulate", "--messages", "50", "--rate", rate, "--trials", "200"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows[-1][1] == "IT"
        assert all(row[4] == "50" and row[5] == "0" for row in rows)  # counts M, delays 0


class TestThreads:
    def test_long_file_csv_independent_of_threads(self, tmp_path, fork_pools):
        # Tiles of 16 trials: two workers' shares of the least that forks.
        assert len(channel.row_blocks(2048, 2000)) == 2 * engine.MIN_TILES_PER_WORKER
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"t{threads}.csv")
            argv = ["simulate", "--messages", "2000", "--trials", "2048", "--scheme", "ets,pb"]
            assert run_main([*argv, "--threads", threads, "--out-csv", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert fork_pools == [2]


class TestGoldenCsv:
    """Output recorded before the one-pass engine, byte for byte."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_matches_recorded_sweep(self, threads, tmp_path):
        out = tmp_path / "golden.csv"
        code = run_main(
            [
                "sweep", "--variable", "messages", "--values", "8,16",
                "--trials", "2000", "--seed", "12345", "--snr-db", "-5", "--rate", "1",
                "--scheme", "mt,ets,pb,pb:2,wts:3,twts,dwts",
                "--threads", threads, "--out-csv", str(out),
            ]
        )
        assert code == 0
        assert out.read_bytes() == (DATA / "golden_sweep_m8_m16.csv").read_bytes()


class TestMtIsWtsAtWindowOne:
    """MT sends message t in block t only, the wTS rule at B = 1: the two rows
    of one run agree in every simulated cell and in the analytic delays."""

    # Block-major tiles up to M = 64, row-major above; several tiles each.
    @pytest.mark.parametrize("messages", ["8", "64", "65", "200"])
    def test_same_cells(self, messages, tmp_path):
        out = tmp_path / "mt.csv"
        argv = ["simulate", "--messages", messages, "--trials", "2100", "--seed", "7"]
        assert run_main([*argv, "--scheme", "mt,wts:1", "--out-csv", str(out)]) == 0
        rows = {line.split(",")[1]: line.split(",") for line in out.read_text().splitlines()[1:]}
        mt, wts = rows["MT"], rows["wTS"]
        assert (mt[2], wts[2]) == ("", "1")
        assert mt[3:8] == wts[3:8]  # throughput, count, delay and their stderrs
        assert mt[9] == mt[10] == wts[9] == wts[10] != ""  # the analytic delay pair
        assert mt[8] != "" and wts[8] == ""  # only MT has an analytic throughput


class TestExitCodes:
    def test_numeric_failure_maps_to_3(self, monkeypatch):
        def boom(config):
            raise NumericFailure("synthetic")

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert run_main(["simulate", "--trials", "10", "--scheme", "mt"]) == 3

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "streamfade.cli", "--help"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout


def test_every_public_function_is_run_by_a_command_or_exported(tmp_path, capsys):
    # Every command under a profiler: a message sweep of every scheme across
    # both tile layouts on two threads (M = 65 makes two tiles) with a chart,
    # an SNR sweep, analyze, bound, the acceptance config, a refused config
    # and verify.  A public function that none of them calls is library API,
    # named in `streamfade.__all__`, or has no place in the package.
    modules = [
        importlib.import_module(f"streamfade.{info.name}")
        for info in pkgutil.iter_modules(streamfade.__path__)
    ]
    functions = {}
    for module in modules:
        for name, obj in vars(module).items():
            # A memoized function is called only on a cache miss.
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
            fn = inspect.unwrap(obj) if callable(obj) else obj
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                if not name.startswith("_"):
                    functions[f"{module.__name__}.{name}"] = fn
    config = Path(__file__).resolve().parents[1] / "configs" / "acceptance.ini"
    runs = [
        (["sweep", "--variable", "messages", "--values", "64,65", "--trials", "600",
          "--scheme", "mt,ets,pb,pb:3,wts:3,twts,dwts", "--threads", "2",
          "--out-svg", str(tmp_path / "sweep.svg")], 0),
        (["sweep", "--variable", "snr_db", "--values", "-5,5", "--messages", "8",
          "--trials", "50"], 0),
        (["analyze", "--messages", "40"], 0),
        (["bound", "--messages", "8", "--trials", "50"], 0),
        (["simulate", "--config", str(config), "--trials", "200",
          "--out-csv", str(tmp_path / "acceptance.csv")], 0),
        (["simulate", "--scheme", "mt,mt"], 2),
        (["verify"], 0),
    ]
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        codes = [run_main(argv) for argv, _ in runs]
    finally:
        threading.setprofile(None)
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for _, code in runs]
    missing = sorted(
        name for name, fn in functions.items()
        if fn.__code__ not in reached and name.rsplit(".", 1)[1] not in streamfade.__all__
    )
    assert not missing, f"no command runs and __all__ does not name: {missing}"


def test_all_is_the_readme_library_list():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("The package exports this library API", 1)[1]
    listed = re.findall(r"`(\w+)`", section.split("\n\n", 2)[1])
    assert sorted(listed) == sorted(streamfade.__all__)
    assert all(hasattr(streamfade, name) for name in streamfade.__all__)


# Runs in a fresh interpreter: every command, `verify` included, and the
# asymptotic helpers, then prints their exit codes and the scipy modules loaded.
_IMPORT_PROBE = """
import json, sys
from streamfade import cli
out = sys.argv[1]
common = ["--trials", "50", "--seed", "5", "--threads", "1"]
for argv in (
    ["simulate", "--messages", "6", *common, "--out-csv", out],
    ["sweep", "--values", "4,6", "--scheme", "twts,dwts", *common, "--out-csv", out],
    ["analyze", "--messages", "8", "--out-csv", out],
    ["bound", "--messages", "6", *common, "--out-csv", out],
):
    assert cli.main(argv) == 0, argv
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
before = scipy_modules()
code = cli.main(["verify"])
print(json.dumps([before, code, scipy_modules()]))
"""


class TestImportSet:
    def test_one_thread_run_loads_no_thread_pool(self, tmp_path):
        # `concurrent.futures` loads `logging`, and `multiprocessing` adds
        # ~9 ms: a run on one worker, here 11 tiles at --threads 1 and 2,
        # loads neither.
        probe = (
            "import sys\n"
            "from streamfade import cli\n"
            "pools = ['concurrent.futures', 'multiprocessing']\n"
            "loaded = [pool in sys.modules for pool in pools]\n"
            "for threads in ('1', '2'):\n"
            "    argv = ['simulate', '--messages', '70', '--trials', '5000', '--threads', threads]\n"
            "    assert cli.main([*argv, '--out-csv', sys.argv[1]]) == 0\n"
            "print(loaded + [pool in sys.modules for pool in pools])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / "out.csv")],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[False, False, False, False]"

    def test_only_verify_loads_scipy(self, tmp_path):
        # verify was the one command that loaded scipy (for its quadrature);
        # its mean-capacity check is now a Gauss-Legendre rule, so none does.
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "out.csv")],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        before, verify_code, after = json.loads(proc.stdout.splitlines()[-1])
        assert before == []
        assert verify_code == 0
        assert after == []

    def test_alpha_opt_loads_no_scipy(self):
        # The asymptotic helpers use the closed-form mean capacity.
        probe = (
            "import sys\n"
            "from streamfade.asymptotic import alpha_opt, decode_all_probability\n"
            "from streamfade.channel import ChannelParams\n"
            "p = ChannelParams(5.0, 1.0, 600)\n"
            "alpha_opt(p)\n"
            "decode_all_probability(p, 300, trials=2, seed=1)\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
