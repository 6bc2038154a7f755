import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qiopa import GainParams, InjectionParams, LossParams, attenuated_state_with_injection, required_cutoff
from qiopa.cli import (
    _EXPERIMENTS,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PIPE,
    RunConfig,
    _parser,
    build_parser,
    main,
    resolve_config,
    run_experiment,
)

# every experiment that reads a gain, with the other grids it needs
GAIN_EXPERIMENTS = {
    "visibility": ["--R", "0.1"],
    "witness-sigma": ["--eta", "0.5"],
    "witness-ofilter": ["--eta", "0.5"],
    "witness-stokes": ["--eta", "0.5"],
    "concurrence": ["--eta", "0.5"],
    "pcrit": ["--eta", "0.5"],
    "density": [],
}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def column(text, name):
    header, rows = parse_csv(text)
    idx = header.index(name)
    return [float(r[idx]) for r in rows]


class TestPlumbing:
    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["concurrence", "--t", "0,0.2,0.4,0.8"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_parser_is_built_once_and_carries_nothing_between_runs(self, capsys):
        assert _parser() is _parser()
        assert build_parser() is not build_parser()
        code, first, _ = run_cli(["visibility", "--g", "0.5", "--R", "0.2", "--k", "1"], capsys)
        assert code == EXIT_OK
        # a run after one with other flags sees only its own flags and defaults
        code, _, _ = run_cli(["visibility", "--g", "0.6", "--eta", "0.3", "--k", "0,2"], capsys)
        assert code == EXIT_OK
        code, again, _ = run_cli(["visibility", "--g", "0.5", "--R", "0.2", "--k", "1"], capsys)
        assert again == first
        code, out, _ = run_cli(["visibility", "--g", "0.5"], capsys)
        assert column(out, "k") == [0.0] * 20 and len(set(column(out, "R"))) == 20

    def test_byte_identical_records(self, tmp_path):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        args = ["pcrit", "--g", "0.5,1.0", "--eta", "0.3", "--format", "records"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_output_is_self_describing(self, capsys):
        code, out, _ = run_cli(["concurrence", "--t", "0.5"], capsys)
        assert code == EXIT_OK
        assert "# config_sha256=" in out
        code2, out2, _ = run_cli(
            ["visibility", "--g", "0.5", "--R", "0.2", "--k", "0"], capsys
        )
        header, rows = parse_csv(out2)
        assert "cutoff" in header
        assert "# experiment=visibility" in out2

    def test_records_format_parses(self, capsys):
        code, out, _ = run_cli(
            ["witness-stokes", "--g", "0.5", "--eta", "0.5", "--format", "records"],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        head = json.loads(lines[0])
        assert head["experiment"] == "witness-stokes"
        record = json.loads(lines[1])
        assert record["value"] == pytest.approx(1.0, abs=1e-6)

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\nexperiment=concurrence\nt=0.1\nt=0.2\nformat=records\n"
        )
        code, out, _ = run_cli(["concurrence", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 3  # header + two records
        code, out, _ = run_cli(
            ["concurrence", "--config", str(cfg), "--t", "0.5", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        assert column(out, "t") == [0.5]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("flux=12\n")
        code, _, err = run_cli(["concurrence", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG
        assert "flux" in err

    @pytest.mark.parametrize("flag", ["--cutoff=5", "--tail-tol=0.3"])
    def test_concurrence_rejects_truncation_flags(self, flag, capsys):
        # the attenuated concurrence is closed form; nothing there is truncated
        code, out, err = run_cli(["concurrence", "--g", "1", "--eta", "0.5", flag], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert "unrecognized arguments" in err

    def test_concurrence_rejects_cutoff_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g=1\neta=0.5\ncutoff=5\n")
        code, out, err = run_cli(["concurrence", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert "unknown parameter 'cutoff'" in err

    @pytest.mark.parametrize("grid", [["--g", "1"], ["--eta", "0.5"], ["--R", "0.5"], ["--p", "0.3"]])
    def test_concurrence_rejects_t_with_grid_flags(self, grid, capsys):
        # the t curve and the grids are two sweeps; a run takes one of them
        code, out, err = run_cli(["concurrence", "--t", "0.5"] + grid, capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.count("\n") == 1 and "not both" in err

    def test_concurrence_rejects_config_t_with_grid_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t=0.5\n")
        argv = ["concurrence", "--config", str(cfg), "--g", "1", "--p", "0.3"]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.count("\n") == 1 and "not both" in err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(["pcrit", "--g", "1", "--eta", "0.5", "--out", str(target)], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("config error: cannot write")
        assert not target.parent.exists()

    def test_reader_closing_stdout_exits_quietly(self, tmp_path):
        # about 240 kB of output outgrows the pipe's buffer, so the CLI is
        # still writing when the reader closes after the first line
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("".join(f"t={i / 8000}\n" for i in range(8000)))
        argv = [sys.executable, "-m", "qiopa.cli", "concurrence", "--config", str(cfg)]
        pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        with subprocess.Popen(argv, env=_source_env(), **pipes) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read()
        assert first == b"# experiment=concurrence\n"
        assert code == EXIT_PIPE
        assert err == b""

    def test_wrong_experiment_in_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment=density\n")
        code, _, err = run_cli(["concurrence", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG

    def test_eta_and_r_together_rejected(self, capsys):
        code, _, err = run_cli(
            ["visibility", "--eta", "0.5", "--R", "0.5", "--g", "1"], capsys
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("loss", [["--eta", "2"], ["--R", "1.5"]])
    def test_out_of_range_eta_rejected(self, loss, capsys):
        # LossParams checks eta, given directly or as 1 - R
        code, out, err = run_cli(["pcrit", "--g", "1"] + loss, capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.count("\n") == 1 and "transmittivity" in err

    def test_large_witness_cutoff_accepted(self, capsys):
        code, out, _ = run_cli(["witness-sigma", "--cutoff", "200"], capsys)
        assert code == EXIT_OK
        assert set(column(out, "cutoff")) == {200.0}

    # required_cutoff rejects a tail tolerance of 0 or nan, and Cutoff a cutoff
    # below 1 or a tail tolerance of 1.5
    @pytest.mark.parametrize("flag, value, name", [
        ("--tail-tol", "0", "tail tolerance"),
        ("--tail-tol", "1.5", "tail tolerance"),
        ("--tail-tol", "nan", "tail tolerance"),
        ("--cutoff", "0", "cutoff"),
    ])
    @pytest.mark.parametrize("experiment", ["visibility", "witness-sigma", "witness-ofilter", "witness-stokes"])
    def test_cutoff_flags_outside_their_range_rejected(self, experiment, flag, value, name, capsys):
        code, out, err = run_cli([experiment, "--g", "1", flag, value], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.count("\n") == 1 and name in err

    @pytest.mark.parametrize("g, name", [("nan", "gain"), ("inf", "gain"), ("-0.5", "gain"), ("abc", "'g'")])
    @pytest.mark.parametrize("experiment", sorted(GAIN_EXPERIMENTS))
    def test_bad_gain_rejected(self, experiment, g, name, capsys):
        code, out, err = run_cli(
            [experiment, f"--g={g}"] + GAIN_EXPERIMENTS[experiment], capsys
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.count("\n") == 1 and name in err

    @pytest.mark.parametrize("experiment", sorted(GAIN_EXPERIMENTS))
    def test_extreme_gain_is_a_numeric_failure(self, experiment, capsys):
        # cosh(800) overflows a float, and no cutoff holds the seeded output
        code, out, err = run_cli([experiment, "--g", "800"] + GAIN_EXPERIMENTS[experiment], capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["visibility", "--g", "1", "--k=0,-1", "--eta", "0.5"],
        ["witness-ofilter", "--g", "1", "--k=0,-1", "--eta", "0.5"],
        ["ofilter-dist", "--k=-1"],
    ])
    def test_negative_threshold_rejected(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.count("\n") == 1 and "threshold" in err

    @pytest.mark.parametrize("p", ["2", "-0.1", "nan"])
    @pytest.mark.parametrize("experiment", ["concurrence", "density"])
    def test_injection_probability_outside_unit_interval_rejected(self, experiment, p, capsys):
        code, out, err = run_cli([experiment, "--g", "1", "--eta", "0.5", f"--p={p}"], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.count("\n") == 1 and "injection probability" in err

    def test_numeric_failure_exit_code(self, capsys):
        code, _, err = run_cli(
            ["visibility", "--g", "0.5", "--eta", "0", "--k", "3"], capsys
        )
        assert code == EXIT_NUMERIC
        assert "inconclusive" in err

    @pytest.mark.parametrize("experiment", ["visibility", "witness-sigma", "witness-ofilter"])
    def test_non_finite_probability_exits_3(self, experiment, monkeypatch, capsys):
        import qiopa.measurement

        # the pseudo-Pauli witness reads sinh g, which its tail gate does not
        # (the gate reads tanh g); the fringe and the
        # threshold-filter witness read the law of the thinned difference
        law = qiopa.measurement._difference_law

        def poisoned_law(*args):
            out = law(*args)
            out[..., 1] = np.nan  # a law is one row per eta
            return out

        if experiment == "witness-sigma":
            monkeypatch.setattr(GainParams, "sinh_g", property(lambda self: math.nan))
        monkeypatch.setattr(qiopa.measurement, "_difference_law", poisoned_law)
        code, out, err = run_cli([experiment, "--g", "0.5", "--eta", "0.5"], capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "non-finite" in err

    def test_memory_error_exits_3_with_one_line(self, monkeypatch, capsys):
        import qiopa.cli

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(qiopa.cli, "_fringe_grid", exhausted)
        code, out, err = run_cli(["visibility", "--g", "0.5", "--R", "0.1"], capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.count("\n") == 1 and "memory ran out" in err

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["teleportation"]) == EXIT_CONFIG


# every parameter flag with a value it accepts
FLAG_VALUES = {
    "--g": "0.7", "--eta": "0.4", "--R": "0.6", "--k": "3", "--p": "0.25", "--t": "0.5",
    "--cutoff": "50", "--tail-tol": "1e-7", "--n": "4", "--m": "2", "--prep-basis": "hv",
    "--basis": "pm",
}
# concurrence leaves its t curve for grids only with a gain and a loss grid
CONCURRENCE_GRIDS = {"g": ["--eta", "0.5"], "eta": ["--g", "1"], "R": ["--g", "1"],
                     "p": ["--g", "1", "--eta", "0.5"]}
FLAG_MATRIX = [(experiment, flag) for experiment in _EXPERIMENTS for flag in FLAG_VALUES]


def flag_key(flag):
    return flag[2:].replace("-", "_")


def takes(experiment, flag):
    return flag_key(flag) in _EXPERIMENTS[experiment][-1]


def resolved(experiment, key, argv):
    """The resolved entries of ``key`` for a run of ``experiment`` with ``argv``."""
    extra = CONCURRENCE_GRIDS.get(key, []) if experiment == "concurrence" else []
    return resolve_config(_parser().parse_args([experiment] + argv + extra)).values[key]


class TestParser:
    def test_every_experiment_takes_only_known_flags(self):
        assert len(FLAG_MATRIX) == 8 * 12
        for _, _, _, allowed in _EXPERIMENTS.values():
            assert allowed <= {flag_key(flag) for flag in FLAG_VALUES}

    @pytest.mark.parametrize("experiment, flag", [pair for pair in FLAG_MATRIX if takes(*pair)])
    def test_flag_the_experiment_takes_reaches_the_config(self, experiment, flag, tmp_path):
        key, value = flag_key(flag), FLAG_VALUES[flag]
        assert resolved(experiment, key, [flag, value]) == [value]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        assert resolved(experiment, key, ["--config", str(cfg)]) == [value]

    @pytest.mark.parametrize("experiment, flag", [pair for pair in FLAG_MATRIX if not takes(*pair)])
    def test_flag_the_experiment_does_not_take_exits_2_with_one_line(
        self, experiment, flag, tmp_path, capsys
    ):
        value = FLAG_VALUES[flag]
        code, out, err = run_cli([experiment, flag, value], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.count("\n") == 1 and f"unrecognized arguments: {flag} ({experiment} takes" in err
        # the same key from a config file meets the same check
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag_key(flag)}={value}\n")
        code, out, err = run_cli([experiment, "--config", str(cfg)], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.count("\n") == 1 and f"unknown parameter {flag_key(flag)!r} for {experiment}" in err

    @pytest.mark.parametrize("experiment", sorted(_EXPERIMENTS))
    def test_help_names_every_flag_of_the_experiment(self, experiment, capsys):
        code, out, err = run_cli([experiment, "--help"], capsys)
        assert (code, err) == (EXIT_OK, "")
        lines = out.splitlines()
        (row,) = [i for i, line in enumerate(lines) if line.split()[:1] == [experiment]]
        want = [flag for flag in FLAG_VALUES if takes(experiment, flag)]
        assert lines[row + 1].split() == want
        for flag in FLAG_VALUES:
            assert f"  {flag} " in out

    def test_build_parser_constructs_one_argument_parser(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        parser = build_parser()
        assert built == [parser]

    @pytest.mark.parametrize("argv", [
        ["visibility", "--t", "0.5", "--g", "0.5", "--R", "0.2"],  # once --tail-tol
        ["ofilter-dist", "--p", "hv"],  # once --prep-basis
    ])
    def test_a_flag_of_another_experiment_is_no_abbreviation(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.count("\n") == 1 and f"unrecognized arguments: {argv[1]} " in err

    @pytest.mark.parametrize("prefix", ["--tail", "--cut", "--prep", "--form", "--conf"])
    def test_prefixes_are_not_flags(self, prefix, capsys):
        code, out, err = run_cli(["visibility", prefix, "1"], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"unrecognized arguments: {prefix} 1" in err

    def test_experiment_may_follow_its_flags(self, capsys):
        flags = ["--g", "0.5", "--R", "0.2", "--k", "1"]
        code, after, _ = run_cli(["visibility"] + flags, capsys)
        assert code == EXIT_OK
        code, before, _ = run_cli(flags + ["visibility"], capsys)
        assert code == EXIT_OK and before == after


class TestExperiments:
    def test_concurrence_t_grid_matches_formula(self, capsys):
        code, out, _ = run_cli(["concurrence", "--t", "0,0.3,0.6,0.9"], capsys)
        assert code == EXIT_OK
        ts = column(out, "t")
        cs = column(out, "C")
        for t, c in zip(ts, cs):
            assert c == pytest.approx((1 - t * t) / (1 + 3 * t * t), abs=1e-12)

    def test_concurrence_gain_grids(self, capsys):
        code, out, _ = run_cli(
            ["concurrence", "--g", "1.0", "--eta", "0.2", "--p", "1,0.5"], capsys
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header[:3] == ["g", "eta", "R"]
        assert len(rows) == 2

    def test_visibility_trend_at_figure_scale(self, capsys):
        # the fringe contrast at k = 0 decays visibly over the loss range,
        # and every row echoes both eta and R
        code, out, _ = run_cli(
            ["visibility", "--g", "1.8", "--k", "0", "--R",
             "0.2,0.4,0.6,0.8,0.95"],
            capsys,
        )
        assert code == EXIT_OK
        vs = column(out, "V")
        assert all(b < a for a, b in zip(vs, vs[1:]))
        etas = column(out, "eta")
        rs = column(out, "R")
        assert all(e + r == pytest.approx(1.0) for e, r in zip(etas, rs))

    def test_visibility_finite_where_binomials_overflow(self, capsys):
        # cutoff 1189: C(n, a) alone overflows a float above n of about 1030
        code, out, _ = run_cli(["visibility", "--g", "2.3", "--k", "0"], capsys)
        assert code == EXIT_OK
        for name in ("P_plus", "P_minus", "P_zero", "V"):
            assert np.all(np.isfinite(column(out, name)))
        v = dict(zip(column(out, "R"), column(out, "V")))[0.1]
        assert abs(v - 0.640570589792) < 1e-9

    def test_witness_sigma_curves_ordered_in_gain(self, capsys):
        code, out, _ = run_cli(
            ["witness-sigma", "--g", "0.3,0.9,1.5", "--eta", "1,0.7", "--cutoff", "24"],
            capsys,
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        s = column(out, "S")
        etas = column(out, "eta")
        at_one = [v for v, e in zip(s, etas) if e == 1.0]
        at_07 = [v for v, e in zip(s, etas) if e == 0.7]
        assert all(v == pytest.approx(3.0, abs=1e-6) for v in at_one)
        assert at_07[0] > at_07[1] > at_07[2]  # higher gain decays faster

    def test_witness_sigma_default_cutoff_is_converged(self, capsys):
        code, out, _ = run_cli(["witness-sigma", "--g", "1.5", "--eta", "0.8"], capsys)
        assert code == EXIT_OK
        assert column(out, "cutoff") == [239.0]
        assert abs(column(out, "S")[0] - 0.522500141) < 1e-8

    def test_witness_sigma_runs_at_high_gain(self, capsys):
        # the cutoff only gates the tail; the terms are in closed form
        for g, n_max in (("4", 35681.0), ("5", 263653.0)):
            code, out, _ = run_cli(["witness-sigma", "--g", g], capsys)
            assert code == EXIT_OK
            assert set(column(out, "cutoff")) == {n_max}
            s = dict(zip(column(out, "eta"), column(out, "S")))
            assert len(s) == 21
            assert s[1.0] == 3.0
            header, rows = parse_csv(out)
            (lost,) = [r for r in rows if float(r[header.index("eta")]) == 0.0]
            assert [lost[header.index(name)] for name in ("term_1", "term_2", "term_3", "S")] == ["0"] * 4

    def test_tight_tail_runs_on_the_cutoff_it_resolves(self, capsys):
        # the cutoff rule and the tail gate read the same closed-form tail, so
        # a tail that rounding in a summed mass would exceed still passes
        code, out, _ = run_cli(["witness-sigma", "--g", "4", "--eta", "1", "--tail-tol", "1e-12"], capsys)
        assert code == EXIT_OK
        assert column(out, "S") == [3.0]
        code, out, _ = run_cli(["witness-stokes", "--g", "3.5", "--tail-tol", "1e-12"], capsys)
        assert code == EXIT_OK
        assert column(out, "value") == [2.0 * eta for eta in column(out, "eta")]

    @pytest.mark.parametrize("experiment, g", [("witness-sigma", 4.0), ("witness-stokes", 3.5)])
    def test_undersized_cutoff_exits_3_with_one_line(self, experiment, g, capsys):
        # a CutoffError is a ValueError, and still a numeric failure
        n_max = required_cutoff(GainParams(g), 1e-12) - 2
        args = [experiment, "--g", str(g), "--eta", "1", "--cutoff", str(n_max), "--tail-tol", "1e-12"]
        code, out, err = run_cli(args, capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.count("\n") == 1 and f"cutoff {n_max} keeps tail mass" in err
        # the tail sits just above the tolerance, and the line shows by how much
        match = re.search(r"keeps tail mass (\S+) at .* above the allowed (\S+)$", err.strip())
        assert float(match[1]) > float(match[2]) == 1e-12

    def test_witness_ofilter_default_cutoff_is_converged(self, capsys):
        code, out, _ = run_cli(
            ["witness-ofilter", "--g", "1.2", "--eta", "0.75", "--k", "0"], capsys
        )
        assert code == EXIT_OK
        assert column(out, "cutoff") == [131.0]
        assert abs(column(out, "term_1")[0] - (-0.455688815)) < 1e-8

    def test_witness_ofilter_exceeds_bound_with_loss(self, capsys):
        code, out, _ = run_cli(
            ["witness-ofilter", "--g", "1.2", "--k", "1", "--eta", "0.7",
             "--cutoff", "30"],
            capsys,
        )
        assert code == EXIT_OK
        assert column(out, "S")[0] > 1.0

    def test_witness_stokes_hits_two_eta(self, capsys):
        code, out, _ = run_cli(
            ["witness-stokes", "--g", "0.3,0.6", "--eta", "0,0.25,0.75"], capsys
        )
        assert code == EXIT_OK
        etas = column(out, "eta")
        values = column(out, "value")
        for eta, value in zip(etas, values):
            assert value == pytest.approx(2 * eta, abs=1e-6)

    def test_witness_stokes_at_high_gain_forms_no_state(self, capsys):
        # the joint state at g = 2.5 (cutoff 1775) would take hundreds of MB,
        # and at g = 5 (cutoff 263,653) far more
        for g, n_max in (("2.5", 1775.0), ("5", 263653.0)):
            tracemalloc.start()
            try:
                code, out, _ = run_cli(["witness-stokes", "--g", g, "--eta", "0,0.5,1"], capsys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
            assert peak < 10e6
            assert set(column(out, "cutoff")) == {n_max}
            etas = column(out, "eta")
            assert etas == [0.0, 0.5, 1.0]
            for eta, value in zip(etas, column(out, "value")):
                assert value == pytest.approx(2 * eta, abs=1e-9)

    @pytest.mark.parametrize("experiment", ["visibility", "witness-ofilter"])
    def test_fft_beyond_the_bound_exits_3_before_allocating(self, experiment, capsys):
        # g = 7 needs cutoff 14,395,009 and an FFT of 2**25 entries, about
        # 4 GB at peak; the run stops after the tail gate, before any array
        tracemalloc.start()
        try:
            code, out, err = run_cli([experiment, "--g", "7"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.count("\n") == 1 and "FFT of length 33554432" in err
        assert peak < 1e6

    @pytest.mark.parametrize("experiment", ["witness-ofilter", "visibility"])
    def test_threshold_grid_rows_equal_separate_runs(self, experiment, capsys):
        # one law per gain serves every threshold of the grid
        grid = ["--g", "1.2,4", "--eta", "0.05,0.35,1"]  # eta = 0 leaves V undefined at k = 2
        code, out, _ = run_cli([experiment, "--k", "0,2"] + grid, capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        separate = {}
        for k in ("0", "2"):
            code, single, _ = run_cli([experiment, "--k", k] + grid, capsys)
            assert code == EXIT_OK
            separate[k] = parse_csv(single)
            assert separate[k][0] == header
        k_col = header.index("k")
        want = [row for g in ("1.2", "4") for k in ("0", "2")
                for row in separate[k][1] if row[header.index("g")] == g]
        assert len(rows) == 12 and {row[k_col] for row in rows} == {"0", "2"}
        assert rows == want

    def test_pcrit_scan_matches_closed_form(self, capsys):
        code, out, _ = run_cli(["pcrit", "--g", "0.5,1.5", "--eta", "0.01"], capsys)
        assert code == EXIT_OK
        closed = column(out, "p_crit")
        scanned = column(out, "p_crit_scan")
        for a, b in zip(closed, scanned):
            assert abs(a - b) < 1e-4

    # pcrit's scan values are dyadic midpoints, and the other four are pure
    # Python or elementwise numpy, so these bytes do not drift with the BLAS.
    # visibility and witness-ofilter (FFT) and ofilter-dist (eigh) may, so
    # they are not pinned
    @pytest.mark.parametrize("experiment, digest", [
        ("pcrit", "6fcaa75e5c5c6da0b7aec789fd636a12a4d94bab17a5c29750af1e71ccdf40b0"),
        ("witness-sigma", "f1cfb7180e46ea10f66b68fab7bb00e77d0a17e5383935c7a75e191169069d41"),
        ("witness-stokes", "c6d8044216d6e6103813279bb75b611d6f811ffa932959a57b06648c0845ea59"),
        ("concurrence", "b6582238ce0ac9a4c686e0886ea78aa5b2cd6645f63650cf7b0dfb27d7efd8b2"),
        ("density", "bba1fa4e301b8381d389dde20a64f52e5cbb14ed504cbffe352d34d4609103d7"),
    ])
    def test_default_output_is_pinned(self, experiment, digest, capsys):
        code, out, _ = run_cli([experiment], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_ofilter_dist_binomial(self, capsys):
        code, out, _ = run_cli(
            ["ofilter-dist", "--n", "10", "--m", "0", "--basis", "rl", "--k", "5"],
            capsys,
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        probs = {int(r[0]): float(r[2]) for r in rows}
        for r in range(11):
            assert probs[r] == pytest.approx(math.comb(10, r) / 1024.0, abs=1e-12)
        outcomes = {int(r[0]): int(r[3]) for r in rows}
        assert outcomes[10] == 1 and outcomes[0] == -1 and outcomes[5] == 0

    def test_ofilter_dist_same_basis_is_point_mass(self, capsys):
        code, out, _ = run_cli(
            ["ofilter-dist", "--n", "3", "--m", "1", "--basis", "pm", "--k", "0"],
            capsys,
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        probs = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        assert probs[(3, 1)] == pytest.approx(1.0, abs=1e-12)

    def test_ofilter_dist_arbitrary_equatorial_basis(self, capsys):
        code, out, _ = run_cli(
            ["ofilter-dist", "--n", "2", "--m", "0", "--basis", "eq:0.7", "--k", "1"],
            capsys,
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        total = sum(float(r[2]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-12)
        code, _, err = run_cli(
            ["ofilter-dist", "--n", "2", "--m", "0", "--basis", "diag", "--k", "1"],
            capsys,
        )
        assert code == EXIT_CONFIG

    def test_ofilter_dist_unitary_in_a_120_photon_sector(self, capsys):
        code, out, _ = run_cli(
            ["ofilter-dist", "--n", "60", "--m", "60", "--prep-basis", "pm", "--basis", "rl", "--k", "5"],
            capsys,
        )
        assert code == EXIT_OK
        assert sum(column(out, "probability")) == pytest.approx(1.0, abs=1e-10)

    def test_density_default_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            ["density", "--g", "3", "--eta", "0.0001", "--p", "1"], capsys
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        want = attenuated_state_with_injection(
            InjectionParams(1.0), GainParams(3.0), LossParams(1e-4)
        )
        got = np.zeros((4, 4), dtype=complex)
        for r in rows:
            got[int(r[0]), int(r[1])] = float(r[2]) + 1j * float(r[3])
        assert np.max(np.abs(got - want)) < 1e-12
        assert "# basis_order=HH,HV,VH,VV" in out

    def test_density_zero_injection_is_diagonal(self, capsys):
        code, out, _ = run_cli(
            ["density", "--g", "2", "--eta", "0.001", "--p", "0"], capsys
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        for r in rows:
            if int(r[0]) != int(r[1]):
                assert float(r[2]) == 0.0 and float(r[3]) == 0.0

    # at eta = 0 and p = 2.2e-313 the trace is subnormal and 1 / trace
    # overflows, so the state must be divided by the trace itself
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("loss", [["--eta", "0.3"], ["--eta", "0", "--p", "2.2e-313"]])
    def test_density_singlet_at_zero_t(self, loss, capsys):
        code, out, _ = run_cli(["density", "--g", "0"] + loss, capsys)
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        got = np.zeros((4, 4))
        for r in rows:
            got[int(r[0]), int(r[1])] = float(r[2])
        v = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
        assert np.max(np.abs(got - np.outer(v, v))) < 1e-12

    def test_density_experiment_entry_point(self):
        cfg = RunConfig(
            "density", {"g": ["1.5"], "eta": ["0.01"], "p": ["0.8"]}, None, "csv"
        )
        meta, columns, rows = run_experiment(cfg)
        assert meta["basis_order"] == "HH,HV,VH,VV"
        assert columns == ["row", "col", "re", "im"]
        want = attenuated_state_with_injection(
            InjectionParams(0.8), GainParams(1.5), LossParams(0.01)
        )
        got = np.zeros((4, 4), dtype=complex)
        for i, j, re, im in rows:
            got[i, j] = re + 1j * im
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("experiment", sorted(_EXPERIMENTS))
def test_default_run_is_finite(experiment, capsys):
    code, out, _ = run_cli([experiment], capsys)
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert rows
    for row in rows:
        assert len(row) == len(header)
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), (experiment, row)


def test_import_defers_scipy_optimize():
    # scipy.optimize takes about as long to import as the rest of the CLI, and
    # only generalized_dichotomic_bound needs it
    import qiopa

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qiopa.__file__))}
    code = "import sys, qiopa.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _source_env():
    """Environment in which a fresh interpreter imports this checkout's qiopa."""
    import qiopa

    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qiopa.__file__))}


@pytest.mark.parametrize("module", ["qiopa", "qiopa.cli"])
def test_import_loads_no_scipy(module):
    # importing qiopa needs only numpy; generalized_dichotomic_bound loads
    # scipy.optimize when it is called
    code = f"import sys, {module}; print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=_source_env(), capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == ""
