import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qiopa import GainParams, InjectionParams, LossParams, attenuated_state_with_injection
from qiopa.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    RunConfig,
    main,
    run_experiment,
)


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

    def test_out_of_range_eta_rejected(self, capsys):
        code, _, _ = run_cli(["pcrit", "--eta", "2", "--g", "1"], capsys)
        assert code == EXIT_CONFIG

    def test_oversized_witness_cutoff_rejected(self, capsys):
        code, _, err = run_cli(["witness-sigma", "--cutoff", "200"], capsys)
        assert code == EXIT_CONFIG

    def test_numeric_failure_exit_code(self, capsys):
        code, _, err = run_cli(
            ["visibility", "--g", "0.5", "--eta", "0", "--k", "3"], capsys
        )
        assert code == EXIT_NUMERIC
        assert "inconclusive" in err

    @pytest.mark.parametrize("experiment", ["visibility", "witness-sigma"])
    def test_non_finite_probability_exits_3(self, experiment, monkeypatch, capsys):
        import qiopa.measurement
        import qiopa.witnesses

        kernel = qiopa.measurement._binomial_thinning_kernel

        def poisoned(n_max, eta):
            out = kernel(n_max, eta).copy()
            out[:, 1] = np.nan
            return out

        for module in (qiopa.measurement, qiopa.witnesses):
            monkeypatch.setattr(module, "_binomial_thinning_kernel", poisoned)
        code, out, err = run_cli([experiment, "--g", "0.5", "--eta", "0.5"], capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "non-finite" in err

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["teleportation"]) == EXIT_CONFIG


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

    def test_pcrit_scan_matches_closed_form(self, capsys):
        code, out, _ = run_cli(["pcrit", "--g", "0.5,1.5", "--eta", "0.01"], capsys)
        assert code == EXIT_OK
        closed = column(out, "p_crit")
        scanned = column(out, "p_crit_scan")
        for a, b in zip(closed, scanned):
            assert abs(a - b) < 1e-4

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

    def test_density_singlet_at_zero_t(self, capsys):
        code, out, _ = run_cli(["density", "--g", "0", "--eta", "0.3"], capsys)
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


def test_import_defers_scipy_optimize():
    # scipy.optimize takes about as long to import as the rest of the CLI, and
    # only generalized_dichotomic_bound needs it
    import qiopa

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qiopa.__file__))}
    code = "import sys, qiopa.cli; sys.exit('scipy.optimize' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
