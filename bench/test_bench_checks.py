"""The benchmark's output checks: each one accepts a correct row and rejects
a perturbed one, and the independent fringe build reproduces hand-worked
values.  Fast and free of qiopa; the workload modules themselves are named
so that pytest does not collect them."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402


def _csv(columns, rows):
    lines = ["# experiment=test", "# columns: " + " ".join(columns), ",".join(columns)]
    lines += [",".join(repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _sigma_rows():
    rows = []
    for g, mid in ((0.0, 1.5), (1.2, 1.1)):
        for eta, s in ((0.0, 0.0), (0.5, mid), (1.0, 3.0)):
            rows.append({"eta": eta, "g": g, "S": s, "cutoff": 40.0})
    return rows


def test_read_csv_skips_metadata_and_keeps_unknown_columns():
    text = _csv(["R", "eta", "S", "tail_mass", "delta"], [(0.0, 1.0, 3.0, 1e-9, 0.0)])
    (row,) = checks.read_csv(text)
    assert row == {"R": 0.0, "eta": 1.0, "S": 3.0, "tail_mass": 1e-9, "delta": 0.0}


def test_sigma_check_accepts_correct_rows_and_extra_columns():
    rows = _sigma_rows()
    for row in rows:
        row["tail_mass"] = 0.25
    assert checks.check_sigma(rows) == []


@pytest.mark.parametrize("index, value", [
    (2, 3.0 + 1e-8),   # S(eta=1) != 3
    (3, 1e-8),         # S(eta=0) != 0
    (1, 1.5 + 1e-8),   # zero gain: S != 3 eta
    (4, 3.5),          # not non-decreasing in eta
])
def test_sigma_check_rejects_perturbed_row(index, value):
    rows = _sigma_rows()
    rows[index]["S"] = value
    assert checks.check_sigma(rows)


def test_ofilter_check():
    rows = [{"eta": e, "g": 0.0, "k": 0.0, "S": 3.0 * e} for e in (0.0, 0.4, 1.0)]
    rows += [{"eta": e, "g": 1.2, "k": 2.0, "S": s} for e, s in ((0.0, 0.0), (0.4, 0.2), (1.0, 0.9))]
    assert checks.check_ofilter(rows) == []
    for index, value in ((1, 1.2 + 1e-8), (3, 1e-8), (5, 0.1)):
        bad = [dict(r) for r in rows]
        bad[index]["S"] = value
        assert checks.check_ofilter(bad), (index, value)


def test_stokes_check():
    rows = [{"eta": e, "g": 1.0, "value": 2.0 * e} for e in (0.0, 0.3, 1.0)]
    assert checks.check_stokes(rows) == []
    rows[2]["value"] = 1.99375
    assert checks.check_stokes(rows)


def test_fringe_reference_single_photon_by_hand():
    # zero gain leaves |1, 0>: the photon survives with probability eta
    for k in (0, 1):
        p_plus, p_minus, p_zero, v = checks.fringe_reference(0.0, 5, k, 0.3)
        assert p_plus == pytest.approx(0.3 if k == 0 else 0.0, abs=1e-15)
        assert p_minus == pytest.approx(0.0, abs=1e-15)
        assert p_zero == pytest.approx(0.7 if k == 0 else 1.0, abs=1e-15)
        assert (v == 1.0) if k == 0 else math.isnan(v)


def test_fringe_reference_three_photon_cutoff_by_hand():
    # |1,0>, |3,0> and |1,2> with weights 1 : 3x/2 : x/2, x = tanh^2 g
    g, eta = 1.0, 0.5
    x = math.tanh(g) ** 2
    norm = 1.0 + 2.0 * x
    p_plus, p_minus, p_zero, v = checks.fringe_reference(g, 3, 0, eta)
    # |1,0>: 1/2 conclusive +; |3,0>: 7/8 +; |1,2>: 1/8 + and 1/2 -
    want_plus = (0.5 + 1.5 * x * 7 / 8 + 0.5 * x / 8) / norm
    want_minus = 0.5 * x * 0.5 / norm
    assert p_plus == pytest.approx(want_plus, rel=1e-13)
    assert p_minus == pytest.approx(want_minus, rel=1e-13)
    assert p_zero == pytest.approx(1.0 - want_plus - want_minus, rel=1e-13)
    assert v == pytest.approx((want_plus - want_minus) / (want_plus + want_minus), rel=1e-13)
    # no loss, threshold 1: only |3,0> is conclusive
    p_plus, p_minus, _, _ = checks.fringe_reference(g, 3, 1, 1.0)
    assert p_plus == pytest.approx(1.5 * x / norm, rel=1e-13)
    assert p_minus == pytest.approx(0.0, abs=1e-15)


def _fringe_case():
    expected, rows = [], []
    for k in (0, 2):
        for r in (0.0, 0.4):
            ref = checks.fringe_reference(1.0, 9, k, 1.0 - r)
            expected.append((k, r, ref))
            rows.append(dict(zip(("P_plus", "P_minus", "P_zero", "V"), ref), R=r, eta=1.0 - r, k=float(k)))
    return rows, expected


def test_fringe_check_accepts_independent_rows():
    rows, expected = _fringe_case()
    assert checks.check_fringe(rows, expected) == []


@pytest.mark.parametrize("index, column, delta", [
    (1, "P_plus", 1e-8),    # differs from the independent build (and sum != 1)
    (3, "V", 1e-8),         # visibility differs
    (0, "R", 0.1),          # row for another loss
])
def test_fringe_check_rejects_perturbed_row(index, column, delta):
    rows, expected = _fringe_case()
    rows[index][column] += delta
    assert checks.check_fringe(rows, expected)


def test_fringe_check_rejects_inconclusive_events_without_loss():
    rows, expected = _fringe_case()
    rows[0]["P_zero"] += 1e-6
    rows[0]["P_plus"] -= 1e-6
    problems = checks.check_fringe(rows, expected)
    assert any("without loss" in p for p in problems)


def test_concurrence_checks():
    g, eta = 4.0, 1e-3
    t2 = ((1.0 - eta) * math.tanh(g)) ** 2
    c = (1.0 - t2) / (1.0 + 3.0 * t2)
    assert checks.check_concurrence(g, eta, c) == []
    assert checks.check_concurrence(g, eta, c + 1e-8)
    # a concurrence off by a fifth of eta leaves the high-gain window
    assert any("outside" in p for p in checks.check_concurrence(g, eta, c + 0.2 * eta))
    p = 0.9995
    c_inj = checks.injection_concurrence(g, eta, p)
    assert c_inj > 0.0
    assert checks.check_injection(g, eta, p, c_inj) == []
    assert checks.check_injection(g, eta, p, c_inj + 1e-8)
    p_crit = checks.critical_injection(g, eta)
    assert checks.injection_concurrence(g, eta, p_crit) == 0.0
    assert checks.check_pcrit(g, eta, p_crit + 5e-7) == []
    assert checks.check_pcrit(g, eta, p_crit + 2e-6)
