import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qiopa import (
    GainParams,
    InjectionParams,
    LossParams,
    analytic_concurrence,
    attenuate_to_single_photon,
    attenuated_state_with_injection,
    coherence_parameter,
    concurrence_2x2,
    concurrence_with_injection,
    conditioning_cutoff,
    critical_injection_probability,
    critical_injection_scan,
    micro_macro_state_hv,
    partial_transpose,
    ppt_test,
)
from qiopa import metrics
from qiopa.channels import _injection_weights, _seeded_conditional_matrix
from qiopa.fock import ConditioningError

SINGLET = np.outer(
    np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2),
    np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2),
)


class TestConcurrence:
    def test_singlet(self):
        assert concurrence_2x2(SINGLET).concurrence == pytest.approx(1.0, abs=1e-12)

    def test_product_states(self):
        for rho in (np.diag([1.0, 0, 0, 0]), np.diag([0, 1.0, 0, 0])):
            assert concurrence_2x2(rho).concurrence == 0.0

    def test_attenuated_matrix_follows_the_closed_form(self):
        for g_val in (0.5, 1.5, 3.0):
            for eta in (1e-4, 0.2, 0.9):
                gain, loss = GainParams(g_val), LossParams(eta)
                rho = attenuated_state_with_injection(InjectionParams(1.0), gain, loss)
                t2 = coherence_parameter(gain, loss) ** 2
                want = (1.0 - t2) / (1.0 + 3.0 * t2)
                assert concurrence_2x2(rho).concurrence == pytest.approx(want, abs=1e-12)

    def test_rejects_nonphysical_input(self):
        with pytest.raises(ValueError):
            concurrence_2x2(np.eye(4))  # trace 4
        bad = np.diag([1.2, 0.2, -0.2, -0.2])
        with pytest.raises(ValueError):
            concurrence_2x2(bad)
        skew = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        skew[0, 1] = 0.3j
        with pytest.raises(ValueError):
            concurrence_2x2(skew)

    def test_surviving_fraction_reported(self):
        rep = concurrence_2x2(SINGLET, params={"eta": 0.5})
        assert rep.surviving_fraction == pytest.approx(rep.concurrence / 0.25)


class TestAnalyticConcurrence:
    def test_limits(self):
        assert analytic_concurrence(GainParams(0.0), LossParams(0.3)) == 1.0
        assert analytic_concurrence(GainParams(5.0), LossParams(1.0)) == 1.0
        near_one = analytic_concurrence(GainParams(12.0), LossParams(1e-9))
        assert near_one == pytest.approx(0.0, abs=1e-6)

    def test_always_positive(self):
        for g_val in (0.5, 2.0, 6.0):
            for eta in (1e-6, 1e-3, 0.5):
                assert analytic_concurrence(GainParams(g_val), LossParams(eta)) > 0.0

    def test_matches_numeric_pipeline(self):
        for g_val, eta in ((0.5, 0.1), (1.0, 0.01), (1.2, 0.5)):
            gain, loss = GainParams(g_val), LossParams(eta)
            cut = conditioning_cutoff(gain, loss, 1e-8)
            rho = attenuate_to_single_photon(micro_macro_state_hv(gain, cut), loss)
            numeric = concurrence_2x2(rho).concurrence
            assert numeric == pytest.approx(analytic_concurrence(gain, loss), abs=1e-8)

    def test_high_gain_proportionality(self):
        # the loss-linear part of the concurrence approaches eta / 2 at high
        # gain; at finite g the constant entanglement floor
        # (1-tanh^2 g) / (1+3 tanh^2 g) = 1 / (1 + 4 sinh^2 g) must be
        # subtracted before comparing (its high-gain form is (1-tanh^2 g) / 4)
        gain = GainParams(4.0)
        floor = analytic_concurrence(gain, LossParams(0.0))
        for eta in (1e-4, 1e-3, 1e-2):
            slope_ratio = (analytic_concurrence(gain, LossParams(eta)) - floor) / (eta / 2.0)
            assert 0.95 < slope_ratio < 1.05
        # at very high gain the floor is negligible and the raw ratio works
        gain12 = GainParams(12.0)
        for eta in (1e-4, 1e-3, 1e-2):
            ratio = analytic_concurrence(gain12, LossParams(eta)) / (eta / 2.0)
            assert 0.95 < ratio < 1.05


    @pytest.mark.parametrize("eta", [1e-4, 1e-3, 1e-2])
    def test_high_gain_window_at_g5(self, eta):
        # criterion 2's window at the cited experiment's gain, where the
        # closed form's loss-linear part is 1.00019, 1.00109 and 1.0102 of
        # eta / 2, and the single-survivor route runs at cutoffs of 2,877 to
        # 152,755 photons
        gain, loss = GainParams(5.0), LossParams(eta)
        closed = analytic_concurrence(gain, loss)
        floor = analytic_concurrence(gain, LossParams(0.0))
        assert 0.95 <= (closed - floor) / (eta / 2.0) <= 1.05
        state = micro_macro_state_hv(gain, conditioning_cutoff(gain, loss))
        numeric = concurrence_2x2(attenuate_to_single_photon(state, loss)).concurrence
        assert numeric == pytest.approx(closed, rel=1e-10)


class TestInjectionConcurrence:
    def test_perfect_injection_limit(self):
        gain, loss = GainParams(1.3), LossParams(0.4)
        assert concurrence_with_injection(
            gain, loss, InjectionParams(1.0)
        ) == pytest.approx(analytic_concurrence(gain, loss), abs=1e-14)

    def test_zero_injection(self):
        assert concurrence_with_injection(
            GainParams(1.0), LossParams(0.3), InjectionParams(0.0)
        ) == 0.0

    def test_matches_brute_force_on_the_closed_form_matrix(self):
        # the closed form must reproduce the spin-flip concurrence of the
        # mixed-injection matrix itself; this pins the sinh*cosh reading of
        # the incoherent-term weight
        for g_val in (0.5, 1.0, 2.0):
            for eta in (1e-3, 0.2, 0.6):
                for p in (0.95, 0.7, 0.4, 0.1):
                    gain, loss = GainParams(g_val), LossParams(eta)
                    rho = attenuated_state_with_injection(InjectionParams(p), gain, loss)
                    brute = concurrence_2x2(rho).concurrence
                    closed = concurrence_with_injection(gain, loss, InjectionParams(p))
                    assert closed == pytest.approx(brute, abs=1e-12)

    def test_continuous_at_the_critical_probability(self):
        gain, loss = GainParams(1.5), LossParams(0.1)
        p_crit = critical_injection_probability(gain, loss)
        below = concurrence_with_injection(gain, loss, InjectionParams(p_crit * 0.999))
        at = concurrence_with_injection(gain, loss, InjectionParams(p_crit))
        above = concurrence_with_injection(gain, loss, InjectionParams(min(1.0, p_crit * 1.001)))
        assert below == 0.0
        assert at == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < above < 1e-2

    def test_lower_injection_dies_at_lower_gain(self):
        # at eta = 1e-4 the concurrence-vs-gain curves are ordered in p and
        # the gain where each hits zero shrinks with p
        loss = LossParams(1e-4)
        gs = np.linspace(0.0, 4.0, 81)
        death = {}
        for p in (1.0, 0.5, 0.25, 0.05):
            curve = [
                concurrence_with_injection(GainParams(g), loss, InjectionParams(p))
                for g in gs
            ]
            death[p] = gs[np.argmax(np.array(curve) == 0.0)] if 0.0 in curve else np.inf
            if p < 1.0:
                prev = [
                    concurrence_with_injection(
                        GainParams(g), loss, InjectionParams(min(1.0, p * 2))
                    )
                    for g in gs
                ]
                assert all(a <= b + 1e-12 for a, b in zip(curve, prev))
        assert death[0.05] < death[0.25] < death[0.5]
        assert death[1.0] == np.inf  # perfect injection never dies


def ppt_bisection(gain, loss, tol):
    """Plain bisection of the PPT verdict over ``p``, one matrix at a time."""
    def npt(p):
        try:
            rho = attenuated_state_with_injection(InjectionParams(p), gain, loss)
        except ConditioningError:
            return False
        return not ppt_test(rho, (2, 2)).separable

    lo, hi = 0.0, 1.0
    if npt(lo):
        return 0.0
    if not npt(hi):
        return 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if npt(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


INJECTION_PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestCriticalInjection:
    def test_zero_gain_is_exactly_zero(self):
        assert critical_injection_probability(GainParams(0.0), LossParams(0.5)) == 0.0

    def test_grows_towards_one_with_gain(self):
        loss = LossParams(1e-4)
        values = [
            critical_injection_probability(GainParams(g), loss) for g in (1, 2, 3, 4)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.99

    def test_closed_form_matches_ppt_bisection(self):
        gain, loss = GainParams(1.0), LossParams(0.01)
        closed = critical_injection_probability(gain, loss)
        scanned = critical_injection_scan(gain, loss, tol=1e-7)
        assert abs(closed - scanned) < 1e-4

    @pytest.mark.parametrize("g", [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    @pytest.mark.parametrize("eta", [0.0, 1e-4, 1e-3, 1e-2, 0.3, 1.0])
    @pytest.mark.parametrize("tol", [1e-6, 3e-4, 0.2, 2.0])
    def test_stacked_scan_is_the_plain_bisection(self, g, eta, tol):
        gain, loss = GainParams(g), LossParams(eta)
        scanned = critical_injection_scan(gain, loss, tol)
        assert type(scanned) is float
        assert scanned == ppt_bisection(gain, loss, tol)

    def test_scan_diagonalizes_one_matrix(self, monkeypatch):
        shapes, spectra = [], metrics._pt_spectra
        monkeypatch.setattr(metrics, "_pt_spectra", lambda rho, dims: shapes.append(rho.shape) or spectra(rho, dims))
        critical_injection_scan(GainParams(2.0), LossParams(1e-3), tol=1e-6)
        assert shapes == [(4, 4)]

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_scan_rejects_a_tolerance_that_is_not_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            critical_injection_scan(GainParams(1.0), LossParams(0.01), tol)

    def test_scan_below_the_float_spacing_ends(self):
        # p_crit is within 1e-7 of 1 here, where adjacent floats are 1.1e-16 apart
        gain, loss = GainParams(8.0), LossParams(0.0)
        scanned = critical_injection_scan(gain, loss, tol=1e-300)
        assert abs(scanned - critical_injection_scan(gain, loss, tol=1e-15)) <= 1e-15
        assert abs(scanned - critical_injection_probability(gain, loss)) < 1e-7

    @INJECTION_PROPERTY
    @given(g=st.floats(0.0, 6.0), eta=st.floats(0.0, 1.0), p=st.floats(0.0, 1.0))
    def test_attenuated_spectrum_is_affine_in_the_seeded_spectrum(self, g, eta, p):
        # the scan's identity: spec PT(a S + b I) / tr = (a spec PT(S) + b) / tr
        gain, loss = GainParams(g), LossParams(eta)
        t = coherence_parameter(gain, loss)
        seeded = _seeded_conditional_matrix(t)
        a, b = _injection_weights(p, gain, t)
        trace = a * np.trace(seeded).real + 4.0 * b
        # subnormal weights keep too few bits for the bound: 0.17 at
        # g = 4.77, eta = 1, p = 3e-320
        assume(trace >= np.finfo(float).tiny)
        affine = (a * metrics._pt_spectra(seeded, (2, 2)) + b) / trace
        rho = attenuated_state_with_injection(InjectionParams(p), gain, loss)
        direct = metrics._pt_spectra(rho, (2, 2))
        assert np.max(np.abs(affine - direct)) <= 1e-14


class TestPpt:
    def test_singlet_negativity_one_half(self):
        rep = ppt_test(SINGLET, (2, 2))
        assert not rep.separable
        assert rep.negativity == pytest.approx(0.5, abs=1e-12)
        assert rep.eigenvalues[0] == pytest.approx(-0.5, abs=1e-12)

    def test_attenuated_state_entangled_for_all_gains(self):
        for g_val in (0.5, 2.0, 4.0):
            rho = attenuated_state_with_injection(
                InjectionParams(1.0), GainParams(g_val), LossParams(1e-3)
            )
            assert not ppt_test(rho, (2, 2)).separable

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ppt_test(np.eye(6) / 6.0, (2, 2))

    def test_partial_transpose_is_an_involution(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        pt = partial_transpose(rho, (2, 3))
        assert np.max(np.abs(partial_transpose(pt, (2, 3)) - rho)) < 1e-14

    def test_partial_transpose_acts_on_each_matrix_of_a_stack(self):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6))
        pts = partial_transpose(stack, (3, 2))
        for rho, pt in zip(stack, pts):
            assert np.array_equal(pt, partial_transpose(rho, (3, 2)))

    def test_agrees_with_concurrence_on_random_two_qubit_states(self):
        rng = np.random.default_rng(47)
        seen_entangled = seen_separable = 0
        for _ in range(200):
            rank = rng.integers(1, 5)
            a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            conc = concurrence_2x2(rho).concurrence
            rep = ppt_test(rho, (2, 2))
            if conc > 1e-9:
                assert not rep.separable
                seen_entangled += 1
            if rep.negativity > 1e-9:
                assert conc > 0.0
            if rep.separable and conc == 0.0:
                seen_separable += 1
        assert seen_entangled > 10 and seen_separable > 10
