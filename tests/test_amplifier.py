import math

import numpy as np
import pytest

from qiopa import (
    Cutoff,
    CutoffError,
    GainParams,
    PolarizationBasis,
    amplified_vacuum,
    hv_macro_state,
    macro_qubit,
    macro_qubit_amplitude,
    micro_macro_state,
    micro_macro_state_hv,
    photon_distribution,
    required_cutoff,
    seed_pair_amplitude,
)
from qiopa.amplifier import pair_ladder_tail

PM = PolarizationBasis.plus_minus()
RL = PolarizationBasis.right_left()


class TestGainParams:
    def test_derived_quantities(self):
        g = GainParams(1.3)
        assert g.tanh_g == pytest.approx(math.tanh(1.3))
        assert g.cosh_g**2 - g.sinh_g**2 == pytest.approx(1.0, abs=1e-12)
        assert g.mean_photon_number == pytest.approx(1 + 4 * math.sinh(1.3) ** 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GainParams(-0.1)

    @pytest.mark.parametrize("g", [math.nan, math.inf])
    def test_non_finite_rejected(self, g):
        with pytest.raises(ValueError, match="finite"):
            GainParams(g)


class TestMacroQubitAmplitude:
    def test_empty_products(self):
        for phi in (0.0, 1.0, math.pi):
            for g in (0.0, 0.7, 1.5):
                assert macro_qubit_amplitude(0, 0, phi, GainParams(g)) == 1.0

    def test_zero_gain_kills_higher_terms(self):
        g = GainParams(0.0)
        assert macro_qubit_amplitude(1, 0, 0.3, g) == 0.0
        assert macro_qubit_amplitude(0, 2, 0.3, g) == 0.0

    def test_normalization_high_cutoff(self):
        # independent high-cutoff sum of |gamma|^2 / cosh^4 g
        g = GainParams(1.2)
        total = 0.0
        for i in range(129):
            for j in range(129):
                total += abs(macro_qubit_amplitude(i, j, 0.0, g)) ** 2
        total /= g.cosh_g**4
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_modulus_independent_of_phase(self):
        g = GainParams(0.9)
        for i, j in ((0, 1), (2, 3), (5, 0)):
            mods = {
                round(abs(macro_qubit_amplitude(i, j, phi, g)), 14)
                for phi in (0.0, 0.7, math.pi / 2, 4.0)
            }
            assert len(mods) == 1

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            macro_qubit_amplitude(-1, 0, 0.0, GainParams(0.5))


class TestSeedPairAmplitude:
    def test_zero_gain(self):
        g = GainParams(0.0)
        assert seed_pair_amplitude(0, g) == 1.0
        assert seed_pair_amplitude(3, g) == 0.0

    def test_geometric_series_identity(self):
        # sum of squares telescopes to (1 - tanh^2 g)^-2 / cosh^4 g = 1
        g = GainParams(1.0)
        partial = sum(seed_pair_amplitude(n, g) ** 2 for n in range(400))
        assert partial == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("g", [0.0, 0.5, 2.0, 4.0, 5.0])
    def test_in_place_evaluation_is_the_plain_expression(self, g):
        gain = GainParams(g)

        def plain(n):
            n = np.asarray(n)
            return (gain.tanh_g**n * np.sqrt(n + 1.0) / gain.cosh_g**2)[()]

        pair_counts = [np.arange((cutoff - 1) // 2 + 1) for cutoff in (627, 37_809)]
        for n in [*pair_counts, np.arange(12).reshape(3, 4)]:
            assert np.array_equal(seed_pair_amplitude(n, gain), plain(n))
        one = seed_pair_amplitude(7, gain)
        assert np.ndim(one) == 0 and one == plain(7)

    def test_against_arbitrary_precision(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        want = float(mpmath.tanh(1) * mpmath.sqrt(2) / mpmath.cosh(1) ** 2)
        assert seed_pair_amplitude(1, GainParams(1.0)) == pytest.approx(want, abs=1e-12)


class TestMacroQubit:
    def test_identity_amplifier(self):
        state = macro_qubit(0.4, GainParams(0.0), Cutoff(2, 0.5)).state
        assert set(state.amplitudes) == {(1, 0)}
        assert state.amplitudes[(1, 0)] == pytest.approx(1.0)

    def test_norm_within_tail_tolerance(self):
        g = GainParams(0.8)
        n_max = required_cutoff(g, 1e-10)
        state = macro_qubit(0.0, g, Cutoff(n_max, 1e-10)).state
        assert abs(state.norm() ** 2 - 1.0) < 1e-9

    def test_parity_structure_exact(self):
        state = macro_qubit(1.1, GainParams(1.2), Cutoff(21, 0.5)).state
        for n, m in state.amplitudes:
            assert n % 2 == 1 and m % 2 == 0

    def test_phase_covariance(self):
        g = GainParams(0.9)
        ref = macro_qubit(0.0, g, Cutoff(15, 0.5)).state
        for phi in (0.8, math.pi / 2):
            other = macro_qubit(phi, g, Cutoff(15, 0.5)).state
            for key, amp in ref.amplitudes.items():
                assert abs(other.amplitudes[key]) == pytest.approx(abs(amp), abs=1e-14)

    def test_cutoff_error_carries_tail_mass(self):
        with pytest.raises(CutoffError) as err:
            macro_qubit(0.0, GainParams(1.5), Cutoff(5, 1e-10))
        assert err.value.tail_mass is not None
        assert err.value.tail_mass > 1e-10

    def test_norm_monotone_in_cutoff(self):
        g = GainParams(1.1)
        norms = [
            macro_qubit(0.0, g, Cutoff(n, 0.9)).state.norm() for n in (5, 9, 15, 25)
        ]
        assert all(b > a for a, b in zip(norms, norms[1:]))

    def test_mean_photon_number_formula(self):
        # two-mode-squeezer Heisenberg calculation gives 1 + 4 sinh^2 g
        for g_val in (0.8, 1.2, 1.8):
            g = GainParams(g_val)
            state = macro_qubit(0.0, g, Cutoff(required_cutoff(g, 1e-10), 1e-9)).state
            mean = state.mean_total_photons() / state.norm() ** 2
            assert mean == pytest.approx(g.mean_photon_number, rel=1e-6)

    def test_high_gain_mean_photons_near_35(self):
        assert GainParams(1.8).mean_photon_number == pytest.approx(35.6, abs=0.1)


@pytest.mark.parametrize("build", [
    lambda gain, cut: macro_qubit(0.4, gain, cut).state,
    lambda gain, cut: hv_macro_state("H", gain, cut),
    lambda gain, cut: hv_macro_state("V", gain, cut),
    lambda gain, cut: amplified_vacuum(gain, cut),
], ids=["macro-qubit", "H-seed", "V-seed", "vacuum"])
@pytest.mark.parametrize("g, n_max", [(0.5, 4), (1.0, 9), (1.5, 20), (1.5, 21)])
def test_closed_form_gate_reports_the_dropped_mass(build, g, n_max):
    # the gate reads the tail in closed form; it is the mass the truncated
    # state lacks, and the state is built only once the gate has passed
    gain = GainParams(g)
    dropped = 1.0 - build(gain, Cutoff(n_max, 0.99)).norm() ** 2
    with pytest.raises(CutoffError) as err:
        build(gain, Cutoff(n_max, dropped * (1.0 - 1e-9)))
    assert err.value.tail_mass == pytest.approx(dropped, rel=1e-12)
    build(gain, Cutoff(n_max, dropped * (1.0 + 1e-9)))


class TestRequiredCutoff:
    def test_matches_direct_tail(self):
        g = GainParams(1.0)
        n_max = required_cutoff(g, 1e-8)
        pairs = (n_max - 1) // 2
        assert pair_ladder_tail(pairs, g) < 1e-8
        assert pair_ladder_tail(pairs - 1, g) >= 1e-8

    def test_tail_closed_form(self):
        g = GainParams(0.9)
        direct = 1.0 - sum(seed_pair_amplitude(n, g) ** 2 for n in range(8))
        assert pair_ladder_tail(7, g) == pytest.approx(direct, abs=1e-14)

    def test_zero_gain(self):
        assert required_cutoff(GainParams(0.0), 1e-12) == 1

    @pytest.mark.parametrize("tail", [math.nan, 0.0, 1.0, -1.0, math.inf])
    @pytest.mark.parametrize("g", [0.0, 1.0])
    def test_tail_tolerance_outside_unit_interval_rejected(self, g, tail):
        # a bad tolerance is a bad input, not an unreachable cutoff: every
        # comparison with nan is false, and no tail falls below 0
        with pytest.raises(ValueError, match="tail tolerance") as info:
            required_cutoff(GainParams(g), tail)
        assert not isinstance(info.value, CutoffError)


class TestHvMacroState:
    def test_ladder_structure(self):
        state = hv_macro_state("H", GainParams(0.9), Cutoff(15, 0.5))
        assert all(n == m + 1 for (n, m) in state.amplitudes)
        state_v = hv_macro_state("V", GainParams(0.9), Cutoff(15, 0.5))
        assert all(m == n + 1 for (n, m) in state_v.amplitudes)

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            hv_macro_state("D", GainParams(0.5), Cutoff(5, 0.5))


class TestAmplifiedVacuum:
    def test_pair_amplitudes(self):
        g = GainParams(0.8)
        state = amplified_vacuum(g, Cutoff(40, 1e-6))
        for (n, m), amp in state.amplitudes.items():
            assert n == m
            assert amp == pytest.approx(g.tanh_g**n / g.cosh_g, abs=1e-14)


class TestMicroMacroState:
    def test_zero_gain_singlet(self):
        state = micro_macro_state(0.0, GainParams(0.0), Cutoff(2, 0.5))
        comp0, comp1 = state.components
        assert comp0.amplitudes[(0, 1)] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
        assert comp1.amplitudes[(1, 0)] == pytest.approx(-1 / math.sqrt(2), abs=1e-14)
        assert state.norm() == pytest.approx(1.0, abs=1e-14)

    def test_antisymmetry_under_component_swap(self):
        # swapping the macro components together with the micro labels flips
        # the sign of the state
        g = GainParams(0.7)
        state = micro_macro_state(0.0, g, Cutoff(17, 0.5))
        swapped = micro_macro_state(math.pi, g, Cutoff(17, 0.5))
        a = state.dense().reshape(-1)
        b = swapped.rotated(state.basis).dense().reshape(-1)
        overlap = np.vdot(a, b)
        assert abs(overlap + 1.0) < 1e-12

    def test_hv_and_equatorial_constructions_agree(self):
        g = GainParams(0.9)
        cut = Cutoff(required_cutoff(g, 1e-12), 1e-10)
        eq = micro_macro_state(0.0, g, cut).rotated(PolarizationBasis.hv())
        hv = micro_macro_state_hv(g, cut)
        overlap = abs(np.vdot(eq.dense().reshape(-1), hv.dense().reshape(-1)))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_basis_independence_of_profiles(self):
        # the amplified seeds at phi = 0 and phi = pi/2 share one Fock
        # expansion profile in their own bases
        g = GainParams(1.0)
        a = photon_distribution(macro_qubit(0.0, g, Cutoff(15, 0.5)).state, PM)
        b = photon_distribution(
            macro_qubit(math.pi / 2, g, Cutoff(15, 0.5)).state,
            PolarizationBasis.equatorial(math.pi / 2),
        )
        assert set(a) == set(b)
        for key, weight in a.items():
            assert b[key] == pytest.approx(weight, abs=1e-14)

    def test_normalized_at_loose_cutoff(self):
        state = micro_macro_state(0.0, GainParams(1.5), Cutoff(30, 0.5))
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
