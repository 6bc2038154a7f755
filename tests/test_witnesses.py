import math

import numpy as np
import pytest

from qiopa import (
    Cutoff,
    DensityOperator,
    GainParams,
    LossParams,
    PolarizationBasis,
    fock_space,
    lossy_channel,
    micro_macro_state,
    ppt_test,
)
from qiopa.measurement import pauli_matrix
from qiopa.witnesses import (
    DICHOTOMIC_BOUND,
    generalized_dichotomic_bound,
    micro_macro_sigma_witness,
    micro_micro_witness,
    ofilter_witness,
    ofilter_witness_lossy,
    separable_counterexample,
    sigma_witness_lossy,
    simon_spin_witness,
    simon_spin_witness_lossy,
)
from qiopa import micro_macro_state_hv, required_cutoff
from triangle_oracle import ofilter_terms_triangle, sigma_terms_triangle, spin_terms_ladder

HV = PolarizationBasis.hv()

SINGLET4 = np.outer(
    np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2),
    np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2),
)


class TestMicroMicroWitness:
    def test_singlet_saturates_three(self):
        rep = micro_micro_witness(SINGLET4)
        assert rep.value == pytest.approx(3.0, abs=1e-12)
        assert rep.bound == 1.0
        assert all(t == pytest.approx(-1.0, abs=1e-12) for t in rep.terms)
        assert rep.violated

    def test_product_state_saturates_bound(self):
        rho = np.diag([0.0, 1.0, 0.0, 0.0])  # |H>|V>
        rep = micro_micro_witness(rho)
        assert rep.value == pytest.approx(1.0, abs=1e-12)
        assert not rep.violated

    def test_maximally_mixed_scores_zero(self):
        rep = micro_micro_witness(np.eye(4) / 4.0)
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_value_recombines_from_terms(self):
        rep = micro_micro_witness(SINGLET4)
        assert rep.value == pytest.approx(sum(abs(t) for t in rep.terms), abs=1e-12)

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            micro_micro_witness(np.eye(3))

    def test_bound_hierarchy_on_random_states(self):
        # the algebraic ceiling 3, the assumption-free bound sqrt(3) and the
        # separable bound 1 are strictly ordered, and no state beats 3
        assert 1.0 < DICHOTOMIC_BOUND < 3.0
        rng = np.random.default_rng(53)
        for _ in range(100):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            assert micro_micro_witness(rho).value <= 3.0 + 1e-12


class TestSigmaWitness:
    @pytest.mark.parametrize("g", [0.0, 0.6, 1.2, 1.5])
    def test_lossless_amplified_singlet_scores_three(self, g):
        gain = GainParams(g)
        state = micro_macro_state(0.0, gain, Cutoff(30, 0.5))
        rep = micro_macro_sigma_witness(state, gain)
        assert rep.value == pytest.approx(3.0, abs=1e-6)

    def test_zero_gain_linear_decay(self):
        # vacuum contributes nothing to any term, so S falls linearly in eta
        gain = GainParams(0.0)
        cutoff = Cutoff(4, 0.5)
        for eta in (0.9, 0.5, 0.2, 0.0):
            rep = sigma_witness_lossy(gain, LossParams(eta), cutoff)
            assert rep.value == pytest.approx(3.0 * eta, abs=1e-12)

    def test_monotone_under_loss(self):
        gain = GainParams(0.9)
        cutoff = Cutoff(24, 0.5)
        values = [
            sigma_witness_lossy(gain, LossParams(eta), cutoff).value
            for eta in np.linspace(1.0, 0.0, 11)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_fast_path_matches_density_route(self):
        gain = GainParams(0.9)
        cutoff = Cutoff(18, 0.5)
        state = micro_macro_state(0.0, gain, cutoff)
        # the truncated state's terms, from the triangle's lossy fidelities
        for eta in (1.0, 0.7, 0.3):
            fast = sigma_terms_triangle(gain, LossParams(eta), cutoff)
            slow = micro_macro_sigma_witness(lossy_channel(state, LossParams(eta)), gain)
            assert sum(abs(t) for t in fast) == pytest.approx(slow.value, abs=1e-12)
            for a, b in zip(fast, slow.terms):
                assert a == pytest.approx(b, abs=1e-12)

    def test_falls_below_dichotomic_bound_near_one_lost_photon(self):
        gain = GainParams(1.5)
        cutoff = Cutoff(30, 0.5)
        lo = sigma_witness_lossy(gain, LossParams(0.90), cutoff).value
        hi = sigma_witness_lossy(gain, LossParams(0.99), cutoff).value
        assert lo < DICHOTOMIC_BOUND < hi
        # crossing sits where the expected number of lost photons is order one
        r_cross = 1.0 - 0.95
        assert 0.3 < r_cross * gain.mean_photon_number < 3.0

    def test_crossing_tends_to_two_thirds_of_a_lost_photon(self):
        """``R <n>`` at ``S = sqrt(3)`` tends to ``4 x*``, with ``x*`` the root
        of ``1/(1+2x)^2 + 2(1+2x+2x^2)/(1+2x)^3 = sqrt(3)``: about 0.67 lost
        photons defeat the witness, however large the macro state."""

        def root(f, lo, hi):
            rising = f(lo) < 0.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if (f(mid) < 0.0) == rising else (lo, mid)
            return 0.5 * (lo + hi)

        x = root(
            lambda x: 1 / (1 + 2 * x) ** 2 + 2 * (1 + 2 * x + 2 * x * x) / (1 + 2 * x) ** 3
            - DICHOTOMIC_BOUND,
            0.0, 1.0,
        )
        assert 4 * x == pytest.approx(0.668642, abs=1e-6)
        distances = []
        for g in (2.0, 3.0, 4.0):
            gain = GainParams(g)
            cutoff = Cutoff(required_cutoff(gain, 1e-9), 1e-9)
            eta = root(
                lambda e: sigma_witness_lossy(gain, LossParams(e), cutoff).value
                - DICHOTOMIC_BOUND,
                0.0, 1.0,
            )
            distances.append(abs((1.0 - eta) * gain.mean_photon_number - 4 * x))
        assert distances[0] > distances[1] > distances[2]
        assert distances[0] < 2e-3

    def test_requires_joint_density(self):
        rho = DensityOperator(np.eye(fock_space(4).dim) / fock_space(4).dim, 4, HV)
        with pytest.raises(ValueError):
            micro_macro_sigma_witness(rho, GainParams(0.5))


class TestOfilterWitness:
    def test_reduces_to_pauli_criterion(self):
        gain = GainParams(0.0)
        rep = ofilter_witness_lossy(gain, LossParams(1.0), 0, Cutoff(2, 0.5))
        assert rep.value == pytest.approx(3.0, abs=1e-12)
        assert rep.note is not None

    def test_lossy_amplified_singlet_still_exceeds_one(self):
        gain = GainParams(1.2)
        rep = ofilter_witness_lossy(gain, LossParams(0.7), 1, Cutoff(30, 0.5))
        assert rep.value > 1.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ofilter_witness_lossy(GainParams(0.5), LossParams(0.5), -1, Cutoff(10, 0.5))

    def test_fast_path_matches_density_route(self):
        # the truncation triangle, on the truncated state the channel sees
        gain = GainParams(0.8)
        state = micro_macro_state(0.0, gain, Cutoff(16, 0.5))
        for eta, k in ((0.9, 0), (0.6, 1), (0.3, 2)):
            fast = sum(abs(t) for t in ofilter_terms_triangle(gain, LossParams(eta), k, Cutoff(16, 0.5)))
            slow = ofilter_witness(lossy_channel(state, LossParams(eta)), k)
            assert fast == pytest.approx(slow.value, abs=1e-12)

    def test_separable_counterexample_breaks_the_nominal_bound(self):
        sep = separable_counterexample(20, 64)
        values = {k: ofilter_witness(sep.state, k).value for k in range(0, 13, 2)}
        assert max(values.values()) > 1.0

    def test_counterexample_stays_ppt(self):
        sep = separable_counterexample(12, 48)
        rep = ppt_test(sep.state.matrix, (2, sep.state.fock_dim))
        assert rep.separable
        assert rep.negativity < 1e-10


class TestSeparableCounterexample:
    def test_quadrature_converges_by_64_nodes(self):
        coarse = separable_counterexample(20, 48).state.matrix
        fine = separable_counterexample(20, 64).state.matrix
        finer = separable_counterexample(20, 96).state.matrix
        assert np.max(np.abs(fine - coarse)) < 1e-8
        assert np.max(np.abs(finer - fine)) < 1e-12

    def test_block_diagonal_in_rotation_charge(self):
        # the phase average kills coherences between different total V-photon
        # numbers (micro V count plus macro second-mode count)
        sep = separable_counterexample(6, 32)
        space = fock_space(6)
        d = space.dim
        mat = sep.state.matrix.reshape(2, d, 2, d)
        charge = lambda s, idx: s + int(space.m[idx])
        for s in range(2):
            for t in range(2):
                for a in range(d):
                    for b in range(d):
                        if charge(s, a) != charge(t, b):
                            assert abs(mat[s, a, t, b]) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            separable_counterexample(0, 64)
        with pytest.raises(ValueError):
            separable_counterexample(5, 4)

    def test_trace_one(self):
        sep = separable_counterexample(8, 32)
        assert sep.state.trace() == pytest.approx(1.0, abs=1e-12)


class TestGeneralizedBound:
    def test_maximum_is_sqrt_three(self):
        bound = generalized_dichotomic_bound()
        assert abs(bound.value - math.sqrt(3.0)) <= 1e-12
        assert np.allclose(np.abs(bound.bloch_vector), 1.0 / math.sqrt(3.0), rtol=0.0, atol=1.3e-8)
        assert np.linalg.norm(bound.bloch_vector) == pytest.approx(1.0, abs=1e-15)

    def test_single_axis_state_scores_one(self):
        rho = np.array([[1.0, 0.0], [0.0, 0.0]])  # Bloch vector (0, 0, 1)
        total = sum(
            abs(np.trace(rho @ pauli_matrix(axis)).real) for axis in (1, 2, 3)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mixed_states_never_exceed_the_pure_maximum(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            total = sum(
                abs(np.trace(rho @ pauli_matrix(axis)).real) for axis in (1, 2, 3)
            )
            assert total <= math.sqrt(3.0) + 1e-12


class TestSimonSpinWitness:
    def test_amplified_singlet_reaches_two_eta(self):
        for g_val in (0.3, 1.0):
            gain = GainParams(g_val)
            cut = Cutoff(required_cutoff(gain, 1e-9), 1e-8)
            rep = simon_spin_witness_lossy(gain, LossParams(0.5), cut)
            assert rep.value == pytest.approx(1.0, abs=1e-6)
            assert rep.bound == 0.0

    @pytest.mark.parametrize("g_val", [1.2, 1.5])
    def test_two_eta_at_high_gain_at_resolved_cutoff(self, g_val):
        # the resolved cutoffs (131 and 239) reach sectors of up to 239 photons
        gain = GainParams(g_val)
        cut = Cutoff(required_cutoff(gain, 1e-9), 1e-8)
        for eta in (0.5, 1.0):
            rep = simon_spin_witness_lossy(gain, LossParams(eta), cut)
            assert rep.value == pytest.approx(2.0 * eta, abs=1e-9)

    @pytest.mark.parametrize("g_val", [2.0, 3.0, 4.0])
    def test_untruncated_limits_at_high_gain(self, g_val):
        # cutoffs 653 to 35681 only gate the tail: term_2 = term_3 is
        # -eta (1 + 2 sinh^2 g) and <N> is eta (1 + 4 sinh^2 g)
        gain = GainParams(g_val)
        cut = Cutoff(required_cutoff(gain, 1e-9), 1e-8)
        sinh2 = math.sinh(g_val) ** 2
        for eta in (0.25, 1.0):
            rep = simon_spin_witness_lossy(gain, LossParams(eta), cut)
            assert rep.value == pytest.approx(2.0 * eta, abs=1e-9)
            assert rep.terms[1] == rep.terms[2]
            assert rep.terms[1] == pytest.approx(-eta * (1.0 + 2.0 * sinh2), rel=1e-7)
            assert rep.params["mean_photons_b"] == pytest.approx(eta * (1.0 + 4.0 * sinh2), rel=1e-7)

    @pytest.mark.parametrize("g_val", [0.3, 1.0, 2.0, 3.0, 4.0])
    def test_closed_form_is_the_limit_of_the_ladder_sums(self, g_val):
        # at a tail below 1e-13 the renormalized truncated sums sit within
        # about the tail of the untruncated terms the package reports
        gain = GainParams(g_val)
        cut = Cutoff(required_cutoff(gain, 1e-13), 1e-12)
        for eta in (0.25, 1.0):
            rep = simon_spin_witness_lossy(gain, LossParams(eta), cut)
            terms, mean_n, value = spin_terms_ladder(gain, LossParams(eta), cut)
            assert rep.terms == pytest.approx(terms, rel=1e-9)
            assert rep.params["mean_photons_b"] == pytest.approx(mean_n, rel=1e-9)
            assert rep.value == pytest.approx(value, rel=1e-9)

    def test_zero_transmission_saturates_bound(self):
        gain = GainParams(0.6)
        rep = simon_spin_witness_lossy(gain, LossParams(0.0), Cutoff(21, 1e-4))
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_product_states_respect_bound(self):
        rng = np.random.default_rng(41)
        space = fock_space(5)
        for _ in range(5):
            micro = rng.normal(size=2) + 1j * rng.normal(size=2)
            micro /= np.linalg.norm(micro)
            macro = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            macro /= np.linalg.norm(macro)
            vec = np.kron(micro, macro)
            rho = DensityOperator(np.outer(vec, vec.conj()), 5, HV, micro_dim=2)
            rep = simon_spin_witness(rho)
            assert rep.value <= 1e-10

    def test_report_terms_match_value(self):
        gain = GainParams(0.6)
        state = micro_macro_state_hv(gain, Cutoff(25, 1e-5))
        rep = simon_spin_witness(state)
        recombined = abs(sum(rep.terms)) - rep.params["mean_photons_b"]
        assert rep.value == pytest.approx(recombined, abs=1e-12)
