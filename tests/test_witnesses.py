import math

import numpy as np
import pytest

from qiopa import (
    Cutoff,
    DICHOTOMIC_BOUND,
    DensityOperator,
    GainParams,
    LossParams,
    PolarizationBasis,
    fock_space,
    generalized_dichotomic_bound,
    lossy_channel,
    micro_macro_sigma_witness,
    micro_macro_state,
    micro_micro_witness,
    ofilter_witness,
    ofilter_witness_lossy,
    pauli_matrix,
    ppt_test,
    separable_counterexample,
    sigma_operator,
    sigma_witness_lossy,
    simon_spin_witness,
    simon_spin_witness_lossy,
)
from qiopa import micro_macro_state_hv, required_cutoff

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
        for eta in (1.0, 0.7, 0.3):
            fast = sigma_witness_lossy(gain, LossParams(eta), cutoff)
            slow = micro_macro_sigma_witness(lossy_channel(state, LossParams(eta)), gain)
            assert fast.value == pytest.approx(slow.value, abs=1e-12)
            for a, b in zip(fast.terms, slow.terms):
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

    def test_mismatched_operators_rejected(self):
        gain = GainParams(0.8)
        state = micro_macro_state(0.0, gain, Cutoff(12, 0.5))
        wrong_cutoff = tuple(
            sigma_operator(a, gain, 14, basis=state.basis) for a in (1, 2, 3)
        )
        with pytest.raises(ValueError):
            micro_macro_sigma_witness(state, gain, sigmas=wrong_cutoff)
        wrong_gain = tuple(
            sigma_operator(a, GainParams(0.7), 12, basis=state.basis) for a in (1, 2, 3)
        )
        with pytest.raises(ValueError):
            micro_macro_sigma_witness(state, gain, sigmas=wrong_gain)

    def test_requires_joint_density(self):
        rho = DensityOperator(np.eye(fock_space(4).dim) / fock_space(4).dim, 4, HV)
        with pytest.raises(ValueError):
            micro_macro_sigma_witness(rho, GainParams(0.5))


class TestOfilterWitness:
    def test_reduces_to_pauli_criterion(self):
        gain = GainParams(0.0)
        state = micro_macro_state(0.0, gain, Cutoff(2, 0.5))
        rep = ofilter_witness_lossy(state, LossParams(1.0), 0)
        assert rep.value == pytest.approx(3.0, abs=1e-12)
        assert rep.note is not None

    def test_lossy_amplified_singlet_still_exceeds_one(self):
        gain = GainParams(1.2)
        state = micro_macro_state(0.0, gain, Cutoff(30, 0.5))
        rep = ofilter_witness_lossy(state, LossParams(0.7), 1)
        assert rep.value > 1.0

    def test_fast_path_matches_density_route(self):
        gain = GainParams(0.8)
        state = micro_macro_state(0.0, gain, Cutoff(16, 0.5))
        for eta, k in ((0.9, 0), (0.6, 1), (0.3, 2)):
            fast = ofilter_witness_lossy(state, LossParams(eta), k)
            slow = ofilter_witness(lossy_channel(state, LossParams(eta)), k)
            assert fast.value == pytest.approx(slow.value, abs=1e-12)

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
        assert bound.value == pytest.approx(math.sqrt(3.0), abs=1e-6)
        assert np.allclose(np.abs(bound.bloch_vector), 1.0 / math.sqrt(3.0), atol=1e-5)

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
            state = micro_macro_state_hv(gain, cut)
            rep = simon_spin_witness_lossy(state, LossParams(0.5))
            assert rep.value == pytest.approx(1.0, abs=1e-6)
            assert rep.bound == 0.0

    @pytest.mark.parametrize("g_val", [1.2, 1.5])
    def test_two_eta_at_high_gain_at_resolved_cutoff(self, g_val):
        # the resolved cutoffs (131 and 239) reach sectors of up to 239
        # photons, where the Schwinger maps must hold without any rotation
        gain = GainParams(g_val)
        cut = Cutoff(required_cutoff(gain, 1e-9), 1e-8)
        state = micro_macro_state_hv(gain, cut)
        for eta in (0.5, 1.0):
            rep = simon_spin_witness_lossy(state, LossParams(eta))
            assert rep.value == pytest.approx(2.0 * eta, abs=1e-9)

    def test_zero_transmission_saturates_bound(self):
        gain = GainParams(0.6)
        state = micro_macro_state_hv(gain, Cutoff(21, 1e-4))
        rep = simon_spin_witness_lossy(state, LossParams(0.0))
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
