import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qiopa import (
    Cutoff,
    DensityOperator,
    GainParams,
    InjectionParams,
    LossParams,
    MicroMacroState,
    PolarizationBasis,
    TwoModeVector,
    attenuate_to_single_photon,
    attenuated_injection_pipeline,
    attenuated_state_with_injection,
    coherence_parameter,
    conditioning_cutoff,
    fock_space,
    lossy_channel,
    micro_macro_state_hv,
    mixed_injection_state,
)
from qiopa.fock import ConditioningError
from qiopa.metrics import concurrence_2x2

HV = PolarizationBasis.hv()


def eq15_matrix(gain: GainParams, loss: LossParams) -> np.ndarray:
    """Independent closed form of the attenuated singlet state."""
    t2 = coherence_parameter(gain, loss) ** 2
    norm = 1.0 + 3.0 * t2
    half = 0.5 * (1.0 + t2)
    return np.array(
        [
            [t2, 0, 0, 0],
            [0, half, -half, 0],
            [0, -half, half, 0],
            [0, 0, 0, t2],
        ]
    ) / norm


def random_density(rng, cutoff) -> DensityOperator:
    dim = fock_space(cutoff).dim
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    mat /= np.trace(mat).real
    return DensityOperator(mat, cutoff, HV)


class TestLossParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossParams(-0.1)
        with pytest.raises(ValueError):
            LossParams(1.1)

    def test_losses_parameter(self):
        assert LossParams(0.3).R == pytest.approx(0.7)

    def test_injection_validation(self):
        with pytest.raises(ValueError):
            InjectionParams(1.5)


class TestLossyChannel:
    def test_identity_at_full_transmission(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 6)
        out = lossy_channel(rho, LossParams(1.0))
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12

    def test_vacuum_at_zero_transmission(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 6)
        out = lossy_channel(rho, LossParams(0.0))
        space = fock_space(6)
        vac = space.index(0, 0)
        want = np.zeros_like(out.matrix)
        want[vac, vac] = 1.0
        assert np.max(np.abs(out.matrix - want)) < 1e-12

    def test_single_photon_two_kraus_terms(self):
        eta = 0.37
        state = TwoModeVector.from_amplitudes({(1, 0): 1.0}, 3, HV)
        out = lossy_channel(state, LossParams(eta))
        space = fock_space(3)
        one = space.index(1, 0)
        vac = space.index(0, 0)
        want = np.zeros_like(out.matrix)
        want[one, one] = eta
        want[vac, vac] = 1.0 - eta
        assert np.max(np.abs(out.matrix - want)) < 1e-14

    def test_trace_preservation_and_positivity(self):
        rng = np.random.default_rng(5)
        for eta in (0.9, 0.5, 0.1):
            rho = random_density(rng, 8)
            out = lossy_channel(rho, LossParams(eta))
            assert abs(out.trace() - 1.0) < 1e-10
            assert out.min_eigenvalue() > -1e-9
            assert out.hermiticity_defect() < 1e-12

    def test_pure_states_enter_as_their_projector(self):
        loss = LossParams(0.6)
        joint = micro_macro_state_hv(GainParams(0.6), Cutoff(7, 0.5))
        for state in (random_pure_state(7, 7, 1), joint):
            out = lossy_channel(state, loss)
            assert np.max(np.abs(out.matrix - kraus_sum_loop(projector(state), loss.eta))) < 1e-13

    def test_composition_multiplies_transmittivities(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 7)
        once = lossy_channel(rho, LossParams(0.8 * 0.5))
        twice = lossy_channel(lossy_channel(rho, LossParams(0.8)), LossParams(0.5))
        assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-9

    def test_populations_binomial_kernel(self):
        eta = 0.42
        state = TwoModeVector.from_amplitudes({(4, 0): 1.0}, 5, HV)
        out = lossy_channel(state, LossParams(eta))
        space = fock_space(5)
        for k in range(5):
            want = math.comb(4, k) * eta**k * (1 - eta) ** (4 - k)
            idx = space.index(k, 0)
            assert out.matrix[idx, idx].real == pytest.approx(want, abs=1e-13)

    def test_joint_state_loss_keeps_micro_arm(self):
        g = GainParams(0.6)
        state = micro_macro_state_hv(g, Cutoff(13, 0.5))
        out = lossy_channel(state, LossParams(0.5))
        assert out.micro_dim == 2
        assert abs(out.trace() - 1.0) < 1e-12
        # micro reduced state must stay maximally mixed (the singlet's marginal)
        d = out.fock_dim
        blocks = out.matrix.reshape(2, d, 2, d)
        micro = np.einsum("sete->st", blocks)
        assert np.max(np.abs(micro - np.eye(2) / 2)) < 1e-12

    def test_rejects_unknown_input(self):
        with pytest.raises(TypeError):
            lossy_channel(np.eye(3), LossParams(0.5))


# Properties of the loss channel on random density operators and pure
# states.  Cutoffs stay at 8 or below, where basis rotations are exact to
# round-off.
CHANNEL_PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)
small_cutoffs = st.integers(1, 8)
micro_dims = st.sampled_from((1, 2))
transmittivities = st.floats(0.0, 1.0)


def random_joint_density(seed, cutoff, micro_dim) -> DensityOperator:
    rng = np.random.default_rng(seed)
    dim = micro_dim * fock_space(cutoff).dim
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    return DensityOperator(mat / np.trace(mat).real, cutoff, HV, micro_dim)


def random_pure_state(seed, cutoff, micro_dim) -> TwoModeVector | MicroMacroState:
    """A random unit two-mode vector (``micro_dim`` 1) or joint state (2)."""
    rng = np.random.default_rng(seed)
    dim = fock_space(cutoff).dim
    vec = rng.normal(size=(micro_dim, dim)) + 1j * rng.normal(size=(micro_dim, dim))
    vec /= np.linalg.norm(vec)
    comps = tuple(TwoModeVector.from_dense(v, cutoff, HV) for v in vec)
    return comps[0] if micro_dim == 1 else MicroMacroState(comps, GainParams(0.0), HV)


def projector(state) -> DensityOperator:
    """``|psi><psi|`` formed here from the dense amplitudes, micro index major."""
    vec = np.atleast_2d(state.dense())
    flat = vec.reshape(-1)
    return DensityOperator(np.outer(flat, flat.conj()), state.cutoff, state.basis, len(vec))


def kraus_sum_loop(rho, eta):
    """``sum_K K rho K^dag`` over the two-mode Kraus family, each ``K_pq``
    (identity on the micro factor) built densely from the closed form
    ``sqrt(C(n,p) C(m,q)) (1-eta)^((p+q)/2) eta^((n+m-p-q)/2)``."""
    space = fock_space(rho.cutoff)
    out = np.zeros_like(rho.matrix)
    for p, q in zip(space.n.tolist(), space.m.tolist()):
        kraus = np.zeros((space.dim, space.dim))
        for src, (n, m) in enumerate(zip(space.n.tolist(), space.m.tolist())):
            if n >= p and m >= q:
                c = math.sqrt(math.comb(n, p) * math.comb(m, q))
                c *= (1.0 - eta) ** (0.5 * (p + q)) * eta ** (0.5 * (n + m - p - q))
                kraus[space.index(n - p, m - q), src] = c
        full = np.kron(np.eye(rho.micro_dim), kraus)
        out += full @ rho.matrix @ full.T
    return out


class TestLossChannelProperties:
    @CHANNEL_PROPERTY
    @given(seed=seeds, cutoff=st.integers(1, 6), micro_dim=micro_dims, eta=transmittivities)
    @example(seed=4, cutoff=6, micro_dim=2, eta=0.0)
    @example(seed=5, cutoff=6, micro_dim=1, eta=1.0)
    def test_matches_the_dense_kraus_sum(self, seed, cutoff, micro_dim, eta):
        rho = random_joint_density(seed, cutoff, micro_dim)
        out = lossy_channel(rho, LossParams(eta))
        assert np.max(np.abs(out.matrix - kraus_sum_loop(rho, eta))) < 1e-13

    @CHANNEL_PROPERTY
    @given(seed=seeds, cutoff=small_cutoffs, micro_dim=micro_dims, eta=transmittivities)
    @example(seed=0, cutoff=8, micro_dim=2, eta=0.0)
    @example(seed=1, cutoff=8, micro_dim=2, eta=1.0)
    def test_trace_preserving_and_hermitian(self, seed, cutoff, micro_dim, eta):
        mixed = random_joint_density(seed, cutoff, micro_dim)
        for state in (mixed, random_pure_state(seed, cutoff, micro_dim)):
            out = lossy_channel(state, LossParams(eta))
            assert abs(out.trace() - 1.0) < 1e-12
            assert out.hermiticity_defect() < 1e-12

    @CHANNEL_PROPERTY
    @given(seed=seeds, cutoff=small_cutoffs, micro_dim=micro_dims,
           a=transmittivities, b=transmittivities)
    @example(seed=2, cutoff=8, micro_dim=1, a=0.3, b=0.0)
    def test_composition_multiplies_transmittivities(self, seed, cutoff, micro_dim, a, b):
        rho = random_joint_density(seed, cutoff, micro_dim)
        twice = lossy_channel(lossy_channel(rho, LossParams(b)), LossParams(a))
        once = lossy_channel(rho, LossParams(a * b))
        assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-12

    @CHANNEL_PROPERTY
    @given(seed=seeds, cutoff=small_cutoffs, micro_dim=micro_dims,
           eta=transmittivities, phi=st.floats(0.0, 2.0 * math.pi))
    @example(seed=3, cutoff=8, micro_dim=2, eta=0.5, phi=3.0 * math.pi / 2.0)
    def test_commutes_with_passive_rotations(self, seed, cutoff, micro_dim, eta, phi):
        rho = random_joint_density(seed, cutoff, micro_dim)
        basis = PolarizationBasis.equatorial(phi)
        loss = LossParams(eta)
        before = lossy_channel(rho.rotated(basis), loss)
        after = lossy_channel(rho, loss).rotated(basis)
        assert np.max(np.abs(before.matrix - after.matrix)) < 1e-12

    @CHANNEL_PROPERTY
    @given(seed=seeds, cutoff=small_cutoffs, micro_dim=micro_dims, eta=transmittivities)
    @example(seed=6, cutoff=8, micro_dim=2, eta=0.0)
    def test_pure_inputs_match_the_dense_kraus_sum(self, seed, cutoff, micro_dim, eta):
        state = random_pure_state(seed, cutoff, micro_dim)
        out = lossy_channel(state, LossParams(eta))
        assert out.micro_dim == micro_dim
        assert np.max(np.abs(out.matrix - kraus_sum_loop(projector(state), eta))) < 1e-13


class TestAttenuateToSinglePhoton:
    def test_singlet_limit_at_unit_transmission_zero_gain(self):
        state = micro_macro_state_hv(GainParams(0.0), Cutoff(2, 0.5))
        rho = attenuate_to_single_photon(state, LossParams(1.0))
        v = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        assert np.max(np.abs(rho - np.outer(v, v))) < 1e-14

    def test_matches_closed_form_on_grid(self):
        # oracle equivalence for g <= 1.2 over the standard loss grid
        worst = 0.0
        for g_val in (0.2, 0.8, 1.2):
            for eta in (1e-3, 1e-2, 0.1, 0.5):
                gain, loss = GainParams(g_val), LossParams(eta)
                cut = conditioning_cutoff(gain, loss, 1e-8)
                state = micro_macro_state_hv(gain, cut)
                rho = attenuate_to_single_photon(state, loss)
                worst = max(worst, np.max(np.abs(rho - eq15_matrix(gain, loss))))
        assert worst < 1e-7

    def test_offdiagonal_element_formula(self):
        gain, loss = GainParams(1.0), LossParams(0.01)
        t2 = coherence_parameter(gain, loss) ** 2
        want = -(1.0 + t2) / (2.0 * (1.0 + 3.0 * t2))
        cut = conditioning_cutoff(gain, loss, 1e-9)
        rho = attenuate_to_single_photon(micro_macro_state_hv(gain, cut), loss)
        assert rho[1, 2].real == pytest.approx(want, abs=1e-8)
        assert abs(rho[1, 2].imag) < 1e-12
        assert np.max(np.abs(rho - eq15_matrix(gain, loss))) < 1e-8

    def test_conditioning_agrees_with_generic_channel_projection(self):
        # third route: push the joint density matrix through the generic
        # Kraus sum, then project onto one surviving photon by hand
        gain, loss = GainParams(0.7), LossParams(0.3)
        state = micro_macro_state_hv(gain, Cutoff(17, 0.5))
        direct = attenuate_to_single_photon(state, loss)
        rho = lossy_channel(state, loss)
        space = fock_space(17)
        idx = [space.index(1, 0), space.index(0, 1)]
        joint_idx = [s * space.dim + b for s in range(2) for b in idx]
        block = rho.matrix[np.ix_(joint_idx, joint_idx)]
        block /= np.trace(block)
        assert np.max(np.abs(direct - block)) < 1e-12

    def test_equatorial_construction_feeds_the_same_pipeline(self):
        from qiopa import micro_macro_state

        gain, loss = GainParams(0.8), LossParams(0.05)
        cut = conditioning_cutoff(gain, loss, 1e-8)
        rho_eq = attenuate_to_single_photon(micro_macro_state(0.0, gain, cut), loss)
        rho_hv = attenuate_to_single_photon(micro_macro_state_hv(gain, cut), loss)
        assert np.max(np.abs(rho_eq - rho_hv)) < 1e-12

    def test_zero_transmission_raises(self):
        state = micro_macro_state_hv(GainParams(0.5), Cutoff(9, 0.5))
        with pytest.raises(ConditioningError):
            attenuate_to_single_photon(state, LossParams(0.0))


class TestMixedInjection:
    def test_pure_singlet_at_unit_probability(self):
        rho = mixed_injection_state(InjectionParams(1.0))
        assert abs(rho.trace() - 1.0) < 1e-14
        evals = np.linalg.eigvalsh(rho.matrix)
        assert evals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_mixture_at_zero_probability(self):
        rho = mixed_injection_state(InjectionParams(0.0))
        space = fock_space(1)
        vac = space.index(0, 0)
        d = space.dim
        diag = rho.matrix.diagonal().real
        assert diag[vac] == pytest.approx(0.5)
        assert diag[d + vac] == pytest.approx(0.5)
        assert np.count_nonzero(np.abs(rho.matrix) > 1e-14) == 2

    def test_eigenvalues_at_half(self):
        rho = mixed_injection_state(InjectionParams(0.5))
        evals = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
        assert evals[0] == pytest.approx(0.5, abs=1e-12)
        assert evals[1] == pytest.approx(0.25, abs=1e-12)
        assert evals[2] == pytest.approx(0.25, abs=1e-12)
        assert abs(evals[3]) < 1e-12


class TestAttenuatedInjection:
    def test_reduces_to_perfect_injection(self):
        gain, loss = GainParams(1.4), LossParams(0.2)
        a = attenuated_state_with_injection(InjectionParams(1.0), gain, loss)
        assert np.max(np.abs(a - eq15_matrix(gain, loss))) < 1e-13

    def test_fully_dephased_at_zero_injection(self):
        rho = attenuated_state_with_injection(
            InjectionParams(0.0), GainParams(3.0), LossParams(1e-4)
        )
        off = rho - np.diag(rho.diagonal())
        assert np.max(np.abs(off)) < 1e-14
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_reduced_offdiagonals_at_partial_injection(self):
        gain, loss = GainParams(3.0), LossParams(1e-4)
        full = attenuated_state_with_injection(InjectionParams(1.0), gain, loss)
        half = attenuated_state_with_injection(InjectionParams(0.5), gain, loss)
        assert abs(half[1, 2]) < abs(full[1, 2])

    @pytest.mark.parametrize(
        "g,eta,p", [(0.8, 0.05, 0.6), (1.0, 0.1, 0.9), (0.5, 0.3, 0.3)]
    )
    def test_pipeline_matches_closed_form(self, g, eta, p):
        gain, loss = GainParams(g), LossParams(eta)
        cut = conditioning_cutoff(gain, loss, 1e-9)
        numeric = attenuated_injection_pipeline(InjectionParams(p), gain, loss, cut)
        closed = attenuated_state_with_injection(InjectionParams(p), gain, loss)
        assert np.max(np.abs(numeric - closed)) < 1e-8

    @pytest.mark.parametrize("eta", [1e-5, 1e-3, 1e-2])
    def test_pipeline_runs_at_g5_on_the_conditioned_cutoff(self, eta):
        # the cutoff drops 30 % (eta = 1e-3) and 97 % (eta = 1e-2) of the
        # raw mass; the members keep their exact weights, so the mixture stays.
        # At eta = 1e-5 the cutoff is 289,149, beyond 100,000 pairs
        gain, loss, p = GainParams(5.0), LossParams(eta), InjectionParams(0.9)
        cut = conditioning_cutoff(gain, loss)
        numeric = attenuated_injection_pipeline(p, gain, loss, cut)
        closed = attenuated_state_with_injection(p, gain, loss)
        assert np.max(np.abs(numeric - closed)) < 1e-7

    def test_doubling_the_conditioned_cutoff_moves_nothing(self):
        gain, loss, p = GainParams(4.0), LossParams(1e-2), InjectionParams(0.9)
        cut = conditioning_cutoff(gain, loss)
        double = Cutoff(2 * cut.n_max, cut.tail_tolerance)
        for build in (
            lambda c: attenuate_to_single_photon(micro_macro_state_hv(gain, c), loss),
            lambda c: attenuated_injection_pipeline(p, gain, loss, c),
        ):
            assert np.max(np.abs(build(cut) - build(double))) < 1e-10

    def test_degenerate_seed_raises(self):
        with pytest.raises(ConditioningError):
            attenuated_state_with_injection(
                InjectionParams(0.0), GainParams(0.0), LossParams(0.5)
            )


def test_loss_never_creates_entanglement():
    # extra loss on the amplified arm can only lower the conditional
    # concurrence of the attenuated two-qubit reduction
    gain = GainParams(1.0)
    etas = (0.8, 0.4, 0.2, 0.05)
    values = []
    for eta in etas:
        loss = LossParams(eta)
        cut = conditioning_cutoff(gain, loss, 1e-8)
        rho = attenuate_to_single_photon(micro_macro_state_hv(gain, cut), loss)
        values.append(concurrence_2x2(rho).concurrence)
    assert all(b < a for a, b in zip(values, values[1:]))
