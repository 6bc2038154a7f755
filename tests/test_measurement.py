import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qiopa import (
    Cutoff,
    DensityOperator,
    GainParams,
    LossParams,
    PolarizationBasis,
    TwoModeVector,
    UndefinedVisibilityError,
    expectation,
    fock_space,
    lossy_channel,
    macro_qubit,
    micro_macro_state,
    micro_macro_state_hv,
    multi_detector_probabilities,
    ofilter_probabilities,
    pauli_matrix,
    required_cutoff,
    rotate_basis,
    photon_distribution,
    sigma_operator,
    simon_spin_witness,
    simon_spin_witness_lossy,
    stokes_operators,
    stokes_terms,
    threshold_povm,
    visibility,
)
from qiopa.fock import schwinger_operator, transfer_matrix
import qiopa.measurement
from qiopa.fock import CutoffError
from qiopa.measurement import (
    _difference_law,
    _fringe_grid,
    all_detectors_click_probability,
    lossy_fringe_probabilities,
)
from qiopa.witnesses import _ofilter_grid, ofilter_witness_lossy
from triangle_oracle import spin_terms_ladder, visibility_triangle
from test_kernels import binomial_sector_matrix

HV = PolarizationBasis.hv()
PM = PolarizationBasis.plus_minus()
RL = PolarizationBasis.right_left()


class TestPauliMatrices:
    def test_eigenbases(self):
        for axis in (1, 2, 3):
            sig = pauli_matrix(axis, PolarizationBasis.canonical(axis))
            assert np.allclose(sig, np.diag([1.0, -1.0]), atol=1e-14)

    def test_cyclic_commutators(self):
        s = [pauli_matrix(axis) for axis in (1, 2, 3)]
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            comm = s[i] @ s[j] - s[j] @ s[i]
            assert np.max(np.abs(comm - 2j * s[k])) < 1e-14


class TestSigmaOperators:
    def test_zero_gain_reduction(self):
        # at g = 0 each operator is the plain Pauli operator embedded in the
        # one-photon sector
        space = fock_space(4)
        op = sigma_operator(3, GainParams(0.0), 4)
        mat = op.matrix()
        plus = space.index(1, 0)
        minus = space.index(0, 1)
        want = np.zeros_like(mat)
        want[plus, plus] = 1.0
        want[minus, minus] = -1.0
        assert np.max(np.abs(mat - want)) < 1e-14

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            sigma_operator(4, GainParams(0.5), 10)

    def test_diagonal_expectations_on_amplified_seeds(self):
        g = GainParams(1.0)
        for axis in (1, 2, 3):
            op = sigma_operator(axis, g, 40)
            rho_plus = np.outer(op.plus_vector, op.plus_vector.conj())
            rho_minus = np.outer(op.minus_vector, op.minus_vector.conj())
            assert op.expectation(rho_plus) == pytest.approx(1.0, abs=1e-8)
            assert op.expectation(rho_minus) == pytest.approx(-1.0, abs=1e-8)

    def test_dichotomic_spectrum(self):
        evals = np.linalg.eigvalsh(sigma_operator(2, GainParams(0.9), 24).matrix())
        assert evals[0] == pytest.approx(-1.0, abs=1e-12)
        assert evals[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(np.abs(evals) > 1e-10) == 2

    def test_commutators_on_amplified_subspace(self):
        g = GainParams(0.8)
        ops = {a: sigma_operator(a, g, 40, basis=HV) for a in (1, 2, 3)}
        mats = {a: ops[a].matrix() for a in (1, 2, 3)}
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            delta = mats[i] @ mats[j] - mats[j] @ mats[i] - 2j * mats[k]
            u, w = ops[1].plus_vector, ops[1].minus_vector
            sub = np.array([[x.conj() @ delta @ y for y in (u, w)] for x in (u, w)])
            assert np.max(np.abs(sub)) < 1e-6

    def test_representation_rotation_preserves_expectations(self):
        g = GainParams(0.7)
        state = macro_qubit(0.0, g, Cutoff(20, 0.5)).state.normalized()
        rho_pm = DensityOperator.from_pure(state)
        rho_hv = rho_pm.rotated(HV)
        op_pm = sigma_operator(3, g, 20, basis=PM)
        op_hv = sigma_operator(3, g, 20, basis=HV)
        assert expectation(rho_pm, op_pm.matrix()) == pytest.approx(
            expectation(rho_hv, op_hv.matrix()), abs=1e-12
        )

    def test_aligned_seed_saturates_its_own_axis(self):
        # state and operator built through different construction paths: the
        # amplified seed (rotated to H/V) against the operator assembled from
        # its own seed vectors in the H/V representation
        g = GainParams(1.0)
        state = macro_qubit(0.0, g, Cutoff(30, 0.5)).state.normalized()
        rho_hv = DensityOperator.from_pure(state).rotated(HV)
        op_hv = sigma_operator(3, g, 30, basis=HV)
        assert expectation(rho_hv, op_hv.matrix()) == pytest.approx(1.0, abs=1e-8)
        anti = macro_qubit(math.pi, g, Cutoff(30, 0.5)).state.normalized()
        rho_anti = DensityOperator.from_pure(rotate_basis(anti, HV))
        assert expectation(rho_anti, op_hv.matrix()) == pytest.approx(-1.0, abs=1e-8)


class TestThresholdPOVM:
    @pytest.mark.parametrize("k", [0, 1, 4, 9])
    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_completeness_exact(self, axis, k):
        povm = threshold_povm(PolarizationBasis.canonical(axis), k, 12)
        plus, minus, zero = povm.effects()
        assert np.array_equal(plus + minus + zero, np.ones_like(plus))
        assert np.all((plus == 0) | (plus == 1))

    def test_regions(self):
        space = fock_space(10)
        povm = threshold_povm(PM, 3, 10)
        diff = space.n - space.m
        assert np.array_equal(povm.signs == 1, diff > 3)
        assert np.array_equal(povm.signs == -1, -diff > 3)
        # ties at |n - m| = k stay inconclusive, keeping the resolution exact
        assert np.all(povm.signs[np.abs(diff) == 3] == 0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            threshold_povm(PM, -1, 8)

    def test_conclusive_plus_on_polarized_state(self):
        state = TwoModeVector.from_amplitudes({(10, 0): 1.0}, 10, PM)
        p_plus, p_minus, p_zero = ofilter_probabilities(state, PM, 5)
        assert p_plus == pytest.approx(1.0, abs=1e-12)
        assert p_minus == p_zero == 0.0

    def test_mostly_inconclusive_in_rotated_basis(self):
        state = TwoModeVector.from_amplitudes({(10, 0): 1.0}, 10, PM)
        p_plus, p_minus, p_zero = ofilter_probabilities(state, RL, 5)
        assert p_zero == pytest.approx(912.0 / 1024.0, abs=1e-12)
        assert p_plus == pytest.approx(56.0 / 1024.0, abs=1e-12)
        assert p_minus == pytest.approx(56.0 / 1024.0, abs=1e-12)

    def test_vacuum_always_inconclusive(self):
        vac = TwoModeVector.from_amplitudes({(0, 0): 1.0}, 4, PM)
        for k in (1, 3):
            assert ofilter_probabilities(vac, RL, k)[2] == pytest.approx(1.0)

    def test_probabilities_sum_to_trace(self):
        g = GainParams(0.8)
        rho = lossy_channel(
            macro_qubit(0.0, g, Cutoff(16, 0.5)).state.normalized(), LossParams(0.7)
        )
        p = ofilter_probabilities(rho, RL, 2)
        assert sum(p) == pytest.approx(1.0, abs=1e-10)

    def test_joint_state_micro_arm_traced_out(self):
        # outcome statistics of a joint operator use the macro marginal
        g = GainParams(0.6)
        joint = micro_macro_state(0.0, g, Cutoff(12, 0.5))
        rho = lossy_channel(joint, LossParams(0.8))
        p_joint = ofilter_probabilities(rho, RL, 1)
        marginal = sum(
            (lossy_channel(c, LossParams(0.8)).matrix for c in joint.components),
            start=np.zeros((rho.fock_dim, rho.fock_dim), dtype=complex),
        )
        marg_rho = DensityOperator(marginal, 12, joint.basis)
        p_marg = ofilter_probabilities(marg_rho, RL, 1)
        for a, b in zip(p_joint, p_marg):
            assert a == pytest.approx(b, abs=1e-12)

    def test_density_route_matches_vector_route(self):
        # a pure state, its density operator and its product with a micro
        # qubit give one set of populations in a rotated basis
        state = macro_qubit(0.0, GainParams(0.7), Cutoff(10, 0.5)).state.normalized()
        vec = np.kron(np.array([0.6, 0.8j]), state.dense())
        joint = DensityOperator(np.outer(vec, vec.conj()), 10, state.basis, micro_dim=2)
        for k in (0, 2):
            want = ofilter_probabilities(state, RL, k)
            for rho in (DensityOperator.from_pure(state), joint):
                assert ofilter_probabilities(rho, RL, k) == pytest.approx(want, abs=1e-12)

    def test_basis_dependent_filtering(self):
        # conclusive in the aligned basis for every k < n, binomial-tail
        # suppressed in the rotated basis
        state = TwoModeVector.from_amplitudes({(10, 0): 1.0}, 10, PM)
        for k in range(10):
            p_plus, _, _ = ofilter_probabilities(state, PM, k)
            assert p_plus == pytest.approx(1.0, abs=1e-12)
        conclusive = []
        for k in (0, 2, 4, 6, 8):
            p_plus, p_minus, _ = ofilter_probabilities(state, RL, k)
            conclusive.append(p_plus + p_minus)
        assert all(b < a for a, b in zip(conclusive, conclusive[1:]))
        # at k = 8 only r in {0, 10} gives |n - m| = 10 > 8; ties at 8 drop out
        assert conclusive[-1] == pytest.approx(2 * math.comb(10, 0) / 1024.0, abs=1e-12)


class TestVisibility:
    def test_unamplified_seed_is_fully_visible(self):
        v = visibility(GainParams(0.0), LossParams(1.0), 0, Cutoff(2, 0.5))
        assert v == pytest.approx(1.0, abs=1e-14)

    def test_all_inconclusive_raises(self):
        with pytest.raises(UndefinedVisibilityError):
            visibility(GainParams(0.5), LossParams(0.0), 2, Cutoff(9, 0.5))

    def test_matches_generic_channel_route(self):
        # the truncation triangle, on the truncated state the channel sees
        g = GainParams(0.7)
        cut = Cutoff(24, 1e-2)
        for eta, k in ((0.8, 0), (0.5, 2), (0.2, 4)):
            fast = visibility_triangle(g, LossParams(eta), k, cut)
            state = macro_qubit(0.0, g, cut).state.normalized()
            rho = lossy_channel(state, LossParams(eta))
            p_plus, p_minus, _ = ofilter_probabilities(rho, PM, k)
            assert fast == pytest.approx((p_plus - p_minus) / (p_plus + p_minus), abs=1e-12)

    def test_zero_threshold_trend_beyond_the_small_loss_bump(self):
        # the k = 0 visibility dips up by a few 1e-3 around R ~ 0.2 before
        # decaying; past that bump it falls monotonically (the figure-level
        # trend), and the overall drop dominates
        g = GainParams(1.0)
        cut = Cutoff(required_cutoff(g, 1e-10), 1e-9)
        rs = np.linspace(0.25, 0.95, 15)
        vals = [visibility(g, LossParams(1 - r), 0, cut) for r in rs]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        v_low = visibility(g, LossParams(0.9), 0, cut)
        assert v_low - vals[-1] > 0.05

    @pytest.mark.parametrize("g", [0.0, 0.3, 1.0, 1.8, 3.0])
    @pytest.mark.parametrize("seed", ["H", "equatorial"])
    def test_difference_law_sums_to_one(self, g, seed):
        gain = GainParams(g)
        n_max = required_cutoff(gain, 1e-9)
        for eta in (1.0, 0.6, 0.1):
            law = _difference_law(seed, gain, eta, n_max)
            assert law.sum() == pytest.approx(1.0, abs=1e-13)
            assert law.min() > -1e-14

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_no_photon_left_is_exactly_inconclusive(self, k):
        # at eta = 0 the law is an exact point mass at D = 0
        gain = GainParams(1.2)
        cut = Cutoff(required_cutoff(gain, 1e-9), 1e-9)
        law = _difference_law("equatorial", gain, 0.0, cut.n_max)
        assert law[0] == 1.0 and not np.any(law[1:])
        loss = LossParams(0.0)
        assert lossy_fringe_probabilities(gain, loss, k, cut) == (0.0, 0.0, 1.0)
        assert ofilter_witness_lossy(gain, loss, k, cut).terms == (0.0, 0.0, 0.0)
        with pytest.raises(UndefinedVisibilityError):
            visibility(gain, loss, k, cut)

    def test_zero_threshold_visibility_tends_to_two_over_pi(self):
        # at high gain the seeded and the other mode carry chi^2_3 and chi^2_1
        # shares of the photons, and after equal thinning V(k = 0) tends to
        # 2/pi at every eta > 0
        gaps = []
        for g in (1.0, 2.0, 3.0, 4.0, 5.0):
            gain = GainParams(g)
            cut = Cutoff(required_cutoff(gain, 1e-9), 1e-9)
            gaps.append(abs(visibility(gain, LossParams(0.5), 0, cut) - 2.0 / math.pi))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4

    def test_thresholded_visibility_grows_with_loss(self):
        g = GainParams(1.0)
        cut = Cutoff(required_cutoff(g, 1e-10), 1e-9)
        for k in (4, 8):
            vals = [
                visibility(g, LossParams(1 - r), k, cut)
                for r in np.linspace(0.1, 0.9, 9)
            ]
            assert all(b > a for a, b in zip(vals, vals[1:]))


def tails_of_one_law(law, k):
    """``(P+, P-)`` of a 1-D law, slice by slice, as each row is read."""
    half = law.size // 2
    return float(law[k + 1 : half].sum()), float(law[half : law.size - k].sum())


class TestStackedLaw:
    """One stacked FFT per gain gives every row bit for bit as one law per
    eta would, whatever the chunking of the eta grid."""

    ETAS = [0.0, 0.05, 0.3, 0.5, 0.77, 0.95, 1.0]
    KS = [0, 1, 2, 5]

    @pytest.mark.parametrize(
        "g, n_max", [(0.0, None), (1.2, None), (1.8, None), (1.2, 20_000)],
        ids=["g0", "g1.2", "g1.8", "N=2**16"],  # 2**16 bins: a whole chunk for one row
    )
    @pytest.mark.parametrize("seed", ["H", "equatorial"])
    def test_stacked_law_is_the_per_eta_law(self, g, n_max, seed):
        gain = GainParams(g)
        n_max = n_max or required_cutoff(gain, 1e-9)
        stacked = _difference_law(seed, gain, self.ETAS, n_max)
        assert stacked.shape == (len(self.ETAS), 1 << (2 * n_max + 1).bit_length())
        for eta, row in zip(self.ETAS, stacked):
            law = _difference_law(seed, gain, eta, n_max)
            assert law.ndim == 1
            assert np.array_equal(row, law), eta

    @pytest.mark.parametrize("n_max", [5_000, 20_000], ids=["4-rows-a-chunk", "1-row-a-chunk"])
    def test_grid_helpers_span_chunks_row_by_row(self, n_max):
        gain, cutoff = GainParams(1.2), Cutoff(n_max, 1e-9)
        assert max(1, qiopa.measurement._STACK_ENTRIES // (1 << (2 * n_max + 1).bit_length())) < len(self.ETAS)
        self.assert_grids_match_rows(gain, cutoff)

    @pytest.mark.parametrize("g", [0.0, 1.2, 1.8])
    def test_grid_helpers_match_the_scalar_functions(self, g):
        gain = GainParams(g)
        self.assert_grids_match_rows(gain, Cutoff(required_cutoff(gain, 1e-9), 1e-9))

    def assert_grids_match_rows(self, gain, cutoff):
        fringe = _fringe_grid(gain, self.ETAS, self.KS, cutoff)
        reports = _ofilter_grid(gain, self.ETAS, self.KS, cutoff)
        assert fringe.shape == (len(self.KS), len(self.ETAS), 3)
        assert [len(row) for row in reports] == [len(self.ETAS)] * len(self.KS)
        for i, eta in enumerate(self.ETAS):
            loss = LossParams(eta)
            ladder_law = _difference_law("H", gain, eta, cutoff.n_max)
            fringe_law = _difference_law("equatorial", gain, eta, cutoff.n_max)
            for j, k in enumerate(self.KS):
                want = lossy_fringe_probabilities(gain, loss, k, cutoff)
                assert tuple(fringe[j, i].tolist()) == want, (eta, k)
                p_plus, p_minus = tails_of_one_law(fringe_law, k)
                assert want == (p_plus, p_minus, max(0.0, 1.0 - p_plus - p_minus))
                rep = ofilter_witness_lossy(gain, loss, k, cutoff)
                assert reports[j][i] == rep, (eta, k)
                ladder = tails_of_one_law(ladder_law, k)
                term = p_minus - p_plus
                assert rep.terms == (ladder[1] - ladder[0], term, term)

    def test_negative_threshold_raises_before_the_gate(self):
        # a cutoff of 1 fails the tail gate at g = 1.2; the threshold is
        # checked first
        for grid in (_fringe_grid, _ofilter_grid):
            with pytest.raises(ValueError, match="threshold"):
                grid(GainParams(1.2), [0.5], [0, -1], Cutoff(1, 1e-9))
            with pytest.raises(CutoffError):
                grid(GainParams(1.2), [0.5], [0], Cutoff(1, 1e-9))

    def test_non_finite_row_is_named_in_threshold_then_eta_order(self, monkeypatch):
        law = qiopa.measurement._difference_law

        def poisoned_law(*args):
            out = law(*args)
            out[1, 1] = np.nan  # second eta: only the k = 0 tail
            out[2, 5] = np.nan  # third eta: the k = 0 and the k = 2 tails
            return out

        monkeypatch.setattr(qiopa.measurement, "_difference_law", poisoned_law)
        gain, cutoff = GainParams(0.5), Cutoff(required_cutoff(GainParams(0.5), 1e-9), 1e-9)
        etas = [0.25, 0.5, 0.75]
        for grid in (_fringe_grid, _ofilter_grid):
            with pytest.raises(CutoffError, match=r"non-finite .* eta=0\.5$"):
                grid(gain, etas, [0], cutoff)
            # k = 2 comes first and sees only the third row
            with pytest.raises(CutoffError, match=r"non-finite .* eta=0\.75$"):
                grid(gain, etas, [2, 0], cutoff)

    @pytest.mark.parametrize("grid", [_fringe_grid, _ofilter_grid])
    def test_stacking_stays_bounded_at_high_gain(self, grid):
        # g = 4 takes N = 2**17: one row a chunk; a whole-grid stack would
        # hold twenty
        gain = GainParams(4.0)
        cutoff = Cutoff(required_cutoff(gain, 1e-9), 1e-9)
        peaks = []
        for etas in ([0.5], list(np.linspace(0.0, 1.0, 20))):
            tracemalloc.start()
            try:
                grid(gain, etas, [0, 1, 2], cutoff)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    @pytest.mark.parametrize("grid", [_fringe_grid, _ofilter_grid])
    def test_fft_beyond_the_bound_raises_after_the_gate(self, grid):
        # cutoffs up to 4,194,303 take N = 2**23, the largest allowed: every
        # default cutoff to g = 6.3 (3,549,765)
        assert required_cutoff(GainParams(6.3), 1e-9) == 3_549_765
        assert qiopa.measurement._MAX_FFT == 1 << 23
        assert qiopa.measurement._fft_length(4_194_303) == 1 << 23
        assert qiopa.measurement._fft_length(4_194_304) == 1 << 24
        with pytest.raises(CutoffError, match="cutoff 4194304 at g=6.3 needs an FFT of length 16777216"):
            grid(GainParams(6.3), [0.5], [0], Cutoff(4_194_304, 1e-9))
        # an undersized cutoff fails the tail gate first
        with pytest.raises(CutoffError, match="cutoff 9000001 keeps tail mass"):
            grid(GainParams(7.0), [0.5], [0], Cutoff(9_000_001, 1e-9))


def test_parity_expectation_decays_with_loss():
    # <Sigma_3> on the lossy aligned macro-qubit decays toward zero once the
    # mean number of lost photons passes one
    g = GainParams(0.8)
    cut = Cutoff(30, 1e-3)
    op = sigma_operator(3, g, 30, basis=PM)
    state = macro_qubit(0.0, g, cut).state.normalized()
    values = []
    for eta in (1.0, 0.75, 0.5, 0.25, 0.0):
        rho = lossy_channel(state, LossParams(eta))
        values.append(op.expectation(rho.matrix))
    assert values[0] == pytest.approx(1.0, abs=1e-9)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(0.0, abs=1e-12)
    r_big = 1.0 - 1.0 / g.mean_photon_number  # about one lost photon on average
    rho = lossy_channel(state, LossParams(1.0 - r_big))
    assert op.expectation(rho.matrix) < 0.35


class TestMultiDetector:
    def test_vacuum_inconclusive(self):
        vac = TwoModeVector.from_amplitudes({(0, 0): 1.0}, 4, PM)
        assert multi_detector_probabilities(vac, PM, 4) == (0.0, 0.0, 1.0)

    def test_all_click_probability_counts_surjections(self):
        # n photons over N detectors: all fire with probability N! S(n, N) / N^n
        assert all_detectors_click_probability(np.array([4]), 4)[0] == pytest.approx(
            math.factorial(4) / 4**4
        )
        assert all_detectors_click_probability(np.array([2]), 4)[0] == 0.0
        # n = 5 over N = 3: surjections 3! * S(5,3) = 150 of 243
        assert all_detectors_click_probability(np.array([5]), 3)[0] == pytest.approx(
            150.0 / 243.0
        )

    def test_perfectly_polarized_coincidence(self):
        state = TwoModeVector.from_amplitudes({(4, 0): 1.0}, 4, PM)
        p_plus, p_minus, p_zero = multi_detector_probabilities(state, PM, 4)
        assert p_plus == pytest.approx(math.factorial(4) / 4**4, abs=1e-12)
        assert p_minus == 0.0

    def test_double_coincidences_are_inconclusive(self):
        state = TwoModeVector.from_amplitudes({(4, 4): 1.0}, 8, PM)
        p_plus, p_minus, p_zero = multi_detector_probabilities(state, PM, 4)
        both = all_detectors_click_probability(np.array([4]), 4)[0] ** 2
        assert p_plus == p_minus
        assert p_zero == pytest.approx(1.0 - 2 * p_plus, abs=1e-12)
        assert p_zero > both  # the simultaneous N-fold coincidence sits in 0

    def test_acceptance_regions_track_the_threshold_filter(self):
        # both schemes accept Fock states with a large photon imbalance; their
        # (+1) maps over the Fock plane correlate strongly
        md, of = [], []
        for n in range(13):
            for m in range(13 - n):
                state = TwoModeVector.from_amplitudes({(n, m): 1.0}, 12, PM)
                md.append(multi_detector_probabilities(state, PM, 4)[0])
                of.append(ofilter_probabilities(state, PM, 4)[0])
        corr = np.corrcoef(md, of)[0, 1]
        assert corr > 0.5

    def test_detector_count_validation(self):
        state = TwoModeVector.from_amplitudes({(1, 0): 1.0}, 2, PM)
        with pytest.raises(ValueError):
            multi_detector_probabilities(state, PM, 0)

    def test_outcomes_weight_populations_by_click_probabilities(self):
        # +1 needs every detector of the first branch and not every one of the
        # second, so each measured |n, m> contributes s(n) (1 - s(m))
        rng = np.random.default_rng(8)
        space = fock_space(9)
        vec = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        state = TwoModeVector.from_dense(vec / np.linalg.norm(vec), 9, HV)
        dist = photon_distribution(state, PM)
        click = {n: all_detectors_click_probability(np.array([n]), 3)[0] for n in range(10)}
        want_plus = sum(p * click[n] * (1.0 - click[m]) for (n, m), p in dist.items())
        want_minus = sum(p * click[m] * (1.0 - click[n]) for (n, m), p in dist.items())
        p_plus, p_minus, p_zero = multi_detector_probabilities(state, PM, 3)
        assert p_plus == pytest.approx(want_plus, abs=1e-12)
        assert p_minus == pytest.approx(want_minus, abs=1e-12)
        assert p_plus + p_minus + p_zero == pytest.approx(1.0, abs=1e-12)


class TestStokes:
    def test_operator_structure(self):
        ops = stokes_operators(6, HV)
        space = fock_space(6)
        j1 = ops.dense(1)
        want = np.diag((space.n - space.m).astype(float))
        assert np.max(np.abs(j1 - want)) < 1e-12
        for axis in (2, 3):
            j = ops.dense(axis)
            assert np.max(np.abs(j - j.conj().T)) < 1e-12
            basis = PolarizationBasis.canonical(axis)
            evals = np.sort(np.linalg.eigvalsh(j[1:3, 1:3]))
            assert np.allclose(evals, [-1.0, 1.0], atol=1e-12)

    def test_identity_two_eta(self):
        for g_val in (0.3, 0.6):
            gain = GainParams(g_val)
            cut = Cutoff(required_cutoff(gain, 1e-9), 1e-8)
            for eta in (0.0, 0.5, 1.0):
                value = simon_spin_witness_lossy(gain, LossParams(eta), cut).value
                assert value == pytest.approx(2 * eta, abs=1e-9)

    def test_lossy_shortcut_matches_explicit_kraus(self):
        # odd and even cutoffs: the ladder's last rung sits at n_max or n_max - 1;
        # the package reports the untruncated terms, so only its value is compared
        for g_val, n_max in ((0.0, 1), (0.6, 16), (1.0, 17), (1.2, 24)):
            gain = GainParams(g_val)
            cut = Cutoff(n_max, 0.5)
            state = micro_macro_state_hv(gain, cut)
            for eta in (0.0, 0.3, 0.7, 1.0):
                terms, mean_n, value = spin_terms_ladder(gain, LossParams(eta), cut)
                slow = simon_spin_witness(lossy_channel(state, LossParams(eta)))
                assert terms == pytest.approx(slow.terms, abs=1e-12)
                assert mean_n == pytest.approx(slow.params["mean_photons_b"], abs=1e-12)
                assert value == pytest.approx(slow.value, abs=1e-12)
                fast = simon_spin_witness_lossy(gain, LossParams(eta), cut)
                assert fast.value == pytest.approx(slow.value, abs=1e-12)

    def test_separable_product_states_stay_non_positive(self):
        rng = np.random.default_rng(23)
        space = fock_space(6)
        for _ in range(5):
            micro = rng.normal(size=2) + 1j * rng.normal(size=2)
            micro /= np.linalg.norm(micro)
            macro = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            macro /= np.linalg.norm(macro)
            vec = np.kron(micro, macro)
            rho = DensityOperator(np.outer(vec, vec.conj()), 6, HV, micro_dim=2)
            assert simon_spin_witness(rho).value <= 1e-10

    def test_punctured_state_product_with_macro_qubit(self):
        gain = GainParams(0.9)
        macro = macro_qubit(0.0, gain, Cutoff(16, 0.5)).state.normalized()
        vec = np.kron(np.array([1.0, 0.0]), macro.dense())
        rho = DensityOperator(np.outer(vec, vec.conj()), 16, PM, micro_dim=2)
        assert simon_spin_witness(rho).value <= 1e-10

    @pytest.mark.parametrize(
        "cutoff, basis", [(6, HV), (7, RL), (8, PolarizationBasis.equatorial(0.4))]
    )
    def test_mixed_route_matches_dense_operators(self, cutoff, basis):
        # Tr(rho (sigma_i x J_i)) with J_i the dense Stokes operator
        rng = np.random.default_rng(cutoff)
        dim = 2 * fock_space(cutoff).dim
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = a @ a.conj().T
        rho = DensityOperator(a / np.trace(a), cutoff, basis, micro_dim=2)
        ops = stokes_operators(cutoff, basis)
        terms, mean_n = stokes_terms(rho)
        for axis in (1, 2, 3):
            want = expectation(rho, np.kron(pauli_matrix(axis, basis), ops.dense(axis)))
            assert terms[axis - 1] == pytest.approx(want, abs=1e-12)
        number = np.kron(np.eye(2), np.diag(ops.number_diagonal))
        assert mean_n == pytest.approx(expectation(rho, number), abs=1e-12)

    def test_pure_and_mixed_routes_agree(self):
        gain, cut = GainParams(0.6), Cutoff(12, 0.5)
        # the equatorial state has complex amplitudes
        for state in (micro_macro_state_hv(gain, cut), micro_macro_state(0.7, gain, cut)):
            vec = state.dense().reshape(-1)
            rho = DensityOperator(np.outer(vec, vec.conj()), state.cutoff, state.basis, micro_dim=2)
            pure_terms, pure_n = stokes_terms(state)
            mixed_terms, mixed_n = stokes_terms(rho)
            assert np.max(np.abs(pure_terms - mixed_terms)) < 1e-12
            assert pure_n == pytest.approx(mixed_n, abs=1e-12)

    def test_requires_joint_state(self):
        rho = DensityOperator(np.eye(fock_space(3).dim) / fock_space(3).dim, 3, HV)
        with pytest.raises(ValueError):
            simon_spin_witness(rho)


# Stokes operators are Schwinger maps; the rotation route conjugates the
# photon-number difference of the measurement basis into the representation,
# with the binomial-expansion rotations so that the check stays independent
# of the map it checks.
STOKES_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
phases = st.floats(0.0, 2.0 * math.pi)
axes = st.sampled_from((1, 2, 3))


def sector_block(pauli, total):
    """Block of the Schwinger map of ``pauli`` on the sector of ``total`` photons."""
    sl = fock_space(total).sector_slices[total]
    op = schwinger_operator(pauli, total)
    hops = slice(sl.start, sl.stop - 1)
    return np.diag(op.diagonal[sl]) + np.diag(op.lower[hops], -1) + np.diag(op.upper[hops], 1)


class TestStokesBlocks:
    @STOKES_PROPERTY
    @given(phi=phases, axis=axes)
    @example(phi=0.0, axis=2)
    @example(phi=3.0 * math.pi / 2.0, axis=3)
    def test_schwinger_blocks_match_rotated_number_difference(self, phi, axis):
        rep = PolarizationBasis.equatorial(phi)
        transfer = transfer_matrix(rep, PolarizationBasis.canonical(axis))
        pauli = pauli_matrix(axis, rep)
        for total in range(21):
            r = binomial_sector_matrix(total, transfer)
            diff = 2.0 * np.arange(total + 1) - total
            want = r.conj().T @ (diff[:, None] * r)
            assert np.max(np.abs(sector_block(pauli, total) - want)) < 1e-12

    @STOKES_PROPERTY
    @given(phi=phases, total=st.integers(0, 500))
    @example(phi=0.3, total=500)
    @example(phi=0.0, total=0)
    def test_schwinger_blocks_form_a_spin_algebra(self, phi, total):
        rep = PolarizationBasis.equatorial(phi)
        j = [sector_block(pauli_matrix(axis, rep), total) for axis in (1, 2, 3)]
        scale = max(total, 1)
        for block in j:
            assert np.max(np.abs(block - block.conj().T)) <= 1e-14 * scale
        # [J2, J3] = 2i J1 and cyclically, as for the Pauli triplet
        for a, b, c in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
            comm = j[a] @ j[b] - j[b] @ j[a]
            assert np.max(np.abs(comm - 2j * j[c])) <= 1e-14 * scale**2

    def test_operators_are_the_sector_blocks(self):
        # each operator is block diagonal over the photon-number sectors,
        # with the sector blocks of the Schwinger map of its axis
        ops = stokes_operators(5, RL)
        space = fock_space(5)
        same_sector = space.total[:, None] == space.total[None, :]
        for axis in (1, 2, 3):
            dense = ops.dense(axis)
            assert not np.any(dense[~same_sector])
            for total, sl in enumerate(space.sector_slices):
                want = sector_block(pauli_matrix(axis, RL), total)
                assert np.array_equal(dense[sl, sl], want)
