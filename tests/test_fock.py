import math

import numpy as np
import pytest

from qiopa import (
    Cutoff,
    DensityOperator,
    GainParams,
    PolarizationBasis,
    TwoModeVector,
    expectation,
    fock_space,
    macro_qubit,
    photon_distribution,
    rotate_basis,
)
from qiopa.fock import rotate_dense, transfer_matrix

HV = PolarizationBasis.hv()
PM = PolarizationBasis.plus_minus()
RL = PolarizationBasis.right_left()


def random_state(rng, cutoff, basis=HV):
    space = fock_space(cutoff)
    vec = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    vec /= np.linalg.norm(vec)
    return TwoModeVector.from_dense(vec, cutoff, basis)


class TestPolarizationBasis:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PolarizationBasis("diagonal")

    def test_hv_carries_no_phase(self):
        with pytest.raises(ValueError):
            PolarizationBasis("hv", 0.3)

    def test_canonical_indices(self):
        assert PolarizationBasis.canonical(1) == HV
        assert PolarizationBasis.canonical(2) == RL
        assert PolarizationBasis.canonical(3) == PM
        with pytest.raises(ValueError):
            PolarizationBasis.canonical(4)

    def test_phase_canonicalized_mod_2pi(self):
        assert PolarizationBasis.equatorial(2 * math.pi) == PM
        assert PolarizationBasis.equatorial(-math.pi / 2) == RL

    def test_mode_matrices_unitary(self):
        for basis in (HV, PM, RL, PolarizationBasis.equatorial(1.234)):
            m = basis.mode_matrix
            assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


class TestFockSpace:
    def test_index_round_trip(self):
        space = fock_space(7)
        for i in range(space.dim):
            assert space.index(int(space.n[i]), int(space.m[i])) == i

    def test_dimension(self):
        assert fock_space(40).dim == 41 * 42 // 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fock_space(4).index(3, 2)


class TestTwoModeVector:
    def test_norm_guard(self):
        with pytest.raises(ValueError):
            TwoModeVector.from_amplitudes({(0, 0): 1.0, (1, 0): 0.5}, 2, HV)

    def test_index_guard(self):
        with pytest.raises(ValueError):
            TwoModeVector.from_amplitudes({(2, 1): 1.0}, 2, HV)

    def test_drop_threshold(self):
        space = fock_space(2)
        vec = np.zeros(space.dim, dtype=complex)
        vec[space.index(1, 0)] = 1.0
        vec[space.index(0, 1)] = 1e-15
        state = TwoModeVector.from_dense(vec, 2, HV)
        assert (0, 1) not in state.amplitudes

    def test_normalized(self):
        state = TwoModeVector.from_amplitudes({(1, 0): 0.5}, 2, HV).normalized()
        assert state.norm() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            TwoModeVector.from_amplitudes({}, 2, HV).normalized()


class TestRotateBasis:
    def test_single_photon(self):
        state = TwoModeVector.from_amplitudes({(1, 0): 1.0}, 4, HV)
        rotated = rotate_basis(state, PM)
        expected = 1.0 / math.sqrt(2.0)
        assert rotated.amplitudes[(1, 0)] == pytest.approx(expected, abs=1e-14)
        assert rotated.amplitudes[(0, 1)] == pytest.approx(expected, abs=1e-14)

    def test_two_photons_binomial_expansion(self):
        # (a_H^dag)^2 / sqrt(2) |vac> expanded over the +/- modes gives
        # amplitudes (1/2, 1/sqrt(2), 1/2) on |2,0>, |1,1>, |0,2>
        state = TwoModeVector.from_amplitudes({(2, 0): 1.0}, 4, HV)
        rotated = rotate_basis(state, PM)
        assert rotated.amplitudes[(2, 0)] == pytest.approx(0.5, abs=1e-14)
        assert rotated.amplitudes[(1, 1)] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
        assert rotated.amplitudes[(0, 2)] == pytest.approx(0.5, abs=1e-14)

    def test_ten_photons_binomial_distribution(self):
        state = TwoModeVector.from_amplitudes({(10, 0): 1.0}, 12, PM)
        dist = photon_distribution(state, RL)
        for r in range(11):
            expected = math.comb(10, r) / 1024.0
            assert dist[(r, 10 - r)] == pytest.approx(expected, abs=1e-12)

    def test_unknown_target_rejected(self):
        state = TwoModeVector.from_amplitudes({(1, 0): 1.0}, 2, HV)
        with pytest.raises(ValueError):
            rotate_basis(state, "circular")

    @pytest.mark.parametrize("g", [0.5, 1.0])
    def test_unitarity_on_macro_qubits(self, g):
        state = macro_qubit(0.0, GainParams(g), Cutoff(24, 0.1)).state.normalized()
        rotated = rotate_basis(state, RL)
        assert abs(rotated.norm() - 1.0) < 1e-12

    def test_unitarity_on_random_states(self):
        rng = np.random.default_rng(7)
        for cutoff in (6, 14, 24):
            state = random_state(rng, cutoff)
            for target in (PM, RL, PolarizationBasis.equatorial(0.77)):
                assert abs(rotate_basis(state, target).norm() - 1.0) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        state = random_state(rng, 12, PM)
        back = rotate_basis(rotate_basis(state, HV), PM)
        orig = state.dense()
        diff = np.abs(back.dense() - orig)
        assert diff.max() < 1e-12

    def test_photon_number_conservation_exact(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 10)
        rotated = rotate_basis(state, RL)
        for vec in (state, rotated):
            totals = {}
            for (n, m), amp in vec.amplitudes.items():
                totals[n + m] = totals.get(n + m, 0.0) + abs(amp) ** 2
            if vec is state:
                reference = totals
        for total, weight in reference.items():
            assert totals[total] == pytest.approx(weight, abs=1e-13)

    def test_half_turn_is_exact_mode_swap(self):
        state = TwoModeVector.from_amplitudes({(3, 1): 0.8, (1, 0): 0.6}, 4, PM)
        swapped = rotate_basis(state, PolarizationBasis.equatorial(math.pi))
        assert swapped.amplitudes[(1, 3)] == pytest.approx(0.8, abs=1e-14)
        assert swapped.amplitudes[(0, 1)] == pytest.approx(0.6, abs=1e-14)


class TestExpectation:
    def test_vacuum_photon_number(self):
        space = fock_space(3)
        rho = DensityOperator.from_pure(TwoModeVector.from_amplitudes({(0, 0): 1.0}, 3, HV))
        number = np.diag(space.total.astype(float))
        assert expectation(rho, number) == pytest.approx(0.0, abs=1e-14)

    def test_fock_eigenvalue(self):
        space = fock_space(4)
        rho = DensityOperator.from_pure(TwoModeVector.from_amplitudes({(2, 1): 1.0}, 4, HV))
        number = np.diag(space.total.astype(float))
        assert expectation(rho, number) == pytest.approx(3.0, abs=1e-13)

    def test_linearity_on_mixtures(self):
        rng = np.random.default_rng(5)
        space = fock_space(5)
        a = random_state(rng, 5)
        b = random_state(rng, 5)
        herm = rng.normal(size=(space.dim, space.dim))
        herm = herm + herm.T
        rho_a = DensityOperator.from_pure(a)
        rho_b = DensityOperator.from_pure(b)
        mixed = DensityOperator(
            0.25 * rho_a.matrix + 0.75 * rho_b.matrix, 5, HV
        )
        want = 0.25 * expectation(rho_a, herm) + 0.75 * expectation(rho_b, herm)
        assert expectation(mixed, herm) == pytest.approx(want, abs=1e-12)

    def test_hermitian_gives_real(self):
        rng = np.random.default_rng(9)
        rho = DensityOperator.from_pure(random_state(rng, 4))
        herm = rng.normal(size=(rho.dim, rho.dim)) + 1j * rng.normal(size=(rho.dim, rho.dim))
        herm = herm + herm.conj().T
        assert isinstance(expectation(rho, herm), float)

    def test_dimension_mismatch(self):
        rho = DensityOperator.from_pure(TwoModeVector.from_amplitudes({(0, 0): 1.0}, 3, HV))
        with pytest.raises(ValueError):
            expectation(rho, np.eye(4))


class TestPhotonDistribution:
    def test_point_mass_in_own_basis(self):
        state = TwoModeVector.from_amplitudes({(5, 0): 1.0}, 6, PM)
        assert photon_distribution(state, PM) == {(5, 0): 1.0}

    def test_sums_to_one(self):
        rng = np.random.default_rng(13)
        state = random_state(rng, 9, PM)
        dist = photon_distribution(state, RL)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_unamplified_macro_qubit(self):
        state = macro_qubit(0.0, GainParams(0.0), Cutoff(2, 0.5)).state
        assert photon_distribution(state, PM) == {(1, 0): 1.0}


class TestDensityOperator:
    def test_shape_guard(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(5), 2, HV)

    def test_rotation_matches_pure_rotation(self):
        rng = np.random.default_rng(17)
        state = random_state(rng, 8)
        rho = DensityOperator.from_pure(state).rotated(RL)
        direct = DensityOperator.from_pure(rotate_basis(state, RL))
        assert np.max(np.abs(rho.matrix - direct.matrix)) < 1e-12

    def test_joint_rotation_micro_consistency(self):
        # a joint operator with a trivial macro factor must transform its
        # micro qubit exactly like the single-photon sector does
        rng = np.random.default_rng(19)
        space = fock_space(2)
        micro = rng.normal(size=2) + 1j * rng.normal(size=2)
        micro /= np.linalg.norm(micro)
        vec = np.kron(micro, np.eye(space.dim)[space.index(0, 0)])
        joint = DensityOperator(np.outer(vec, vec.conj()), 2, PM, micro_dim=2)
        rotated = joint.rotated(HV)
        t = transfer_matrix(PM, HV)
        micro_hv = t.T @ micro
        want = np.kron(micro_hv, np.eye(space.dim)[space.index(0, 0)])
        assert np.max(np.abs(rotated.matrix - np.outer(want, want.conj()))) < 1e-12

    def test_validate(self):
        rho = DensityOperator.from_pure(TwoModeVector.from_amplitudes({(1, 0): 1.0}, 2, HV))
        rho.validate()
        bad = DensityOperator(rho.matrix * 2.0, 2, HV)
        with pytest.raises(ValueError):
            bad.validate()


class TestCutoff:
    def test_validation(self):
        with pytest.raises(ValueError):
            Cutoff(0)
        with pytest.raises(ValueError):
            Cutoff(4, 0.0)
        with pytest.raises(ValueError):
            Cutoff(4, 1.5)

    @pytest.mark.parametrize("n_max", [40.5, 40.0, "40", None])
    def test_rejects_a_cutoff_that_is_not_an_integer(self, n_max):
        # a float used to pass and fail later, in fock_space or dense()
        with pytest.raises(ValueError, match="cutoff must be an integer photon number"):
            Cutoff(n_max, 1e-3)

    def test_accepts_numpy_integers(self):
        for n_max in (np.int64(41), np.int32(41), np.uint16(41)):
            assert Cutoff(n_max).n_max == 41


def test_rotate_dense_sector_blocks_are_unitary():
    space = fock_space(20)
    eye = np.eye(space.dim, dtype=complex)
    rotated = rotate_dense(space, eye, PM, RL, axis=0)
    assert np.max(np.abs(rotated.conj().T @ rotated - eye)) < 1e-12
