"""Entanglement tests for the micro-macro system.

All three-term criteria are reported as the absolute-value combination
``S = sum_i |<sigma_i x D_i>|`` so that the two-photon singlet scores 3 under
each of them; ``S > 1`` certifies entanglement for the qubit-qubit and
pseudo-Pauli criteria, while the threshold-filter variant exceeds 1 even for
a class of separable states and is only a witness under a supplementary
assumption on the source.  The assumption-free bound for dichotomic
measurements is ``sqrt(3)``, attained by Bloch vectors along the main
diagonals; the spin (Stokes) criterion bounds separable states at zero.

The lossy tests never form the lossy state.  The pseudo-Pauli terms are
differences of lossy fidelities between the two amplified seeds of each
axis, two rational functions of ``sinh^2 g`` and ``eta``; the
threshold-filter terms are the imbalance ``P- - P+`` of one thinned seed,
tails of the law of its photon-number difference; the spin terms are the
pair ladder's untruncated Stokes correlations, scaled by ``eta``.  A cutoff
only runs the seeded tail gate (and sets the FFT length of the
threshold-filter terms, one stacked FFT per seed over a whole eta grid);
every reported value is the untruncated one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .amplifier import GainParams, MicroMacroState, _checked_seeded_tail
from .channels import LossParams
from .fock import (
    Cutoff,
    DensityOperator,
    PolarizationBasis,
    TwoModeVector,
    fock_space,
    rotate_basis,
)
from .measurement import (
    PseudoPauliOperator,
    _checked_finite,
    _fock_populations,
    _tail_grid,
    pauli_matrix,
    sigma_operator,
    stokes_terms,
    threshold_povm,
)

SEPARABLE_BOUND = 1.0
DICHOTOMIC_BOUND = math.sqrt(3.0)

_PAULI_HV = tuple(pauli_matrix(axis) for axis in (1, 2, 3))


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of one entanglement test.

    ``value`` is the reported combination of the three signed per-basis
    ``terms`` (their absolute values summed, minus the photon number for the
    spin criterion); ``bound`` is what separable states cannot exceed.
    """

    value: float
    bound: float
    terms: tuple[float, float, float]
    criterion: str
    params: dict = field(default_factory=dict)
    note: str | None = None

    @property
    def violated(self) -> bool:
        return self.value > self.bound


@dataclass(frozen=True)
class DichotomicBound:
    """Numerically maximized dichotomic-criterion bound and its maximizer."""

    value: float
    bloch_vector: np.ndarray


@dataclass(frozen=True)
class SeparableCounterexample:
    """Phase-averaged anticorrelated product construction.

    An equal-weight mixture over ``nodes`` polarization angles of a product
    of a single equatorial photon with ``n_photons`` orthogonally polarized
    photons; separable by construction, yet it drives the threshold-filter
    criterion above 1 for suitable thresholds.
    """

    n_photons: int
    nodes: int
    state: DensityOperator


# --------------------------------------------------------------------------
# qubit-qubit criterion
# --------------------------------------------------------------------------

def micro_micro_witness(rho: np.ndarray) -> WitnessReport:
    """Three-axis Pauli correlation test on a two-qubit state
    (basis order HH, HV, VH, VV); separable states satisfy ``S <= 1``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got {rho.shape}")
    terms = tuple(
        float(np.einsum("ij,ji->", rho, np.kron(sig, sig)).real)
        for sig in _PAULI_HV
    )
    value = sum(abs(t) for t in terms)
    return WitnessReport(value, SEPARABLE_BOUND, terms, "micro-micro")


# --------------------------------------------------------------------------
# pseudo-Pauli micro-macro criterion
# --------------------------------------------------------------------------

def _joint_term(
    rho_blocks: np.ndarray, sig: np.ndarray, op: PseudoPauliOperator
) -> float:
    """``Tr[rho (sigma x (|u><u| - |w><w|))]`` from the reshaped joint matrix."""
    u, w = op.plus_vector, op.minus_vector
    a_u = np.einsum("e,setf,f->st", u.conj(), rho_blocks, u)
    a_w = np.einsum("e,setf,f->st", w.conj(), rho_blocks, w)
    return float((np.trace(a_u @ sig) - np.trace(a_w @ sig)).real)


def micro_macro_sigma_witness(
    joint: DensityOperator | MicroMacroState, gain: GainParams
) -> WitnessReport:
    """Pseudo-Pauli correlation test on the joint micro-macro state.

    The dichotomic operators are built at the given gain and at the state's
    cutoff and basis; a pure state enters as its projector.  The amplified
    singlet scores 3 at unit transmittivity for any gain.
    """
    if isinstance(joint, MicroMacroState):
        joint = DensityOperator.from_pure(joint)
    if joint.micro_dim != 2:
        raise ValueError("the pseudo-Pauli witness requires a joint state")
    d = joint.fock_dim
    blocks = joint.matrix.reshape(2, d, 2, d)
    terms = tuple(
        _joint_term(
            blocks,
            pauli_matrix(axis, joint.basis),
            sigma_operator(axis, gain, joint.cutoff, basis=joint.basis),
        )
        for axis in (1, 2, 3)
    )
    value = sum(abs(t) for t in terms)
    return WitnessReport(
        value,
        SEPARABLE_BOUND,
        terms,
        "micro-macro-sigma",
        {"g": gain.g, "cutoff": joint.cutoff},
    )


def sigma_witness_lossy(gain: GainParams, loss: LossParams, cutoff: Cutoff) -> WitnessReport:
    """Pseudo-Pauli test of the amplified singlet after loss on the macro arm.

    Each term is a difference of lossy fidelities between the seeds of the
    axis, ``term_j = F(0|1) - F(0|0)`` with ``F(a|b) = <A_a| L(|A_b><A_b|) |A_a>``,
    summed in closed form over the untruncated (H, V) pair ladders.  With
    ``s = sinh^2 g``, ``R = 1 - eta`` and ``w = 1 + s R (1 + eta)``,
    ``term_1 = -eta / w^2``; loss keeps the photon-number difference, so on
    axes 2 and 3 only ``F(H|H)`` survives, ``-eta (w + 2 R^2 s (1 + s)) / w^3``.
    The cutoff only runs the seeded tail gate; no array is formed.  The
    derivation is in ``notes/decisions.md``.
    """
    _checked_seeded_tail(gain, cutoff)
    eta, r, s = loss.eta, loss.R, gain.sinh_g**2
    w = 1.0 + s * r * (1.0 + eta)
    term_23 = -eta * (w + 2.0 * r * r * s * (1.0 + s)) / w**3
    terms = (-eta / w**2, term_23, term_23)
    _checked_finite(terms, gain, loss.eta, cutoff.n_max)
    value = sum(abs(t) for t in terms)
    return WitnessReport(
        value,
        SEPARABLE_BOUND,
        terms,
        "micro-macro-sigma",
        {"g": gain.g, "eta": loss.eta, "cutoff": cutoff.n_max},
    )


# --------------------------------------------------------------------------
# threshold-filter criterion
# --------------------------------------------------------------------------

_OFILTER_NOTE = (
    "not an entanglement witness without the coherent-amplification "
    "assumption on the source"
)


def ofilter_witness(joint: DensityOperator, k: int) -> WitnessReport:
    """Three-basis threshold-filter correlation test on a joint state.

    The nominal separable bound 1 only applies under a supplementary
    assumption on the source; phase-averaged separable product states can
    exceed it, see :func:`separable_counterexample`.
    """
    if joint.micro_dim != 2:
        raise ValueError("the threshold-filter witness requires a joint state")
    terms = []
    for axis in (1, 2, 3):
        basis = PolarizationBasis.canonical(axis)
        povm = threshold_povm(basis, k, joint.cutoff)
        pops = _fock_populations(joint, basis)
        term = float(np.dot(pops[0] - pops[1], povm.difference_diagonal()))
        terms.append(term)
    value = sum(abs(t) for t in terms)
    return WitnessReport(
        value, SEPARABLE_BOUND, tuple(terms), "micro-macro-ofilter",
        {"k": k, "cutoff": joint.cutoff}, note=_OFILTER_NOTE,
    )


def ofilter_witness_lossy(
    gain: GainParams, loss: LossParams, k: int, cutoff: Cutoff
) -> WitnessReport:
    """Threshold-filter test of the amplified singlet after loss on the macro
    arm.  In axis j's own basis the singlet is ``(|0>|A_1> - |1>|A_0>)/sqrt(2)``
    and ``A_1`` is ``A_0`` with its modes exchanged, up to signs, so each term
    is ``P- - P+`` of the lossy ``A_0``: the H-seed ladder on axis 1, the
    fringe on axes 2 and 3 (one value).  Both come from the untruncated law of
    the thinned difference (:func:`qiopa.measurement._difference_law`), as in
    :func:`qiopa.measurement.lossy_fringe_probabilities`.  It runs the seeded
    tail gate and forms no state.  One row of :func:`_ofilter_grid`."""
    return _ofilter_grid(gain, [loss.eta], [k], cutoff)[0][0]


def _ofilter_grid(gain: GainParams, etas, ks, cutoff: Cutoff) -> list[list[WitnessReport]]:
    """:func:`ofilter_witness_lossy` for every threshold (outer) and
    transmittivity (inner), from one stacked law per seed and chunk of the
    eta grid (:func:`qiopa.measurement._tail_grid`)."""
    (ladder_plus, ladder_minus), (fringe_plus, fringe_minus) = _tail_grid(
        ("H", "equatorial"), gain, etas, ks, cutoff
    )
    grid = np.stack([ladder_minus - ladder_plus, fringe_minus - fringe_plus], axis=-1)

    def report(k: int, eta: float, ladder: float, fringe: float) -> WitnessReport:
        terms = (ladder, fringe, fringe)
        return WitnessReport(
            sum(abs(t) for t in terms), SEPARABLE_BOUND, terms, "micro-macro-ofilter",
            {"k": k, "eta": eta, "g": gain.g, "cutoff": cutoff.n_max}, note=_OFILTER_NOTE,
        )

    return [[report(k, eta, *pair) for eta, pair in zip(etas, row)] for k, row in zip(ks, grid.tolist())]


# --------------------------------------------------------------------------
# generalized dichotomic bound
# --------------------------------------------------------------------------

_BLOCH_GRID = 241  # polar nodes of the Bloch grid; twice as many azimuthal ones
_STENCIL = np.arange(-2, 3)  # offsets of the 5 x 5 refinement stencil, in steps


def _abs_pauli_sum(theta, phi) -> np.ndarray:
    """``sum_j |<sigma_j>|`` at Bloch angles ``(theta, phi)``, elementwise."""
    sin_t = np.sin(theta)
    return np.abs(sin_t * np.cos(phi)) + np.abs(sin_t * np.sin(phi)) + np.abs(np.cos(theta))


def generalized_dichotomic_bound() -> DichotomicBound:
    """Maximize ``sum_j |<psi| sigma_j |psi>|`` over pure qubit states.

    The best point of a 241 x 482 Bloch grid is refined by a 5 x 5 stencil
    search: it moves to the stencil's best point, and halves its step (the
    grid's to start with) whenever the centre is that point, until the step
    falls below 1e-13.  The maximum is ``sqrt(3)``, attained at Bloch
    vectors ``(+-1, +-1, +-1) / sqrt(3)``.  By convexity no mixed state
    exceeds the pure-state maximum.
    """
    thetas = np.linspace(0.0, math.pi, _BLOCH_GRID)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * _BLOCH_GRID)
    values = _abs_pauli_sum(thetas[:, None], phis)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    theta, phi, step = thetas[i], phis[j], thetas[1]
    while step >= 1e-13:
        near_t, near_p = theta + step * _STENCIL, phi + step * _STENCIL
        values = _abs_pauli_sum(near_t[:, None], near_p)
        i, j = np.unravel_index(np.argmax(values), values.shape)
        if values[i, j] > values[2, 2]:
            theta, phi = near_t[i], near_p[j]
        else:
            step /= 2.0
    bloch = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])
    return DichotomicBound(float(_abs_pauli_sum(theta, phi)), bloch)


# --------------------------------------------------------------------------
# separable counterexample
# --------------------------------------------------------------------------

def separable_counterexample(
    n_photons: int, nodes: int = 64
) -> SeparableCounterexample:
    """Equal-weight phase average of anticorrelated product states.

    Each node pairs a single photon at equatorial angle ``phi`` on the micro
    arm with ``n_photons`` photons polarized orthogonally on the macro arm.
    The quadrature is exact (the integrand is a trigonometric polynomial) once
    ``nodes > 2 n_photons + 2``; 64 nodes cover every ``n_photons <= 20``.
    """
    if n_photons < 1:
        raise ValueError("the macro component needs at least one photon")
    if nodes < 8:
        raise ValueError("use at least 8 quadrature nodes")
    cutoff = n_photons
    space = fock_space(cutoff)
    d = space.dim
    hv = PolarizationBasis.hv()
    mat = np.zeros((2 * d, 2 * d), dtype=complex)
    for node in range(nodes):
        phi = 2.0 * math.pi * node / nodes
        micro = np.array([1.0, np.exp(1j * phi)]) / math.sqrt(2.0)
        macro = rotate_basis(
            TwoModeVector.from_amplitudes(
                {(0, n_photons): 1.0}, cutoff, PolarizationBasis.equatorial(phi)
            ),
            hv,
        ).dense(space)
        vec = np.kron(micro, macro)
        mat += np.outer(vec, vec.conj())
    mat /= nodes
    state = DensityOperator(mat, cutoff, hv, micro_dim=2)
    return SeparableCounterexample(n_photons, nodes, state)


# --------------------------------------------------------------------------
# spin (Stokes) criterion
# --------------------------------------------------------------------------

def simon_spin_witness(joint: DensityOperator | MicroMacroState) -> WitnessReport:
    """Spin-criterion test ``|<sigma . J>| - <N>``; separable states stay at
    or below zero, the lossy amplified singlet reaches ``2 eta``."""
    terms, mean_n = stokes_terms(joint)
    value = float(abs(terms.sum()) - mean_n)
    return WitnessReport(
        value, 0.0, tuple(float(t) for t in terms), "simon-spin", {"mean_photons_b": mean_n}
    )


def simon_spin_witness_lossy(gain: GainParams, loss: LossParams, cutoff: Cutoff) -> WitnessReport:
    """Spin-criterion test of the amplified singlet after loss on the macro
    arm, on the untruncated (H, V) pair ladders ``sum c_n |n, n+1>`` and
    ``sum c_n |n+1, n>`` of :func:`qiopa.amplifier.micro_macro_state_hv`.

    ``J_1`` gives -1; ``J_2`` and ``J_3`` move ``|n+1, n>`` to ``|n, n+1>``
    with weight ``n + 1``, so both terms are
    ``-sum c_n^2 (n+1) = -(1 + 2 sinh^2 g)``, and
    ``<N> = sum c_n^2 (2n+1) = 1 + 4 sinh^2 g``.  Equal-transmittivity loss
    maps ``J -> eta J`` and ``N -> eta N``, so the value is ``2 eta``.
    The cutoff only runs the seeded tail gate; no array is formed.  The
    derivation is in ``notes/decisions.md``.
    """
    _checked_seeded_tail(gain, cutoff)
    eta = loss.eta
    hop = -eta * (1.0 + 2.0 * gain.sinh_g**2)
    mean_n = eta * gain.mean_photon_number
    return WitnessReport(
        2.0 * eta, 0.0, (-eta, hop, hop), "simon-spin",
        {"g": gain.g, "eta": eta, "cutoff": cutoff.n_max, "mean_photons_b": mean_n},
    )
