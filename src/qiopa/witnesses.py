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
axis, sums over the single-mode loss amplitudes ``k_p(n)`` on the exact
truncation triangle; the threshold-filter terms thin the signed axis-basis
populations binomially; the spin terms scale by ``eta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .amplifier import (
    GainParams,
    MicroMacroState,
    _checked_tail,
    _macro_mode_populations,
    seed_pair_amplitude,
)
from .channels import LossParams
from .fock import (
    Cutoff,
    DensityOperator,
    PolarizationBasis,
    TwoModeVector,
    fock_space,
    rotate_basis,
    rotate_dense,
    transfer_matrix,
)
from .measurement import (
    PseudoPauliOperator,
    _binomial_thinning_kernel,
    _checked_finite,
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

def micro_micro_witness(rho: np.ndarray, params: dict | None = None) -> WitnessReport:
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
    return WitnessReport(value, SEPARABLE_BOUND, terms, "micro-micro", dict(params or {}))


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
    joint: DensityOperator | MicroMacroState,
    gain: GainParams,
    sigmas: tuple[PseudoPauliOperator, ...] | None = None,
) -> WitnessReport:
    """Pseudo-Pauli correlation test on the joint micro-macro state.

    The dichotomic operators are built at the same gain and cutoff as the
    state; prebuilt operators may be supplied but must match.  The amplified
    singlet scores 3 at unit transmittivity for any gain.
    """
    if isinstance(joint, MicroMacroState):
        rho = DensityOperator(
            joint.density_matrix(), joint.cutoff, joint.basis, micro_dim=2
        )
        return micro_macro_sigma_witness(rho, gain, sigmas)
    if joint.micro_dim != 2:
        raise ValueError("the pseudo-Pauli witness requires a joint state")
    d = joint.fock_dim
    if sigmas is None:
        sigmas = tuple(
            sigma_operator(axis, gain, joint.cutoff, basis=joint.basis)
            for axis in (1, 2, 3)
        )
    for op in sigmas:
        if op.cutoff != joint.cutoff or op.basis != joint.basis:
            raise ValueError(
                "pseudo-Pauli operators do not match the state's cutoff or basis"
            )
        if op.gain != gain:
            raise ValueError("pseudo-Pauli operators were built at a different gain")
    blocks = joint.matrix.reshape(2, d, 2, d)
    terms = tuple(
        _joint_term(blocks, pauli_matrix(op.axis, joint.basis), op) for op in sigmas
    )
    value = sum(abs(t) for t in terms)
    return WitnessReport(
        value,
        SEPARABLE_BOUND,
        terms,
        "micro-macro-sigma",
        {"g": gain.g, "cutoff": joint.cutoff},
    )


def _shifted(x: np.ndarray) -> np.ndarray:
    """Square matrix ``S[p, n] = x[n - p]``, zero where ``n < p``."""
    lag = np.arange(x.size) - np.arange(x.size)[:, None]
    return np.where(lag >= 0, x[np.maximum(lag, 0)], 0.0)


def _loss_amplitudes(n_max: int, eta: float) -> np.ndarray:
    """Single-mode loss amplitudes ``k[p, n] = sqrt(C(n,p) (1-eta)^p eta^(n-p))``
    of losing ``p`` of ``n`` photons, the square roots of the thinning kernel."""
    amp = np.sqrt(_binomial_thinning_kernel(n_max, eta))
    a, n = np.triu_indices(n_max + 1)
    k = np.zeros_like(amp)
    k[n - a, n] = amp[a, n]
    return k


def _ladder_fidelities(c: np.ndarray, k: np.ndarray) -> tuple[float, float]:
    """``F(H|H) = sum_p (sum_n c_{n-p} c_n k_p(n+1) k_p(n))^2`` and
    ``F(V|H) = sum_q (sum_n c_{n-1-q} c_n k_{q+2}(n+1) k_q(n))^2`` of the pair
    ladders ``sum c_n |n+1, n>`` (H) and ``sum c_n |n, n+1>`` (V)."""
    size = c.size
    below = _shifted(c)  # c_{n-p}
    same = np.einsum("pn,n,pn,pn->p", below, c, k[:size, 1 : size + 1], k[:size, :size])
    # summed over n - 1, so that below[q, n - 1] = c_{n-1-q}
    cross = np.einsum(
        "qn,n,qn,qn->q",
        below[:-1, :-1], c[1:], k[2 : size + 1, 2 : size + 1], k[: size - 1, 1:size],
    )
    return float(same @ same), float(cross @ cross)


def _product_fidelity(bra, ket, k: np.ndarray) -> float:
    """``sum_pq |M[p, q]|^2`` with ``M[p, q] = <x y| K_p x K_q |s t>`` for
    product states ``bra = (x, y)``, ``ket = (s, t)`` (single-mode amplitudes
    by photon count) kept on the triangle ``n + m <= N``:
    ``M[p, q] = sum_n f_p(n) G_q(N - n)``, ``f_p(n) = x(n-p) s(n) k_p(n)``,
    ``G_q`` the cumulative sum of ``y(m-q) t(m) k_q(m)``."""
    (x, y), (s, t) = bra, ket
    f = _shifted(x) * s * k
    g = np.cumsum(_shifted(y) * t * k, axis=1)
    m = f @ g[:, ::-1].T
    return float(np.sum(m * m))


def sigma_witness_lossy(gain: GainParams, loss: LossParams, cutoff: Cutoff) -> WitnessReport:
    """Pseudo-Pauli test of the amplified singlet after loss on the macro arm.

    Each term is a difference of lossy fidelities between the normalized
    truncated seeds ``A_0``, ``A_1`` of the axis, ``term_j = F(0|1) - F(0|0)``
    with ``F(a|b) = <A_a| L(|A_b><A_b|) |A_a>``, exact on the truncated
    state of :func:`qiopa.amplifier.micro_macro_state`, whose tail gate it
    shares.  Axis 1 pairs the (H, V) ladders; on axes 2 and 3, which give
    one value, both seeds are products over the two modes.  No state, Kraus
    image or rotation is formed; the derivation is in ``notes/decisions.md``.
    """
    n_max = cutoff.n_max
    c = seed_pair_amplitude(np.arange((n_max - 1) // 2 + 1), gain)
    mass = float(np.sum(c**2))
    _checked_tail(mass, gain, cutoff)
    k = _loss_amplitudes(n_max, loss.eta)
    same, cross = _ladder_fidelities(c, k)
    term_1 = (cross - same) / mass**2
    # equatorial(0) seed |A_0> = sum u_i v_j |2i+1, 2j>; equatorial(pi) is
    # equatorial(0) with the modes exchanged, and its seed is
    # |A_1> = sum (-1)^(i+j) u_i v_j |2j, 2i+1>
    a, b = _macro_mode_populations(gain, n_max)
    eq_mass = float(a @ np.cumsum(b)[::-1])
    u, v = np.sqrt(a), np.sqrt(b) * (-1.0) ** np.arange(b.size)
    parity = (-1.0) ** np.arange(a.size)
    odd, even, odd_1, even_1 = np.zeros((4, n_max + 1))
    odd[1 : 2 * u.size : 2], even[: 2 * v.size : 2] = u, v
    odd_1[1 : 2 * u.size : 2], even_1[: 2 * v.size : 2] = parity * u, parity * v
    seed_0, seed_1 = (odd, even), (even_1, odd_1)
    cross_eq, same_eq = (_product_fidelity(seed_0, seed, k) for seed in (seed_1, seed_0))
    term_23 = (cross_eq - same_eq) / eq_mass**2
    terms = (term_1, term_23, term_23)
    _checked_finite(terms, gain, loss, n_max)
    value = sum(abs(t) for t in terms)
    return WitnessReport(
        value,
        SEPARABLE_BOUND,
        terms,
        "micro-macro-sigma",
        {"g": gain.g, "eta": loss.eta, "cutoff": n_max},
    )


# --------------------------------------------------------------------------
# threshold-filter criterion
# --------------------------------------------------------------------------

_OFILTER_NOTE = (
    "not an entanglement witness without the coherent-amplification "
    "assumption on the source"
)


def ofilter_witness(
    joint: DensityOperator, k: int, params: dict | None = None
) -> WitnessReport:
    """Three-basis threshold-filter correlation test on a joint state.

    The nominal separable bound 1 only applies under a supplementary
    assumption on the source; phase-averaged separable product states can
    exceed it, see :func:`separable_counterexample`.
    """
    if joint.micro_dim != 2:
        raise ValueError("the threshold-filter witness requires a joint state")
    d = joint.fock_dim
    terms = []
    for axis in (1, 2, 3):
        basis = PolarizationBasis.canonical(axis)
        rotated = joint.rotated(basis)
        povm = threshold_povm(basis, k, joint.cutoff)
        diag = rotated.matrix.diagonal().real.reshape(2, d)
        term = float(np.dot(diag[0] - diag[1], povm.difference_diagonal()))
        terms.append(term)
    value = sum(abs(t) for t in terms)
    merged = {"k": k, "cutoff": joint.cutoff}
    merged.update(params or {})
    return WitnessReport(
        value, SEPARABLE_BOUND, tuple(terms), "micro-macro-ofilter", merged,
        note=_OFILTER_NOTE,
    )


def ofilter_witness_lossy(
    state: MicroMacroState, loss: LossParams, k: int
) -> WitnessReport:
    """Threshold-filter test after loss on the macro arm of a pure state.

    The filter is diagonal in each axis basis, and equal-transmittivity loss
    is phase covariant and commutes with passive rotations, so each term is
    the binomial thinning (as in the fringe) of the lossless state's signed
    axis-basis populations ``|psi'_0|^2 - |psi'_1|^2``.
    """
    space = fock_space(state.cutoff)
    kernel = _binomial_thinning_kernel(state.cutoff, loss.eta)
    terms = []
    for axis in (1, 2, 3):
        basis = PolarizationBasis.canonical(axis)
        povm = threshold_povm(basis, k, state.cutoff)
        rot = rotate_dense(space, state.dense(space), state.basis, basis)
        rot = transfer_matrix(state.basis, basis).T @ rot
        signed = np.zeros((state.cutoff + 1, state.cutoff + 1))
        signed[space.n, space.m] = np.abs(rot[0]) ** 2 - np.abs(rot[1]) ** 2
        thinned = kernel @ signed @ kernel.T
        terms.append(float(thinned[space.n, space.m] @ povm.difference_diagonal()))
    value = sum(abs(t) for t in terms)
    return WitnessReport(
        value,
        SEPARABLE_BOUND,
        tuple(terms),
        "micro-macro-ofilter",
        {"k": k, "eta": loss.eta, "g": state.gain.g, "cutoff": state.cutoff},
        note=_OFILTER_NOTE,
    )


# --------------------------------------------------------------------------
# generalized dichotomic bound
# --------------------------------------------------------------------------

def _abs_pauli_sum(theta: float, phi: float) -> float:
    return (
        abs(math.sin(theta) * math.cos(phi))
        + abs(math.sin(theta) * math.sin(phi))
        + abs(math.cos(theta))
    )


def generalized_dichotomic_bound(grid: int = 241) -> DichotomicBound:
    """Maximize ``sum_j |<psi| sigma_j |psi>|`` over pure qubit states.

    A dense Bloch-sphere grid is refined by a deterministic local search; the
    maximum is ``sqrt(3)``, attained at Bloch vectors ``(+-1, +-1, +-1) /
    sqrt(3)``.  By convexity no mixed state exceeds the pure-state maximum.
    """
    # scipy.optimize takes longer to import than the rest of the package
    from scipy.optimize import minimize

    thetas = np.linspace(0.0, math.pi, grid)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * grid)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    values = (
        np.abs(np.sin(tt) * np.cos(pp))
        + np.abs(np.sin(tt) * np.sin(pp))
        + np.abs(np.cos(tt))
    )
    best = np.unravel_index(np.argmax(values), values.shape)
    x0 = np.array([thetas[best[0]], phis[best[1]]])
    result = minimize(
        lambda x: -_abs_pauli_sum(x[0], x[1]),
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000},
    )
    theta, phi = result.x
    bloch = np.array(
        [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
    )
    return DichotomicBound(float(-result.fun), bloch)


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

def simon_spin_witness(
    joint: DensityOperator | MicroMacroState, params: dict | None = None
) -> WitnessReport:
    """Spin-criterion test ``|<sigma . J>| - <N>``; separable states stay at
    or below zero, the lossy amplified singlet reaches ``2 eta``."""
    terms, mean_n = stokes_terms(joint)
    value = float(abs(terms.sum()) - mean_n)
    merged = {"mean_photons_b": mean_n}
    merged.update(params or {})
    return WitnessReport(value, 0.0, tuple(float(t) for t in terms), "simon-spin", merged)


def simon_spin_witness_lossy(
    state: MicroMacroState, loss: LossParams
) -> WitnessReport:
    """Spin-criterion test after loss ``eta`` on the macro arm of a pure
    state.

    Equal-transmittivity loss rescales every photon-number-linear observable
    by ``eta`` exactly (the channel adjoint maps ``J -> eta J`` and
    ``N -> eta N`` at any cutoff), so every term and the value are ``eta``
    times the lossless ones; the test suite checks this against the explicit
    Kraus sum.
    """
    terms, mean_n = stokes_terms(state)
    value = float(loss.eta * (abs(terms.sum()) - mean_n))
    return WitnessReport(
        value,
        0.0,
        tuple(float(loss.eta * t) for t in terms),
        "simon-spin",
        {
            "g": state.gain.g,
            "eta": loss.eta,
            "cutoff": state.cutoff,
            "mean_photons_b": loss.eta * mean_n,
        },
    )
