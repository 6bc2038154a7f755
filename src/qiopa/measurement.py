"""Measurement operators for the amplified two-mode field.

Four measurement families are implemented:

* pseudo-Pauli dichotomic operators, the amplifier images of the qubit Pauli
  operators, which act as rank-two projector differences onto the two
  amplified seeds of a basis;
* the threshold filter POVM assigning +1 / -1 when the photon-number
  imbalance between the two modes of a basis exceeds a threshold ``k`` and an
  inconclusive 0 otherwise, and the fringe visibility it gives on the lossy
  macro-qubit.  The fringe and the lossy threshold-filter terms are tails
  of the law of a thinned photon-number difference, the FFT of its
  closed-form generating function on the unit circle (:func:`_difference_law`).
  The law does not depend on the threshold, so each gain takes one stacked
  FFT over its whole eta grid, in chunks of at most ``2**16`` complex
  entries, and reads every threshold's tails from it (:func:`_tail_grid`);
* a multi-detector coincidence scheme with non-number-resolving clicks;
* quantum Stokes operators (per-basis photon-number differences) and the
  total photon number.  Each Stokes operator is the Schwinger map
  ``J = sum_jk P[j,k] b_j^dag b_k`` of the axis's Pauli matrix ``P`` in the
  representation basis (:func:`qiopa.fock.schwinger_operator`), so no basis
  rotation enters it; it is tridiagonal, held as three numpy diagonals.  The
  spin witness built on them lives in :mod:`qiopa.witnesses`.

The measurement-basis convention is 1 -> {H,V}, 2 -> {R,L}, 3 -> {+,-}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .amplifier import (
    GainParams,
    MicroMacroState,
    _checked_seeded_tail,
    _hv_macro_vector_unchecked,
    _macro_vector_unchecked,
)
from .channels import LossParams
from .fock import (
    Cutoff,
    CutoffError,
    DensityOperator,
    PolarizationBasis,
    Tridiagonal,
    TwoModeVector,
    UndefinedVisibilityError,
    fock_space,
    rotate_dense,
    schwinger_operator,
    transfer_matrix,
)


def pauli_matrix(axis: int, basis: PolarizationBasis | None = None) -> np.ndarray:
    """Qubit Pauli operator of a canonical measurement axis, written in the
    coordinates of ``basis`` (H/V by default)."""
    rep = basis or PolarizationBasis.hv()
    t = transfer_matrix(PolarizationBasis.canonical(axis), rep)
    return np.outer(t[0], t[0].conj()) - np.outer(t[1], t[1].conj())


# --------------------------------------------------------------------------
# pseudo-Pauli operators
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PseudoPauliOperator:
    """Amplifier image of a Pauli operator: ``|A+><A+| - |A-><A-|`` where
    ``A+-`` are the normalized truncated amplified seeds of the measurement
    axis.  Eigenvalues are exactly +1, -1 and 0 on the truncated space."""

    axis: int
    gain: GainParams
    cutoff: int
    basis: PolarizationBasis
    plus_vector: np.ndarray
    minus_vector: np.ndarray

    def matrix(self) -> np.ndarray:
        return np.outer(self.plus_vector, self.plus_vector.conj()) - np.outer(
            self.minus_vector, self.minus_vector.conj()
        )

    def expectation(self, fock_matrix: np.ndarray) -> float:
        u, w = self.plus_vector, self.minus_vector
        return float(
            (u.conj() @ fock_matrix @ u - w.conj() @ fock_matrix @ w).real
        )


def _axis_seed_vectors(
    axis: int, gain: GainParams, n_max: int
) -> tuple[TwoModeVector, TwoModeVector]:
    if axis == 1:
        return (
            _hv_macro_vector_unchecked("H", gain, n_max),
            _hv_macro_vector_unchecked("V", gain, n_max),
        )
    if axis in (2, 3):
        phi = PolarizationBasis.canonical(axis).phi
        return (
            _macro_vector_unchecked(phi, gain, n_max),
            _macro_vector_unchecked(phi + math.pi, gain, n_max),
        )
    raise ValueError(f"measurement axis must be 1, 2 or 3, got {axis}")


@lru_cache(maxsize=64)
def _sigma_operator_cached(
    axis: int, g: float, n_max: int, basis: PolarizationBasis
) -> PseudoPauliOperator:
    gain = GainParams(g)
    space = fock_space(n_max)
    plus, minus = _axis_seed_vectors(axis, gain, n_max)
    vectors = []
    for vec in (plus, minus):
        dense = vec.normalized().dense(space)
        dense = rotate_dense(space, dense, vec.basis, basis)
        dense.setflags(write=False)
        vectors.append(dense)
    return PseudoPauliOperator(axis, gain, n_max, basis, vectors[0], vectors[1])


def sigma_operator(
    axis: int,
    gain: GainParams,
    cutoff: int | Cutoff,
    basis: PolarizationBasis | None = None,
) -> PseudoPauliOperator:
    """Pseudo-Pauli operator of a measurement axis at the given gain.

    At ``g = 0`` it reduces to the plain Pauli operator on the one-photon
    subspace.  ``basis`` selects the representation; the operator's own
    measurement basis is used when omitted.
    """
    n_max = cutoff.n_max if isinstance(cutoff, Cutoff) else int(cutoff)
    rep = basis or PolarizationBasis.canonical(axis)
    return _sigma_operator_cached(axis, gain.g, n_max, rep)


# --------------------------------------------------------------------------
# threshold filter POVM
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdPOVM:
    """Three-outcome photon-imbalance filter in a polarization basis.

    Outcome +1 on ``n - m > k``, -1 on ``m - n > k``, inconclusive 0 on
    ``|n - m| <= k`` (ties at ``|n - m| = k`` are inconclusive, which keeps
    the three effects an exact resolution of the identity).
    """

    basis: PolarizationBasis
    k: int
    cutoff: int
    signs: np.ndarray

    def effects(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Diagonal vectors of the +1, -1 and 0 effects, in basis order."""
        plus = (self.signs > 0).astype(float)
        minus = (self.signs < 0).astype(float)
        return plus, minus, 1.0 - plus - minus

    def difference_diagonal(self) -> np.ndarray:
        """Diagonal of the dichotomic combination ``E+ - E-``."""
        return self.signs.astype(float)


def threshold_povm(basis: PolarizationBasis, k: int, cutoff: int) -> ThresholdPOVM:
    if k < 0:
        raise ValueError(f"threshold must be non-negative, got {k}")
    space = fock_space(cutoff)
    diff = space.n - space.m
    signs = np.where(diff > k, 1, np.where(-diff > k, -1, 0)).astype(np.int8)
    signs.setflags(write=False)
    return ThresholdPOVM(basis, k, cutoff, signs)


def _fock_populations(
    state: TwoModeVector | DensityOperator, basis: PolarizationBasis
) -> np.ndarray:
    """Diagonal of a state in the photon-number basis of ``basis``, with the
    micro factor (if any) traced out."""
    space = fock_space(state.cutoff)
    if isinstance(state, TwoModeVector):
        dense = rotate_dense(space, state.dense(space), state.basis, basis)
        return np.abs(dense) ** 2
    md = state.micro_dim
    mat = state.rotated(basis).matrix.reshape(md, space.dim, md, space.dim)
    return sum(mat[s, :, s, :].diagonal().real for s in range(md))


def ofilter_probabilities(
    state: TwoModeVector | DensityOperator, basis: PolarizationBasis, k: int
) -> tuple[float, float, float]:
    """Outcome probabilities (+1, -1, 0) of the threshold filter.

    The state is re-expressed in the measurement basis internally; the three
    probabilities sum to the state's trace.
    """
    cutoff = state.cutoff
    povm = threshold_povm(basis, k, cutoff)
    pops = _fock_populations(state, basis)
    p_plus = float(pops[povm.signs > 0].sum())
    p_minus = float(pops[povm.signs < 0].sum())
    p_zero = float(pops[povm.signs == 0].sum())
    return p_plus, p_minus, p_zero


# --------------------------------------------------------------------------
# visibility of the macro fringe under loss
# --------------------------------------------------------------------------

def lossy_fringe_probabilities(
    gain: GainParams, loss: LossParams, k: int, cutoff: Cutoff
) -> tuple[float, float, float]:
    """Threshold-filter outcome probabilities of the lossy amplified seed.

    The macro-qubit is sent through the loss channel and measured in its own
    equatorial basis, where its seed phase does not enter the populations.
    These diagonal effects see loss as binomial thinning of each mode, and
    ``P+`` and ``P-`` are tails of the untruncated law of the thinned
    difference ``D = r - s`` (:func:`_difference_law`).
    ``cutoff`` sets the FFT length and runs the seeded tail gate; each value
    is within the gated tail mass of the untruncated one.  One row of
    :func:`_fringe_grid`.
    """
    return tuple(_fringe_grid(gain, [loss.eta], [k], cutoff)[0, 0].tolist())


def _fringe_grid(gain: GainParams, etas, ks, cutoff: Cutoff) -> np.ndarray:
    """``(P+, P-, P0)`` of :func:`lossy_fringe_probabilities` for every
    threshold and transmittivity, shape ``(len(ks), len(etas), 3)``."""
    p_plus, p_minus = _tail_grid(("equatorial",), gain, etas, ks, cutoff)[0]
    return np.stack([p_plus, p_minus, np.maximum(0.0, 1.0 - p_plus - p_minus)], axis=-1)


# complex entries per stacked FFT; an unbounded stack grows with the grid
# (notes/decisions.md, "One stacked FFT per gain")
_STACK_ENTRIES = 1 << 16

# the longest FFT of a law: a run peaks near 64 bytes per entry, about
# 0.5 GB at this length (notes/decisions.md, "One cutoff search")
_MAX_FFT = 1 << 23


def _fft_length(n_max: int) -> int:
    """The smallest power of two at or above ``2 (n_max + 1)``: only the mass
    beyond ``n_max`` photons aliases in a law of that length."""
    return 1 << (2 * n_max + 1).bit_length()


def _tail_grid(seeds, gain: GainParams, etas, ks, cutoff: Cutoff) -> np.ndarray:
    """``P+ = P(k < D < N/2)`` and ``P- = P(-N/2 <= D < -k)`` of each seed's
    :func:`_difference_law`, shape ``(len(seeds), 2, len(ks), len(etas))``.

    The seeded tail gate runs once.  Then an FFT longer than ``_MAX_FFT``,
    the one cost that grows with the cutoff, raises :class:`CutoffError`
    naming its length before anything is allocated.  Each seed's laws share
    one :func:`_one_minus_z` table and are stacked over the eta grid in chunks
    of at most ``_STACK_ENTRIES`` complex entries; every threshold's tails are
    row sums of the same chunk.  A non-finite tail raises :class:`CutoffError`
    naming the first such row in ``(k, eta)`` order.
    """
    for k in ks:
        if k < 0:
            raise ValueError(f"threshold must be non-negative, got {k}")
    n_max = cutoff.n_max
    _checked_seeded_tail(gain, cutoff)
    size = _fft_length(n_max)
    if size > _MAX_FFT:
        raise CutoffError(f"cutoff {n_max} at g={gain.g} needs an FFT of length {size} > {_MAX_FFT}")
    half, rows = size // 2, max(1, _STACK_ENTRIES // size)
    one_minus_z = _one_minus_z(size)
    tails = np.empty((len(seeds), 2, len(ks), len(etas)))
    for lo in range(0, len(etas), rows):
        chunk = slice(lo, lo + rows)
        for out, seed in zip(tails, seeds):
            law = _difference_law(seed, gain, etas[chunk], n_max, one_minus_z)
            for j, k in enumerate(ks):
                out[0, j, chunk] = law[:, k + 1 : half].sum(axis=1)
                out[1, j, chunk] = law[:, half : size - k].sum(axis=1)
    bad = np.argwhere(~np.isfinite(tails).all(axis=(0, 1)))  # (k, eta) order
    if bad.size:
        j, i = bad[0]
        _checked_finite(tails[:, :, j, i], gain, etas[i], n_max)
    return tails


def _one_minus_z(size: int) -> np.ndarray:
    """``1 - z = 2 sin^2 theta - i sin 2 theta`` at ``z = exp(2 pi i j / size)``."""
    half_angle = np.pi * np.arange(size) / size
    return 2.0 * np.sin(half_angle) ** 2 - 1j * np.sin(2.0 * half_angle)


def _difference_law(seed: str, gain: GainParams, eta, n_max: int, one_minus_z=None) -> np.ndarray:
    """Law ``P(D = d)``, at index ``d mod N``, of ``D = r - s``, the thinned
    photon counts of the seeded and the other mode of the ``"H"`` pair ladder
    ``|n+1, n>`` or the ``"equatorial"`` seed ``|2i+1, 2j>``, in its own basis.

    Thinning maps the seed's generating function ``G(u, v)`` to
    ``G(1 - eta + eta u, 1 - eta + eta v)``; at ``u = z = exp(i theta)``,
    ``v = 1/z`` that is ``E[z^D]``, and its length-``N`` DFT is the law.  With
    ``t = tanh g``, ``C = cosh g`` the ladder's ``G`` is
    ``u / (C^4 (1 - t^2 u v)^2)`` and the equatorial seed's
    ``u / (C^4 (1 - t^2 u^2)^(3/2) (1 - t^2 v^2)^(1/2))``, evaluated in forms
    that never take ``1 - t^2`` (``notes/decisions.md``).  ``N`` is
    :func:`_fft_length`; at ``eta = 0`` the law is an exact point mass.

    A sequence of etas gives one law per row, shape ``(len(eta), N)``, from
    one stacked FFT over ``one_minus_z`` (:func:`_one_minus_z`, built here if
    not given), in place; every row is bit-identical to the 1-D law of its
    scalar eta.
    """
    size = _fft_length(n_max)
    one_minus_z = _one_minus_z(size) if one_minus_z is None else one_minus_z
    eta = np.asarray(eta, dtype=float)[..., None]
    lost = eta * one_minus_z  # x = eta (1 - z), a row per eta
    sinh2 = gain.sinh_g**2
    if seed == "H":  # (1 + 4 sinh^2 g eta (1 - eta) sin^2 theta)^2, as Re(1 - z) = 2 sin^2 theta
        den = 2.0 * sinh2 * eta * (1.0 - eta) * one_minus_z.real
        den += 1.0
        den **= 2
    else:  # w |w| with w = 1 + sinh^2 g x (2 - x)
        den = sinh2 * lost
        den *= 2.0 - lost
        den += 1.0
        den *= np.abs(den)
    gf = np.subtract(1.0, lost, out=lost)
    gf /= den
    del den  # the FFT's own buffers take its place
    return np.fft.fft(gf, out=gf).real / size


def _checked_finite(values, gain: GainParams, eta: float, n_max: int) -> None:
    """Raise :class:`CutoffError` if a reported probability is not finite."""
    if not np.all(np.isfinite(values)):
        raise CutoffError(
            f"non-finite probability at cutoff {n_max}, g={gain.g}, eta={eta}"
        )


def visibility_ratio(p_plus: float, p_minus: float, loss: LossParams, k: int) -> float:
    """Fringe visibility ``(P+ - P-) / (P+ + P-)`` from the two conclusive
    outcome probabilities of threshold ``k`` after loss ``loss``.

    Raises :class:`UndefinedVisibilityError` when every outcome is
    inconclusive (for example ``eta = 0`` with ``k >= 1``).
    """
    if p_plus + p_minus <= 0.0:
        raise UndefinedVisibilityError(
            f"all outcomes inconclusive at eta={loss.eta}, k={k}"
        )
    return (p_plus - p_minus) / (p_plus + p_minus)


def visibility(gain: GainParams, loss: LossParams, k: int, cutoff: Cutoff) -> float:
    """Fringe visibility of the amplified seed after loss, measured with
    threshold ``k`` in its own equatorial basis (see :func:`visibility_ratio`)."""
    p_plus, p_minus, _ = lossy_fringe_probabilities(gain, loss, k, cutoff)
    return visibility_ratio(p_plus, p_minus, loss, k)


# --------------------------------------------------------------------------
# multi-detector coincidence scheme
# --------------------------------------------------------------------------

def all_detectors_click_probability(photons: np.ndarray, detectors: int) -> np.ndarray:
    """Probability that ``photons`` photons split evenly over ``detectors``
    non-number-resolving detectors fire all of them (surjection count by
    inclusion-exclusion)."""
    photons = np.asarray(photons)
    out = np.zeros(photons.shape, dtype=float)
    for j in range(detectors + 1):
        out += (-1.0) ** j * math.comb(detectors, j) * ((detectors - j) / detectors) ** photons
    return np.clip(out, 0.0, 1.0)


def multi_detector_probabilities(
    state: TwoModeVector | DensityOperator,
    basis: PolarizationBasis,
    detectors: int,
) -> tuple[float, float, float]:
    """Outcome probabilities of the N-fold coincidence scheme.

    Each polarization branch is split evenly over ``detectors`` detectors;
    +1 requires every detector of the first branch to click while the second
    branch misses at least one, and symmetrically for -1.  Simultaneous full
    coincidences on both branches are inconclusive.
    """
    if detectors < 1:
        raise ValueError("at least one detector per branch is required")
    space = fock_space(state.cutoff)
    pops = _fock_populations(state, basis)
    s_n = all_detectors_click_probability(space.n, detectors)
    s_m = all_detectors_click_probability(space.m, detectors)
    p_plus = float(np.sum(pops * s_n * (1.0 - s_m)))
    p_minus = float(np.sum(pops * s_m * (1.0 - s_n)))
    total = float(pops.sum())
    return p_plus, p_minus, total - p_plus - p_minus


# --------------------------------------------------------------------------
# quantum Stokes operators
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StokesOperators:
    """Photon-number-difference operators of the three canonical bases, as
    Schwinger maps over the truncated space (tridiagonal, held as three numpy
    diagonals), plus the diagonal of the total photon number."""

    cutoff: int
    basis: PolarizationBasis
    operators: tuple[Tridiagonal, Tridiagonal, Tridiagonal]
    number_diagonal: np.ndarray

    def dense(self, axis: int) -> np.ndarray:
        return self.operators[axis - 1].toarray()


def stokes_operators(
    cutoff: int, basis: PolarizationBasis = PolarizationBasis.hv()
) -> StokesOperators:
    """Stokes operators in the photon-number basis of ``basis``: each axis's
    operator is the Schwinger map of ``pauli_matrix(axis, basis)``."""
    operators = tuple(schwinger_operator(pauli_matrix(axis, basis), cutoff) for axis in (1, 2, 3))
    number_diag = fock_space(cutoff).total.astype(float)
    number_diag.setflags(write=False)
    return StokesOperators(cutoff, basis, operators, number_diag)


def stokes_terms(
    joint: DensityOperator | MicroMacroState,
) -> tuple[np.ndarray, float]:
    """Per-axis correlations ``<sigma_i x J_i>`` and the mean photon number
    ``<N>`` of the macro arm, for a pure or mixed joint state.

    Both kinds of state contract the operators' nonzero entries
    ``(v_k, rows_k, cols_k)`` with
    ``x[s, t] = Tr(J rho_st) = sum_k v_k rho_st[cols_k, rows_k]``, where
    ``rho_st[e, f] = <s, e| rho |t, f>``; a pure state ``psi`` enters as
    ``rho_st[e, f] = psi_s[e] conj(psi_t[f])``, in O(dim) memory.
    """
    if isinstance(joint, MicroMacroState):
        psi = joint.dense()
        def blocks(rows, cols):
            return np.einsum("sk,tk->kst", psi[:, cols], psi[:, rows].conj())
        populations = np.sum(np.abs(psi) ** 2, axis=0)
    else:
        if joint.micro_dim != 2:
            raise ValueError("Stokes correlations require a joint micro-macro state")
        d = fock_space(joint.cutoff).dim
        mat = joint.matrix.reshape(2, d, 2, d)
        def blocks(rows, cols):
            return mat[:, cols, :, rows]
        populations = sum(mat[s, :, s, :].diagonal().real for s in range(2))
    ops = stokes_operators(joint.cutoff, joint.basis)
    terms = np.zeros(3)
    for axis, op in zip((1, 2, 3), ops.operators):
        values, rows, cols = op.entries()
        x = np.einsum("k,kst->st", values, blocks(rows, cols))
        terms[axis - 1] = float(np.trace(x @ pauli_matrix(axis, joint.basis)).real)
    return terms, float(populations @ ops.number_diagonal)
