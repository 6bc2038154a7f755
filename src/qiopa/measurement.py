"""Measurement operators for the amplified two-mode field.

Four measurement families are implemented:

* pseudo-Pauli dichotomic operators, the amplifier images of the qubit Pauli
  operators, which act as rank-two projector differences onto the two
  amplified seeds of a basis;
* the threshold filter POVM assigning +1 / -1 when the photon-number
  imbalance between the two modes of a basis exceeds a threshold ``k`` and an
  inconclusive 0 otherwise, and the fringe visibility it gives on the lossy
  macro-qubit.  Loss acts there as binomial thinning of each mode, and in
  the seed's own basis its populations are a product of two single-mode
  distributions kept on the exact truncation triangle, so the fringe is one
  O(n_max^2) contraction with no population matrix;
* a multi-detector coincidence scheme with non-number-resolving clicks;
* quantum Stokes operators (per-basis photon-number differences) and the
  total photon number.  Each Stokes operator is the sparse Schwinger map
  ``J = sum_jk P[j,k] b_j^dag b_k`` of the axis's Pauli matrix ``P`` in the
  representation basis (:func:`qiopa.fock.schwinger_operator`), so no basis
  rotation enters it.  The spin witness built on them lives in
  :mod:`qiopa.witnesses`.

The measurement-basis convention is 1 -> {H,V}, 2 -> {R,L}, 3 -> {+,-}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .amplifier import (
    GainParams,
    MicroMacroState,
    _checked_tail,
    _hv_macro_vector_unchecked,
    _macro_mode_populations,
    _macro_vector_unchecked,
    required_cutoff,
)
from .channels import LossParams
from .fock import (
    Cutoff,
    CutoffError,
    DensityOperator,
    PolarizationBasis,
    TwoModeVector,
    UndefinedVisibilityError,
    _sector_rotation,
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
    micro factor (if any) traced out.  Computed sector by sector."""
    space = fock_space(state.cutoff)
    if isinstance(state, TwoModeVector):
        dense = rotate_dense(space, state.dense(space), state.basis, basis)
        return np.abs(dense) ** 2
    d = space.dim
    md = state.micro_dim
    mat = state.matrix.reshape(md, d, md, d)
    pops = np.zeros(d)
    if basis == state.basis:
        for s in range(md):
            pops += mat[s, :, s, :].diagonal().real
        return pops
    for total, sl in enumerate(space.sector_slices):
        r = _sector_rotation(total, state.basis, basis)
        for s in range(md):
            pops[sl] += np.einsum(
                "pn,nm,pm->p", r, mat[s, sl, s, sl], r.conj()
            ).real
    return pops


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

@lru_cache(maxsize=32)
def _binomial_thinning_kernel(n_max: int, eta: float) -> np.ndarray:
    """Column-stochastic matrix ``K[a, n] = C(n, a) eta^a (1-eta)^(n-a)``.

    ``C(n, a)`` overflows above ``n`` of about 1030, before the powers scale
    it down; entries with ``log C(n, a) > 700`` are therefore taken whole in
    the log domain.  They have ``0 < a < n``, so no ``0 * log 0`` arises and
    the ``eta = 0`` and ``eta = 1`` edges stay exact.
    """
    size = n_max + 1
    log_fact = np.array([math.lgamma(k + 1) for k in range(size)])
    kernel = np.zeros((size, size))
    counts = np.arange(size)
    kept, lost = np.power(eta, counts), np.power(1.0 - eta, counts)
    a, n = np.triu_indices(size)  # the entries with a <= n
    lag = n - a
    entries = log_fact[n] - log_fact[a] - log_fact[lag]  # log C(n, a)
    big = np.flatnonzero(entries > 700.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        logged = np.exp(entries[big] + a[big] * np.log(eta) + lag[big] * np.log1p(-eta))
        # in place, so that the build holds one table of entries at a time
        np.exp(entries, out=entries)
        entries *= kept[a]
        entries *= lost[lag]
    entries[big] = logged
    kernel[a, n] = entries
    kernel.setflags(write=False)
    return kernel


def lossy_fringe_probabilities(
    phi: float,
    gain: GainParams,
    loss: LossParams,
    k: int,
    cutoff: Cutoff | None = None,
) -> tuple[float, float, float]:
    """Threshold-filter outcome probabilities of the lossy amplified seed.

    The macro-qubit at ``phi`` is sent through the loss channel and measured
    in its own equatorial basis.  Only Fock populations matter for these
    diagonal effects, so the channel acts as independent binomial thinning of
    the two modes, which is exact at any cutoff.  The populations on
    ``|2i+1, 2j>`` are a product ``a_i b_j`` of two single-mode distributions
    (:func:`qiopa.amplifier._macro_mode_populations`), kept on the exact
    triangle ``2i+1 + 2j <= n_max`` and renormalized.  With ``K`` the thinning
    kernel, the even mode thinned under the triangle is
    ``T[s, i] = a_i sum_{j <= k_max-i} K[s, 2j] b_j`` and the odd mode's tails are
    ``U[r, i] = P(thin(2i+1) >= r)``; then ``P+ = sum T[s, i] U[s+k+1, i]`` and
    ``P- = sum T[s, i] (1 - U[s-k, i])``.  Time and memory are O(n_max^2).
    The phase ``phi`` does not enter the populations.
    """
    if k < 0:
        raise ValueError(f"threshold must be non-negative, got {k}")
    if cutoff is None:
        cutoff = Cutoff(required_cutoff(gain, 1e-10), 1e-9)
    n_max = cutoff.n_max
    a, b = _macro_mode_populations(gain, n_max)
    # reversed cumsum: sum_{j <= k_max - i} b_j, the even mode under the triangle
    mass = float(a @ np.cumsum(b)[::-1])
    _checked_tail(mass, gain, cutoff)
    # P(r - s > k) pairs s with r >= s + k + 1, P(s - r > k) with r <= s - k - 1
    span = n_max - k
    if span <= 0:
        return 0.0, 0.0, 1.0
    kernel = _binomial_thinning_kernel(n_max, loss.eta)
    odd = kernel[:, 1::2]
    # below[r, i] = P(thin(2i+1) <= r) = 1 - U[r+1, i], summed from the low
    # end so that small probabilities keep their relative precision
    below = np.cumsum(odd, axis=0)
    above = np.cumsum(odd[::-1], axis=0)[::-1]  # U
    # T[s, i], built in place: a fresh large temporary costs about a pass over it
    even = np.multiply(kernel[:, 0 : 2 * a.size : 2], b)
    np.cumsum(even, axis=1, out=even)
    even = even[:, ::-1]
    even *= a
    p_plus = float(np.einsum("si,si->", even[:span], above[k + 1 :])) / mass
    p_minus = float(np.einsum("si,si->", even[k + 1 :], below[:span])) / mass
    _checked_finite((p_plus, p_minus), gain, loss, n_max)
    return p_plus, p_minus, max(0.0, 1.0 - p_plus - p_minus)


def _checked_finite(values, gain: GainParams, loss: LossParams, n_max: int) -> None:
    """Raise :class:`CutoffError` if a reported probability is not finite."""
    if not np.all(np.isfinite(values)):
        raise CutoffError(
            f"non-finite probability at cutoff {n_max}, g={gain.g}, eta={loss.eta}"
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


def visibility(
    phi: float,
    gain: GainParams,
    loss: LossParams,
    k: int,
    cutoff: Cutoff | None = None,
) -> float:
    """Fringe visibility of the amplified seed after loss, measured with
    threshold ``k`` in its own equatorial basis (see :func:`visibility_ratio`)."""
    p_plus, p_minus, _ = lossy_fringe_probabilities(phi, gain, loss, k, cutoff)
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
    sparse Schwinger maps over the truncated space, plus the diagonal of the
    total photon number."""

    cutoff: int
    basis: PolarizationBasis
    operators: tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]
    number_diagonal: np.ndarray

    def dense(self, axis: int) -> np.ndarray:
        return self.operators[axis - 1].toarray()


@lru_cache(maxsize=16)
def stokes_operators(
    cutoff: int, basis: PolarizationBasis = PolarizationBasis.hv()
) -> StokesOperators:
    """Stokes operators in the photon-number basis of ``basis``: each axis's
    operator is the Schwinger map of ``pauli_matrix(axis, basis)``."""
    operators = tuple(schwinger_operator(pauli_matrix(axis, basis), cutoff) for axis in (1, 2, 3))
    for op in operators:
        op.data.setflags(write=False)
    number_diag = fock_space(cutoff).total.astype(float)
    number_diag.setflags(write=False)
    return StokesOperators(cutoff, basis, operators, number_diag)


def _stokes_terms_pure(joint: MicroMacroState) -> tuple[np.ndarray, float]:
    """Per-axis ``<sigma_i x J_i>`` and ``<N>`` of a pure joint state."""
    ops = stokes_operators(joint.cutoff, joint.basis)
    vec = joint.dense()
    terms = np.zeros(3)
    for axis, op in zip((1, 2, 3), ops.operators):
        # braket[s, t] = <v_s| J |v_t> over the two micro components
        braket = vec.conj() @ (op @ vec.T)
        terms[axis - 1] = np.sum(pauli_matrix(axis, joint.basis) * braket).real
    mean_n = float(np.einsum("se,e,se->", vec.conj(), ops.number_diagonal, vec).real)
    return terms, mean_n


def stokes_terms(
    joint: DensityOperator | MicroMacroState,
) -> tuple[np.ndarray, float]:
    """Per-axis correlations ``<sigma_i x J_i>`` and the mean photon number
    ``<N>`` of the macro arm, for a pure or mixed joint state."""
    if isinstance(joint, MicroMacroState):
        return _stokes_terms_pure(joint)
    if joint.micro_dim != 2:
        raise ValueError("Stokes correlations require a joint micro-macro state")
    ops = stokes_operators(joint.cutoff, joint.basis)
    d = fock_space(joint.cutoff).dim
    mat = joint.matrix.reshape(2, d, 2, d)
    terms = np.zeros(3)
    for axis, op in zip((1, 2, 3), ops.operators):
        coo = op.tocoo()
        # x[s, t] = Tr(J rho_st) with rho_st[e, f] = mat[s, e, t, f]
        x = np.einsum("k,kst->st", coo.data, mat[:, coo.col, :, coo.row])
        terms[axis - 1] = float(np.trace(x @ pauli_matrix(axis, joint.basis)).real)
    mean_n = 0.0
    for s in range(2):
        mean_n += float((mat[s, :, s, :].diagonal().real * ops.number_diagonal).sum())
    return terms, mean_n
