"""Photon-loss channels and state reductions.

Loss with transmittivity ``eta`` acts independently on both polarization
modes through the Kraus family ``K_{pq}``, where ``K_{pq}`` removes ``p``
photons from the first mode and ``q`` from the second with amplitude
``sqrt(C(n,p) C(m,q)) (1-eta)^{(p+q)/2} eta^{(n+m-p-q)/2}``.  On a joint
micro-macro state the channel acts on the amplified arm only; the micro arm
is lossless.  Each Kraus amplitude is a product ``k_p(n) k_q(m)`` of
single-mode amplitudes whose squares form the binomial thinning kernel.
The reporting paths (the fringe and the lossy witnesses) work with that
single-mode kernel and its square roots; the two-mode Kraus images here
serve the general :func:`lossy_channel`.

The highly attenuated regime is the exact conditioning of the lossy state on
one surviving photon in the amplified arm, which yields a two-qubit density
matrix in the basis (HH, HV, VH, VV).  Imperfect injection mixes the singlet
seed with a vacuum seed before amplification.
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
    _first_below,
    amplified_vacuum,
    micro_macro_state_hv,
    required_cutoff,
)
from .fock import (
    ConditioningError,
    Cutoff,
    CutoffError,
    DensityOperator,
    PolarizationBasis,
    TwoModeVector,
    fock_space,
)


@dataclass(frozen=True)
class LossParams:
    """Channel transmittivity ``eta``; ``R = 1 - eta`` is the losses parameter."""

    eta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"transmittivity must lie in [0, 1], got {self.eta}")

    @classmethod
    def from_losses(cls, r: float) -> "LossParams":
        return cls(1.0 - r)

    @property
    def R(self) -> float:
        return 1.0 - self.eta


@dataclass(frozen=True)
class InjectionParams:
    """Probability ``p`` that the seed photon couples into the amplifier mode."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"injection probability must lie in [0, 1], got {self.p}")


def coherence_parameter(gain: GainParams, loss: LossParams) -> float:
    """The combination ``t = (1 - eta) tanh g`` controlling the attenuated state."""
    return loss.R * gain.tanh_g


def _conditional_tail_fraction(p: int, x: float) -> float:
    """Fraction of ``sum_q (q+1)(q+2) x^q = 2 / (1-x)^3`` carried by the
    terms ``q >= p``, for ``0 <= x < 1``.  With ``a = p + 1`` the tail is
    ``x^p [a(a+1)/(1-x) + (2a+1) x/(1-x)^2 + x(1+x)/(1-x)^3]``; it
    decreases monotonically in ``p``."""
    a = p + 1
    y = 1.0 - x
    tail = x**p * (a * (a + 1) / y + (2 * a + 1) * x / y**2 + x * (1.0 + x) / y**3)
    return tail / (2.0 / y**3)


def conditioning_cutoff(
    gain: GainParams, loss: LossParams, tol: float = 1e-8
) -> Cutoff:
    """Cutoff that converges the single-photon conditional state to ``tol``.

    The conditional matrix entries are power series in ``t^2`` with quadratic
    pair-index weights, so truncating at pair index ``p`` leaves a relative
    residual of order ``(p+1)(p+2) t^(2p)``.  The pair count is the smallest
    ``p <= 100000`` whose remaining fraction of the heaviest series
    (:func:`_conditional_tail_fraction`) is two orders below ``tol``.  The
    result also keeps the truncated state mass itself below ``tol``.
    """
    x = coherence_parameter(gain, loss) ** 2
    n_max = 3
    if x > 0.0:
        if _conditional_tail_fraction(100_000, x) >= 0.01 * tol:
            raise CutoffError(
                f"conditional series does not converge to {tol} at t^2={x}"
            )
        pairs = _first_below(lambda p: _conditional_tail_fraction(p, x), 0.01 * tol, 100_000)
        n_max = 2 * pairs + 3
    n_max = max(n_max, required_cutoff(gain, min(tol, 1e-9)))
    return Cutoff(n_max, tol)


# --------------------------------------------------------------------------
# Kraus machinery
# --------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _loss_structure(n_max: int):
    """Static index structure of the two-mode loss Kraus family.

    Flat arrays over every (source state, Kraus operator) pair, grouped by
    Kraus operator in index order (CSR row pointer ``indptr``): destination
    and source index, square-rooted binomial factor, and lost / kept photon
    counts.  Kraus operators share the triangular indexing of the state
    space and map sources one to one onto ascending destinations.

    The sources of ``K_{pq}`` are the states ``|p + n', q + m'>`` whose
    surplus ``|n', m'>`` holds at most ``F = n_max - p - q`` photons: the
    first ``(F+1)(F+2)/2`` states in index order, which are also its
    destinations.  The table is filled sector by sector (all ``p + q`` equal)
    into arrays sized from that count, with int32 indices and int16 counts.
    """
    space = fock_space(n_max)
    d = space.dim
    log_fact = np.array([math.lgamma(k + 1) for k in range(n_max + 1)])
    free = n_max - space.total
    indptr = np.zeros(d + 1, dtype=np.int64)
    np.cumsum((free + 1) * (free + 2) // 2, out=indptr[1:])
    nnz = int(indptr[-1])
    if nnz > np.iinfo(np.int32).max:
        raise ValueError(f"loss table at cutoff {n_max} exceeds int32 indexing")
    indptr = indptr.astype(np.int32)
    dst = np.empty(nnz, dtype=np.int32)
    src = np.empty(nnz, dtype=np.int32)
    binsq = np.empty(nnz)
    lost = np.empty(nnz, dtype=np.int16)
    kept = np.empty(nnz, dtype=np.int16)
    for total, sl in enumerate(space.sector_slices):
        size = (n_max - total + 1) * (n_max - total + 2) // 2
        seg = slice(indptr[sl.start], indptr[sl.stop])
        # one row per Kraus operator of the sector, one column per surplus state
        p = space.n[sl, None]
        q = space.m[sl, None]
        ns = space.n[:size] + p
        ms = space.m[:size] + q
        left = space.total[:size]
        dst[seg] = np.tile(np.arange(size), total + 1)
        src[seg] = ((left + total) * (left + total + 1) // 2 + ns).ravel()
        binsq[seg] = np.exp(0.5 * (
            log_fact[ns] - log_fact[p] - log_fact[ns - p]
            + log_fact[ms] - log_fact[q] - log_fact[ms - q]
        )).ravel()
        lost[seg] = total
        kept[seg] = np.tile(left, total + 1)
    return indptr, dst, src, binsq, lost, kept, d


def _kraus_coefficients(n_max: int, eta: float):
    """Kraus-operator row pointer, destination and source index, coefficient
    and dimension of every (source state, Kraus operator) pair at
    transmittivity ``eta`` (see :func:`_loss_structure`)."""
    indptr, dst, src, binsq, lost, kept, d = _loss_structure(n_max)
    # one power per photon count, gathered by the small-integer counts; numpy
    # power keeps 0^0 = 1, covering the eta = 0 and eta = 1 edges
    half = 0.5 * np.arange(n_max + 1)
    data = binsq * np.power(1.0 - eta, half)[lost] * np.power(eta, half)[kept]
    return indptr, dst, src, data, d


def loss_kraus_images(
    state: TwoModeVector | MicroMacroState, loss: LossParams
) -> np.ndarray:
    """All Kraus images of a pure state under two-mode loss.

    Shape ``(n_kraus, dim)`` for a two-mode vector, ``(n_kraus, 2, dim)`` for
    a joint state (loss on the amplified arm only).  The lossy density
    operator is the sum over rows of their outer products.
    """
    indptr, dst, src, data, d = _kraus_coefficients(state.cutoff, loss.eta)
    # Q_s[k, f] = <f|K_k|psi_s>, one per micro component
    images = np.stack([
        sp.csr_matrix((data * v[src], dst, indptr), shape=(d, d)).toarray()
        for v in np.atleast_2d(state.dense())
    ], axis=1)
    return images if isinstance(state, MicroMacroState) else images[:, 0]


def lossy_channel(
    state: TwoModeVector | MicroMacroState | DensityOperator, loss: LossParams
) -> DensityOperator:
    """Apply symmetric two-mode photon loss.

    Trace preserving and completely positive; Fock populations transform by
    the binomial kernel ``P(n -> k) = C(n, k) eta^k (1 - eta)^(n - k)`` on
    each mode, and composing channels multiplies their transmittivities.
    """
    if isinstance(state, (TwoModeVector, MicroMacroState)):
        v = loss_kraus_images(state, loss)
        flat = v.reshape(v.shape[0], -1)
        micro_dim = 2 if isinstance(state, MicroMacroState) else 1
        return DensityOperator(flat.T @ flat.conj(), state.cutoff, state.basis, micro_dim)
    if isinstance(state, DensityOperator):
        return _lossy_density(state, loss)
    raise TypeError(f"cannot apply a loss channel to {type(state).__name__}")


def _lossy_density(rho: DensityOperator, loss: LossParams) -> DensityOperator:
    """Kraus sum on a density operator, one Kraus operator at a time.

    Each ``K_{pq}`` maps its sources one to one onto destinations, so its
    term is a scatter of the selected block scaled by the coefficients.
    """
    indptr, dsts, srcs, data, d = _kraus_coefficients(rho.cutoff, loss.eta)
    md = rho.micro_dim
    src_mat = rho.matrix.reshape(md, d, md, d)
    out = np.zeros_like(src_mat)
    micro_ix = np.arange(md)
    for k in range(d):
        seg = slice(indptr[k], indptr[k + 1])
        c = data[seg]
        if not np.any(c):
            continue
        sub = src_mat[np.ix_(micro_ix, srcs[seg], micro_ix, srcs[seg])]
        out[np.ix_(micro_ix, dsts[seg], micro_ix, dsts[seg])] += (
            sub * c[None, :, None, None] * c[None, None, None, :]
        )
    return DensityOperator(
        out.reshape(md * d, md * d), rho.cutoff, rho.basis, rho.micro_dim
    )


# --------------------------------------------------------------------------
# single-photon conditioning (highly attenuated regime)
# --------------------------------------------------------------------------

def _conditioned_block(
    ensemble: list[tuple[float, tuple[TwoModeVector, TwoModeVector]]],
    loss: LossParams,
) -> tuple[np.ndarray, float]:
    """Unnormalized two-qubit block of an ensemble after loss, conditioned on
    exactly one photon surviving on the amplified arm.

    Each ensemble member is a pure joint state given by its two micro
    components in the (H, V) representation.  A Kraus term that leaves one
    photon in mode ``q`` of ``|n, m>`` has amplitude
    ``c sqrt(n_q) R^((n+m-1)/2) sqrt(eta)`` and lost-photon pattern
    ``(n-1, m)`` or ``(n, m-1)``.  Every pattern of a member gets an integer
    key and one row of a ``(patterns, 4)`` matrix ``V``, whose column is
    ``2 s + q`` for micro component ``s``; the amplitudes are scattered into
    it.  Terms within a row add coherently and rows add incoherently, so the
    member contributes ``weight V^T V^*``.
    """
    sqrt_eta = math.sqrt(loss.eta)
    rho = np.zeros((4, 4), dtype=complex)
    for weight, comps in ensemble:
        stride = max(comp.cutoff for comp in comps) + 1
        keys, cols, amps = [], [], []
        for s, comp in enumerate(comps):
            for q, count in enumerate((comp.n, comp.m)):
                hit = count >= 1
                a, b = comp.n[hit] - (1 - q), comp.m[hit] - q
                # numpy power keeps 0^0 = 1, covering the eta = 1 edge
                decay = np.power(loss.R, 0.5 * (a + b))
                amps.append(comp.amps[hit] * np.sqrt(count[hit]) * decay * sqrt_eta)
                keys.append(a * stride + b)
                cols.append(np.full(a.size, 2 * s + q))
        patterns, rows = np.unique(np.concatenate(keys), return_inverse=True)
        v = np.zeros((patterns.size, 4), dtype=complex)
        # a component's keys are distinct, so each (row, column) slot is
        # written at most once
        v[rows, np.concatenate(cols)] = np.concatenate(amps)
        rho += weight * (v.T @ v.conj())
    prob = float(np.trace(rho).real)
    return rho, prob


def attenuate_to_single_photon(
    joint: MicroMacroState, loss: LossParams
) -> np.ndarray:
    """Two-qubit state of the joint system in the highly attenuated regime.

    Applies loss to the amplified arm and conditions on exactly one surviving
    photon there; the result is the normalized 4x4 matrix over
    (HH, HV, VH, VV).  Raises :class:`ConditioningError` when the
    single-photon probability vanishes (for example at ``eta = 0``).
    """
    joint_hv = joint.rotated(PolarizationBasis.hv())
    rho, prob = _conditioned_block([(1.0, joint_hv.components)], loss)
    if prob <= 0.0:
        raise ConditioningError(
            f"single-photon probability vanishes at eta={loss.eta}"
        )
    return rho / prob


# --------------------------------------------------------------------------
# imperfect injection
# --------------------------------------------------------------------------

def mixed_injection_state(p: InjectionParams, cutoff: int = 1) -> DensityOperator:
    """Pre-amplification seed: singlet with probability ``p``, otherwise a
    maximally mixed polarization qubit next to a vacuum amplifier input."""
    space = fock_space(cutoff)
    d = space.dim
    vec = np.zeros(2 * d, dtype=complex)
    vec[0 * d + space.index(0, 1)] = 1.0 / math.sqrt(2.0)
    vec[1 * d + space.index(1, 0)] = -1.0 / math.sqrt(2.0)
    mat = p.p * np.outer(vec, vec.conj())
    vac = space.index(0, 0)
    for s in range(2):
        mat[s * d + vac, s * d + vac] += (1.0 - p.p) / 2.0
    return DensityOperator(mat, cutoff, PolarizationBasis.hv(), micro_dim=2)


def attenuated_state_with_injection(
    p: InjectionParams, gain: GainParams, loss: LossParams
) -> np.ndarray:
    """Closed-form attenuated two-qubit state for injection probability ``p``.

    Weighted sum of the singlet-seeded conditional block and the diagonal
    vacuum-seeded block, normalized by its trace; ``p = 1`` recovers the
    perfectly injected attenuated state.  Basis order (HH, HV, VH, VV).
    """
    t = coherence_parameter(gain, loss)
    seeded = _seeded_conditional_matrix(t)
    a = 2.0 * p.p / (gain.cosh_g**2 * (1.0 - t * t)) if t < 1.0 else 0.0
    b = (1.0 - p.p) * gain.tanh_g * t
    mat = a * seeded + b * np.eye(4)
    trace = float(np.trace(mat).real)
    if trace <= 0.0:
        raise ConditioningError(
            "conditional state undefined: no photon ever reaches the lossy arm"
        )
    return mat / trace


def _seeded_conditional_matrix(t: float) -> np.ndarray:
    """Unnormalized singlet-seeded conditional block; its normalized form has
    diagonal ``(t^2, (1+t^2)/2, (1+t^2)/2, t^2) / (1+3t^2)`` and coherence
    ``-(1+t^2) / (2 (1+3t^2))`` between HV and VH."""
    t2 = t * t
    half = 0.5 * (1.0 + t2)
    return np.array(
        [
            [t2, 0.0, 0.0, 0.0],
            [0.0, half, -half, 0.0],
            [0.0, -half, half, 0.0],
            [0.0, 0.0, 0.0, t2],
        ],
        dtype=complex,
    )


def attenuated_injection_pipeline(
    p: InjectionParams, gain: GainParams, loss: LossParams, cutoff: Cutoff
) -> np.ndarray:
    """Numeric route to the imperfect-injection attenuated state.

    Amplifies the mixed seed as an ensemble of pure states, pushes each
    branch through the loss channel and conditions on a single surviving
    photon.  Converges to :func:`attenuated_state_with_injection` as the
    cutoff grows.
    """
    singlet = micro_macro_state_hv(gain, cutoff)
    vac = amplified_vacuum(gain, cutoff).normalized()
    zero = TwoModeVector([], [], [], cutoff.n_max, PolarizationBasis.hv())
    ensemble = [
        (p.p, singlet.components),
        ((1.0 - p.p) / 2.0, (vac, zero)),
        ((1.0 - p.p) / 2.0, (zero, vac)),
    ]
    rho, prob = _conditioned_block(ensemble, loss)
    if prob <= 0.0:
        raise ConditioningError(
            f"single-photon probability vanishes at eta={loss.eta}, p={p.p}"
        )
    return rho / prob
