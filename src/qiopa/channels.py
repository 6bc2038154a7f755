"""Photon-loss channels and state reductions.

Loss with transmittivity ``eta`` acts independently on both polarization
modes through the Kraus family ``K_{pq} = K_p x K_q``, where ``K_p`` removes
``p`` of the ``n`` photons of a mode with amplitude
``k_p(n) = sqrt(C(n,p) (1-eta)^p eta^(n-p))``.  On a joint micro-macro state
the channel acts on the amplified arm only; the micro arm is lossless.  One
single-mode table, the binomial thinning kernel ``k_p(n)^2``, serves the
one channel, :func:`lossy_channel`, which takes a pure state as its
projector and runs the Kraus sum on the density operator.  No reporting
path reads it: the witnesses and the fringe have closed forms or thin
generating functions, and the conditioning below keeps a closed form
(:func:`_conditioned_block`).

The highly attenuated regime conditions the lossy state on one surviving
photon in the amplified arm: a two-qubit density matrix over (HH, HV, VH, VV),
summed as overlaps of the components, sorted by flat index, shifted by -1, 0
and +1.  Imperfect injection mixes the singlet with a vacuum seed beforehand.
At 10^4 to 10^5 photons the full-length temporaries, not the flops, set that
kernel's cost (``notes/decisions.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplifier import (
    GainParams,
    MicroMacroState,
    _first_below,
    amplified_vacuum,
    micro_macro_state_hv,
    pair_ladder_tail,
)
from .fock import (
    ConditioningError,
    Cutoff,
    CutoffError,
    DensityOperator,
    PolarizationBasis,
    TwoModeVector,
    _MAX_CUTOFF,
    fock_space,
)


@dataclass(frozen=True)
class LossParams:
    """Channel transmittivity ``eta``; ``R = 1 - eta`` is the losses parameter."""

    eta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"transmittivity must lie in [0, 1], got {self.eta}")

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
    ``p`` whose remaining fraction of the heaviest series
    (:func:`_conditional_tail_fraction`) is two orders below ``tol``, found
    by the search of ``required_cutoff`` (:func:`qiopa.amplifier._first_below`).

    That residual, not the raw photon-number tail, is the error of the
    conditioned block, so the cutoff may drop much of the state's mass: 30 %
    of it at g = 5, eta = 1e-3.  The returned ``tail_tolerance`` states that
    mass, ``pair_ladder_tail((n_max - 1) // 2, g)``, with a margin: twice it,
    at most halfway to one and at least ``tol``.  The ladder constructors
    gate on it.  Raises :class:`CutoffError` when the series does not
    converge below the largest cutoff whose flat indices fit int64
    (3,037,000,499 photons; ``t = 1`` never converges) or the cutoff drops
    all of the mass to rounding.
    """
    x = coherence_parameter(gain, loss) ** 2
    n_max = 3
    if x > 0.0:
        failure = f"conditional series does not converge to {tol} at t^2={x}"
        if x >= 1.0:  # t = 1 diverges
            raise CutoffError(f"{failure} below cutoff {_MAX_CUTOFF}")
        pairs = _first_below(lambda p: _conditional_tail_fraction(p, x), 0.01 * tol, failure)
        n_max = 2 * pairs + 3
    dropped = pair_ladder_tail((n_max - 1) // 2, gain)
    if dropped >= 1.0:
        raise CutoffError(
            f"cutoff {n_max} drops all of the mass at g={gain.g}", tail_mass=dropped
        )
    return Cutoff(n_max, max(tol, min(2.0 * dropped, 0.5 * (1.0 + dropped))))


# --------------------------------------------------------------------------
# the single-mode loss table and the loss channel built on it
# --------------------------------------------------------------------------

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
    return kernel


def _loss_amplitudes(n_max: int, eta: float) -> np.ndarray:
    """Single-mode loss amplitudes ``k[p, n] = sqrt(C(n,p) (1-eta)^p eta^(n-p))``
    of losing ``p`` of ``n`` photons, the square roots of the thinning kernel."""
    amp = np.sqrt(_binomial_thinning_kernel(n_max, eta))
    a, n = np.triu_indices(n_max + 1)
    k = np.zeros_like(amp)
    k[n - a, n] = amp[a, n]
    return k


def lossy_channel(
    state: TwoModeVector | MicroMacroState | DensityOperator, loss: LossParams
) -> DensityOperator:
    """Apply symmetric two-mode photon loss.

    Trace preserving and completely positive; Fock populations transform by
    the binomial kernel ``P(n -> k) = C(n, k) eta^k (1 - eta)^(n - k)`` on
    each mode, and composing channels multiplies their transmittivities.
    A pure state enters as its projector (:meth:`DensityOperator.from_pure`).
    The Kraus sum runs one mode at a time (``K_pq = K_p x K_q``): losing ``p``
    photons from a mode maps the states holding at least ``p`` there one to
    one onto destinations, scaled by ``k[p, n]``, one gather and scatter of
    the selected block per lost count.
    """
    if isinstance(state, (TwoModeVector, MicroMacroState)):
        state = DensityOperator.from_pure(state)
    if not isinstance(state, DensityOperator):
        raise TypeError(f"cannot apply a loss channel to {type(state).__name__}")
    space = fock_space(state.cutoff)
    k = _loss_amplitudes(state.cutoff, loss.eta)
    md, d = state.micro_dim, space.dim
    mat = state.matrix.reshape(md, d, md, d)
    micro_ix = np.arange(md)
    for counts, first_mode in ((space.n, True), (space.m, False)):
        out = np.zeros_like(mat)
        for p in range(state.cutoff + 1):
            src = np.flatnonzero(counts >= p)
            c = k[p, counts[src]]
            left = space.total[src] - p
            dst = left * (left + 1) // 2 + space.n[src] - p * first_mode
            out[np.ix_(micro_ix, dst, micro_ix, dst)] += (
                mat[np.ix_(micro_ix, src, micro_ix, src)] * c[:, None, None] * c
            )
        mat = out
    return DensityOperator(mat.reshape(md * d, md * d), state.cutoff, state.basis, md)


# --------------------------------------------------------------------------
# single-photon conditioning (highly attenuated regime)
# --------------------------------------------------------------------------

def _survivor_columns(
    comp: TwoModeVector, loss: LossParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices ``f`` of one component, ascending, with the amplitudes
    ``h``, ``v`` of a photon surviving in mode H or V at each ``f`` (the
    common ``sqrt(eta)`` left out), and the component's upper 2x2 diagonal
    block: ``|h|^2``, ``|v|^2`` and the H survivor at ``f`` against the V
    survivor at ``f - 1``.  The stored keys are sorted only when they do not
    ascend (the ladders do), and a component whose imaginary parts are all
    exactly 0 stays real."""
    f, n, m, amps = comp.keys, comp.n, comp.m, comp.amps
    if not comp._ascending:
        order = np.argsort(f, kind="stable")
        f, n, m, amps = f[order], n[order], m[order], amps[order]
    exponent = n + m
    exponent -= 1
    if loss.R > 0.0:
        # at |0, 0> the weight R^(-1/2) stays finite and meets sqrt(n) = sqrt(m) = 0
        scaled = exponent * (0.5 * math.log(loss.R))
        np.exp(scaled, out=scaled)
    else:
        scaled = (exponent <= 0).astype(float)  # 0^0 = 1, and |0, 0> has no survivor
    if amps.imag.any():
        scaled = scaled * amps
    else:
        scaled *= amps.real
    h = np.sqrt(n).astype(scaled.dtype, copy=False)
    h *= scaled
    v = np.sqrt(m).astype(scaled.dtype, copy=False)
    v *= scaled
    pair = f[1:] == f[:-1] + 1
    own = np.array([[np.vdot(h, h), np.vdot(v[:-1][pair], h[1:][pair])], [0.0, np.vdot(v, v)]])
    return f, h, v, own


def _conditioned_block(
    ensemble: list[tuple[float, tuple[TwoModeVector, TwoModeVector]]],
    loss: LossParams,
) -> tuple[np.ndarray, float]:
    """Unnormalized two-qubit block of an ensemble after loss, conditioned on
    exactly one photon surviving on the amplified arm.

    Each member is a pure joint state given by its two micro components in the
    (H, V) representation.  The photon surviving in mode ``q`` of ``c |n, m>`` has
    amplitude ``c sqrt(n_q) R^((n+m-1)/2) sqrt(eta)``, and column ``(s, q)`` at flat
    index ``f`` shares its lost-photon pattern with ``(s', q')`` at ``f + q - q'``:
    the block is ``eta`` times overlaps of the components, sorted by flat index,
    shifted by -1, 0 and +1 (``notes/decisions.md``).  Each distinct component
    gets its survivor columns once per call, and a member with an empty
    component has no cross overlaps.  The amplitude stays in closed form; no
    dense loss table fits at the attenuated pipelines' cutoffs.
    """
    upper = np.zeros((4, 4), dtype=complex)  # the block's upper triangle
    columns = {}
    for weight, comps in ensemble:
        scale, cols = weight * loss.eta, []
        for s, comp in enumerate(comps):
            if id(comp) not in columns:
                columns[id(comp)] = _survivor_columns(comp, loss)
            f, h, v, own = columns[id(comp)]
            upper[2 * s : 2 * s + 2, 2 * s : 2 * s + 2] += scale * own
            cols.append((f, h, v))
        (f0, h0, v0), (f1, h1, v1) = cols
        if len(f0) and len(f1):
            # at[i] keys of component 1 lie below f0[i]: read off one stable
            # merge of the two ascending key lists, f0 first on ties
            order = np.argsort(np.concatenate((f0, f1)), kind="stable")
            at = np.flatnonzero(order < len(f0))
            at -= np.arange(len(f0))
            # component 1 at f - 1, f and f + 1 for each f of component 0; an
            # index clipped into range fails its key comparison
            last = len(f1) - 1
            equal = np.minimum(at, last)
            same = f1[equal] == f0
            below = at - 1
            np.maximum(below, 0, out=below)
            down = f1[below] == f0 - 1
            above = at  # past f itself where component 1 holds it
            above += same
            np.minimum(above, last, out=above)
            up = f1[above] == f0 + 1
            equal = equal[same]
            upper[0, 2] += scale * np.vdot(h1[equal], h0[same])
            upper[0, 3] += scale * np.vdot(v1[below[down]], h0[down])
            upper[1, 2] += scale * np.vdot(h1[above[up]], v0[up])
            upper[1, 3] += scale * np.vdot(v1[equal], v0[same])
    rho = upper + np.triu(upper, 1).conj().T
    return rho, float(np.trace(rho).real)


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
    a, b = _injection_weights(p.p, gain, t)
    mat = a * _seeded_conditional_matrix(t) + b * np.eye(4)
    trace = np.trace(mat)
    if trace <= 0.0:
        raise ConditioningError(
            "conditional state undefined: no photon ever reaches the lossy arm"
        )
    # a real division: a complex one multiplies by 1 / trace, which
    # overflows when the trace is subnormal
    return (mat / trace).astype(complex)


def _injection_weights(p: float, gain: GainParams, t: float) -> tuple[float, float]:
    """Weights ``a(p) >= 0`` and ``b(p)`` of the unnormalized attenuated
    matrix ``a S + b I`` at injection ``p``, ``S`` the seeded block."""
    a = 2.0 * p / (gain.cosh_g**2 * (1.0 - t * t)) if t < 1.0 else 0.0
    return a, (1.0 - p) * gain.tanh_g * t


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
        ]
    )


def attenuated_injection_pipeline(
    p: InjectionParams, gain: GainParams, loss: LossParams, cutoff: Cutoff
) -> np.ndarray:
    """Numeric route to the imperfect-injection attenuated state.

    Amplifies the mixed seed as an ensemble of pure states, pushes each
    branch through the loss channel and conditions on a single surviving
    photon.  Every member keeps its exact truncated amplitudes: the unit-norm
    singlet is weighed by its kept mass ``1 - pair_ladder_tail``, and the
    vacuum ladder is not normalized, so the members' different tails do not
    bias the ``p : (1 - p)`` mixture.  Converges to
    :func:`attenuated_state_with_injection` like the conditional tail of
    :func:`conditioning_cutoff`.
    """
    singlet = micro_macro_state_hv(gain, cutoff)
    kept = 1.0 - pair_ladder_tail((cutoff.n_max - 1) // 2, gain)
    vac = amplified_vacuum(gain, cutoff)
    zero = TwoModeVector([], [], [], cutoff.n_max, PolarizationBasis.hv())
    ensemble = [
        (p.p * kept, singlet.components),
        ((1.0 - p.p) / 2.0, (vac, zero)),
        ((1.0 - p.p) / 2.0, (zero, vac)),
    ]
    rho, prob = _conditioned_block(ensemble, loss)
    if prob <= 0.0:
        raise ConditioningError(
            f"single-photon probability vanishes at eta={loss.eta}, p={p.p}"
        )
    return rho / prob
