"""Collinear optical parametric amplifier seeded at the single-photon level.

The device amplifies any equatorial polarization seed into a multiphoton
"macro-qubit" whose expansion over two-mode Fock states carries a strict
parity signature: an odd photon count in the seeded mode and an even count
in the orthogonal one.  Seeding with H or V instead produces photon-pair
ladders on top of the seed photon.  Amplifying one photon of a polarization
singlet yields the joint micro-macro state used throughout this package.

All constructors truncate at a total photon number ``n_max`` and, before
building anything, check the closed-form probability mass beyond it against
``Cutoff.tail_tolerance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    Cutoff,
    CutoffError,
    FockSpace,
    PolarizationBasis,
    TwoModeVector,
    _MAX_CUTOFF,
    fock_space,
    rotate_dense,
    transfer_matrix,
)


@dataclass(frozen=True)
class GainParams:
    """Dimensionless nonlinear gain ``g`` (optionally ``g = chi * t``)."""

    g: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.g) and self.g >= 0.0):
            raise ValueError(f"gain must be finite and non-negative, got {self.g}")

    @property
    def tanh_g(self) -> float:
        return math.tanh(self.g)

    @property
    def cosh_g(self) -> float:
        return math.cosh(self.g)

    @property
    def sinh_g(self) -> float:
        return math.sinh(self.g)

    @property
    def mean_photon_number(self) -> float:
        """Mean total photon number of any single-photon-seeded output."""
        return 1.0 + 4.0 * self.sinh_g**2


@dataclass(frozen=True)
class MacroQubit:
    """Amplified image of an equatorial single-photon seed."""

    injected_phase: float
    gain: GainParams
    state: TwoModeVector


@dataclass(frozen=True)
class MicroMacroState:
    """Joint pure state of an unamplified qubit A and an amplified arm B.

    ``components[s]`` is the (unnormalized) two-mode vector multiplying the
    micro basis state ``s`` of ``basis``; micro and macro labels always refer
    to the same polarization-mode pair.
    """

    components: tuple[TwoModeVector, TwoModeVector]
    gain: GainParams
    basis: PolarizationBasis

    @property
    def cutoff(self) -> int:
        return self.components[0].cutoff

    def dense(self, space: FockSpace | None = None) -> np.ndarray:
        space = space or fock_space(self.cutoff)
        return np.stack([c.dense(space) for c in self.components])

    def norm(self) -> float:
        return math.sqrt(sum(c.norm() ** 2 for c in self.components))

    def rotated(self, target: PolarizationBasis) -> "MicroMacroState":
        if target == self.basis:
            return self
        space = fock_space(self.cutoff)
        dense = rotate_dense(space, self.dense(space), self.basis, target)
        # micro components transform with T^t, as in DensityOperator.rotated
        dense = transfer_matrix(self.basis, target).T @ dense
        new = tuple(TwoModeVector.from_dense(row, self.cutoff, target) for row in dense)
        return MicroMacroState(new, self.gain, target)


# --------------------------------------------------------------------------
# expansion coefficients
# --------------------------------------------------------------------------

def macro_qubit_amplitude(
    i: int | np.ndarray, j: int | np.ndarray, phi: float, gain: GainParams
) -> complex | np.ndarray:
    """Coefficient of ``|(2i+1) phi, (2j) phi_perp>`` in the amplified seed.

    Evaluated in the log domain over a table of ``log(k!)`` so that the
    factorial ratio ``sqrt((2i+1)!(2j)!) / (i! j!)`` never overflows.  The
    modulus is independent of the seed phase ``phi``.  ``i`` and ``j`` may be
    integer arrays of one shape; the result then has that shape.
    """
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    if np.any(i < 0) or np.any(j < 0):
        raise ValueError("indices must be non-negative")
    top = 2 * int(max(i.max(initial=0), j.max(initial=0))) + 1
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(top + 1)])
    x = gain.tanh_g / 2.0
    # log(x^(i+j)), with 0^0 = 1 at zero gain
    log_pow = (i + j) * math.log(x) if x > 0.0 else np.where(i + j == 0, 0.0, -np.inf)
    log_mod = log_pow + 0.5 * (
        log_fact[2 * i + 1] + log_fact[2 * j]
    ) - log_fact[i] - log_fact[j]
    sign = np.where(j % 2 == 1, -1.0, 1.0)
    amp = sign * np.exp(log_mod) * np.exp(-1j * (i + j) * phi)
    return amp[()]


def seed_pair_amplitude(n: int | np.ndarray, gain: GainParams) -> float | np.ndarray:
    """Coefficient of the n-pair term on top of an H or V seed photon.

    ``n`` may be an integer array; the result then has its shape.
    """
    n = np.asarray(n, dtype=np.int64)
    if np.any(n < 0):
        raise ValueError("n must be non-negative")
    # tanh^n g sqrt(n + 1) / cosh^2 g, in place; np.power, since exp(n log t)
    # and a cumulative product round differently
    flat = n.ravel()
    amp = gain.tanh_g**flat
    root = flat + 1.0
    np.sqrt(root, out=root)
    amp *= root
    amp /= gain.cosh_g**2
    return amp if n.ndim == 1 else amp.reshape(n.shape)[()]  # owning, so a vector can share it


def pair_ladder_tail(n_pairs: int, gain: GainParams) -> float:
    """Probability mass of a seeded output beyond ``n_pairs`` photon pairs.

    Closed form of ``1 - sum_{n <= n_pairs} (n+1) x^n / cosh^4 g`` with
    ``x = tanh^2 g``; this is also the total-photon tail of every
    single-photon-seeded output, equatorial or linear.  It decreases
    monotonically in ``n_pairs``.
    """
    if gain.g == 0.0:
        return 0.0
    x = gain.tanh_g**2
    p = n_pairs
    return x ** (p + 1) * ((p + 2) - (p + 1) * x)


def required_cutoff(gain: GainParams, tail_tolerance: float) -> int:
    """Smallest odd ``n_max`` whose truncated seeded output loses less than
    ``tail_tolerance`` of its probability mass, by :func:`_first_below` on the
    monotone :func:`pair_ladder_tail`, uncapped: 263,653 at g = 5, tail 1e-9.
    Only the FFT bounds its length (:func:`qiopa.measurement._tail_grid`).
    Raises ``ValueError`` unless ``0 < tail_tolerance < 1``."""
    if not 0.0 < tail_tolerance < 1.0:
        raise ValueError(f"tail tolerance must lie in (0, 1), got {tail_tolerance}")
    if gain.g == 0.0:
        return 1
    failure = f"no cutoff reaches tail {tail_tolerance} at g={gain.g}"
    return 2 * _first_below(lambda p: pair_ladder_tail(p, gain), tail_tolerance, failure) + 1


def _first_below(tail, threshold: float, failure: str) -> int:
    """Smallest pair count ``p`` with ``tail(p) < threshold`` for a decreasing
    ``tail``: the count doubles from 1 until the tail is below the threshold,
    then bisects.  Raises :class:`CutoffError` with ``failure`` when no count
    whose cutoff ``2 p + 3`` fits the flat index (``_MAX_CUTOFF``) gets there."""
    limit, hi = (_MAX_CUTOFF - 3) // 2, 1
    while tail(hi) >= threshold:
        if hi == limit:
            raise CutoffError(f"{failure} below cutoff {_MAX_CUTOFF}")
        hi = min(2 * hi, limit)
    lo = 0
    while lo < hi:  # invariant: the tail at hi is below the threshold
        mid = (lo + hi) // 2
        if tail(mid) < threshold:
            hi = mid
        else:
            lo = mid + 1
    return hi


# --------------------------------------------------------------------------
# amplified states
# --------------------------------------------------------------------------

def _checked_tail(tail: float, gain: GainParams, cutoff: Cutoff) -> None:
    """Raise :class:`CutoffError` if ``tail``, the exact probability mass a
    truncation at ``cutoff`` drops, reaches ``cutoff.tail_tolerance``."""
    if tail >= cutoff.tail_tolerance:
        raise CutoffError(
            f"cutoff {cutoff.n_max} keeps tail mass {tail:.6e} at g={gain.g}, "
            f"above the allowed {cutoff.tail_tolerance:.6e}",
            tail_mass=tail,
        )


def _checked_seeded_tail(gain: GainParams, cutoff: Cutoff) -> None:
    """The tail gate of every single-photon-seeded output, on the closed-form
    mass beyond the ``(n_max - 1) // 2`` pairs that ``cutoff`` keeps."""
    _checked_tail(pair_ladder_tail((cutoff.n_max - 1) // 2, gain), gain, cutoff)


def _macro_ladder(
    phi: float, gain: GainParams, n_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays ``(2i+1, 2j)`` and amplitudes of the truncated amplified
    equatorial seed, over every ``(i, j)`` with ``2(i+j) + 1 <= n_max``."""
    k_max = (n_max - 1) // 2
    # i major: the upper triangle's column index runs from i to k_max
    i, col = np.triu_indices(k_max + 1)
    j = col - i
    amps = macro_qubit_amplitude(i, j, phi, gain) * (1.0 / gain.cosh_g**2)
    return 2 * i + 1, 2 * j, amps


def _macro_vector_unchecked(phi: float, gain: GainParams, n_max: int) -> TwoModeVector:
    """Truncated amplified equatorial seed without the tail-tolerance gate."""
    return TwoModeVector(*_macro_ladder(phi, gain, n_max), n_max, PolarizationBasis.equatorial(phi))


def macro_qubit(phi: float, gain: GainParams, cutoff: Cutoff) -> MacroQubit:
    """Amplify the equatorial seed at phase ``phi``.

    The returned state is expressed in ``equatorial(phi)`` and populates only
    indices ``(2i + 1, 2j)``: odd in the seeded mode, even in the orthogonal
    mode.  Its norm falls short of one by the truncated tail, which must stay
    below ``cutoff.tail_tolerance``.
    """
    _checked_seeded_tail(gain, cutoff)
    return MacroQubit(phi, gain, _macro_vector_unchecked(phi, gain, cutoff.n_max))


def _hv_macro_vector_unchecked(seed: str, gain: GainParams, n_max: int) -> TwoModeVector:
    if seed not in ("H", "V"):
        raise ValueError(f"seed must be 'H' or 'V', got {seed!r}")
    n = np.arange((n_max - 1) // 2 + 1)
    n1, amps = n + 1, seed_pair_amplitude(n, gain)
    for arr in (n, n1, amps):  # read-only, so that the vector shares them
        arr.setflags(write=False)
    pair = (n1, n) if seed == "H" else (n, n1)
    return TwoModeVector(*pair, amps, n_max, PolarizationBasis.hv())


def hv_macro_state(seed: str, gain: GainParams, cutoff: Cutoff) -> TwoModeVector:
    """Amplify a linear H or V seed photon.

    The output is a ladder of photon pairs on top of the seed:
    ``sum_n c_n |n+1, n>`` for H and ``sum_n c_n |n, n+1>`` for V, with
    ``c_n`` from :func:`seed_pair_amplitude`.
    """
    _checked_seeded_tail(gain, cutoff)
    return _hv_macro_vector_unchecked(seed, gain, cutoff.n_max)


def amplified_vacuum(gain: GainParams, cutoff: Cutoff) -> TwoModeVector:
    """Unseeded output: a two-mode squeezed vacuum ``sum_n (tanh g)^n |n, n> / cosh g``."""
    _checked_tail(gain.tanh_g ** (2 * (cutoff.n_max // 2 + 1)), gain, cutoff)
    n = np.arange(cutoff.n_max // 2 + 1)
    amps = (1.0 / gain.cosh_g) * gain.tanh_g**n
    for arr in (n, amps):  # read-only, so that the vector shares them
        arr.setflags(write=False)
    return TwoModeVector(n, n, amps, cutoff.n_max, PolarizationBasis.hv())


def micro_macro_state(phi: float, gain: GainParams, cutoff: Cutoff) -> MicroMacroState:
    """Amplified polarization singlet, written in the equatorial basis ``phi``.

    The qubit state along mode ``phi`` multiplies the amplified orthogonal
    seed and vice versa, with a relative minus sign; at ``g = 0`` this is the
    two-photon singlet restricted to one photon on each arm.  It is the
    (H, V) construction :func:`micro_macro_state_hv` rotated into
    ``equatorial(phi)``.  A passive rotation ``U`` on both photons maps the
    singlet to ``det(U)`` times itself, so the rotated state is multiplied by
    ``det(transfer_matrix(basis, hv))``: the g = 0 singlet then reads
    ``(|0>|0,1> - |1>|1,0>)/sqrt(2)`` in every basis, the same convention as
    the (H, V) state.
    """
    basis = PolarizationBasis.equatorial(phi)
    phase = np.linalg.det(transfer_matrix(basis, PolarizationBasis.hv()))
    rotated = micro_macro_state_hv(gain, cutoff).rotated(basis)
    return MicroMacroState(
        tuple(c.scaled(phase) for c in rotated.components), gain, basis
    )


def micro_macro_state_hv(gain: GainParams, cutoff: Cutoff) -> MicroMacroState:
    """The amplified singlet in the (H, V) representation, the one direct
    construction of it: the H micro state multiplies the amplified V seed
    (pair ladder ``|n, n+1>``) and the V micro state minus the amplified H
    seed (``|n+1, n>``).  Both ladders share one norm, so the truncated
    vector is normalized globally, which keeps the two components' equal
    weight exactly.  It needs no basis rotation, which keeps large-cutoff
    pipelines cheap.
    """
    _checked_seeded_tail(gain, cutoff)
    n = np.arange((cutoff.n_max - 1) // 2 + 1)
    amps = seed_pair_amplitude(n, gain)
    amps *= 1.0 / math.sqrt(2.0 * float(np.dot(amps, amps)))
    n1, neg = n + 1, -amps
    for arr in (n, n1, amps, neg):  # read-only, so that the components share them
        arr.setflags(write=False)
    hv = PolarizationBasis.hv()
    components = (TwoModeVector(n, n1, amps, cutoff.n_max, hv),
                  TwoModeVector(n1, n, neg, cutoff.n_max, hv))
    return MicroMacroState(components, gain, hv)
