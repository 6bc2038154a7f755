"""Entanglement metrics for the attenuated two-qubit regime.

Concurrence follows the standard spin-flip construction; the Peres partial
transpose test is exact for 2x2 systems and one-directional (negative partial
transpose implies entanglement) for larger splits.  Closed forms are provided
for the attenuated amplifier states, including imperfect injection and the
critical injection probability, and are validated against brute-force
diagonalization of the corresponding matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amplifier import GainParams
from .channels import (
    InjectionParams,
    LossParams,
    _injection_weights,
    _seeded_conditional_matrix,
    coherence_parameter,
)

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)
_PPT_TOL = 1e-9  # a smallest partial-transpose eigenvalue >= -_PPT_TOL reads as PPT


@dataclass(frozen=True)
class ConcurrenceReport:
    """Concurrence of a two-qubit state."""

    concurrence: float


@dataclass(frozen=True)
class PptReport:
    """Partial-transpose spectrum, negativity and the separability verdict.

    The ``separable`` flag means "positive partial transpose": exact
    separability for a 2x2 split, only a necessary condition beyond it.
    """

    eigenvalues: np.ndarray
    negativity: float
    separable: bool


def concurrence_2x2(rho: np.ndarray) -> ConcurrenceReport:
    """Two-qubit concurrence via the spin-flip eigenvalue construction.

    The input must be finite, Hermitian and positive to 1e-9 and of trace
    one to 1e-6, or :class:`ValueError` is raised.  Eigenvalues of
    ``rho (sy x sy) rho* (sy x sy)`` are clipped at 0 before the square
    roots; the basis order is (HH, HV, VH, VV).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():  # before NaN slips past the comparisons below
        raise ValueError("density matrix has a non-finite entry")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > 1e-6:
        raise ValueError("density matrix is not trace one")
    if np.linalg.eigvalsh(rho)[0] < -1e-9:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
    flipped = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    evals = np.linalg.eigvals(rho @ flipped).real
    lambdas = np.sort(np.sqrt(np.clip(evals, 0.0, None)))[::-1]
    value = max(0.0, lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3])
    return ConcurrenceReport(float(value))


def concurrence_of_t(t: float) -> float:
    """Concurrence ``(1-t^2)/(1+3t^2)`` of the attenuated amplified singlet
    at coherence parameter ``t``."""
    t2 = t * t
    return (1.0 - t2) / (1.0 + 3.0 * t2)


def analytic_concurrence(gain: GainParams, loss: LossParams) -> float:
    """Concurrence of the attenuated amplified singlet at
    ``t = (1-eta) tanh g``; strictly positive for every finite gain and any
    nonzero transmittivity."""
    return concurrence_of_t(coherence_parameter(gain, loss))


def concurrence_with_injection(
    gain: GainParams, loss: LossParams, p: InjectionParams
) -> float:
    """Closed-form concurrence of the attenuated state at injection ``p``.

    With ``x = sinh^2(g) (1 - eta)`` the value is
    ``(1 - t^2)(p - (1-p) x) / (p (1 + 3 t^2) + 2 (1-p) x (1 - t^2))`` above
    the critical injection probability and zero at or below it.  The factor
    ``x`` equals ``t sinh(g) cosh(g)`` and reproduces the brute-force
    concurrence of the mixed-injection matrix exactly.
    """
    t = coherence_parameter(gain, loss)
    t2 = t * t
    x = gain.sinh_g**2 * loss.R
    numerator = (1.0 - t2) * (p.p - (1.0 - p.p) * x)
    if numerator <= 0.0:
        return 0.0
    denominator = p.p * (1.0 + 3.0 * t2) + 2.0 * (1.0 - p.p) * x * (1.0 - t2)
    return numerator / denominator


def critical_injection_probability(gain: GainParams, loss: LossParams) -> float:
    """Injection probability below which the attenuated state is separable:
    ``x / (1 + x)`` with ``x = sinh^2(g) (1 - eta)``."""
    x = gain.sinh_g**2 * loss.R
    return x / (1.0 + x)


def critical_injection_scan(
    gain: GainParams,
    loss: LossParams,
    tol: float = 1e-6,
) -> float:
    """Brute-force critical injection probability.

    Bisects the sign change of the minimal partial-transpose eigenvalue of
    the closed-form attenuated matrix over ``p`` until the bracket is no
    wider than ``tol``; independent of the analytic formula above.  The
    unnormalized matrix is ``a(p) S + b(p) I`` with ``a >= 0``, and the
    partial transpose is linear and fixes ``I``, so its smallest normalized
    eigenvalue is ``(a lambda_0 + b) / (a tr S + 4 b)`` with ``lambda_0`` the
    smallest eigenvalue of the partial transpose of ``S``: one ``eigvalsh``
    per scan.  The verdict at each ``p`` is :func:`ppt_test`'s; where no
    photon reaches the detector (zero trace) the state is not NPT.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    t = coherence_parameter(gain, loss)
    seeded = _seeded_conditional_matrix(t)
    lowest = float(_pt_spectra(seeded, (2, 2))[0])
    seeded_trace = float(np.trace(seeded).real)

    def npt(p: float) -> bool:
        a, b = _injection_weights(p, gain, t)
        trace = a * seeded_trace + 4.0 * b
        return trace > 0.0 and not (a * lowest + b) / trace >= -_PPT_TOL

    steps = 0
    while 0.5**steps > tol:  # counted: a bracket of adjacent floats no longer halves
        steps += 1
    # p = 0 is never NPT: a(0) = 0 leaves a multiple of the identity, or no trace
    lo, hi = 0.0, 1.0
    if not npt(hi):
        return 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if npt(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def partial_transpose(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Transpose the second factor of a bipartite density matrix, or of each
    matrix of a stack."""
    da, db = dims
    rho = np.asarray(rho)
    if rho.shape[-2:] != (da * db, da * db):
        raise ValueError(
            f"matrix of shape {rho.shape} does not factor as {da} x {db}"
        )
    blocks = rho.reshape(rho.shape[:-2] + (da, db, da, db))
    return blocks.swapaxes(-3, -1).reshape(rho.shape)


def _pt_spectra(rho: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of the partial transpose,
    per matrix of a stack."""
    pt = partial_transpose(rho, dims)
    return np.linalg.eigvalsh((pt + pt.conj().swapaxes(-2, -1)) / 2.0)


def ppt_test(rho: np.ndarray, dims: tuple[int, int]) -> PptReport:
    """Peres positive-partial-transpose test.

    The state reads as PPT when its smallest partial-transpose eigenvalue is
    at least ``-1e-9`` (``_PPT_TOL``, shared with
    :func:`critical_injection_scan`).  Exact separability verdict for a 2x2
    split; for larger local dimensions a negative partial transpose still
    certifies entanglement while positivity remains inconclusive.  A matrix
    with a non-finite entry raises :class:`ValueError`.
    """
    rho = np.asarray(rho)
    if not np.isfinite(rho).all():  # the eigensolver fails on NaN with LinAlgError
        raise ValueError("density matrix has a non-finite entry")
    evals = _pt_spectra(rho, dims)
    negativity = float(-np.sum(evals[evals < 0.0]))
    return PptReport(evals, negativity, bool(evals[0] >= -_PPT_TOL))
