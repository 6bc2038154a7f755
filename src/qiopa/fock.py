"""Two-mode Fock-space algebra on a truncated basis.

States live on the basis ``{|n, m> : n + m <= n_max}`` where ``n`` counts
photons in the first polarization mode of a :class:`PolarizationBasis` and
``m`` photons in the second.  Every 2x2 mode matrix ``P`` is lifted to this
space by one map, :func:`schwinger_operator` (``sum_jk P[j,k] b_j^dag b_k``,
tridiagonal and block diagonal over the total photon number).  Basis changes
between polarization-mode pairs are passive U(2) transformations: with
``T = exp(iH)`` the transfer matrix, each sector block is the exponential
``exp(i G)`` of the sector block of ``G = schwinger_operator(H^T)``, taken
through a Hermitian eigendecomposition, so it is unitary to rounding at any
photon number (about 5e-15 at 500 photons).  Sector blocks are cached per
photon number and basis pair, and built only for occupied sectors.

Everything here is immutable after construction and safe to evaluate
concurrently; the rotation cache is write-once-read-many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:
    from .amplifier import MicroMacroState

TWO_PI = 2.0 * math.pi

# Amplitudes with modulus below this threshold are left out of vectors built
# from dense arrays.
DROP_THRESHOLD = 1e-14

_NORM_TOL = 1e-8

# The largest cutoff whose flat indices t (t + 1) / 2 + n (:func:`_flat_index`)
# fit int64, intermediate t (t + 1) included.
_MAX_CUTOFF = math.isqrt(2**63 - 1)


class CutoffError(ValueError):
    """A truncated construction left more probability mass behind than allowed."""

    def __init__(self, message: str, tail_mass: float | None = None):
        super().__init__(message)
        self.tail_mass = tail_mass


class UndefinedVisibilityError(ArithmeticError):
    """Raised when every detection outcome is inconclusive (no fringe signal)."""


class ConditioningError(ArithmeticError):
    """Raised when a conditional state has zero probability."""


@dataclass(frozen=True)
class Cutoff:
    """Truncation budget: keep ``|n, m>`` with ``n + m <= n_max``.

    ``tail_tolerance`` bounds the probability mass a constructor may drop;
    constructors raise :class:`CutoffError` when they cannot meet it.
    """

    n_max: int
    tail_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"cutoff must be a positive photon number, got {self.n_max}")
        if not 0.0 < self.tail_tolerance < 1.0:
            raise ValueError(f"tail tolerance must lie in (0, 1), got {self.tail_tolerance}")


@dataclass(frozen=True)
class PolarizationBasis:
    """An ordered pair of orthonormal polarization modes.

    ``kind == "hv"`` is the linear pair (H, V).  ``kind == "equatorial"`` is
    the pair ``((H + e^{i phi} V)/sqrt(2), (H - e^{i phi} V)/sqrt(2))``;
    ``phi = 0`` gives (+, -) and ``phi = pi/2`` gives (R, L).  The second
    mode of ``equatorial(phi)`` is the first mode of ``equatorial(phi + pi)``.
    """

    kind: str
    phi: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("hv", "equatorial"):
            raise ValueError(f"unknown polarization basis kind {self.kind!r}")
        if self.kind == "hv" and self.phi != 0.0:
            raise ValueError("the hv basis carries no phase parameter")
        # Canonicalize phi so that equal bases compare and hash equal; phases
        # next to a multiple of pi/4 snap onto it exactly, which keeps the
        # canonical bases and their orthogonal partners free of rounding.
        phi = self.phi % TWO_PI
        eighth = math.pi / 4.0
        snapped = round(phi / eighth)
        if abs(phi - snapped * eighth) < 1e-12:
            phi = (snapped * eighth) % TWO_PI
        object.__setattr__(self, "phi", phi)

    @classmethod
    def hv(cls) -> "PolarizationBasis":
        return cls("hv")

    @classmethod
    def equatorial(cls, phi: float) -> "PolarizationBasis":
        return cls("equatorial", phi)

    @classmethod
    def plus_minus(cls) -> "PolarizationBasis":
        return cls("equatorial", 0.0)

    @classmethod
    def right_left(cls) -> "PolarizationBasis":
        """Circular pair with first mode ``(H - iV)/sqrt(2)``.

        This handedness makes the three canonical measurement axes a
        right-handed Pauli triplet (cyclic commutators with positive sign);
        the opposite convention would flip the sign of every axis-2
        correlation together with its operator, leaving all reported
        quantities unchanged.
        """
        return cls("equatorial", 3.0 * math.pi / 2.0)

    @classmethod
    def canonical(cls, index: int) -> "PolarizationBasis":
        """Measurement bases by the convention 1 -> {H,V}, 2 -> {R,L}, 3 -> {+,-}."""
        if index == 1:
            return cls.hv()
        if index == 2:
            return cls.right_left()
        if index == 3:
            return cls.plus_minus()
        raise ValueError(f"canonical basis index must be 1, 2 or 3, got {index}")

    @property
    def mode_matrix(self) -> np.ndarray:
        """2x2 unitary whose rows are the mode vectors in (H, V) components."""
        if self.kind == "hv":
            return np.eye(2, dtype=complex)
        e = np.exp(1j * self.phi)
        return np.array([[1.0, e], [1.0, -e]], dtype=complex) / math.sqrt(2.0)

    @property
    def label(self) -> str:
        if self.kind == "hv":
            return "hv"
        if self.phi == 0.0:
            return "pm"
        if abs(self.phi - 3.0 * math.pi / 2.0) < 1e-9:
            return "rl"
        return f"eq({self.phi:.6g})"


class FockSpace:
    """Ordered truncated basis of two-mode Fock states.

    States are grouped by total photon number ``N = n + m`` and ordered by
    ``n`` ascending within each sector, so ``index(n, m)`` has the closed
    form ``N (N + 1) / 2 + n`` and any photon-number-conserving operator is
    block diagonal over :attr:`sector_slices`.
    """

    def __init__(self, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be non-negative")
        self.n_max = n_max
        totals = np.concatenate([np.full(t + 1, t, dtype=np.int64) for t in range(n_max + 1)])
        ns = np.concatenate([np.arange(t + 1, dtype=np.int64) for t in range(n_max + 1)])
        self.total = totals
        self.n = ns
        self.m = totals - ns
        self.dim = int(len(ns))
        self.sector_slices = [
            slice(t * (t + 1) // 2, (t + 1) * (t + 2) // 2) for t in range(n_max + 1)
        ]

    def index(self, n: int, m: int) -> int:
        total = n + m
        if n < 0 or m < 0 or total > self.n_max:
            raise ValueError(f"|{n}, {m}> is outside the cutoff {self.n_max}")
        return total * (total + 1) // 2 + n

    def __repr__(self) -> str:  # pragma: no cover
        return f"FockSpace(n_max={self.n_max}, dim={self.dim})"


@lru_cache(maxsize=None)
def fock_space(n_max: int) -> FockSpace:
    return FockSpace(n_max)


# --------------------------------------------------------------------------
# basis rotations
# --------------------------------------------------------------------------

def transfer_matrix(src: PolarizationBasis, dst: PolarizationBasis) -> np.ndarray:
    """2x2 matrix T with ``a_src_i^dag = sum_j T[i, j] a_dst_j^dag``."""
    return src.mode_matrix @ dst.mode_matrix.conj().T


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """Read-only tridiagonal matrix held as three numpy diagonals, with
    ``lower[i]`` at ``(i+1, i)`` and ``upper[i]`` at ``(i, i+1)``."""

    lower: np.ndarray
    diagonal: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.lower, self.diagonal, self.upper):
            arr.setflags(write=False)

    def toarray(self) -> np.ndarray:
        return np.diag(self.diagonal) + np.diag(self.lower, -1) + np.diag(self.upper, 1)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(values, rows, cols)`` of the nonzero entries in row-major order."""
        dim = self.diagonal.size
        rows = np.repeat(np.arange(dim), 3)
        cols = rows + np.tile([-1, 0, 1], dim)
        # the two padding zeros sit outside the matrix and go with the other zeros
        values = np.stack([np.r_[0, self.lower], self.diagonal, np.r_[self.upper, 0]], 1).ravel()
        keep = values != 0.0
        return values[keep], rows[keep], cols[keep]


def schwinger_operator(pauli: np.ndarray, n_max: int) -> Tridiagonal:
    """Schwinger map ``sum_jk P[j,k] b_j^dag b_k`` of a 2x2 matrix ``P`` on
    the truncated space of :func:`fock_space` ``(n_max)``.

    In the sector ordering it is tridiagonal: diagonal ``P00 n + P11 m``,
    entry ``(i+1, i)`` equal to ``P01 sqrt((n+1) m)`` and entry ``(i, i+1)``
    equal to ``P10 sqrt((n+1) m)``, with ``(n, m)`` the state at index ``i``.
    The root vanishes where ``m = 0`` ends a sector, so the map is block
    diagonal over the total photon number.
    """
    space = fock_space(n_max)
    return _schwinger_tridiagonal(pauli, space.n, space.m)


def _schwinger_tridiagonal(pauli: np.ndarray, n: np.ndarray, m: np.ndarray) -> Tridiagonal:
    """The tridiagonal of :func:`schwinger_operator` over consecutive states ``(n, m)``."""
    pauli = np.asarray(pauli, dtype=complex)
    hop = np.sqrt((n[:-1] + 1.0) * m[:-1])
    return Tridiagonal(pauli[0, 1] * hop, pauli[0, 0] * n + pauli[1, 1] * m, pauli[1, 0] * hop)


def _unitary_log(unitary: np.ndarray) -> np.ndarray:
    """Hermitian ``H`` with ``exp(iH) = unitary`` for a 2x2 unitary.

    Divided by a square root of its determinant the matrix is some
    ``W = cos(theta) + i K`` in SU(2), with ``K = (W - W^dag)/2i`` Hermitian.
    The eigenvalues ``+-sin(theta)`` of ``K`` are distinct unless the matrix
    is a multiple of the identity (when any orthonormal pair diagonalizes
    it), so the eigenvectors of ``K`` diagonalize the unitary with exactly
    orthonormal columns, even for a rotation next to the identity.
    """
    w = unitary / np.sqrt(np.linalg.det(unitary))
    _, vecs = np.linalg.eigh((w - w.conj().T) / 2j)
    phases = np.angle(np.einsum("ji,jk,ki->i", vecs.conj(), unitary, vecs))
    return (vecs * phases) @ vecs.conj().T


def _sector_matrix(transfer: np.ndarray, total: int) -> np.ndarray:
    """Rotation block of a 2x2 transfer matrix on the sector of ``total``
    photons.

    ``R[p, n]`` is the amplitude ``<p, total - p|n, total - n>`` between
    destination and source basis states.  On one photon ``R`` is ``T^t``, so
    with ``T = exp(iH)`` the block is ``exp(i G)`` on the sector block of
    ``G = schwinger_operator(H^t)``, taken through ``eigh``.  The Schwinger
    map is a Lie-algebra homomorphism, so ``exp(i G)`` depends on ``H`` only
    through ``T`` and the branch of the logarithm does not matter.
    """
    n = np.arange(total + 1)
    generator = _schwinger_tridiagonal(_unitary_log(transfer).T, n, total - n).toarray()
    evals, vecs = np.linalg.eigh(generator)
    return (vecs * np.exp(1j * evals)) @ vecs.conj().T


@lru_cache(maxsize=1024)
def _sector_rotation(total: int, src: PolarizationBasis, dst: PolarizationBasis) -> np.ndarray:
    """Read-only src -> dst rotation block on the sector of ``total``
    photons; it is the same under every cutoff that holds the sector."""
    block = _sector_matrix(transfer_matrix(src, dst), total)
    block.setflags(write=False)
    return block


def rotate_dense(
    space: FockSpace,
    array: np.ndarray,
    src: PolarizationBasis,
    dst: PolarizationBasis,
    axis: int = -1,
) -> np.ndarray:
    """Apply the src -> dst rotation along one Fock axis of a dense array;
    sectors where the array vanishes stay zero, and their blocks unbuilt."""
    if src == dst:
        return array
    moved = np.moveaxis(np.asarray(array, dtype=complex), axis, -1)
    out = np.zeros_like(moved)
    for total, sl in enumerate(space.sector_slices):
        if np.any(moved[..., sl]):
            out[..., sl] = moved[..., sl] @ _sector_rotation(total, src, dst).T
    return np.moveaxis(out, -1, axis)


# --------------------------------------------------------------------------
# state containers
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TwoModeVector:
    """Sparse two-mode state vector held as parallel arrays: photon numbers
    ``n`` and ``m`` (int64) and amplitudes ``amps`` (complex), one entry per
    stored ``|n, m>``.

    The arrays are validated, copied and made read-only on construction;
    exact zeros are left out.  Each ``(n, m)`` appears at most once.  The
    squared-amplitude sum may fall below one (truncated states); it must
    never exceed one beyond numerical tolerance.  Hand-written states come
    in through :meth:`from_amplitudes`, dense ones through :meth:`from_dense`,
    which leaves out amplitudes below :data:`DROP_THRESHOLD`.  The flat
    indices of the entries (:func:`_flat_index`), which the validation
    computes, are kept read-only in storage order as ``keys``.
    """

    n: np.ndarray
    m: np.ndarray
    amps: np.ndarray
    cutoff: int
    basis: PolarizationBasis
    keys: np.ndarray = field(init=False, repr=False)
    _ascending: bool = field(init=False, repr=False)  # keys strictly ascending

    def __post_init__(self) -> None:
        n = np.array(self.n, dtype=np.int64).reshape(-1)
        m = np.array(self.m, dtype=np.int64).reshape(-1)
        amps = np.array(self.amps, dtype=complex).reshape(-1)
        if not n.size == m.size == amps.size:
            raise ValueError("index and amplitude arrays differ in length")
        total = n + m
        # an int64 sum of two non-negative counts that wraps around is negative
        if n.size and (min(n.min(), m.min(), total.min()) < 0 or total.max() > self.cutoff):
            # m > cutoff - n is n + m > cutoff without an int64 overflow
            i = int(np.argmax((n < 0) | (m < 0) | (m > self.cutoff - n)))
            raise ValueError(f"index ({n[i]}, {m[i]}) outside cutoff {self.cutoff}")
        keys = _flat_index(n, total)
        ascending = bool((keys[1:] > keys[:-1]).all())
        if not ascending and np.unique(keys).size < keys.size:
            raise ValueError("repeated (n, m) index")
        mass = float(np.vdot(amps, amps).real)
        if mass > 1.0 + _NORM_TOL:
            raise ValueError(f"squared-amplitude sum {mass} exceeds 1")
        if not amps.all():
            keep = amps != 0.0
            n, m, amps, keys = n[keep], m[keep], amps[keep], keys[keep]
        for name, arr in (("n", n), ("m", m), ("amps", amps), ("keys", keys)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_ascending", ascending)

    @classmethod
    def from_amplitudes(
        cls,
        amplitudes: Mapping[tuple[int, int], complex],
        cutoff: int,
        basis: PolarizationBasis,
    ) -> "TwoModeVector":
        """Vector from a map ``(n, m) -> amplitude``."""
        nm = np.array(list(amplitudes), dtype=np.int64).reshape(-1, 2)
        amps = np.fromiter(amplitudes.values(), dtype=complex, count=len(nm))
        return cls(nm[:, 0], nm[:, 1], amps, cutoff, basis)

    @classmethod
    def from_dense(
        cls,
        vec: np.ndarray,
        cutoff: int,
        basis: PolarizationBasis,
        drop_threshold: float = DROP_THRESHOLD,
    ) -> "TwoModeVector":
        space = fock_space(cutoff)
        keep = np.flatnonzero(np.abs(vec) > drop_threshold)
        return cls(space.n[keep], space.m[keep], vec[keep], cutoff, basis)

    @property
    def amplitudes(self) -> Mapping[tuple[int, int], complex]:
        """Read-only map ``(n, m) -> amplitude``, built on each access."""
        keys = zip(self.n.tolist(), self.m.tolist())
        return MappingProxyType(dict(zip(keys, self.amps.tolist())))

    def dense(self, space: FockSpace | None = None) -> np.ndarray:
        n_max = self.cutoff if space is None else space.n_max
        if n_max < self.cutoff:
            raise ValueError("target space smaller than the state's cutoff")
        out = np.zeros((n_max + 1) * (n_max + 2) // 2, dtype=complex)
        out[self.keys] = self.amps
        return out

    def norm(self) -> float:
        return math.sqrt(float(np.vdot(self.amps, self.amps).real))

    def normalized(self) -> "TwoModeVector":
        norm = self.norm()
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return self.scaled(1.0 / norm)

    def scaled(self, factor: complex) -> "TwoModeVector":
        return TwoModeVector(self.n, self.m, factor * self.amps, self.cutoff, self.basis)

    def overlap(self, other: "TwoModeVector") -> complex:
        """Inner product ``<self|other>``; both states must share a basis."""
        if self.basis != other.basis:
            raise ValueError("overlap requires a common basis")
        _, mine, theirs = np.intersect1d(
            self.keys, other.keys, assume_unique=True, return_indices=True
        )
        return complex(np.vdot(self.amps[mine], other.amps[theirs]))

    def mean_total_photons(self) -> float:
        return float(np.dot(self.n + self.m, np.abs(self.amps) ** 2))


def _flat_index(n: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Index ``t (t + 1) / 2 + n`` of ``|n, m>`` in the ordering of
    :class:`FockSpace`, from ``n`` and the total ``t = n + m``."""
    keys = total + 1
    keys *= total
    keys >>= 1  # t (t + 1) is even and, for t >= 0, non-negative
    keys += n
    return keys


def rotate_basis(state: TwoModeVector, target: PolarizationBasis) -> TwoModeVector:
    """Re-express a state in another polarization-mode pair.

    The transformation is passive, so the total-photon-number distribution is
    preserved exactly and the rotation never overflows the cutoff.
    """
    if not isinstance(target, PolarizationBasis):
        raise ValueError(f"unknown target basis {target!r}")
    if target == state.basis:
        return state
    space = fock_space(state.cutoff)
    out = rotate_dense(space, state.dense(space), state.basis, target)
    return TwoModeVector.from_dense(out, state.cutoff, target)


def photon_distribution(
    state: TwoModeVector, basis: PolarizationBasis
) -> dict[tuple[int, int], float]:
    """Photon-number distribution of ``state`` measured in ``basis``."""
    rotated = rotate_basis(state, basis)
    return {k: abs(v) ** 2 for k, v in rotated.amplitudes.items()}


@dataclass
class DensityOperator:
    """Hermitian trace-normalized operator over (micro qubit) x Fock space.

    ``micro_dim == 1`` is a plain two-mode operator; ``micro_dim == 2``
    prepends a polarization qubit whose two levels are the modes of
    :attr:`basis`.  The joint index is ``s * fock_dim + f`` (micro major).
    """

    matrix: np.ndarray
    cutoff: int
    basis: PolarizationBasis
    micro_dim: int = 1

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)
        expected = self.micro_dim * fock_space(self.cutoff).dim
        if self.matrix.shape != (expected, expected):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match dimension {expected}"
            )

    @property
    def fock_dim(self) -> int:
        return fock_space(self.cutoff).dim

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.matrix + self.matrix.conj().T) / 2.0)[0])

    def normalized(self) -> "DensityOperator":
        tr = np.trace(self.matrix)
        if abs(tr) == 0.0:
            raise ValueError("cannot normalize a traceless operator")
        return DensityOperator(self.matrix / tr, self.cutoff, self.basis, self.micro_dim)

    def validate(self, tol: float = 1e-9) -> None:
        if self.hermiticity_defect() > tol:
            raise ValueError("operator is not Hermitian within tolerance")
        if abs(self.trace() - 1.0) > tol:
            raise ValueError("operator is not trace one within tolerance")
        if self.min_eigenvalue() < -tol:
            raise ValueError("operator has a negative eigenvalue beyond tolerance")

    @classmethod
    def from_pure(cls, state: TwoModeVector | MicroMacroState) -> "DensityOperator":
        """Projector onto a pure ``TwoModeVector`` or joint ``MicroMacroState``;
        the micro dimension is the number of rows of ``state.dense()``."""
        vec = np.atleast_2d(state.dense())
        flat = vec.reshape(-1)
        return cls(np.outer(flat, flat.conj()), state.cutoff, state.basis, len(vec))

    def rotated(self, target: PolarizationBasis) -> "DensityOperator":
        if target == self.basis:
            return self
        space = fock_space(self.cutoff)
        d = space.dim
        mat = self.matrix.reshape(self.micro_dim, d, self.micro_dim, d)
        mat = rotate_dense(space, mat, self.basis, target, axis=1)
        mat = rotate_dense(space, mat.conj(), self.basis, target, axis=3).conj()
        if self.micro_dim == 2:
            # Micro components transform with T^t where T is the transfer matrix.
            t = transfer_matrix(self.basis, target)
            mat = np.einsum("sp,setf,tq->peqf", t, mat, t.conj())
            mat = np.ascontiguousarray(mat)
        return DensityOperator(
            mat.reshape(self.dim, self.dim), self.cutoff, target, self.micro_dim
        )


def expectation(rho: DensityOperator, op: np.ndarray) -> float | complex:
    """``Tr(rho op)``; returns a real number when the imaginary part is negligible."""
    op = np.asarray(op)
    if op.shape != rho.matrix.shape:
        raise ValueError(f"operator shape {op.shape} does not match state {rho.matrix.shape}")
    value = complex(np.einsum("ij,ji->", rho.matrix, op))
    scale = max(1.0, abs(value))
    if abs(value.imag) < 1e-10 * scale:
        return float(value.real)
    return value
