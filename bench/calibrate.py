"""Fixed calibration kernel that turns wall times into calibrated seconds.

The machine's speed drifts by more than ten per cent over a minute, so every
timed pass is bracketed by this kernel and scaled by
``REFERENCE_S / measured kernel time``.  The kernel mixes the kinds of work
the workloads do: a dense complex matmul (witness contractions), a sparse
build and matvec (the Kraus loss channel), a pure-Python dict loop (state
construction and single-photon conditioning) and two passes over an array
larger than the caches (the large arrays of the loss channel).  Without
that last part the kernel followed the drift of the numpy-heavy and the
Python-heavy workloads worse than no calibration at all.  It calls no qiopa
code, so a change to the package cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

# Median kernel time on the reference machine (see README.md); a calibrated
# second is a wall second on that machine at that speed.
REFERENCE_S = 0.0220

# Seed of the kernel's fixed random matrices.
KERNEL_SEED = 20100625

_DENSE_N = 240
_SPARSE_N = 4000
_SPARSE_NNZ = 100_000
_DICT_ITEMS = 8_000
# 16 MB, held for the life of the process: a transient array would set a
# peak of its own that a small workload's cold pass never reaches
_STREAM_FLOATS = 2_000_000

_inputs = None


def _kernel_inputs():
    global _inputs
    if _inputs is None:
        rng = np.random.default_rng(KERNEL_SEED)
        a = rng.standard_normal((_DENSE_N, _DENSE_N)) + 1j * rng.standard_normal((_DENSE_N, _DENSE_N))
        b = rng.standard_normal((_DENSE_N, _DENSE_N)) + 1j * rng.standard_normal((_DENSE_N, _DENSE_N))
        rows = rng.integers(0, _SPARSE_N, _SPARSE_NNZ)
        cols = rng.integers(0, _SPARSE_N, _SPARSE_NNZ)
        vals = rng.standard_normal(_SPARSE_NNZ)
        vec = rng.standard_normal(_SPARSE_N)
        keys = [(int(i), int(j)) for i, j in rng.integers(0, 200, (_DICT_ITEMS, 2))]
        stream = rng.standard_normal(_STREAM_FLOATS)
        _inputs = (a, b, rows, cols, vals, vec, keys, stream)
    return _inputs


def kernel_once() -> float:
    """Wall time of one pass of the fixed kernel."""
    a, b, rows, cols, vals, vec, keys, stream = _kernel_inputs()
    start = time.perf_counter()
    c = a @ b
    c = c @ a
    m = sp.csr_matrix((vals, (rows, cols)), shape=(_SPARSE_N, _SPARSE_N))
    y = m @ vec
    y = m.T @ y
    acc: dict[tuple[int, int], complex] = {}
    for n, key in enumerate(keys):
        acc[key] = acc.get(key, 0.0) + complex(n % 7, 1.0) * 0.5
    total = sum(abs(v) for v in acc.values())
    total += abs(float(stream.sum())) + float(stream @ stream)
    elapsed = time.perf_counter() - start
    if not (np.isfinite(c[0, 0]) and np.isfinite(y[0]) and total > 0.0):
        raise ArithmeticError("calibration kernel produced a non-finite result")
    return elapsed


def measure(reps: int = 3) -> float:
    """Median of ``reps`` kernel passes, in wall seconds."""
    _kernel_inputs()
    return statistics.median(kernel_once() for _ in range(reps))
