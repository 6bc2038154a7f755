"""Output checks of the benchmark, computed apart from qiopa.

Every check takes the program's output (CSV text or numbers) and returns a
list of problems; an empty list means the output is correct.  CSV columns are
read by header name and unknown columns are ignored, so extra quality columns
do not invalidate a workload.  Nothing here imports qiopa.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict

TOL = 1e-9
MONOTONE_SLACK = 1e-12


def read_csv(text: str) -> list[dict[str, float]]:
    """Rows of a qiopa CSV as dicts of floats, keyed by header name."""
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO("\n".join(body)))]


def _close(value: float, target: float, tol: float = TOL) -> bool:
    return abs(value - target) <= tol


def _grouped(rows, *keys):
    groups = defaultdict(list)
    for row in rows:
        groups[tuple(row[k] for k in keys)].append(row)
    return {key: sorted(group, key=lambda r: r["eta"]) for key, group in groups.items()}


def _monotone(group, label) -> list[str]:
    return [
        f"{label}: S falls from {a['S']!r} at eta={a['eta']} to {b['S']!r} at eta={b['eta']}"
        for a, b in zip(group, group[1:])
        if b["S"] < a["S"] - MONOTONE_SLACK
    ]


def check_sigma(rows) -> list[str]:
    """Pseudo-Pauli witness: S(1) = 3, S(0) = 0, S non-decreasing in eta, and
    S = 3 eta at zero gain."""
    problems = []
    if not rows:
        return ["no rows"]
    for (g,), group in _grouped(rows, "g").items():
        label = f"witness-sigma g={g}"
        for row in group:
            if row["eta"] == 1.0 and not _close(row["S"], 3.0):
                problems.append(f"{label}: S(eta=1) = {row['S']!r}, expected 3")
            if row["eta"] == 0.0 and not _close(row["S"], 0.0):
                problems.append(f"{label}: S(eta=0) = {row['S']!r}, expected 0")
            if g == 0.0 and not _close(row["S"], 3.0 * row["eta"]):
                problems.append(f"{label}: S = {row['S']!r} at eta={row['eta']}, expected 3 eta")
        problems += _monotone(group, label)
    return problems


def check_ofilter(rows) -> list[str]:
    """Threshold-filter witness: S(0) = 0, S non-decreasing in eta, and
    S = 3 eta at zero gain and zero threshold."""
    problems = []
    if not rows:
        return ["no rows"]
    for (g, k), group in _grouped(rows, "g", "k").items():
        label = f"witness-ofilter g={g} k={k:g}"
        for row in group:
            if row["eta"] == 0.0 and not _close(row["S"], 0.0):
                problems.append(f"{label}: S(eta=0) = {row['S']!r}, expected 0")
            if g == 0.0 and k == 0.0 and not _close(row["S"], 3.0 * row["eta"]):
                problems.append(f"{label}: S = {row['S']!r} at eta={row['eta']}, expected 3 eta")
        problems += _monotone(group, label)
    return problems


def check_stokes(rows) -> list[str]:
    """Spin witness after loss equals 2 eta at every gain."""
    if not rows:
        return ["no rows"]
    return [
        f"witness-stokes g={row['g']}: value {row['value']!r} at eta={row['eta']}, expected {2.0 * row['eta']!r}"
        for row in rows
        if not _close(row["value"], 2.0 * row["eta"])
    ]


# --------------------------------------------------------------------------
# fringe visibility: independent build from the published amplitudes
# --------------------------------------------------------------------------

def macro_qubit_populations(g: float, n_max: int):
    """Normalized Fock populations ``q[n, m]`` of the amplified equatorial seed.

    The amplitude of ``|2i+1, 2j>`` has modulus
    ``(tanh g / 2)^(i+j) sqrt((2i+1)! (2j)!) / (i! j! cosh^2 g)``; it is
    evaluated with ``scipy.special.gammaln`` on the whole grid at once.
    """
    import numpy as np
    from scipy.special import gammaln

    q = np.zeros((n_max + 1, n_max + 1))
    if g == 0.0:
        q[1, 0] = 1.0
        return q
    k_max = (n_max - 1) // 2
    i, j = np.meshgrid(np.arange(k_max + 1), np.arange(k_max + 1), indexing="ij")
    keep = i + j <= k_max
    i, j = i[keep], j[keep]
    log_mod = (
        (i + j) * math.log(math.tanh(g) / 2.0)
        + 0.5 * (gammaln(2 * i + 2) + gammaln(2 * j + 1))
        - gammaln(i + 1)
        - gammaln(j + 1)
        - 2.0 * math.log(math.cosh(g))
    )
    q[2 * i + 1, 2 * j] = np.exp(2.0 * log_mod)
    return q / q.sum()


def fringe_reference(g: float, n_max: int, k: int, eta: float, populations=None) -> tuple[float, float, float, float]:
    """``(P+, P-, P0, V)`` of the lossy macro-qubit measured with threshold
    ``k``, thinning each mode with ``scipy.stats.binom``; ``V`` is NaN when
    every outcome is inconclusive."""
    import numpy as np
    from scipy.stats import binom

    q = macro_qubit_populations(g, n_max) if populations is None else populations
    n = np.arange(n_max + 1)
    kernel = binom.pmf(n[:, None], n[None, :], eta)
    thinned = kernel @ q @ kernel.T
    diff = n[:, None] - n[None, :]
    p_plus = float(thinned[diff > k].sum())
    p_minus = float(thinned[-diff > k].sum())
    p_zero = 1.0 - p_plus - p_minus
    conclusive = p_plus + p_minus
    v = (p_plus - p_minus) / conclusive if conclusive > 0.0 else math.nan
    return p_plus, p_minus, p_zero, v


def check_fringe(rows, expected) -> list[str]:
    """Fringe rows: probabilities sum to one, no inconclusive events without
    loss at ``k = 0``, and every row equals the independent build.

    ``expected`` lists ``(k, R, (P+, P-, P0, V))`` in the row order of the
    sweep.
    """
    if len(rows) != len(expected):
        return [f"visibility: {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (k, r, ref) in zip(rows, expected):
        label = f"visibility k={k} R={r}"
        if row["k"] != k or not _close(row["R"], r):
            problems.append(f"{label}: row is for k={row['k']}, R={row['R']}")
            continue
        total = row["P_plus"] + row["P_minus"] + row["P_zero"]
        if not _close(total, 1.0):
            problems.append(f"{label}: P+ + P- + P0 = {total!r}")
        if k == 0 and r == 0.0 and not _close(row["P_zero"], 0.0):
            problems.append(f"{label}: P0 = {row['P_zero']!r} without loss")
        for name, want in zip(("P_plus", "P_minus", "P_zero", "V"), ref):
            if not _close(row[name], want):
                problems.append(f"{label}: {name} = {row[name]!r}, independent build gives {want!r}")
    return problems


# --------------------------------------------------------------------------
# attenuated high-gain regime
# --------------------------------------------------------------------------

HIGH_GAIN_WINDOW = (0.95, 1.05)


def _coherence(g: float, eta: float) -> float:
    return (1.0 - eta) * math.tanh(g)


def check_concurrence(g: float, eta: float, c: float) -> list[str]:
    """Single-survivor concurrence equals ``(1-t^2)/(1+3t^2)``; at ``g = 4``
    the part that grows with the surviving photons, ``(C - 1/<N>)/(eta/2)``,
    lies in the high-gain window."""
    label = f"concurrence g={g} eta={eta}"
    t2 = _coherence(g, eta) ** 2
    want = (1.0 - t2) / (1.0 + 3.0 * t2)
    problems = []
    if not _close(c, want):
        problems.append(f"{label}: C = {c!r}, closed form {want!r}")
    if g == 4.0:
        x = math.tanh(g) ** 2
        floor = (1.0 - x) / (1.0 + 3.0 * x)
        ratio = (c - floor) / (eta / 2.0)
        lo, hi = HIGH_GAIN_WINDOW
        if not lo <= ratio <= hi:
            problems.append(f"{label}: (C - 1/<N>)/(eta/2) = {ratio!r} outside [{lo}, {hi}]")
    return problems


def injection_concurrence(g: float, eta: float, p: float) -> float:
    """Closed-form concurrence at injection probability ``p``, with
    ``x = sinh^2(g) (1 - eta)``; zero at or below the critical injection."""
    t2 = _coherence(g, eta) ** 2
    x = math.sinh(g) ** 2 * (1.0 - eta)
    numerator = (1.0 - t2) * (p - (1.0 - p) * x)
    if numerator <= 0.0:
        return 0.0
    return numerator / (p * (1.0 + 3.0 * t2) + 2.0 * (1.0 - p) * x * (1.0 - t2))


def critical_injection(g: float, eta: float) -> float:
    x = math.sinh(g) ** 2 * (1.0 - eta)
    return x / (1.0 + x)


def check_injection(g: float, eta: float, p: float, c: float) -> list[str]:
    want = injection_concurrence(g, eta, p)
    if _close(c, want):
        return []
    return [f"injection g={g} eta={eta} p={p}: C = {c!r}, closed form {want!r}"]


def check_pcrit(g: float, eta: float, scanned: float) -> list[str]:
    want = critical_injection(g, eta)
    if _close(scanned, want, 1e-6):
        return []
    return [f"pcrit scan g={g} eta={eta}: {scanned!r}, closed form {want!r}"]
