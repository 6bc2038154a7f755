"""The truncation-triangle routes to the lossy witnesses and the lossy fringe,
kept as test oracles.

The package reads the fringe and the threshold-filter terms from the
untruncated law of the thinned photon-number difference
(``qiopa.measurement._difference_law``), and the pseudo-Pauli and spin
terms from their closed forms.  This module holds the routes they replaced:
the truncated seeds, kept on the exact triangle ``n + m <= n_max`` and
renormalized, thinned by the dense binomial kernel or by its square roots,
the single-mode loss amplitudes, and contracted in O(n_max^2); and the
spin terms as O(n_max) sums over the renormalized pair ladder.  Each is
exact on the truncated state at any cutoff, so the dense-image and
density-operator oracles check it to rounding, and it checks the package's
route to the cutoff's tail.
"""

import math

import numpy as np

from qiopa.amplifier import _checked_seeded_tail, seed_pair_amplitude
from qiopa.channels import _binomial_thinning_kernel, _loss_amplitudes


def pair_ladder(gain, cutoff):
    """Pair amplitudes ``c_n`` of the seeded ladders kept by ``cutoff`` and
    their mass ``sum c_n^2``, after the tail gate."""
    _checked_seeded_tail(gain, cutoff)
    c = seed_pair_amplitude(np.arange((cutoff.n_max - 1) // 2 + 1), gain)
    return c, float(np.sum(c**2))


def macro_mode_populations(gain, n_max):
    """Single-mode factors ``(a, b)`` of the amplified seed's populations in
    its own equatorial basis, ``|<2i+1, 2j|A>|^2 = a_i b_j`` for
    ``i, j <= (n_max-1)//2``:

    ``a_i = (2i+1)!/(i!)^2 (tanh g / 2)^(2i) / cosh^3 g`` on the seeded mode and
    ``b_j = (2j)!/(j!)^2 (tanh g / 2)^(2j) / cosh g`` on the orthogonal one, the
    photon statistics of a squeezed one-photon state and of a squeezed vacuum.
    Each factor is a whole distribution; the triangle ``2i+1 + 2j <= n_max`` is
    left to the caller.  Evaluated in the log domain over one ``log(k!)`` table.
    """
    idx = np.arange((n_max - 1) // 2 + 1)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(2 * idx.size)])
    x = gain.tanh_g / 2.0
    # log(x^(2i)), with 0^0 = 1 at zero gain
    log_pow = 2 * idx * math.log(x) if x > 0.0 else np.where(idx == 0, 0.0, -np.inf)
    log_cosh = math.log(gain.cosh_g)
    a = np.exp(log_pow + log_fact[2 * idx + 1] - 2.0 * log_fact[idx] - 3.0 * log_cosh)
    b = np.exp(log_pow + log_fact[2 * idx] - 2.0 * log_fact[idx] - log_cosh)
    return a, b


def thinned_imbalance(seeded, other, k):
    """``(P+, P-)`` from ``T = other`` and the tails ``U`` of the columns of
    ``seeded``, unnormalized; rows are thinned counts ``0 .. n_max``.  With
    ``s`` the thinned count of the other mode, ``P+ = sum T[s, i] U[s+k+1, i]``
    and ``P- = sum T[s, i] (1 - U[s-k, i])``."""
    # P+ pairs s with r >= s + k + 1, P- with r <= s - k - 1; none if k >= n_max
    span = max(seeded.shape[0] - 1 - k, 0)
    below = np.cumsum(seeded, axis=0)
    above = np.cumsum(seeded[::-1], axis=0)[::-1]  # U
    p_plus = float(np.einsum("si,si->", other[:span], above[k + 1 :]))
    p_minus = float(np.einsum("si,si->", other[k + 1 :], below[:span]))
    return p_plus, p_minus


def fringe_imbalance(gain, eta, k, n_max):
    """Unnormalized ``(P+, P-)`` of the equatorial seed on the triangle, and
    its mass.  Its populations on ``|2i+1, 2j>`` are ``a_i b_j``; with ``K``
    the thinning kernel, the even mode thinned under the triangle is
    ``T[s, i] = a_i sum_{j <= k_max-i} K[s, 2j] b_j``."""
    a, b = macro_mode_populations(gain, n_max)
    kernel = _binomial_thinning_kernel(n_max, eta)
    even = np.cumsum(kernel[:, 0 : 2 * a.size : 2] * b, axis=1)[:, ::-1] * a
    return thinned_imbalance(kernel[:, 1::2], even, k), float(a @ np.cumsum(b)[::-1])


def lossy_fringe_triangle(gain, loss, k, cutoff):
    """``(P+, P-, P0)`` of the lossy truncated seed, renormalized, after the
    seed's tail gate."""
    _checked_seeded_tail(gain, cutoff)
    (p_plus, p_minus), mass = fringe_imbalance(gain, loss.eta, k, cutoff.n_max)
    p_plus, p_minus = p_plus / mass, p_minus / mass
    return p_plus, p_minus, max(0.0, 1.0 - p_plus - p_minus)


def visibility_triangle(gain, loss, k, cutoff):
    p_plus, p_minus, _ = lossy_fringe_triangle(gain, loss, k, cutoff)
    return (p_plus - p_minus) / (p_plus + p_minus)


def ofilter_terms_triangle(gain, loss, k, cutoff):
    """Threshold-filter terms ``P- - P+`` of the lossy truncated H-seed ladder
    (axis 1) and equatorial seed (axes 2 and 3), each renormalized."""
    n_max = cutoff.n_max
    c, mass = pair_ladder(gain, cutoff)
    # the ladder's columns: |n+1> seeded, T[s, n] = K[s, n] c_n^2
    kernel = _binomial_thinning_kernel(n_max, loss.eta)
    ladder = thinned_imbalance(kernel[:, 1 : c.size + 1], kernel[:, : c.size] * c**2, k)
    fringe, eq_mass = fringe_imbalance(gain, loss.eta, k, n_max)
    term_23 = (fringe[1] - fringe[0]) / eq_mass
    return ((ladder[1] - ladder[0]) / mass, term_23, term_23)


def _shifted(x):
    """Square matrix ``S[p, n] = x[n - p]``, zero where ``n < p``."""
    lag = np.arange(x.size) - np.arange(x.size)[:, None]
    return np.where(lag >= 0, x[np.maximum(lag, 0)], 0.0)


def ladder_fidelities(c, k):
    """``F(H|H) = sum_p (sum_n c_{n-p} c_n k_p(n+1) k_p(n))^2`` and
    ``F(V|H) = sum_q (sum_n c_{n-1-q} c_n k_{q+2}(n+1) k_q(n))^2`` of the pair
    ladders ``sum c_n |n+1, n>`` (H) and ``sum c_n |n, n+1>`` (V), unnormalized,
    with ``k`` the single-mode loss amplitudes."""
    size = c.size
    below = _shifted(c)  # c_{n-p}
    same = np.einsum("pn,n,pn,pn->p", below, c, k[:size, 1 : size + 1], k[:size, :size])
    # summed over n - 1, so that below[q, n - 1] = c_{n-1-q}
    cross = np.einsum(
        "qn,n,qn,qn->q",
        below[:-1, :-1], c[1:], k[2 : size + 1, 2 : size + 1], k[: size - 1, 1:size],
    )
    return float(same @ same), float(cross @ cross)


def sigma_terms_triangle(gain, loss, cutoff):
    """Pseudo-Pauli terms of the lossy truncated singlet, after the tail gate:
    ``F(V|H) - F(H|H)`` on axis 1 and ``-F(H|H)`` on axes 2 and 3, the
    fidelities of the truncated pair ladders renormalized.  On the equatorial
    axes loss keeps the photon-number difference, so only the charge-balanced
    cross fidelity ``<A_H| L(|A_H><A_V|) |A_V> = F(H|H)`` survives."""
    c, mass = pair_ladder(gain, cutoff)
    same, cross = ladder_fidelities(c, _loss_amplitudes(cutoff.n_max, loss.eta))
    return ((cross - same) / mass**2, -same / mass**2, -same / mass**2)


def spin_terms_ladder(gain, loss, cutoff):
    """Spin-criterion terms, ``<N>`` and value of the lossy truncated singlet
    ``(|H>|A_V> - |V>|A_H>)/sqrt(2)`` on the renormalized pair ladders, after
    the tail gate.  With ``w_n = c_n^2 / mass``, ``J_1`` gives -1, ``J_2`` and
    ``J_3`` give ``-sum w_n (n+1)``, ``<N> = sum w_n (2n+1)``, and loss scales
    each by ``eta``; the value is ``eta (|sum terms| - <N>)``."""
    c, mass = pair_ladder(gain, cutoff)
    weights = c**2 / mass
    rungs = np.arange(c.size)
    hop = -float(weights @ (rungs + 1.0))
    mean_n = float(weights @ (2.0 * rungs + 1.0))
    lossless = (-1.0, hop, hop)
    terms = tuple(loss.eta * t for t in lossless)
    return terms, loss.eta * mean_n, loss.eta * (abs(sum(lossless)) - mean_n)
