"""The truncation-triangle route to the lossy fringe and the lossy
threshold-filter terms, kept as a test oracle.

The package reads both from the untruncated law of the thinned
photon-number difference (``qiopa.measurement._difference_law``).  This
module is the route it replaced: the populations of the truncated seed,
kept on the exact triangle ``n + m <= n_max`` and renormalized, thinned by
the dense binomial kernel and contracted in O(n_max^2).  It is exact on the
truncated state at any cutoff, so the dense-image and density-operator
oracles check it to rounding, and it checks the package's route to the
cutoff's tail.
"""

import numpy as np

from qiopa.amplifier import _checked_tail, _gated_pair_ladder, _macro_mode_populations
from qiopa.channels import _binomial_thinning_kernel


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
    a, b = _macro_mode_populations(gain, n_max)
    kernel = _binomial_thinning_kernel(n_max, eta)
    even = np.cumsum(kernel[:, 0 : 2 * a.size : 2] * b, axis=1)[:, ::-1] * a
    return thinned_imbalance(kernel[:, 1::2], even, k), float(a @ np.cumsum(b)[::-1])


def lossy_fringe_triangle(gain, loss, k, cutoff):
    """``(P+, P-, P0)`` of the lossy truncated seed, renormalized, after the
    seed's tail gate."""
    (p_plus, p_minus), mass = fringe_imbalance(gain, loss.eta, k, cutoff.n_max)
    _checked_tail(mass, gain, cutoff)
    p_plus, p_minus = p_plus / mass, p_minus / mass
    return p_plus, p_minus, max(0.0, 1.0 - p_plus - p_minus)


def visibility_triangle(gain, loss, k, cutoff):
    p_plus, p_minus, _ = lossy_fringe_triangle(gain, loss, k, cutoff)
    return (p_plus - p_minus) / (p_plus + p_minus)


def ofilter_terms_triangle(gain, loss, k, cutoff):
    """Threshold-filter terms ``P- - P+`` of the lossy truncated H-seed ladder
    (axis 1) and equatorial seed (axes 2 and 3), each renormalized."""
    n_max = cutoff.n_max
    c, mass = _gated_pair_ladder(gain, cutoff)
    # the ladder's columns: |n+1> seeded, T[s, n] = K[s, n] c_n^2
    kernel = _binomial_thinning_kernel(n_max, loss.eta)
    ladder = thinned_imbalance(kernel[:, 1 : c.size + 1], kernel[:, : c.size] * c**2, k)
    fringe, eq_mass = fringe_imbalance(gain, loss.eta, k, n_max)
    term_23 = (fringe[1] - fringe[0]) / eq_mass
    return ((ladder[1] - ladder[0]) / mass, term_23, term_23)
