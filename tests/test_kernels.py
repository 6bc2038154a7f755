"""Array kernels of the amplitude layer against their per-element loops.

The loops below are the straightforward per-amplitude and per-pattern
versions of the amplifier ladders, of ``required_cutoff`` and of the
single-survivor conditioning.  They are kept here only as reference
oracles: the package builds the same objects from index arrays, and these
tests require the two to agree.  More oracles stand beside them: the
binomial expansion of a sector rotation, against the exponentiated
Schwinger generator that the package uses; the singlet built directly
from its equatorial ladders, against the rotated (H, V) construction; and
the lossy pseudo-Pauli and threshold-filter terms contracted from dense
Kraus images, built one Kraus operator and source state at a time, and the
pseudo-Pauli terms contracted from the package's Kraus images, against the
truncation-triangle routes of ``triangle_oracle``; the lossy fringe thinned
as a dense population matrix, against the same routes, which in turn check
the package's closed form of the pseudo-Pauli terms and its law of the
thinned difference to the cutoff's tail; the binomial thinning kernel
filled column by column, against its one-shot fill; the conditioning cutoff
summed term by term, against its closed-form tail; and the vector code of
the era when a vector was a ``(n, m) -> amplitude`` map (dense scatter,
dense gather, single-survivor block), against the array storage.
"""

import cmath
import itertools
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qiopa import (
    Cutoff,
    CutoffError,
    GainParams,
    LossParams,
    PolarizationBasis,
    TwoModeVector,
    amplified_vacuum,
    conditioning_cutoff,
    micro_macro_state,
    micro_macro_state_hv,
    required_cutoff,
    rotate_basis,
)
from qiopa.amplifier import (
    _checked_tail,
    _hv_macro_vector_unchecked,
    _macro_ladder,
    _macro_vector_unchecked,
    pair_ladder_tail,
)
from qiopa.channels import (
    _binomial_thinning_kernel,
    _conditional_tail_fraction,
    _conditioned_block,
    coherence_parameter,
    loss_kraus_images,
)
from qiopa.fock import (
    DROP_THRESHOLD,
    _MAX_CUTOFF,
    _flat_index,
    _sector_matrix,
    _sector_rotation,
    fock_space,
    rotate_dense,
    transfer_matrix,
)
from qiopa.measurement import (
    _difference_law,
    lossy_fringe_probabilities,
    pauli_matrix,
    sigma_operator,
    threshold_povm,
)
from qiopa.witnesses import ofilter_witness_lossy, sigma_witness_lossy, simon_spin_witness_lossy

from triangle_oracle import (
    lossy_fringe_triangle,
    macro_mode_populations,
    ofilter_terms_triangle,
    sigma_terms_triangle,
)

HV = PolarizationBasis.hv()
# a budget loose enough that any cutoff passes the tail gate
ANY_TAIL = 1.0 - 1e-12
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# the properties that reach 500-photon sectors take one 501 x 501 eigh per example
LARGE_SECTOR_PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)

# Gains from 0.05 up keep every ladder amplitude up to 200 photons a normal
# float, so the comparison never meets underflow residue; g = 0 is exact.
gains = st.one_of(st.just(0.0), st.floats(0.05, 4.0))


# --------------------------------------------------------------------------
# reference loops
# --------------------------------------------------------------------------

def macro_vector_loop(phi, gain, n_max):
    inv_c2 = 1.0 / gain.cosh_g**2
    amps = {}
    k_max = (n_max - 1) // 2
    for i in range(k_max + 1):
        for j in range(k_max - i + 1):
            if gain.g == 0.0:
                amp = 1.0 + 0.0j if (i, j) == (0, 0) else 0.0j
            else:
                log_mod = (i + j) * math.log(gain.tanh_g / 2.0) + 0.5 * (
                    math.lgamma(2 * i + 2) + math.lgamma(2 * j + 1)
                ) - math.lgamma(i + 1) - math.lgamma(j + 1)
                sign = -1.0 if j % 2 else 1.0
                amp = sign * math.exp(log_mod) * np.exp(-1j * (i + j) * phi)
            amp *= inv_c2
            if abs(amp) == 0.0:
                continue
            amps[(2 * i + 1, 2 * j)] = amp
    return amps


def seed_ladder_loop(seed, gain, n_max):
    amps = {}
    for n in range((n_max - 1) // 2 + 1):
        c = 1.0 if n == 0 else 0.0
        if gain.g != 0.0:
            c = gain.tanh_g**n * math.sqrt(n + 1.0) / gain.cosh_g**2
        if c == 0.0:
            continue
        key = (n + 1, n) if seed == "H" else (n, n + 1)
        amps[key] = complex(c)
    return amps


def vacuum_ladder_loop(gain, n_max):
    inv_c = 1.0 / gain.cosh_g
    return {(n, n): complex(inv_c * gain.tanh_g**n) for n in range(n_max // 2 + 1)}


def required_cutoff_scan(gain, tail_tolerance, chunk=1 << 14):
    """The first pair count whose tail is below the tolerance, as a cutoff,
    by evaluating the tail at every pair count in turn: in numpy chunks, as
    ``x^start x^(j+1) ((2 - x) + (start + j)(1 - x))``, which may differ
    from the scalar tail in its last digits, then with ``pair_ladder_tail``
    from the first count the chunks find."""
    if gain.g == 0.0:
        return 1
    x = gain.tanh_g**2
    j = np.arange(chunk, dtype=float)
    powers, factors = x ** (j + 1.0), (2.0 - x) + (1.0 - x) * j
    for start in itertools.count(0, chunk):
        tails = x**start * powers * (factors + (1.0 - x) * start)
        below = np.flatnonzero(tails < tail_tolerance)
        if below.size:
            break
    p = start + int(below[0])
    while p > 0 and pair_ladder_tail(p - 1, gain) < tail_tolerance:
        p -= 1
    while pair_ladder_tail(p, gain) >= tail_tolerance:
        p += 1
    return 2 * p + 1


def conditioned_block_loop(ensemble, loss):
    eta, r = loss.eta, loss.R
    sqrt_eta = math.sqrt(eta)
    rho = np.zeros((4, 4), dtype=complex)
    for weight, comps in ensemble:
        bucket = defaultdict(lambda: np.zeros((2, 2), dtype=complex))
        for s, comp in enumerate(comps):
            for (n, m), c in comp.amplitudes.items():
                if n >= 1:
                    amp = c * math.sqrt(n) * r ** (0.5 * (n - 1 + m)) * sqrt_eta
                    if amp != 0.0:
                        bucket[(n - 1, m)][s, 0] += amp
                if m >= 1:
                    amp = c * math.sqrt(m) * r ** (0.5 * (n + m - 1)) * sqrt_eta
                    if amp != 0.0:
                        bucket[(n, m - 1)][s, 1] += amp
        for block in bucket.values():
            v = block.reshape(4)
            rho += weight * np.outer(v, v.conj())
    return rho, float(np.trace(rho).real)


def binomial_sector_matrix(total, transfer):
    """Rotation block on the sector of ``total`` photons by binomial expansion.

    ``R[p, n]`` is the amplitude ``<p, total - p|n, total - n>`` between
    destination and source basis states, obtained by expanding
    ``(b1^dag)^n (b2^dag)^m |vac>`` in destination-mode creation operators.
    Exact in exact arithmetic, it cancels catastrophically in floating point
    (unitarity defect 2e-2 at 100 photons), so it serves only up to 20.
    """
    t00, t01 = transfer[0]
    t10, t11 = transfer[1]
    size = total + 1
    mods = np.abs(transfer)

    # Pure mode permutation or pure per-mode phase: exact closed forms.
    off_diag = mods[0, 0] < 1e-15 and mods[1, 1] < 1e-15
    diag = mods[0, 1] < 1e-15 and mods[1, 0] < 1e-15
    ns = np.arange(size)
    ms = total - ns
    if diag:
        return np.diag(t00 ** ns * t11 ** ms)
    if off_diag:
        r = np.zeros((size, size), dtype=complex)
        r[total - ns, ns] = t01 ** ns * t10 ** ms
        return r

    logf = np.array([math.lgamma(k + 1) for k in range(size)])
    r = np.empty((size, size), dtype=complex)
    for n in range(size):
        m = total - n
        # Coefficient polynomial of (t00 z + t01)^n (t10 z + t11)^m in z.
        a = np.array([math.comb(n, k) for k in range(n + 1)], dtype=complex)
        a *= t00 ** np.arange(n + 1) * t01 ** (n - np.arange(n + 1))
        b = np.array([math.comb(m, k) for k in range(m + 1)], dtype=complex)
        b *= t10 ** np.arange(m + 1) * t11 ** (m - np.arange(m + 1))
        conv = np.convolve(a, b)  # length total + 1, index p
        pref = np.exp(0.5 * (logf + logf[::-1] - logf[n] - logf[m]))
        r[:, n] = conv * pref
    return r


def equatorial_singlet_ladders(phi, gain, n_max):
    """Dense ``(2, dim)`` amplified singlet in ``equatorial(phi)``, built
    from the two equatorial seed ladders: the micro state along ``phi``
    multiplies the seed at ``phi + pi`` (its modes swapped into this basis),
    the orthogonal micro state minus the seed at ``phi``."""
    space = fock_space(n_max)
    plus = macro_vector_loop(phi, gain, n_max)
    minus = macro_vector_loop(phi + math.pi, gain, n_max)
    scale = 1.0 / math.sqrt(2.0 * sum(abs(a) ** 2 for a in plus.values()))
    out = np.zeros((2, space.dim), dtype=complex)
    for (n, m), amp in minus.items():
        out[0, space.index(m, n)] = amp * scale
    for (n, m), amp in plus.items():
        out[1, space.index(n, m)] = -amp * scale
    return out


def kraus_images_loop(state, eta):
    """Dense ``(n_kraus, 2, dim)`` Kraus images ``K_pq |psi_s>`` of a joint
    state, one Kraus operator and source state at a time from the closed
    form ``sqrt(C(n,p) C(m,q)) (1-eta)^((p+q)/2) eta^((n+m-p-q)/2)``."""
    space = fock_space(state.cutoff)
    vectors = state.dense(space)
    out = np.zeros((space.dim, 2, space.dim), dtype=complex)
    for kraus, (p, q) in enumerate(zip(space.n.tolist(), space.m.tolist())):
        for src, (n, m) in enumerate(zip(space.n.tolist(), space.m.tolist())):
            if n >= p and m >= q:
                c = math.sqrt(math.comb(n, p) * math.comb(m, q))
                c *= (1.0 - eta) ** (0.5 * (p + q)) * eta ** (0.5 * (n + m - p - q))
                out[kraus, :, space.index(n - p, m - q)] = c * vectors[:, src]
    return out


def sigma_terms_from_images(state, images):
    """Lossy pseudo-Pauli terms contracted from dense Kraus images."""

    def projected_correlation(vec, sig):
        x = np.einsum("ksd,d->ks", images, vec.conj())
        return float(np.einsum("ks,st,kt->", x.conj(), sig, x).real)

    terms = []
    for axis in (1, 2, 3):
        op = sigma_operator(axis, state.gain, state.cutoff, basis=state.basis)
        sig = pauli_matrix(axis, state.basis)
        terms.append(
            projected_correlation(op.plus_vector, sig)
            - projected_correlation(op.minus_vector, sig)
        )
    return terms


def sigma_terms_from_kraus_images(state, loss):
    """Lossy pseudo-Pauli terms from the overlaps ``<v|K_k|psi_s>`` of the
    Kraus images of both micro components with the six pseudo-Pauli vectors
    ``v``, in the state's basis (the package's route before the lossy
    fidelities)."""
    ops = [sigma_operator(axis, state.gain, state.cutoff, basis=state.basis) for axis in (1, 2, 3)]
    vectors = np.stack([v for op in ops for v in (op.plus_vector, op.minus_vector)], axis=1)
    x = np.einsum("ksd,dj->skj", loss_kraus_images(state, loss), vectors.conj())
    sigs = np.repeat([pauli_matrix(axis, state.basis) for axis in (1, 2, 3)], 2, axis=0)
    corr = np.einsum("skj,jst,tkj->j", x.conj(), sigs, x).real
    return corr[0::2] - corr[1::2]


def ofilter_terms_from_images(state, images, k):
    """Lossy threshold-filter terms from dense Kraus images rotated, micro
    and macro arm, into each axis basis."""
    space = fock_space(state.cutoff)
    terms = []
    for axis in (1, 2, 3):
        basis = PolarizationBasis.canonical(axis)
        povm = threshold_povm(basis, k, state.cutoff)
        rot = rotate_dense(space, images, state.basis, basis, axis=2)
        t = transfer_matrix(state.basis, basis)
        rot = np.einsum("sp,ksd->kpd", t, rot)
        weights = np.abs(rot) ** 2
        per_micro = weights @ povm.difference_diagonal()
        terms.append(float(per_micro[:, 0].sum() - per_micro[:, 1].sum()))
    return terms


def fringe_from_population_matrix(phi, gain, loss, k, cutoff):
    """Lossy fringe ``(P+, P-, P0)`` from the dense ``(n_max+1)^2`` population
    matrix of the truncated amplified seed, thinned as ``K Q K^T`` and summed
    over the two conclusive regions."""
    n_max = cutoff.n_max
    n, m, amps = _macro_ladder(phi, gain, n_max)
    q = np.zeros((n_max + 1, n_max + 1))
    q[n, m] = np.abs(amps) ** 2
    mass = q.sum()
    _checked_tail(1.0 - mass, gain, cutoff)  # the summed tail, not the package's closed form
    q /= mass
    kernel = _binomial_thinning_kernel(n_max, loss.eta)
    q = kernel @ q @ kernel.T
    a = np.arange(n_max + 1)
    diff = a[:, None] - a[None, :]
    p_plus = float(q[diff > k].sum())
    p_minus = float(q[-diff > k].sum())
    return p_plus, p_minus, max(0.0, 1.0 - p_plus - p_minus)


def binomial_kernel_loop(n_max, eta):
    """Thinning kernel ``K[a, n] = C(n, a) eta^a (1-eta)^(n-a)`` filled one
    column at a time."""
    size = n_max + 1
    log_fact = np.array([math.lgamma(k + 1) for k in range(size)])
    kernel = np.zeros((size, size))
    for n in range(size):
        a = np.arange(n + 1)
        log_c = log_fact[n] - log_fact[a] - log_fact[n - a]
        kernel[: n + 1, n] = np.exp(log_c) * np.power(eta, a) * np.power(1.0 - eta, n - a)
    return kernel


def conditioning_cutoff_loop(gain, loss, tol=1e-8):
    """``conditioning_cutoff`` by summing the heaviest conditional series
    ``sum_p (p+1)(p+2) t^(2p)`` term by term until the remainder ``full -
    partial`` falls two orders below ``tol``.  The cutoff stops there, not at
    the raw photon-number tail; its stated tolerance is twice the closed-form
    mass it drops, at most halfway to one and at least ``tol``."""
    x = coherence_parameter(gain, loss) ** 2
    n_max = 3
    if x > 0.0:
        full = 2.0 / (1.0 - x) ** 3
        partial = 0.0
        p = 0
        while (full - partial) / full >= 0.01 * tol:
            partial += (p + 1) * (p + 2) * x**p
            p += 1
            if p > 100_000:
                raise CutoffError(f"conditional series does not converge to {tol} at t^2={x}")
        n_max = 2 * p + 3
    dropped = pair_ladder_tail((n_max - 1) // 2, gain)
    return Cutoff(n_max, max(tol, min(2.0 * dropped, 0.5 * (1.0 + dropped))))


def dense_from_map(amplitudes, space):
    """Dense vector scattered one ``(n, m) -> amplitude`` entry at a time."""
    out = np.zeros(space.dim, dtype=complex)
    for (n, m), amp in amplitudes.items():
        out[space.index(n, m)] = amp
    return out


def map_from_dense(vec, cutoff):
    """``(n, m) -> amplitude`` map of the dense entries above the drop threshold."""
    space = fock_space(cutoff)
    return {
        (int(space.n[i]), int(space.m[i])): complex(vec[i])
        for i in np.flatnonzero(np.abs(vec) > DROP_THRESHOLD)
    }


def conditioned_block_dict(ensemble, loss):
    """Single-survivor block with each component's pairs and amplitudes read
    back from its ``(n, m) -> amplitude`` map.  Every lost-photon pattern
    gets an integer key and one row of a ``(patterns, 4)`` matrix ``V``; the
    block is ``V^T V^*``.  The package sums the same block as overlaps of the
    components, sorted by flat index, shifted by -1, 0 and +1, and forms no
    key."""
    sqrt_eta = math.sqrt(loss.eta)
    rho = np.zeros((4, 4), dtype=complex)
    for weight, comps in ensemble:
        stride = max(comp.cutoff for comp in comps) + 1
        keys, cols, amps = [], [], []
        for s, comp in enumerate(comps):
            nm = np.array(list(comp.amplitudes), dtype=np.int64).reshape(-1, 2)
            c = np.fromiter(comp.amplitudes.values(), dtype=complex, count=len(nm))
            for q in (0, 1):
                hit = nm[:, q] >= 1
                lost = nm[hit]
                lost[:, q] -= 1
                decay = np.power(loss.R, 0.5 * lost.sum(axis=1))
                amps.append(c[hit] * np.sqrt(nm[hit, q]) * decay * sqrt_eta)
                keys.append(lost[:, 0] * stride + lost[:, 1])
                cols.append(np.full(len(lost), 2 * s + q))
        patterns, rows = np.unique(np.concatenate(keys), return_inverse=True)
        v = np.zeros((patterns.size, 4), dtype=complex)
        v[rows, np.concatenate(cols)] = np.concatenate(amps)
        rho += weight * (v.T @ v.conj())
    return rho, float(np.trace(rho).real)


# --------------------------------------------------------------------------
# ladders
# --------------------------------------------------------------------------

def assert_same_ladder(new, reference, rtol=1e-14):
    """Same keys as the reference's nonzero entries, values to ``rtol``."""
    nonzero = {k: v for k, v in reference.items() if v != 0.0}
    assert set(new) == set(nonzero)
    for key, want in nonzero.items():
        assert abs(new[key] - want) <= rtol * abs(want), key


@PROPERTY
@given(gains, st.floats(0.0, 2.0 * math.pi), st.integers(1, 200))
def test_macro_ladder_matches_loop(g, phi, n_max):
    gain = GainParams(g)
    state = _macro_vector_unchecked(phi, gain, n_max)
    assert_same_ladder(state.amplitudes, macro_vector_loop(phi, gain, n_max))


@PROPERTY
@given(gains, st.sampled_from("HV"), st.integers(1, 200))
def test_seed_ladder_matches_loop(g, seed, n_max):
    gain = GainParams(g)
    state = _hv_macro_vector_unchecked(seed, gain, n_max)
    assert_same_ladder(state.amplitudes, seed_ladder_loop(seed, gain, n_max))


@PROPERTY
@given(gains, st.integers(1, 200))
def test_vacuum_ladder_matches_loop(g, n_max):
    gain = GainParams(g)
    state = amplified_vacuum(gain, Cutoff(n_max, ANY_TAIL))
    assert_same_ladder(state.amplitudes, vacuum_ladder_loop(gain, n_max))


def test_vacuum_ladder_leaves_out_exact_zeros():
    # the loop stores (n, n): 0 for every n >= 1 at g = 0; the kernel keeps
    # the map sparse, as TwoModeVector documents
    state = amplified_vacuum(GainParams(0.0), Cutoff(8, 0.5))
    assert state.amplitudes == {(0, 0): 1.0}


@pytest.mark.parametrize(
    "build, loop",
    [
        (lambda: _macro_vector_unchecked(0.3, GainParams(1.8), 481),
         lambda: macro_vector_loop(0.3, GainParams(1.8), 481)),
        (lambda: _hv_macro_vector_unchecked("V", GainParams(4.0), 37809),
         lambda: seed_ladder_loop("V", GainParams(4.0), 37809)),
        (lambda: amplified_vacuum(GainParams(4.0), Cutoff(37809, 1e-8)),
         lambda: vacuum_ladder_loop(GainParams(4.0), 37809)),
    ],
    ids=["macro-g1.8-n481", "seed-g4-n37809", "vacuum-g4-n37809"],
)
def test_ladders_match_loops_at_benchmark_cutoffs(build, loop):
    assert_same_ladder(build().amplitudes, loop())


# --------------------------------------------------------------------------
# required_cutoff
# --------------------------------------------------------------------------

def assert_same_cutoff(gain, tol):
    assert required_cutoff(gain, tol) == required_cutoff_scan(gain, tol)


@pytest.mark.parametrize("g", [0.0, 0.01, 0.3, 1.0, 1.8, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0])
@pytest.mark.parametrize("tol", [0.5, 1e-2, 1e-6, 1e-9, 1e-12, 1e-15])
def test_required_cutoff_matches_scan_on_grid(g, tol):
    # g = 5 is the cited experiment's gain (<N> = 22,025, cutoff 263,653 at
    # tol 1e-9); g = 6 and 8 need cutoffs from 136,579 to 169,758,691 photons
    assert_same_cutoff(GainParams(g), tol)


@PROPERTY
@given(st.floats(0.0, 8.0), st.floats(1e-16, 0.5))
def test_required_cutoff_matches_scan(g, tol):
    assert_same_cutoff(GainParams(g), tol)


def test_required_cutoff_raises_at_the_flat_index_limit():
    # tanh(20) rounds to 1, so the tail is 1 at every pair count
    with pytest.raises(CutoffError, match=f"no cutoff reaches tail 1e-09 at g=20.0 below cutoff {_MAX_CUTOFF}"):
        required_cutoff(GainParams(20.0), 1e-9)


@PROPERTY
@given(st.floats(0.1, 4.5), st.floats(1e-13, 1e-3))
@example(g=4.0, tol=1e-12)
@example(g=3.5, tol=1e-12)
def test_tail_gate_passes_at_the_required_cutoff_and_raises_below(g, tol):
    # the gate and the cutoff rule read one closed-form tail, so the rule's
    # own cutoff always passes and the next odd cutoff below never does
    gain, n_max = GainParams(g), required_cutoff(GainParams(g), tol)
    assume(n_max - 2 >= 1)
    for witness in (sigma_witness_lossy, simon_spin_witness_lossy):
        witness(gain, LossParams(1.0), Cutoff(n_max, tol))
        with pytest.raises(CutoffError) as caught:
            witness(gain, LossParams(1.0), Cutoff(n_max - 2, tol))
        assert caught.value.tail_mass >= tol


# --------------------------------------------------------------------------
# single-survivor conditioning
# --------------------------------------------------------------------------

def injection_ensemble(p, gain, n_max):
    """The ensemble that ``attenuated_injection_pipeline`` conditions."""
    cutoff = Cutoff(n_max, ANY_TAIL)
    singlet = micro_macro_state_hv(gain, cutoff)
    vac = amplified_vacuum(gain, cutoff)
    zero = TwoModeVector.from_amplitudes({}, n_max, HV)
    return [
        (p * (1.0 - pair_ladder_tail((n_max - 1) // 2, gain)), singlet.components),
        ((1.0 - p) / 2.0, (vac, zero)),
        ((1.0 - p) / 2.0, (zero, vac)),
    ]


def assert_same_block(ensemble, loss, rtol=1e-12):
    rho, prob = _conditioned_block(ensemble, loss)
    want_rho, want_prob = conditioned_block_loop(ensemble, loss)
    assert np.linalg.norm(rho - want_rho) <= rtol * np.linalg.norm(want_rho)
    assert abs(prob - want_prob) <= rtol * want_prob


@PROPERTY
@given(
    gains,
    st.floats(1e-9, 1.0),
    st.floats(0.0, 1.0),
    st.integers(1, 400),
)
@example(g=4.0, eta=1.0, p=1.0, n_max=41)  # R = 0: only 0^0 terms survive
@example(g=0.0, eta=0.5, p=0.3, n_max=3)
@example(g=0.0, eta=1.0, p=0.0, n_max=1)
def test_conditioning_matches_loop(g, eta, p, n_max):
    assert_same_block(injection_ensemble(p, GainParams(g), n_max), LossParams(eta))


amplitude_maps = st.dictionaries(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda nm: sum(nm) <= 12),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    max_size=24,
)


@PROPERTY
@given(
    st.lists(st.tuples(st.floats(0.0, 1.0), amplitude_maps, amplitude_maps), min_size=1, max_size=3),
    st.floats(1e-9, 1.0),
)
@example(members=[(1.0, {(1, 0): 1.0}, {})], eta=0.5)  # micro H, one macro photon
def test_conditioning_matches_loop_on_arbitrary_members(members, eta):
    # arbitrary components reach one lost-photon pattern from several Fock
    # states of both components, and need not be symmetric under the
    # exchange of the two qubits
    ensemble = []
    for weight, first, second in members:
        norm = math.sqrt(sum(abs(a) ** 2 for a in [*first.values(), *second.values()])) or 1.0
        comps = tuple(TwoModeVector.from_amplitudes({k: a / norm for k, a in c.items()}, 12, HV) for c in (first, second))
        ensemble.append((weight, comps))
    assert_same_block(ensemble, LossParams(eta))


def test_conditioning_matches_loop_at_the_largest_benchmark_cutoff():
    gain, loss = GainParams(4.0), LossParams(1e-4)
    assert_same_block(injection_ensemble(0.9995, gain, 37809), loss)


def vacuum_member_weight(gain, loss, n_max):
    """``x`` of the vacuum members' blocks ``diag(x, x, 0, 0)`` and
    ``diag(0, 0, x, x)``: ``eta R tanh^2 g / cosh^2 g`` times the finite
    geometric sum ``sum_{n=1}^{N} n y^(n-1)``, ``y = (R tanh g)^2`` and
    ``N = n_max // 2`` pairs."""
    y, big_n = coherence_parameter(gain, loss) ** 2, n_max // 2
    series = (1.0 - (big_n + 1) * y**big_n + big_n * y ** (big_n + 1)) / (1.0 - y) ** 2
    return loss.eta * loss.R * gain.tanh_g**2 / gain.cosh_g**2 * series


@pytest.mark.parametrize(
    "g,eta,n_max", [(4.0, 1e-3, 17439), (4.0, 1e-2, 2721), (2.0, 0.5, 41), (1.0, 0.9, 9), (1.0, 1.0, 9), (0.0, 0.3, 5)]
)
def test_vacuum_members_give_their_diagonal_closed_form(g, eta, n_max):
    gain, loss = GainParams(g), LossParams(eta)
    vac = amplified_vacuum(gain, Cutoff(n_max, ANY_TAIL))
    zero = TwoModeVector.from_amplitudes({}, n_max, HV)
    x = vacuum_member_weight(gain, loss, n_max)
    for members, diagonal in (([(vac, zero)], [x, x, 0, 0]), ([(zero, vac)], [0, 0, x, x]),
                              ([(vac, zero), (zero, vac)], [x, x, x, x])):
        rho, prob = _conditioned_block([(1.0, comps) for comps in members], loss)
        assert np.max(np.abs(rho - np.diag(diagonal))) <= 1e-13 * max(x, 1e-300)
        assert prob == pytest.approx(sum(diagonal), rel=1e-13, abs=0.0)


def reversed_vector(vec):
    """The same vector with its entries stored in descending flat order."""
    return TwoModeVector(vec.n[::-1], vec.m[::-1], vec.amps[::-1], vec.cutoff, vec.basis)


def test_conditioning_ignores_entry_order_at_the_largest_benchmark_cutoff():
    # the shuffled ensembles reach cutoff 12 only; the ladders are stored in
    # ascending order, so reversed storage makes the sort reorder every entry
    loss = LossParams(1e-4)
    comps = micro_macro_state_hv(GainParams(4.0), Cutoff(37809, ANY_TAIL)).components
    rho, prob = _conditioned_block([(1.0, comps)], loss)
    rho_rev, prob_rev = _conditioned_block([(1.0, tuple(map(reversed_vector, comps)))], loss)
    assert np.max(np.abs(rho_rev - rho)) <= 1e-13
    assert abs(prob_rev - prob) <= 1e-13


def test_conditioning_at_eta_1_raises_no_floating_point_warning():
    # R = 0 and a |0, 0> vacuum entry: no 0^(-1/2), 0 * inf or 0 / 0
    ensemble = injection_ensemble(0.7, GainParams(4.0), 41)
    with np.errstate(all="raise"):
        rho, prob = _conditioned_block(ensemble, LossParams(1.0))
    assert np.all(np.isfinite(rho)) and prob > 0.0


def test_conditioning_ignores_a_global_phase_at_the_largest_benchmark_cutoff():
    # the ladders are real and take the real path; the phase sends both
    # components down the complex one
    loss = LossParams(1e-4)
    comps = micro_macro_state_hv(GainParams(4.0), Cutoff(37809, ANY_TAIL)).components
    turned = tuple(c.scaled(cmath.exp(0.7j)) for c in comps)
    assert not any(c.amps.imag.any() for c in comps) and all(c.amps.imag.any() for c in turned)
    rho, prob = _conditioned_block([(1.0, comps)], loss)
    rho_turned, prob_turned = _conditioned_block([(1.0, turned)], loss)
    assert np.max(np.abs(rho_turned - rho)) <= 1e-13
    assert abs(prob_turned - prob) <= 1e-13


@pytest.mark.parametrize("eta", [1e-3, 0.4, 1.0])
def test_conditioning_mixes_a_real_and_a_complex_component(eta):
    # one component real, the other turned by a phase: the coherences between
    # the two halves of the block turn with it, the rest stays
    loss, phase = LossParams(eta), cmath.exp(1.1j)
    real, other = micro_macro_state_hv(GainParams(2.0), Cutoff(41, ANY_TAIL)).components
    ensemble = [(1.0, (real, other.scaled(phase)))]
    assert_same_block(ensemble, loss)
    with np.errstate(all="raise"):
        rho, _ = _conditioned_block(ensemble, loss)
    plain, _ = _conditioned_block([(1.0, (real, other))], loss)
    plain[:2, 2:] *= phase.conjugate()
    plain[2:, :2] *= phase
    assert np.max(np.abs(rho - plain)) <= 1e-15


def shuffled_vector(amplitudes, order, cutoff):
    """Vector whose arrays list the map's entries in the given order."""
    keys = list(amplitudes)
    nm = np.array([keys[i] for i in order], dtype=np.int64).reshape(-1, 2)
    amps = np.array([amplitudes[keys[i]] for i in order], dtype=complex)
    return TwoModeVector(nm[:, 0], nm[:, 1], amps, cutoff, HV)


@st.composite
def normalized_maps(draw, cutoff=12):
    """Up to 24 amplitudes on ``n + m <= cutoff`` with squared sum at most one."""
    pairs = st.tuples(st.integers(0, cutoff), st.integers(0, cutoff)).filter(lambda nm: sum(nm) <= cutoff)
    amps = draw(st.dictionaries(
        pairs, st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False), max_size=24,
    ))
    return unit_ball(amps)


def unit_ball(amps):
    """The map scaled to a squared sum of one (or left empty or zero).  It is
    divided by its largest magnitude first: a subnormal amplitude squares to
    a subnormal that has lost its precision, so dividing by the root of such
    a square could give a map with squared sum above one."""
    scale = max((abs(a) for a in amps.values()), default=0.0) or 1.0
    amps = {k: a / scale for k, a in amps.items()}
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values())) or 1.0
    return {k: a / norm for k, a in amps.items()}


@pytest.mark.parametrize("amplitude", [3.3e-162, 3.3e-162j, 1e-320, 0.0, 0.6 + 0.8j])
def test_unit_ball_keeps_subnormal_maps_inside(amplitude):
    # 3.3e-162 squares to 1.09e-323, which rounds to 0.99e-323, two units of
    # the smallest subnormal; dividing by the root alone gave 1.05
    amps = unit_ball({(0, 0): amplitude, (1, 0): amplitude / 3})
    assert sum(abs(a) ** 2 for a in amps.values()) <= 1.0 + 1e-15
    TwoModeVector.from_amplitudes(amps, 12, HV)


@st.composite
def conditioning_ensembles(draw):
    """Ensembles of three kinds: arbitrary supports stored in a random entry
    order, the amplified singlet rotated into a random equatorial basis, and
    the imperfect-injection ensemble."""
    kind = draw(st.sampled_from(["shuffled", "rotated", "injection"]))
    gain = GainParams(draw(gains))
    n_max = draw(st.integers(1, 40))
    if kind == "injection":
        return injection_ensemble(draw(st.floats(0.0, 1.0)), gain, n_max)
    if kind == "rotated":
        phi = draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
        return [(1.0, micro_macro_state(phi, gain, Cutoff(n_max, ANY_TAIL)).components)]
    ensemble = []
    for _ in range(draw(st.integers(1, 3))):
        weight = draw(st.floats(0.0, 1.0))
        comps = []
        for amps in (draw(normalized_maps()), draw(normalized_maps())):
            order = draw(st.permutations(range(len(amps))))
            comps.append(shuffled_vector({k: a / math.sqrt(2.0) for k, a in amps.items()}, order, 12))
        ensemble.append((weight, tuple(comps)))
    return ensemble


@PROPERTY
@given(conditioning_ensembles(), st.floats(1e-9, 1.0))
@example(ensemble=injection_ensemble(0.7, GainParams(4.0), 41), eta=1.0)
def test_conditioning_matches_dict_oracle(ensemble, eta):
    loss = LossParams(eta)
    rho, prob = _conditioned_block(ensemble, loss)
    want_rho, want_prob = conditioned_block_dict(ensemble, loss)
    assert np.max(np.abs(rho - want_rho)) <= 1e-13
    assert abs(prob - want_prob) <= 1e-13


@PROPERTY
@given(conditioning_ensembles(), st.floats(1e-9, 1.0), st.floats(0.0, 2.0 * math.pi))
def test_conditioning_ignores_a_global_phase(ensemble, eta, theta):
    loss, phase = LossParams(eta), cmath.exp(1j * theta)
    rho, prob = _conditioned_block(ensemble, loss)
    turned = [(weight, tuple(c.scaled(phase) for c in comps)) for weight, comps in ensemble]
    rho_turned, prob_turned = _conditioned_block(turned, loss)
    assert np.max(np.abs(rho_turned - rho)) <= 1e-13
    assert abs(prob_turned - prob) <= 1e-13


# --------------------------------------------------------------------------
# sector rotations
# --------------------------------------------------------------------------

def u2(alpha, theta, psi, chi):
    """``e^{i alpha} [[e^{i psi} cos t, e^{i chi} sin t], [-e^{-i chi} sin t, e^{-i psi} cos t]]``."""
    c, s = math.cos(theta), math.sin(theta)
    su2 = np.array(
        [[np.exp(1j * psi) * c, np.exp(1j * chi) * s], [-np.exp(-1j * chi) * s, np.exp(-1j * psi) * c]]
    )
    return np.exp(1j * alpha) * su2


angles = st.floats(0.0, 2.0 * math.pi)
transfers = st.builds(u2, angles, angles, angles, angles)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PHASE = np.diag(np.exp([0.4j, -1.3j]))
NEAR_IDENTITY = u2(0.0, 1e-9, 0.0, 0.0)


@PROPERTY
@given(transfers)
@example(SWAP)
@example(PHASE)
@example(NEAR_IDENTITY)
def test_rotation_blocks_match_binomial_expansion(transfer):
    for total in range(21):
        got = _sector_matrix(transfer, total)
        assert np.max(np.abs(got - binomial_sector_matrix(total, transfer))) < 1e-12, total


@pytest.mark.parametrize("src", [HV, PolarizationBasis.plus_minus(), PolarizationBasis.right_left()])
@pytest.mark.parametrize(
    "dst", [HV, PolarizationBasis.plus_minus(), PolarizationBasis.right_left(), PolarizationBasis.equatorial(0.77)]
)
def test_cached_basis_rotations_match_binomial_expansion(src, dst):
    transfer = transfer_matrix(src, dst)
    for total in range(21):
        block = _sector_rotation(total, src, dst)
        assert np.max(np.abs(block - binomial_sector_matrix(total, transfer))) < 1e-12, total


@LARGE_SECTOR_PROPERTY
@given(transfers, st.integers(0, 500))
@example(SWAP, 500)
@example(PHASE, 500)
@example(NEAR_IDENTITY, 500)
@example(u2(0.3, 0.7, 1.1, -0.4), 500)
def test_rotation_blocks_are_unitary_to_500_photons(transfer, total):
    r = _sector_matrix(transfer, total)
    assert np.max(np.abs(r.conj().T @ r - np.eye(total + 1))) < 1e-12


@pytest.mark.parametrize(
    "src, dst", [(HV, PolarizationBasis.equatorial(0.123)), (PolarizationBasis.equatorial(2.9), HV)]
)
def test_rotating_one_sector_builds_one_block(src, dst):
    # a state confined to the 500-photon sector needs its block alone; the
    # rotation is passive, so the norm survives
    state = TwoModeVector.from_amplitudes({(300, 200): 1.0}, 500, src)
    misses = _sector_rotation.cache_info().misses
    rotated = rotate_basis(state, dst)
    assert _sector_rotation.cache_info().misses == misses + 1
    assert abs(rotated.norm() - 1.0) < 1e-12


# --------------------------------------------------------------------------
# amplified singlet
# --------------------------------------------------------------------------

@PROPERTY
@given(st.floats(0.0, 2.0 * math.pi, exclude_max=True), gains, st.integers(1, 60))
@example(phi=math.pi / 2.0, g=1.5, n_max=60)
@example(phi=3.0 * math.pi / 2.0, g=1.5, n_max=60)
@example(phi=0.0, g=0.0, n_max=2)
def test_singlet_matches_equatorial_ladders(phi, g, n_max):
    # entrywise, not up to a global phase: the constructor fixes the phase
    # convention that the (H, V) state has
    gain = GainParams(g)
    state = micro_macro_state(phi, gain, Cutoff(n_max, ANY_TAIL))
    want = equatorial_singlet_ladders(state.basis.phi, gain, n_max)
    assert np.max(np.abs(state.dense() - want)) < 1e-13


# --------------------------------------------------------------------------
# lossy witness terms
# --------------------------------------------------------------------------

@st.composite
def gated_singlets(draw):
    """Amplified singlets in a random equatorial basis, at a cutoff up to 16
    that passes the 0.5 tail gate."""
    gain = GainParams(draw(st.one_of(st.just(0.0), st.floats(0.05, 1.5))))
    n_max = draw(st.integers(required_cutoff(gain, 0.5), 16))
    phi = draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    return micro_macro_state(phi, gain, Cutoff(n_max, 0.5))


PM_SINGLET = micro_macro_state(0.0, GainParams(1.2), Cutoff(12, 0.5))
LOW_SINGLET = micro_macro_state(0.7, GainParams(0.4), Cutoff(3, 0.5))


@PROPERTY
@given(gated_singlets(), st.floats(0.0, 1.0))
@example(state=PM_SINGLET, eta=0.0)
@example(state=PM_SINGLET, eta=1.0)
def test_lossy_sigma_terms_match_dense_images(state, eta):
    images = kraus_images_loop(state, eta)
    want = sigma_terms_from_images(state, images)
    got = sigma_terms_triangle(state.gain, LossParams(eta), Cutoff(state.cutoff, 0.5))
    assert np.max(np.abs(np.subtract(got, want))) < 1e-12
    assert np.max(np.abs(loss_kraus_images(state, LossParams(eta)) - images)) < 1e-14


@PROPERTY
@given(
    gains,
    st.integers(1, 24),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
)
@example(g=1.5, n_max=24, phi=0.0, eta=0.4137)
@example(g=0.0, n_max=1, phi=0.0, eta=0.0)
def test_lossy_sigma_fidelities_match_kraus_images(g, n_max, phi, eta):
    # the triangle's lossy fidelities against the contraction of Kraus images
    # with the rotated pseudo-Pauli vectors, on both cutoff parities
    cutoff = Cutoff(n_max, ANY_TAIL)
    gain, loss = GainParams(g), LossParams(eta)
    want = sigma_terms_from_kraus_images(micro_macro_state(phi, gain, cutoff), loss)
    got = sigma_terms_triangle(gain, loss, cutoff)
    assert np.max(np.abs(np.subtract(got, want))) < 1e-12
    terms = sigma_witness_lossy(gain, loss, cutoff).terms
    assert terms[1] == terms[2]


@PROPERTY
@given(gains, st.integers(1, 60), st.floats(1e-12, 0.99))
@example(g=1.5, n_max=30, tail=0.5)
def test_lossy_sigma_tail_gate_matches_state_gate(g, n_max, tail):
    gain, cutoff = GainParams(g), Cutoff(n_max, tail)
    try:
        micro_macro_state(0.0, gain, cutoff)
    except CutoffError as exc:
        with pytest.raises(CutoffError) as caught:
            sigma_witness_lossy(gain, LossParams(0.5), cutoff)
        assert caught.value.tail_mass == exc.tail_mass
    else:
        sigma_witness_lossy(gain, LossParams(0.5), cutoff)


@PROPERTY
@given(gated_singlets(), st.floats(0.0, 1.0), st.integers(0, 3))
@example(state=PM_SINGLET, eta=0.0, k=0)
@example(state=PM_SINGLET, eta=1.0, k=2)
@example(state=LOW_SINGLET, eta=0.6, k=3)  # k >= n_max: no conclusive outcome
@example(state=LOW_SINGLET, eta=0.6, k=5)
@example(state=LOW_SINGLET, eta=0.0, k=1)  # every photon lost: all terms 0
@example(state=PM_SINGLET, eta=0.4137, k=1)  # terms 2 and 3 are one value
def test_lossy_ofilter_terms_match_dense_images(state, eta, k):
    want = ofilter_terms_from_images(state, kraus_images_loop(state, eta), k)
    got = ofilter_terms_triangle(state.gain, LossParams(eta), k, Cutoff(state.cutoff, 0.5))
    assert np.max(np.abs(np.subtract(got, want))) < 1e-12


@pytest.mark.parametrize("eta, k", [(0.0, 0), (0.0, 3), (0.6, 12), (0.6, 13), (0.4137, 1), (1.0, 0)])
def test_lossy_ofilter_exact_cases(eta, k):
    # the equatorial axes share one value; with no photon left every outcome
    # is inconclusive, and on the truncated state so is every outcome of a
    # threshold at or above the cutoff
    gain, loss, cutoff = GainParams(1.2), LossParams(eta), Cutoff(12, 0.5)
    terms = ofilter_witness_lossy(gain, loss, k, cutoff).terms
    truncated = ofilter_terms_triangle(gain, loss, k, cutoff)
    assert terms[1] == terms[2]
    assert truncated[1] == truncated[2]
    if eta == 0.0:
        assert terms == (0.0, 0.0, 0.0)
    if eta == 0.0 or k >= 12:
        assert truncated == (0.0, 0.0, 0.0)


@PROPERTY
@given(gains, st.integers(1, 60), st.floats(1e-12, 0.99))
@example(g=1.5, n_max=30, tail=0.5)
def test_lossy_ofilter_tail_gate_matches_state_gate(g, n_max, tail):
    gain, cutoff = GainParams(g), Cutoff(n_max, tail)
    try:
        micro_macro_state(0.0, gain, cutoff)
    except CutoffError as exc:
        with pytest.raises(CutoffError) as caught:
            ofilter_witness_lossy(gain, LossParams(0.5), 1, cutoff)
        assert caught.value.tail_mass == exc.tail_mass
    else:
        ofilter_witness_lossy(gain, LossParams(0.5), 1, cutoff)


def test_lossy_witness_terms_match_dense_images_at_cutoff_40():
    state = micro_macro_state(0.0, GainParams(1.2), Cutoff(40, 0.5))
    loss = LossParams(0.5417)
    images = kraus_images_loop(state, loss.eta)
    got = sigma_terms_triangle(state.gain, loss, Cutoff(40, 0.5))
    assert np.max(np.abs(np.subtract(got, sigma_terms_from_images(state, images)))) < 1e-12
    for k in (0, 2):
        got = ofilter_terms_triangle(state.gain, loss, k, Cutoff(40, 0.5))
        assert np.max(np.abs(np.subtract(got, ofilter_terms_from_images(state, images, k)))) < 1e-12


# --------------------------------------------------------------------------
# lossy fringe
# --------------------------------------------------------------------------

# Gains up to the benchmark's 1.8; from 0.05 up every population to 61
# photons is a normal float.
fringe_gains = st.one_of(st.just(0.0), st.floats(0.05, 1.8))


def assert_same_fringe(phi, gain, eta, k, cutoff):
    loss = LossParams(eta)
    got = lossy_fringe_triangle(gain, loss, k, cutoff)
    want = fringe_from_population_matrix(phi, gain, loss, k, cutoff)
    assert np.max(np.abs(np.subtract(got, want))) < 1e-12, (got, want)


@st.composite
def fringe_cases(draw):
    n_max = draw(st.integers(1, 61))
    return (
        draw(st.floats(0.0, 2.0 * math.pi, exclude_max=True)),
        draw(fringe_gains),
        draw(st.floats(0.0, 1.0)),
        draw(st.integers(0, n_max + 2)),
        n_max,
    )


@PROPERTY
@given(fringe_cases())
@example((0.0, 1.8, 0.0, 0, 61))
@example((0.0, 1.8, 1.0, 0, 61))
@example((0.0, 1.0, 1.0, 1, 60))
@example((0.0, 0.0, 0.5, 0, 1))
def test_lossy_fringe_matches_population_matrix(case):
    phi, g, eta, k, n_max = case
    assert_same_fringe(phi, GainParams(g), eta, k, Cutoff(n_max, ANY_TAIL))


@pytest.mark.parametrize("k", [0, 4, 8])
def test_lossy_fringe_matches_population_matrix_at_benchmark_cutoff(k):
    for eta in (1.0, 0.7, 0.35, 0.1, 0.0):
        assert_same_fringe(0.0, GainParams(1.8), eta, k, Cutoff(481, 1e-9))


def assert_same_populations(gain, n_max):
    """``a_i b_j`` equals the squared ladder amplitudes, to the rounding of a
    log-domain evaluation whose terms reach ``log(n_max!)``."""
    n, m, amps = _macro_ladder(0.0, gain, n_max)
    a, b = macro_mode_populations(gain, n_max)
    rtol = 4.0 * np.finfo(float).eps * (1.0 + math.lgamma(n_max + 1.0))
    np.testing.assert_allclose(a[(n - 1) // 2] * b[m // 2], np.abs(amps) ** 2, rtol=rtol, atol=0.0)


@PROPERTY
@given(fringe_gains, st.integers(1, 61))
def test_mode_populations_factor_the_ladder(g, n_max):
    assert_same_populations(GainParams(g), n_max)


def test_mode_populations_factor_the_ladder_at_benchmark_cutoff():
    assert_same_populations(GainParams(1.8), 481)


@pytest.mark.parametrize("g", [0.0, 0.3, 1.0, 1.8])
def test_mode_populations_are_single_mode_distributions(g):
    """Each factor alone sums to one: the squeezed one-photon state carries
    ``1/cosh^3 g`` and the squeezed vacuum ``1/cosh g``, not only their product."""
    gain = GainParams(g)
    a, b = macro_mode_populations(gain, required_cutoff(gain, 1e-14))
    assert a[0] == pytest.approx(1.0 / gain.cosh_g**3, rel=1e-15)
    assert b[0] == pytest.approx(1.0 / gain.cosh_g, rel=1e-15)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)
    assert b.sum() == pytest.approx(1.0, abs=1e-12)


def test_undersized_fringe_cutoff_reports_the_oracle_tail():
    gain, loss, cutoff = GainParams(1.8), LossParams(0.5), Cutoff(101, 1e-9)
    with pytest.raises(CutoffError) as got:
        lossy_fringe_probabilities(gain, loss, 0, cutoff)
    with pytest.raises(CutoffError) as want:
        fringe_from_population_matrix(0.0, gain, loss, 0, cutoff)
    assert got.value.tail_mass == pytest.approx(want.value.tail_mass, rel=1e-12, abs=0.0)
    assert got.value.tail_mass > 1e-3


# --------------------------------------------------------------------------
# the law of the thinned difference, against the truncation triangle
# --------------------------------------------------------------------------

@st.composite
def converged_cases(draw):
    """Gain, transmittivity and threshold, at a cutoff whose tail is below
    1e-13, so that the triangle differs from the untruncated law by less."""
    gain = GainParams(draw(fringe_gains))
    loss = LossParams(draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))))
    return gain, loss, draw(st.integers(0, 8)), Cutoff(required_cutoff(gain, 1e-13), 1e-12)


@PROPERTY
@given(converged_cases())
@example((GainParams(1.8), LossParams(0.5), 4, Cutoff(required_cutoff(GainParams(1.8), 1e-13), 1e-12)))
@example((GainParams(0.0), LossParams(0.3), 0, Cutoff(1, 1e-12)))
def test_difference_law_matches_triangle_at_converged_cutoffs(case):
    gain, loss, k, cutoff = case
    got = lossy_fringe_probabilities(gain, loss, k, cutoff)
    want = lossy_fringe_triangle(gain, loss, k, cutoff)
    assert np.max(np.abs(np.subtract(got, want))) < 1e-9, (got, want)
    got = ofilter_witness_lossy(gain, loss, k, cutoff).terms
    want = ofilter_terms_triangle(gain, loss, k, cutoff)
    assert np.max(np.abs(np.subtract(got, want))) < 1e-9, (got, want)


@pytest.mark.parametrize("k", [0, 4, 8])
def test_difference_law_matches_triangle_at_benchmark_cutoff(k):
    # the benchmark checks the fringe against a truncated build to 1e-9
    gain, cutoff = GainParams(1.8), Cutoff(481, 1e-9)
    for eta in (1.0, 0.9, 0.7, 0.35, 0.1, 0.0):
        loss = LossParams(eta)
        got = lossy_fringe_probabilities(gain, loss, k, cutoff)[:2]
        want = lossy_fringe_triangle(gain, loss, k, cutoff)[:2]
        assert np.max(np.abs(np.subtract(got, want))) < 1e-9, (eta, got, want)


@pytest.mark.parametrize("seed", ["H", "equatorial"])
def test_difference_law_at_zero_gain_is_one_thinned_photon(seed):
    # without gain both seeds are one photon in the seeded mode: D is 1 with
    # probability eta and 0 otherwise
    for eta in (0.0, 0.25, 1.0):
        law = _difference_law(seed, GainParams(0.0), eta, 5)
        assert law.size == 16
        want = np.zeros(16)
        want[0], want[1] = 1.0 - eta, eta
        assert np.max(np.abs(law - want)) < 1e-15


# --------------------------------------------------------------------------
# the closed-form pseudo-Pauli terms, against the truncation triangle
# --------------------------------------------------------------------------

@PROPERTY
@given(fringe_gains, st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
@example(g=1.8, eta=0.5)
@example(g=0.6, eta=0.9)
def test_closed_form_sigma_terms_match_triangle_at_converged_cutoffs(g, eta):
    # the triangle's tail is below 1e-13, so the two routes differ by less
    gain, loss = GainParams(g), LossParams(eta)
    cutoff = Cutoff(required_cutoff(gain, 1e-13), 1e-12)
    got = sigma_witness_lossy(gain, loss, cutoff).terms
    want = sigma_terms_triangle(gain, loss, cutoff)
    assert np.max(np.abs(np.subtract(got, want))) < 1e-11, (got, want)


@pytest.mark.parametrize("g", [0.0, 0.6, 1.5, 4.0])
def test_closed_form_sigma_terms_are_exact_without_loss_and_with_every_photon_lost(g):
    gain = GainParams(g)
    cutoff = Cutoff(required_cutoff(gain, 1e-9), 0.5)
    assert sigma_witness_lossy(gain, LossParams(1.0), cutoff).terms == (-1.0, -1.0, -1.0)
    lost = sigma_witness_lossy(gain, LossParams(0.0), cutoff)
    assert lost.terms == (0.0, 0.0, 0.0)
    assert lost.value == 0.0


@pytest.mark.parametrize("eta", [0.0, 0.25, 0.9, 1.0])
def test_closed_form_sigma_terms_at_zero_gain_are_minus_eta(eta):
    # one photon, kept with probability eta
    terms = sigma_witness_lossy(GainParams(0.0), LossParams(eta), Cutoff(1, 0.5)).terms
    assert terms == (-eta, -eta, -eta)


# --------------------------------------------------------------------------
# vector storage
# --------------------------------------------------------------------------

@PROPERTY
@given(normalized_maps(), st.integers(12, 16), st.data())
def test_dense_round_trip_matches_dict_era(amps, cutoff, data):
    order = data.draw(st.permutations(range(len(amps))))
    vec = shuffled_vector(amps, order, cutoff)
    space = fock_space(cutoff)
    dense = vec.dense()
    assert np.array_equal(dense, dense_from_map(amps, space))
    bigger = fock_space(cutoff + 3)
    assert np.array_equal(vec.dense(bigger), dense_from_map(amps, bigger))
    back = TwoModeVector.from_dense(dense, cutoff, HV)
    assert dict(back.amplitudes) == map_from_dense(dense, cutoff)
    assert np.array_equal(back.dense(), dense_from_map(map_from_dense(dense, cutoff), space))


@pytest.mark.parametrize(
    "n, m, amps, message",
    [
        ([1, -1], [0, 1], [0.6, 0.6], r"index \(-1, 1\) outside cutoff 3"),
        ([0, 1], [-2, 0], [0.6, 0.6], r"index \(0, -2\) outside cutoff 3"),
        ([0, 2], [1, 2], [0.6, 0.6], r"index \(2, 2\) outside cutoff 3"),
        ([2**62], [2**62], [0.6], r"index \(4611686018427387904, 4611686018427387904\) outside"),
        ([0, 1], [0, 0], [0.8, 0.8], r"squared-amplitude sum 1\.28\d* exceeds 1"),
        ([1, 0, 1], [0, 1, 0], [0.5, 0.5, 0.5], "repeated"),
        ([2, 2], [1, 1], [0.5, 0.0], "repeated"),  # adjacent, one of them zero
        ([0, 1, 1], [1, 0, 0], [0.5, 0.5, 0.5], "repeated"),  # ascending but for the repeat
        ([1, 1, 0], [0, 0, 1], [0.5, 0.5, 0.5], "repeated"),  # descending
        ([0, 1], [0, 0], [0.5], "differ in length"),
    ],
    ids=["negative-n", "negative-m", "above-cutoff", "int64-overflow", "norm", "duplicate", "adjacent-duplicate",
         "ascending-duplicate", "descending-duplicate", "length"],
)
def test_vector_validation_raises(n, m, amps, message):
    with pytest.raises(ValueError, match=message):
        TwoModeVector(np.array(n), np.array(m), np.array(amps), 3, HV)


def test_vector_storage_is_a_read_only_copy():
    n, m, amps = np.array([1, 0, 2]), np.array([0, 1, 0]), np.array([0.6, 0.0, 0.8j])
    vec = TwoModeVector(n, m, amps, 3, HV)
    amps[0] = 0.0
    # the exact zero is left out; the rest keeps its order
    assert vec.n.tolist() == [1, 2] and vec.m.tolist() == [0, 0]
    assert vec.amps.tolist() == [0.6, 0.8j]
    with pytest.raises(ValueError):
        vec.amps[0] = 1.0
    with pytest.raises(TypeError):
        vec.amplitudes[(1, 0)] = 1.0
    assert vec.amplitudes == {(1, 0): 0.6, (2, 0): 0.8j}


@PROPERTY
@given(normalized_maps(), st.data())
def test_vector_keeps_its_flat_indices_read_only_in_storage_order(amps, data):
    order = data.draw(st.permutations(range(len(amps))))
    vec = shuffled_vector(amps, order, 12)
    space = fock_space(12)
    assert vec.keys.dtype == np.int64
    assert np.array_equal(vec.keys, _flat_index(vec.n, vec.n + vec.m))
    assert np.array_equal(space.n[vec.keys], vec.n) and np.array_equal(space.m[vec.keys], vec.m)
    assert not vec.keys.flags.writeable


@PROPERTY
@given(normalized_maps(), normalized_maps())
def test_vector_algebra_matches_dict_era(first, second):
    a = TwoModeVector.from_amplitudes(first, 12, HV)
    b = TwoModeVector.from_amplitudes(second, 12, HV)
    want = sum(np.conj(v) * second.get(k, 0.0) for k, v in first.items())
    assert abs(a.overlap(b) - want) <= 1e-15 * len(first)
    norm = math.sqrt(sum(abs(v) ** 2 for v in first.values()))
    assert abs(a.norm() - norm) <= 1e-15 * max(1, len(first))
    photons = sum((n + m) * abs(v) ** 2 for (n, m), v in first.items())
    assert abs(a.mean_total_photons() - photons) <= 1e-14 * max(1, len(first))


# --------------------------------------------------------------------------
# conditioning cutoff
# --------------------------------------------------------------------------

@pytest.mark.parametrize("g", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("eta", [1e-4, 1e-3, 1e-2])
def test_conditioning_cutoff_matches_loop_on_benchmark_grid(g, eta):
    gain, loss = GainParams(g), LossParams(eta)
    assert conditioning_cutoff(gain, loss) == conditioning_cutoff_loop(gain, loss)


@pytest.mark.parametrize(
    "g,eta,n_max",
    [(2.0, 1e-2, 627), (3.0, 1e-2, 1945), (4.0, 1e-4, 37809), (4.0, 1e-3, 17439), (4.0, 1e-2, 2721),
     (5.0, 1e-3, 26709), (5.0, 1e-2, 2877), (5.0, 1e-5, 289149), (6.0, 1e-4, 259553)],
)
def test_conditioning_cutoff_follows_the_conditional_tail(g, eta, n_max):
    # all but g = 5, eta = 1e-5 lie below the raw tail's required_cutoff(g,
    # 1e-9): 35,681 at g = 4, 263,653 at g = 5, 1,948,151 at g = 6; the last
    # two need more than 100,000 pairs
    assert conditioning_cutoff(GainParams(g), LossParams(eta)).n_max == n_max


def dropped_mass_sum(gain, n_max):
    """Mass of the seeded ladder beyond the kept pairs, ``sum_{n > P} (n+1)
    x^n / cosh^4 g`` with ``x = tanh^2 g``, summed until the terms fall below
    1e-25 of the first."""
    x, first = gain.tanh_g**2, (n_max - 1) // 2 + 1
    count = int(60.0 / -math.log(x)) + first + 10 if x > 0.0 else 1
    n = np.arange(first, first + count, dtype=float)
    return math.fsum((n + 1.0) * x**n) / gain.cosh_g**4


@pytest.mark.parametrize("g", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("eta", [1e-4, 1e-3, 1e-2])
def test_conditioning_cutoff_states_the_mass_it_drops_on_benchmark_grid(g, eta):
    gain = GainParams(g)
    cut = conditioning_cutoff(gain, LossParams(eta))
    dropped = dropped_mass_sum(gain, cut.n_max)
    assert dropped <= cut.tail_tolerance
    want = max(1e-8, min(2.0 * dropped, 0.5 * (1.0 + dropped)))
    assert cut.tail_tolerance == pytest.approx(want, rel=1e-12)


def test_conditioning_cutoff_states_the_mass_it_drops_at_g6():
    gain = GainParams(6.0)
    cut = conditioning_cutoff(gain, LossParams(1e-4))
    dropped = dropped_mass_sum(gain, cut.n_max)
    assert dropped == pytest.approx(0.17, abs=0.005)
    # the closed form (p+2) - (p+1) x cancels five digits at p = 129,775
    assert dropped <= cut.tail_tolerance == pytest.approx(2.0 * dropped, rel=1e-9)


@PROPERTY
@given(st.floats(0.0, 4.5), st.floats(1e-5, 1.0))
@example(g=0.0, eta=0.5)
@example(g=1.0, eta=1.0)
def test_conditioning_cutoff_matches_loop(g, eta):
    # the loop stops on full - partial, whose rounding moves its stopping
    # point by one pair (two photons) at cutoffs above about 20,000
    gain, loss = GainParams(g), LossParams(eta)
    got = conditioning_cutoff(gain, loss).n_max
    assert abs(got - conditioning_cutoff_loop(gain, loss).n_max) <= 2


@PROPERTY
@given(st.floats(1e-6, 0.999), st.integers(0, 5000))
def test_conditional_tail_fraction_matches_direct_sum(x, p):
    # terms beyond p + count are below 1e-20 of the first
    count = int(50.0 / -math.log(x)) + 2 * p + 10
    q = np.arange(p, p + count, dtype=float)
    want = math.fsum((q + 1.0) * (q + 2.0) * x**q) / (2.0 / (1.0 - x) ** 3)
    assert _conditional_tail_fraction(p, x) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_conditioning_cutoff_raises_where_the_loop_does():
    # the series needs about 5.7e9 photons here: more than the loop's 100,000
    # pairs, and beyond the largest cutoff whose flat indices fit int64
    gain, loss = GainParams(10.0), LossParams(1e-9)
    with pytest.raises(CutoffError, match="does not converge"):
        conditioning_cutoff_loop(gain, loss)
    with pytest.raises(CutoffError, match="does not converge"):
        conditioning_cutoff(gain, loss)


def test_conditioning_cutoff_raises_at_t_1():
    # tanh(20) rounds to 1: without loss the series is sum (q+1)(q+2), which diverges
    with pytest.raises(CutoffError, match="does not converge"):
        conditioning_cutoff(GainParams(20.0), LossParams(0.0))


# --------------------------------------------------------------------------
# binomial thinning kernel
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n_max", [1, 2, 7, 60, 481])
@pytest.mark.parametrize("eta", [0.0, 0.2, 0.37, 0.5, 0.9, 1.0])
def test_thinning_kernel_matches_loop_bitwise(n_max, eta):
    got = _binomial_thinning_kernel(n_max, eta)
    want = binomial_kernel_loop(n_max, eta)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@PROPERTY
@given(st.integers(1, 300), st.floats(0.0, 1.0))
def test_thinning_kernel_matches_loop_bitwise_anywhere(n_max, eta):
    got = _binomial_thinning_kernel(n_max, eta)
    assert np.array_equal(got.view(np.int64), binomial_kernel_loop(n_max, eta).view(np.int64))
