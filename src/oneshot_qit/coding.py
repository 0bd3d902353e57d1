"""Position-based decoding and entanglement-assisted channel coding.

The decoders measure with the square-root (Hayashi-Nagaoka) measurement over
rotated copies of a hypothesis test and report per-position success
probabilities.  Both take them from one signal-vector routine over the
gather maps of the U_l ((U_l x)[i] = x[src[i]]): each rotated test is the
test gathered by src, each rotation moves the blocks of S^{-1/2} to src of
their indices, and the success is a weighted sum of quadratic forms at the
signal state's eigenvectors, so no measurement element is built.  The flat
decoder's test reaches the ensemble's space by the one move through the
flattening permutation W (``flatten._moved``).  ``hayashi_nagaoka_povm``
builds the elements for callers that need them.
The channel code runs the full protocol exactly: shared flattened-purification
and embezzling resources, transpose-trick encoding on Alice's side, a channel
application, and square-root decoding on Bob's side, with error probabilities
computed by dense propagation over every message and shared-randomness branch
(no sampling).  It rounds psi_A itself onto the grid and runs in the
rounding's eigenbasis, where the flattening permutation and the
Heisenberg-Weyl rotations map basis vectors to basis vectors; only the
hypothesis test and the Kraus operators are rotated, once.
The rate cap and the code take the test and its D_H from one Neyman-Pearson
solve, and so does each decoder.

Every square-root measurement Lambda_i = S^{-1/2} Omega_i S^{-1/2} takes
S^{-1/2} from ``_inv_sqrt``, which eigensolves S block by block on the
connected components of its exact nonzero pattern and returns the blocks.
The decoders and the channel code never assemble S^{-1/2}: ``_measured``
applies it to a signal block only on the blocks its nonzero rows touch and
reads the test on those rows alone.  The channel code solves S once per test
family, for all messages.  Only ``hayashi_nagaoka_povm`` scatters the blocks
into a dense S^{-1/2} and the support projector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .convexsplit import (_classical_ensemble, _members, hw_family,
                          pairwise_family, prime_register, u_ell_index)
from .entropy import _dh_value, _threshold_test, dh_eps, dmax, imax
from .flatten import (_flat_ensemble, _gamma_fraction, _moved,
                      check_unembezzle, embezzling_state, harmonic_sum,
                      purified_embezzle_fidelity, round_spectrum,
                      unitary_flatten_W)
from .registers import (DensityOperator, RegisterSystem, _as_density, act,
                        canonical_purification, lift_index, maximally_mixed,
                        partial_trace, permute_basis, permute_registers,
                        tensor)


@dataclass(frozen=True)
class QuantumChannel:
    """CPTP map given by Kraus operators; square input/output registers."""

    kraus: tuple
    input_dim: int
    output_dim: int
    name: str = "channel"

    def __post_init__(self):
        acc = np.zeros((self.input_dim, self.input_dim), dtype=complex)
        for k in self.kraus:
            if k.shape != (self.output_dim, self.input_dim):
                raise ValueError("Kraus operator shape mismatch")
            acc += k.conj().T @ k
        # written as "not <=" so that a NaN entry fails too
        if not float(np.max(np.abs(acc - np.eye(self.input_dim)))) <= 1e-9:
            raise ValueError("Kraus operators are not trace preserving")


def _check_range(name, value, top):
    if not 0 <= value <= top:
        raise ValueError(f"{name} = {value} outside [0, {top:.4g}]")


def identity_channel(dim=2):
    return QuantumChannel((np.eye(dim, dtype=complex),), dim, dim, "identity")


def depolarizing_channel(p, dim=2):
    """rho -> (1 - p) rho + p mu, p in [0, 4/3], by the uniform Pauli Kraus set.

    p above 1 stays completely positive up to 4/3, where no weight is left
    on the identity.
    """
    if dim != 2:
        raise ValueError("depolarizing channel implemented for qubits")
    _check_range("p", p, 4 / 3)
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    weights = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
    kraus = tuple(np.sqrt(w) * m.astype(complex) for w, m in zip(weights, paulis))
    return QuantumChannel(kraus, 2, 2, f"depolarizing({p})")


def dephasing_channel(p):
    """rho -> (1 - p/2) rho + (p/2) Z rho Z, p in [0, 2]."""
    _check_range("p", p, 2)
    kraus = (np.sqrt(1 - p / 2) * np.eye(2, dtype=complex),
             np.sqrt(p / 2) * np.diag([1.0, -1.0]).astype(complex))
    return QuantumChannel(kraus, 2, 2, f"dephasing({p})")


def amplitude_damping_channel(gamma):
    """Decay |1> -> |0> with probability gamma in [0, 1]."""
    _check_range("gamma", gamma, 1)
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return QuantumChannel((k0, k1), 2, 2, f"amplitude_damping({gamma})")


def apply_channel(channel, state, labels):
    """Apply the channel to the named registers (Kraus sum, trace preserved)."""
    state = _as_density(state)
    labels = list(labels)
    d_act = 1
    for lab in labels:
        d_act *= state.system.dim_of(lab)
    if d_act != channel.input_dim:
        raise ValueError(f"registers {labels} have dim {d_act}, "
                         f"channel expects {channel.input_dim}")
    if channel.output_dim != channel.input_dim:
        raise ValueError("register-relabeling channels need equal dimensions")
    axes = state.system.axes(labels)
    acc = np.zeros_like(state.matrix)
    for k in channel.kraus:
        acc += act(state.matrix, k, state.system.dims, axes)
    return DensityOperator(state.system, acc, subnormalized=state.subnormalized,
                           validate=False)


def neyman_pearson_operator(rho, sigma, eps):
    """Optimal test 0 <= Pi <= I with Tr(Pi rho) >= 1 - eps minimizing Tr(Pi sigma).

    Returns (Pi, type2); -log2(type2) equals dh_eps(rho, sigma, eps).
    """
    rho, sigma = _as_density(rho), _as_density(sigma)
    if rho.system.dims != sigma.system.dims:
        raise ValueError("dimension mismatch")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps {eps} outside [0, 1)")
    type2, pi = _threshold_test(rho.matrix, sigma.matrix, float(eps))
    return pi, type2


@dataclass(frozen=True)
class POVM:
    """Outcome-labeled PSD elements summing to the identity; -1 is failure."""

    elements: dict

    def __post_init__(self):
        mats = list(self.elements.values())
        dim = mats[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for m in mats:
            if float(np.linalg.eigvalsh(m)[0]) < -1e-9:
                raise ValueError("POVM element is not PSD")
            total += m
        if float(np.max(np.abs(total - np.eye(dim)))) > 1e-8:
            raise ValueError("POVM elements do not sum to the identity")


def _components(pattern):
    """Connected-component label per index of a boolean adjacency pattern.

    Each index takes the smallest label of itself and its neighbours, then
    follows that label to its own label; at the fixed point every component
    carries one label.  Labels only decrease, so the loop ends.
    """
    rows, cols = np.nonzero(pattern | pattern.T)
    labels = np.arange(pattern.shape[0])
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _inv_sqrt(total, support=False):
    """The blocks of S^{-1/2} on supp(S), for Hermitian S >= 0.

    S is split into the connected components of its exact nonzero pattern;
    no entry is thresholded, so the split is exact and a fully connected S is
    one block.  Blocks of equal size are eigensolved in one stacked call, and
    eigenvalues above 1e-12 count as the support.  Returns one group per
    block size: the indices ``idx`` of its blocks, (n_blocks, size), and the
    blocks S^{-1/2}[idx, idx], (n_blocks, size, size); with ``support`` the
    group also carries the blocks of the projector onto supp(S).
    """
    labels = _components(total != 0)
    order = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[order], return_index=True,
                                 return_counts=True)
    groups = []
    for size in np.unique(sizes):
        idx = order[starts[sizes == size][:, None] + np.arange(size)]
        vals, vecs = np.linalg.eigh(total[idx[:, :, None], idx[:, None, :]])
        pos = vals > 1e-12
        scale = np.zeros_like(vals)
        scale[pos] = 1.0 / np.sqrt(vals[pos])
        vecs_h = vecs.conj().transpose(0, 2, 1)
        group = (idx, (vecs * scale[:, None, :]) @ vecs_h)
        if support:
            group += ((vecs * pos[:, None, :]) @ vecs_h,)
        groups.append(group)
    return groups


def _measured(groups, x, test):
    """Re <h|T|h> for every column h of S^{-1/2} X, with S^{-1/2} given by
    the groups of `_inv_sqrt`.

    Only the blocks that X's nonzero rows touch are multiplied, one stacked
    matmul per block size.  h is exactly zero outside those blocks, so T is
    read only on their rows k, as T[k, k]; T need not be block-diagonal.
    """
    touched = (x != 0).any(axis=1)
    rows, halves = [], []
    for idx, inv_blocks in groups:
        hit = touched[idx].any(axis=1)
        rows.append(idx[hit].ravel())
        halves.append((inv_blocks[hit] @ x[idx[hit]]).reshape(-1, x.shape[1]))
    k = np.concatenate(rows)
    half = np.concatenate(halves)
    return np.real(np.sum(half.conj() * (test[np.ix_(k, k)] @ half), axis=0))


def hayashi_nagaoka_povm(operators):
    """Square-root measurement of a family of 0 <= Omega_i <= I operators.

    Lambda_i = S^{-1/2} Omega_i S^{-1/2} with S = sum Omega (pseudo-inverse on
    the support); the -1 outcome projects onto the complement of supp(S).
    """
    operators = list(operators)
    dim = operators[0].shape[0]
    for om in operators:
        vals = np.linalg.eigvalsh(om)
        if vals[0] < -1e-9:
            raise ValueError("input operator is not PSD")
        if vals[-1] > 1 + 1e-8:
            raise ValueError("input operator exceeds the identity")
    inv_half = np.zeros((dim, dim), dtype=complex)
    supp = np.zeros((dim, dim), dtype=complex)
    for idx, inv_blocks, supp_blocks in _inv_sqrt(sum(operators),
                                                  support=True):
        rows, cols = idx[:, :, None], idx[:, None, :]
        inv_half[rows, cols] = inv_blocks
        supp[rows, cols] = supp_blocks
    elements = {}
    for i, om in enumerate(operators):
        lam = inv_half @ om @ inv_half
        elements[i] = (lam + lam.conj().T) / 2
    elements[-1] = np.eye(dim) - supp
    return POVM(elements)


def hn_inequality_gap(operators, index, c):
    """Min eig of (1+c)(I - Omega_i) + (2+c+1/c) sum_{j != i} Omega_j - (I - Lambda_i)."""
    povm = hayashi_nagaoka_povm(operators)
    dim = operators[0].shape[0]
    rhs = (1 + c) * (np.eye(dim) - operators[index])
    for j, om in enumerate(operators):
        if j != index:
            rhs = rhs + (2 + c + 1 / c) * om
    gap = np.linalg.eigvalsh(rhs - (np.eye(dim) - povm.elements[index]))
    return float(gap[0])


@dataclass(frozen=True)
class PositionDecodeReport:
    """Per-position success probabilities with coarse and exact-ratio bounds."""

    successes: dict
    min_success: float
    paper_bound: float
    exact_bound: float
    size_cap: float


def _decoder_test(psi, ref, size, eps, delta):
    """(test, D_H, cap) of psi against ref; refuses eps or delta outside
    (0, 1) and ``size`` above the cap (delta^2 / 4 eps) 2^D_H."""
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps and delta must lie in (0, 1)")
    omega, type2 = neyman_pearson_operator(psi, ref, eps)
    dh = _dh_value(type2)
    cap = (delta ** 2 / (4.0 * eps)) * (2.0 ** dh.value) if dh.finite \
        else float("inf")
    if size > cap:
        raise ValueError(f"subset size {size} exceeds the cap {cap:.6g}")
    return omega, dh, cap


def _decode_report(successes, eps, delta, cap, cross, coarse):
    """Report with the floors 1 - eps - coarse delta and (Hayashi-Nagaoka,
    c = delta / eps) 1 - eps - delta - (2 + c + 1/c)(|S| - 1) cross."""
    c = delta / eps
    exact = 1.0 - eps - delta - (2 + c + 1 / c) * (len(successes) - 1) * cross
    return PositionDecodeReport(successes, min(successes.values()),
                                1.0 - eps - coarse * delta, exact, cap)


def _signal_successes(test, sources, signals, weights):
    """Tr(Lambda_l tau_l) for every l of ``sources``, from signal vectors.

    sources[l] is the gather map of U_l: (U_l x)[i] = x[sources[l][i]], so
    U_l test U_l^dag = test[src, src].  Lambda_l = S^{-1/2} U_l test U_l^dag
    S^{-1/2} with S the sum of the rotated tests, and tau_l = U_l (sum_c
    weights[c] |c><c|) U_l^dag over the columns |c> of ``signals``.
    U_l^dag S^{-1/2} U_l has the blocks of S^{-1/2} on the indices src[idx],
    so the success is a weighted sum of quadratic forms of the test at the
    unmoved signals.
    """
    s_sum = np.zeros_like(test)
    for src in sources.values():
        s_sum += test[np.ix_(src, src)]
    groups = _inv_sqrt(s_sum)
    successes = {}
    for ell, src in sources.items():
        moved = [(src[idx], inv_blocks) for idx, inv_blocks in groups]
        successes[ell] = float(weights @ _measured(moved, signals, test))
    return successes


def position_based_decode_classical(psi, prime_reg, subset, eps, delta):
    """Identify which cyclic rotation U_l carries the signal state.

    psi lives on (B..., C) with C last; the test family is the rotated optimal
    hypothesis test between psi and psi_B (x) mu_C.  The subset size must
    respect the cap (delta^2 / 4 eps) 2^dh, else the call refuses.
    """
    psi = _as_density(psi)
    g = prime_reg.prime
    subset = _members(subset, g)
    c_label = psi.system.labels[-1]
    c_dim = psi.system.dim_of(c_label)
    ens, psi_b = _classical_ensemble(psi, prime_reg)
    ref = tensor(psi_b, maximally_mixed(RegisterSystem([(c_label, c_dim)])))
    omega, dh, cap = _decoder_test(psi, ref, len(subset), eps, delta)

    d_b = psi.system.total_dim // c_dim
    signals, weights = ens.signals()

    # The host space (B, G1, G2) keeps all 2|C|^2 states of G1 = Q C0 C1:
    # Omega (x) I maps the first g of them into the tail, so compressing G1
    # to the prime register would change the measurement.
    host = 2 * c_dim * c_dim
    om_t = omega.reshape(d_b, c_dim, d_b, c_dim)
    om_bqc = np.einsum("bcde,qr->bqcdre", om_t, np.eye(2)).reshape(
        d_b * 2 * c_dim, d_b * 2 * c_dim)
    omega_lift = np.kron(om_bqc, np.eye(c_dim * g))
    # psi (x) mu_C1 (x) mu_G2 sits on the first g states of G1
    cols = len(weights)
    host_signals = np.zeros((d_b, host, g, cols), dtype=complex)
    host_signals[:, :g] = signals.reshape(d_b, g, g, cols)
    src = np.arange(host * g)       # U_l on the first g states, I on the tail
    sources = {}
    for ell in subset:
        src[:g * g] = u_ell_index(-ell % g, g)      # U_l^-1 = U_-l
        sources[ell] = lift_index(src, (d_b, host, g), [1, 2])
    successes = _signal_successes(omega_lift, sources,
                                  host_signals.reshape(-1, cols), weights)
    cross = (2.0 * c_dim * c_dim / g) * 2.0 ** (-dh.value)
    return _decode_report(successes, eps, delta, cap, cross, 4)


def _lifted_flat_test(ens, flat, omega, dims):
    """The test omega on (B, C) as an operator on the ensemble's (B, F1, D, F2).

    Omega (x) I_ED is moved by W onto supp (x) D, embedded into F1 with its
    q = 1 tail, then F2 is added.
    """
    om_supp = _moved(omega, dims, flat, np.eye(flat.e_dim * ens.d_dim))
    return np.kron(ens.embed_f1(om_supp, np.eye(2)), np.eye(ens.f_prime))


def position_based_decode_flat(psi, omega_c, gamma, subset, eps, delta, a, n,
                               d_size):
    """Position decoding through the flattened/embezzled prime-register family.

    The test family is {U_l W Omega W^dag U_l^dag} on (B, F1, D, F2); the
    report carries the exact-ratio analogue of the coarse success bound.
    The signal state is theta (x) mu_X1 (x) mu_F2, whose eigenvectors are
    the signal vectors of `_signal_successes`.
    """
    psi = _as_density(psi)
    flat = round_spectrum(omega_c, gamma, "down")
    if a != flat.e_dim:
        raise ValueError(f"a = {a} must equal |E| = {flat.e_dim}")
    if n < a:
        raise ValueError(f"n = {n} below a = {a}")
    if not (n + 1) * a <= d_size <= n * n:
        raise ValueError(f"d_size {d_size} outside [{(n + 1) * a}, {n * n}]")
    reg = prime_register(flat.grid_total)
    subset = _members(subset, reg.prime)

    psi_b = partial_trace(psi, [psi.system.labels[-1]])
    omega, dh, cap = _decoder_test(psi, tensor(psi_b, _as_density(omega_c)),
                                   len(subset), eps, delta)

    ens = _flat_ensemble(psi, flat, a, n, d_size + 1)
    om_full = _lifted_flat_test(ens, flat, omega, psi.system.dims)
    signals, weights = ens.signals()
    successes = _signal_successes(
        om_full, {ell: ens.source(ell) for ell in subset}, signals, weights)

    ratio_emb = harmonic_sum(1, n) / harmonic_sum(a, n)
    f1_factor = 2.0 * ens.s_dim * ens.s_dim / ens.f_prime
    r2 = max(check_unembezzle(a, b, n, d_size)[0]
             for b in set(flat.counts) if b >= 1)
    cross = ratio_emb * f1_factor * r2 / (1.0 - float(flat.gamma)) \
        * 2.0 ** (-dh.value)
    return _decode_report(successes, eps, delta, cap, cross, 64)


@dataclass(frozen=True)
class CodingReport:
    """Exact error statistics of one entanglement-assisted code evaluation."""

    rate: int
    eps: float
    delta_surrogate: float
    delta_prime: float
    gamma: float
    analytic_error_bound: float
    empirical_max_error: float
    entanglement_qubits: float
    trials: int

    def bound_satisfied(self):
        return self.empirical_max_error <= self.analytic_error_bound + 1e-9

    def as_record(self):
        return {
            "rate": self.rate, "eps": self.eps,
            "delta_surrogate": self.delta_surrogate,
            "delta_prime": self.delta_prime, "gamma": self.gamma,
            "analytic_error_bound": self.analytic_error_bound,
            "empirical_max_error": self.empirical_max_error,
            "entanglement_qubits": self.entanglement_qubits,
            "trials": self.trials,
        }


def _marginal_input(psi):
    """Channel-input marginal from either a marginal or a bipartite pure state."""
    psi = _as_density(psi)
    if len(psi.system) == 1:
        return psi
    if len(psi.system) == 2:
        return partial_trace(psi, [psi.system.labels[1]])
    raise ValueError("expected a single-register state or a bipartite purification")


def _channel_test(channel, psi_a, eps):
    """Optimal test Omega on (B, C) and its D_H for the channel code.

    The test is between the channel output of the canonical purification of
    psi_a on (A, C) and the product of its marginals.
    """
    psi_a = DensityOperator(RegisterSystem([("A", psi_a.system.total_dim)]),
                            psi_a.matrix, validate=False)
    purif = canonical_purification(psi_a, "C")
    psi_bc = apply_channel(channel, purif, ["A"])
    ref = tensor(partial_trace(psi_bc, ["C"]), partial_trace(psi_bc, ["A"]))
    omega, type2 = neyman_pearson_operator(psi_bc, ref, eps)
    return omega, _dh_value(type2)


def _rate_cap(dh, eps, gamma, delta_prime):
    if not dh.finite:
        return float("inf")
    penalty = 5.0 + math.log2(4.0 * (eps + 4.0 * gamma ** 0.25) / delta_prime)
    return dh.value - penalty


def channel_rate_cap(channel, psi_a, eps, gamma, delta_prime):
    """Rate ceiling dh - 5 - log2(4 (eps + 4 gamma^(1/4)) / delta_prime).

    dh is the hypothesis-testing divergence between the channel output of the
    canonical purification of psi_a and the product of its marginals.
    Refuses gamma outside (0, 1) before the solve.
    """
    _gamma_fraction(gamma)
    _, dh = _channel_test(channel, _marginal_input(psi_a), eps)
    return _rate_cap(dh, eps, gamma, delta_prime)


def ea_channel_code(channel, psi_a, rate, eps, gamma, delta_prime, a, n,
                    enforce_cap=True):
    """Exact simulation of the flattened entanglement-assisted channel code.

    ``psi_a`` is Alice's channel-input state: either the single-register
    marginal or a two-register pure state whose first register is the channel
    input (only the marginal matters; the code runs on its canonical
    purification on registers (A, C)).  Down-rounding psi_A onto the
    gamma/|C| grid gives the shared resource |sigma>_AC, flattened into block
    registers E'/E with an embezzling pair D'/D of size n(M+1).  Message m is
    encoded by conjugating Alice's side with the transposed selected rotation
    through the flattening isometry; register A passes through the channel;
    Bob decodes with the square-root measurement over the rotated hypothesis
    tests.  Every message and shared-randomness branch is propagated exactly;
    no sampling.

    The code runs in the eigenbasis v of that rounding (``flat.basis``) on A
    and conj(v) on C.  There the resource is sum_c sqrt(q_c) |c>|c> (x)
    |xi^{a:n}>_{D'D} (x) |00>_{E'E}, W is the index map of
    ``unitary_flatten_W`` on (A, E', D') and on (C, E, D), and each HW
    rotation on the support pairs of (C, E) is a monomial matrix.  Only the
    Kraus operators (K v) and the test (v^T on C) are rotated.  gamma and the
    channel dimensions are checked before the hypothesis test is solved.

    ``rate`` = 0 (one message) is always admissible; rate >= 1 above the rate
    cap refuses with the computed ceiling unless ``enforce_cap`` is off (used
    to exercise error growth along a rate ladder).
    """
    psi_a = _marginal_input(psi_a)
    d_a = psi_a.system.total_dim
    if not 0 <= rate <= 6:
        raise ValueError("rate must lie in [0, 6] (message set capped at 64)")
    if channel.input_dim != d_a or channel.output_dim != d_a:
        raise ValueError("channel dimensions must match the A register")
    flat = round_spectrum(psi_a, gamma, "down")
    gamma_f = flat.gamma
    omega_test, dh = _channel_test(channel, psi_a, eps)
    cap = _rate_cap(dh, eps, float(gamma_f), delta_prime)
    if enforce_cap and rate >= 1 and rate > cap:
        raise ValueError(f"rate {rate} exceeds the admissible cap {cap:.6g}")

    counts, m_big, e_dim = flat.counts, flat.grid_total, flat.e_dim
    q = np.array(counts, dtype=float) / m_big
    if a < max(e_dim, 2):
        raise ValueError(f"a = {a} below the max block size {max(e_dim, 2)}")
    if n < a:
        raise ValueError(f"n = {n} below a = {a}")
    d_size = n * (m_big + 1)
    if not (n + 1) * e_dim <= d_size <= n * n:
        raise ValueError(f"|D| = {d_size} outside the unembezzling bracket; "
                         f"increase n to at least {m_big + 1}")
    d_dim = d_size + 1
    q_field = m_big * m_big
    n_messages = 2 ** rate
    if n_messages > q_field:
        raise ValueError("message set larger than the unitary family")

    # shared resource on (A, E', D', C, E, D)
    xi_pairs = embezzling_state(a, n).purification_vector(d_dim).reshape(
        d_dim, d_dim)
    shape = (d_a, e_dim, d_dim, d_a, e_dim, d_dim)
    init = np.zeros(shape, dtype=complex)
    init[:, 0, :, :, 0, :] = np.einsum("ac,pq->apcq", np.diag(np.sqrt(q)),
                                       xi_pairs)
    side_dims = (d_a, e_dim, d_dim)
    w_img = unitary_flatten_W(flat, d_dim)
    pairs = flat.support_index()

    def lifted(rot):
        """rot on the support pairs of (C, E), the identity elsewhere."""
        out = np.eye(d_a * e_dim, dtype=complex)
        out[np.ix_(pairs, pairs)] = rot
        return out

    # Bob's rotated tests U_y W (Omega (x) I) W^dag U_y^dag on (B, C, E, D)
    hw = hw_family(m_big)
    bob_dims = (d_a,) + side_dims
    om_lift = np.kron(act(omega_test, flat.basis.T, (d_a, d_a), [1]),
                      np.eye(e_dim * d_dim))
    om_moved = permute_basis(om_lift, np.argsort(w_img), bob_dims, [1, 2, 3])
    tests = [act(om_moved, lifted(u.matrix), bob_dims, [1, 2]) for u in hw]

    # channel outputs of Alice's encodings W^dag (U_y^T (x) I) W, as column
    # blocks on (B, C, E, D) over the Kraus index and (E', D')
    resource = init.reshape(d_a * e_dim * d_dim, -1)
    kraus = [k @ flat.basis for k in channel.kraus]
    columns = []
    for u in hw:
        u_enc = permute_basis(np.kron(lifted(u.matrix.T), np.eye(d_dim)),
                              w_img, side_dims, [0, 1, 2])
        enc = (u_enc @ resource).reshape(shape)
        columns.append(np.concatenate(
            [np.einsum("ba,aedcfg->bcfged", k, enc).reshape(
                -1, e_dim * d_dim) for k in kraus], axis=1))

    success_cache = {}

    def branch_successes(ys):
        """Success of every message m under the decoder for rotations ys."""
        if ys not in success_cache:
            groups = _inv_sqrt(sum(tests[y] for y in ys))
            success_cache[ys] = np.array(
                [_measured(groups, columns[y_m], tests[y_m]).sum()
                 for y_m in ys])
        return success_cache[ys]

    fam = pairwise_family(q_field)
    totals = np.zeros(n_messages)
    for ys in fam.images(range(n_messages)).reshape(-1, n_messages).tolist():
        totals += branch_successes(tuple(ys))
    errors = 1.0 - totals / (q_field * q_field)
    branch_count = n_messages * q_field * q_field

    # closed-form error budget with the embezzlement distortion replaced by
    # the computed purified overlap
    f_exact = sum(q[c] * purified_embezzle_fidelity(a, counts[c], n)
                  for c in range(d_a) if counts[c] >= 1)
    p_exact = math.sqrt(max(0.0, 1.0 - min(f_exact, 1.0) ** 2))
    bound = eps + 4.0 * float(gamma_f) ** 0.25 + delta_prime + 4.0 * p_exact
    delta_surrogate = max(math.log2(a) / math.log2(n), e_dim / a)
    ent_qubits = math.log2(d_a) + math.log2(d_size)
    return CodingReport(rate, eps, delta_surrogate, delta_prime,
                        float(gamma_f), bound, float(errors.max()), ent_qubits,
                        branch_count)


def entanglement_budget(d_a, gamma, delta_surrogate):
    """Closed-form shared-entanglement ceiling for the channel code."""
    return (1.0 / delta_surrogate) * math.log2(d_a / (gamma * delta_surrogate)) \
        + 2.0 * math.log2(d_a / gamma)


@dataclass(frozen=True)
class RedistributionBounds:
    """Communication/entanglement budgets for redistribution and merging."""

    redistribution_comm: float
    redistribution_ent: float
    merge_comm: float
    merge_ent: float


def redistribution_bounds(psi, r_labels, a_labels, b_labels, c_labels, eps,
                          delta):
    """Bound evaluation only (no protocol): redistribution and merging budgets.

    The redistribution communication minimizes over a fixed grid of reference
    states omega_C: the C marginal, the uniform state, and grid-rounded
    variants; entropic terms are evaluated unsmoothed (conservative).
    """
    psi = _as_density(psi)
    if psi.purity() < 1.0 - 1e-8:
        raise ValueError("redistribution bounds require a pure input state")
    labels = list(r_labels) + list(a_labels) + list(b_labels) + list(c_labels)
    if sorted(labels) != sorted(psi.system.labels):
        raise ValueError("partition labels do not cover the system")
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps and delta must lie in (0, 1)")
    psi = permute_registers(psi, labels)   # align marginals positionally

    c_dim = 1
    for lab in c_labels:
        c_dim *= psi.system.dim_of(lab)
    psi_c = partial_trace(psi, [lab for lab in psi.system.labels
                                if lab not in c_labels])
    mu_c = maximally_mixed(psi_c.system)

    candidates = [psi_c.matrix, mu_c.matrix]
    for g in (Fraction(1, 2), Fraction(1, 4)):
        if (Fraction(c_dim) / g).denominator == 1:
            for direction in ("up", "down"):
                candidates.append(
                    round_spectrum(psi_c, g, direction).sigma_matrix())

    psi_rbc = partial_trace(psi, a_labels)
    psi_rb = partial_trace(psi_rbc, c_labels)
    psi_bc = partial_trace(psi, list(r_labels) + list(a_labels))
    psi_b = partial_trace(psi_bc, c_labels)

    const = math.log2(32.0 / (eps ** 2 * delta ** 6))
    best = float("inf")
    for om_mat in candidates:
        om = DensityOperator(psi_c.system, om_mat, validate=False)
        d_top = dmax(psi_rbc, tensor(psi_rb, om))
        d_bot = dh_eps(psi_bc, tensor(psi_b, om), eps)
        if not d_top.finite:
            continue
        val = 0.5 * (d_top.value - d_bot.value + const)
        best = min(best, val)

    ent = (4.0 + 1.0 / delta) * math.log2(c_dim / delta)
    i_rc = imax(partial_trace(psi, list(a_labels) + list(b_labels)),
                (list(r_labels), list(c_labels)))
    merge_comm = 0.5 * i_rc.value + 2.0 + 2.0 * math.log2(1.0 / delta)
    return RedistributionBounds(best, ent, merge_comm, ent)
