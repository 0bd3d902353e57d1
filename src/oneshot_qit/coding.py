"""Position-based decoding and entanglement-assisted channel coding.

The decoders report per-position success probabilities of the square-root
(Hayashi-Nagaoka) measurement over the rotated tests U_l Omega U_l^dag,
read from the signal states U_l tau U_l^dag, whose nonzero rows are those of
tau's eigenvectors moved by the U_l; no measurement element is built.
The channel code runs the full protocol exactly: shared flattened-purification
and embezzling resources, transpose-trick encoding on Alice's side, a channel
application, and square-root decoding on Bob's side, over every message and
shared-randomness branch (no sampling).  It runs in the eigenbasis of its
own rounding of psi_A, where the flattening permutation and the
Heisenberg-Weyl rotations map basis vectors to basis vectors, up to a phase.
The rate cap, the code and each decoder take the test and its D_H from one
Neyman-Pearson solve.

Every protocol's square-root measurement Lambda_m = S^{-1/2} Omega_m S^{-1/2}
runs in `_successes` over one test, the protocol's own Neyman-Pearson test
Omega on (B, C) as the pair (Omega, f) for Omega (x) I_f, and a
`registers.Monomial` family of member maps into which every coordinate
change (a factor reorder, the F1 embedding, the move by W) is composed.
``_eig_inv_sqrt`` is the only place that cuts a support (the tests' dense
square-root measurement's, too).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .convexsplit import (_classical_ensemble, _hw_gather, _members,
                          pairwise_family, prime_register)
from .entropy import _dh_value, _threshold_test, dh_eps, dmax, imax
from .flatten import (_embezzle_rule, _flat_ensemble, _gamma_fraction,
                      _w_move, check_unembezzle, embezzling_state,
                      harmonic_sum, purified_embezzle_fidelity,
                      round_spectrum, unitary_flatten_W)
from .registers import (Check, DensityOperator, Monomial, RegisterSystem,
                        _components, _size_groups, act, canonical_purification,
                        kron_eye_entries, kron_eye_nonzeros, maximally_mixed,
                        partial_trace, permute_registers, tensor)

INV_SQRT_CUT = 1e-12
"""Eigenvalues of S at or below this lie outside supp(S), where S^{-1/2} is 0."""
ERROR_ROUNDING = 1e-9
"""How far rounding may move a channel-code error past 0, 1 or its floor."""


@dataclass(frozen=True)
class QuantumChannel:
    """CPTP map on one register of dimension ``dim``, given by square
    (dim, dim) Kraus operators: the output register has the input's size."""

    kraus: tuple
    dim: int
    name: str = "channel"

    def __post_init__(self):
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for k in self.kraus:
            if k.shape != (self.dim, self.dim):
                raise ValueError("Kraus operator shape mismatch")
            acc += k.conj().T @ k
        # written as "not <=" so that a NaN entry fails too
        if not float(np.max(np.abs(acc - np.eye(self.dim)))) <= 1e-9:
            raise ValueError("Kraus operators are not trace preserving")


def _check_range(name, value, top):
    if not 0 <= value <= top:
        raise ValueError(f"{name} = {value} outside [0, {top:.4g}]")


def identity_channel(dim=2):
    return QuantumChannel((np.eye(dim, dtype=complex),), dim, "identity")


def depolarizing_channel(p):
    """rho -> (1 - p) rho + p mu, p in [0, 4/3], by the uniform Pauli Kraus set.

    p above 1 stays completely positive up to 4/3, where no weight is left
    on the identity.
    """
    _check_range("p", p, 4 / 3)
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    weights = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
    kraus = tuple(np.sqrt(w) * m.astype(complex) for w, m in zip(weights, paulis))
    return QuantumChannel(kraus, 2, f"depolarizing({p})")


def apply_channel(channel, state, labels):
    """Apply the channel to the named registers (Kraus sum, trace preserved)."""
    labels = list(labels)
    d_act = state.system.subsystem(labels).total_dim
    if d_act != channel.dim:
        raise ValueError(f"registers {labels} have dim {d_act}, "
                         f"channel expects {channel.dim}")
    axes = state.system.axes(labels)
    acc = np.zeros_like(state.matrix)
    for k in channel.kraus:
        acc += act(state.matrix, k, state.system.dims, axes)
    return DensityOperator(state.system, acc, validate=False)


def neyman_pearson_operator(rho, sigma, eps):
    """Optimal test 0 <= Pi <= I with Tr(Pi rho) >= 1 - eps minimizing Tr(Pi sigma).

    Returns (Pi, type2); -log2(type2) equals dh_eps(rho, sigma, eps).
    """
    return _threshold_test(rho, sigma, eps)[::-1]


def _blocks(test, maps, branches, seeds):
    """The blocks of every branch's S on its members' union pattern that
    hold a seed.

    Member m is ``test`` = (A, f), the operator A (x) I_f, read through map
    m of the `Monomial` family ``maps`` (n_members, dim), a permutation or a
    compression; ``branches`` (n_branches, n_terms) lists the members summed
    into each S, and the bool ``seeds`` (n_branches, dim) marks the rows to
    keep.  S and its members are exactly block-diagonal on the components
    of the union of the members' nonzero patterns (nothing is thresholded).
    `_components` labels every member's pattern (`kron_eye_nonzeros`) at
    once, as nodes m dim + i.  Each branch's rows grow from its seeds, one
    member's components at a time, until no member adds a row; the reached rows
    are joined, row i of branch b to own[m, i] for each member m of b.
    Returns per block size, ascending, the branch of each block (n_blocks,)
    and its indices (n_blocks, size), blocks by branch and smallest index.
    """
    n_members, dim = maps.src.shape
    i, j, keep = kron_eye_nonzeros(*test, maps)
    node = np.arange(n_members)[:, None] * dim
    own = _components((node + i)[keep], (node + j)[keep],
                      n_members * dim).reshape(n_members, dim) % dim
    n_terms, offset = branches.shape[1], np.arange(len(branches))[:, None] * dim
    reached, closed, t = seeds.ravel(), 0, 0
    while closed < n_terms:      # closed under the last `closed` members
        roots = own[branches[:, t]]     # i's root in b's t-th member,
        roots += offset                 # as node b dim + root
        roots = roots.ravel()
        hit = np.zeros_like(reached)
        hit[roots[reached]] = True
        grown = hit[roots]
        closed = closed + 1 if np.array_equal(grown, reached) else 1
        reached, t = grown, (t + 1) % n_terms
    nodes = np.flatnonzero(reached)
    b, i = np.divmod(nodes, dim)
    to_root = np.searchsorted(nodes, own[branches[b].T, i] + b * dim)
    labels = _components(np.broadcast_to(np.arange(len(nodes)),
                                         to_root.shape), to_root, len(nodes))
    return [(block[:, 0] // dim, block % dim)
            for block in (nodes[group] for group in _size_groups(labels))]


def _eig_inv_sqrt(total):
    """(V, s) with S = V diag(vals) V^dag for a stack of Hermitian S >= 0
    blocks (..., k, k), and s = vals^{-1/2} on supp(S), 0 elsewhere, so
    S^{-1/2} = V diag(s) V^dag.

    One stacked eigensolve; eigenvalues above INV_SQRT_CUT count as the
    support.  Every square-root measurement cuts its support here.
    """
    vals, vecs = np.linalg.eigh(total)
    pos = vals > INV_SQRT_CUT
    scale = np.zeros_like(vals)
    scale[pos] = 1.0 / np.sqrt(vals[pos])
    return vecs, scale


def _gathered(test, maps, members, idx):
    """Member members[k] of `_successes` on the indices idx[k], stacked."""
    return maps[members[:, None], idx].conjugate(
        lambda rows, cols: kron_eye_entries(*test, rows, cols))


def _successes(test, maps, branches, rows, values):
    """Re Tr(S_b^{-1/2} F_m S_b^{-1/2} X_m X_m^dag) for every branch b and
    its j-th member m = branches[b, j], as an (n_branches, n_terms) array.

    F_m[i, j] = phase[m, i] test[src[m, i], src[m, j]] conj(phase[m, j]),
    with ``test`` = (A, f) standing for A (x) I_f and ``maps`` the
    `Monomial` family (n_members, dim); S_b sums the members of row b of
    ``branches`` in row order.  X_m (dim, cols) comes by its rows: ``rows``
    lists row i of X_m as m dim + i, each once, and ``values`` (len(rows),
    cols) the entries there; it is 0 elsewhere and never built.  Only the
    blocks that `_blocks` grows from the rows where some X_m of the branch
    is nonzero are gathered from ``test`` (once per member, for S and
    F_m Y) and eigensolved by `_eig_inv_sqrt`, in stacks per block size for
    each chunk of branches.  On a block, with S = V diag(vals) V^dag and
    s = vals^{-1/2} on its support, the trace is Re sum conj(Y) (F_m Y)
    over Y = V (s V^dag X_m): no S^{-1/2} or X_m X_m^dag is built.  A
    chunk's n_terms x dim member rows, and a stack's n_terms member blocks,
    hold no more than the n_members x dim^2 member entries.
    """
    branches = np.asarray(branches)
    n_terms, (n_members, dim) = branches.shape[1], maps.src.shape
    # where row i of X_m is in ``rows``, or -1 for a zero row of X_m
    pos = Monomial(rows).inverse(n_members * dim).src.reshape(n_members, dim)
    touched = np.append(values.any(axis=1), False)[pos]
    out = np.zeros(branches.shape)
    step = max(1, n_members * dim // n_terms)
    for start in range(0, len(branches), step):
        chunk = branches[start:start + step]
        seeds = touched[chunk].any(axis=1)
        for br, idx in _blocks(test, maps, chunk, seeds):
            stack = max(1, n_members * dim * dim
                        // (n_terms * idx.shape[1] ** 2))
            for at in range(0, len(br), stack):
                b, ix = br[at:at + stack], idx[at:at + stack]
                members = chunk[b].T
                parts = [_gathered(test, maps, m, ix) for m in members]
                vecs, scale = _eig_inv_sqrt(sum(parts[1:], parts[0]))
                for j, (m, part) in enumerate(zip(members, parts)):
                    at = pos[m[:, None], ix]
                    y = values[at]
                    y[at < 0] = 0
                    # V^dag X as (X^dag V)^dag, no more than two y live
                    y = np.conjugate(y, out=y).swapaxes(-1, -2) @ vecs
                    y = np.conjugate(y, out=y).swapaxes(-1, -2)
                    y *= scale[..., None]
                    y = vecs @ y
                    f_y = part @ y
                    np.add.at(out[start:start + step, j], b, np.einsum(
                        "bij,bij->b", np.conjugate(y, out=y), f_y).real)
    return out


def _member_signals(maps, rows, values, weights):
    """The signal vectors sqrt(weights[c]) |c>, |c> being ``values[:, c]``
    on ``rows``, moved by each map of the `Monomial` family ``maps``, in
    the row form of `_successes`; ``values`` is weighed in place."""
    values *= np.sqrt(weights)
    inverse = maps.inverse().src
    at = inverse[:, rows] + np.arange(len(inverse))[:, None] * inverse.shape[1]
    return at.ravel(), np.broadcast_to(values, (len(at),) + values.shape
                                       ).reshape(-1, values.shape[1])


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
    cap = (delta ** 2 / (4.0 * eps)) * (2.0 ** dh.value)
    if size > cap:
        raise ValueError(f"subset size {size} exceeds the cap {cap:.6g}")
    return omega, dh, cap


def _decode_report(subset, successes, eps, delta, cap, cross, coarse):
    """Report of the successes of ``subset``, with the floors
    1 - eps - coarse delta and (Hayashi-Nagaoka, c = delta / eps)
    1 - eps - delta - (2 + c + 1/c)(|S| - 1) cross."""
    successes = dict(zip(subset, successes.tolist()))
    c = delta / eps
    exact = 1.0 - eps - delta - (2 + c + 1 / c) * (len(successes) - 1) * cross
    return PositionDecodeReport(successes, min(successes.values()),
                                1.0 - eps - coarse * delta, exact, cap)


def position_based_decode_classical(psi, prime_reg, subset, eps, delta):
    """Identify which cyclic rotation U_l carries the signal state.

    psi lives on (B..., C) with C last; the test family is the rotated optimal
    hypothesis test between psi and psi_B (x) mu_C.  The subset size must
    respect the cap (delta^2 / 4 eps) 2^dh, else the call refuses.  The
    signal state tau_l is U_l (sum_c w_c |c><c|) U_l^dag over the ensemble's
    signal vectors |c>, so tau_l = X_l X_l^dag with X_l = U_l (the weighted
    signals), the columns that `_successes` reads.
    """
    g = prime_reg.prime
    subset = _members(subset, g)
    c_dim = psi.system.dims[-1]
    ens, psi_b = _classical_ensemble(psi, prime_reg)
    ref = tensor(psi_b, maximally_mixed(psi.system.subsystem(
        psi.system.labels[-1:])))
    omega, dh, cap = _decoder_test(psi, ref, len(subset), eps, delta)

    # The host (B, G1, G2) keeps all 2|C|^2 states of G1 = Q C0 C1, with the
    # U_l on the first g: Omega (x) I maps those into the tail, so
    # compressing G1 to the prime register would change the measurement.
    compress, order = ens.layout(g)
    host = len(order.src)
    rows, values, weights = ens.signals()
    maps = ens.source(subset).embed(compress.src, host)
    successes = _successes(
        (omega, host // len(omega)), maps.compose(order), [range(len(subset))],
        *_member_signals(maps, compress.src[rows], values, weights))
    cross = (2.0 * c_dim * c_dim / g) * 2.0 ** (-dh.value)
    return _decode_report(subset, successes[0], eps, delta, cap, cross, 4)


def position_based_decode_flat(psi, omega_c, gamma, subset, eps, delta, a, n,
                               d_size):
    """Position decoding through the flattened/embezzled prime-register family.

    The test family is {U_l W Omega W^dag U_l^dag} on (B, F1, D, F2); the
    report carries the exact-ratio analogue of the coarse success bound.
    The signal state is theta (x) mu_X1 (x) mu_F2, whose eigenvectors are
    the ensemble's signal vectors, read as in the classical decoder.
    """
    flat = round_spectrum(omega_c, gamma, "down")
    if a != flat.e_dim:
        raise ValueError(f"a = {a} must equal |E| = {flat.e_dim}")
    _embezzle_rule(a, a, n, d_size)
    reg = prime_register(flat.grid_total)
    subset = _members(subset, reg.prime)

    psi_b = partial_trace(psi, [psi.system.labels[-1]])
    omega, dh, cap = _decoder_test(psi, tensor(psi_b, omega_c),
                                   len(subset), eps, delta)

    # the ensemble's space in the test's (B, C, E, D, Q, X, F2): F1 in its
    # host, then (S, D) moved by W into (C, E, D)
    ens = _flat_ensemble(psi, flat, a, n, d_size + 1)
    k, rest = len(psi.system) - 1, (2, ens.s_dim, ens.f_prime)
    compress, order = ens.layout(ens.f_prime)
    layout = compress.compose(order).compose(
        _w_move(flat, psi.system.dims, ens.d_dim, rest))
    test = (act(omega, flat.basis.conj().T, psi.system.dims, [k]),
            flat.e_dim * ens.d_dim * math.prod(rest))
    maps = ens.source(subset)
    successes = _successes(test, maps.compose(layout), [range(len(subset))],
                           *_member_signals(maps, *ens.signals()))

    ratio_emb = harmonic_sum(1, n) / harmonic_sum(a, n)
    f1_factor = 2.0 * ens.s_dim * ens.s_dim / ens.f_prime
    r2 = max(check_unembezzle(a, b, n, d_size)[0]
             for b in set(flat.counts) if b >= 1)
    cross = ratio_emb * f1_factor * r2 / (1.0 - float(flat.gamma)) \
        * 2.0 ** (-dh.value)
    return _decode_report(subset, successes[0], eps, delta, cap, cross, 64)


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

    def bound_check(self):
        return Check("error bound", self.empirical_max_error,
                     self.analytic_error_bound, "<=", 1e-9)

    def bound_satisfied(self):
        return self.bound_check().holds

    def as_record(self):
        return asdict(self)


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
    penalty = 5.0 + math.log2(4.0 * (eps + 4.0 * gamma ** 0.25) / delta_prime)
    return dh.value - penalty


def channel_rate_cap(channel, psi_a, eps, gamma, delta_prime):
    """Rate ceiling dh - 5 - log2(4 (eps + 4 gamma^(1/4)) / delta_prime).

    dh is the hypothesis-testing divergence between the channel output of the
    canonical purification of psi_a and the product of its marginals.
    Refuses gamma outside (0, 1) before the solve.
    """
    _gamma_fraction(gamma)
    _, dh = _channel_test(channel, psi_a, eps)
    return _rate_cap(dh, eps, gamma, delta_prime)


def ea_channel_code(channel, psi_a, rate, eps, gamma, delta_prime, a, n,
                    enforce_cap=True):
    """Exact simulation of the flattened entanglement-assisted channel code.

    ``psi_a`` is Alice's channel-input state on the channel's one register;
    the code runs on its canonical purification on (A, C).  Down-rounding
    psi_A onto the gamma/|C| grid gives the shared resource |sigma>_AC,
    flattened into block registers E'/E with an embezzling pair D'/D of
    size n(M+1).  Message m is encoded by conjugating Alice's side with the
    transposed selected rotation through the flattening isometry; register
    A passes through the channel; Bob decodes with the square-root
    measurement over the rotated hypothesis tests.  Every message and
    shared-randomness branch is propagated exactly; no sampling.

    The code runs in the eigenbasis v of that rounding (``flat.basis``) on A
    and conj(v) on C, where the resource is one diagonal matrix and W and
    each HW rotation are gather maps (the steps below say how); only the
    Kraus operators (K v) and the test (v^T on C) are rotated.  Every
    refusal but the rate cap's, which needs D_H, comes before the solve.

    ``rate`` = 0 (one message) is always admissible; rate >= 1 above the rate
    cap refuses with the computed ceiling unless ``enforce_cap`` is off (used
    to exercise error growth along a rate ladder).  At rate 0 each branch
    has one member, so S = F and the measurement projects onto supp F: the
    error is the output's mass off the test's support.  On a degenerate
    kernel (threefold for depolarizing(0.1)) that mass, unlike D_H, depends
    on the kernel vectors the fill of `entropy._threshold_test` picks; its
    bisection replay pins the pick.
    """
    d_a = psi_a.system.total_dim
    if not 0 <= rate <= 6:
        raise ValueError("rate must lie in [0, 6] (message set capped at 64)")
    if channel.dim != d_a:
        raise ValueError("channel dimensions must match the A register")
    flat = round_spectrum(psi_a, gamma, "down")
    counts, m_big, e_dim = flat.counts, flat.grid_total, flat.e_dim
    d_size = n * (m_big + 1)
    _embezzle_rule(a, e_dim, n, d_size)
    q_field, n_messages = m_big * m_big, 2 ** rate
    if n_messages > q_field:
        raise ValueError("message set larger than the unitary family")
    omega_test, dh = _channel_test(channel, psi_a, eps)
    cap = _rate_cap(dh, eps, float(flat.gamma), delta_prime)
    if enforce_cap and rate >= 1 and rate > cap:
        raise ValueError(f"rate {rate} exceeds the admissible cap {cap:.6g}")

    q, d_dim = np.array(counts, dtype=float) / m_big, d_size + 1

    # shared resource, rows (A, E', D') by columns (C, E, D): diagonal,
    # sqrt(q_c xi_j) at (c, 0, j) on both sides
    resource = np.diag(np.kron(np.sqrt(q), np.kron(
        np.eye(e_dim)[0], embezzling_state(a, n).amplitudes(d_dim))))
    side_dims = (d_a, e_dim, d_dim)
    w_dag = Monomial(unitary_flatten_W(flat, d_dim))  # gathers by W's image

    # Bob's members V_y W (Omega (x) I_ED) W^dag V_y^dag on (B, C, E, D),
    # with Omega rotated on C.  Each V_y is V_y on the support pairs of
    # (C, E) and the identity elsewhere, and Alice's encoding
    # W^dag (V_y^T (x) I) W gathers the resource's rows on (A, E', D')
    bob_dims = (d_a,) + side_dims
    v = _hw_gather(*np.divmod(np.arange(q_field), m_big), m_big).embed(
        flat.support_index(), d_a * e_dim)
    members = v.lift(bob_dims, [1, 2]).compose(
        w_dag.inverse().lift(bob_dims, [1, 2, 3]))
    encode = w_dag.compose(v.transpose().lift(side_dims, [0, 1])).compose(
        w_dag.inverse())

    # their channel outputs, as column blocks on (B, C, E, D) over the Kraus
    # index and the (E', D') that some encoding reaches: every other column
    # is exactly 0, since a resource row is 0 off E' = 0 and supp xi
    reached = resource.any(axis=1)[encode.src].reshape(
        q_field, d_a, -1).any(axis=(0, 1))
    sent = np.arange(len(resource)).reshape(d_a, -1)[:, reached]
    enc = encode[:, sent].apply(resource)
    kraus = np.stack([k @ flat.basis for k in channel.kraus])
    columns = np.einsum("kba,yaxj->ybjkx", kraus, enc).reshape(
        q_field * members.src.shape[1], -1)
    rows = np.flatnonzero(columns.any(axis=1))      # member y's row i: y dim + i

    images = pairwise_family(q_field).images(range(n_messages))
    branches, inverse = np.unique(images.reshape(-1, n_messages), axis=0,
                                  return_inverse=True)
    totals = _successes((act(omega_test, flat.basis.T, (d_a, d_a), [1]),
                         e_dim * d_dim), members, branches, rows,
                        columns[rows])[inverse].sum(axis=0)
    errors = 1.0 - totals / (q_field * q_field)
    # each error is a probability, and with d_B outputs no entanglement-
    # assisted code of M messages has a mean success above d_B^2 / M
    # (Nayak & Salzman, J. ACM 53, 184, 2006)
    floor = 1.0 - channel.dim ** 2 / n_messages
    Check("least error", errors.min(), 0.0, ">=", ERROR_ROUNDING).require()
    Check("greatest error", errors.max(), 1.0, "<=", ERROR_ROUNDING).require()
    Check("converse floor", errors.mean(), floor, ">=", ERROR_ROUNDING).require()
    branch_count = n_messages * q_field * q_field

    # closed-form error budget with the embezzlement distortion replaced by
    # the computed purified overlap
    f_exact = sum(q[c] * purified_embezzle_fidelity(a, counts[c], n)
                  for c in range(d_a) if counts[c] >= 1)
    p_exact = math.sqrt(max(0.0, 1.0 - min(f_exact, 1.0) ** 2))
    bound = eps + 4.0 * float(flat.gamma) ** 0.25 + delta_prime + 4.0 * p_exact
    delta_surrogate = max(math.log2(a) / math.log2(n), e_dim / a)
    ent_qubits = math.log2(d_a) + math.log2(d_size)
    return CodingReport(rate, eps, delta_surrogate, delta_prime,
                        float(flat.gamma), bound, float(errors.max()), ent_qubits,
                        branch_count)


def entanglement_budget(d_a, gamma, delta_surrogate):
    """Closed-form shared-entanglement budget for the channel code.

    Not a ceiling at every (a, n): at mu_A, rate 0, eps = 0.05 and
    delta' = 0.5, the point (gamma, a, n) = (1/2, 2, 8) uses 6.3219 qubits
    against a budget of 6.0000.  Criterion 10, the CLI and the benchmark
    check it only at gamma = 1/2 with a = 4 (n = 16, 8 and 5).
    """
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
    if psi.purity() < 1.0 - 1e-8:
        raise ValueError("redistribution bounds require a pure input state")
    labels = list(r_labels) + list(a_labels) + list(b_labels) + list(c_labels)
    if sorted(labels) != sorted(psi.system.labels):
        raise ValueError("partition labels do not cover the system")
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ValueError("eps and delta must lie in (0, 1)")
    psi = permute_registers(psi, labels)   # align marginals positionally

    c_dim = psi.system.subsystem(c_labels).total_dim
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
