"""Dense oracles and former bodies shared by the test modules.

The program keeps operators of the form A (x) I_f as the pair (A, f) and
reads their entries by `registers.kron_eye_entries`; the tests build them
in full here and compare against the dense result.  Where a faster body
replaced a plain one at the same arithmetic, the plain one is kept here and
the tests assert that both give the same bits.  The dense square-root
measurement (`hayashi_nagaoka_povm`), the one-input circuit simulator
(`simulate_basis`), the seeded pure states (`random_pure`), the dense form
of a `registers.Monomial` (`dense_matrix`) and the flattened state itself
(`flatten`) live here too: the program runs none of them.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from oneshot_qit.circuits import CircuitMetrics, Gate, _Builder
from oneshot_qit.coding import (INV_SQRT_CUT, _blocks, _eig_inv_sqrt,
                                _gathered)
from oneshot_qit.convexsplit import (_hw_gather, hw_translation_classes,
                                     pairwise_family, u_ell_index)
from oneshot_qit.entropy import (SUPPORT_TOL, TRACE_ROUNDING, _entropy_sum,
                                 _support_split)
from oneshot_qit.flatten import (FlatSpectrum, _rationalize_gamma,
                                 unitary_flatten_W)
from oneshot_qit.registers import (DensityOperator, Monomial, PureState,
                                   RegisterSystem, _block_eigvalsh,
                                   _check_dims, _components, _pattern_blocks,
                                   _root_sum, _size_groups, act,
                                   kron_eye_entries, reorder)


def dense_kron_eye(factor, f):
    """factor (x) I_f as one dense array: a `PrimeEnsemble`'s base is
    dense_kron_eye(ens.base_factor, ens.f_prime), and the flat decoder's
    lifted test is dense_kron_eye(*lifted_flat_test(...))."""
    return np.kron(factor, np.eye(f))


def traced_rotation(ens, base, ell):
    """Tr_F2(U_l base U_l^dag) on (R, F1, D), U_l applied to the dense
    ``base`` (dense_kron_eye(ens.base_factor, ens.f_prime)) by its gather
    map and F2 traced out entry by entry."""
    g = ens.f_prime
    keep = len(base) // g
    src = ens.source(ell).src
    return np.einsum("afbf->ab", base[np.ix_(src, src)].reshape(keep, g,
                                                                keep, g))


def lifted_marginal(ens):
    """I_F1 (x) ens.marginal(), its factors moved from (F1, R, D) to
    (R, F1, D): the program's claim for every traced rotation at l != 0."""
    return reorder(np.kron(np.eye(ens.f_prime), ens.marginal()),
                   (ens.f_prime, ens.r_dim, ens.d_dim), [1, 0, 2])


def exact_rotated_marginal(p, prime_reg, ell):
    """Tr_F2(U_l base U_l^dag) in exact rationals for the diagonal psi_RC
    with the `Fraction` entries p[r][c]: its diagonal, as a list [r][f1].

    The base of `convexsplit.PrimeEnsemble` is psi (x) mu_X on the q = 0
    states f1 = c|C| + x of F1, (x) mu_F2, and is diagonal; U_l moves the
    weight of each pair (f1, f2) to its image under `u_ell_index`, so no
    eigensolver and no tolerance enter."""
    c_dim, g = prime_reg.base_dim, prime_reg.prime
    image = u_ell_index(ell, g).tolist()
    out = [[Fraction(0)] * g for _ in p]
    for r, row in enumerate(p):
        for pair, to in enumerate(image):
            f1 = pair // g
            if f1 < c_dim * c_dim:
                out[r][to // g] += row[f1 // c_dim] / (c_dim * g)
    return out


def dense_reference_measures(ref, rho):
    """(D, F) of rho against an `entropy.Reference`, each from one plain
    dense eigvalsh of the whole matrix: the oracle of the reference's block
    route.  D is inf on a support violation."""
    terms = ref.log_terms(rho)
    d_val = float("inf") if terms is None else \
        _entropy_sum(np.linalg.eigvalsh(rho)) - terms[0] - terms[1]
    return d_val, min(_root_sum(np.linalg.eigvalsh(ref.sandwich(rho))), 1.0)


def dense_matrix(m, size=None):
    """The `registers.Monomial` ``m`` as a dense (..., n, size) array, with
    M[i, src[i]] = phase[i]; ``size`` defaults to n."""
    mat = np.zeros(m.src.shape + (size or m.src.shape[-1],), dtype=complex)
    np.put_along_axis(mat, m.src[..., None],
                      1.0 if m.phase is None else m.phase[..., None], -1)
    return mat


def flatten(sigma, gamma):
    """Extend a grid state sigma_C to sigma_CE (register E), uniform on its
    support: the flattened state itself, built dense at (|C| |E|)^2."""
    c_dim = sigma.system.total_dim
    gamma_frac, m_big = _rationalize_gamma(gamma, c_dim)
    vals, vecs = sigma._eigh()
    counts = []
    for v in vals:
        m = round(float(v) * m_big)
        if abs(float(v) - m / m_big) > 1e-12:
            raise ValueError(f"eigenvalue {v} is off the gamma/|C| grid")
        counts.append(int(m))
    flat = FlatSpectrum(gamma_frac, tuple(counts), vecs)
    weights = np.zeros(c_dim * flat.e_dim)
    weights[flat.support_index()] = 1.0 / m_big
    basis = np.kron(vecs, np.eye(flat.e_dim))
    system = RegisterSystem([(sigma.system.labels[0], c_dim), ("E", flat.e_dim)])
    return DensityOperator(system, (basis * weights) @ basis.conj().T,
                           validate=False)


def dense_hw_family(d):
    """Every V_y, y = a d + b, as a dense (d^2, d, d) array: the matrices of
    the gather maps `convexsplit._hw_gather`."""
    return dense_matrix(_hw_gather(*np.divmod(np.arange(d * d), d), d))


def dense_one_design_average(rho, label):
    """`convexsplit.one_design_average` by its former body: the sum of
    act(rho, V) over the dense `dense_hw_family` matrices V."""
    d = rho.system.dim_of(label)
    axes = rho.system.axes([label])
    acc = np.zeros_like(rho.matrix)
    for v in dense_hw_family(d):
        acc += act(rho.matrix, v, rho.system.dims, axes)
    return acc / (d * d)


def dense_hw_split_means(state, dims, n_mixed, seed, ref):
    """`convexsplit.hw_split_means` by its former body, which conjugates
    ``state`` by the dense `dense_hw_family` matrices through `act`."""
    d = dims[1]
    q = d * d
    family = pairwise_family(q)
    members = [int(j) for j in np.random.default_rng(seed).permutation(q)[:n_mixed]]
    keys, inverse = hw_translation_classes(family.images(members), d)
    hw = dense_hw_family(d)
    conj_cache = {}

    def conjugated(y):
        if y not in conj_cache:
            conj_cache[y] = act(state, hw[y], dims, [1])
        return conj_cache[y]

    r_dim, rest = dims[0], len(state) // dims[0]
    own = (state != 0).reshape(r_dim, rest, r_dim, rest).any(axis=(0, 2))
    own = own.reshape(d, rest // d, d, rest // d)
    union = np.zeros_like(own)
    for shift in set((keys // d).ravel().tolist()):
        union |= np.roll(own, shift, axis=(0, 2))
    pattern = _pattern_blocks(np.kron(np.ones((r_dim, r_dim), dtype=bool),
                                      union.reshape(rest, rest)))
    d_vals, f_vals = [], []
    for key in keys:
        block = np.zeros_like(state)
        for y in key:
            block += conjugated(int(y))
        block /= n_mixed
        d_val = ref.rel_entropy(block, pattern)
        if not np.isfinite(d_val):
            return float("inf"), 0.0
        d_vals.append(d_val)
        f_vals.append(ref.fidelity(block, pattern))
    d_total, f_total = 0.0, 0.0
    for c in inverse:
        d_total += d_vals[c]
        f_total += f_vals[c]
    return d_total / len(inverse), min(f_total / len(inverse), 1.0)


def dense_support_spectra(ens, subset, ref, keep):
    """`convexsplit.PrimeEnsemble._support_spectra` by its former body:
    tau and its sandwich built whole on the rows (R, ``keep``), and
    eigensolved on the blocks of their joint nonzero pattern.  The block
    route gathers the same entries, so it must give the same bits."""
    rows = (np.arange(ens.r_dim)[:, None] * ref.w_dim + keep).reshape(-1)
    tau = np.zeros((len(rows), len(rows)), dtype=complex)
    for ell in subset:
        src = ens.source(ell).src[rows]
        tau += kron_eye_entries(ens.base_factor, ens.f_prime,
                                src[:, None], src[None, :])
    tau /= len(subset)
    mid = ref.restricted(keep).sandwich(tau)
    blocks = _pattern_blocks(tau, mid)
    return _block_eigvalsh(tau, blocks), _block_eigvalsh(mid, blocks)


def loop_sector_spectra(ens, *factors):
    """`convexsplit.PrimeEnsemble._sector_spectra` by its former body, which
    sums every entry of every sector over t, g^2 steps in all, where the
    program takes sectors 1..g-1 by one inverse DFT."""
    g, rd = ens.f_prime, ens.r_dim * ens.d_dim
    delta, t = np.divmod(np.arange(g * g), g)
    i = np.where(delta == 0, t, delta * t % g).reshape(g, g)
    j = (i + np.arange(g)[:, None]) % g
    tau = Monomial(j).inverse().src[:, j]           # [delta', delta, t]
    tau = tau.transpose(1, 2, 0)                    # [delta, t, delta']
    i_tau = i[np.arange(g), tau]
    gathered = np.stack([reorder(f, (ens.r_dim, g, ens.d_dim), [0, 2, 1])
                         .reshape(rd, g, rd, g)[:, i[:, :, None], :, i_tau]
                         for f in factors])
    omega = np.exp(2j * np.pi * np.arange(g) / g)
    sector = np.where(delta == 0, 0, t)
    blocks = []
    for k in range(g):
        d_sel, k_sel = np.divmod(np.flatnonzero(sector == k), g)
        block = np.zeros((len(factors), len(d_sel), len(d_sel), rd, rd),
                         dtype=complex)
        for step in range(g):
            power = (k_sel * tau[d_sel[:, None], step, d_sel]
                     - (k_sel * step)[:, None]) % g
            block += omega[power][:, :, None, None] \
                * gathered[:, d_sel[:, None], step, d_sel]
        blocks.append(block.transpose(0, 3, 1, 4, 2).reshape(
            len(factors), rd * len(d_sel), -1) / g)
    parts = (blocks[0], np.stack(blocks[1:], axis=1))
    return list(np.concatenate([_block_eigvalsh(part).reshape(
        len(factors), -1) for part in parts], axis=1))


def lifted_classical_test(omega, d_b, c_dim, g):
    """The classical decoder's test on its host (B, G1, G2), built densely
    as its former body built it: Omega on (B, C0) (x) I on (Q, C1, G2), in
    the order (B, Q, C0, C1, G2)."""
    return reorder(np.kron(omega, np.eye(2 * c_dim * g)),
                   (d_b, c_dim, 2, c_dim, g), [0, 2, 1, 3, 4])


def _moved(mat, dims, flat, ed_op):
    """S^dag W (rot_C(mat) (x) ed_op) W^dag S on (..., S, D), by the former
    body of ``flatten._moved``: ``mat`` lives on ``dims`` with C last, and
    ``ed_op`` on (E, D)."""
    k = len(dims) - 1
    d_dim = ed_op.shape[0] // flat.e_dim
    rotated = act(mat, flat.basis.conj().T, dims, [k])
    supp = (flat.support_index()[:, None] * d_dim
            + np.arange(d_dim)).reshape(-1)
    moved = Monomial(supp).compose(
        Monomial(unitary_flatten_W(flat, d_dim)).inverse())
    return moved.lift(dims + (flat.e_dim, d_dim), [k, k + 1, k + 2]).conjugate(
        np.kron(rotated, ed_op))


def _embed_f1(ens, mat, q_op):
    """mat on (R, S, D) as an operator on (R, F1, D), by the former body of
    ``PrimeEnsemble.embed_f1``: F1 state q S^2 + s S + x carries
    mat (x) q_op on Q (x) I on X."""
    r, s, d = ens.r_dim, ens.s_dim, ens.d_dim
    big = np.kron(mat, np.kron(q_op, np.eye(s)))         # (R, S, D, Q, X)
    big = reorder(big, (r, s, d, 2, s), [0, 3, 1, 4, 2])  # (R, Q, S, X, D)
    return Monomial(np.arange(ens.f_prime)).lift(
        (r, 2, s, s, d), [1, 2, 3]).conjugate(big)


def lifted_flat_test(ens, flat, omega, dims):
    """The flat decoder's test omega on (B, C) as the pair (A, |F2|) on the
    ensemble's (B, F1, D, F2), by its former construction: Omega (x) I_ED
    moved by W onto supp (x) D and embedded into F1 with its q = 1 tail."""
    om_supp = _moved(omega, dims, flat, np.eye(flat.e_dim * ens.d_dim))
    return _embed_f1(ens, om_supp, np.eye(2)), ens.f_prime


def moved_channel_test(omega_test, flat, d_dim):
    """The channel code's test W (Omega_rot (x) I_ED) W^dag on (B, C, E, D),
    built densely as its former body built it; Omega_rot is Omega with C in
    the rounding's eigenbasis (v^T on C)."""
    d_a, e_dim = flat.c_dim, flat.e_dim
    om_lift = np.kron(act(omega_test, flat.basis.T, (d_a, d_a), [1]),
                      np.eye(e_dim * d_dim))
    return Monomial(unitary_flatten_W(flat, d_dim)).inverse().lift(
        (d_a, d_a, e_dim, d_dim), [1, 2, 3]).conjugate(om_lift)


def full_blocks(test, maps, branches):
    """`coding._blocks` by its former body, which labels every row of every
    branch: all blocks of every branch's S on its members' union pattern,
    in ascending size, blocks ordered by branch and smallest index."""
    factor, f = test
    n_members, dim = maps.src.shape
    inverse = maps.inverse(len(factor) * f).src
    rows, cols = (np.ravel(k[:, None] * f + np.arange(f))
                  for k in np.nonzero(factor))
    i, j = inverse[:, rows], inverse[:, cols]
    keep = (i >= 0) & (j >= 0)
    node = np.arange(n_members)[:, None] * dim
    own = _components((node + i)[keep], (node + j)[keep],
                      n_members * dim).reshape(n_members, dim) % dim
    offsets = np.arange(len(branches))[:, None, None] * dim
    roots = own[branches] + offsets
    labels = _components(np.broadcast_to(offsets + np.arange(dim),
                                         roots.shape).ravel(),
                         roots.ravel(), len(branches) * dim)
    return [(nodes[:, 0] // dim, nodes % dim) for nodes in _size_groups(labels)]


def dense_signal_successes(test, maps, branches, factors):
    """`coding._successes` by its former body, which takes every X_m as a
    dense (dim, cols) array, ``factors`` (n_members, dim, cols), and seeds
    and gathers its blocks from it: the same products, summed in the same
    order, so the row form must give the same bits."""
    branches = np.asarray(branches)
    n_terms, (n_members, dim) = branches.shape[1], maps.src.shape
    touched = (factors != 0).any(axis=2)
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
                    x_h = factors[m[:, None], ix].conj().swapaxes(-1, -2)
                    y = vecs @ (scale[..., None]
                                * (x_h @ vecs).conj().swapaxes(-1, -2))
                    np.add.at(out[start:start + step, j], b, np.einsum(
                        "bij,bij->b", y.conj(), part @ y).real)
    return out


def dense_rows(rows, values, shape):
    """The X_m of `coding._successes`' row form as one dense (n_members,
    dim, cols) array, for ``shape`` = (n_members, dim): ``values`` at the
    flat rows m dim + i of ``rows``, 0 elsewhere."""
    out = np.zeros((np.prod(shape), values.shape[-1]), dtype=values.dtype)
    out[rows] = values
    return out.reshape(tuple(shape) + (-1,))


def _stacked_inv_sqrt(total):
    """S^{-1/2} on supp(S) for a stack of Hermitian S >= 0 blocks."""
    vals, vecs = np.linalg.eigh(total)
    pos = vals > INV_SQRT_CUT
    scale = np.zeros_like(vals)
    scale[pos] = 1.0 / np.sqrt(vals[pos])
    return (vecs * scale[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def inv_sqrt_successes(test, maps, branches, factors):
    """`coding._successes` through S^{-1/2}: on the same blocks and chunks,
    one unbounded stack per block size, and per member the products
    S^{-1/2} F_m S^{-1/2} and X_m X_m^dag, traced against each other."""
    branches = np.asarray(branches)
    n_terms, (n_members, dim) = branches.shape[1], maps.src.shape
    touched = (factors != 0).any(axis=2)
    out = np.zeros(branches.shape)
    step = max(1, n_members * dim // n_terms)
    for start in range(0, len(branches), step):
        chunk = branches[start:start + step]
        hit = touched[chunk].any(axis=1)
        every_row = np.ones(hit.shape, dtype=bool)
        for br, idx in _blocks(test, maps, chunk, every_row):
            keep = hit[br[:, None], idx].any(axis=1)
            if not keep.any():
                continue
            br, idx = br[keep], idx[keep]
            members = chunk[br].T
            total = _gathered(test, maps, members[0], idx)
            for m in members[1:]:
                total += _gathered(test, maps, m, idx)
            inv = _stacked_inv_sqrt(total)
            for j, m in enumerate(members):
                x = factors[m[:, None], idx]
                gram = x @ x.conj().swapaxes(-1, -2)
                lam = inv @ _gathered(test, maps, m, idx) @ inv
                np.add.at(out[start:start + step, j], br,
                          np.einsum("bij,bji->b", lam, gram).real)
    return out


def breakpoint_search_test(rho, sigma, eps):
    """`entropy._threshold_test` with a plain binary search over the
    breakpoint clusters, from eigvalsh of the breakpoint matrix, in place of
    the predicted start and gallop; the rest of the body is the same."""
    _check_dims(rho, sigma)
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps {eps} outside [0, 1)")
    eps = float(eps)
    d = rho.total_dim
    svals, svecs, pos, r0 = _support_split(rho, sigma)
    r0 = max(r0, 0.0)
    # sigma-kernel weight is free: include the whole kernel projector
    ker_vecs = svecs[:, ~pos]
    pi = np.zeros((d, d), dtype=complex)
    pi += ker_vecs @ ker_vecs.conj().T

    if 1.0 - eps >= rho.trace() - TRACE_ROUNDING:
        # Tr(Pi rho) = 1 forces Pi >= supp(rho); optimum is exactly that projector
        rvals, rvecs = rho._eigh()
        supp = rvecs[:, rvals > SUPPORT_TOL]
        pi = supp @ supp.conj().T
        type2 = float(np.real(np.trace(pi @ sigma.matrix)))
        return max(type2, 0.0), pi

    target = 1.0 - eps - r0
    if target <= 1e-12:
        # enough free mass in the sigma-kernel: scale it to hit 1-eps exactly
        if r0 > 0:
            pi *= (1.0 - eps) / r0
        return 0.0, pi

    vs = svecs[:, pos]
    sv = svals[pos]
    rho_c = vs.conj().T @ rho.matrix @ vs       # compressed to supp(sigma)
    rho_c = (rho_c + rho_c.conj().T) / 2
    n = len(sv)
    diag = np.diag_indices(n)

    def probe_at(t):
        """(eigenvalues, eigenvectors, <v|sigma_c|v>, f(t)) of rho_c - t sigma_c."""
        shifted = rho_c.copy()
        shifted[diag] -= t * sv
        vals, vecs = np.linalg.eigh(shifted)
        sig_w = (vecs.real ** 2 + vecs.imag ** 2).T @ sv
        sel = vals > 1e-10 * (1.0 + t)
        # <v|rho_c|v> = val + t <v|sigma_c|v>
        return vals, vecs, sig_w, float(np.sum(vals[sel] + t * sig_w[sel]))

    # f(t) = 0 from t_top on: the top of sigma^{-1/2} rho sigma^{-1/2}, widened
    inv_half = 1.0 / np.sqrt(sv)
    rel = (rho_c * inv_half[None, :]) * inv_half[:, None]
    t_top = float(np.linalg.eigvalsh(rel)[-1]) * (1 + 1e-9) + 1e-12
    # f jumps where an eigenvalue of rho_c - t sigma_c crosses the kernel
    # tolerance 1e-10 (1 + t): at the generalized eigenvalues of
    # (rho_c - 1e-10, sigma_c + 1e-10), clustered within 5e-13 relative
    inv_half = 1.0 / np.sqrt(sv + 1e-10)
    rel = ((rho_c - 1e-10 * np.eye(n)) * inv_half[None, :]) * inv_half[:, None]
    lam = np.linalg.eigvalsh(rel)
    # with nothing of rho_c above the tolerance, f = 0 for all t > 0: t* = 0
    lam = lam[lam > 0] if lam[-1] > 0 else np.zeros(1)
    gap = np.diff(lam) > 0.5e-12 * np.maximum(1.0, lam[1:])
    starts, ends = lam[np.append(True, gap)], lam[np.append(gap, True)]
    delta = 0.25e-12 * np.maximum(1.0, ends)

    # binary search for the first cluster whose right side meets the target;
    # the bracket keeps f(t_lo) > target >= f(t_hi)
    t_lo, g_lo = 0.0, float(np.real(np.trace(rho_c))) - target
    t_hi, g_hi, t_next = t_top, -target, None
    lo, hi = -1, len(ends)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        t = ends[mid] + delta[mid]
        g = probe_at(t)[-1] - target
        if g <= 0:
            hi, t_hi, g_hi = mid, t, g
            # a probe here closes the bracket if t* is this jump
            t_next = starts[mid] - delta[mid]
        else:
            lo, t_lo, g_lo = mid, t, g

    # safeguarded secant inside the bracket, down to the bisection's width
    prev, cur = (t_lo, g_lo), (t_hi, g_hi)
    step_old = step = t_hi - t_lo
    while t_hi - t_lo >= 1e-12 * max(1.0, t_hi):
        if t_next is not None:
            t, t_next = t_next, None
        else:
            t = 0.5 * (t_lo + t_hi)
            if cur[1] != prev[1]:
                sec = cur[0] - cur[1] * (cur[0] - prev[0]) / (cur[1] - prev[1])
                if t_lo <= sec <= t_hi and abs(sec - cur[0]) <= 0.5 * step_old:
                    t = sec
            step_old, step = step, abs(t - cur[0])
            prev = cur
        tol = 0.4e-12 * max(1.0, t_hi)
        t = min(max(t, t_lo + tol), t_hi - tol)
        g = probe_at(t)[-1] - target
        if g <= 0:
            t_hi = t
        else:
            t_lo = t
        cur = (t, g)

    # replay the bisection on [0, t_top]: the bracket decides the midpoints
    # outside it and a probe those inside, so t is the bisection's end point
    # and a kernel of dimension > 1 is split in the same eigenbasis
    a, b, best = 0.0, t_top, None
    while b - a >= 1e-12 * max(1.0, b):
        mid = (a + b) / 2
        if t_lo < mid < t_hi:
            probe = probe_at(mid)
            below = probe[-1] <= target
            if below:
                best = (mid, probe)
        else:
            below = mid >= t_hi
        if below:
            b = mid
        else:
            a = mid
    t = b
    vals, vecs, sig_w, taken = best[1] if best and best[0] == t else probe_at(t)
    ktol = 1e-10 * (1.0 + t)
    weights = (vals > ktol).astype(float)
    type2 = float(np.sum(sig_w[vals > ktol]))
    deficit = target - taken
    if deficit > 0:
        for idx in np.flatnonzero(np.abs(vals) <= ktol):   # ascending index
            v = vecs[:, idx]
            rw = float(np.real(v.conj() @ rho_c @ v))
            if rw <= 1e-15:
                continue
            weights[idx] = min(1.0, deficit / rw)
            type2 += weights[idx] * sig_w[idx]
            deficit -= weights[idx] * rw
            if deficit <= 1e-14:
                break
    pi_c = (vecs * weights) @ vecs.conj().T
    pi += vs @ pi_c @ vs.conj().T
    return max(type2, 0.0), pi




def kron_slack(xb, rho_mat):
    """I_A (x) X_B - rho with the dense product built (`entropy._slack`)."""
    return np.kron(np.eye(len(rho_mat) // len(xb)), xb) - rho_mat


def generator_metrics(circuit):
    """`circuits.metrics` with each layer taken as a max over a generator."""
    layer = [0] * circuit.wire_count
    depth = 0
    for g in circuit.gates:
        lev = 1 + max((layer[w] for w in g.controls + (g.target,)),
                      default=0)
        for w in g.controls + (g.target,):
            layer[w] = lev
        depth = max(depth, lev)
    return CircuitMetrics(len(circuit.gates), depth, len(circuit.ancilla_wires()))


class PlainBuilder(_Builder):
    """`circuits._Builder` that builds a new Gate for every gate it emits."""

    def _emit(self, kind, target, controls=()):
        self.gates.append(Gate(kind, target, controls))


def simulate_basis(circuit, bits):
    """Classical simulation of one basis input; returns the same kind as given."""
    was_str = isinstance(bits, str)
    state = [int(b) for b in bits]
    if len(state) != circuit.wire_count:
        raise ValueError(f"input length {len(state)} != wire count {circuit.wire_count}")
    if any(b not in (0, 1) for b in state):
        raise ValueError("basis input entries must be 0 or 1")
    for g in circuit.gates:
        if all(state[c] for c in g.controls):
            state[g.target] ^= 1
    return "".join(map(str, state)) if was_str else state


def random_pure(seed, system):
    """Seeded Haar-random pure state via a normalized complex Gaussian vector."""
    d = system.total_dim
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(system, vec / np.linalg.norm(vec), validate=False)


def plain_random_density(seed, d, rank):
    """The plain expression `registers.random_density` computes in place:
    G G^dag / Tr, Hermitised as (M + M^dag) / 2, as a d x d array."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    mat /= np.real(np.trace(mat))
    return (mat + mat.conj().T) / 2


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
    vecs, scale = _eig_inv_sqrt(sum(operators))
    vecs_h = vecs.conj().T
    inv_half, supp = (vecs * scale) @ vecs_h, (vecs * (scale > 0)) @ vecs_h
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
