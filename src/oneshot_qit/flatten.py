"""Spectrum flattening via embezzling states and the flattened convex splits.

An embezzling state carries harmonic weights 1/j on basis labels a..n.  The
block-relabeling permutation W_b carves a uniform register of size b out of it
with distortion controlled by the harmonic-sum ratio S(1,n)/S(a,n).  Rounding
a spectrum onto the grid gamma/|C| (exact rational arithmetic) makes a state
flattenable: extended by a block register E it becomes uniform on its support,
after which the convex splits from :mod:`convexsplit` apply with the
max-information-sized k instead of the conditional-min-entropy-sized one.

All embezzlement inequalities here are checked in exact-ratio form; the
coarser closed-form constants must dominate whenever their hypotheses hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .convexsplit import (PrimeEnsemble, _classical_split, _members,
                          _one_design_split, _split_k, _SplitInput,
                          prime_register)
from .registers import Check, Monomial, _block_eigvalsh, act, partial_trace

RATIO_SLACK = 1e-12
"""How far rounding may move an exact embezzlement ratio past its limit."""
OPERATOR_SLACK = 1e-10
"""How far rounding may put a PSD difference's least eigenvalue below 0."""


def harmonic_sum(a, n):
    """S(a, n) = sum_{j=a}^{n} 1/j."""
    if not 1 <= a <= n:
        raise ValueError(f"need 1 <= a <= n, got a={a}, n={n}")
    return math.fsum(1.0 / j for j in range(a, n + 1))


@dataclass(frozen=True)
class EmbezzleState:
    """Harmonic-weight state: weight 1/(S(a,n) j) on basis label j, a <= j <= n.

    Both forms are vectors over labels 0..dim-1, zero off a..n: the weights
    (`weight_vector`) and their square roots, the Schmidt coefficients of
    the purification sum_j sqrt(w_j) |j>|j> (`amplitudes`)."""

    a: int
    n: int
    norm: float

    def _scales(self, dim):
        """S(a,n) j on the band and inf off it, over labels 0..dim-1."""
        if dim < self.n + 1:
            raise ValueError(f"register of dim {dim} cannot hold labels up to {self.n}")
        j = np.arange(dim)
        return np.where((j >= self.a) & (j <= self.n), self.norm * j, np.inf)

    def weight_vector(self, dim):
        return 1.0 / self._scales(dim)

    def amplitudes(self, dim):
        return 1.0 / np.sqrt(self._scales(dim))


def embezzling_state(a, n):
    return EmbezzleState(a, n, harmonic_sum(a, n))


def w_b_permutation(b, d_size, e_size):
    """Total bijection on {0..d_size-1} x {0..e_size-1} extending
    (j, 0) -> (j // b, j mod b); leftover states fill lexicographically.

    Returns the index array img[j * e_size + e] = j' * e_size + e'.
    """
    if not 1 <= b <= e_size:
        raise ValueError(f"b = {b} outside [1, {e_size}]")
    j = np.arange(d_size)
    img = np.empty((d_size, e_size), dtype=int)
    img[:, 0] = (j // b) * e_size + j % b
    free = np.ones(d_size * e_size, dtype=bool)
    free[img[:, 0]] = False
    img[:, 1:] = np.flatnonzero(free).reshape(d_size, e_size - 1)
    return img.reshape(-1)


def _embezzle_rule(a, b, n, d_size=None):
    """Refuse (a, b, n) outside n >= a >= b >= 1 and, when |D| = ``d_size``
    is given, |D| outside (n+1) b <= |D| <= n^2, the unembezzling bracket."""
    if not n >= a >= b >= 1:
        raise ValueError(f"need n >= a >= b >= 1, got ({a}, {b}, {n})")
    if d_size is not None and not (n + 1) * b <= d_size <= n * n:
        raise ValueError(f"|D| = {d_size} outside [{(n + 1) * b}, {n * n}]")


def check_embezzle_upper(a, b, n):
    """Exact minimal ratio r with W_b (xi^{a:n} (x) |0><0|) W_b^dag <= r * xi^{1:n} (x) unif_b.

    Returns (ratio, holds) where holds compares against S(1,n)/S(a,n).
    """
    _embezzle_rule(a, b, n)
    s_an = harmonic_sum(a, n)
    s_1n = harmonic_sum(1, n)
    ratio = max((s_1n / s_an) * (b * (j // b)) / j for j in range(a, n + 1))
    return ratio, Check("embezzle ratio", ratio, s_1n / s_an, "<=", RATIO_SLACK).holds


def check_unembezzle(a, b, n, d_size):
    """Exact minimal ratio r with W_b^dag (xi^{1:n} (x) unif_b) W_b <= r * xi^{1:|D|} (x) |0><0|.

    Requires (n+1) b <= d_size <= n^2; holds compares against the constant 4.
    """
    _embezzle_rule(a, b, n, d_size)
    s_1n = harmonic_sum(1, n)
    s_1d = harmonic_sum(1, d_size)
    ratio = max((s_1d / s_1n) * (j * b + e) / (j * b)
                for j in range(1, n + 1) for e in range(b))
    return ratio, Check("unembezzle ratio", ratio, 4.0, "<=", RATIO_SLACK).holds


def purified_embezzle_fidelity(a, b, n):
    """Exact overlap of (W_b (x) W_b) |xi^{a:n}>|00> with |xi^{1:n}>|unif_b>."""
    _embezzle_rule(a, b, n)
    s_an = harmonic_sum(a, n)
    s_1n = harmonic_sum(1, n)
    return math.fsum(1.0 / math.sqrt(s_an * j * s_1n * (j // b) * b)
                     for j in range(a, n + 1))


def _gamma_fraction(gamma):
    """gamma as a Fraction of denominator at most 10^6, inside (0, 1)."""
    g = Fraction(gamma).limit_denominator(10 ** 6)
    if not 0 < g < 1:
        raise ValueError(f"gamma = {g} outside (0, 1)")
    return g


def _rationalize_gamma(gamma, c_dim):
    g = _gamma_fraction(gamma)
    m_big = Fraction(c_dim) / g
    if m_big.denominator != 1:
        raise ValueError(f"|C|/gamma = {m_big} is not an integer")
    return g, int(m_big)


@dataclass(frozen=True)
class FlatSpectrum:
    """Grid spectrum: eigenvalue counts m_c with q(c) = m_c * gamma / |C|.

    ``basis`` columns are the eigenvectors the counts refer to; the grid unit
    gamma/|C| equals 1/grid_total.
    """

    gamma: Fraction
    counts: tuple
    basis: np.ndarray

    @property
    def c_dim(self):
        return len(self.counts)

    @property
    def grid_total(self):
        return int(sum(self.counts))

    @property
    def e_dim(self):
        return max(self.counts)

    def sigma_matrix(self):
        q = np.array(self.counts, dtype=float) / self.grid_total
        return (self.basis * q) @ self.basis.conj().T

    def support_index(self):
        """Flat indices c * |E| + e of the flattened support, e < m_c."""
        return np.flatnonzero(np.arange(self.e_dim)
                              < np.array(self.counts)[:, None])


def round_spectrum(omega, gamma, direction):
    """Round a state's spectrum onto the grid gamma/|C| (exact rationals).

    ``up`` produces sigma with omega <= sigma/(1-gamma); ``down`` produces
    sigma <= omega/(1-gamma).  Both keep sigma diagonal in omega's eigenbasis
    with eigenvalues that are exact integer multiples of gamma/|C|.
    """
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', not {direction!r}")
    c_dim = omega.system.total_dim
    gamma_frac, m_big = _rationalize_gamma(gamma, c_dim)
    vals, vecs = omega._eigh()
    fracs = [Fraction(max(float(v), 0.0)) for v in vals]

    # up: ceil counts at the largest fitting scale s in [(1-gamma)M, M], then
    # add the deficit; down: floor counts at the smallest fitting s in
    # [M, M/(1-gamma)], then remove the surplus.  A count changes only at
    # some s = m/w, so those and the two ends are the only candidates.
    up = direction == "up"
    step, rnd = (1, math.ceil) if up else (-1, math.floor)
    lo, hi = ((1 - gamma_frac) * m_big, Fraction(m_big)) if up else \
        (Fraction(m_big), m_big / (1 - gamma_frac))
    candidates = {lo, hi}
    for w in fracs:
        if w > 0:
            candidates.update(Fraction(m) / w for m in
                              range(math.ceil(w * lo), math.floor(w * hi) + 1))
    for s in sorted(candidates, reverse=up):
        counts = [rnd(w * s) for w in fracs]
        if step * (m_big - sum(counts)) >= 0:
            break
    else:
        raise ValueError(f"no scale in [{lo}, {hi}] fits the spectrum onto "
                         f"the grid; is the state normalised?")
    order = sorted(range(c_dim), key=lambda i: (-fracs[i], i))
    pos = 0
    while sum(counts) != m_big:
        idx = order[pos % c_dim]
        if up or counts[idx] > 0:
            counts[idx] += step
        pos += 1

    flat = FlatSpectrum(gamma_frac, tuple(counts), vecs)
    # verify the stated operator inequality
    sigma = flat.sigma_matrix()
    scale = 1.0 / (1.0 - float(gamma_frac))
    if up:
        gap = np.linalg.eigvalsh(scale * sigma - omega.matrix)[0]
    else:
        gap = np.linalg.eigvalsh(scale * omega.matrix - sigma)[0]
    Check("rounding inequality", gap, 0.0, ">=", OPERATOR_SLACK).require()
    return flat


def unitary_flatten_W(flat, d_dim):
    """Controlled permutation W = sum_c |c><c| (x) W_{b(c)} on (C, E, D) labels.

    Returns the index array of the map (c, e, j) -> (c, e', j'), with e in
    0..e_dim-1 and j a label of the d_dim-dimensional D register; W_0 is the
    identity.  The upper-bound ratio S(1,n)/S(a,n) holds for an embezzling
    state xi^{a:n} on D with max_c b(c) <= a <= n < d_dim, which callers
    check.
    """
    e_dim = flat.e_dim
    img = np.arange(flat.c_dim * e_dim * d_dim).reshape(flat.c_dim, -1)
    for c, b in enumerate(flat.counts):
        if b >= 1:
            j2, e2 = np.divmod(w_b_permutation(b, d_dim, e_dim), e_dim)
            block = (e2 * d_dim + j2).reshape(d_dim, e_dim).T   # on (E, D)
            img[c] = c * e_dim * d_dim + block.reshape(-1)
    return img.reshape(-1)


def _w_move(flat, dims, d_dim, rest=()):
    """S^dag W on (C, E, D) as a compression, lifted to ``dims`` (C last),
    (E, D) and ``rest``.  S is the isometry onto supp(sigma_CE) (x) D, so
    (C, E, D) is compressed to (S, D), S of ``flat.grid_total`` states."""
    k = len(dims) - 1
    supp = (flat.support_index()[:, None] * d_dim
            + np.arange(d_dim)).reshape(-1)
    return Monomial(supp).compose(
        Monomial(unitary_flatten_W(flat, d_dim)).inverse()).lift(
            dims + (flat.e_dim, d_dim) + rest, [k, k + 1, k + 2])


def _moved_state(psi, flat, a, n, d_dim=None):
    """W (psi'_{RC} (x) |0><0|_E (x) xi^{a:n}) W^dag compressed to supp(sigma_CE) (x) D.

    psi' is psi with C in the sigma eigenbasis.  Returns (matrix on
    R (x) S (x) D, psi_R matrix); S has ``flat.grid_total`` states.
    ``d_dim`` sets the D register dimension (default n + 1, labels 0..n).
    """
    c_label = psi.system.labels[-1]
    c_dim = psi.system.dim_of(c_label)
    if c_dim != flat.c_dim:
        raise ValueError("C dimension mismatch with the flattened spectrum")
    # psi's blocks on the sigma eigenvectors of count 0 must vanish
    d_rest = psi.system.total_dim // c_dim
    off = flat.basis[:, np.array(flat.counts) == 0]
    blocks = np.einsum("rasb,ac,bc->crs", psi.matrix.reshape(
        d_rest, c_dim, d_rest, c_dim), off.conj(), off)
    if (np.linalg.norm(blocks, axis=(1, 2)) > 1e-9).any():
        raise ValueError("state has support outside the flattened spectrum")
    d_dim = n + 1 if d_dim is None else d_dim
    e0_xi = np.kron(np.eye(flat.e_dim)[0],
                    embezzling_state(a, n).weight_vector(d_dim))
    rotated = act(psi.matrix, flat.basis.conj().T, psi.system.dims,
                  [len(psi.system) - 1])
    out = _w_move(flat, psi.system.dims, d_dim).conjugate(
        np.kron(rotated, np.diag(e0_xi)))
    return out, partial_trace(psi, [c_label]).matrix


def _flat_ensemble(psi, flat, a, n, d_dim):
    """The moved state as a `PrimeEnsemble`, F1 sized for the flattened support."""
    theta, psi_r = _moved_state(psi, flat, a, n, d_dim=d_dim)
    return PrimeEnsemble(theta, psi_r, d_dim, prime_register(flat.grid_total))


def _flat_input(psi, omega, gamma, n):
    """psi as a flattened split input: the moved state on (R, S, D).

    omega is rounded up onto the gamma/|C| grid and flattened with
    a = |E|; D carries xi^{a:n}, the target holds xi^{1:n} on D, and the
    ratio is S(1,n)/S(a,n).
    """
    flat = round_spectrum(omega, gamma, "up")
    a = flat.e_dim
    if n < a:
        raise ValueError(f"n = {n} below a = {a}")
    k, _ = _split_k(psi, omega)
    theta, psi_r = _moved_state(psi, flat, a, n)
    return _SplitInput(theta, psi_r, embezzling_state(1, n).weight_vector(n + 1),
                       k, harmonic_sum(1, n) / harmonic_sum(a, n))


def convex_split_flat_1design(psi, omega, gamma, n_mixed, n, seed=0):
    """Flattened 1-design split: mix HW rotations on supp(sigma_CE).

    omega is the reference C-state defining k = Dmax(psi || psi_R (x) omega);
    its up-rounding sigma is flattened, psi rides along, and the selected
    pairwise-independent HW subfamily is mixed.  The achieved relative entropy
    against psi_R (x) sigma_CE (x) xi^{1:n} (x) mu_X1X2 is compared to the
    exact-ratio bound log(S(1,n)/S(a,n)) + log(1 + (2^{k+2}-1)/N), a = |E|.
    |C|/gamma must be a prime power, the pairwise family's field.
    """
    return _one_design_split(_flat_input(psi, omega, gamma, n), n_mixed, seed, 2)


def convex_split_flat_classical(psi, omega, gamma, subset, n):
    """Flattened classical split over the prime register F built on supp(sigma_CE).

    Mixes U_l over l in ``subset`` acting on (F1, F2); checks the exact-ratio
    bound and the marginal domination Tr_F2(U_l base U_l^dag) <= ratio *
    psi_R (x) mu_F1 (x) xi^{1:n}.  That marginal is I_F1 (x)
    `PrimeEnsemble.marginal` at every l != 0, so the domination is one
    eigenvalue test on (R, D) per call, solved block by block on the
    difference's exact nonzero pattern.
    """
    inp = _flat_input(psi, omega, gamma, n)
    reg = prime_register(inp.dims[1])
    subset = _members(subset, reg.prime)
    ens = PrimeEnsemble(inp.theta, inp.psi_r, len(inp.w_d), reg)
    report = _classical_split(inp, ens, subset, 2)
    marg_ref = inp.ratio / ens.f_prime * np.kron(ens.psi_r, np.diag(inp.w_d))
    gap = float(np.min(_block_eigvalsh(marg_ref - ens.marginal())))
    Check("marginal domination", gap, 0.0, ">=", OPERATOR_SLACK).require()
    return report
