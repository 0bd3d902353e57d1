"""Convex-split decoupling with small additional resources.

Two constructions over a register C holding one share of a bipartite state:

* a 1-design split: mix a pairwise-independently selected subfamily of
  Heisenberg-Weyl unitaries, using two classical seed registers X1, X2;
* a classical split: embed C (x) C into a prime-dimensional register G and mix
  the cyclic family of basis permutations (i, j) -> (i + (j-i)l, j + (j-i)l).

Both report the achieved relative entropy against the decoupled target next to
the analytic bound driven by k = Dmax(state || marginal (x) uniform).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .entropy import Reference, _entropy_sum, dmax
from .registers import (Check, DensityOperator, Monomial, _block_eigvalsh,
                        _components, _pattern_blocks, _root_sum, _size_groups,
                        kron_eye_entries, kron_eye_nonzeros, maximally_mixed,
                        partial_trace, reorder)


def _is_prime(n):
    return n >= 2 and all(n % p for p in range(2, int(n ** 0.5) + 1))


def next_prime_in(n):
    """Smallest prime >= n (trial division; Bertrand guarantees < 2n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    cand = int(n)
    while not _is_prime(cand):
        cand += 1
    return cand


def _factor_prime_power(q):
    """Return (p, m) with q = p^m, or raise."""
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            while q % p ** (m + 1) == 0:
                m += 1
            if p ** m != q:
                raise ValueError(f"{q} is not a prime power")
            return p, m
    raise ValueError(f"{q} is not a prime power")


def _digits(x, p, n):
    """The n base-p digits of x, lowest first (ints or int arrays)."""
    return [x // p ** k % p for k in range(n)]


def _value(digits, p):
    """The value of base-p ``digits``, lowest first, summed as they come."""
    return sum(c * p ** k for k, c in enumerate(digits))


def _remainder(coeffs, modulus, p):
    """Digits of sum_k coeffs[k] x^k mod the monic ``modulus`` over GF(p).

    Both are lists of coefficients, lowest degree first, and may hold int
    arrays that broadcast against each other.
    """
    coeffs = list(coeffs)
    deg = len(modulus) - 1
    for top in range(len(coeffs) - 1, deg - 1, -1):
        lead = coeffs[top] % p
        for k in range(deg):
            coeffs[top - deg + k] = coeffs[top - deg + k] - lead * modulus[k]
    return [c % p for c in coeffs[:deg]]


class GaloisField:
    """GF(p^m) on the integers 0..q-1.

    The base-p digits of a value, lowest first, are its coefficients of
    x^0..x^(m-1).  ``poly`` (lowest degree first, None when m = 1) is the
    first monic irreducible degree-m polynomial in the order of its tail
    x^0..x^(m-1) read as a value, found by trial division by every monic
    polynomial of degree 1..m//2.  ``add`` and ``mul`` take ints or int
    arrays and broadcast; ints in give ints out.
    """

    def __init__(self, q):
        p, m = _factor_prime_power(q)
        self.q, self.p, self.m = q, p, m
        self.poly = None
        if m > 1:
            monic = _digits(np.arange(q)[:, None], p, m) + [1]
            irreducible = np.ones(q, dtype=bool)
            for deg in range(1, m // 2 + 1):
                factor = _digits(np.arange(p ** deg), p, deg) + [1]
                irreducible &= np.any(_remainder(monic, factor, p),
                                      axis=0).all(axis=1)
            self.poly = _digits(int(np.argmax(irreducible)), p, m) + [1]

    def add(self, a, b):
        pairs = zip(_digits(a, self.p, self.m), _digits(b, self.p, self.m))
        return _value(((x + y) % self.p for x, y in pairs), self.p)

    def mul(self, a, b):
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(_digits(a, self.p, self.m)):
            for j, y in enumerate(_digits(b, self.p, self.m)):
                prod[i + j] = prod[i + j] + x * y
        # GF(p) reduces by x, which leaves the one coefficient as it is
        return _value(_remainder(prod, self.poly or [0, 1], self.p), self.p)


@dataclass(frozen=True)
class PairwiseFamily:
    """Pairwise independent functions f_j(x1, x2) = x1 + j*x2 over GF(q)."""

    q: int

    def __post_init__(self):
        object.__setattr__(self, "_field", GaloisField(self.q))

    def evaluate(self, j, x1, x2):
        """f_j(x1, x2); ints or int arrays that broadcast."""
        f = self._field
        return f.add(x1, f.mul(j, x2))

    def images(self, members):
        """f_j(x1, x2) for the listed members j, as an array indexed [x1, x2, i]."""
        x = np.arange(self.q)
        return self.evaluate(np.asarray(members, dtype=np.int64),
                             x[:, None, None], x[:, None])


def pairwise_family(q):
    """Family of q pairwise independent functions over GF(q), q a prime power."""
    p, m = _factor_prime_power(q)
    if p ** m > 4096:
        raise ValueError(f"field size {q} too large for desk scale")
    return PairwiseFamily(q)


def _hw_gather(a, b, d):
    """V_{a,b} as a `Monomial`: (V x)[i] = phase[i] x[src[i]], src = i - a;
    a family, one map per entry, for int arrays ``a`` and ``b``."""
    a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
    src = (np.arange(d) - a) % d
    # a real argument: numpy divides complex arrays by d as a product with
    # 1 / d, which would move the phases off the scalar exp(2j pi c b / d)
    return Monomial(src, np.exp(1j * (2 * np.pi * src * b / d)))


def _hw_maps(d, dims, axis):
    """Every V_y, y = a*d + b, lifted onto the factor ``axis`` of ``dims``."""
    return _hw_gather(*np.divmod(np.arange(d * d), d), d).lift(dims, [axis])


def one_design_average(rho, label):
    """(1/d^2) sum_{a,b} V_{a,b} rho V_{a,b}^dag on the named register."""
    d = rho.system.dim_of(label)
    hw = _hw_maps(d, rho.system.dims, rho.system.position(label))
    acc = np.zeros_like(rho.matrix)
    for y in range(d * d):
        acc += hw[y].conjugate(rho.matrix)
    return DensityOperator(rho.system, acc / (d * d), validate=False)


@dataclass(frozen=True)
class ConvexSplitReport:
    """Outcome of one split evaluation: bound inputs and achieved closeness."""

    k: float
    n_mixed: int
    analytic_bound: float
    achieved_rel_entropy: float
    achieved_fidelity: float

    def bound_check(self):
        return Check("split bound", self.achieved_rel_entropy,
                     self.analytic_bound, "<=", 1e-7)

    def as_record(self):
        return {"k": self.k, "N": self.n_mixed,
                "analytic_bound": self.analytic_bound,
                "achieved_rel_entropy": self.achieved_rel_entropy,
                "achieved_fidelity": self.achieved_fidelity}


def hw_translation_classes(images, d):
    """Classes of the rows of ``images`` under Heisenberg-Weyl translation.

    Each row (last axis) is a multiset of HW indices y = a*d + b; the shift by
    t = (s, u) maps it to the row of (a + s mod d, b + u mod d), the group law
    of V_{a,b} up to phase.  Returns (keys, inverse): the canonical row of
    every class and the class of every row, rows taken in C order.  The
    canonical row is the lexicographic minimum, over the shifts that send one
    member to 0, of the sorted shifted row.
    """
    rows = images.reshape(-1, images.shape[-1])
    a, b = np.divmod(rows, d)
    at = np.arange(len(rows))
    best = None
    for i in range(rows.shape[1]):
        cand = np.sort((a - a[:, i:i + 1]) % d * d + (b - b[:, i:i + 1]) % d,
                       axis=1)
        if best is None:
            best = cand
            continue
        first = (cand != best).argmax(axis=1)
        better = cand[at, first] < best[at, first]
        best[better] = cand[better]
    keys, inverse = np.unique(best, axis=0, return_inverse=True)
    return keys, inverse.reshape(-1)


def hw_split_means(state, dims, n_mixed, seed, ref):
    """Mean D and F against ``ref`` over the (x1, x2) blocks of a 1-design split.

    ``state`` lives on the factors dims = (R, S, D).  Block (x1, x2) is the
    average of V_y state V_y^dag, V_y the HW unitary on S, over the images
    y = f_j(x1, x2) of the first ``n_mixed`` members of a seeded permutation
    of the pairwise-independent family over GF(|S|^2).  Conjugating by V_t
    maps the block of ys to the block of ys + t and fixes ``ref`` (uniform on
    S), so D and F are eigensolved once per translation class, on the
    components of the conjugates' union pattern.  Returns (inf, 0.0) when a
    block leaves the support of ``ref``.
    """
    d = dims[1]
    q = d * d
    if not 1 <= n_mixed <= q:
        raise ValueError(f"N = {n_mixed} outside [1, {q}]")
    family = pairwise_family(q)
    members = [int(j) for j in np.random.default_rng(seed).permutation(q)[:n_mixed]]
    keys, inverse = hw_translation_classes(family.images(members), d)

    hw = _hw_maps(d, dims, 1)
    conjugated = {y: hw[y].conjugate(state) for y in set(keys.ravel().tolist())}

    # each block is a sum of conjugates and ``ref``'s sandwich mixes R only:
    # every block and its sandwich are block-diagonal on the union of the
    # conjugates' patterns on (S, D), taken for every pair of R indices
    r_dim, rest = dims[0], len(state) // dims[0]
    union = np.zeros(state.shape, dtype=bool)
    for part in conjugated.values():
        union |= part != 0
    union = union.reshape(r_dim, rest, r_dim, rest).any(axis=(0, 2))
    pattern = _pattern_blocks(np.tile(union, (r_dim, r_dim)))
    d_vals, f_vals = [], []
    for key in keys:
        block = np.zeros_like(state)
        for y in key:
            block += conjugated[int(y)]
        block /= n_mixed
        d_val = ref.rel_entropy(block, pattern)
        if not np.isfinite(d_val):
            return float("inf"), 0.0
        d_vals.append(d_val)
        f_vals.append(ref.fidelity(block, pattern))
    d_total, f_total = 0.0, 0.0
    for c in inverse:       # the (x1, x2) order of a plain loop
        d_total += d_vals[c]
        f_total += f_vals[c]
    return d_total / len(inverse), min(f_total / len(inverse), 1.0)


def _members(subset, size):
    """Sorted distinct members of ``subset``: nonempty and within [0, size)."""
    members = sorted(set(int(x) for x in subset))
    if not members:
        raise ValueError("subset must be nonempty")
    if members[0] < 0 or members[-1] >= size:
        raise ValueError(f"subset members outside [0, {size})")
    return members


def _split_k(psi, omega):
    """(k, psi_R), k = Dmax(psi || psi_R (x) omega) with C last; refuses k = inf.

    The reference is placed on psi's own registers, so a psi whose only
    register is C (psi_R a 1 x 1 scalar) splits like one with a trivial R.
    """
    psi_r = partial_trace(psi, [psi.system.labels[-1]])
    ref = np.kron(psi_r.matrix, omega.matrix)
    k = dmax(psi, DensityOperator(psi.system, ref, validate=False))
    if not k.finite:
        raise ValueError("Dmax against psi_R (x) omega is infinite")
    return k.value, psi_r


@dataclass(frozen=True)
class _SplitInput:
    """theta on (R, S, D) split against psi_R (x) mu_S (x) diag(w_d).

    k sizes the bound; ``ratio`` is the embezzling distortion (1 unflattened).
    """

    theta: np.ndarray
    psi_r: np.ndarray
    w_d: np.ndarray
    k: float
    ratio: float = 1.0

    @property
    def dims(self):
        r, d = self.psi_r.shape[0], len(self.w_d)
        return r, self.theta.shape[0] // (r * d), d

    def bound(self, n_mixed, shift):
        """log2(ratio) + log2(1 + (2^(k + shift) - 1) / N)."""
        return float(np.log2(self.ratio)
                     + np.log2(1.0 + (2.0 ** (self.k + shift) - 1.0) / n_mixed))


def _plain_input(psi):
    """psi_RC as a split input: S = C, a trivial D and omega = mu_C."""
    mu_c = maximally_mixed(psi.system.subsystem(psi.system.labels[-1:]))
    k, psi_r = _split_k(psi, mu_c)
    return _SplitInput(psi.matrix, psi_r.matrix, np.ones(1), k)


def _one_design_split(inp, n_mixed, seed, shift):
    """Mix N pairwise-independently selected HW rotations on S."""
    s_dim = inp.dims[1]
    ref = Reference(inp.psi_r, np.kron(np.full(s_dim, 1.0 / s_dim), inp.w_d))
    achieved, fid = hw_split_means(inp.theta, inp.dims, n_mixed, seed, ref)
    return ConvexSplitReport(inp.k, n_mixed, inp.bound(n_mixed, shift),
                             achieved, fid)


def _classical_split(inp, ens, subset, shift):
    """Mix the U_l, l in ``subset``, of ``ens``, the ensemble of ``inp``."""
    achieved, fid = ens.mixture_measures(subset, inp.w_d)
    return ConvexSplitReport(inp.k, len(subset), inp.bound(len(subset), shift),
                             achieved, fid)


def convex_split_1design(psi, n_mixed, seed=0):
    """Mix a pairwise-independent selection of HW rotations of psi_RC (x) mu_X1X2.

    The C register must be the last register of ``psi`` and have power-of-two
    dimension.  Uses the first ``n_mixed`` members of a seeded permutation of
    the family, so ladders over N with a common seed are nested.  Exploits the
    block-diagonal structure over (x1, x2) instead of building the full state.
    """
    d_c = psi.system.dims[-1]
    if d_c & (d_c - 1):
        raise ValueError(f"|C| = {d_c} is not a power of two")
    return _one_design_split(_plain_input(psi), n_mixed, seed, 0)


@dataclass(frozen=True)
class PrimeRegister:
    """Prime-dimensional register G holding the pairs of C (x) C.

    Basis index i < |C|^2 carries the pair (c, c') with i = c|C| + c'.  The
    prime lies in [|C|^2, 2|C|^2], so G is the first |G| states of
    Q (x) C (x) C with i = q|C|^2 + c|C| + c'.
    """

    base_dim: int
    prime: int

    def __post_init__(self):
        c2 = self.base_dim * self.base_dim
        if not _is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if not c2 <= self.prime <= 2 * c2:
            raise ValueError(f"prime {self.prime} outside [{c2}, {2 * c2}]")


def prime_register(base_dim):
    return PrimeRegister(base_dim, next_prime_in(base_dim * base_dim))


def u_ell(ell, prime_reg):
    """`u_ell_index` on |G| = prime_reg.prime as a dict (i, j) -> image."""
    g = prime_reg.prime
    return {divmod(k, g): divmod(v, g)
            for k, v in enumerate(u_ell_index(ell, g).tolist())}


def compose_u(first, then):
    """Apply ``first`` then ``then`` (both u_ell tables)."""
    return {k: then[v] for k, v in first.items()}


def u_ell_index(ell, g):
    """U_l: (i, j) -> (i + (j-i)l, j + (j-i)l) mod g, over the flat pairs
    i*g + j; one map per entry, along a last axis, for an int array ``ell``."""
    ell = np.asarray(ell)
    if np.any((ell < 0) | (ell >= g)):
        raise ValueError(f"l = {ell} out of range [0, {g})")
    i, j = np.divmod(np.arange(g * g), g)
    shift = (j - i) % g * ell[..., None]
    return (i + shift) % g * g + (j + shift) % g


class PrimeEnsemble:
    """A state theta on (R, S, D) spread over (R, F1, D, F2) and mixed by the U_l.

    F1 and F2 are copies of the prime register ``reg``, built for
    |S| = reg.base_dim: F1 is the first f_prime states q|S|^2 + s|S| + x of
    (Q, S, X) (``layout``), and only q = 0 is populated.  The base state is
    theta (x) mu_X on q = 0, (x) mu_F2; the mixed terms are its images under
    the U_l on (F1, F2).  The base is kept as its factor on (R, F1, D)
    (``base_factor``): base = factor (x) I_F2, whose entries
    `registers.kron_eye_entries` reads, and no operator of the full
    dimension squared is built.  Every U_l with l != 0 traces to the same
    F1 marginal, I_F1 (x) Tr_F1(factor) (``marginal``).  ``psi_r`` is the
    R marginal of the decoupled target (a 1 x 1 identity without R).
    """

    def __init__(self, theta, psi_r, d_dim, reg):
        self.r_dim, self.s_dim, self.d_dim = psi_r.shape[0], reg.base_dim, d_dim
        if theta.shape[0] != self.r_dim * self.s_dim * d_dim:
            raise ValueError(
                f"prime register built for |C| = {self.s_dim}, but the state "
                f"has dimension {theta.shape[0]}, not {self.r_dim} x "
                f"{self.s_dim} x {d_dim} on (R, C, D)")
        self.theta, self.psi_r = theta, psi_r
        self.f_prime = reg.prime

    @functools.cached_property
    def base_factor(self):
        """theta (x) mu_X on the q = 0 part of F1, divided by |F2|: the base
        is this (x) I_F2.  Built on first read (the decoders read only
        ``theta``)."""
        compress, order = self.layout(1)
        scale = (1.0 / self.s_dim) * (1.0 / self.f_prime)
        return compress.compose(order).conjugate(np.kron(  # (R, S, D, Q, X)
            self.theta, np.diag(np.repeat([scale, 0.0], self.s_dim))))

    def full_index(self, r, f1, d, f2):
        return ((r * self.f_prime + f1) * self.d_dim + d) * self.f_prime + f2

    def layout(self, f2_dim):
        """F1 in its host (R, Q, S, X, D) (x) F2, F2 of ``f2_dim`` states, as
        two `Monomial`s: the compression of the host to (R, F1, D) (x) F2,
        F1 being the first f_prime of the 2 S^2 states (q, s, x), and the
        permutation of the host from (R, S, D, Q, X) (x) F2."""
        r, s, d = self.r_dim, self.s_dim, self.d_dim
        host = np.arange(r * 2 * s * s * d * f2_dim).reshape(r, s, d, 2, s,
                                                             f2_dim)
        return (Monomial(np.arange(self.f_prime)).lift(
            (r, 2, s, s, d, f2_dim), [1, 2, 3]),
            Monomial(host.transpose(0, 3, 1, 4, 2, 5).ravel()))

    @property
    def dims(self):
        return (self.r_dim, self.f_prime, self.d_dim, self.f_prime)

    def source(self, ell):
        """U_l on the full space as a `Monomial` with unit phases, or the
        family of them for an int array of l.

        U_l^-1 = U_-l, so its src is the image map of U_-l.
        """
        g = self.f_prime
        return Monomial(u_ell_index(-np.asarray(ell) % g, g)).lift(
            self.dims, [1, 3])

    def marginal(self):
        """Tr_F1 of ``base_factor`` on (R, D).  Tr_F2(U_l base U_l^dag) is
        I_F1 (x) this for every l != 0: U_l^-1 sends (a, b) to
        (a - (b-a)l, b - (b-a)l), factor (x) I_F2 pairs entries only where
        the F2 sources are equal, which forces a = a' when l != 0, and as b
        runs over Z_g the F1 source runs over Z_g once.  (At l = 0 the
        trace is g factor.)"""
        r, g, d = self.r_dim, self.f_prime, self.d_dim
        return np.trace(self.base_factor.reshape(r, g, d, r, g, d),
                        axis1=1, axis2=4).reshape(r * d, r * d)

    def signals(self):
        """Unit signal vectors by their nonzero rows, and their weights:
        (rows, values, weights), base = sum_c weights[c] |c><c| with |c>
        values[:, c] on the full indices ``rows`` and 0 elsewhere.

        Each eigenvector u_t of theta on (R, S, D) is placed at F1 = s S + x1
        and F2 = f2, one column per (t, x1, f2), with weight
        t_val / (|S| f_prime); ``rows`` are the (r, s, d) where some u_t is
        nonzero, at every (x1, f2).
        """
        t_vals, t_vecs = np.linalg.eigh(self.theta)
        keep = t_vals > 1e-13
        t_vals, t_vecs = t_vals[keep], t_vecs[:, keep]
        n_t, s_dim, f_prime = len(t_vals), self.s_dim, self.f_prime
        occupied = np.flatnonzero(t_vecs.any(axis=1))
        r, s, d = np.unravel_index(occupied, (self.r_dim, s_dim, self.d_dim))
        k, x1, f2, t = np.ix_(range(len(occupied)), range(s_dim),
                              range(f_prime), range(n_t))
        values = np.zeros((len(occupied), s_dim, f_prime, n_t, s_dim, f_prime),
                          dtype=complex)
        values[k, x1, f2, t, x1, f2] = t_vecs[occupied][:, None, None, :]
        rows = self.full_index(r[k], s[k] * s_dim + x1, d[k], f2).ravel()
        return (rows, values.reshape(len(rows), -1),
                np.repeat(t_vals / (s_dim * f_prime), s_dim * f_prime))

    def _factor_reference(self, ref):
        """``ref`` on its F2 = 0 rows: psi_R (x) diag(w) on (R; F1, D).

        ``ref`` is uniform on F2, so its sandwich of factor (x) I_F2 is the
        sandwich of the factor by this reference, (x) I_F2, and its log terms
        of factor (x) I_F2 are those of |F2| times the factor against this
        reference.
        """
        return ref.restricted(np.arange(0, ref.w_dim, self.f_prime))

    def mixture_measures(self, subset, w_d):
        """D and F of tau = mean_l U_l base U_l^dag, l in ``subset``.

        The reference is psi_R (x) mu_F1 (x) diag(w_d) (x) mu_F2.  Every U_l
        permutes indices of equal reference weight, so tau has the log terms
        and the support of the base term; its spectra come from
        `mixture_spectra`.
        """
        mu = np.full(self.f_prime, 1.0 / self.f_prime)
        ref = Reference(self.psi_r, np.kron(mu, np.kron(w_d, mu)))
        terms = self._factor_reference(ref).log_terms(
            self.f_prime * self.base_factor)
        if terms is None:
            return float("inf"), 0.0
        tau_vals, mid_vals = self.mixture_spectra(subset, ref)
        return (_entropy_sum(tau_vals) - terms[0] - terms[1],
                min(_root_sum(mid_vals), 1.0))

    def mixture_spectra(self, subset, ref):
        """Eigenvalues of tau = mean_l U_l base U_l^dag and of sqrt(ref) tau sqrt(ref).

        ``ref`` is an `entropy.Reference` on (R; F1, D, F2), uniform on F1 F2,
        so every U_l fixes it.  Zero eigenvalues may be left out.  The
        eigensolve runs on the smaller of:
        - the eigenspaces of U_1 when ``subset`` is the whole group: U_l is
          U_1^l, so tau is the pinching of base onto them, and
          sqrt(ref) tau sqrt(ref) that of sqrt(ref) base sqrt(ref), both
          read from their factors on (R, F1, D) and, but for sector 0, built
          by one inverse DFT over the orbits of U_1 (`_sector_spectra`);
        - tau itself, compressed to the rows (R, w) for which some R-row of
          tau is nonzero, where the reference compresses to A (x) diag(w):
          the U_l map basis vectors to basis vectors, so tau and its
          sandwich are gathered only on the blocks of their exact nonzero
          pattern (`_support_spectra`).
        """
        keep = self._occupied(subset)
        pinch = (2 * self.f_prime - 1) * self.r_dim * self.d_dim
        if len(subset) == self.f_prime and pinch < self.r_dim * len(keep):
            factor = self.base_factor
            return self._sector_spectra(
                factor, self._factor_reference(ref).sandwich(factor))
        return self._support_spectra(subset, ref, keep)

    def _occupied(self, subset):
        """Indices on (F1, D, F2) where tau has a nonzero row for some R index."""
        diag = np.repeat(np.diagonal(self.base_factor).real > 0, self.f_prime)
        occupied = diag[self.source(subset).src].any(axis=0)
        return np.flatnonzero(occupied.reshape(self.r_dim, -1).any(axis=0))

    def _support_spectra(self, subset, ref, keep):
        """Eigenvalues of tau and of its sandwich on the rows (R, ``keep``),
        gathered on their blocks only.

        U_l maps basis vectors to basis vectors, so tau is nonzero only
        where some U_l (factor (x) I_F2) U_l^dag is (`kron_eye_nonzeros`).
        Every R index of a ``keep`` index goes to one group, since the
        sandwich mixes R, and the groups are the components of that
        pattern over ``keep``.  tau (summed over ``subset`` in its order)
        and the sandwich are gathered per group, stacked per group size,
        and the components of their exact nonzero patterns there are the
        blocks, sizes and order of `_pattern_blocks` on the whole pair.
        """
        w_dim, n_keep, maps = ref.w_dim, len(keep), self.source(subset)
        i, j, hit = kron_eye_nonzeros(self.base_factor, self.f_prime, maps)
        place = Monomial(keep).inverse(w_dim).src       # -1 off ``keep``
        x, y = place[i % w_dim], place[j % w_dim]
        on = hit & (x >= 0) & (y >= 0)
        r_idx = np.arange(self.r_dim)[:, None]
        full = (r_idx * w_dim + keep).reshape(-1)
        order, first, col, flat, edges = [], [], [], ([], []), []
        for group in _size_groups(_components(x[on], y[on], n_keep)):
            rows = (r_idx * n_keep + group[:, None, :]).reshape(len(group), -1)
            size = rows.shape[1]
            tau = sum(kron_eye_entries(self.base_factor, self.f_prime,
                                       src[:, :, None], src[:, None, :])
                      for src in maps.src[:, full[rows]]) / len(subset)
            mid = ref.sandwich(tau, keep[group])
            n, u, v = np.nonzero((tau != 0) | (mid != 0))
            edges.append((rows[n, u], rows[n, v]))
            # each row's start in the stores, and its column in its group
            order.append(rows.ravel())
            first.append(sum(map(len, flat[0])) + size * np.arange(rows.size))
            col.append(np.tile(np.arange(size), len(rows)))
            for store, part in zip(flat, (tau, mid)):
                store.append(part.ravel())
        slot = Monomial(np.concatenate(order)).inverse().src
        first, col = np.concatenate(first)[slot], np.concatenate(col)[slot]
        blocks = _size_groups(_components(*map(np.concatenate, zip(*edges)),
                                          len(full)))
        return tuple(_block_eigvalsh(
            lambda rows, cols, store=np.concatenate(store):
                store[first[rows] + col[cols]], blocks) for store in flat)

    def _sector_spectra(self, *factors):
        """Eigenvalues of the pinching of each factor (x) I_F2 onto the eigenspaces of U_1.

        U_1 fixes the pairs (i, j = i) of (F1, F2) and maps (i, i + delta) to
        (i + delta, i + 2 delta).  In coordinates (delta, t), with i = t for
        delta = 0 and i = t delta otherwise, it is the shift t -> t + 1 on
        every delta != 0.  A DFT over t diagonalises it: every (0, k) lies in
        sector 0, and (delta, k) in sector k for delta != 0.  Under I_F2 a
        pair (delta, t) meets, for each delta', only the one tau(delta, t,
        delta') with the same j, so the block of a sector has the entries
        (1/g) sum_t w^(-k t) w^(k' tau) B[x, i(delta, t), x', i(delta', tau)]
        at rows (x, delta, k) and columns (x', delta', k'), with
        w = exp(2 pi i / g) and B the factor on (R D, F1).  Sector 0 is
        summed over t as written.  In sectors 1..g-1, k' = k, so the entry
        is the inverse DFT over e = (tau - t) mod g, at k, of the sum of the
        B entries of each e: one `np.fft.ifft` builds them all.  Each factor
        is gathered and transformed in turn; sector 0, and the stack of the
        equal-sized sectors 1..g-1, are each eigensolved for every factor at
        once, on the components of their union pattern.
        """
        g, rd = self.f_prime, self.r_dim * self.d_dim
        delta, t = np.divmod(np.arange(g * g), g)
        i = np.where(delta == 0, t, delta * t % g).reshape(g, g)
        j = (i + np.arange(g)[:, None]) % g
        tau = Monomial(j).inverse().src[:, j]           # [delta', delta, t]
        tau = tau.transpose(1, 2, 0)                    # [delta, t, delta']
        i_tau = i[np.arange(g), tau]
        omega = np.exp(2j * np.pi * np.arange(g) / g)
        # sector 0 holds (0, k) for every k and (delta, 0); power[t] is the
        # exponent of w at t of each of its entries
        d_sel, k_sel = np.divmod(np.flatnonzero(delta * t == 0), g)
        power = (k_sel * tau[d_sel[:, None], :, d_sel].transpose(2, 0, 1)
                 - np.multiply.outer(np.arange(g), k_sel)[:, :, None]) % g
        e = (tau - np.arange(g)[:, None]) % g           # [delta, t, delta']
        m = np.arange(g - 1)
        n0, nf = len(d_sel), len(factors)
        zero = np.zeros((nf, rd * n0, rd * n0), dtype=complex)
        rest = np.zeros((nf, g - 1, rd * (g - 1), rd * (g - 1)), dtype=complex)
        for factor, out0, out in zip(factors, zero, rest):
            # gathered[delta, t, delta', x, x'], the only nonzeros of the
            # factor's pinching
            on_rd = reorder(factor, (self.r_dim, g, self.d_dim), [0, 2, 1])
            gathered = on_rd.reshape(rd, g, rd, g)[:, i[:, :, None], :, i_tau]
            block = out0.reshape(rd, n0, rd, n0).transpose(1, 3, 0, 2)
            for step in range(g):
                block += omega[power[step]][:, :, None, None] \
                    * gathered[d_sel[:, None], step, d_sel]
            block /= g
            summed = np.zeros((g - 1, g, g - 1, rd, rd), dtype=complex)
            np.add.at(summed, (m[:, None, None], e[1:, :, 1:], m),
                      gathered[1:, :, 1:])
            del gathered
            # ifft's [delta, k, delta', x, x'] into [k, x, delta, x', delta']
            out.reshape(g - 1, rd, g - 1, rd, g - 1)[...] = np.fft.ifft(
                summed, axis=1)[:, 1:].transpose(1, 3, 0, 4, 2)
        return list(np.concatenate([_block_eigvalsh(part).reshape(nf, -1)
                                    for part in (zero, rest)], axis=1))


def _classical_ensemble(psi, prime_reg):
    """psi_RC as the `PrimeEnsemble` with S = C and a trivial D."""
    psi_r = partial_trace(psi, [psi.system.labels[-1]])
    return PrimeEnsemble(psi.matrix, psi_r.matrix, 1, prime_reg), psi_r


def classical_marginal_check(psi, prime_reg, m):
    """Frobenius residual of Tr_G2(U_m (psi (x) |0>Q (x) mu_C1 (x) mu_G2) U_m^dag) = psi_R (x) mu_G1:
    for m != 0, sqrt(g) times that of `PrimeEnsemble.marginal` = psi_R / g."""
    if not 1 <= m < prime_reg.prime:
        raise ValueError(f"m = {m} excluded; need 1 <= m < {prime_reg.prime}")
    ens, _ = _classical_ensemble(psi, prime_reg)
    g = prime_reg.prime
    return float(np.sqrt(g) * np.linalg.norm(ens.marginal() - ens.psi_r / g))


def convex_split_classical(psi, subset, prime=None):
    """Mix the cyclic classical unitaries U_l over l in ``subset``.

    The C register must be last in ``psi``.  tau lives on (R, G1, G2), with
    psi_RC (x) mu_C1 on the first |G| states of Q (x) C (x) C1 in G1 (the
    `PrimeEnsemble` with S = C and a trivial D); the achieved relative
    entropy and fidelity are against psi_R (x) mu_G1 (x) mu_G2.
    """
    c_dim = psi.system.dims[-1]
    reg = prime_register(c_dim) if prime is None else PrimeRegister(c_dim, prime)
    subset = _members(subset, reg.prime)
    inp = _plain_input(psi)
    ens = PrimeEnsemble(inp.theta, inp.psi_r, 1, reg)
    return _classical_split(inp, ens, subset, 1)
