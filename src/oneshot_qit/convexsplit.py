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

from dataclasses import dataclass

import numpy as np

from .entropy import Reference, _entropy_sum, _root_sum, dmax
from .registers import (DensityOperator, RegisterSystem, _as_density, act,
                        lift_index, maximally_mixed, partial_trace,
                        permute_basis, reorder)


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
            left = q
            while left % p == 0:
                left //= p
                m += 1
            if left != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, m
    raise ValueError(f"{q} is not a prime power")


class GaloisField:
    """Arithmetic in GF(p^m); elements are integers 0..q-1 in base-p digit encoding."""

    def __init__(self, q):
        p, m = _factor_prime_power(q)
        self.q, self.p, self.m = q, p, m
        self.poly = None if m == 1 else self._smallest_irreducible()

    def _to_digits(self, x, length):
        out = []
        for _ in range(length):
            out.append(x % self.p)
            x //= self.p
        return out

    def _from_digits(self, digits):
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        da = self._to_digits(a, self.m)
        db = self._to_digits(b, self.m)
        return self._from_digits([(x + y) % self.p for x, y in zip(da, db)])

    def mul(self, a, b):
        if self.m == 1:
            return (a * b) % self.p
        da = self._to_digits(a, self.m)
        db = self._to_digits(b, self.m)
        return self._from_digits(self._poly_mul_mod(da, db, self.poly, self.m))

    def _poly_mul_mod(self, a_digits, b_digits, mod_digits, deg):
        prod = [0] * (2 * deg - 1 if deg > 1 else 1)
        for i, x in enumerate(a_digits):
            if x:
                for j, y in enumerate(b_digits):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        for d in range(len(prod) - 1, deg - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for k in range(deg + 1):
                    if mod_digits[k]:
                        prod[d - deg + k] = (prod[d - deg + k] - c * mod_digits[k]) % self.p
        return prod[:deg] + [0] * (deg - len(prod[:deg]))

    def _is_irreducible(self, digits):
        # x^(p^k) mod f: f of degree m is irreducible over GF(p) iff
        # x^(p^m) == x (mod f) and gcd-degree checks via x^(p^d) != x for d | m, d < m.
        m = self.m

        def frob_pow(times):
            cur = [0, 1] + [0] * (m - 2) if m >= 2 else [0]
            for _ in range(times):
                # raise to p-th power by repeated squaring-multiplication
                result = [1] + [0] * (m - 1)
                base = cur
                e = self.p
                while e:
                    if e & 1:
                        result = self._poly_mul_mod(result, base, digits, m)
                    base = self._poly_mul_mod(base, base, digits, m)
                    e >>= 1
                cur = result
            return cur

        x_poly = [0, 1] + [0] * (m - 2) if m >= 2 else [0]
        if frob_pow(m) != x_poly:
            return False
        for d in range(1, m):
            if m % d == 0 and frob_pow(d) == x_poly:
                return False
        return True

    def _smallest_irreducible(self):
        # deterministic: scan monic polynomials by integer encoding
        for tail in range(self.p ** self.m):
            digits = self._to_digits(tail, self.m) + [1]
            if self._is_irreducible(digits):
                return digits
        raise RuntimeError(f"no irreducible polynomial found for GF({self.q})")


@dataclass(frozen=True)
class PairwiseFamily:
    """Pairwise independent functions f_j(x1, x2) = x1 + j*x2 over GF(q)."""

    q: int

    def __post_init__(self):
        object.__setattr__(self, "_field", GaloisField(self.q))

    def evaluate(self, j, x1, x2):
        f = self._field
        return f.add(x1, f.mul(j, x2))

    def images(self, members):
        """f_j(x1, x2) for the listed members j, as an array indexed [x1, x2, i].

        One scalar ``mul`` per (j, x2); the additions x1 + j*x2 run digit by
        digit mod p over the whole array.
        """
        f = self._field
        prods = np.array([[f.mul(j, x2) for j in members] for x2 in range(self.q)],
                         dtype=np.int64).reshape(self.q, len(members))
        x1 = np.arange(self.q)[:, None, None]
        out = np.zeros((self.q, self.q, len(members)), dtype=np.int64)
        unit = 1
        for _ in range(f.m):
            out += (x1 // unit + prods // unit) % f.p * unit
            unit *= f.p
        return out

    def joint_map_is_bijection(self, j, k):
        """Exhaustive pairwise-independence check for the member pair (j, k)."""
        seen = set()
        for x1 in range(self.q):
            for x2 in range(self.q):
                seen.add((self.evaluate(j, x1, x2), self.evaluate(k, x1, x2)))
        return len(seen) == self.q * self.q


def pairwise_family(q):
    """Family of q pairwise independent functions over GF(q), q a prime power."""
    p, m = _factor_prime_power(q)
    if p ** m > 4096:
        raise ValueError(f"field size {q} too large for desk scale")
    return PairwiseFamily(q)


@dataclass(frozen=True)
class HWUnitary:
    """Heisenberg-Weyl shift-and-phase unitary V_{a,b} on a d-dimensional register."""

    a: int
    b: int
    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if np.max(np.abs(m.conj().T @ m - np.eye(self.dim))) > 1e-12:
            raise ValueError("HW matrix is not unitary within tolerance")


def hw_unitary(a, b, d):
    """V_{a,b} = sum_c exp(2 pi i c b / d) |c+a><c|."""
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"indices ({a}, {b}) out of range for dimension {d}")
    mat = np.zeros((d, d), dtype=complex)
    for c in range(d):
        mat[(c + a) % d, c] = np.exp(2j * np.pi * c * b / d)
    return HWUnitary(a, b, d, mat)


def hw_family(d):
    """All d^2 HW unitaries indexed by y = a*d + b."""
    return [hw_unitary(y // d, y % d, d) for y in range(d * d)]


def one_design_average(rho, label):
    """(1/d^2) sum_{a,b} V_{a,b} rho V_{a,b}^dag on the named register."""
    rho = _as_density(rho)
    d = rho.system.dim_of(label)
    axes = rho.system.axes([label])
    acc = np.zeros_like(rho.matrix)
    for v in hw_family(d):
        acc += act(rho.matrix, v.matrix, rho.system.dims, axes)
    return DensityOperator(rho.system, acc / (d * d), validate=False)


@dataclass(frozen=True)
class ConvexSplitReport:
    """Outcome of one split evaluation: bound inputs and achieved closeness."""

    k: float
    n_mixed: int
    analytic_bound: float
    achieved_rel_entropy: float
    achieved_fidelity: float

    def bound_satisfied(self, slack=1e-7):
        return self.achieved_rel_entropy <= self.analytic_bound + slack

    def as_record(self):
        return {
            "k": self.k,
            "N": self.n_mixed,
            "analytic_bound": self.analytic_bound,
            "achieved_rel_entropy": self.achieved_rel_entropy,
            "achieved_fidelity": self.achieved_fidelity,
        }


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
    S), so D and F are eigensolved once per translation class.  Returns
    (inf, 0.0) when a block leaves the support of ``ref``.
    """
    d = dims[1]
    q = d * d
    if not 1 <= n_mixed <= q:
        raise ValueError(f"N = {n_mixed} outside [1, {q}]")
    family = pairwise_family(q)
    members = [int(j) for j in np.random.default_rng(seed).permutation(q)[:n_mixed]]
    keys, inverse = hw_translation_classes(family.images(members), d)

    hw = hw_family(d)
    conj_cache = {}

    def conjugated(y):
        if y not in conj_cache:
            conj_cache[y] = act(state, hw[y].matrix, dims, [1])
        return conj_cache[y]

    d_vals, f_vals = [], []
    for key in keys:
        block = np.zeros_like(state)
        for y in key:
            block += conjugated(int(y))
        block /= n_mixed
        d_val = ref.rel_entropy(block)
        if not np.isfinite(d_val):
            return float("inf"), 0.0
        d_vals.append(d_val)
        f_vals.append(ref.fidelity(block))
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
    ref = np.kron(psi_r.matrix, _as_density(omega).matrix)
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
    psi = _as_density(psi)
    c_label = psi.system.labels[-1]
    mu_c = maximally_mixed(RegisterSystem([(c_label, psi.system.dim_of(c_label))]))
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
    psi = _as_density(psi)
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
    """Permutation of {0..|G|-1}^2: (i, j) -> (i + (j-i)l, j + (j-i)l) mod |G|."""
    g = prime_reg.prime if isinstance(prime_reg, PrimeRegister) else int(prime_reg)
    if not 0 <= ell < g:
        raise ValueError(f"l = {ell} out of range [0, {g})")
    table = {}
    for i in range(g):
        for j in range(g):
            d = (j - i) % g
            table[(i, j)] = ((i + d * ell) % g, (j + d * ell) % g)
    return table


def compose_u(first, then):
    """Apply ``first`` then ``then`` (both u_ell tables)."""
    return {k: then[v] for k, v in first.items()}


def u_ell_index(ell, g):
    """u_ell as an index array over the flat pairs i*g + j (vectorised)."""
    if not 0 <= ell < g:
        raise ValueError(f"l = {ell} out of range [0, {g})")
    i, j = np.divmod(np.arange(g * g), g)
    shift = (j - i) % g * ell
    return (i + shift) % g * g + (j + shift) % g


class PrimeEnsemble:
    """A state theta on (R, S, D) spread over (R, F1, D, F2) and mixed by the U_l.

    F1 and F2 are copies of the prime register ``reg``, built for
    |S| = reg.base_dim: F1 state q|S|^2 + s|S| + x carries (q, s, x), and only
    q = 0 is populated.  The base state is theta (x) mu_X on q = 0, (x) mu_F2;
    the mixed terms are its images under the U_l on (F1, F2).  ``psi_r`` is
    the R marginal of the decoupled target (a 1 x 1 identity without R).
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
        self.dim_full = self.r_dim * self.f_prime * self.d_dim * self.f_prime
        # theta (x) mu_X on the q = 0 part of F1, then (x) mu_F2
        self.base = np.kron(self.embed_f1(theta, np.diag([1.0, 0.0])),
                            np.eye(self.f_prime))
        self.base *= (1.0 / self.s_dim) * (1.0 / self.f_prime)

    def full_index(self, r, f1, d, f2):
        return ((r * self.f_prime + f1) * self.d_dim + d) * self.f_prime + f2

    def embed_f1(self, mat, q_op):
        """mat on (R, S, D) as an operator on (R, F1, D).

        F1 state q S^2 + s S + x carries mat (x) q_op on Q (x) I on X; F1
        keeps the first f_prime of these 2 S^2 states.
        """
        r, s, d = self.r_dim, self.s_dim, self.d_dim
        big = np.kron(mat, np.kron(q_op, np.eye(s)))         # (R, S, D, Q, X)
        big = reorder(big, (r, s, d, 2, s), [0, 3, 1, 4, 2])  # (R, Q, S, X, D)
        return permute_basis(big, np.arange(self.f_prime), (r, 2, s, s, d),
                             [1, 2, 3])

    @property
    def dims(self):
        return (self.r_dim, self.f_prime, self.d_dim, self.f_prime)

    def source(self, ell):
        """Gather map of U_l on the full space: (U_l x)[i] = x[src[i]].

        U_l^-1 = U_-l, so it is the image map of U_-l; U_l mat U_l^dag is
        mat[np.ix_(src, src)].
        """
        g = self.f_prime
        return lift_index(u_ell_index(-ell % g, g), self.dims, [1, 3])

    def marginal(self, ell):
        """Tr_F2(U_l base U_l^dag) on (R, F1, D), summed over f2 from base itself."""
        src = self.source(ell).reshape(-1, self.f_prime)
        out = np.zeros((len(src), len(src)), dtype=self.base.dtype)
        for idx in src.T:
            out += self.base[np.ix_(idx, idx)]
        return out

    def signals(self):
        """Unit signal vectors and their weights: base = sum_c weights[c] |c><c|.

        Each eigenvector u_t of theta on (R, S, D) is placed at F1 = s S + x1
        and F2 = f2, one column per (t, x1, f2), with weight
        t_val / (|S| f_prime).
        """
        t_vals, t_vecs = np.linalg.eigh(self.theta)
        keep = t_vals > 1e-13
        t_vals, t_vecs = t_vals[keep], t_vecs[:, keep]
        n_t, s_dim, f_prime = len(t_vals), self.s_dim, self.f_prime
        r, s, d, t, x1, f2 = np.ix_(range(self.r_dim), range(s_dim),
                                    range(self.d_dim), range(n_t),
                                    range(s_dim), range(f_prime))
        signals = np.zeros((self.dim_full, n_t * s_dim * f_prime), dtype=complex)
        signals[self.full_index(r, s * s_dim + x1, d, f2),
                (t * s_dim + x1) * f_prime + f2] = \
            t_vecs.reshape(self.r_dim, s_dim, self.d_dim, n_t)[..., None, None]
        return signals, np.repeat(t_vals / (s_dim * f_prime), s_dim * f_prime)

    def mixture_measures(self, subset, w_d):
        """D and F of tau = mean_l U_l base U_l^dag, l in ``subset``.

        The reference is psi_R (x) mu_F1 (x) diag(w_d) (x) mu_F2.  Every U_l
        permutes indices of equal reference weight, so tau has the log terms
        and the support of the base term; its spectra come from
        `mixture_spectra`.
        """
        mu = np.full(self.f_prime, 1.0 / self.f_prime)
        ref = Reference(self.psi_r, np.kron(mu, np.kron(w_d, mu)))
        terms = ref.log_terms(self.base)
        if terms is None:
            return float("inf"), 0.0
        tau_vals, mid_vals = self.mixture_spectra(subset, ref)
        return _entropy_sum(tau_vals) - terms[0] - terms[1], _root_sum(mid_vals)

    def mixture_spectra(self, subset, ref):
        """Eigenvalues of tau = mean_l U_l base U_l^dag and of sqrt(ref) tau sqrt(ref).

        ``ref`` is an `entropy.Reference` on (R; F1, D, F2), uniform on F1 F2,
        so every U_l fixes it.  Zero eigenvalues may be left out.  The
        eigensolve runs on the smaller of:
        - the eigenspaces of U_1 when ``subset`` is the whole group: U_l is
          U_1^l, so tau is the pinching of base onto them, and
          sqrt(ref) tau sqrt(ref) that of sqrt(ref) base sqrt(ref);
        - tau itself, compressed to the rows (R, w) for which some R-row of
          tau is nonzero, where the reference compresses to A (x) diag(w).
        """
        keep = self._occupied(subset)
        pinch = (2 * self.f_prime - 1) * self.r_dim * self.d_dim
        if len(subset) == self.f_prime and pinch < self.r_dim * len(keep):
            return (self._sector_spectrum(self.base),
                    self._sector_spectrum(ref.sandwich(self.base)))
        return self._support_spectra(subset, ref, keep)

    def _occupied(self, subset):
        """Indices on (F1, D, F2) where tau has a nonzero row for some R index."""
        diag = np.diagonal(self.base).real > 0
        occupied = np.zeros(self.dim_full, dtype=bool)
        for ell in subset:
            occupied |= diag[self.source(ell)]
        return np.flatnonzero(occupied.reshape(self.r_dim, -1).any(axis=0))

    def _support_spectra(self, subset, ref, keep):
        rows = (np.arange(self.r_dim)[:, None] * ref.w_dim + keep).reshape(-1)
        tau = np.zeros((len(rows), len(rows)), dtype=complex)
        for ell in subset:
            idx = self.source(ell)[rows]
            tau += self.base[np.ix_(idx, idx)]
        tau /= len(subset)
        return (np.linalg.eigvalsh(tau),
                np.linalg.eigvalsh(ref.restricted(keep).sandwich(tau)))

    def _sector_spectrum(self, mat):
        """Eigenvalues of the pinching of ``mat`` onto the eigenspaces of U_1.

        U_1 fixes the pairs (i, i) and maps (i, i + delta) to
        (i + delta, i + 2 delta).  In coordinates (delta, t), with i = t for
        delta = 0 and i = t delta otherwise, it is the shift t -> t + 1 on
        every delta != 0.  A DFT over t diagonalises it: every (0, k) lies in
        sector 0, and (delta, k) in sector k for delta != 0.
        """
        g, rd = self.f_prime, self.r_dim * self.d_dim
        delta, t = np.divmod(np.arange(g * g), g)
        i = np.where(delta == 0, t, delta * t % g)
        pairs = i * g + (i + delta) % g
        m = reorder(mat, self.dims, [0, 2, 1, 3]).reshape(rd, g * g, rd, g * g)
        m = m[:, pairs][:, :, :, pairs].reshape(rd, g, g, rd, g, g)
        m = np.fft.ifft(np.fft.fft(m, axis=2, norm="ortho"), axis=5, norm="ortho")
        m = m.reshape(rd, g * g, rd, g * g)
        sector = np.where(delta == 0, 0, t)
        vals = []
        for k in range(g):
            sel = np.flatnonzero(sector == k)
            block = m[:, sel][:, :, :, sel].reshape(rd * len(sel), -1)
            vals.append(np.linalg.eigvalsh(block))
        return np.concatenate(vals)


def _classical_ensemble(psi, prime_reg):
    """psi_RC as the `PrimeEnsemble` with S = C and a trivial D."""
    psi = _as_density(psi)
    psi_r = partial_trace(psi, [psi.system.labels[-1]])
    return PrimeEnsemble(psi.matrix, psi_r.matrix, 1, prime_reg), psi_r


def classical_marginal_check(psi, prime_reg, m):
    """Frobenius residual of Tr_G2(U_m (psi (x) |0>Q (x) mu_C1 (x) mu_G2) U_m^dag) = psi_R (x) mu_G1."""
    if not 1 <= m < prime_reg.prime:
        raise ValueError(f"m = {m} excluded; need 1 <= m < {prime_reg.prime}")
    ens, _ = _classical_ensemble(psi, prime_reg)
    g = prime_reg.prime
    target = np.kron(ens.psi_r, np.eye(g) / g)
    return float(np.linalg.norm(ens.marginal(m) - target))


def convex_split_classical(psi, subset, prime=None):
    """Mix the cyclic classical unitaries U_l over l in ``subset``.

    The C register must be last in ``psi``.  tau lives on (R, G1, G2), with
    psi_RC (x) mu_C1 on the first |G| states of Q (x) C (x) C1 in G1 (the
    `PrimeEnsemble` with S = C and a trivial D); the achieved relative
    entropy and fidelity are against psi_R (x) mu_G1 (x) mu_G2.
    """
    psi = _as_density(psi)
    c_dim = psi.system.dims[-1]
    reg = PrimeRegister(c_dim, prime) if prime else prime_register(c_dim)
    subset = _members(subset, reg.prime)
    inp = _plain_input(psi)
    ens = PrimeEnsemble(inp.theta, inp.psi_r, 1, reg)
    return _classical_split(inp, ens, subset, 1)
