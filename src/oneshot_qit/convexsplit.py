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

from .entropy import Reference, dmax
from .registers import (DensityOperator, RegisterSystem, _as_density, act,
                        basis_state, maximally_mixed, partial_trace,
                        permute_basis, permute_registers, tensor)

# Fixed irreducible polynomials over GF(2), low-degree-first bit encoding.
_GF2_POLYS = {2: 0b111, 4: 0b10011, 6: 0b1000011, 8: 0b100011011}


def next_prime_in(n):
    """Smallest prime >= n (trial division; Bertrand guarantees < 2n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    cand = int(n)
    while True:
        if cand >= 2 and all(cand % p for p in range(2, int(cand ** 0.5) + 1)):
            return cand
        cand += 1


def _is_prime(n):
    return n >= 2 and all(n % p for p in range(2, int(n ** 0.5) + 1))


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
        if m == 1:
            self.poly = None
        elif p == 2 and m in _GF2_POLYS:
            self.poly = self._bits_to_digits(_GF2_POLYS[m])
        else:
            self.poly = self._smallest_irreducible()

    def _bits_to_digits(self, bits):
        return [(bits >> k) & 1 for k in range(self.m + 1)]

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


def hw_split_means(state, dims, axis, n_mixed, seed, ref, family):
    """Mean D and F against ``ref`` over the (x1, x2) blocks of a 1-design split.

    Block (x1, x2) is the average of V_y state V_y^dag, V_y the HW unitary on
    factor ``axis``, over the images y = f_j(x1, x2) of the first ``n_mixed``
    members of a seeded permutation of ``family``.  Conjugating by V_t maps
    the block of ys to the block of ys + t and fixes ``ref`` (uniform on that
    factor), so D and F are eigensolved once per translation class.  Returns
    (inf, 0.0) when a block leaves the support of ``ref``.
    """
    d = dims[axis]
    q = family.q
    members = [int(j) for j in np.random.default_rng(seed).permutation(q)[:n_mixed]]
    keys, inverse = hw_translation_classes(family.images(members), d)

    hw = hw_family(d)
    conj_cache = {}

    def conjugated(y):
        if y not in conj_cache:
            conj_cache[y] = act(state, hw[y].matrix, dims, [axis])
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


def convex_split_1design(psi, n_mixed, family=None, seed=0):
    """Mix a pairwise-independent selection of HW rotations of psi_RC (x) mu_X1X2.

    The C register must be the last register of ``psi`` and have power-of-two
    dimension.  Uses the first ``n_mixed`` members of a seeded permutation of
    the family, so ladders over N with a common seed are nested.  Exploits the
    block-diagonal structure over (x1, x2) instead of building the full state.
    """
    psi = _as_density(psi)
    labels = psi.system.labels
    c_label = labels[-1]
    d_c = psi.system.dim_of(c_label)
    if d_c & (d_c - 1):
        raise ValueError(f"|C| = {d_c} is not a power of two")
    q = d_c * d_c
    if family is None:
        family = pairwise_family(q)
    if family.q != q:
        raise ValueError(f"family over GF({family.q}) does not match |C|^2 = {q}")
    if not 1 <= n_mixed <= q:
        raise ValueError(f"N = {n_mixed} outside [1, {q}]")

    psi_r = partial_trace(psi, [c_label])
    k = dmax(psi, tensor(psi_r, maximally_mixed(RegisterSystem([(c_label, d_c)]))))
    if not k.finite:
        raise ValueError("Dmax against the decoupled target is infinite")
    bound = float(np.log2(1.0 + (2.0 ** k.value - 1.0) / n_mixed))

    ref = Reference(psi_r.matrix if len(labels) > 1 else np.eye(1),
                    np.full(d_c, 1.0 / d_c))
    achieved, fid = hw_split_means(psi.matrix, psi.system.dims, len(labels) - 1,
                                   n_mixed, seed, ref, family)
    return ConvexSplitReport(k.value, n_mixed, bound, achieved, fid)


@dataclass(frozen=True)
class PrimeRegister:
    """Prime-dimensional register G embedded in Q (x) C (x) C with a basis relabeling.

    Basis index i < |C|^2 encodes q=0, (c, c') with i = c|C| + c'; indices
    |C|^2 <= i < |G| encode q=1 with i = |C|^2 + c|C| + c'.  The remaining
    q=1 basis states of the host space are never populated.
    """

    base_dim: int
    prime: int

    def __post_init__(self):
        c2 = self.base_dim * self.base_dim
        if not _is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if not c2 <= self.prime <= 2 * c2:
            raise ValueError(f"prime {self.prime} outside [{c2}, {2 * c2}]")

    @property
    def host_dim(self):
        return 2 * self.base_dim * self.base_dim

    def host_index(self, i):
        """Index of |i>_G inside the Q (x) C (x) C product basis."""
        if not 0 <= i < self.prime:
            raise ValueError(f"index {i} out of range")
        return i  # (q, c, c') in lexicographic order is exactly i

    def triple_of(self, i):
        c = self.base_dim
        if i < c * c:
            return 0, i // c, i % c
        j = i - c * c
        return 1, j // c, j % c


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


def _g1_weights(prime_reg):
    """Diagonal of mu_G1 in the host basis: 1/|G| on the embedded states, 0 elsewhere."""
    w = np.zeros(prime_reg.host_dim)
    w[:prime_reg.prime] = 1.0 / prime_reg.prime   # host_index(i) == i
    return w


def _rotate_host(mat, dims, ell, prime_reg):
    """U_l mat U_l^dag for mat on (R..., Q, C0, C1, G2); G1 sits in (Q, C0, C1)."""
    g = prime_reg.prime
    img = np.arange(prime_reg.host_dim * g)
    img[:g * g] = u_ell_index(ell, g)   # host_index(i) * g + j == i * g + j
    return permute_basis(mat, np.argsort(img), dims, range(len(dims) - 4, len(dims)))


def _lift_classical_input(psi, prime_reg):
    """psi_RC0 (x) |0><0|_Q (x) mu_C1 (x) mu_G2, ordered (R..., Q, C0, C1, G2)."""
    psi = _as_density(psi)
    labels = psi.system.labels
    c0_label = labels[-1]
    rest = list(labels[:-1])
    c_dim = psi.system.dim_of(c0_label)
    q0 = basis_state(RegisterSystem([("Q", 2)]), 0).density()
    mu_c1 = maximally_mixed(RegisterSystem([("C1", c_dim)]))
    mu_g2 = maximally_mixed(RegisterSystem([("G2", prime_reg.prime)]))
    state = tensor(psi, q0, mu_c1, mu_g2)
    return permute_registers(state, rest + ["Q", c0_label, "C1", "G2"]), rest


def classical_marginal_check(psi, prime_reg, m):
    """Frobenius residual of Tr_G2(U_m (psi (x) |0>Q (x) mu_C1 (x) mu_G2) U_m^dag) = psi_R (x) mu_G1."""
    if not 1 <= m < prime_reg.prime:
        raise ValueError(f"m = {m} excluded; need 1 <= m < {prime_reg.prime}")
    psi = _as_density(psi)
    c0_label = psi.system.labels[-1]
    state, rest = _lift_classical_input(psi, prime_reg)
    rotated = DensityOperator(state.system, _rotate_host(
        state.matrix, state.system.dims, m, prime_reg), validate=False)
    marg = partial_trace(rotated, ["G2"])
    psi_r = partial_trace(psi, [c0_label])
    mu_g1 = np.diag(_g1_weights(prime_reg))
    target = np.kron(psi_r.matrix, mu_g1) if len(rest) else mu_g1
    return float(np.linalg.norm(marg.matrix - target))


def convex_split_classical(psi, subset, prime=None):
    """Mix the cyclic classical unitaries U_l over l in ``subset``.

    The C register must be last in ``psi``.  Builds tau on (R, G1, G2) with G1
    embedded in Q (x) C0 (x) C1, and checks the achieved relative entropy and
    fidelity against psi_R (x) mu_G1 (x) mu_G2.
    """
    psi = _as_density(psi)
    subset = sorted(set(int(x) for x in subset))
    if not subset:
        raise ValueError("subset of unitaries must be nonempty")
    c0_label = psi.system.labels[-1]
    c_dim = psi.system.dim_of(c0_label)
    reg = PrimeRegister(c_dim, prime) if prime else prime_register(c_dim)
    g = reg.prime
    if subset[0] < 0 or subset[-1] >= g:
        raise ValueError(f"subset members outside [0, {g})")

    psi_r = partial_trace(psi, [c0_label])
    k = dmax(psi, tensor(psi_r, maximally_mixed(RegisterSystem([(c0_label, c_dim)]))))
    if not k.finite:
        raise ValueError("Dmax against the decoupled target is infinite")
    n_mixed = len(subset)
    bound = float(np.log2(1.0 + (2.0 ** (k.value + 1.0) - 1.0) / n_mixed))

    state, rest = _lift_classical_input(psi, reg)
    acc = np.zeros_like(state.matrix)
    for ell in subset:
        acc += _rotate_host(state.matrix, state.system.dims, ell, reg)
    tau = acc / n_mixed

    ref = Reference(psi_r.matrix if len(rest) else np.eye(1),
                    np.kron(_g1_weights(reg), np.full(g, 1.0 / g)))
    achieved = ref.rel_entropy(tau)
    fid = ref.fidelity(tau)
    return ConvexSplitReport(k.value, n_mixed, bound, achieved, fid)
