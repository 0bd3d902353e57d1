import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oneshot_qit.coding import (neyman_pearson_operator,
                                position_based_decode_classical,
                                position_based_decode_flat)
from oneshot_qit.convexsplit import (GaloisField, PrimeEnsemble,
                                     PrimeRegister, _factor_prime_power,
                                     _hw_gather, _plain_input,
                                     classical_marginal_check,
                                     compose_u, convex_split_1design,
                                     convex_split_classical,
                                     hw_split_means, hw_translation_classes,
                                     next_prime_in, one_design_average,
                                     pairwise_family, prime_register, u_ell,
                                     u_ell_index)
from oneshot_qit.entropy import Reference, relative_entropy
from oneshot_qit.flatten import (_flat_ensemble, _flat_input, _moved_state,
                                 convex_split_flat_1design,
                                 convex_split_flat_classical, embezzling_state,
                                 round_spectrum)
from oneshot_qit.registers import (DensityOperator, Monomial, PureState,
                                   RegisterSystem, act, basis_state, fidelity,
                                   maximally_entangled,
                                   maximally_mixed, partial_trace,
                                   permute_registers, random_density, tensor)
from oracles import (dense_hw_family, dense_hw_split_means, dense_kron_eye,
                     dense_matrix, dense_one_design_average,
                     dense_reference_measures, exact_rotated_marginal,
                     hayashi_nagaoka_povm, lifted_classical_test,
                     lifted_marginal, traced_rotation)


def sysof(*pairs):
    return RegisterSystem(list(pairs))


# The host space of the classical unitaries: G1 = Q (x) C0 (x) C1 holds the
# prime register on its first g of 2|C|^2 states, and the tail stays empty.

def host_input(psi, g):
    """psi_{R C0} (x) |0><0|_Q (x) mu_C1 (x) mu_G2 on (R..., Q, C0, C1, G2)."""
    labels = psi.system.labels
    c_dim = psi.system.dim_of(labels[-1])
    state = tensor(psi, basis_state(sysof(("Q", 2)), 0),
                   maximally_mixed(sysof(("C1", c_dim))),
                   maximally_mixed(sysof(("G2", g))))
    return permute_registers(state, list(labels[:-1]) + ["Q", labels[-1], "C1",
                                                         "G2"])


def host_rotate(mat, ell, g, host):
    """U_l mat U_l^dag on (R..., G1, G2) with |G1| = host: the u_ell table on
    the first g states of G1 and the identity on its tail, as a dense matrix."""
    img = np.arange(host * g)
    img[:g * g] = u_ell_index(ell, g)
    unitary = np.kron(np.eye(mat.shape[0] // (host * g)),
                      np.eye(host * g)[:, img])      # |k> -> |img[k]>
    return unitary @ mat @ unitary.T


def host_successes(psi, omega, subset, g):
    """Tr(Lambda_l tau_l) for each l of ``subset``, from the dense
    `hayashi_nagaoka_povm` of the rotated tests Omega (x) I on the host space
    and the rotated `host_input`."""
    c_dim = psi.system.dim_of(psi.system.labels[-1])
    d_b, host = psi.system.total_dim // c_dim, 2 * c_dim * c_dim
    om_lift = lifted_classical_test(omega, d_b, c_dim, g)
    lifted = host_input(psi, g)
    povm = hayashi_nagaoka_povm([host_rotate(om_lift, ell, g, host)
                                 for ell in subset])
    return [float(np.real(np.trace(
        povm.elements[k] @ host_rotate(lifted.matrix, ell, g, host))))
        for k, ell in enumerate(subset)]


class TestHWUnitaries:
    def test_identity(self):
        assert np.allclose(dense_matrix(_hw_gather(0, 0, 2)), np.eye(2))

    def test_shift_is_pauli_x(self):
        assert np.allclose(dense_matrix(_hw_gather(1, 0, 2)), [[0, 1], [1, 0]])

    def test_phase_is_pauli_z(self):
        assert np.allclose(dense_matrix(_hw_gather(0, 1, 2)), np.diag([1, -1]))

    def test_all_unitary(self):
        for v in dense_hw_family(5):
            assert np.max(np.abs(v.conj().T @ v - np.eye(5))) <= 1e-12

    def test_gather_map_scatters_to_the_matrix(self):
        # (V x)[i] = phase[i] x[src[i]], against the loop over the columns
        # |c> -> exp(2 pi i c b / d) |c + a>, bit for bit
        for d in range(1, 9):
            for a in range(d):
                for b in range(d):
                    v = _hw_gather(a, b, d)
                    scattered = np.zeros((d, d), dtype=complex)
                    scattered[np.arange(d), v.src] = v.phase
                    loop = np.zeros((d, d), dtype=complex)
                    for c in range(d):
                        loop[(c + a) % d, c] = np.exp(2j * np.pi * c * b / d)
                    assert np.array_equal(scattered, loop)
                    assert np.array_equal(scattered, dense_matrix(v))


class TestOneDesign:
    def test_single_register_state(self):
        k0 = basis_state(sysof(("C", 2)), 0)
        avg = one_design_average(k0, "C")
        assert np.max(np.abs(avg.matrix - np.eye(2) / 2)) <= 1e-12

    def test_maximally_entangled(self):
        phi = maximally_entangled("R", "C", 2)
        avg = one_design_average(phi, "C")
        assert np.max(np.abs(avg.matrix - np.eye(4) / 4)) <= 1e-12

    def test_random_states_all_dims(self):
        for d in (2, 3, 4, 5):
            for seed in range(20):
                rho = random_density(seed, sysof(("R", 2), ("C", d)))
                avg = one_design_average(rho, "C")
                target = tensor(partial_trace(rho, ["C"]),
                                maximally_mixed(sysof(("C", d))))
                assert np.linalg.norm(avg.matrix - target.matrix) <= 1e-10


class ScalarField:
    """GF(p^m) one element at a time on digit lists (oracle).

    The arithmetic GaloisField had before it took arrays: base-p digit
    lists, a schoolbook product and its reduction by the monic ``poly``
    (lowest degree first, None when m = 1).
    """

    def __init__(self, q, poly):
        self.p, self.m = _factor_prime_power(q)
        self.poly = poly

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

    def tables(self):
        """The full addition and multiplication tables, [a, b]."""
        q = self.p ** self.m
        add = np.array([[self.add(a, b) for b in range(q)] for a in range(q)])
        mul = np.array([[self.mul(a, b) for b in range(q)] for a in range(q)])
        return add, mul


def _prime_powers(limit):
    """(q, p, m) for every prime power q = p^m <= limit."""
    out = []
    for q in range(2, limit + 1):
        try:
            out.append((q, *_factor_prime_power(q)))
        except ValueError:
            pass
    return out


PRIME_POWERS = _prime_powers(4096)
EXTENSIONS = [q for q, _, m in PRIME_POWERS if m > 1]
PRIMES = [q for q, _, m in PRIME_POWERS if m == 1]

# the tail of GaloisField(q).poly (its coefficients of x^0..x^(m-1) read in
# base p) for every q = p^m <= 4096 with m > 1.  Each is the polynomial the
# earlier Frobenius test chose, except at 729: that test took tail 4,
# x^6 + x + 1, which has the root 1 over GF(3), and trial division takes
# x^6 + x + 2.
POLY_TAILS = {
    4: 3, 8: 3, 9: 1, 16: 3, 25: 2, 27: 7, 32: 5, 49: 1, 64: 3, 81: 5,
    121: 1, 125: 6, 128: 3, 169: 2, 243: 7, 256: 27, 289: 3, 343: 2, 361: 1,
    512: 3, 529: 1, 625: 2, 729: 5, 841: 2, 961: 1, 1024: 9, 1331: 15,
    1369: 2, 1681: 3, 1849: 1, 2048: 5, 2187: 11, 2197: 2, 2209: 1, 2401: 8,
    2809: 2, 3125: 21, 3481: 1, 3721: 2, 4096: 9}


def _oracle_pairs(q, seed):
    """Every (a, b) for q <= 64, else 2000 seeded pairs."""
    if q <= 64:
        a, b = np.divmod(np.arange(q * q), q)
        return a, b
    return np.random.default_rng(seed).integers(0, q, (2, 2000))


class TestGaloisField:
    def test_polynomial_table(self):
        assert sorted(POLY_TAILS) == EXTENSIONS
        for q, p, m in PRIME_POWERS:
            poly = GaloisField(q).poly
            if m == 1:
                assert poly is None
                continue
            tail = POLY_TAILS[q]
            assert poly == [tail // p ** k % p for k in range(m)] + [1]
            assert all(type(c) is int for c in poly)

    @pytest.mark.parametrize("q", [q for q in EXTENSIONS if q != 729])
    def test_matches_scalar_oracle(self, q):
        f = GaloisField(q)
        oracle = ScalarField(q, f.poly)
        a, b = _oracle_pairs(q, q)
        assert np.array_equal(f.add(a, b), [oracle.add(x, y) for x, y in
                                            zip(a.tolist(), b.tolist())])
        assert np.array_equal(f.mul(a, b), [oracle.mul(x, y) for x, y in
                                            zip(a.tolist(), b.tolist())])

    def test_prime_fields_match_scalar_oracle(self):
        for q in PRIMES:
            f = GaloisField(q)
            oracle = ScalarField(q, None)
            a, b = _oracle_pairs(q, q)
            for x, y in zip(a[:50].tolist(), b[:50].tolist()):
                assert f.add(x, y) == oracle.add(x, y)
                assert f.mul(x, y) == oracle.mul(x, y)
            assert np.array_equal(f.add(a, b), (a + b) % q)
            assert np.array_equal(f.mul(a, b), a * b % q)

    def test_ints_in_ints_out(self):
        f = GaloisField(27)
        assert type(f.add(5, 7)) is int and type(f.mul(5, 7)) is int
        a = np.arange(27)
        assert f.mul(a[:, None], a).shape == (27, 27)
        assert f.add(a, 4).shape == (27,)

    # a field without trial division: one inverse per nonzero element from
    # the whole table up to 729, Fermat's a^(q-1) = 1 on samples above it
    @pytest.mark.parametrize("q", EXTENSIONS)
    def test_is_a_field(self, q):
        f = GaloisField(q)
        if q <= 729:
            a = np.arange(1, q)
            table = f.mul(a[:, None], a)
            assert np.array_equal((table == 1).sum(axis=1), np.ones(q - 1))
            return
        a = np.random.default_rng(q).integers(1, q, 500)
        power, base, e = np.ones_like(a), a, q - 1
        while e:
            if e & 1:
                power = f.mul(power, base)
            base = f.mul(base, base)
            e >>= 1
        assert np.all(power == 1)


def joint_map_is_bijection(fam, j, k):
    """Exhaustive pairwise-independence check for the member pair (j, k)."""
    img = fam.images([j, k])
    pairs = (img[..., 0] * fam.q + img[..., 1]).ravel()
    return bool(np.bincount(pairs, minlength=fam.q * fam.q).all())


class TestPairwiseFamily:
    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 32, 49, 64])
    def test_exhaustive_pairwise_independence(self, q):
        fam = pairwise_family(q)
        for j in range(q):
            for k in range(j + 1, q):
                assert joint_map_is_bijection(fam, j, k)

    def test_q2_members(self):
        fam = pairwise_family(2)
        # f_0(x1, x2) = x1, f_1(x1, x2) = x1 xor x2
        for x1 in range(2):
            for x2 in range(2):
                assert fam.evaluate(0, x1, x2) == x1
                assert fam.evaluate(1, x1, x2) == x1 ^ x2

    def test_gf729_members_0_and_5(self):
        # the two collided while GF(729) was reduced by x^6 + x + 1
        assert joint_map_is_bijection(pairwise_family(729), 0, 5)

    def test_not_prime_power(self):
        with pytest.raises(ValueError):
            pairwise_family(6)

    # the fixed GF(2^m) polynomials, low-degree-first bits, that GaloisField
    # read before it searched every field for its smallest irreducible one
    @pytest.mark.parametrize("m, bits", [
        (2, 0b111), (4, 0b10011), (6, 0b1000011), (8, 0b100011011)])
    def test_searched_polynomial_matches_the_gf2_table(self, m, bits):
        assert GaloisField(2 ** m).poly == [(bits >> k) & 1
                                            for k in range(m + 1)]

    def test_gf9_field_axioms(self):
        # exhaustive over GF(2^m) and GF(3^m)
        for q in (4, 8, 9, 16, 27):
            f = GaloisField(q)
            add = np.array([[f.add(x, y) for y in range(q)] for x in range(q)])
            mul = np.array([[f.mul(x, y) for y in range(q)] for x in range(q)])
            a, b, c = np.ix_(range(q), range(q), range(q))
            elems = np.arange(q)
            assert np.array_equal(add[:, 0], elems)
            assert np.array_equal(mul[:, 1], elems)
            assert not mul[:, 0].any()
            for op in (add, mul):
                assert np.array_equal(op, op.T)
                assert np.array_equal(op[op[a, b], c], op[a, op[b, c]])
            assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
            # each element has exactly one additive and (if nonzero) one
            # multiplicative inverse
            assert np.array_equal((add == 0).sum(axis=1), np.ones(q))
            assert np.array_equal((mul[1:, 1:] == 1).sum(axis=1), np.ones(q - 1))


class TestPairwiseImages:
    @pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 64])
    def test_matches_evaluate(self, q):
        # x1 + j*x2 from the scalar oracle's tables
        fam = pairwise_family(q)
        add, mul = ScalarField(q, GaloisField(q).poly).tables()
        members = [int(j) for j in np.random.default_rng(q).permutation(q)]
        x = np.arange(q)
        expected = add[x[:, None, None], mul[members][:, x].T[None]]
        assert np.array_equal(fam.images(members), expected)
        assert fam.evaluate(members[1], 3, 2) == expected[3, 2, 1]


def _hw_shift(y, t, d):
    """HW index of V_t V_y up to phase: (a, b) + (s, u) componentwise mod d."""
    return (y // d + t // d) % d * d + (y % d + t % d) % d


def plain_split_means(state, dims, axis, n_mixed, seed, ref, family):
    """Mean D and F over every (x1, x2) block, each eigensolved densely
    (`oracles.dense_reference_measures`), no memo.

    Member images come from ``family.images``, which TestPairwiseImages
    checks against ``evaluate`` exhaustively.
    """
    d, q = dims[axis], family.q
    members = [int(j) for j in np.random.default_rng(seed).permutation(q)[:n_mixed]]
    conj = np.stack([act(state, v, dims, [axis])
                     for v in dense_hw_family(d)])
    images = family.images(members)
    d_sum, f_sum = 0.0, 0.0
    for x1 in range(q):
        for x2 in range(q):
            block = sum(conj[y] for y in images[x1, x2]) / n_mixed
            d_val, f_val = dense_reference_measures(ref, block)
            d_sum += d_val
            f_sum += f_val
    return d_sum / (q * q), min(f_sum / (q * q), 1.0)


class TestTranslationClasses:
    @pytest.mark.parametrize("d", [2, 4])
    def test_key_is_minimum_over_all_shifts(self, d):
        q = d * d
        fam = pairwise_family(q)
        images = fam.images([int(j) for j in
                             np.random.default_rng(d).permutation(q)[:3]])
        keys, inverse = hw_translation_classes(images, d)
        rows = images.reshape(-1, 3)
        for row, cls in zip(rows, inverse):
            brute = min(tuple(sorted(_hw_shift(int(y), t, d) for y in row))
                        for t in range(q))
            assert tuple(keys[cls]) == brute
        assert len(keys) == len({tuple(k) for k in keys})

    @pytest.mark.parametrize("dim_c", [2, 4])
    @pytest.mark.parametrize("n_mixed", [1, 2, 3, "q"])
    def test_split_matches_plain_loop(self, dim_c, n_mixed):
        q = dim_c * dim_c
        n_mixed = q if n_mixed == "q" else n_mixed
        psi = random_density((dim_c, n_mixed), sysof(("R", 2), ("C", dim_c)))
        rep = convex_split_1design(psi, n_mixed, seed=3)
        ref = Reference(partial_trace(psi, ["C"]).matrix,
                        np.full(dim_c, 1.0 / dim_c))
        d_val, f_val = plain_split_means(psi.matrix, psi.system.dims, 1,
                                         n_mixed, 3, ref, pairwise_family(q))
        assert abs(rep.achieved_rel_entropy - d_val) <= 1e-12
        assert abs(rep.achieved_fidelity - f_val) <= 1e-12

    @pytest.mark.parametrize("n_mixed", [2, 5])
    def test_reference_coupling_what_the_blocks_leave_apart(self, n_mixed):
        # blocks classical on R against a reference whose sqrt(A) mixes R:
        # the sandwiches join what the blocks' own pattern leaves apart
        rho_c = random_density(7, sysof(("C", 4))).matrix
        state = np.kron(np.diag([0.6, 0.4]), rho_c)
        u = np.linalg.qr(np.array([[1.0, 2.0], [3.0, 1j]]))[0]
        ref = Reference((u * [0.7, 0.3]) @ u.conj().T, np.full(4, 0.25))
        d_val, f_val = plain_split_means(state, (2, 4, 1), 1, n_mixed, 1,
                                         ref, pairwise_family(16))
        got = hw_split_means(state, (2, 4, 1), n_mixed, 1, ref)
        assert abs(got[0] - d_val) <= 1e-12
        assert abs(got[1] - f_val) <= 1e-12

    # every N at gamma = 1/2 (q = 16); at gamma = 1/4 (q = 64) the plain
    # loop eigensolves 8192 blocks per N, so one N covers it
    @pytest.mark.parametrize("gamma, n_mixed", [
        (Fraction(1, 2), 1), (Fraction(1, 2), 2), (Fraction(1, 2), 3),
        (Fraction(1, 2), "q"), (Fraction(1, 4), 3)])
    def test_flat_split_matches_plain_loop(self, gamma, n_mixed):
        n = 4
        mu_c = maximally_mixed(sysof(("C", 2)))
        psi = random_density((gamma.denominator, 5), sysof(("R", 2), ("C", 2)))
        flat = round_spectrum(mu_c, gamma, "up")
        m_big = flat.grid_total
        q = m_big * m_big
        n_mixed = q if n_mixed == "q" else n_mixed
        rep = convex_split_flat_1design(psi, mu_c, gamma, n_mixed, n=n, seed=2)
        theta, psi_r = _moved_state(psi, flat, flat.e_dim, n)
        dims = (2, m_big, n + 1)
        ref = Reference(psi_r, np.kron(
            np.full(m_big, 1.0 / m_big),
            embezzling_state(1, n).weight_vector(n + 1)))
        d_val, f_val = plain_split_means(theta, dims, 1, n_mixed, 2, ref,
                                         pairwise_family(q))
        assert abs(rep.achieved_rel_entropy - d_val) <= 1e-12
        assert abs(rep.achieved_fidelity - f_val) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.sampled_from([2, 4]),
           data=st.data())
    def test_block_measures_are_translation_invariant(self, seed, d, data):
        psi = random_density(seed, sysof(("R", 2), ("C", d)))
        ys = data.draw(st.lists(st.integers(0, d * d - 1), min_size=1,
                                max_size=5))
        t = data.draw(st.integers(0, d * d - 1))
        ref = Reference(partial_trace(psi, ["C"]).matrix, np.full(d, 1.0 / d))
        hw = dense_hw_family(d)

        def block(zs):
            return sum(act(psi.matrix, hw[z], psi.system.dims, [1])
                       for z in zs) / len(zs)

        moved = block([_hw_shift(y, t, d) for y in ys])
        assert abs(ref.rel_entropy(block(ys)) - ref.rel_entropy(moved)) <= 1e-10
        assert abs(ref.fidelity(block(ys)) - ref.fidelity(moved)) <= 1e-10


class _RecordingReference:
    """An `entropy.Reference` that keeps a copy of every block it measures."""

    def __init__(self, ref):
        self.ref, self.blocks = ref, []

    def rel_entropy(self, rho, blocks=None):
        self.blocks.append(rho.copy())
        return self.ref.rel_entropy(rho, blocks)

    def fidelity(self, rho, blocks=None):
        return self.ref.fidelity(rho, blocks)


def _benchmark_1design_ladders():
    """(split input, ladder) of the benchmark's 1-design cases at seed 0:
    the plain splits at |C| = 2 and 4, the flat ones at gamma = 1/2 and 1/4
    (n = 4), keyed by case."""
    cases = {}
    for dim_c, ladder in ((2, (1, 2, 4)), (4, (1, 2, 4, 8, 16))):
        psi = random_density((dim_c, 0), sysof(("R", 2), ("C", dim_c)))
        cases[f"C{dim_c}"] = (lambda psi=psi: _plain_input(psi)), ladder
    mu_c = maximally_mixed(sysof(("C", 2)))
    for gamma, ladder in ((Fraction(1, 2), (4, 16)), (Fraction(1, 4), (2,))):
        psi = random_density((gamma.denominator, 0),
                             sysof(("R", 2), ("C", 2)))
        cases[f"gamma{gamma}"] = (lambda psi=psi, gamma=gamma:
                                  _flat_input(psi, mu_c, gamma, 4)), ladder
    return cases


class TestDenseHWOracles:
    """The HW averages gather each V_y (a `registers.Monomial`) where their
    former bodies, kept in `oracles`, multiplied by dense matrices."""

    @pytest.mark.parametrize("case", sorted(_benchmark_1design_ladders()))
    def test_split_means_match_the_dense_body(self, case):
        make, ladder = _benchmark_1design_ladders()[case]
        inp = make()
        s_dim = inp.dims[1]
        ref = Reference(inp.psi_r,
                        np.kron(np.full(s_dim, 1.0 / s_dim), inp.w_d))
        for n_mixed in ladder:
            got_ref, want_ref = _RecordingReference(ref), \
                _RecordingReference(ref)
            got = hw_split_means(inp.theta, inp.dims, n_mixed, 0, got_ref)
            want = dense_hw_split_means(inp.theta, inp.dims, n_mixed, 0,
                                        want_ref)
            assert repr(got) == repr(want)
            assert len(got_ref.blocks) == len(want_ref.blocks)
            assert max(np.max(np.abs(a - b)) for a, b in
                       zip(got_ref.blocks, want_ref.blocks)) <= 1e-15

    def test_one_design_average_matches_the_dense_body(self):
        for d in (2, 3, 4, 5):
            for seed in range(5):
                rho = random_density(seed, sysof(("C", d), ("R", 2)))
                assert np.max(np.abs(one_design_average(rho, "C").matrix
                                     - dense_one_design_average(rho, "C"))) \
                    <= 1e-15


class TestNextPrime:
    def test_examples(self):
        assert next_prime_in(4) == 5
        assert next_prime_in(16) == 17
        assert next_prime_in(9) == 11

    def test_bertrand_window(self):
        for n in range(2, 200):
            p = next_prime_in(n)
            assert n <= p < 2 * n


class TestPrimeRegister:
    def test_bad_prime(self):
        with pytest.raises(ValueError):
            PrimeRegister(2, 6)
        with pytest.raises(ValueError):
            PrimeRegister(2, 11)


class TestUEll:
    def test_identity(self):
        reg = PrimeRegister(2, 5)
        table = u_ell(0, reg)
        assert all(v == k for k, v in table.items())

    def test_direct_substitution(self):
        table = u_ell(2, PrimeRegister(2, 5))
        assert table[(1, 3)] == (0, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            u_ell(5, PrimeRegister(2, 5))

    @pytest.mark.parametrize("g,c_dim", [(5, 2), (7, 2), (11, 3), (13, 3),
                                         (17, 4), (31, 5)])
    def test_group_law_exhaustive(self, g, c_dim):
        reg = PrimeRegister(c_dim, g)
        tables = {m: u_ell(m, reg) for m in range(g)}
        for ell in range(g):
            for m in range(g):
                assert compose_u(tables[ell], tables[m]) == tables[(m + ell) % g]
            inv = tables[(g - ell) % g]
            assert compose_u(tables[ell], inv) == tables[0]

    def test_bijection(self):
        for g in (5, 7):
            table = u_ell(3, PrimeRegister(2, g))
            assert len(set(table.values())) == g * g

    @pytest.mark.parametrize("g", [5, 7, 11])
    def test_index_form_matches_table(self, g):
        reg = PrimeRegister(math.isqrt(g), g)      # |C|^2 <= g <= 2 |C|^2
        for ell in range(g):
            img = u_ell_index(ell, g)
            for (i, j), (i2, j2) in u_ell(ell, reg).items():
                assert img[i * g + j] == i2 * g + j2
        with pytest.raises(ValueError):
            u_ell_index(g, g)

    @pytest.mark.parametrize("g", [5, 7, 11, 17])
    def test_inverse_is_the_negated_index(self, g):
        # U_l^-1 = U_-l: the gather map of U_l is the image map of U_-l
        for ell in range(g):
            assert np.array_equal(u_ell_index(-ell % g, g),
                                  np.argsort(u_ell_index(ell, g)))

    @pytest.mark.parametrize("r_dim, c_dim, d_dim, g",
                             [(2, 2, 1, 5), (1, 2, 3, 7), (2, 3, 2, 11)])
    def test_ensemble_source_inverts_the_lifted_image(self, r_dim, c_dim,
                                                       d_dim, g):
        theta = np.eye(r_dim * c_dim * d_dim) / (r_dim * c_dim * d_dim)
        ens = PrimeEnsemble(theta, np.eye(r_dim) / r_dim, d_dim,
                            PrimeRegister(c_dim, g))
        family = ens.source(range(g))
        for ell in range(g):
            image = Monomial(u_ell_index(ell, g)).lift(ens.dims, [1, 3]).src
            assert np.array_equal(ens.source(ell).src, np.argsort(image))
            assert np.array_equal(family.src[ell], ens.source(ell).src)


class TestMarginalCheck:
    def test_product_state(self):
        psi = tensor(random_density(0, sysof(("R", 2))),
                     random_density(1, sysof(("C", 2))))
        reg = prime_register(2)
        for m in range(1, 5):
            assert classical_marginal_check(psi, reg, m) <= 1e-10

    def test_maximally_entangled(self):
        phi = maximally_entangled("R", "C", 2)
        reg = PrimeRegister(2, 5)
        assert classical_marginal_check(phi, reg, 1) <= 1e-10

    def test_m_zero_rejected(self):
        phi = maximally_entangled("R", "C", 2)
        with pytest.raises(ValueError):
            classical_marginal_check(phi, prime_register(2), 0)

    def test_exhaustive_small(self):
        for seed in range(3):
            psi = random_density(seed, sysof(("R", 2), ("C", 2)))
            reg = PrimeRegister(2, 5)
            for m in range(1, 5):
                assert classical_marginal_check(psi, reg, m) <= 1e-10

    def test_register_size_mismatch(self):
        psi = random_density(0, sysof(("R", 2), ("C", 3)))
        for reg in (PrimeRegister(2, 5), PrimeRegister(4, 17)):
            with pytest.raises(ValueError, match="built for"):
                classical_marginal_check(psi, reg, 1)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_the_exact_marginal(self, data):
        # a diagonal psi_RC with rational entries: the rotated base stays
        # diagonal, so Tr_F2(U_l base U_l^dag) is exact in Fractions
        # (`exact_rotated_marginal`) and equals psi_R / g on every F1 state
        # at every l != 0; marginal() and the residual meet it to rounding
        c_dim = data.draw(st.integers(1, 3))
        prime = data.draw(st.sampled_from(
            [p for p in (2, 3, 5, 7, 11) if c_dim ** 2 <= p <= 2 * c_dim ** 2]))
        r_dim = data.draw(st.integers(1, 3))
        counts = data.draw(st.lists(st.integers(0, 9), min_size=r_dim * c_dim,
                                    max_size=r_dim * c_dim).filter(any))
        diag = np.array(counts, dtype=float) / sum(counts)
        psi = DensityOperator(sysof(("R", r_dim), ("C", c_dim)), np.diag(diag))
        p = [[Fraction(v) for v in row] for row in diag.reshape(r_dim, c_dim)]
        reg = PrimeRegister(c_dim, prime)
        marg = PrimeEnsemble(psi.matrix, partial_trace(psi, ["C"]).matrix, 1,
                             reg).marginal()
        assert np.array_equal(marg, np.diag(np.diagonal(marg).real))
        for ell in range(1, prime):
            exact = exact_rotated_marginal(p, reg, ell)
            for r, row in enumerate(exact):
                assert row == [sum(p[r]) / prime] * prime
                assert abs(Fraction(marg[r, r].real) - row[0]) <= 1e-15
            # the exact residual is 0, so the float one is rounding alone
            assert classical_marginal_check(psi, reg, ell) <= 1e-15


class TestPrimeEnsemble:
    @pytest.mark.parametrize("case", ["classical", "flat"])
    def test_marginal_is_traced_rotation(self, case):
        psi = random_density(4, sysof(("R", 2), ("C", 3 if case == "classical"
                                                   else 2)))
        if case == "classical":
            ens = PrimeEnsemble(psi.matrix, partial_trace(psi, ["C"]).matrix,
                                1, PrimeRegister(3, 11))
        else:
            mu_c = maximally_mixed(sysof(("C", 2)))
            flat = round_spectrum(mu_c, Fraction(2, 3), "up")
            ens = _flat_ensemble(psi, flat, flat.e_dim, 3, 4)
        g = ens.f_prime
        base = dense_kron_eye(ens.base_factor, g)
        lifted = lifted_marginal(ens)
        for ell in range(1, g):
            assert np.max(np.abs(
                lifted - traced_rotation(ens, base, ell))) <= 1e-14
        # U_0 is the identity, which sweeps nothing: Tr_F2 of factor (x)
        # I_F2 is g factor, and the lemma needs l != 0
        assert np.max(np.abs(traced_rotation(ens, base, 0)
                             - g * ens.base_factor)) <= 1e-14


class TestConvexSplit1Design:
    def test_decoupled_input_zero(self):
        prod = tensor(random_density(1, sysof(("R", 2))),
                      maximally_mixed(sysof(("C", 2))))
        rep = convex_split_1design(prod, 2, seed=0)
        assert rep.k <= 1e-9
        assert rep.achieved_rel_entropy <= 1e-9
        assert rep.analytic_bound <= 1e-9

    def test_maximally_entangled_bound_value(self):
        phi = maximally_entangled("R", "C", 2)
        rep = convex_split_1design(phi, 1, seed=0)
        assert abs(rep.k - 2.0) <= 1e-9
        assert abs(rep.analytic_bound - 2.0) <= 1e-9
        assert rep.bound_check().holds

    def test_full_family(self):
        phi = maximally_entangled("R", "C", 2)
        rep = convex_split_1design(phi, 4, seed=0)
        assert rep.achieved_rel_entropy <= np.log2(1 + 3 / 4) + 1e-7

    def test_blockwise_matches_dense(self):
        # independent check of the block decomposition: build tau densely
        from oneshot_qit.entropy import relative_entropy
        psi = random_density(5, sysof(("R", 2), ("C", 2)))
        n_mixed, seed = 3, 11
        rep = convex_split_1design(psi, n_mixed, seed=seed)
        q = 4
        fam = pairwise_family(q)
        members = [int(j) for j in np.random.default_rng(seed).permutation(q)[:n_mixed]]
        hw = dense_hw_family(2)
        tau = np.zeros((4 * q * q, 4 * q * q), dtype=complex)
        for x1 in range(q):
            for x2 in range(q):
                blk = np.zeros((4, 4), dtype=complex)
                for j in members:
                    v = np.kron(np.eye(2), hw[fam.evaluate(j, x1, x2)])
                    blk += v @ psi.matrix @ v.conj().T
                blk /= n_mixed
                idx = x1 * q + x2
                sl = slice(idx * 4, idx * 4 + 4)
                tau[sl, sl] = blk / (q * q)
        sys_big = sysof(("X", q * q), ("R", 2), ("C", 2))
        tau_op = DensityOperator(sys_big, tau, validate=False)
        psi_r = partial_trace(psi, ["C"])
        ref = tensor(maximally_mixed(sysof(("X", q * q))), psi_r,
                     maximally_mixed(sysof(("C", 2))))
        dense_val = relative_entropy(tau_op, ref)
        assert dense_val.finite
        assert abs(dense_val.value - rep.achieved_rel_entropy) <= 1e-8
        assert abs(fidelity(tau_op, ref) - rep.achieved_fidelity) <= 1e-8

    def test_bounds_and_monotonicity_ladder(self):
        for seed in range(5):
            psi = random_density(seed, sysof(("R", 2), ("C", 2)))
            values = []
            for n_mixed in (1, 2, 4):
                rep = convex_split_1design(psi, n_mixed, seed=123)
                assert rep.bound_check().holds
                values.append(rep.achieved_rel_entropy)
            for lo, hi in zip(values[1:], values):
                assert lo <= hi + 1e-9

    def test_bad_inputs(self):
        phi = maximally_entangled("R", "C", 3)
        with pytest.raises(ValueError):
            convex_split_1design(phi, 1)   # |C| = 3 not a power of two
        phi2 = maximally_entangled("R", "C", 2)
        with pytest.raises(ValueError):
            convex_split_1design(phi2, 5)  # N > q


def test_c_only_state_splits_as_with_a_trivial_r():
    c_only = random_density(1, sysof(("C", 2)))
    with_r = DensityOperator(sysof(("R", 1), ("C", 2)), c_only.matrix)
    assert convex_split_1design(c_only, 3, seed=2) \
        == convex_split_1design(with_r, 3, seed=2)
    assert convex_split_classical(c_only, [0, 2, 3]) \
        == convex_split_classical(with_r, [0, 2, 3])


class TestConvexSplitClassical:
    def test_decoupled_input(self):
        prod = tensor(random_density(1, sysof(("R", 2))),
                      maximally_mixed(sysof(("C", 2))))
        for n_mixed in (1, 2, 5):
            rep = convex_split_classical(prod, range(n_mixed))
            assert rep.bound_check().holds
            assert rep.achieved_fidelity ** 2 >= 1 / (1 + 1 / n_mixed) - 1e-9

    def test_bound_value_example(self):
        phi = maximally_entangled("R", "C", 2)
        rep = convex_split_classical(phi, range(5))
        assert abs(rep.analytic_bound - np.log2(1 + 7 / 5)) <= 1e-9
        assert rep.bound_check().holds

    def test_single_element(self):
        phi = maximally_entangled("R", "C", 2)
        rep = convex_split_classical(phi, [0])
        assert abs(rep.analytic_bound - (rep.k + 1.0)) <= 1e-9
        assert rep.bound_check().holds

    def test_empty_subset(self):
        phi = maximally_entangled("R", "C", 2)
        with pytest.raises(ValueError):
            convex_split_classical(phi, [])

    def test_fidelity_floor(self):
        for seed in range(5):
            psi = random_density(seed, sysof(("R", 2), ("C", 2)))
            for n_mixed in (1, 2, 5):
                rep = convex_split_classical(psi, range(n_mixed))
                denom = 1 + (2 ** (rep.k + 1) - 1) / n_mixed
                assert rep.achieved_fidelity ** 2 >= 1 / denom - 1e-9

    def test_monotone_in_n(self):
        psi = random_density(3, sysof(("R", 2), ("C", 2)))
        values = [convex_split_classical(psi, range(n)).achieved_rel_entropy
                  for n in (1, 2, 4)]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi + 1e-9

    def test_matches_dense_reference(self):
        # tau built densely in the host space (R, Q, C0, C1, G2); target
        # psi_R (x) mu_G1 (x) mu_G2 with mu_G1 on the first g host states
        for dim_c, g in ((2, 5), (2, 7), (3, 11)):
            psi = random_density((dim_c, g, 5), sysof(("R", 2), ("C", dim_c)))
            lifted = host_input(psi, g)
            host = 2 * dim_c * dim_c
            mu_g1 = np.diag(np.arange(host) < g) / g
            target = DensityOperator(lifted.system, np.kron(
                partial_trace(psi, ["C"]).matrix,
                np.kron(mu_g1, np.eye(g) / g)), validate=False)
            for subset in ([0], [1, 3], range(g)):
                rep = convex_split_classical(psi, subset, prime=g)
                tau = DensityOperator(lifted.system, sum(
                    host_rotate(lifted.matrix, ell, g, host)
                    for ell in subset) / len(subset), validate=False)
                dense_val = relative_entropy(tau, target)
                assert dense_val.finite
                assert abs(dense_val.value - rep.achieved_rel_entropy) <= 1e-12
                assert abs(fidelity(tau, target) - rep.achieved_fidelity) \
                    <= 1e-12

    def test_uniform_invariance(self):
        # U_l (mu_F1 (x) mu_F2) U_l^dag = mu_F1 (x) mu_F2 exactly
        g = 5
        ens = PrimeEnsemble(np.eye(4) / 4, np.eye(2) / 2, 1,
                            PrimeRegister(2, g))
        mu = np.kron(np.eye(2), np.kron(np.eye(g) / g, np.eye(g) / g))
        for ell in range(g):
            src = ens.source(ell).src
            assert np.array_equal(mu[np.ix_(src, src)], mu)


def _decoder_input():
    """The mixed (B, C) state of test_signal_array_matches_scalar_loop."""
    rng = np.random.default_rng(9)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u_c, _ = np.linalg.qr(g)
    return DensityOperator(sysof(("B", 1), ("C", 2)),
                           (u_c * np.array([0.7, 0.3])) @ u_c.conj().T)


_SPLIT_PSI = random_density(77, sysof(("R", 2), ("C", 2)))
_MU_C = maximally_mixed(sysof(("C", 2)))

# (call on a subset, group size) for every entry point that takes a subset
_SUBSET_CALLS = {
    "split_classical": (lambda s: convex_split_classical(_SPLIT_PSI, s), 5),
    "split_flat_classical": (lambda s: convex_split_flat_classical(
        _SPLIT_PSI, partial_trace(_SPLIT_PSI, ["R"]), Fraction(2, 3), s,
        n=3), 11),
    "decode_classical": (lambda s: position_based_decode_classical(
        _decoder_input(), PrimeRegister(2, 5), s, 0.01, 0.5), 5),
    "decode_flat": (lambda s: position_based_decode_flat(
        _decoder_input(), _MU_C, Fraction(2, 3), s, 0.01, 0.5, a=2, n=3,
        d_size=8), 11),
}


@pytest.mark.parametrize("name", sorted(_SUBSET_CALLS))
class TestSubsetRule:
    @pytest.mark.parametrize("bad", ["empty", "size", "negative"])
    def test_refuses(self, name, bad):
        call, size = _SUBSET_CALLS[name]
        subset = {"empty": [], "size": [0, size], "negative": [-1, 0]}[bad]
        with pytest.raises(ValueError, match="subset"):
            call(subset)

    def test_repeats_and_order_are_ignored(self, name):
        call, _ = _SUBSET_CALLS[name]
        assert call([1, 0, 1]) == call([0, 1])


class TestClassicalDecoderOracle:
    """The signal-vector successes against the Hayashi-Nagaoka POVM on the host space."""

    @pytest.mark.parametrize("eps, delta, size", [
        (0.01, 0.1, 1), (0.005, 0.15, 1), (0.005, 0.15, 2), (0.005, 0.15, 4),
        (0.01, 0.2, 2)])
    def test_matches_povm_on_host_space(self, eps, delta, size):
        phi = maximally_entangled("B", "C", 2)
        rep = position_based_decode_classical(phi, PrimeRegister(2, 5),
                                              range(size), eps, delta)
        ref = tensor(partial_trace(phi, ["C"]),
                     maximally_mixed(sysof(("C", 2))))
        omega, _ = neyman_pearson_operator(phi, ref, eps)
        want = host_successes(phi, omega, range(size), 5)
        for ell in range(size):
            assert abs(rep.successes[ell] - want[ell]) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d_b=st.integers(1, 3),
           g=st.sampled_from([5, 7]), eps=st.floats(1e-3, 0.2),
           delta=st.floats(0.05, 0.95), data=st.data())
    def test_matches_povm_on_random_pure_states(self, seed, d_b, g, eps,
                                                delta, data):
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(2 * d_b) + 1j * rng.standard_normal(2 * d_b)
        psi = PureState(sysof(("B", d_b), ("C", 2)), vec / np.linalg.norm(vec))
        ref = tensor(partial_trace(psi, ["C"]),
                     maximally_mixed(sysof(("C", 2))))
        omega, type2 = neyman_pearson_operator(psi, ref, eps)
        cap = delta ** 2 / (4 * eps * type2)
        assume(cap >= 1)
        subset = sorted(data.draw(st.sets(st.integers(0, g - 1), min_size=1,
                                          max_size=int(min(g, cap)))))
        try:
            rep = position_based_decode_classical(psi, PrimeRegister(2, g),
                                                  subset, eps, delta)
        except ValueError:
            assume(False)
        want = host_successes(psi, omega, subset, g)
        for k, ell in enumerate(subset):
            assert abs(rep.successes[ell] - want[k]) <= 1e-12
        assert rep.min_success >= rep.exact_bound - 1e-9


class TestSplitBoundProperty:
    """Both split bounds across random psi_RC on 2 x 2, hence across random k."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rank=st.integers(1, 4),
           data=st.data())
    def test_classical(self, seed, rank, data):
        psi = random_density(seed, sysof(("R", 2), ("C", 2)), rank=rank)
        for n_mixed in (1, 2, 5):
            subset = data.draw(st.lists(st.integers(0, 4), min_size=n_mixed,
                                        max_size=n_mixed, unique=True))
            rep = convex_split_classical(psi, subset)
            assert rep.achieved_rel_entropy <= rep.analytic_bound + 1e-7
            floor = 1 / (1 + (2 ** (rep.k + 1) - 1) / n_mixed)
            assert rep.achieved_fidelity ** 2 >= floor - 1e-7

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), rank=st.integers(1, 4),
           split_seed=st.integers(0, 2 ** 16))
    def test_1design(self, seed, rank, split_seed):
        psi = random_density(seed, sysof(("R", 2), ("C", 2)), rank=rank)
        for n_mixed in (1, 2, 4):
            rep = convex_split_1design(psi, n_mixed, seed=split_seed)
            assert rep.achieved_rel_entropy <= rep.analytic_bound + 1e-7
