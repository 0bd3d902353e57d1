from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneshot_qit.coding import (hayashi_nagaoka_povm, neyman_pearson_operator,
                                position_based_decode_classical,
                                position_based_decode_flat)
from oneshot_qit.convexsplit import (GaloisField, PrimeEnsemble,
                                     PrimeRegister, classical_marginal_check,
                                     compose_u, convex_split_1design,
                                     convex_split_classical, hw_family,
                                     hw_translation_classes, hw_unitary,
                                     next_prime_in, one_design_average,
                                     pairwise_family, prime_register, u_ell,
                                     u_ell_index)
from oneshot_qit.entropy import Reference, relative_entropy
from oneshot_qit.flatten import (_flat_ensemble, _moved_state,
                                 convex_split_flat_1design,
                                 convex_split_flat_classical, embezzling_state,
                                 round_spectrum)
from oneshot_qit.registers import (DensityOperator, RegisterSystem, act,
                                   basis_state, fidelity, lift_index,
                                   maximally_entangled, maximally_mixed,
                                   partial_trace, permute_registers,
                                   random_density, reorder, tensor)


def sysof(*pairs):
    return RegisterSystem(list(pairs))


# The host space of the classical unitaries: G1 = Q (x) C0 (x) C1 holds the
# prime register on its first g of 2|C|^2 states, and the tail stays empty.

def host_input(psi, g):
    """psi_{R C0} (x) |0><0|_Q (x) mu_C1 (x) mu_G2 on (R..., Q, C0, C1, G2)."""
    labels = psi.system.labels
    c_dim = psi.system.dim_of(labels[-1])
    state = tensor(psi, basis_state(sysof(("Q", 2)), 0).density(),
                   maximally_mixed(sysof(("C1", c_dim))),
                   maximally_mixed(sysof(("G2", g))))
    return permute_registers(state, list(labels[:-1]) + ["Q", labels[-1], "C1",
                                                         "G2"])


def host_rotate(mat, ell, g, host):
    """U_l mat U_l^dag on (R..., G1, G2) with |G1| = host: the u_ell table on
    the first g states of G1 and the identity on its tail, as a dense matrix."""
    img = np.arange(host * g)
    for (i, j), (i2, j2) in u_ell(ell, g).items():
        img[i * g + j] = i2 * g + j2
    unitary = np.kron(np.eye(mat.shape[0] // (host * g)),
                      np.eye(host * g)[:, img])      # |k> -> |img[k]>
    return unitary @ mat @ unitary.T


class TestHWUnitaries:
    def test_identity(self):
        assert np.allclose(hw_unitary(0, 0, 2).matrix, np.eye(2))

    def test_shift_is_pauli_x(self):
        assert np.allclose(hw_unitary(1, 0, 2).matrix, [[0, 1], [1, 0]])

    def test_phase_is_pauli_z(self):
        assert np.allclose(hw_unitary(0, 1, 2).matrix, np.diag([1, -1]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hw_unitary(2, 0, 2)

    def test_all_unitary(self):
        for v in hw_family(5):
            assert np.max(np.abs(v.matrix.conj().T @ v.matrix - np.eye(5))) <= 1e-12


class TestOneDesign:
    def test_single_register_state(self):
        k0 = basis_state(sysof(("C", 2)), 0).density()
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


class TestPairwiseFamily:
    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16])
    def test_exhaustive_pairwise_independence(self, q):
        fam = pairwise_family(q)
        for j in range(q):
            for k in range(j + 1, q):
                assert fam.joint_map_is_bijection(j, k)

    def test_q2_members(self):
        fam = pairwise_family(2)
        # f_0(x1, x2) = x1, f_1(x1, x2) = x1 xor x2
        for x1 in range(2):
            for x2 in range(2):
                assert fam.evaluate(0, x1, x2) == x1
                assert fam.evaluate(1, x1, x2) == x1 ^ x2

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
        fam = pairwise_family(q)
        members = [int(j) for j in np.random.default_rng(q).permutation(q)]
        expected = np.array([[[fam.evaluate(j, x1, x2) for j in members]
                              for x2 in range(q)] for x1 in range(q)])
        assert np.array_equal(fam.images(members), expected)


def _hw_shift(y, t, d):
    """HW index of V_t V_y up to phase: (a, b) + (s, u) componentwise mod d."""
    return (y // d + t // d) % d * d + (y % d + t % d) % d


def plain_split_means(state, dims, axis, n_mixed, seed, ref, family):
    """Mean D and F over every (x1, x2) block, each eigensolved, no memo.

    Member images come from ``family.images``, which TestPairwiseImages
    checks against ``evaluate`` exhaustively.
    """
    d, q = dims[axis], family.q
    members = [int(j) for j in np.random.default_rng(seed).permutation(q)[:n_mixed]]
    conj = np.stack([act(state, v.matrix, dims, [axis]) for v in hw_family(d)])
    images = family.images(members)
    d_sum, f_sum = 0.0, 0.0
    for x1 in range(q):
        for x2 in range(q):
            block = sum(conj[y] for y in images[x1, x2]) / n_mixed
            d_sum += ref.rel_entropy(block)
            f_sum += ref.fidelity(block)
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
        hw = hw_family(d)

        def block(zs):
            return sum(act(psi.matrix, hw[z].matrix, psi.system.dims, [1])
                       for z in zs) / len(zs)

        moved = block([_hw_shift(y, t, d) for y in ys])
        assert abs(ref.rel_entropy(block(ys)) - ref.rel_entropy(moved)) <= 1e-10
        assert abs(ref.fidelity(block(ys)) - ref.fidelity(moved)) <= 1e-10


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
        for ell in range(g):
            img = u_ell_index(ell, g)
            for (i, j), (i2, j2) in u_ell(ell, g).items():
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
        for ell in range(g):
            image = lift_index(u_ell_index(ell, g), ens.dims, [1, 3])
            assert np.array_equal(ens.source(ell), np.argsort(image))


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
        keep = ens.dim_full // g
        for ell in range(g):
            src = ens.source(ell)
            traced = np.einsum("afbf->ab", ens.base[np.ix_(src, src)].reshape(
                keep, g, keep, g))
            assert np.max(np.abs(ens.marginal(ell) - traced)) <= 1e-14


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
        assert rep.bound_satisfied()

    def test_full_family(self):
        phi = maximally_entangled("R", "C", 2)
        rep = convex_split_1design(phi, 4, seed=0)
        assert rep.achieved_rel_entropy <= np.log2(1 + 3 / 4) + 1e-7

    def test_blockwise_matches_dense(self):
        # independent check of the block decomposition: build tau densely
        from oneshot_qit.convexsplit import hw_family, pairwise_family
        from oneshot_qit.entropy import relative_entropy
        psi = random_density(5, sysof(("R", 2), ("C", 2)))
        n_mixed, seed = 3, 11
        rep = convex_split_1design(psi, n_mixed, seed=seed)
        q = 4
        fam = pairwise_family(q)
        members = [int(j) for j in np.random.default_rng(seed).permutation(q)[:n_mixed]]
        hw = hw_family(2)
        tau = np.zeros((4 * q * q, 4 * q * q), dtype=complex)
        for x1 in range(q):
            for x2 in range(q):
                blk = np.zeros((4, 4), dtype=complex)
                for j in members:
                    v = np.kron(np.eye(2), hw[fam.evaluate(j, x1, x2)].matrix)
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
                assert rep.bound_satisfied()
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
            assert rep.bound_satisfied()
            assert rep.achieved_fidelity ** 2 >= 1 / (1 + 1 / n_mixed) - 1e-9

    def test_bound_value_example(self):
        phi = maximally_entangled("R", "C", 2)
        rep = convex_split_classical(phi, range(5))
        assert abs(rep.analytic_bound - np.log2(1 + 7 / 5)) <= 1e-9
        assert rep.bound_satisfied()

    def test_single_element(self):
        phi = maximally_entangled("R", "C", 2)
        rep = convex_split_classical(phi, [0])
        assert abs(rep.analytic_bound - (rep.k + 1.0)) <= 1e-9
        assert rep.bound_satisfied()

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
            src = ens.source(ell)
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
        g, host = 5, 8
        rep = position_based_decode_classical(phi, PrimeRegister(2, g),
                                              range(size), eps, delta)
        ref = tensor(partial_trace(phi, ["C"]),
                     maximally_mixed(sysof(("C", 2))))
        omega, _ = neyman_pearson_operator(phi, ref, eps)
        # Omega on (B, C0) (x) I on (Q, C1, G2), in the order (B, Q, C0, C1, G2)
        om_lift = reorder(np.kron(omega, np.eye(2 * 2 * g)), (2, 2, 2, 2, g),
                          [0, 2, 1, 3, 4])
        lifted = host_input(phi, g)
        tests = [host_rotate(om_lift, ell, g, host) for ell in range(size)]
        povm = hayashi_nagaoka_povm(tests)
        for ell in range(size):
            tau = host_rotate(lifted.matrix, ell, g, host)
            success = float(np.real(np.trace(povm.elements[ell] @ tau)))
            assert abs(rep.successes[ell] - success) <= 1e-12


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
