from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneshot_qit.convexsplit import (GaloisField, PrimeRegister,
                                     classical_marginal_check, compose_u,
                                     convex_split_1design,
                                     convex_split_classical, hw_family,
                                     hw_translation_classes, hw_unitary,
                                     next_prime_in, one_design_average,
                                     pairwise_family, prime_register, u_ell,
                                     u_ell_index)
from oneshot_qit.entropy import Reference
from oneshot_qit.flatten import (_moved_state, convex_split_flat_1design,
                                 embezzling_state, round_spectrum)
from oneshot_qit.registers import (DensityOperator, RegisterSystem, act,
                                   basis_state, fidelity, maximally_entangled,
                                   maximally_mixed, pair_index, partial_trace,
                                   permute_registers, random_density, tensor)


def sysof(*pairs):
    return RegisterSystem(list(pairs))


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

    def test_gf9_field_axioms(self):
        # exhaustive over GF(2^m) (fixed polynomials) and GF(3^m) (searched)
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
        theta, psi_r, pairs = _moved_state(psi, flat, flat.e_dim, n)
        dims = (2, len(pairs), n + 1)
        ref = Reference(psi_r.matrix, np.kron(
            np.full(len(pairs), 1.0 / m_big),
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
    def test_embedding_injective(self):
        reg = prime_register(3)
        assert reg.prime == 11
        seen = {reg.host_index(i) for i in range(reg.prime)}
        assert len(seen) == reg.prime
        q, c, cp = reg.triple_of(10)
        assert q == 1 and 9 + c * 3 + cp == 10

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
            assert np.array_equal(u_ell_index(ell, g),
                                  pair_index(u_ell(ell, g), (g, g)))
        with pytest.raises(ValueError):
            u_ell_index(g, g)


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
        # tau built densely from the lifted input; target psi_R (x) mu_G1 (x) mu_G2
        from oneshot_qit.convexsplit import _rotate_host
        from oneshot_qit.entropy import relative_entropy
        psi = random_density(5, sysof(("R", 2), ("C", 2)))
        reg = PrimeRegister(2, 5)
        g, host, subset = 5, 8, [0, 2, 3]
        rep = convex_split_classical(psi, subset)
        lifted = permute_registers(
            tensor(psi, basis_state(sysof(("Q", 2)), 0),
                   maximally_mixed(sysof(("C1", 2))),
                   maximally_mixed(sysof(("G2", g)))),
            ["R", "Q", "C", "C1", "G2"])
        tau = sum(_rotate_host(lifted.matrix, lifted.system.dims, ell, reg)
                  for ell in subset) / len(subset)
        mu_g1 = np.zeros((host, host))
        for i in range(g):
            mu_g1[reg.host_index(i), reg.host_index(i)] = 1.0 / g
        target = np.kron(partial_trace(psi, ["C"]).matrix,
                         np.kron(mu_g1, np.eye(g) / g))
        tau_op = DensityOperator(lifted.system, tau, validate=False)
        ref = DensityOperator(lifted.system, target, validate=False)
        dense_val = relative_entropy(tau_op, ref)
        assert dense_val.finite
        assert abs(dense_val.value - rep.achieved_rel_entropy) <= 1e-8
        assert abs(fidelity(tau_op, ref) - rep.achieved_fidelity) <= 1e-8

    def test_uniform_invariance(self):
        # U_l(mu (x) mu)U_l^dag = mu (x) mu exactly on the embedded support
        from oneshot_qit.convexsplit import _rotate_host
        reg = PrimeRegister(2, 5)
        g, host = 5, 8
        mu = np.zeros((host * g, host * g))
        for i in range(g):
            for j in range(g):
                idx = reg.host_index(i) * g + j
                mu[idx, idx] = 1.0 / (g * g)
        for ell in range(5):
            rotated = _rotate_host(mu, (2, 2, 2, g), ell, reg)
            assert np.array_equal(rotated, mu)


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
