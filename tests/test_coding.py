from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneshot_qit import coding, entropy
from oneshot_qit.coding import (POVM, CodingReport, _components, _inv_sqrt,
                                _lifted_flat_test, _measured,
                                amplitude_damping_channel,
                                apply_channel, channel_rate_cap,
                                dephasing_channel, depolarizing_channel,
                                ea_channel_code, entanglement_budget,
                                hayashi_nagaoka_povm, hn_inequality_gap,
                                identity_channel, neyman_pearson_operator,
                                position_based_decode_classical,
                                position_based_decode_flat,
                                redistribution_bounds)
from oneshot_qit.convexsplit import PrimeRegister, hw_family, pairwise_family
from oneshot_qit.entropy import dh_eps
from oneshot_qit.flatten import (_flat_ensemble, embezzling_state,
                                 round_spectrum, unitary_flatten_W)
from oneshot_qit.registers import (DensityOperator, PureState, RegisterSystem,
                                   act, basis_state, canonical_purification,
                                   maximally_entangled, maximally_mixed,
                                   partial_trace, permute_basis,
                                   random_density, tensor, tensor_pure)


def sysof(*pairs):
    return RegisterSystem(list(pairs))


def _psd(rng, dim, rank=None, low=0.5, high=2.0):
    """Random PSD matrix: `rank` eigenvalues drawn from [low, high], rest 0."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    basis, _ = np.linalg.qr(g)
    vals = np.zeros(dim)
    vals[:rank] = rng.uniform(low, high, rank)
    return (basis * vals) @ basis.conj().T


def _block_diag(blocks):
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim), dtype=complex)
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


def _dense_inv_sqrt(total):
    """S^{-1/2} on the support and the support projector, one dense eigh."""
    vals, vecs = np.linalg.eigh(total)
    pos = vals > 1e-12
    v_pos = vecs[:, pos]
    return (v_pos / np.sqrt(vals[pos])) @ v_pos.conj().T, \
        v_pos @ v_pos.conj().T


class TestChannels:
    def test_identity(self):
        rho = random_density(0, sysof(("A", 2)))
        out = apply_channel(identity_channel(2), rho, ["A"])
        assert np.allclose(out.matrix, rho.matrix)

    def test_fully_depolarizing(self):
        k0 = basis_state(sysof(("A", 2)), 0).density()
        out = apply_channel(depolarizing_channel(1.0), k0, ["A"])
        assert np.allclose(out.matrix, np.eye(2) / 2)

    def test_depolarizing_kraus_sum_oracle(self):
        p = 0.1
        rho = basis_state(sysof(("A", 2)), 0).density()
        out = apply_channel(depolarizing_channel(p), rho, ["A"])
        expect = (1 - p) * rho.matrix + p * np.eye(2) / 2
        assert np.max(np.abs(out.matrix - expect)) <= 1e-12

    def test_trace_preserved_on_subsystem(self):
        rho = random_density(4, sysof(("A", 2), ("B", 3)))
        for ch in (depolarizing_channel(0.3), dephasing_channel(0.4),
                   amplitude_damping_channel(0.2)):
            out = apply_channel(ch, rho, ["A"])
            assert abs(out.trace() - 1.0) <= 1e-9
            assert out.system.labels == rho.system.labels

    def test_dimension_mismatch(self):
        rho = random_density(0, sysof(("A", 3)))
        with pytest.raises(ValueError):
            apply_channel(identity_channel(2), rho, ["A"])

    @pytest.mark.parametrize("make, value, name", [
        (depolarizing_channel, 2.0, "p"), (depolarizing_channel, -0.1, "p"),
        (depolarizing_channel, 1.4, "p"), (dephasing_channel, 3.0, "p"),
        (dephasing_channel, -0.5, "p"),
        (amplitude_damping_channel, 1.5, "gamma"),
        (amplitude_damping_channel, -0.2, "gamma")])
    def test_parameter_outside_its_range_is_refused(self, make, value, name):
        # each of these used to build non-finite Kraus operators
        with pytest.raises(ValueError, match=f"^{name} = "):
            make(value)

    def test_range_ends_are_channels(self):
        for ch in (depolarizing_channel(0.0), depolarizing_channel(4 / 3),
                   dephasing_channel(0.0), dephasing_channel(2.0),
                   amplitude_damping_channel(0.0),
                   amplitude_damping_channel(1.0)):
            assert all(np.isfinite(k).all() for k in ch.kraus)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_trace_check_fails_on_non_finite_kraus(self, bad):
        kraus = np.eye(2, dtype=complex)
        kraus[1, 1] = bad
        with pytest.raises(ValueError, match="not trace preserving"):
            coding.QuantumChannel((kraus,), 2, 2)


class TestNeymanPearsonOperator:
    def test_equal_states_eps_zero(self):
        rho = random_density(1, sysof(("A", 3)))
        pi, t2 = neyman_pearson_operator(rho, rho, 0.0)
        assert abs(t2 - 1.0) <= 1e-9
        # Pi is the support projector
        assert np.allclose(pi @ pi, pi, atol=1e-8)

    def test_commuting_lp_vertex(self):
        a = DensityOperator(sysof(("A", 2)), np.diag([0.5, 0.5]))
        b = DensityOperator(sysof(("A", 2)), np.diag([0.9, 0.1]))
        pi, t2 = neyman_pearson_operator(a, b, 0.5)
        assert np.allclose(pi, np.diag([0.0, 1.0]), atol=1e-9)
        assert abs(t2 - 0.1) <= 1e-10

    def test_matches_dh(self):
        for seed in range(10):
            rho = random_density(seed, sysof(("A", 3)))
            sig = random_density(seed + 400, sysof(("A", 3)))
            for eps in (0.1, 0.4):
                pi, t2 = neyman_pearson_operator(rho, sig, eps)
                got = -np.log2(t2)
                assert abs(got - dh_eps(rho, sig, eps).value) <= 1e-8
                mass = float(np.real(np.trace(pi @ rho.matrix)))
                assert mass >= 1 - eps - 1e-10
                assert abs(mass - (1 - eps)) <= 1e-9

    def test_eps_near_one(self):
        rho = random_density(3, sysof(("A", 2)))
        sig = random_density(5, sysof(("A", 2)))
        pi, t2 = neyman_pearson_operator(rho, sig, 0.999)
        assert t2 <= 1.0
        vals = np.linalg.eigvalsh(pi)
        assert vals[0] >= -1e-10 and vals[-1] <= 1 + 1e-10


class TestHayashiNagaoka:
    def test_single_projector(self):
        p = np.diag([1.0, 1.0, 0.0]).astype(complex)
        povm = hayashi_nagaoka_povm([p])
        assert np.allclose(povm.elements[0], p)
        assert np.allclose(povm.elements[-1], np.eye(3) - p)

    def test_orthogonal_projectors(self):
        p1 = np.diag([1.0, 0, 0]).astype(complex)
        p2 = np.diag([0, 1.0, 0]).astype(complex)
        povm = hayashi_nagaoka_povm([p1, p2])
        assert np.allclose(povm.elements[0], p1)
        assert np.allclose(povm.elements[1], p2)

    def test_random_families_form_povm(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ops = []
            for _ in range(3):
                g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                h = g @ g.conj().T
                ops.append(h / (np.linalg.eigvalsh(h)[-1] * 1.001))
            povm = hayashi_nagaoka_povm(ops)
            total = sum(povm.elements.values())
            assert np.max(np.abs(total - np.eye(4))) <= 1e-8

    def test_operator_inequality_seeded(self):
        rng = np.random.default_rng(21)
        for trial in range(50):
            ops = []
            for _ in range(3):
                g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                h = g @ g.conj().T
                ops.append(h / (np.linalg.eigvalsh(h)[-1] * 1.001))
            for c in (0.5, 1.0, 2.0):
                assert hn_inequality_gap(ops, trial % 3, c) >= -1e-8

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            hayashi_nagaoka_povm([np.diag([1.0, -0.5])])

    def test_povm_validation(self):
        with pytest.raises(ValueError):
            POVM({0: np.diag([0.5, 0.5]), 1: np.diag([0.2, 0.2])})


def _scatter(groups, part, dim):
    """Dense dim x dim matrix of the blocks ``group[part]`` of `_inv_sqrt`."""
    out = np.zeros((dim, dim), dtype=complex)
    for group in groups:
        idx = group[0]
        out[idx[:, :, None], idx[:, None, :]] = group[part]
    return out


class TestInvSqrt:
    def check(self, total, n_blocks):
        assert len(np.unique(_components(total != 0))) == n_blocks
        groups = _inv_sqrt(total, support=True)
        dim = total.shape[0]
        covered = np.concatenate([group[0].ravel() for group in groups])
        assert np.array_equal(np.sort(covered), np.arange(dim))
        want_inv, want_supp = _dense_inv_sqrt(total)
        assert np.max(np.abs(_scatter(groups, 1, dim) - want_inv)) <= 1e-12
        assert np.max(np.abs(_scatter(groups, 2, dim) - want_supp)) <= 1e-12
        assert np.array_equal(_scatter(_inv_sqrt(total), 1, dim),
                              _scatter(groups, 1, dim))

    def test_permuted_blocks_of_unequal_sizes(self):
        rng = np.random.default_rng(0)
        sizes = (3, 1, 3, 5, 2, 3)
        total = _block_diag([_psd(rng, k) for k in sizes])
        perm = rng.permutation(total.shape[0])
        self.check(total[np.ix_(perm, perm)], len(sizes))

    def test_dense_matrix_is_one_block(self):
        self.check(_psd(np.random.default_rng(1), 12), 1)

    def test_rank_deficient_blocks(self):
        rng = np.random.default_rng(2)
        total = _block_diag([_psd(rng, 3, rank=1), _psd(rng, 4, rank=2),
                             _psd(rng, 2)])
        self.check(total, 3)
        supp = _scatter(_inv_sqrt(total, support=True), 2, 9)
        assert abs(np.trace(supp) - 5) <= 1e-12

    def test_zero_block(self):
        rng = np.random.default_rng(3)
        total = _block_diag([_psd(rng, 3), np.zeros((4, 4)), _psd(rng, 2)])
        self.check(total, 2 + 4)
        groups = _inv_sqrt(total, support=True)
        assert not _scatter(groups, 1, 9)[3:7].any()
        assert not _scatter(groups, 2, 9)[3:7].any()


def _dense_measured(total, x, test):
    """Re <h|T|h> per column h of S^{-1/2} X, through the dense S^{-1/2}."""
    half = _dense_inv_sqrt(total)[0] @ x
    return np.real(np.sum(half.conj() * (test @ half), axis=0))


class TestMeasured:
    def test_kernel_rows_contribute_zero(self):
        rng = np.random.default_rng(4)
        total = _block_diag([_psd(rng, 3), np.zeros((4, 4)), _psd(rng, 2)])
        test = _psd(rng, 9, low=0.0, high=1.0)
        x = np.zeros((9, 5), dtype=complex)
        x[3:7] = rng.standard_normal((4, 5))
        assert np.array_equal(_measured(_inv_sqrt(total), x, test),
                              np.zeros(5))
        x[[0, 8]] = rng.standard_normal((2, 5))
        assert np.max(np.abs(_measured(_inv_sqrt(total), x, test)
                             - _dense_measured(total, x, test))) <= 1e-12

    def test_unequal_blocks_and_a_test_across_blocks(self):
        rng = np.random.default_rng(5)
        sizes = (3, 1, 3, 5, 2, 3)
        perm = rng.permutation(sum(sizes))
        total = _block_diag([_psd(rng, k) for k in sizes])[np.ix_(perm, perm)]
        test = _psd(rng, sum(sizes), low=0.0, high=1.0)
        x = np.zeros((sum(sizes), 4), dtype=complex)
        # rows in blocks of sizes 3, 1, 3, 5 and 3; the block of 2 is missed
        rows = np.argsort(perm)[[0, 3, 4, 7, 9, 15]]
        x[rows] = rng.standard_normal((6, 4)) \
            + 1j * rng.standard_normal((6, 4))
        assert np.max(np.abs(_measured(_inv_sqrt(total), x, test)
                             - _dense_measured(total, x, test))) <= 1e-12


def _test_family(seed, count, sizes):
    """`count` block-diagonal operators 0 <= Omega <= I, one shared basis
    permutation; a single size gives fully dense operators."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(sum(sizes))
    ops = []
    for _ in range(count):
        op = _block_diag([_psd(rng, k, low=0.0, high=1.0) for k in sizes])
        ops.append(op[np.ix_(perm, perm)])
    return ops


class TestHayashiNagaokaProperty:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(2, 4),
           sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           index=st.integers(0, 3), c=st.floats(0.1, 10.0))
    def test_inequality_gap_nonnegative(self, seed, count, sizes, index, c):
        ops = _test_family(seed, count, sizes)
        assert hn_inequality_gap(ops, index % count, c) >= -1e-8


class TestPositionDecodeClassical:
    def setup_method(self):
        self.phi = maximally_entangled("B", "C", 2)
        self.reg = PrimeRegister(2, 5)

    def test_single_position(self):
        rep = position_based_decode_classical(self.phi, self.reg, [0],
                                              0.01, 0.1)
        assert rep.min_success >= rep.paper_bound - 1e-9
        assert rep.min_success >= 0.9

    def test_grid_bound(self):
        for eps, delta, size in ((0.01, 0.1, 1), (0.005, 0.15, 2),
                                 (0.005, 0.15, 4)):
            rep = position_based_decode_classical(self.phi, self.reg,
                                                  range(size), eps, delta)
            assert len(rep.successes) == size
            assert rep.min_success >= rep.paper_bound - 1e-9

    def test_cap_refusal(self):
        with pytest.raises(ValueError):
            position_based_decode_classical(self.phi, self.reg, [0, 1],
                                            0.1, 0.1)

    def test_product_state_tiny_cap(self):
        prod = tensor(random_density(1, sysof(("B", 2))),
                      maximally_mixed(sysof(("C", 2))))
        # dh ~ 0 so even one position busts the cap at small delta
        with pytest.raises(ValueError):
            position_based_decode_classical(prod, self.reg, [0], 0.1, 0.1)

    def test_register_size_mismatch(self):
        phi3 = maximally_entangled("B", "C", 3)
        with pytest.raises(ValueError, match="built for"):
            position_based_decode_classical(phi3, self.reg, [0, 1], 0.005,
                                            0.15)

    def test_success_degrades_with_size(self):
        vals = []
        for size in (1, 2, 4):
            rep = position_based_decode_classical(self.phi, self.reg,
                                                  range(size), 0.005, 0.15)
            vals.append(rep.min_success)
        assert vals[0] >= vals[1] - 1e-9 >= vals[2] - 2e-9


class TestPositionDecodeFlat:
    def test_single_position_nonvacuous(self):
        phi = maximally_entangled("B", "C", 2)
        mu_c = maximally_mixed(sysof(("C", 2)))
        rep = position_based_decode_flat(phi, mu_c, Fraction(2, 3), [0],
                                         0.01, 0.1, a=2, n=3, d_size=8)
        assert rep.exact_bound > 0.5
        assert rep.min_success >= rep.exact_bound - 1e-9

    def test_bracket_refusal(self):
        phi = maximally_entangled("B", "C", 2)
        mu_c = maximally_mixed(sysof(("C", 2)))
        with pytest.raises(ValueError):
            position_based_decode_flat(phi, mu_c, Fraction(2, 3), [0],
                                       0.01, 0.1, a=2, n=3, d_size=5)

    def test_cap_refusal(self):
        phi = maximally_entangled("B", "C", 2)
        mu_c = maximally_mixed(sysof(("C", 2)))
        with pytest.raises(ValueError):
            position_based_decode_flat(phi, mu_c, Fraction(2, 3),
                                       range(4), 0.1, 0.1, a=2, n=3, d_size=8)

    def test_signal_array_matches_scalar_loop(self):
        # trivial B register, C in a seeded mixed state; three positions
        rng = np.random.default_rng(9)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u_c, _ = np.linalg.qr(g)
        psi = DensityOperator(sysof(("B", 1), ("C", 2)),
                              (u_c * np.array([0.7, 0.3])) @ u_c.conj().T)
        mu_c = maximally_mixed(sysof(("C", 2)))
        gamma, subset, eps, a, n, d_size = Fraction(2, 3), [0, 1, 4], 0.01, \
            2, 3, 8
        rep = position_based_decode_flat(psi, mu_c, gamma, subset, eps, 0.5,
                                         a=a, n=n, d_size=d_size)

        flat = round_spectrum(mu_c, gamma, "down")
        ens = _flat_ensemble(psi, flat, a, n, d_size + 1)
        ref = tensor(partial_trace(psi, ["C"]), mu_c)
        om_full = _lifted_flat_test(ens, flat, neyman_pearson_operator(
            psi, ref, eps)[0], psi.system.dims)
        rotated = {}
        for ell in subset:
            src = ens.source(ell)
            rotated[ell] = om_full[np.ix_(src, src)]
        inv_half, _ = _dense_inv_sqrt(sum(rotated.values()))

        r_dim, s_dim, d_dim, f_prime = ens.r_dim, ens.s_dim, ens.d_dim, \
            ens.f_prime
        t_vals, t_vecs = np.linalg.eigh(ens.theta)
        keep = t_vals > 1e-13
        t_vals, t_vecs = t_vals[keep], t_vecs[:, keep]
        for ell in subset:
            perm = np.argsort(ens.source(ell))
            lam = inv_half @ rotated[ell] @ inv_half
            total = 0.0
            for t in range(len(t_vals)):
                u_t = t_vecs[:, t].reshape(r_dim, s_dim, d_dim)
                for x1 in range(s_dim):
                    for f2 in range(f_prime):
                        idx, amp = [], []
                        for r in range(r_dim):
                            for s in range(s_dim):
                                idx0 = ens.full_index(r, s * s_dim + x1, 0, f2)
                                idx.extend(idx0 + np.arange(d_dim) * f_prime)
                                amp.extend(u_t[r, s, :])
                        at = perm[np.array(idx)]   # U_l moves index i to perm[i]
                        amp = np.array(amp)
                        val = np.real(amp.conj() @ lam[np.ix_(at, at)] @ amp)
                        total += t_vals[t] / (s_dim * f_prime) * val
            assert abs(rep.successes[ell] - total) <= 1e-12


def _computational_basis_code(channel, psi_a, rate, eps, gamma, a, n):
    """Largest message error of the channel code run in the computational basis.

    The flattening W and every HW rotation are conjugated into psi_A's
    eigenbasis and back (v on A, conj(v) on C), so Bob's tests are dense on
    (C, E).
    """
    d_a = psi_a.system.total_dim
    lam, v_basis = np.linalg.eigh(psi_a.matrix)
    lam = np.clip(lam, 0.0, None)
    spec_op = DensityOperator(RegisterSystem([("spec", d_a)]),
                              np.diag(lam / lam.sum()), validate=False)
    flat = round_spectrum(spec_op, Fraction(gamma), "down")
    counts, m_big, e_dim = flat.counts, flat.grid_total, flat.e_dim
    q = np.array(counts, dtype=float) / m_big
    d_dim = n * (m_big + 1) + 1

    sigma_amp = (v_basis * np.sqrt(q)) @ v_basis.conj().T
    xi_pairs = embezzling_state(a, n).purification_vector(d_dim).reshape(
        d_dim, d_dim)
    shape = (d_a, e_dim, d_dim, d_a, e_dim, d_dim)      # (A, E', D', C, E, D)
    init = np.zeros(shape, dtype=complex)
    init[:, 0, :, :, 0, :] = np.einsum("ac,pq->apcq", sigma_amp, xi_pairs)
    w_img = unitary_flatten_W(flat, d_dim)

    def controlled_w(mat, basis, src, dims, axis):
        inner = act(mat, basis.conj().T, dims, [axis])
        inner = permute_basis(inner, src, dims, [axis, axis + 1, axis + 2])
        return act(inner, basis, dims, [axis])

    s_cols_a = np.zeros((d_a * e_dim, m_big), dtype=complex)
    s_cols_c = np.zeros((d_a * e_dim, m_big), dtype=complex)
    for s, (c, e) in enumerate(zip(*np.divmod(flat.support_index(), e_dim))):
        e_vec = np.eye(e_dim)[:, e]
        s_cols_a[:, s] = np.kron(v_basis[:, c], e_vec)
        s_cols_c[:, s] = np.kron(v_basis[:, c].conj(), e_vec)
    hw = hw_family(m_big)

    def lift_side(cols, mat):
        inner = cols @ mat @ cols.conj().T
        return inner + np.eye(d_a * e_dim) - cols @ cols.conj().T

    amp = (v_basis * np.sqrt(lam)) @ v_basis.conj().T
    psi_vec = amp.reshape(-1)
    psi_ac = PureState(sysof(("A", d_a), ("C", d_a)),
                       psi_vec / np.linalg.norm(psi_vec), validate=False)
    psi_bc = apply_channel(channel, psi_ac, ["A"])
    omega_test, _ = neyman_pearson_operator(
        psi_bc, tensor(partial_trace(psi_bc, ["C"]),
                       partial_trace(psi_bc, ["A"])), eps)

    bob_dims = (d_a, d_a, e_dim, d_dim)
    bob_dim = d_a * d_a * e_dim * d_dim
    om_moved = controlled_w(np.kron(omega_test, np.eye(e_dim * d_dim)),
                            v_basis.conj(), np.argsort(w_img), bob_dims, 1)
    tests, columns = [], []
    for u in hw:
        tests.append(act(om_moved, lift_side(s_cols_c, u.matrix), bob_dims,
                         [1, 2]))
        u_enc = controlled_w(
            np.kron(lift_side(s_cols_a, u.matrix.T), np.eye(d_dim)),
            v_basis, w_img, (d_a, e_dim, d_dim), 0)
        enc = (u_enc @ init.reshape(d_a * e_dim * d_dim, -1)).reshape(shape)
        columns.append(np.concatenate(
            [np.einsum("ba,aedcfg->bedcfg", k, enc).transpose(
                0, 3, 4, 5, 1, 2).reshape(bob_dim, e_dim * d_dim)
             for k in channel.kraus], axis=1))

    q_field = m_big * m_big
    n_messages = 2 ** rate
    totals = np.zeros(n_messages)
    images = pairwise_family(q_field).images(range(n_messages))
    for ys in images.reshape(-1, n_messages).tolist():
        inv_half, _ = _dense_inv_sqrt(sum(tests[y] for y in ys))
        for m, y_m in enumerate(ys):
            half = inv_half @ columns[y_m]
            totals[m] += np.real(np.sum(half.conj() * (tests[y_m] @ half)))
    return float(np.max(1.0 - totals / (q_field * q_field)))


def _seeded_input(spectrum, seed):
    """Channel input with the given spectrum in a seeded unitary basis."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    basis, _ = np.linalg.qr(g)
    return DensityOperator(sysof(("A", 2)),
                           (basis * np.array(spectrum)) @ basis.conj().T)


def _nonuniform_input():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = g @ g.conj().T
    return DensityOperator(sysof(("A", 2)), h / np.real(np.trace(h)))


class TestChannelCode:
    def setup_method(self):
        self.mu_a = maximally_mixed(sysof(("A", 2)))

    def test_rate_zero_runs_and_bound_holds(self):
        rep = ea_channel_code(identity_channel(2), self.mu_a, 0, 0.05, 0.5,
                              0.5, a=4, n=8)
        assert isinstance(rep, CodingReport)
        assert rep.bound_satisfied()
        assert rep.empirical_max_error < 0.5

    def test_identity_channel_values(self):
        # values of the program before the block-wise square root
        for rate, trials, error in ((0, 256, 0.22222222222222499),
                                    (2, 1024, 0.4774305555555566)):
            rep = ea_channel_code(identity_channel(2), self.mu_a, rate, 0.05,
                                  0.5, 0.5, a=4, n=5, enforce_cap=False)
            assert rep.trials == trials
            assert abs(rep.empirical_max_error - error) <= 1e-12

    def test_degenerate_kernel_split_as_by_bisection(self, monkeypatch):
        # under depolarizing(0.1) the test's kernel at t* is degenerate, and
        # the decoder's error depends on the eigenbasis that splits it:
        # 0.2 instead of 0.18333 when rho - t sigma is eigensolved at another t
        from test_entropy import bisection_test
        rep = ea_channel_code(depolarizing_channel(0.1), self.mu_a, 0, 0.05,
                              0.5, 0.5, a=4, n=5)
        monkeypatch.setattr(coding, "_threshold_test", bisection_test)
        want = ea_channel_code(depolarizing_channel(0.1), self.mu_a, 0, 0.05,
                               0.5, 0.5, a=4, n=5)
        assert abs(rep.empirical_max_error - want.empirical_max_error) <= 1e-12

    def test_refusal_above_cap(self):
        cap = channel_rate_cap(identity_channel(2), self.mu_a, 0.05, 0.5, 0.5)
        assert cap < 1
        with pytest.raises(ValueError):
            ea_channel_code(identity_channel(2), self.mu_a, 1, 0.05, 0.5,
                            0.5, a=4, n=8)

    def test_fully_depolarizing_cap_negative(self):
        cap = channel_rate_cap(depolarizing_channel(1.0), self.mu_a, 0.05,
                               0.5, 0.5)
        assert cap < 0
        with pytest.raises(ValueError):
            ea_channel_code(depolarizing_channel(1.0), self.mu_a, 1, 0.05,
                            0.5, 0.5, a=4, n=8)

    def test_error_monotone_in_rate(self):
        errs = []
        for rate in (0, 1):
            rep = ea_channel_code(identity_channel(2), self.mu_a, rate, 0.05,
                                  0.5, 0.5, a=4, n=8, enforce_cap=False)
            errs.append(rep.empirical_max_error)
        assert errs[0] <= errs[1] + 1e-9

    def test_transpose_trick_exact_on_maximally_entangled(self):
        # with an exact flat resource (mu marginals), Alice-side transposed
        # rotations equal Bob-side rotations on the shared pure state
        from oneshot_qit.convexsplit import hw_family
        m = 4
        hw = hw_family(m)
        phi = np.eye(m).reshape(-1) / np.sqrt(m)
        for y in (1, 5, 9):
            lhs = np.kron(hw[y].matrix.T, np.eye(m)) @ phi
            rhs = np.kron(np.eye(m), hw[y].matrix) @ phi
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_nonuniform_input_state(self):
        rep = ea_channel_code(identity_channel(2), _nonuniform_input(), 0,
                              0.05, 0.5, 0.5, a=4, n=8)
        assert rep.bound_satisfied()
        assert rep.empirical_max_error < 0.5

    def test_pure_input_matches_its_marginal(self):
        psi_ar = canonical_purification(_seeded_input((0.7, 0.3), 1), "R")
        psi_a = partial_trace(psi_ar, ["R"])
        channel = amplitude_damping_channel(0.3)
        caps, reports = [], []
        for psi in (psi_ar, psi_a):
            caps.append(channel_rate_cap(channel, psi, 0.05, 2 / 3, 0.5))
            reports.append(ea_channel_code(channel, psi, 0, 0.05,
                                           Fraction(2, 3), 0.5, a=2, n=4))
        assert caps[0] == caps[1]
        assert reports[0] == reports[1]

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the hypothesis test was solved")

        monkeypatch.setattr(coding, "_channel_test", refuse)

    @pytest.mark.parametrize("gamma", [-0.5, 0, 1, 1.5])
    def test_gamma_is_refused_before_the_solve(self, no_solve, gamma):
        # gamma = -0.5 used to fail with a TypeError on a complex power, and
        # 0 and 1.5 used to give a cap
        with pytest.raises(ValueError, match="gamma"):
            channel_rate_cap(identity_channel(2), self.mu_a, 0.05, gamma, 0.5)
        with pytest.raises(ValueError, match="gamma"):
            ea_channel_code(identity_channel(2), self.mu_a, 0, 0.05, gamma,
                            0.5, a=4, n=8)

    def test_channel_dimension_is_checked_before_the_solve(self, no_solve):
        psi_a = maximally_mixed(sysof(("A", 3)))
        with pytest.raises(ValueError, match="channel dimensions"):
            ea_channel_code(identity_channel(2), psi_a, 0, 0.05,
                            Fraction(1, 2), 0.5, a=4, n=8)

    def test_entanglement_budget(self):
        rep = ea_channel_code(identity_channel(2), self.mu_a, 0, 0.05, 0.5,
                              0.5, a=4, n=16)
        budget = entanglement_budget(2, 0.5, rep.delta_surrogate)
        assert rep.entanglement_qubits <= budget + 1e-9

    @pytest.mark.parametrize("channel, rate", [
        (identity_channel(2), 0), (amplitude_damping_channel(0.3), 0),
        (depolarizing_channel(0.1), 0), (amplitude_damping_channel(0.3), 1)])
    def test_eigenbasis_matches_computational_basis(self, channel, rate):
        # Bob's space (B, C, E, D) has 2 x 2 x 2 x 17 = 136 dimensions
        psi_a = _seeded_input((0.7, 0.3), 1)
        rep = ea_channel_code(channel, psi_a, rate, 0.05, Fraction(2, 3), 0.5,
                              a=2, n=4, enforce_cap=False)
        oracle = _computational_basis_code(channel, psi_a, rate, 0.05,
                                           Fraction(2, 3), a=2, n=4)
        assert abs(rep.empirical_max_error - oracle) <= 1e-12

    @pytest.fixture
    def block_sizes(self, monkeypatch):
        """Largest block of every S handed to `_inv_sqrt`, one per call."""
        sizes = []

        def recording(total):
            sizes.append(np.bincount(_components(total != 0)).max())
            return _inv_sqrt(total)

        monkeypatch.setattr(coding, "_inv_sqrt", recording)
        return sizes

    @pytest.mark.parametrize("psi_a, gamma, a, n", [
        (_seeded_input((0.7, 0.3), 1), Fraction(2, 3), 2, 4),
        (_nonuniform_input(), 0.5, 4, 8)])
    def test_rate_zero_blocks_are_small(self, block_sizes, psi_a, gamma, a,
                                        n):
        ea_channel_code(identity_channel(2), psi_a, 0, 0.05, gamma, 0.5,
                        a=a, n=n)
        assert block_sizes and max(block_sizes) <= 4

    def test_rate_two_blocks_are_small_and_solved_once_per_family(
            self, block_sizes):
        # the benchmark's rate-2 identity code: 4 messages over GF(16)
        ea_channel_code(identity_channel(2), self.mu_a, 2, 0.05, 0.5, 0.5,
                        a=4, n=5, enforce_cap=False)
        images = pairwise_family(16).images(range(4)).reshape(-1, 4)
        assert len(block_sizes) == len(set(map(tuple, images.tolist()))) \
            == 256
        assert max(block_sizes) <= 4


class TestOneThresholdTest:
    """Each protocol call solves for its hypothesis test exactly once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = []
        threshold_test = entropy._threshold_test

        def counting(rho_mat, sigma_mat, eps):
            count.append(1)
            return threshold_test(rho_mat, sigma_mat, eps)

        monkeypatch.setattr(coding, "_threshold_test", counting)
        monkeypatch.setattr(entropy, "_threshold_test", counting)
        return count

    def test_classical_decoder(self, calls):
        position_based_decode_classical(maximally_entangled("B", "C", 2),
                                        PrimeRegister(2, 5), [0], 0.01, 0.1)
        assert len(calls) == 1

    def test_flat_decoder(self, calls):
        position_based_decode_flat(maximally_entangled("B", "C", 2),
                                   maximally_mixed(sysof(("C", 2))),
                                   Fraction(2, 3), [0], 0.01, 0.1, a=2, n=3,
                                   d_size=8)
        assert len(calls) == 1

    def test_channel_code(self, calls):
        ea_channel_code(identity_channel(2), _seeded_input((0.7, 0.3), 1), 0,
                        0.05, Fraction(2, 3), 0.5, a=2, n=4)
        assert len(calls) == 1


class TestRedistributionBounds:
    def test_product_state(self):
        sys4 = sysof(("R", 2), ("A", 2), ("B", 2), ("C", 2))
        vec = np.zeros(16)
        vec[0] = 1.0
        res = redistribution_bounds(PureState(sys4, vec), ["R"], ["A"],
                                    ["B"], ["C"], eps=0.1, delta=0.1)
        assert abs(res.merge_comm - (2 + 2 * np.log2(10))) <= 1e-6

    def test_entangled_rc(self):
        phi_rc = maximally_entangled("R", "C", 2)
        ab = basis_state(sysof(("A", 2), ("B", 2)), 0)
        joint = tensor_pure(phi_rc, ab)
        res = redistribution_bounds(joint, ["R"], ["A"], ["B"], ["C"],
                                    eps=0.1, delta=0.1)
        # I_max(R:C) = 2 log|C| = 2, so merging costs 1 + 2 + 2 log(1/delta)
        assert abs(res.merge_comm - (1 + 2 + 2 * np.log2(10))) <= 1e-6
        assert np.isfinite(res.redistribution_comm)

    def test_grid_minimum_dominates_marginal_point(self):
        from oneshot_qit.entropy import dmax
        for seed in range(5):
            rng = np.random.default_rng(seed)
            vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            psi = PureState(sysof(("R", 2), ("A", 2), ("B", 2), ("C", 2)),
                            vec / np.linalg.norm(vec))
            res = redistribution_bounds(psi, ["R"], ["A"], ["B"], ["C"],
                                        eps=0.1, delta=0.1)
            psi_rbc = partial_trace(psi, ["A"])
            psi_rb = partial_trace(psi_rbc, ["C"])
            psi_bc = partial_trace(psi, ["R", "A"])
            psi_b = partial_trace(psi_bc, ["C"])
            psi_c = partial_trace(psi_bc, ["B"])
            at_marginal = 0.5 * (
                dmax(psi_rbc, tensor(psi_rb, psi_c)).value
                - dh_eps(psi_bc, tensor(psi_b, psi_c), 0.1).value
                + np.log2(32 / (0.1 ** 2 * 0.1 ** 6)))
            assert res.redistribution_comm <= at_marginal + 1e-9

    def test_mixed_input_rejected(self):
        rho = random_density(0, sysof(("R", 2), ("A", 2), ("B", 2), ("C", 2)))
        with pytest.raises(ValueError):
            redistribution_bounds(rho, ["R"], ["A"], ["B"], ["C"], 0.1, 0.1)

    def test_failed_rounding_gate_is_not_dropped(self, monkeypatch):
        def failing(*args):
            raise AssertionError("rounding inequality violated")

        monkeypatch.setattr(coding, "round_spectrum", failing)
        with pytest.raises(AssertionError, match="rounding inequality"):
            redistribution_bounds(maximally_entangled("R", "C", 2), ["R"],
                                  [], [], ["C"], 0.1, 0.1)
