import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oneshot_qit import entropy
from oneshot_qit.coding import QuantumChannel, apply_channel
from oneshot_qit.entropy import (SUPPORT_TOL, TRACE_ROUNDING, EntropyValue,
                                 Reference, check_mixture_identity, dh_eps,
                                 dmax, hmin, imax, relative_entropy,
                                 transpose_unitary)
from oneshot_qit.registers import (DensityOperator, RegisterSystem,
                                   basis_state, canonical_purification,
                                   fidelity,
                                   maximally_entangled, maximally_mixed,
                                   partial_trace, purified_distance,
                                   random_density, sqrtm_psd, tensor)
from oracles import breakpoint_search_test, kron_slack


def sysof(*pairs):
    return RegisterSystem(list(pairs))


def diag_state(label, probs):
    return DensityOperator(sysof((label, len(probs))), np.diag(probs))


def classical_np_lp(p, q, eps):
    """Exhaustive-vertex Neyman-Pearson LP oracle for diagonal states.

    minimize sum q_i pi_i subject to sum p_i pi_i >= 1 - eps, 0 <= pi <= 1.
    At a vertex at most one coordinate is fractional; enumerate all of them.
    """
    d = len(p)
    best = None
    for bits in itertools.product([0, 1], repeat=d):
        mass = sum(p[i] for i in range(d) if bits[i])
        cost = sum(q[i] for i in range(d) if bits[i])
        if mass >= 1 - eps - 1e-13:
            best = cost if best is None else min(best, cost)
        for j in range(d):
            if bits[j]:
                continue
            need = (1 - eps) - mass
            if 0 <= need <= p[j] + 1e-15 and p[j] > 0:
                frac_cost = cost + q[j] * need / p[j]
                best = frac_cost if best is None else min(best, frac_cost)
    return best


class TestRelativeEntropy:
    def test_self_zero(self):
        mu = maximally_mixed(sysof(("A", 2)))
        assert abs(relative_entropy(mu, mu).value) <= 1e-10

    def test_pure_vs_mixed_one_bit(self):
        k0 = basis_state(sysof(("A", 2)), 0)
        mu = maximally_mixed(sysof(("A", 2)))
        assert abs(relative_entropy(k0, mu).value - 1.0) <= 1e-10

    def test_commuting_closed_form(self):
        r = diag_state("A", [0.75, 0.25])
        mu = maximally_mixed(sysof(("A", 2)))
        expect = 0.75 * np.log2(1.5) + 0.25 * np.log2(0.5)
        assert abs(relative_entropy(r, mu).value - expect) <= 1e-10

    def test_support_violation_infinite(self):
        mu = maximally_mixed(sysof(("A", 2)))
        k0 = basis_state(sysof(("A", 2)), 0)
        val = relative_entropy(mu, k0)
        assert not val.finite

    def test_dominates_dmax_lower(self):
        for seed in range(30):
            s = sysof(("A", 4))
            rho = random_density(seed, s)
            sig = random_density(seed + 500, s)
            assert dmax(rho, sig).value >= relative_entropy(rho, sig).value - 1e-8


def eigh_support_split(rho_mat, sigma_mat):
    """entropy._support_split with sigma eigensolved on every call (oracle)."""
    svals, svecs = np.linalg.eigh(sigma_mat)
    pos = svals > SUPPORT_TOL
    ker = svecs[:, ~pos]
    mass = float(np.real(np.sum((ker.conj().T @ rho_mat @ ker).diagonal())))
    return svals, svecs, pos, mass


def eigh_relative_entropy(rho, sigma):
    """relative_entropy with rho's spectrum from a full eigh (oracle)."""
    rvals, _ = np.linalg.eigh(rho.matrix)
    svals, svecs, pos_s, mass_out = eigh_support_split(rho.matrix,
                                                       sigma.matrix)
    if mass_out > entropy._SUPPORT_MASS_TOL:
        return float("inf")
    pos_r = rvals > SUPPORT_TOL
    term1 = float(np.sum(rvals[pos_r] * np.log2(rvals[pos_r])))
    vs = svecs[:, pos_s]
    diag = np.real(np.sum(vs.conj() * (rho.matrix @ vs), axis=0))
    return term1 - float(np.sum(diag * np.log2(svals[pos_s])))


class TestRelativeEntropyOracle:
    @pytest.mark.parametrize("d,rho_rank,sigma_rank",
                             [(8, 1, 8), (8, 3, 8), (16, 1, 16), (16, 5, 16),
                              (8, 2, 4), (8, 1, 1)])
    def test_matches_eigh_body(self, d, rho_rank, sigma_rank):
        # pure and rank-deficient rho, inside a full or deficient support
        rng = np.random.default_rng(d * 100 + rho_rank * 10 + sigma_rank)
        basis = np.linalg.qr(rng.standard_normal((d, d))
                             + 1j * rng.standard_normal((d, d)))[0]
        system = sysof(("A", d))
        sig = DensityOperator(system, state_on(
            rng, basis, rng.dirichlet(np.ones(sigma_rank))))
        support = np.linalg.eigh(sig.matrix)[1][:, d - sigma_rank:]
        rho = DensityOperator(system, state_on(
            rng, support, rng.dirichlet(np.ones(rho_rank))))
        got = relative_entropy(rho, sig)
        want = eigh_relative_entropy(rho, sig)
        assert got.finite
        assert abs(got.value - want) <= 1e-12

    def test_support_violation_matches_eigh_body(self):
        system = sysof(("A", 6))
        rho = random_density(5, system, rank=2)
        sig = random_density(6, system, rank=3)
        assert not relative_entropy(rho, sig).finite
        assert eigh_relative_entropy(rho, sig) == float("inf")


def random_channel(rng, dim, count):
    """Kraus operators as the blocks of a random isometry C^dim -> C^(dim count)."""
    g = rng.standard_normal((dim * count, dim)) \
        + 1j * rng.standard_normal((dim * count, dim))
    iso = np.linalg.qr(g)[0]
    return QuantumChannel(tuple(iso[k * dim:(k + 1) * dim] for k in range(count)),
                          dim)


class TestDataProcessing:
    """D, D_max and D_H^eps do not grow under a channel on one register."""

    @staticmethod
    def pair(seed, d_a, d_b, count, kind):
        """(rho, sigma, channel on A): full-rank rho and sigma,
        rank-deficient rho, or rho inside a rank-deficient supp sigma."""
        rng = np.random.default_rng(seed)
        system = sysof(("A", d_a), ("B", d_b))
        d = d_a * d_b
        basis = np.linalg.qr(rng.standard_normal((d, d))
                             + 1j * rng.standard_normal((d, d)))[0]
        sig_rank = d if kind != "nested" else max(1, d // 2)
        rho_rank = d if kind == "full" else max(1, sig_rank // 2)
        sig_mat = state_on(rng, basis[:, :sig_rank],
                           rng.dirichlet(np.ones(sig_rank)))
        rho_mat = state_on(rng, basis[:, :sig_rank],
                           rng.dirichlet(np.ones(rho_rank)))
        rho = DensityOperator(system, rho_mat)
        sig = DensityOperator(system, sig_mat)
        return rho, sig, random_channel(rng, d_a, count)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d_a=st.integers(2, 3),
           d_b=st.integers(1, 2), count=st.integers(1, 4),
           kind=st.sampled_from(["full", "rho-deficient", "nested"]))
    def test_channel_does_not_increase_divergences(self, seed, d_a, d_b,
                                                  count, kind):
        rho, sig, channel = self.pair(seed, d_a, d_b, count, kind)
        out_rho = apply_channel(channel, rho, ["A"])
        out_sig = apply_channel(channel, sig, ["A"])
        for measure in (relative_entropy, dmax):
            before = measure(rho, sig)
            after = measure(out_rho, out_sig)
            assert before.finite and after.finite
            assert after.value <= before.value + 1e-9, measure.__name__

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d_a=st.integers(2, 3),
           d_b=st.integers(1, 2), count=st.integers(1, 4),
           kind=st.sampled_from(["full", "rho-deficient", "nested"]),
           eps=st.sampled_from([0.0, 0.05, 0.1, 0.5, 0.9])
           | st.floats(0.01, 0.95))
    def test_channel_does_not_increase_dh(self, seed, d_a, d_b, count, kind,
                                          eps):
        rho, sig, channel = self.pair(seed, d_a, d_b, count, kind)
        before = dh_eps(rho, sig, eps)
        after = dh_eps(apply_channel(channel, rho, ["A"]),
                       apply_channel(channel, sig, ["A"]), eps)
        assert before.finite and after.finite
        assert after.value <= before.value + 1e-9


def state_on(rng, basis, probs):
    """sum_i probs_i |v_i><v_i| for a random orthonormal set v_i in span(basis)."""
    g = rng.standard_normal((basis.shape[1], len(probs))) \
        + 1j * rng.standard_normal((basis.shape[1], len(probs)))
    v = basis @ np.linalg.qr(g)[0]
    return (v * np.asarray(probs)) @ v.conj().T


class TestReference:
    """Reference(A, w) against the dense oracles on kron(A, diag(w))."""

    # (eigenvalues of A, w): full-rank A, rank-deficient A, zeros in w
    # (as in the classical split's unpopulated host states), and A = [1]
    CASES = [
        ([0.5, 0.3, 0.2], [0.1, 0.2, 0.3, 0.4]),
        ([0.7, 0.3, 0.0], [0.25, 0.25, 0.25, 0.25]),
        ([0.6, 0.4], [0.2, 0.0, 0.5, 0.0, 0.3]),
        ([1.0], [0.5, 0.25, 0.0, 0.25]),
    ]

    @staticmethod
    def setup_case(seed, a_vals, w):
        """A = U diag(a_vals) U^dag for a random U (A = np.eye(1) if 1-dim)."""
        rng = np.random.default_rng(seed)
        d = len(a_vals)
        u = np.linalg.qr(rng.standard_normal((d, d))
                         + 1j * rng.standard_normal((d, d)))[0] if d > 1 else np.eye(1)
        a_mat = (u * np.asarray(a_vals)) @ u.conj().T
        supp = np.kron(u[:, np.asarray(a_vals) > 0], np.eye(len(w))[:, np.asarray(w) > 0])
        system = sysof(("A", d), ("W", len(w)))
        ref = DensityOperator(system, np.kron(a_mat, np.diag(w)))
        return rng, a_mat, supp, system, ref

    @pytest.mark.parametrize("a_vals, w", CASES)
    def test_matches_dense_oracles(self, a_vals, w):
        for seed in range(3):
            rng, a_mat, supp, system, ref = self.setup_case(seed, a_vals, w)
            fast = Reference(a_mat, w)
            for rank in (1, supp.shape[1]):
                probs = np.linspace(1.0, 2.0, rank)
                rho = DensityOperator(system, state_on(rng, supp, probs / probs.sum()))
                dense = relative_entropy(rho, ref)
                assert dense.finite
                assert abs(fast.rel_entropy(rho.matrix) - dense.value) <= 1e-10
                assert abs(fast.fidelity(rho.matrix) - fidelity(rho, ref)) <= 1e-10

    @pytest.mark.parametrize("a_vals, w", CASES[1:])
    def test_mass_outside_support_infinite(self, a_vals, w):
        # CASES[1] has mass in the A-kernel only, CASES[2:] in the w-kernel only
        rng, a_mat, supp, system, ref = self.setup_case(0, a_vals, w)
        ker = np.linalg.svd(supp)[0][:, supp.shape[1]:]
        rho = 0.9 * state_on(rng, supp, [1.0]) + 0.1 * state_on(rng, ker, [1.0])
        assert not relative_entropy(DensityOperator(system, rho), ref).finite
        assert Reference(a_mat, w).rel_entropy(rho) == float("inf")

    @pytest.mark.parametrize("a_vals, w", CASES)
    def test_restricted_shares_the_eigensystem(self, a_vals, w, monkeypatch):
        a_mat = self.setup_case(1, a_vals, w)[1]
        keep = np.arange(0, len(w), 2)
        fresh = Reference(a_mat, np.asarray(w)[keep])
        parent = Reference(a_mat, w)
        eighs = []
        solve = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda m: eighs.append(m) or solve(m))
        out = parent.restricted(keep)
        assert eighs == []
        for name, value in vars(fresh).items():
            assert np.array_equal(getattr(out, name), value), name
        # the parent keeps its own weights
        assert np.array_equal(parent.w, w)


class TestDmax:
    def test_self_zero(self):
        rho = random_density(3, sysof(("A", 3)))
        assert abs(dmax(rho, rho).value) <= 1e-7

    def test_maximally_entangled(self):
        phi = maximally_entangled("R", "C", 2)
        mu_r = maximally_mixed(sysof(("R", 2)))
        mu_c = maximally_mixed(sysof(("C", 2)))
        assert abs(dmax(phi, tensor(mu_r, mu_c)).value - 2.0) <= 1e-9

    def test_diagonal_ratio(self):
        r = diag_state("A", [0.75, 0.25])
        mu = maximally_mixed(sysof(("A", 2)))
        assert abs(dmax(r, mu).value - np.log2(1.5)) <= 1e-10

    def test_support_violation(self):
        k0 = basis_state(sysof(("A", 2)), 0)
        k1 = basis_state(sysof(("A", 2)), 1)
        assert not dmax(k0, k1).finite


class TestDhEps:
    def test_self_zero(self):
        rho = random_density(5, sysof(("A", 3)))
        assert abs(dh_eps(rho, rho, 0.0).value) <= 1e-9

    def test_commuting_example(self):
        a = diag_state("A", [0.5, 0.5])
        b = diag_state("A", [0.9, 0.1])
        assert abs(dh_eps(a, b, 0.5).value - np.log2(10)) <= 1e-9

    def test_eps_monotone(self):
        for seed in range(10):
            s = sysof(("A", 3))
            rho = random_density(seed, s)
            sig = random_density(seed + 900, s)
            vals = [dh_eps(rho, sig, e).value for e in (0.0, 0.1, 0.3, 0.6, 0.9)]
            for lo, hi in zip(vals, vals[1:]):
                assert hi >= lo - 1e-8

    def test_bad_eps(self):
        rho = random_density(1, sysof(("A", 2)))
        with pytest.raises(ValueError):
            dh_eps(rho, rho, 1.0)
        with pytest.raises(ValueError):
            dh_eps(rho, rho, -0.1)

    def test_matches_lp_oracle_on_commuting_pairs(self):
        rng = np.random.default_rng(20240601)
        for trial in range(30):
            d = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(d))
            q = rng.dirichlet(np.ones(d))
            eps = float(rng.uniform(0.0, 0.9))
            got = dh_eps(diag_state("A", p), diag_state("A", q), eps)
            expect = classical_np_lp(p, q, eps)
            assert got.finite
            assert abs(2.0 ** (-got.value) - expect) <= 1e-8

    def test_eps_zero_commuting_matches_lp(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            d = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(d))
            q = rng.dirichlet(np.ones(d))
            got = dh_eps(diag_state("A", p), diag_state("A", q), 0.0)
            expect = classical_np_lp(p, q, 0.0)
            assert abs(2.0 ** (-got.value) - expect) <= 1e-8

    def test_maximally_entangled_closed_form(self):
        phi = maximally_entangled("B", "C", 2)
        ref = tensor(maximally_mixed(sysof(("B", 2))),
                     maximally_mixed(sysof(("C", 2))))
        for eps in (0.05, 0.1, 0.5):
            expect = 2.0 - np.log2(1.0 - eps)
            assert abs(dh_eps(phi, ref, eps).value - expect) <= 1e-8


class TestEdgeCases:
    """Rank-1 inputs and support eigenvalues next to SUPPORT_TOL."""

    @pytest.mark.parametrize("d, seed", [(2, 0), (3, 1), (5, 2)])
    def test_rank_one_commuting_closed_forms(self, d, seed):
        # rho = |u_k><u_k| and sigma = sum_i q_i |u_i><u_i| in one seeded
        # basis: D = D_max = -log2 q_k, F = sqrt(q_k) and
        # D_H^eps = -log2((1 - eps) q_k)
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.standard_normal((d, d))
                         + 1j * rng.standard_normal((d, d)))[0]
        q = rng.uniform(0.05, 1.0, d)
        q /= q.sum()
        sigma = states((u * q) @ u.conj().T)[0]
        for k in range(d):
            rho = states(np.outer(u[:, k], u[:, k].conj()))[0]
            want = -np.log2(q[k])
            assert abs(relative_entropy(rho, sigma).value - want) <= 1e-9
            assert abs(dmax(rho, sigma).value - want) <= 1e-9
            assert abs(fidelity(rho, sigma) - np.sqrt(q[k])) <= 1e-9
            for eps in (0.0, 0.1, 0.5):
                assert abs(dh_eps(rho, sigma, eps).value
                           - (want - np.log2(1.0 - eps))) <= 1e-8

    def test_rank_one_sigma_same_and_orthogonal(self):
        k0, k1 = (basis_state(sysof(("A", 3)), i) for i in (0, 1))
        assert abs(relative_entropy(k0, k0).value) <= 1e-12
        assert abs(dmax(k0, k0).value) <= 1e-12
        assert abs(fidelity(k0, k0) - 1.0) <= 1e-12
        for eps in (0.0, 0.1, 0.5):
            assert abs(dh_eps(k0, k0, eps).value + np.log2(1.0 - eps)) <= 1e-8
            assert not dh_eps(k0, k1, eps).finite
        assert not relative_entropy(k0, k1).finite
        assert not dmax(k0, k1).finite
        assert fidelity(k0, k1) == 0.0

    @pytest.mark.parametrize("kernel_mass", [0.5, 2.0])
    @pytest.mark.parametrize("support_mass", [1e-9, 0.25])
    def test_support_verdicts_follow_the_mass_tolerance(self, kernel_mass,
                                                        support_mass):
        # sigma's eigenvalue at 0.5 SUPPORT_TOL is cut to its kernel, the
        # one at 2 SUPPORT_TOL stays in its support: D and D_max are
        # infinite exactly when rho's weight on the kernel passes
        # _SUPPORT_MASS_TOL, whatever rho's weight on the small support
        tol = entropy._SUPPORT_MASS_TOL
        w_ker = kernel_mass * tol
        q = np.array([1.0 - 2.5 * SUPPORT_TOL, 0.5 * SUPPORT_TOL,
                      2.0 * SUPPORT_TOL])
        p = np.array([1.0 - w_ker - support_mass, w_ker, support_mass])
        rho, sigma = diag_state("A", p), diag_state("A", q)
        d_val, dmax_val = relative_entropy(rho, sigma), dmax(rho, sigma)
        if w_ker > tol:
            assert not d_val.finite and not dmax_val.finite
        else:
            supp = [0, 2]
            # rho's weight on the cut kernel is left in its entropy term
            want = float(np.sum(p[supp] * np.log2(p[supp] / q[supp])))
            assert abs(d_val.value - want - w_ker * np.log2(w_ker)) <= 1e-12
            want = float(np.log2(np.max(p[supp] / q[supp])))
            assert abs(dmax_val.value - want) <= 1e-12
        # sigma's kernel is free for the test, so D_H stays finite
        for eps in (0.1, 0.5):
            got = dh_eps(rho, sigma, eps)
            assert got.finite
            assert abs(2.0 ** (-got.value) - classical_np_lp(p, q, eps)) <= 1e-8

    @pytest.mark.parametrize("form", ["A", "w"])
    def test_reference_cuts_its_support_as_relative_entropy_does(self, form):
        # rho's weight 2e-8 on sigma's eigenvalue 0.5 SUPPORT_TOL passes
        # _SUPPORT_MASS_TOL: infinite by both routes, with sigma as the
        # Reference's A factor or as its weights w
        q = np.array([1.0 - 2.5 * SUPPORT_TOL, 0.5 * SUPPORT_TOL,
                      2.0 * SUPPORT_TOL])
        p = np.array([0.75 - 2e-8, 2e-8, 0.25])
        assert relative_entropy(diag_state("A", p), diag_state("A", q)).value \
            == float("inf")
        ref = Reference(np.diag(q), [1.0]) if form == "A" \
            else Reference(np.eye(1), q)
        assert ref.rel_entropy(np.diag(p).astype(complex)) == float("inf")


def bisection_test(rho_mat, sigma_mat, eps):
    """Neyman-Pearson test by plain bisection on the threshold t (oracle).

    The solver ``entropy._threshold_test`` used before it bracketed t by the
    breakpoints: bisect to a relative width of 1e-12, then fill the kernel of
    rho - t sigma in ascending eigenvalue index.  Where 1 - eps is within
    TRACE_ROUNDING of Tr rho it returns the eps = 0 optimum, as the solver
    defines it there.
    """
    d = rho_mat.shape[0]
    svals, svecs = np.linalg.eigh(sigma_mat)
    pos = svals > SUPPORT_TOL
    ker_vecs = svecs[:, ~pos]
    pi = np.zeros((d, d), dtype=complex)
    r0 = 0.0
    if ker_vecs.shape[1]:
        r0 = float(np.real(np.sum((ker_vecs.conj().T @ rho_mat
                                   @ ker_vecs).diagonal())))
        r0 = max(r0, 0.0)
        pi += ker_vecs @ ker_vecs.conj().T
    if 1.0 - eps >= float(np.real(np.trace(rho_mat))) - TRACE_ROUNDING:
        rvals, rvecs = np.linalg.eigh(rho_mat)
        supp = rvecs[:, rvals > SUPPORT_TOL]
        pi = supp @ supp.conj().T
        return max(float(np.real(np.trace(pi @ sigma_mat))), 0.0), pi
    target = 1.0 - eps - r0
    if target <= 1e-12:
        if r0 > 0:
            pi *= (1.0 - eps) / r0
        return 0.0, pi
    vs = svecs[:, pos]
    sv = svals[pos]
    rho_c = vs.conj().T @ rho_mat @ vs
    rho_c = (rho_c + rho_c.conj().T) / 2
    sig_c = np.diag(sv)
    inv_half = 1.0 / np.sqrt(sv)
    rel = (rho_c * inv_half[None, :]) * inv_half[:, None]
    t_hi = float(np.linalg.eigvalsh(rel)[-1]) * (1 + 1e-9) + 1e-12
    t_lo = 0.0

    def pos_mass(t):
        vals, vecs = np.linalg.eigh(rho_c - t * sig_c)
        w = vecs[:, vals > 1e-10 * (1.0 + t)]
        return float(np.real(np.sum((w.conj().T @ rho_c @ w).diagonal())))

    for _ in range(200):
        if t_hi - t_lo < 1e-12 * max(1.0, t_hi):
            break
        t_mid = (t_lo + t_hi) / 2
        if pos_mass(t_mid) <= target:
            t_hi = t_mid
        else:
            t_lo = t_mid
    t = t_hi
    vals, vecs = np.linalg.eigh(rho_c - t * sig_c)
    ktol = 1e-10 * (1.0 + t)
    type2 = taken = 0.0
    pi_c = np.zeros_like(rho_c)
    for idx in range(len(vals)):
        v = vecs[:, idx]
        if vals[idx] > ktol:
            pi_c += np.outer(v, v.conj())
            taken += float(np.real(v.conj() @ rho_c @ v))
            type2 += float(np.real(v.conj() @ sig_c @ v))
    deficit = target - taken
    if deficit > 0:
        for idx in range(len(vals)):
            if abs(vals[idx]) <= ktol:
                v = vecs[:, idx]
                rw = float(np.real(v.conj() @ rho_c @ v))
                if rw <= 1e-15:
                    continue
                w = min(1.0, deficit / rw)
                pi_c += w * np.outer(v, v.conj())
                type2 += w * float(np.real(v.conj() @ sig_c @ v))
                deficit -= w * rw
                if deficit <= 1e-14:
                    break
    pi += vs @ pi_c @ vs.conj().T
    return max(type2, 0.0), pi


def states(*mats):
    """Unchecked density operators on one register A over the matrices."""
    system = sysof(("A", mats[0].shape[0]))
    return [DensityOperator(system, mat, validate=False) for mat in mats]


def random_pair(seed, dim, kind):
    """(rho, sigma) of one kind: full-rank, rank-deficient rho or sigma,
    commuting with random spectra, commuting with integer weights, or
    skewed: full-rank spectra spread over up to a factor e^12."""
    rng = np.random.default_rng(seed)

    def unitary():
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return np.linalg.qr(g)[0]

    def state(u, vals):
        vals = np.asarray(vals, dtype=float)
        return (u * (vals / vals.sum())) @ u.conj().T

    def spectrum(rank):
        vals = np.zeros(dim)
        vals[:rank] = rng.uniform(0.05, 1.0, rank)
        return vals

    low = max(1, dim // 2)
    if kind == "skewed":
        decay = rng.uniform(0.5, 12.0)
        return (state(unitary(), np.exp(-decay * rng.random(dim))),
                state(unitary(), np.exp(-decay * rng.random(dim))))
    if kind == "full":
        return state(unitary(), spectrum(dim)), state(unitary(), spectrum(dim))
    if kind == "rho-deficient":
        return state(unitary(), spectrum(low)), state(unitary(), spectrum(dim))
    if kind == "sigma-deficient":
        return state(unitary(), spectrum(dim)), state(unitary(), spectrum(low))
    u = unitary()
    if kind == "commuting":
        return state(u, rng.permutation(spectrum(low))), state(u, spectrum(dim))
    weights = rng.integers(0, 4, dim)
    weights[0] += 1
    return state(u, weights), state(u, rng.integers(1, 4, dim))


def _binary_entropy(p):
    return 0.0 if p == 0 else -p * np.log2(p) - (1 - p) * np.log2(1 - p)


class TestThresholdTest:
    """The breakpoint-bracketed test against the bisection oracle."""

    KINDS = ("full", "rho-deficient", "sigma-deficient", "commuting",
             "integer-weights")

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 7),
           kind=st.sampled_from(KINDS),
           eps=st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.5, 0.9]),
                         st.floats(0.0, 0.95)))
    # pure rho with 1 - eps within rounding of Tr rho, where f places t* only
    # by noise: solved there, the two weights differ by 1.1e-8 and 1.2e-8
    @example(seed=96, dim=2, kind="rho-deficient", eps=2.5e-261)
    @example(seed=1, dim=3, kind="rho-deficient", eps=2.2e-16)
    def test_matches_bisection_oracle(self, seed, dim, kind, eps):
        rho, sig = random_pair(seed, dim, kind)
        type2, pi = entropy._threshold_test(*states(rho, sig), eps)
        want, pi_want = bisection_test(rho, sig, eps)
        # for eps below 1e-8, f(t) = 1 - eps is resolved from sums rounded at
        # about 1e-16 d, and both solvers place t* only within that noise
        tol = 1e-10 if eps == 0 or eps >= 1e-8 else 1e-8
        assert abs(type2 - want) <= tol * want
        vals = np.linalg.eigvalsh((pi + pi.conj().T) / 2)
        assert np.max(np.abs(pi - pi.conj().T)) <= 1e-12
        assert vals[0] >= -1e-10 and vals[-1] <= 1 + 1e-10
        assert np.real(np.trace(pi @ rho)) >= 1 - eps - 1e-10
        assert abs(np.real(np.trace(pi @ sig)) - type2) <= 1e-12 + 1e-10 * type2
        assert np.max(np.abs(pi - pi_want)) <= 10 * tol
        system = sysof(("A", dim))
        d_rel = relative_entropy(DensityOperator(system, rho),
                                 DensityOperator(system, sig))
        if d_rel.finite:
            d_h = entropy._dh_value(type2)
            assert d_h.finite
            assert d_h.value <= (d_rel.value + _binary_entropy(eps)) \
                / (1 - eps) + 1e-9

    def test_eigensolve_budget_at_d256(self, monkeypatch):
        system = sysof(("A", 256))
        rho = random_density((256, 0, 0), system)
        sig = random_density((256, 0, 1), system)
        calls = []
        eigh = np.linalg.eigh

        def counting(mat, *args, **kwargs):
            calls.append(mat.shape[0])
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        for eps in (0.05, 0.1, 0.5):
            calls.clear()
            assert dh_eps(rho, sig, eps).finite
            # 7, 11 and 8 calls; sigma's memo is solved in the first
            assert len(calls) <= 11, (eps, len(calls))

    # from 16 breakpoint clusters on, the search starts from the prediction;
    # skewed spectra make the gallop overrun the bracket, as in the example
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 40),
           kind=st.sampled_from(KINDS + ("skewed",)),
           eps=st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.5, 0.9]),
                         st.floats(0.0, 0.95)))
    @example(seed=15, dim=24, kind="skewed", eps=0.3)
    def test_bit_identical_to_breakpoint_search(self, seed, dim, kind, eps):
        rho, sig = random_pair(seed, dim, kind)
        type2, pi = entropy._threshold_test(*states(rho, sig), eps)
        want, pi_want = breakpoint_search_test(*states(rho, sig), eps)
        assert repr(type2) == repr(want)
        assert np.array_equal(pi, pi_want)

    def test_fewer_eigensolves_than_the_breakpoint_search(self, monkeypatch):
        # seeds 0-7 at d = 256, eps = 0.1, each on fresh states: 111 calls
        # for the binary search, 83 from the predicted cluster
        system = sysof(("A", 256))
        pairs = [(random_density((256, seed, 0), system).matrix,
                  random_density((256, seed, 1), system).matrix)
                 for seed in range(8)]
        calls = []
        eigh = np.linalg.eigh

        def counting(mat, *args, **kwargs):
            calls.append(mat.shape[0])
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        totals, results = [], []
        for solver in (breakpoint_search_test, entropy._threshold_test):
            calls.clear()
            results.append([solver(*states(rho, sig), 0.1)
                            for rho, sig in pairs])
            totals.append(len(calls))
        assert totals[1] < totals[0], totals
        for (type2, pi), (want, pi_want) in zip(*results[::-1]):
            assert repr(type2) == repr(want)
            assert np.array_equal(pi, pi_want)

    def test_matches_bisection_at_d64(self):
        system = sysof(("A", 64))
        rho = random_density((64, 0, 0), system).matrix
        sig = random_density((64, 0, 1), system).matrix
        for eps in (0.05, 0.1, 0.5):
            type2, pi = entropy._threshold_test(*states(rho, sig), eps)
            want, pi_want = bisection_test(rho, sig, eps)
            assert abs(type2 - want) <= 1e-10 * want
            assert np.max(np.abs(pi - pi_want)) <= 1e-9


def per_call_relative_entropy(rho, sigma):
    """relative_entropy with rho and sigma eigensolved per call (oracle)."""
    rvals = np.linalg.eigh(rho.matrix)[0]
    svals, svecs, pos_s, mass_out = eigh_support_split(rho.matrix,
                                                       sigma.matrix)
    if mass_out > entropy._SUPPORT_MASS_TOL:
        return EntropyValue.infinite()
    pos_r = rvals > SUPPORT_TOL
    term1 = float(np.sum(rvals[pos_r] * np.log2(rvals[pos_r])))
    vs = svecs[:, pos_s]
    diag = np.real(np.sum(vs.conj() * (rho.matrix @ vs), axis=0))
    return EntropyValue(term1 - float(np.sum(diag * np.log2(svals[pos_s]))))


def per_call_dmax(rho, sigma):
    """dmax with sigma eigensolved on every call (oracle)."""
    svals, svecs, pos, mass_out = eigh_support_split(rho.matrix, sigma.matrix)
    if mass_out > entropy._SUPPORT_MASS_TOL:
        return EntropyValue.infinite()
    inv_half = svecs[:, pos] * (1.0 / np.sqrt(svals[pos]))
    rel = inv_half.conj().T @ rho.matrix @ inv_half
    lam = float(np.linalg.eigvalsh(rel)[-1])
    return EntropyValue(float(np.log2(max(lam, 1e-300))))


def per_call_fidelity(rho, sigma):
    """fidelity with sqrt(rho) from an eigensolve on every call (oracle)."""
    s = sqrtm_psd(rho.matrix)
    vals = np.linalg.eigvalsh(s @ sigma.matrix @ s)
    floor = max(vals[-1], 0.0) * 1e-13
    vals = np.where(vals > floor, vals, 0.0)
    f = float(np.sum(np.sqrt(vals)))
    return min(f, 1.0) if f <= 1.0 + 1e-7 else f


def memo_pairs(d):
    """(label, rho, sigma): full, rank-deficient sigma with rho outside and
    inside its support, and pure rho inside a rank-deficient sigma."""
    rng = np.random.default_rng(d)
    system = sysof(("A", d))
    full = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))[0]
    low = full[:, :d // 2]
    sig = state_on(rng, full, rng.dirichlet(np.ones(d)))
    sig_low = state_on(rng, low, rng.dirichlet(np.ones(d // 2)))
    rho = state_on(rng, full, rng.dirichlet(np.ones(d)))
    rho_in = state_on(rng, low, rng.dirichlet(np.ones(3)))
    rho_pure = state_on(rng, low, [1.0])
    pairs = [("full", rho, sig), ("sigma-deficient", rho, sig_low),
             ("inside-support", rho_in, sig_low),
             ("pure-inside", rho_pure, sig_low)]
    return [(label, DensityOperator(system, r, validate=False),
             DensityOperator(system, s, validate=False))
            for label, r, s in pairs]


class TestOneEigensystemPerState:
    """Every reader of a state's eigensystem takes the state's one memo."""

    def test_one_eigh_per_state_at_d64(self, monkeypatch):
        system = sysof(("A", 64))
        rho = random_density((64, 0, 0), system)
        sig = random_density((64, 0, 1), system)
        solved = []
        eigh = np.linalg.eigh

        def counting(mat, *args, **kwargs):
            solved.append("rho" if mat is rho.matrix else
                          "sigma" if mat is sig.matrix else "other")
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        for rounds in (1, 2):
            solved.clear()
            assert relative_entropy(rho, sig).finite
            assert dmax(rho, sig).finite
            assert 0 < fidelity(rho, sig) <= 1
            for eps in (0.0, 0.1):
                assert dh_eps(rho, sig, eps).finite
            want = 1 if rounds == 1 else 0
            assert (solved.count("sigma"), solved.count("rho")) == (want, want)

    @pytest.mark.parametrize("d", [8, 16])
    def test_values_repr_equal_to_per_call_bodies(self, d):
        for label, rho, sig in memo_pairs(d):
            fresh = [DensityOperator(state.system, state.matrix.copy(),
                                     validate=False) for state in (rho, sig)]
            for _ in range(2):   # cold, then warm memo
                assert repr(relative_entropy(rho, sig)) \
                    == repr(per_call_relative_entropy(rho, sig)), label
                assert repr(dmax(rho, sig)) == repr(per_call_dmax(rho, sig))
                assert repr(fidelity(rho, sig)) \
                    == repr(per_call_fidelity(rho, sig)), label
                for eps in (0.0, 0.1, 0.5):
                    assert repr(dh_eps(rho, sig, eps)) \
                        == repr(dh_eps(*fresh, eps)), (label, eps)
                type2, pi = entropy._threshold_test(rho, sig, 0.0)
                want, pi_want = bisection_test(rho.matrix, sig.matrix, 0.0)
                assert repr(type2) == repr(want)
                assert np.array_equal(pi, pi_want)
                got = entropy._support_split(rho, sig)
                for have, old in zip(got, eigh_support_split(rho.matrix,
                                                             sig.matrix)):
                    assert np.array_equal(have, old), label

    def test_square_roots_repr_equal_to_per_call_bodies(self):
        for label, rho, sig in memo_pairs(8):
            vec = sqrtm_psd(rho.matrix).reshape(-1)
            got = canonical_purification(rho, "R").vector
            assert np.array_equal(got, vec / np.linalg.norm(vec)), label
            w = np.array([0.5, 0.5, 0.0])
            ref = Reference(sig.matrix, w)
            avals, avecs = np.linalg.eigh(sig.matrix)
            a_sqrt = (avecs * np.sqrt(np.clip(avals, 0, None))) @ avecs.conj().T
            assert np.array_equal(ref.a_sqrt, a_sqrt), label


def loop_hmin_sdp(rho_mat, d_a, d_b):
    """Log-barrier Newton method for H_min with per-basis loops (oracle).

    The solver ``entropy._hmin_sdp`` used before its Newton step was written
    as array products: one np.kron per basis element and step, an einsum
    Hessian, and the barrier from log(det S).
    """
    d = d_a * d_b
    basis = []
    for i in range(d_b):
        m = np.zeros((d_b, d_b), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(d_b):
        for j in range(i + 1, d_b):
            m = np.zeros((d_b, d_b), dtype=complex)
            m[i, j] = m[j, i] = inv_sqrt2
            basis.append(m)
            m = np.zeros((d_b, d_b), dtype=complex)
            m[i, j] = 1j * inv_sqrt2
            m[j, i] = -1j * inv_sqrt2
            basis.append(m)
    tr_vec = np.array([float(np.real(np.trace(b))) for b in basis])
    eye_a = np.eye(d_a)

    def assemble(x):
        xb = np.zeros((d_b, d_b), dtype=complex)
        for c, b in zip(x, basis):
            xb += c * b
        return xb

    def slack(xb):
        return np.kron(eye_a, xb) - rho_mat

    def is_pd(mat):
        try:
            np.linalg.cholesky(mat + 0j)
            return True
        except np.linalg.LinAlgError:
            return False

    def barrier(x, s):
        return t * float(tr_vec @ x) - float(np.log(max(
            np.real(np.linalg.det(s)), 1e-300)))

    x = np.zeros(len(basis))
    x[:d_b] = float(np.linalg.eigvalsh(rho_mat)[-1]) * 1.001 + 1e-9
    t = 1.0
    while d / t > 1e-9:
        for _ in range(100):
            s = slack(assemble(x))
            s_inv = np.linalg.inv(s)
            s_inv = (s_inv + s_inv.conj().T) / 2
            g_mat = np.trace(s_inv.reshape(d_a, d_b, d_a, d_b), axis1=0, axis2=2)
            grad = t * tr_vec - np.array(
                [float(np.real(np.trace(g_mat @ b))) for b in basis])
            ys = np.stack([s_inv @ np.kron(eye_a, b) for b in basis])
            hess = np.real(np.einsum("aij,bji->ab", ys, ys))
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            decrement = float(-grad @ step)
            if decrement < 0:
                step = -grad
                decrement = float(grad @ grad)
            alpha = 1.0
            f0 = barrier(x, s)
            while alpha > 1e-12:
                x_new = x + alpha * step
                s_new = slack(assemble(x_new))
                if is_pd(s_new) and barrier(x_new, s_new) \
                        <= f0 - 0.25 * alpha * decrement + 1e-12:
                    break
                alpha *= 0.5
            x = x + alpha * step
            if decrement / 2 < 1e-11:
                break
        t *= 5.0
    xb = assemble(x)
    return float(np.real(np.trace(xb))), xb


class TestHmin:
    def test_uniform_a_product(self):
        mu_a = maximally_mixed(sysof(("A", 2)))
        sig_b = random_density(4, sysof(("B", 3)))
        val = hmin(tensor(mu_a, sig_b), (["A"], ["B"]))
        assert abs(val.value - 1.0) <= 1e-5

    def test_maximally_entangled(self):
        phi = maximally_entangled("A", "B", 2)
        val = hmin(phi, (["A"], ["B"]))
        assert abs(val.value - (-1.0)) <= 1e-5

    def test_product_closed_form(self):
        for seed in range(20):
            rho_a = random_density(seed, sysof(("A", 3)))
            sig_b = random_density(seed + 300, sysof(("B", 3)))
            val = hmin(tensor(rho_a, sig_b), (["A"], ["B"]))
            expect = -np.log2(np.linalg.eigvalsh(rho_a.matrix)[-1])
            assert abs(val.value - expect) <= 1e-5

    def test_witness_feasible(self):
        for seed in range(5):
            rho = random_density(seed, sysof(("A", 2), ("B", 3)))
            val = hmin(rho, (["A"], ["B"]))
            _, xb = entropy._hmin_sdp(rho.matrix, 2, 3)
            slack = np.kron(np.eye(2), xb) - rho.matrix
            assert np.linalg.eigvalsh(slack)[0] >= -1e-7
            assert abs(-np.log2(np.real(np.trace(xb))) - val.value) <= 1e-9

    @pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 2), (3, 3),
                                          (2, 6), (3, 6), (2, 9)])
    def test_matches_loop_oracle(self, d_a, d_b):
        # product and entangled states up to d = 18
        system = sysof(("A", d_a), ("B", d_b))
        product = np.kron(random_density((d_a, d_b, 0), sysof(("A", d_a))).matrix,
                          random_density((d_a, d_b, 1), sysof(("B", d_b))).matrix)
        for rho in (product, random_density((d_a, d_b, 2), system).matrix):
            opt, xb = entropy._hmin_sdp(rho, d_a, d_b)
            want, xb_want = loop_hmin_sdp(rho, d_a, d_b)
            assert abs(opt - want) <= 1e-12
            assert np.max(np.abs(xb - xb_want)) <= 1e-12

    def test_maximally_entangled_matches_loop_oracle_bit_for_bit(self):
        # the entropy CLI report prints this value's distance from -1
        phi = maximally_entangled("A", "B", 2).matrix
        assert entropy._hmin_sdp(phi, 2, 2)[0] == loop_hmin_sdp(phi, 2, 2)[0]

    @pytest.mark.parametrize("seed", [0, 5])
    def test_slack_bit_identical_to_the_kron_at_benchmark_shapes(
            self, monkeypatch, seed):
        # the benchmark's hmin cases: products 2x4, 2x8, 3x6 and a pure
        # maximally entangled 4x4 in a seeded local basis
        rng = np.random.default_rng([seed, 11])
        cases = []
        for d_a, d_b in ((2, 4), (2, 8), (3, 6)):
            rho_a = random_density((d_a, d_b, seed, 0), sysof(("A", d_a)))
            sig_b = random_density((d_a, d_b, seed, 1), sysof(("B", d_b)))
            cases.append((np.kron(rho_a.matrix, sig_b.matrix), d_a, d_b))
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        vec = np.kron(np.linalg.qr(g)[0], np.eye(4)) \
            @ maximally_entangled("A", "B", 4).vector
        cases.append((np.outer(vec, vec.conj()), 4, 4))
        for rho, d_a, d_b in cases:
            xb = rng.standard_normal((d_b, d_b)) \
                + 1j * rng.standard_normal((d_b, d_b))
            assert np.array_equal(entropy._slack(xb, rho), kron_slack(xb, rho))
            got = entropy._hmin_sdp(rho, d_a, d_b)
            with monkeypatch.context() as patch:
                patch.setattr(entropy, "_slack", kron_slack)
                want = entropy._hmin_sdp(rho, d_a, d_b)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])

    def test_product_closed_form_4x8(self):
        rho_a = random_density(48, sysof(("A", 4)))
        sig_b = random_density(84, sysof(("B", 8)))
        val = hmin(tensor(rho_a, sig_b), (["A"], ["B"]))
        expect = -np.log2(np.linalg.eigvalsh(rho_a.matrix)[-1])
        assert abs(val.value - expect) <= 1e-8

    def test_bad_partition(self):
        rho = random_density(0, sysof(("A", 2), ("B", 2)))
        with pytest.raises(ValueError):
            hmin(rho, (["A"], ["C"]))


class TestImax:
    def test_product_zero(self):
        rho = tensor(random_density(1, sysof(("A", 2))),
                     random_density(2, sysof(("B", 3))))
        assert abs(imax(rho, (["A"], ["B"])).value) <= 1e-7

    def test_maximally_entangled(self):
        phi = maximally_entangled("A", "B", 2)
        assert abs(imax(phi, (["A"], ["B"])).value - 2.0) <= 1e-9

    def test_definitional_composition(self):
        rho = random_density(77, sysof(("A", 2), ("B", 2)))
        got = imax(rho, (["A"], ["B"]))
        ref = tensor(partial_trace(rho, ["B"]), partial_trace(rho, ["A"]))
        assert got.value == dmax(rho, ref).value


class TestMixtureIdentity:
    def test_single_state(self):
        rho = random_density(0, sysof(("A", 2)))
        theta = random_density(1, sysof(("A", 2)))
        assert check_mixture_identity([rho], [1.0], theta) <= 1e-10

    def test_commuting_diagonal(self):
        a = diag_state("A", [0.3, 0.7])
        b = diag_state("A", [0.6, 0.4])
        theta = diag_state("A", [0.5, 0.5])
        assert check_mixture_identity([a, b], [0.25, 0.75], theta) <= 1e-8

    def test_random_qubit_mixture(self):
        states = [random_density(seed, sysof(("A", 2))) for seed in range(4)]
        theta = random_density(99, sysof(("A", 2)))
        res = check_mixture_identity(states, [0.25] * 4, theta)
        assert res <= 1e-7


class TestTransposeUnitary:
    def test_identity(self):
        assert np.allclose(transpose_unitary(np.eye(3), 3), np.eye(3))

    def test_permutation(self):
        p = np.zeros((3, 3))
        p[0, 1] = p[1, 2] = p[2, 0] = 1.0
        pt = transpose_unitary(p, 3)
        assert np.allclose(pt, p.T)
        assert np.allclose(pt @ p, np.eye(3))

    def test_random_unitary_defining_equation(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 5))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u, _ = np.linalg.qr(g)
            ut = transpose_unitary(u, d)
            phi = np.eye(d).reshape(-1) / np.sqrt(d)
            lhs = np.kron(u, np.eye(d)) @ phi
            rhs = np.kron(np.eye(d), ut) @ phi
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            transpose_unitary(np.ones((2, 2)), 2)


class TestFacts:
    def test_pinsker_bound(self):
        # F(rho, sigma) >= 2^(-D(rho||sigma)/2) on seeded pairs with common support
        count = 0
        for seed in range(200):
            s = sysof(("A", 3))
            rho = random_density(seed, s)
            sig = random_density(seed + 10_000, s)
            d = relative_entropy(rho, sig)
            assert d.finite
            assert fidelity(rho, sig) >= 2.0 ** (-d.value / 2) - 1e-8
            count += 1
        assert count == 200

    def test_gentle_measurement(self):
        rng = np.random.default_rng(5)
        for seed in range(50):
            s = sysof(("A", 3))
            rho = random_density(seed, s)
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = g @ g.conj().T
            h = h / (np.linalg.eigvalsh(h)[-1] * 1.01) + 1e-3 * np.eye(3)
            h = h / max(1.0, np.linalg.eigvalsh(h)[-1] * 1.001)  # 0 < A < I
            w = float(np.real(np.trace(h @ h @ rho.matrix)))
            post = DensityOperator(s, h @ rho.matrix @ h / w, validate=False)
            assert fidelity(rho, post) >= np.sqrt(w) - 1e-8

    def test_measurement_continuity(self):
        rng = np.random.default_rng(17)
        for seed in range(50):
            s = sysof(("A", 3))
            rho = random_density(seed, s)
            sig = random_density(seed + 777, s)
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            lam = g @ g.conj().T
            lam /= np.linalg.eigvalsh(lam)[-1] * 1.0001
            a = float(np.real(np.trace(lam @ rho.matrix)))
            b = float(np.real(np.trace(lam @ sig.matrix)))
            assert abs(np.sqrt(a) - np.sqrt(b)) <= purified_distance(rho, sig) + 1e-8

    def test_canonical_purification_fidelity(self):
        from oneshot_qit.registers import canonical_purification
        for seed in range(50):
            s = sysof(("A", 3))
            rho = random_density(seed, s)
            sig = random_density(seed + 31, s)
            pr = canonical_purification(rho, "M")
            ps = canonical_purification(sig, "M")
            overlap = float(np.real(np.trace(sqrtm_psd(rho.matrix)
                                             @ sqrtm_psd(sig.matrix))))
            assert abs(fidelity(pr, ps) - overlap) <= 1e-8
            assert fidelity(pr, ps) >= 1 - purified_distance(rho, sig) - 1e-8
