from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneshot_qit.entropy import Reference
from oneshot_qit.flatten import (_flat_ensemble, _moved_state,
                                 check_embezzle_upper, check_unembezzle,
                                 convex_split_flat_1design,
                                 convex_split_flat_classical,
                                 embezzling_state, flatten, harmonic_sum,
                                 purified_embezzle_fidelity, round_spectrum,
                                 unitary_flatten_W, w_b_permutation)
from oneshot_qit.registers import (DensityOperator, RegisterSystem,
                                   maximally_entangled, maximally_mixed,
                                   partial_trace, permute_basis,
                                   random_density, tensor)


def sysof(*pairs):
    return RegisterSystem(list(pairs))


def _w_b_table(b, d_size, e_size):
    """Dict form of W_b, (j, e) -> (j', e'): the oracle of w_b_permutation."""
    table = {}
    used = set()
    for j in range(d_size):
        img = (j // b, j % b)
        table[(j, 0)] = img
        used.add(img)
    free = [(j, e) for j in range(d_size) for e in range(e_size)
            if (j, e) not in used]
    it = iter(free)
    for j in range(d_size):
        for e in range(1, e_size):
            table[(j, e)] = next(it)
    return table


def _w_table(flat, d_dim):
    """Dict form of W, (c, e, j) -> (c, e', j'): the oracle of unitary_flatten_W."""
    table = {}
    for c in range(flat.c_dim):
        b = flat.counts[c]
        sub = _w_b_table(b, d_dim, flat.e_dim) if b >= 1 else \
            {(j, e): (j, e) for j in range(d_dim) for e in range(flat.e_dim)}
        for (j, e), (j2, e2) in sub.items():
            table[(c, e, j)] = (c, e2, j2)
    return table


def _table_of(img, dims):
    """An index array as a dict of index tuples, the oracles' form."""
    keys = zip(*np.unravel_index(np.arange(len(img)), dims))
    vals = zip(*np.unravel_index(img, dims))
    return {tuple(map(int, k)): tuple(map(int, v)) for k, v in zip(keys, vals)}


class TestEmbezzlingState:
    def test_two_level(self):
        e = embezzling_state(1, 2)
        assert abs(e.norm - 1.5) <= 1e-12
        assert abs(e.weights[1] - 2 / 3) <= 1e-12
        assert abs(e.weights[2] - 1 / 3) <= 1e-12

    def test_single_point(self):
        e = embezzling_state(1, 1)
        assert e.weights == {1: 1.0}

    def test_harmonic_sum_direct(self):
        e = embezzling_state(2, 4)
        assert abs(e.norm - 13 / 12) <= 1e-12
        expect = [6 / 13, 4 / 13, 3 / 13]
        got = [e.weights[j] for j in (2, 3, 4)]
        assert np.allclose(got, expect, atol=1e-12)

    def test_weights_normalized(self):
        for a, n in ((1, 50), (3, 17), (8, 256)):
            e = embezzling_state(a, n)
            assert abs(sum(e.weights.values()) - 1.0) <= 1e-12

    def test_bad_range(self):
        with pytest.raises(ValueError):
            embezzling_state(5, 4)


class TestWbPermutation:
    def test_identity_slice_b1(self):
        t = w_b_permutation(1, 5, 2)
        for j in range(5):
            assert t[j * 2] == j * 2

    def test_arithmetic(self):
        t = w_b_permutation(2, 12, 3)
        assert t[5 * 3] == 2 * 3 + 1

    def test_exhaustive_bijection(self):
        t = w_b_permutation(3, 12, 3)
        assert np.array_equal(np.sort(t), np.arange(36))

    def test_matches_dict_oracle(self):
        for e_size in range(1, 7):
            for b in range(1, e_size + 1):
                for d_size in range(1, 40):
                    assert _table_of(w_b_permutation(b, d_size, e_size),
                                     (d_size, e_size)) == \
                        _w_b_table(b, d_size, e_size)

    def test_b_too_large(self):
        with pytest.raises(ValueError):
            w_b_permutation(4, 10, 3)


class TestEmbezzleClaims:
    def test_b1_exact_ratio(self):
        for a, n in ((2, 16), (4, 64), (8, 256)):
            ratio, holds = check_embezzle_upper(a, 1, n)
            expect = harmonic_sum(1, n) / harmonic_sum(a, n)
            assert abs(ratio - expect) <= 1e-12
            assert holds

    def test_grid(self):
        # exact-ratio forms hold across the full admissible grid
        for a in (2, 4, 8):
            for b in (1, 2, 4):
                if b > a:
                    continue
                for n in (16, 64, 256):
                    ratio, holds = check_embezzle_upper(a, b, n)
                    assert holds
                    assert ratio <= harmonic_sum(1, n) / harmonic_sum(a, n) + 1e-12

    def test_diagonal_oracle(self):
        # brute-force the operator inequality from the weight tables
        a, b, n = 4, 2, 64
        ratio, _ = check_embezzle_upper(a, b, n)
        s_an, s_1n = harmonic_sum(a, n), harmonic_sum(1, n)
        worst = 0.0
        for j in range(a, n + 1):
            lhs = 1.0 / (s_an * j)
            rhs = 1.0 / (s_1n * (j // b) * b)
            worst = max(worst, lhs / rhs)
        assert abs(worst - ratio) <= 1e-12

    def test_unembezzle_grid(self):
        for a in (2, 4, 8):
            for b in (1, 2, 4):
                if b > a:
                    continue
                for n in (16, 64, 256):
                    lo, hi = (n + 1) * b, n * n
                    for d_size in {lo, min(hi, 2 * lo), hi}:
                        ratio, holds = check_unembezzle(a, b, n, d_size)
                        assert holds
                        assert ratio <= 4.0 + 1e-12

    def test_unembezzle_bracket_enforced(self):
        with pytest.raises(ValueError):
            check_unembezzle(2, 2, 16, 16)   # below (n+1) b
        with pytest.raises(ValueError):
            check_unembezzle(2, 2, 16, 500)  # above n^2

    def test_harmonic_log_window(self):
        # |S(a, n) - log2(n/a)| <= 4 across the desk grid
        for a in (1, 2, 4, 8):
            for n in (16, 64, 256):
                assert abs(harmonic_sum(a, n) - np.log2(n / a)) <= 4.0


class TestPurifiedFidelity:
    def test_b1_closed_form(self):
        for a, n in ((2, 16), (4, 200)):
            got = purified_embezzle_fidelity(a, 1, n)
            expect = np.sqrt(harmonic_sum(a, n) / harmonic_sum(1, n))
            assert abs(got - expect) <= 1e-12

    def test_band_edge_finite(self):
        val = purified_embezzle_fidelity(4, 4, 16)
        assert 0 < val <= 1

    def test_direct_vector_oracle(self):
        # overlap of explicitly constructed purification vectors
        for a, b, n in ((2, 2, 8), (4, 2, 16), (6, 3, 24)):
            d_dim = n + 1
            e_dim = b
            s_an = harmonic_sum(a, n)
            s_1n = harmonic_sum(1, n)
            lhs = np.zeros((d_dim, d_dim, e_dim, e_dim))
            for j in range(a, n + 1):
                lhs[j // b, j // b, j % b, j % b] += 1 / np.sqrt(s_an * j)
            rhs = np.zeros_like(lhs)
            for j in range(1, n + 1):
                for e in range(b):
                    rhs[j, j, e, e] += 1 / np.sqrt(s_1n * j * b)
            overlap = float(np.sum(lhs * rhs))
            assert abs(overlap - purified_embezzle_fidelity(a, b, n)) <= 1e-12

    def test_monotone_in_n(self):
        for a, b in ((2, 1), (4, 2), (8, 2)):
            vals = [purified_embezzle_fidelity(a, b, n)
                    for n in (16, 32, 64, 128, 256)]
            for lo, hi in zip(vals, vals[1:]):
                assert hi >= lo - 1e-12

    def test_delta_form_where_hypotheses_hold(self):
        # assert the coarse closed-form floor wherever the surrogate allows it
        for a in (2, 4, 8):
            for b in (1, 2):
                if b > a:
                    continue
                for n in (16, 64, 256):
                    delta = max(np.log2(a) / np.log2(n), b / a)
                    if 0 < delta < 1 / 25:
                        f = purified_embezzle_fidelity(a, b, n)
                        assert f >= np.sqrt(1 - 25 * delta) - 1e-12


def _two_branch_counts(fracs, gamma, m_big, direction):
    """Grid counts of the mirrored up/down rounding: the oracle of the one
    candidate-scale rule in round_spectrum."""
    c_dim = len(fracs)
    if direction == "up":
        lo = (1 - gamma) * m_big
        candidates = {Fraction(m_big), lo}
        for w in fracs:
            if w > 0:
                for m in range(1, m_big + 1):
                    s = Fraction(m) / w
                    if lo <= s <= m_big:
                        candidates.add(s)
        counts = None
        for s in sorted(candidates, reverse=True):
            cand = [int(-((-w * s) // 1)) for w in fracs]      # ceil
            if sum(cand) <= m_big:
                counts = cand
                break
        deficit = m_big - sum(counts)
        order = sorted(range(c_dim), key=lambda i: (-fracs[i], i))
        pos = 0
        while deficit > 0:
            counts[order[pos % c_dim]] += 1
            deficit -= 1
            pos += 1
    else:
        hi = Fraction(m_big) / (1 - gamma)
        candidates = {Fraction(m_big), hi}
        for w in fracs:
            if w > 0:
                for m in range(1, int(hi * w) + 2):
                    s = Fraction(m) / w
                    if m_big <= s <= hi:
                        candidates.add(s)
        counts = None
        for s in sorted(candidates):
            cand = [int(w * s // 1) for w in fracs]     # floor
            if sum(cand) >= m_big:
                counts = cand
                break
        surplus = sum(counts) - m_big
        order = sorted(range(c_dim), key=lambda i: (-fracs[i], i))
        pos = 0
        while surplus > 0:
            idx = order[pos % c_dim]
            if counts[idx] > 0:
                counts[idx] -= 1
                surplus -= 1
            pos += 1
    return tuple(counts)


class TestRoundSpectrum:
    @settings(max_examples=300, deadline=None)
    @given(gamma=st.sampled_from([Fraction(1, 2), Fraction(1, 3),
                                  Fraction(1, 4), Fraction(2, 3),
                                  Fraction(3, 8)]),
           mult=st.integers(1, 3), data=st.data(),
           direction=st.sampled_from(["up", "down"]))
    def test_counts_match_the_two_branch_oracle(self, gamma, mult, data,
                                                direction):
        # |C| = mult * numerator(gamma) keeps |C|/gamma an integer
        c_dim = mult * gamma.numerator
        weights = data.draw(st.lists(st.integers(0, 60), min_size=c_dim,
                                     max_size=c_dim).filter(any))
        om = DensityOperator(sysof(("C", c_dim)),
                             np.diag(np.array(weights) / sum(weights)))
        fl = round_spectrum(om, gamma, direction)
        fracs = [Fraction(max(float(v), 0.0))
                 for v in np.linalg.eigvalsh(om.matrix)]
        assert fl.counts == _two_branch_counts(fracs, gamma,
                                               int(c_dim / gamma), direction)

    @pytest.mark.parametrize("direction, trace", [("up", 3.0), ("down", 0.1),
                                                  ("down", 0.0)])
    def test_no_fitting_scale_is_a_value_error(self, direction, trace):
        # an unnormalised operator fits no scale in the direction's bracket
        om = DensityOperator(sysof(("C", 2)), np.diag([trace / 2] * 2),
                             validate=False)
        with pytest.raises(ValueError, match="no scale"):
            round_spectrum(om, Fraction(1, 2), direction)

    def test_direct_rounding_matches_the_diagonal_detour(self):
        # rounding psi_A itself gives the counts and basis of rounding its
        # clipped, renormalised eigenvalues as a diagonal operator
        for seed in range(40):
            dim = 2 + seed % 2
            psi = random_density(seed, sysof(("A", dim)))
            gamma = Fraction(1, 2) if dim == 2 else Fraction(3, 8)
            for direction in ("up", "down"):
                lam, vecs = np.linalg.eigh(psi.matrix)
                lam = np.clip(lam, 0.0, None)
                spec_op = DensityOperator(sysof(("spec", dim)),
                                          np.diag(lam / lam.sum()),
                                          validate=False)
                want = round_spectrum(spec_op, gamma, direction)
                fl = round_spectrum(psi, gamma, direction)
                assert fl.counts == want.counts
                assert np.array_equal(fl.basis, vecs)

    def test_uniform_already_flat(self):
        mu = maximally_mixed(sysof(("C", 2)))
        for direction in ("up", "down"):
            fl = round_spectrum(mu, Fraction(1, 2), direction)
            assert fl.counts == (2, 2)

    def test_grid_exactness(self):
        om = DensityOperator(sysof(("C", 2)), np.diag([0.7, 0.3]))
        fl = round_spectrum(om, Fraction(1, 2), "up")
        assert sum(fl.counts) == 4
        vals = np.linalg.eigvalsh(fl.sigma_matrix())
        for v in vals:
            assert abs(v * 4 - round(v * 4)) <= 1e-12

    def test_up_inequality_seeded(self):
        for seed in range(25):
            om = random_density(seed, sysof(("C", 2)))
            for g in (Fraction(1, 2), Fraction(1, 4)):
                fl = round_spectrum(om, g, "up")
                gap = np.linalg.eigvalsh(fl.sigma_matrix() / (1 - float(g))
                                         - om.matrix)[0]
                assert gap >= -1e-10

    def test_down_inequality_seeded(self):
        for seed in range(25):
            om = random_density(seed, sysof(("C", 3)))
            fl = round_spectrum(om, Fraction(3, 8), "down")
            gap = np.linalg.eigvalsh(om.matrix / (1 - 3 / 8)
                                     - fl.sigma_matrix())[0]
            assert gap >= -1e-10

    def test_bad_gamma(self):
        om = maximally_mixed(sysof(("C", 2)))
        with pytest.raises(ValueError):
            round_spectrum(om, Fraction(3, 7), "up")   # |C|/gamma not integer
        with pytest.raises(ValueError):
            round_spectrum(om, Fraction(1, 2), "sideways")


class TestFlatten:
    def test_uniform(self):
        sigma = maximally_mixed(sysof(("C", 2)))
        out = flatten(sigma, Fraction(1, 2))
        vals = np.linalg.eigvalsh(out.matrix)
        support = vals[vals > 1e-12]
        assert len(support) == 4
        assert np.allclose(support, 0.25)

    def test_block_sizes(self):
        sigma = DensityOperator(sysof(("C", 2)), np.diag([0.75, 0.25]))
        out = flatten(sigma, Fraction(1, 4))
        assert out.system.dims == (2, 6)
        vals = np.linalg.eigvalsh(out.matrix)
        assert np.sum(vals > 1e-12) == 8
        assert np.allclose(vals[vals > 1e-12], 1 / 8)

    def test_marginal_recovery_exact(self):
        sigma = DensityOperator(sysof(("C", 2)), np.diag([0.75, 0.25]))
        out = flatten(sigma, Fraction(1, 4))
        back = partial_trace(out, ["E"])
        assert np.max(np.abs(back.matrix - sigma.matrix)) == 0.0

    def test_off_grid_rejected(self):
        sigma = DensityOperator(sysof(("C", 2)), np.diag([0.7, 0.3]))
        with pytest.raises(ValueError):
            flatten(sigma, Fraction(1, 2))

    def test_matches_block_sum(self):
        # oracle: sum_c |v_c><v_c| (x) diag(1/M on e < m_c), block by block
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v, _ = np.linalg.qr(g)
        sigma = DensityOperator(sysof(("C", 3)),
                                (v * np.array([4, 1, 1]) / 6) @ v.conj().T)
        out = flatten(sigma, Fraction(1, 2))
        vals, vecs = np.linalg.eigh(sigma.matrix)
        want = np.zeros((12, 12), dtype=complex)
        for c, val in enumerate(vals):
            e_diag = np.zeros(4)
            e_diag[:round(val * 6)] = 1 / 6
            want += np.kron(np.outer(vecs[:, c], vecs[:, c].conj()),
                            np.diag(e_diag))
        assert out.system.dims == (3, 4)
        assert np.max(np.abs(out.matrix - want)) <= 1e-12


class TestMovedState:
    def test_support_off_the_flat_spectrum_is_refused(self):
        # omega's small eigenvector gets count 0 when rounded down; a state
        # with weight on it is refused, one on the other eigenvector is moved
        # without losing trace
        rng = np.random.default_rng(5)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        v, _ = np.linalg.qr(g)
        lam = np.array([0.95, 0.05])
        om = DensityOperator(sysof(("C", 2)), (v * lam) @ v.conj().T)
        fl = round_spectrum(om, Fraction(1, 2), "down")
        big = int(np.argmax(fl.counts))
        assert sorted(fl.counts) == [0, 4]
        vec = (v * np.sqrt(lam)).T.reshape(-1)    # sum_i sqrt(l_i)|i>_R|v_i>_C
        pure = DensityOperator(sysof(("R", 2), ("C", 2)),
                               np.outer(vec, vec.conj()))
        with pytest.raises(ValueError, match="outside the flattened"):
            _moved_state(pure, fl, fl.e_dim, 4)
        proj = np.outer(fl.basis[:, big], fl.basis[:, big].conj())
        inside = DensityOperator(sysof(("R", 2), ("C", 2)),
                                 np.kron(np.eye(2) / 2, proj))
        theta, _ = _moved_state(inside, fl, fl.e_dim, 4)
        assert abs(np.trace(theta) - 1.0) <= 1e-12


class TestUnitaryFlattenW:
    def test_uniform_blocks_identical(self):
        mu = maximally_mixed(sysof(("C", 2)))
        fl = round_spectrum(mu, Fraction(1, 2), "up")
        img = unitary_flatten_W(fl, 5).reshape(2, -1)
        assert np.array_equal(img[0], img[1] - img.shape[1])

    def test_blocks_exhaustive(self):
        sigma = DensityOperator(sysof(("C", 2)), np.diag([0.25, 0.75]))
        fl = round_spectrum(sigma, Fraction(1, 4), "up")
        assert sorted(fl.counts) == [2, 6]
        dims = (2, fl.e_dim, 9)
        img = unitary_flatten_W(fl, 9)
        assert np.array_equal(np.sort(img), np.arange(len(img)))
        for c in range(2):
            b = fl.counts[c]
            for j in range(b, 9):
                c2, e2, j2 = np.unravel_index(
                    img[np.ravel_multi_index((c, 0, j), dims)], dims)
                assert (c2, e2, j2) == (c, j % b, j // b)

    @pytest.mark.parametrize("c_dim", [2, 3])
    def test_matches_dict_oracle(self, c_dim):
        for seed in range(10):
            om = random_density(seed, sysof(("C", c_dim)))
            for gamma in (Fraction(1, 2), Fraction(1, 4), Fraction(2, 3),
                          Fraction(1, 3)):
                for direction in ("up", "down"):
                    try:
                        fl = round_spectrum(om, gamma, direction)
                    except ValueError:      # |C|/gamma is not an integer
                        continue
                    n = max(fl.e_dim, 4)
                    for d_dim in (n + 1, n + 3, 2 * n + 1):
                        img = unitary_flatten_W(fl, d_dim)
                        assert _table_of(img, (c_dim, fl.e_dim, d_dim)) == \
                            _w_table(fl, d_dim)
                    assert list(fl.support_index()) == [
                        c * fl.e_dim + e for c in range(c_dim)
                        for e in range(fl.counts[c])]

    def test_defining_inequality_seeded(self):
        # W(sigma (x) |0><0| (x) xi^{a:n})W^dag <= ratio sigma_CE (x) xi^{1:n}
        for seed in range(5):
            om = random_density(seed, sysof(("C", 2)))
            fl = round_spectrum(om, Fraction(1, 4), "up")
            a = fl.e_dim
            n = max(a, 6)
            d_dim = n + 1
            dims = (2, fl.e_dim, d_dim)
            img = unitary_flatten_W(fl, d_dim)
            q = np.array(fl.counts) / fl.grid_total
            xi_a = embezzling_state(a, n).weight_vector(d_dim)
            xi_1 = embezzling_state(1, n).weight_vector(d_dim)
            e0 = np.zeros(fl.e_dim)
            e0[0] = 1.0
            lhs = permute_basis(np.diag(np.kron(q, np.kron(e0, xi_a))),
                                np.argsort(img), dims, [0, 1, 2])
            sce = np.zeros((2, fl.e_dim))
            for c in range(2):
                sce[c, :fl.counts[c]] = 1.0 / fl.grid_total
            rhs = np.kron(sce.reshape(-1), xi_1)
            ratio = harmonic_sum(1, n) / harmonic_sum(a, n)
            gap = np.min(ratio * rhs - np.diag(lhs))
            assert gap >= -1e-10


class TestFlatSplits:
    def test_1design_product_input(self):
        mu_c = maximally_mixed(sysof(("C", 2)))
        prod = tensor(random_density(3, sysof(("R", 2))), mu_c)
        rep = convex_split_flat_1design(prod, mu_c, Fraction(1, 2), 4, n=4,
                                        seed=1)
        assert rep.k <= 1e-9
        assert rep.bound_satisfied()

    def test_1design_maximally_entangled(self):
        phi = maximally_entangled("R", "C", 2)
        mu_c = maximally_mixed(sysof(("C", 2)))
        rep = convex_split_flat_1design(phi, mu_c, Fraction(1, 2), 16, n=4,
                                        seed=1)
        assert abs(rep.k - 2.0) <= 1e-8
        assert rep.bound_satisfied()

    def test_1design_n1_trivial(self):
        phi = maximally_entangled("R", "C", 2)
        mu_c = maximally_mixed(sysof(("C", 2)))
        rep = convex_split_flat_1design(phi, mu_c, Fraction(1, 2), 1, n=4,
                                        seed=0)
        assert rep.bound_satisfied()

    def test_1design_rejects_bad_field(self):
        # |C|/gamma = 6 is not a prime power, so no pairwise family exists
        phi = maximally_entangled("R", "C", 3)
        om = maximally_mixed(sysof(("C", 3)))
        with pytest.raises(ValueError):
            convex_split_flat_1design(phi, om, Fraction(1, 2), 2, n=6)

    def test_classical_small(self):
        phi = maximally_entangled("R", "C", 2)
        mu_c = maximally_mixed(sysof(("C", 2)))
        rep = convex_split_flat_classical(phi, mu_c, Fraction(1, 2),
                                          range(2), n=3)
        assert rep.bound_satisfied()

    def test_classical_empty_subset(self):
        phi = maximally_entangled("R", "C", 2)
        mu_c = maximally_mixed(sysof(("C", 2)))
        with pytest.raises(ValueError):
            convex_split_flat_classical(phi, mu_c, Fraction(1, 2), [])


@lru_cache(maxsize=None)
def _ensemble(case):
    """The decouple benchmark's gamma = 2/3 case, or criterion 08's phi case."""
    if case == "decouple":
        psi = random_density(77, sysof(("R", 2), ("C", 2)))
        omega, gamma = partial_trace(psi, ["R"]), Fraction(2, 3)
    else:
        psi = maximally_entangled("R", "C", 2)
        omega, gamma = maximally_mixed(sysof(("C", 2))), Fraction(1, 2)
    flat = round_spectrum(omega, gamma, "up")
    ens = _flat_ensemble(psi, flat, flat.e_dim, 3, 4)
    g = ens.f_prime
    xi = embezzling_state(1, 3).weight_vector(ens.d_dim)
    ref = Reference(ens.psi_r, np.kron(np.full(g, 1.0 / g),
                                       np.kron(xi, np.full(g, 1.0 / g))))
    return ens, ref


def _entropy_fidelity(tau_vals, mid_vals):
    pos = tau_vals[tau_vals > 1e-12]
    mid = mid_vals[mid_vals > max(mid_vals.max(), 0.0) * 1e-13]
    return -float(np.sum(pos * np.log2(pos))), float(np.sum(np.sqrt(mid)))


def _nonzero_eigvalsh(mat):
    """Dense eigvalsh after dropping the exactly zero rows and columns."""
    keep = np.flatnonzero(np.any(mat != 0, axis=1))
    return np.linalg.eigvalsh(mat[np.ix_(keep, keep)])


def _rotated(ens, mat, ell):
    """U_l mat U_l^dag on the ensemble's full space, by its gather map."""
    src = ens.source(ell)
    return mat[np.ix_(src, src)]


@lru_cache(maxsize=None)
def _dense(case, n_mixed):
    ens, ref = _ensemble(case)
    tau = sum(_rotated(ens, ens.base, ell)
              for ell in range(n_mixed)) / n_mixed
    return _entropy_fidelity(_nonzero_eigvalsh(tau),
                             _nonzero_eigvalsh(ref.sandwich(tau)))


_CASES = [("decouple", 2), ("decouple", 11), ("phi", 1), ("phi", 2), ("phi", 4)]


class TestMixtureSpectra:
    """The structured spectra of tau = mean_l U_l base U_l^dag against dense eigvalsh."""

    def _check(self, case, n_mixed, spectra):
        s_val, f_val = _entropy_fidelity(*spectra)
        s_dense, f_dense = _dense(case, n_mixed)
        assert abs(s_val - s_dense) <= 1e-12
        assert abs(f_val - f_dense) <= 1e-8

    @pytest.mark.parametrize("case, n_mixed", _CASES)
    def test_support_matches_dense(self, case, n_mixed):
        ens, ref = _ensemble(case)
        subset = range(n_mixed)
        self._check(case, n_mixed,
                    ens._support_spectra(subset, ref, ens._occupied(subset)))

    @pytest.mark.parametrize("case", ["decouple", "phi"])
    def test_pinching_matches_dense(self, case):
        ens, ref = _ensemble(case)
        g = ens.f_prime
        self._check(case, g, (ens._sector_spectrum(ens.base),
                              ens._sector_spectrum(ref.sandwich(ens.base))))

    def test_signals_factor_base(self):
        ens, _ = _ensemble("decouple")
        signals, weights = ens.signals()
        assert signals.shape == (ens.dim_full, len(weights))
        assert np.allclose(signals.conj().T @ signals, np.eye(len(weights)),
                           rtol=0, atol=1e-13)
        assert np.allclose((signals * weights) @ signals.conj().T, ens.base,
                           rtol=0, atol=1e-14)

    @pytest.mark.parametrize("case, n_mixed, sizes", [
        ("decouple", 2, [420, 420]),              # support, against 968
        ("decouple", 11, [168] * 2 + [80] * 20),  # the 11 sectors of U_1, twice
        ("phi", 1, [544, 544]),                   # support, against 2312
        ("phi", 17, [264] * 2 + [128] * 32)])     # sectors, below support 576
    def test_route_by_dimension(self, case, n_mixed, sizes, monkeypatch):
        ens, ref = _ensemble(case)
        seen = []
        solve = np.linalg.eigvalsh

        def recording(mat):
            seen.append(mat.shape[0])
            return solve(mat)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        ens.mixture_spectra(range(n_mixed), ref)
        assert sorted(seen, reverse=True) == sizes

    @pytest.mark.parametrize("n_mixed", [2, 11])
    def test_split_matches_dense_reference(self, n_mixed):
        # the report against Reference on the full dense tau (dimension 968)
        psi = random_density(77, sysof(("R", 2), ("C", 2)))
        omega = partial_trace(psi, ["R"])
        rep = convex_split_flat_classical(psi, omega, Fraction(2, 3),
                                          range(n_mixed), n=3)
        ens, ref = _ensemble("decouple")
        tau = sum(_rotated(ens, ens.base, ell)
                  for ell in range(n_mixed)) / n_mixed
        assert abs(rep.achieved_rel_entropy - ref.rel_entropy(tau)) <= 1e-12
        assert abs(rep.achieved_fidelity - ref.fidelity(tau)) <= 1e-8
