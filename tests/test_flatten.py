import math
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oneshot_qit import flatten as flatten_module
from oneshot_qit.coding import (ea_channel_code, identity_channel,
                                position_based_decode_flat)
from oneshot_qit.convexsplit import (PrimeEnsemble, PrimeRegister,
                                     convex_split_classical, hw_split_means)
from oneshot_qit.entropy import SUPPORT_TOL, Reference
from oneshot_qit.flatten import (_flat_ensemble, _moved_state,
                                 check_embezzle_upper, check_unembezzle,
                                 convex_split_flat_1design,
                                 convex_split_flat_classical,
                                 embezzling_state, harmonic_sum,
                                 purified_embezzle_fidelity, round_spectrum,
                                 unitary_flatten_W, w_b_permutation)
from oneshot_qit.registers import (DensityOperator, Monomial, RegisterSystem,
                                   maximally_entangled, maximally_mixed,
                                   partial_trace, random_density, reorder,
                                   tensor)
from oracles import (dense_kron_eye, dense_reference_measures,
                     dense_support_spectra, flatten, lifted_marginal,
                     loop_sector_spectra, random_pure, traced_rotation)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import oneshot_qit  # noqa: E402
import workloads  # noqa: E402
from oneshot_qit.cli import main  # noqa: E402


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
        assert np.allclose(e.weight_vector(3), [0, 2 / 3, 1 / 3], rtol=0,
                           atol=1e-12)

    def test_single_point(self):
        e = embezzling_state(1, 1)
        assert e.weight_vector(2).tolist() == [0.0, 1.0]

    def test_harmonic_sum_direct(self):
        e = embezzling_state(2, 4)
        assert abs(e.norm - 13 / 12) <= 1e-12
        expect = [6 / 13, 4 / 13, 3 / 13]
        got = e.weight_vector(6)
        assert got[[0, 1, 5]].tolist() == [0.0, 0.0, 0.0]
        assert np.allclose(got[2:5], expect, atol=1e-12)

    def test_weights_normalized(self):
        for a, n in ((1, 50), (3, 17), (8, 256)):
            e = embezzling_state(a, n)
            assert abs(e.weight_vector(n + 1).sum() - 1.0) <= 1e-12

    def test_amplitudes_are_the_square_roots(self):
        e = embezzling_state(2, 4)
        amp = e.amplitudes(6)
        assert amp[[0, 1, 5]].tolist() == [0.0, 0.0, 0.0]
        assert np.allclose(amp ** 2, e.weight_vector(6), rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            e.amplitudes(4)

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


# the messages of flatten's rule, so a refusal for another reason fails
RULE_REFUSAL = r"need n >= a >= b >= 1|\|D\| = "


def _rule_holds(a, b, n, d_size=None):
    """The embezzling-register rule, restated: n >= a >= b >= 1 and, for a
    given |D|, (n+1) b <= |D| <= n^2."""
    return n >= a >= b >= 1 and (d_size is None
                                 or (n + 1) * b <= d_size <= n * n)


@st.composite
def _in_rule(draw):
    """Small (a, b, n, |D|) inside the rule; |D| is None when the bracket
    [(n+1) b, n^2] is empty (b = n, or n = 1)."""
    n = draw(st.integers(1, 24))
    a = draw(st.integers(1, n))
    b = draw(st.integers(1, a))
    lo, hi = (n + 1) * b, n * n
    return a, b, n, draw(st.integers(lo, hi)) if lo <= hi else None


def _xi(lo, hi, dim):
    """Diagonal of xi^{lo:hi}: 1 / (S(lo, hi) j) on labels lo..hi of dim."""
    j = np.arange(dim)
    band = (j >= lo) & (j <= hi)
    return np.where(band, 1.0 / (np.maximum(j, 1) * harmonic_sum(lo, hi)), 0.0)


def _entry_ratio(state, target):
    """The least r with state <= r target, for diagonals: max state/target
    over the support of state, +inf where target is 0 there."""
    supp = state > 0
    if (target[supp] == 0).any():
        return float("inf")
    return float(np.max(state[supp] / target[supp]))


def _upper_diagonals(a, b, n):
    """Diagonals on (D, E), D of labels 0..n and E of b states, of
    W_b (xi^{a:n} (x) |0><0|) W_b^dag and of xi^{1:n} (x) unif_b."""
    start = np.zeros((n + 1, b))
    start[:, 0] = _xi(a, n, n + 1)
    moved = np.zeros(start.size)
    moved[w_b_permutation(b, n + 1, b)] = start.ravel()     # W moves k
    return moved, np.repeat(_xi(1, n, n + 1) / b, b)


class TestEmbezzleRule:
    """The three embezzlement checks against a direct evaluation on the
    diagonals that W_b moves, and the rule's refusals by all five callers.

    Every state is diagonal and W_b is a permutation of the basis, so the
    minimal ratio of two states is the largest ratio of their entries and
    the purified overlap is the sum of the square roots of their products.
    """

    @settings(max_examples=150, deadline=None)
    @given(case=_in_rule())
    def test_checks_match_the_moved_diagonals(self, case):
        a, b, n, d_size = case
        moved, target = _upper_diagonals(a, b, n)
        ratio, holds = check_embezzle_upper(a, b, n)
        assert ratio == pytest.approx(_entry_ratio(moved, target), rel=1e-12)
        assert holds
        assert purified_embezzle_fidelity(a, b, n) == pytest.approx(
            float(np.sum(np.sqrt(moved * target))), rel=1e-12)
        if d_size is None:
            return
        state = np.zeros((d_size + 1, b))
        state[:n + 1] = _xi(1, n, n + 1)[:, None] / b
        target = np.zeros((d_size + 1, b))
        target[:, 0] = _xi(1, d_size, d_size + 1)
        unmoved = state.ravel()[w_b_permutation(b, d_size + 1, b)]  # W^dag
        ratio, holds = check_unembezzle(a, b, n, d_size)
        assert ratio == pytest.approx(
            _entry_ratio(unmoved, target.ravel()), rel=1e-12)
        assert holds

    @staticmethod
    def _callers():
        """Each caller as (the tuple it puts to the rule, the call) for a
        drawn (a, b, n, |D|).  The flat decoder's input (the CLI's) has
        |E| = 2, so its a and its largest block b are 2; the channel code's
        input mu_2 at gamma = 1/2 has |E| = 2 and |D| = n (M + 1) = 5 n."""
        phi = maximally_entangled("B", "C", 2)
        mu_c = maximally_mixed(sysof(("C", 2)))
        mu_a = maximally_mixed(sysof(("A", 2)))
        return {
            "check_embezzle_upper": lambda a, b, n, d: (
                (a, b, n), lambda: check_embezzle_upper(a, b, n)),
            "check_unembezzle": lambda a, b, n, d: (
                (a, b, n, d), lambda: check_unembezzle(a, b, n, d)),
            "purified_embezzle_fidelity": lambda a, b, n, d: (
                (a, b, n), lambda: purified_embezzle_fidelity(a, b, n)),
            "position_based_decode_flat": lambda a, b, n, d: (
                (2, 2, n, d), lambda: position_based_decode_flat(
                    phi, mu_c, Fraction(2, 3), [0], 0.01, 0.1, 2, n, d)),
            "ea_channel_code": lambda a, b, n, d: (
                (a, 2, n, 5 * n), lambda: ea_channel_code(
                    identity_channel(2), mu_a, 0, 0.05, 0.5, 0.5, a, n)),
        }

    @pytest.mark.parametrize("caller", ["check_embezzle_upper",
                                        "check_unembezzle",
                                        "purified_embezzle_fidelity",
                                        "position_based_decode_flat",
                                        "ea_channel_code"])
    @settings(max_examples=40, deadline=None)
    @given(a=st.integers(-1, 9), b=st.integers(-1, 9), n=st.integers(-1, 9),
           d_size=st.integers(-1, 90))
    def test_every_caller_refuses_out_of_rule_tuples(self, caller, a, b, n,
                                                     d_size):
        rule, call = self._callers()[caller](a, b, n, d_size)
        assume(not _rule_holds(*rule))
        with pytest.raises(ValueError, match=RULE_REFUSAL):
            call()


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
            lhs = Monomial(np.argsort(img)).conjugate(
                np.diag(np.kron(q, np.kron(e0, xi_a))))
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
        assert rep.bound_check().holds

    def test_1design_maximally_entangled(self):
        phi = maximally_entangled("R", "C", 2)
        mu_c = maximally_mixed(sysof(("C", 2)))
        rep = convex_split_flat_1design(phi, mu_c, Fraction(1, 2), 16, n=4,
                                        seed=1)
        assert abs(rep.k - 2.0) <= 1e-8
        assert rep.bound_check().holds

    def test_1design_n1_trivial(self):
        phi = maximally_entangled("R", "C", 2)
        mu_c = maximally_mixed(sysof(("C", 2)))
        rep = convex_split_flat_1design(phi, mu_c, Fraction(1, 2), 1, n=4,
                                        seed=0)
        assert rep.bound_check().holds

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
        assert rep.bound_check().holds

    @pytest.mark.parametrize("subset", [[0], [3], [2, 5, 9]])
    def test_one_marginal_check_per_call(self, monkeypatch, subset):
        # the domination holds for every l != 0 at once, so no subset, not
        # even {0}, changes the one solve (the N = 11 split's is counted in
        # test_marginal_check_matches_dense)
        calls = []
        solve = flatten_module._block_eigvalsh

        def counting(mat, blocks=None):
            calls.append(mat.shape)
            return solve(mat, blocks)

        monkeypatch.setattr(flatten_module, "_block_eigvalsh", counting)
        psi = random_density(77, sysof(("R", 2), ("C", 2)))
        convex_split_flat_classical(psi, partial_trace(psi, ["R"]),
                                    Fraction(2, 3), subset, n=3)
        assert calls == [(8, 8)]

    def test_marginal_check_matches_dense(self, monkeypatch):
        # the benchmark's N = 11 split: its one solve, on (R, D), gives the
        # dense spectrum of marg_ref - Tr_F2(U_l base U_l^dag) on (R, F1, D)
        # at every l != 0, each eigenvalue g times; the least one is 0 on
        # the kernel of xi^{1:n}, so the whole spectrum is compared
        solved = []
        solve = flatten_module._block_eigvalsh

        def recording(mat, blocks=None):
            solved.append(solve(mat, blocks))
            return solved[-1]

        monkeypatch.setattr(flatten_module, "_block_eigvalsh", recording)
        psi = random_density(77, sysof(("R", 2), ("C", 2)))
        omega = partial_trace(psi, ["R"])
        convex_split_flat_classical(psi, omega, Fraction(2, 3), range(11),
                                    n=3)
        assert len(solved) == 1
        inp = flatten_module._flat_input(psi, omega, Fraction(2, 3), 3)
        ens = PrimeEnsemble(inp.theta, inp.psi_r, len(inp.w_d),
                            PrimeRegister(inp.dims[1], 11))
        g = ens.f_prime
        got = np.sort(np.repeat(solved[0], g))
        marg_ref = inp.ratio * np.kron(ens.psi_r, np.kron(np.eye(g) / g,
                                                          np.diag(inp.w_d)))
        base = dense_kron_eye(ens.base_factor, g)
        for ell in range(1, g):
            want = np.linalg.eigvalsh(marg_ref
                                      - traced_rotation(ens, base, ell))
            assert np.max(np.abs(got - want)) <= 1e-12 and got[0] >= -1e-10

    def test_marginal_check_reads_every_block(self, monkeypatch):
        solve = flatten_module._block_eigvalsh

        def last_negative(mat, blocks=None):
            vals = solve(mat, blocks).copy()
            vals[-1] = -1e-9
            return vals

        monkeypatch.setattr(flatten_module, "_block_eigvalsh", last_negative)
        psi = random_density(77, sysof(("R", 2), ("C", 2)))
        with pytest.raises(AssertionError, match="marginal domination failed"):
            convex_split_flat_classical(psi, partial_trace(psi, ["R"]),
                                        Fraction(2, 3), range(2), n=3)

    def test_classical_empty_subset(self):
        phi = maximally_entangled("R", "C", 2)
        mu_c = maximally_mixed(sysof(("C", 2)))
        with pytest.raises(ValueError):
            convex_split_flat_classical(phi, mu_c, Fraction(1, 2), [], n=3)


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
    src = ens.source(ell).src
    return mat[np.ix_(src, src)]


def _dense_base(ens):
    """The ensemble's base state in full: base_factor (x) I_F2."""
    return dense_kron_eye(ens.base_factor, ens.f_prime)


@lru_cache(maxsize=None)
def _dense(case, n_mixed):
    ens, ref = _ensemble(case)
    base = _dense_base(ens)
    tau = sum(_rotated(ens, base, ell)
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
        factor = ens.base_factor
        self._check(case, g, ens._sector_spectra(
            factor, ens._factor_reference(ref).sandwich(factor)))

    def test_signals_factor_base(self):
        ens, _ = _ensemble("decouple")
        rows, values, weights = ens.signals()
        # only nonzero rows, each once, and no dense signal array
        assert values.shape == (len(rows), len(weights))
        assert len(np.unique(rows)) == len(rows) and values.any(axis=1).all()
        signals = np.zeros((math.prod(ens.dims), len(weights)), dtype=complex)
        signals[rows] = values
        assert np.allclose(signals.conj().T @ signals, np.eye(len(weights)),
                           rtol=0, atol=1e-13)
        assert np.allclose((signals * weights) @ signals.conj().T,
                           _dense_base(ens), rtol=0, atol=1e-14)

    # sizes: the (count, size) of each stacked eigvalsh call.  The support
    # route solves tau and its sandwich in turn; the sector route solves
    # both factors at once, for sector 0 and then for sectors 1..g-1.
    @pytest.mark.parametrize("case, n_mixed, sizes", [
        # support: 420 rows of 968, in 78 blocks
        ("decouple", 2, [(36, 4), (30, 6), (12, 8)] * 2),
        # the 11 sectors of U_1: sector 0 (168 = 42 + 8 x 6 + 3 x 26), then
        # 10 sectors of 80 (20 + 2 x 2 + 2 x 4 + 8 x 6)
        ("decouple", 11, [(84, 1), (16, 6), (6, 26),
                          (400, 1), (40, 2), (40, 4), (160, 6)]),
        # support: 544 rows of 2312
        ("phi", 1, [(272, 1), (136, 2)] * 2),
        # sectors (264, then 16 of 128), below support 576
        ("phi", 17, [(396, 1), (30, 2), (4, 18), (3136, 1), (480, 2)])])
    def test_route_by_dimension(self, case, n_mixed, sizes, monkeypatch):
        ens, ref = _ensemble(case)
        seen = []
        solve = np.linalg.eigvalsh

        def recording(mat):
            seen.append((int(np.prod(mat.shape[:-2])), mat.shape[-1]))
            return solve(mat)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        ens.mixture_spectra(range(n_mixed), ref)
        assert seen == sizes

    def test_eigensolve_work_below_a_tenth_of_dense(self, monkeypatch):
        # the benchmark's flat classical split (N = 2, 11) and its C3-G11
        # classical split on one state (N = 1, 2, 11): the dense route
        # solved 216,855,016 = sum d^3 over its eigvalsh calls; the block
        # route solves 2,230,630
        work = []
        solve = np.linalg.eigvalsh

        def recording(mat):
            work.append(int(np.prod(mat.shape[:-2])) * mat.shape[-1] ** 3)
            return solve(mat)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        psi = random_density(77, sysof(("R", 2), ("C", 2)))
        omega = partial_trace(psi, ["R"])
        for n_mixed in (2, 11):
            convex_split_flat_classical(psi, omega, Fraction(2, 3),
                                        range(n_mixed), n=3)
        psi = random_density((3, 11, 0, 0), sysof(("R", 2), ("C", 3)))
        for n_mixed in (1, 2, 11):
            convex_split_classical(psi, range(n_mixed), prime=11)
        assert sum(work) < 216_855_016 / 10

    def test_peak_memory_below_one_dense_base(self):
        # the benchmark's N = 11 case (seed-77 state, gamma = 2/3, n = 3):
        # the whole group takes the pinching route, read from the factor on
        # (R, F1, D), so not one 968 x 968 complex array (14.3 MiB) is built
        psi = random_density(77, sysof(("R", 2), ("C", 2)))
        omega = partial_trace(psi, ["R"])
        dense_bytes = 968 * 968 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            convex_split_flat_classical(psi, omega, Fraction(2, 3), range(11),
                                        n=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes

    @pytest.mark.parametrize("n_mixed", [2, 11])
    def test_split_matches_dense_reference(self, n_mixed):
        # the report against Reference on the full dense tau (dimension 968)
        psi = random_density(77, sysof(("R", 2), ("C", 2)))
        omega = partial_trace(psi, ["R"])
        rep = convex_split_flat_classical(psi, omega, Fraction(2, 3),
                                          range(n_mixed), n=3)
        ens, ref = _ensemble("decouple")
        base = _dense_base(ens)
        tau = sum(_rotated(ens, base, ell)
                  for ell in range(n_mixed)) / n_mixed
        d_val, f_val = dense_reference_measures(ref, tau)
        assert abs(rep.achieved_rel_entropy - d_val) <= 1e-12
        assert abs(rep.achieved_fidelity - f_val) <= 1e-8


def _fft_sector_spectrum(ens, mat):
    """Eigenvalues of the pinching of the dense ``mat`` on (R, F1, D, F2)
    onto the eigenspaces of U_1, by FFTs over the orbit coordinates (delta,
    t) of every pair: the oracle of `PrimeEnsemble._sector_spectra`."""
    g, rd = ens.f_prime, ens.r_dim * ens.d_dim
    delta, t = np.divmod(np.arange(g * g), g)
    i = np.where(delta == 0, t, delta * t % g)
    pairs = i * g + (i + delta) % g
    m = reorder(mat, ens.dims, [0, 2, 1, 3]).reshape(rd, g * g, rd, g * g)
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


@st.composite
def _small_ensembles(draw):
    """(ensemble, w_d, subset): theta a random state on (R, S, D) of any
    rank, |S| in {2, 3} with a prime register from [|S|^2, 2 |S|^2], |R| and
    |D| at most 3 (|R| |D| at most 4 when |S| = 3, so the full space has at
    most 484 dimensions), positive weights w_d on D, and either the whole
    group or a random nonempty subset."""
    s_dim = draw(st.sampled_from([2, 3]))
    prime = draw(st.sampled_from([5, 7] if s_dim == 2 else [11]))
    r_dim = draw(st.integers(1, 3))
    d_dim = draw(st.integers(1, 3 if s_dim == 2 else 4 // r_dim))
    dim = r_dim * s_dim * d_dim
    theta = random_density(draw(st.integers(0, 2 ** 32 - 1)),
                           sysof(("R", r_dim), ("S", s_dim), ("D", d_dim)),
                           rank=draw(st.integers(1, dim)))
    ens = PrimeEnsemble(theta.matrix, partial_trace(theta, ["S", "D"]).matrix,
                        d_dim, PrimeRegister(s_dim, prime))
    w_d = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=d_dim,
                                 max_size=d_dim)))
    if draw(st.booleans()):
        subset = list(range(prime))
    else:
        subset = sorted(draw(st.sets(st.integers(0, prime - 1), min_size=1)))
    return ens, w_d / w_d.sum(), subset


def _split_reference(ens, w_d):
    """The reference of `PrimeEnsemble.mixture_measures` for ``w_d``."""
    mu = np.full(ens.f_prime, 1.0 / ens.f_prime)
    return Reference(ens.psi_r, np.kron(mu, np.kron(w_d, mu)))


def _check_against_dense(ens, w_d, subset):
    """Every spectra route of ``subset``, and `mixture_measures`, against
    the dense tau at the tolerances of `TestMixtureSpectra`; a support
    violation must give (inf, 0.0).  Returns the dense base."""
    g = ens.f_prime
    base = _dense_base(ens)
    ref = _split_reference(ens, w_d)
    tau = sum(_rotated(ens, base, ell) for ell in subset) / len(subset)
    s_dense, f_dense = _entropy_fidelity(
        _nonzero_eigvalsh(tau), _nonzero_eigvalsh(ref.sandwich(tau)))
    routes = [ens._support_spectra(subset, ref, ens._occupied(subset))]
    if len(subset) == g:
        factor = ens.base_factor
        routes.append(ens._sector_spectra(
            factor, ens._factor_reference(ref).sandwich(factor)))
        routes.append((_fft_sector_spectrum(ens, base),
                       _fft_sector_spectrum(ens, ref.sandwich(base))))
    for spectra in routes:
        s_val, f_val = _entropy_fidelity(*spectra)
        assert abs(s_val - s_dense) <= 1e-12
        assert abs(f_val - f_dense) <= 1e-8
    achieved, fid = ens.mixture_measures(subset, w_d)
    d_val, f_val = dense_reference_measures(ref, tau)
    if d_val == float("inf"):
        assert (achieved, fid) == (float("inf"), 0.0)
    else:
        assert abs(achieved - d_val) <= 1e-12
        assert abs(fid - f_val) <= 1e-8
    return base


class TestFactorMatchesDense:
    """`PrimeEnsemble` reads its base from base_factor (x) I_F2 without
    building it; every spectra route, the measures and the marginals agree
    with the dense base, at the tolerances of `TestMixtureSpectra`."""

    @settings(max_examples=15, deadline=None)
    @given(case=_small_ensembles())
    def test_spectra_measures_and_marginal(self, case):
        ens, w_d, subset = case
        g = ens.f_prime
        base = _check_against_dense(ens, w_d, subset)
        lifted = lifted_marginal(ens)
        for ell in range(1, g):
            assert np.max(np.abs(
                lifted - traced_rotation(ens, base, ell))) <= 1e-14
        # U_0 sweeps nothing: its trace is g factor, hence l != 0
        assert np.max(np.abs(traced_rotation(ens, base, 0)
                             - g * ens.base_factor)) <= 1e-14


@pytest.fixture(scope="module")
def split_calls(tmp_path_factory):
    """Every (ensemble, subset, w_d) that the decouple benchmark's cases at
    its default seed, and the CLI's convexsplit at its defaults, hand to
    `PrimeEnsemble.mixture_measures`."""
    calls = []
    measures = PrimeEnsemble.mixture_measures

    def recording(ens, subset, w_d):
        calls.append((ens, list(subset), w_d))
        return measures(ens, subset, w_d)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PrimeEnsemble, "mixture_measures", recording)
        for case in workloads.decouple(oneshot_qit, workloads.DEFAULT_SEED,
                                       None):
            case.run(workloads.Record())
        assert main(["convexsplit", "--out",
                     str(tmp_path_factory.mktemp("cli") / "report.csv")]) == 0
    return calls


class TestBlockRoutesAgainstFormerBodies:
    """The block-gathered support route gives the bits of the dense one
    (`oracles.dense_support_spectra`), and the DFT sector route the
    spectra of the loop over t (`oracles.loop_sector_spectra`)."""

    def test_support_spectra_bit_identical(self, split_calls):
        # every call, the whole group too, through the support body
        for ens, subset, w_d in split_calls:
            ref = _split_reference(ens, w_d)
            keep = ens._occupied(subset)
            got = ens._support_spectra(subset, ref, keep)
            want = dense_support_spectra(ens, subset, ref, keep)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    def test_support_route_measures_repr_equal(self, split_calls,
                                               monkeypatch):
        # 20 calls have N < g, so take the support route: N = 1 and 2 of
        # each of the 8 classical states, the CLI's N = 1, 2 and 4 and the
        # flat split's N = 2
        assert sum(len(subset) < ens.f_prime
                   for ens, subset, _ in split_calls) == 20
        got = [repr(ens.mixture_measures(subset, w_d))
               for ens, subset, w_d in split_calls]
        monkeypatch.setattr(PrimeEnsemble, "_support_spectra",
                            dense_support_spectra)
        assert got == [repr(ens.mixture_measures(subset, w_d))
                       for ens, subset, w_d in split_calls]

    @settings(max_examples=15, deadline=None)
    @given(case=_small_ensembles())
    def test_sector_spectra_match_the_loop(self, case):
        ens, w_d, _ = case
        factor = ens.base_factor
        factors = (factor, ens._factor_reference(
            _split_reference(ens, w_d)).sandwich(factor))
        got = ens._sector_spectra(*factors)
        want = loop_sector_spectra(ens, *factors)
        for g_vals, w_vals in zip(got, want):
            assert g_vals.shape == w_vals.shape
            assert np.max(np.abs(np.sort(g_vals) - np.sort(w_vals))) <= 1e-12


def _edge_ensemble(kind):
    """(ensemble on (R, S, D) = (2, 2, 2) with g = 5, w_d) for one edge of
    the block route:
    - ``rank1``: theta pure;
    - ``kernel``: psi_R of rank 1, and theta has mass on its kernel;
    - ``zero_rows``: theta = |0><0|_R (x) rho_SD, so every row of tau with
      R = 1 is an all-zero component;
    - ``coupled_ref``: theta classical on R against a psi_R whose square
      root mixes R, so the sandwich joins what tau's pattern leaves apart;
    - ``near_tol_below`` / ``near_tol_above``: psi_R (x) rho_SD with an
      eigenvalue of psi_R, and a weight of w_d, 1e-6 relative below or
      above SUPPORT_TOL.
    """
    sys_rsd = sysof(("R", 2), ("S", 2), ("D", 2))
    sys_sd = sysof(("S", 2), ("D", 2))
    w_d = np.array([0.3, 0.7])
    u = np.linalg.qr(np.array([[1.0, 2.0], [3.0, 1j]]))[0]
    if kind == "rank1":
        theta = random_pure(31, sys_rsd).matrix
        psi_r = partial_trace(DensityOperator(sys_rsd, theta), ["S", "D"]).matrix
    elif kind == "kernel":
        theta = random_density(32, sys_rsd).matrix
        psi_r = np.diag([1.0, 0.0])
    elif kind == "zero_rows":
        psi_r = np.diag([1.0, 0.0])
        theta = np.kron(psi_r, random_density(33, sys_sd).matrix)
    elif kind == "coupled_ref":
        psi_r = (u * [0.7, 0.3]) @ u.conj().T
        theta = np.kron(np.diag([0.6, 0.4]), random_density(35, sys_sd).matrix)
    else:
        tiny = SUPPORT_TOL * (1 - 1e-6 if kind == "near_tol_below" else 1 + 1e-6)
        psi_r = (u * [1 - tiny, tiny]) @ u.conj().T
        theta = np.kron(psi_r, random_density(34, sys_sd).matrix)
        w_d = np.array([1 - tiny, tiny])
    return PrimeEnsemble(theta, psi_r, 2, PrimeRegister(2, 5)), w_d


class TestBlockRouteEdgeCases:
    """The block route where rank, kernels and tolerances meet it: both
    spectra routes and the measures match the dense oracle."""

    @pytest.mark.parametrize("subset", [[0, 3], list(range(5))],
                             ids=["support", "sectors"])
    @pytest.mark.parametrize("kind", ["rank1", "kernel", "zero_rows",
                                      "coupled_ref", "near_tol_below",
                                      "near_tol_above"])
    def test_matches_dense(self, kind, subset):
        ens, w_d = _edge_ensemble(kind)
        _check_against_dense(ens, w_d, subset)

    def test_kernel_mass_is_infinite(self):
        ens, w_d = _edge_ensemble("kernel")
        assert ens.mixture_measures(range(5), w_d) == (float("inf"), 0.0)
        # the 1-design split's blocks against the same kernel
        ref = Reference(ens.psi_r, np.full(2, 0.5))
        theta = partial_trace(DensityOperator(sysof(("R", 2), ("S", 2),
                                                    ("D", 2)), ens.theta),
                              ["D"]).matrix
        assert ref.rel_entropy(theta) == float("inf")
        assert hw_split_means(theta, (2, 2, 1), 4, 0, ref) == (float("inf"), 0.0)
