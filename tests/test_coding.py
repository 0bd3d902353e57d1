import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oneshot_qit import coding, entropy
from oneshot_qit.coding import (INV_SQRT_CUT, CodingReport, QuantumChannel,
                                _blocks, _check_range, _eig_inv_sqrt,
                                _successes, apply_channel, channel_rate_cap,
                                depolarizing_channel, ea_channel_code,
                                entanglement_budget, identity_channel,
                                neyman_pearson_operator,
                                position_based_decode_classical,
                                position_based_decode_flat,
                                redistribution_bounds)
from oneshot_qit.convexsplit import (PrimeRegister, _classical_ensemble,
                                     _hw_gather, pairwise_family)
from oneshot_qit.entropy import dh_eps
from oneshot_qit.flatten import (_flat_ensemble, embezzling_state,
                                 round_spectrum, unitary_flatten_W)
from oneshot_qit.registers import (DensityOperator, PureState, RegisterSystem,
                                   _components, act, basis_state,
                                   canonical_purification, kron_eye_entries,
                                   maximally_entangled, maximally_mixed,
                                   Monomial, partial_trace, random_density,
                                   tensor)
BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from oracles import (POVM, dense_hw_family, dense_kron_eye, dense_matrix,
                     dense_rows, dense_signal_successes, full_blocks,
                     hayashi_nagaoka_povm, hn_inequality_gap,
                     inv_sqrt_successes, lifted_classical_test,
                     lifted_flat_test, moved_channel_test)


def sysof(*pairs):
    return RegisterSystem(list(pairs))


def dephasing_channel(p):
    """rho -> (1 - p/2) rho + (p/2) Z rho Z, p in [0, 2]."""
    _check_range("p", p, 2)
    kraus = (np.sqrt(1 - p / 2) * np.eye(2, dtype=complex),
             np.sqrt(p / 2) * np.diag([1.0, -1.0]).astype(complex))
    return QuantumChannel(kraus, 2, f"dephasing({p})")


def amplitude_damping_channel(gamma):
    """Decay |1> -> |0> with probability gamma in [0, 1]."""
    _check_range("gamma", gamma, 1)
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return QuantumChannel((k0, k1), 2, f"amplitude_damping({gamma})")


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
    pos = vals > INV_SQRT_CUT
    v_pos = vecs[:, pos]
    return (v_pos / np.sqrt(vals[pos])) @ v_pos.conj().T, \
        v_pos @ v_pos.conj().T


class TestChannels:
    def test_identity(self):
        rho = random_density(0, sysof(("A", 2)))
        out = apply_channel(identity_channel(2), rho, ["A"])
        assert np.allclose(out.matrix, rho.matrix)

    def test_fully_depolarizing(self):
        k0 = basis_state(sysof(("A", 2)), 0)
        out = apply_channel(depolarizing_channel(1.0), k0, ["A"])
        assert np.allclose(out.matrix, np.eye(2) / 2)

    def test_depolarizing_kraus_sum_oracle(self):
        p = 0.1
        rho = basis_state(sysof(("A", 2)), 0)
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
            coding.QuantumChannel((kraus,), 2)

    def test_non_square_kraus_is_refused(self):
        # an isometry C^2 -> C^3 is trace preserving, but not on one register
        with pytest.raises(ValueError, match="shape mismatch"):
            coding.QuantumChannel((np.eye(3, 2, dtype=complex),), 2)


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


def _one_test(family):
    """An arbitrary family as one block-diagonal test (A, f = 1) with offset
    compression maps: member m is A[src[m], src[m]], with unit phases."""
    family = np.stack(family)
    n_members, dim = family.shape[:2]
    src = np.arange(n_members * dim).reshape(n_members, dim)
    return (_block_diag(list(family)), 1), Monomial(src)


def _materialised(test, maps):
    """Every member M_m T M_m^dag, stacked, for the test (A, f) built in
    full as T = A (x) I_f and the maps as dense matrices."""
    mats = dense_matrix(maps, len(test[0]) * test[1])
    return mats @ dense_kron_eye(*test) @ mats.conj().swapaxes(-1, -2)


def _every_block(test, maps, branches):
    """`_blocks` seeded on every row of every branch: all the blocks."""
    return _blocks(test, maps, branches,
                   np.ones((len(branches), maps.src.shape[1]), dtype=bool))


def _own_components(total):
    """Number of connected components of the nonzero pattern of ``total``."""
    return len(np.unique(_components(*np.nonzero(total), len(total))))


def _block_inv_sqrt(family):
    """Dense S^{-1/2} and support projector of S = sum(family), scattered
    from the blocks of `_blocks` and the eigensystems of `_eig_inv_sqrt`."""
    test, maps = _one_test(family)
    dim = maps.src.shape[1]
    inv_half = np.zeros((dim, dim), dtype=complex)
    supp = np.zeros((dim, dim), dtype=complex)
    for br, idx in _every_block(test, maps, np.arange(len(family))[None]):
        assert not br.any()
        rows, cols = idx[:, :, None], idx[:, None, :]
        total = sum(member[rows, cols] for member in family)
        vecs, scale = _eig_inv_sqrt(total)
        vecs_h = vecs.conj().swapaxes(-1, -2)
        inv_blocks = (vecs * scale[:, None, :]) @ vecs_h
        supp_blocks = (vecs * (scale > 0)[:, None, :]) @ vecs_h
        inv_half[rows, cols] = inv_blocks
        supp[rows, cols] = supp_blocks
    return inv_half, supp


class TestInvSqrt:
    def check(self, total, n_blocks):
        assert _own_components(total) == n_blocks
        one_branch = np.zeros((1, 1), dtype=int)
        test, maps = _one_test([total])
        covered = np.concatenate(
            [idx.ravel() for _, idx in _every_block(test, maps, one_branch)])
        assert np.array_equal(np.sort(covered), np.arange(total.shape[0]))
        got_inv, got_supp = _block_inv_sqrt([total])
        want_inv, want_supp = _dense_inv_sqrt(total)
        assert np.max(np.abs(got_inv - want_inv)) <= 1e-12
        assert np.max(np.abs(got_supp - want_supp)) <= 1e-12

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
        assert abs(np.trace(_block_inv_sqrt([total])[1]) - 5) <= 1e-12

    def test_zero_block(self):
        rng = np.random.default_rng(3)
        total = _block_diag([_psd(rng, 3), np.zeros((4, 4)), _psd(rng, 2)])
        self.check(total, 2 + 4)
        inv_half, supp = _block_inv_sqrt([total])
        assert not inv_half[3:7].any()
        assert not supp[3:7].any()


def _union_find_blocks(family, branches):
    """Per branch, the components of the union of its members' nonzero
    patterns by a plain union-find, as a sorted list of index lists."""
    parts = []
    for row in branches:
        parent = list(range(family.shape[1]))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for m in row:
            for i, j in zip(*np.nonzero(family[m])):
                parent[find(int(i))] = find(int(j))
        blocks = {}
        for i in range(len(parent)):
            blocks.setdefault(find(i), []).append(i)
        parts.append(sorted(blocks.values()))
    return parts


def _sparse_member(draw, dim):
    """One sparse Hermitian matrix on ``dim`` indices, possibly all zero."""
    index = st.integers(0, dim - 1)
    member = np.zeros((dim, dim), dtype=complex)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=2 * dim)):
        member[i, j] = complex(1 + i + j, j - i)
        member[j, i] = complex(1 + i + j, i - j)
    return member


def _branches(draw, n_members):
    """1-4 branches of 1-4 terms that may repeat a member."""
    n_terms = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, n_members - 1), min_size=n_terms,
                   max_size=n_terms)
    return np.array(draw(st.lists(row, min_size=1, max_size=4)))


@st.composite
def _sparse_families(draw):
    """(family, branches): 1-6 sparse Hermitian members on 1-12 indices, any
    of them all zero, and 1-4 branches of 1-4 terms that may repeat a
    member."""
    n_members, dim = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    family = np.stack([_sparse_member(draw, dim) for _ in range(n_members)])
    return family, _branches(draw, n_members)


@st.composite
def _permuted_families(draw):
    """(test, maps, branches): one sparse Hermitian test (A, f = 1) on 1-12
    indices, 1-6 random permutation maps with random phases, and branches
    as in `_sparse_families`."""
    n_members, dim = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    test = _sparse_member(draw, dim)
    src = np.array([draw(st.permutations(range(dim)))
                    for _ in range(n_members)]).reshape(n_members, dim)
    angles = draw(st.lists(st.floats(0, 2 * np.pi), min_size=src.size,
                           max_size=src.size))
    phase = np.exp(1j * np.array(angles)).reshape(src.shape)
    return (test, 1), Monomial(src, phase), _branches(draw, n_members)


class TestBlocksProperty:
    @settings(max_examples=200, deadline=None)
    @given(case=_sparse_families())
    @example(case=(np.stack([np.zeros((4, 4)), np.eye(4)[[1, 0, 2, 3]]]),
                   np.array([[0, 0], [1, 0], [1, 1]])))
    def test_matches_union_find(self, case):
        family, branches = case
        self.check(_every_block(*_one_test(family), branches), family,
                   branches)

    @settings(max_examples=200, deadline=None)
    @given(case=_permuted_families())
    def test_permutation_maps_match_union_find(self, case):
        test, maps, branches = case
        self.check(_every_block(test, maps, branches),
                   _materialised(test, maps), branches)

    @staticmethod
    def check(groups, family, branches):
        # groups in ascending block size; in a group, blocks by branch and
        # then smallest index; indices ascending within a block
        sizes = [idx.shape[1] for _, idx in groups]
        assert sizes == sorted(set(sizes))
        got = [[] for _ in branches]
        for br, idx in groups:
            assert np.all(np.diff(idx, axis=1) > 0)
            keys = list(zip(br.tolist(), idx[:, 0].tolist()))
            assert keys == sorted(set(keys))
            for b, block in zip(br.tolist(), idx.tolist()):
                got[b].append(block)
        assert [sorted(part) for part in got] \
            == _union_find_blocks(family, branches)


@st.composite
def _kron_eye_tests(draw):
    """(A, f, maps, branches, factors): a sparse Hermitian factor A on
    1-5 indices (any zero pattern, all zero included), f in 1-4, 1-4 random
    permutation maps of the n f indices of A (x) I_f with random phases,
    branches as in `_sparse_families`, and a signal factor per member with
    random zero rows."""
    n, f, n_members = (draw(st.integers(1, 5)), draw(st.integers(1, 4)),
                       draw(st.integers(1, 4)))
    factor, dim = _sparse_member(draw, n), n * f
    src = np.array([draw(st.permutations(range(dim)))
                    for _ in range(n_members)]).reshape(n_members, dim)
    angles = draw(st.lists(st.floats(0, 2 * np.pi), min_size=src.size,
                           max_size=src.size))
    phase = np.exp(1j * np.array(angles)).reshape(src.shape)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    factors = np.stack(_factors(rng, n_members, dim, 2))
    factors[rng.random((n_members, dim)) < 0.3] = 0
    return factor, f, Monomial(src, phase), _branches(draw, n_members), \
        factors


class TestKronEyeTest:
    """A test passed as (A, f) reads A (x) I_f without building it: the
    blocks and successes equal those of the dense kron passed with f = 1."""

    @settings(max_examples=150, deadline=None)
    @given(case=_kron_eye_tests())
    def test_matches_dense_kron(self, case):
        factor, f, maps, branches, factors = case
        dense = (dense_kron_eye(factor, f), 1)
        got, want = (_every_block(test, maps, branches)
                     for test in ((factor, f), dense))
        assert len(got) == len(want)
        for (br, idx), (br_d, idx_d) in zip(got, want):
            assert np.array_equal(br, br_d) and np.array_equal(idx, idx_d)
        want = _successes(dense, maps, branches, *_row_form(factors))
        # unnormalised draws: successes reach the thousands, so the two
        # bodies are compared relative to their scale
        assert np.max(np.abs(_successes((factor, f), maps, branches,
                                        *_row_form(factors))
                             - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _seed_mask(data, branches, dim, factors=None):
    """A seed mask (n_branches, dim) for `_blocks`: none, every row, the
    rows that ``factors`` touch as in `_successes`, or drawn row by row."""
    kinds = ["none", "all", "drawn"] + ([] if factors is None else ["signal"])
    kind, shape = data.draw(st.sampled_from(kinds)), (len(branches), dim)
    if kind == "signal":
        return (factors != 0).any(axis=2)[branches].any(axis=1)
    if kind == "drawn":
        return np.array(data.draw(st.lists(
            st.booleans(), min_size=shape[0] * dim,
            max_size=shape[0] * dim))).reshape(shape)
    return np.full(shape, kind == "all")


class TestSeededBlocks:
    """`_blocks` returns the blocks of its former body (`full_blocks`, which
    labels every row) that hold a seed, in the same order."""

    @settings(max_examples=150, deadline=None)
    @given(case=_sparse_families(), data=st.data())
    def test_sparse_families(self, case, data):
        family, branches = case
        test, maps = _one_test(family)
        self.check(test, maps, branches,
                   _seed_mask(data, branches, maps.src.shape[1]))

    @settings(max_examples=150, deadline=None)
    @given(case=_kron_eye_tests(), data=st.data())
    def test_kron_eye_tests(self, case, data):
        factor, f, maps, branches, factors = case
        self.check((factor, f), maps, branches,
                   _seed_mask(data, branches, maps.src.shape[1], factors))

    @staticmethod
    def check(test, maps, branches, seeds):
        want = []
        for br, idx in full_blocks(test, maps, branches):
            held = seeds[br[:, None], idx].any(axis=1)
            if held.any():
                want.append((br[held], idx[held]))
        got = _blocks(test, maps, branches, seeds)
        assert len(got) == len(want)
        for (br, idx), (br_want, idx_want) in zip(got, want):
            assert np.array_equal(br, br_want)
            assert np.array_equal(idx, idx_want)


@st.composite
def _row_form_cases(draw):
    """(test, maps, branches, rows, values): a sparse Hermitian factor A on
    1-4 indices with f in 1-3, 1-4 member maps with random phases that
    permute A (x) I_f's n f indices or compress them to fewer, and each
    X_m by its rows: 0 to dim distinct rows per member, the same rows for
    every member or drawn per member (so rows are shared or not), in a
    random order, with any row or one whole member zero."""
    n, f, n_members = (draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                       draw(st.integers(1, 4)))
    factor, size = _sparse_member(draw, n), n * f
    dim = draw(st.integers(1, size))
    src = np.array([draw(st.permutations(range(size)))[:dim]
                    for _ in range(n_members)]).reshape(n_members, dim)
    angles = draw(st.lists(st.floats(0, 2 * np.pi), min_size=src.size,
                           max_size=src.size))
    maps = Monomial(src, np.exp(1j * np.array(angles)).reshape(src.shape))
    r = draw(st.integers(0, dim))
    rows = [draw(st.permutations(range(dim)))[:r]
            for _ in range(1 if draw(st.booleans()) else n_members)]
    rows = np.broadcast_to(np.array(rows, dtype=int).reshape(len(rows), r),
                           (n_members, r)) + np.arange(n_members)[:, None] * dim
    rows = draw(st.permutations(rows.ravel().tolist()))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (len(rows), draw(st.integers(1, 3)))
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values[rng.random(len(rows)) < 0.3] = 0
    if draw(st.booleans()):     # one member's X_m all zero
        values[np.array(rows, dtype=int) // dim
               == draw(st.integers(0, n_members - 1))] = 0
    rows = np.array(rows, dtype=int)
    return (factor, f), maps, _branches(draw, n_members), rows, values


class TestRowForm:
    """`_successes` reads each X_m by its rows and gives the same bits as
    its former body on the dense X_m (`oracles.dense_signal_successes`)."""

    @settings(max_examples=200, deadline=None)
    @given(case=_row_form_cases())
    def test_matches_dense_oracle_exactly(self, case):
        test, maps, branches, rows, values = case
        want = dense_signal_successes(test, maps, branches, dense_rows(
            rows, values, maps.src.shape))
        assert np.array_equal(_successes(test, maps, branches, rows, values),
                              want)

    def test_benchmark_inputs_match_dense_oracle_exactly(self, monkeypatch):
        # every `_successes` call of the benchmark's coding pass at its
        # default seed: the classical decoder's grid, the flat decoder and
        # the identity and depolarizing(0.1) codes
        calls = []

        def recording(*args):
            calls.append((args, _successes(*args)))
            return calls[-1][1]

        monkeypatch.setattr(coding, "_successes", recording)
        import oneshot_qit
        for case in workloads.coding(oneshot_qit, workloads.DEFAULT_SEED,
                                     None):
            rec = workloads.Record()
            case.run(rec)
            assert all(ok for _, ok in rec.checks), rec.checks
        assert len(calls) == 5 + 1 + 2 + 1
        for (test, maps, branches, rows, values), got in calls:
            assert np.array_equal(got, dense_signal_successes(
                test, maps, branches, dense_rows(rows, values,
                                                 maps.src.shape)))


class TestRankForm:
    """`_successes` reads each block through the eigensystem of S, in
    stacks of bounded volume, and equals the S^{-1/2} oracle (one stack per
    block size, S^{-1/2} F_m S^{-1/2} against X_m X_m^dag)."""

    @settings(max_examples=150, deadline=None)
    @given(case=_kron_eye_tests())
    def test_matches_inv_sqrt_oracle(self, case):
        factor, f, maps, branches, factors = case
        args = ((factor, f), maps, branches)
        want = inv_sqrt_successes(*args, factors)
        assert np.max(np.abs(_successes(*args, *_row_form(factors)) - want)) \
            <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _dense_successes(family, branches, factors):
    """Re Tr(S_b^{-1/2} F_m S_b^{-1/2} X_m X_m^dag) through one dense
    S^{-1/2} per branch."""
    out = np.zeros(np.shape(branches))
    for b, row in enumerate(branches):
        inv_half = _dense_inv_sqrt(sum(family[m] for m in row))[0]
        for j, m in enumerate(row):
            lam = inv_half @ family[m] @ inv_half
            out[b, j] = np.real(np.trace(lam @ factors[m]
                                         @ factors[m].conj().T))
    return out


def _row_form(factors, seed=0):
    """Dense X_m (n_members, dim, cols) in `_successes`' row form: the flat
    rows m dim + i of every nonzero row and of some zero rows, in a seeded
    random order, with the values there."""
    rng = np.random.default_rng(seed)
    flat = factors.reshape(-1, factors.shape[-1])
    rows = rng.permutation(np.flatnonzero(flat.any(axis=1)
                                          | (rng.random(len(flat)) < 0.2)))
    return rows, flat[rows]


def _check_successes(test, maps, branches, factors):
    factors = np.stack(factors)
    got = _successes(test, maps, branches, *_row_form(factors))
    assert np.array_equal(got, dense_signal_successes(test, maps, branches,
                                                      factors))
    want = _dense_successes(_materialised(test, maps), branches,
                            factors)
    assert np.max(np.abs(got - want)) <= 1e-12
    return got


def _factors(rng, count, dim, cols):
    return [rng.standard_normal((dim, cols))
            + 1j * rng.standard_normal((dim, cols)) for _ in range(count)]


class TestSuccesses:
    def test_kernel_rows_contribute_zero(self):
        rng = np.random.default_rng(4)
        family = [_block_diag([_psd(rng, 3, low=0.0, high=1.0),
                               np.zeros((4, 4)),
                               _psd(rng, 2, low=0.0, high=1.0)])
                  for _ in range(2)]
        x = np.zeros((9, 5), dtype=complex)
        x[3:7] = rng.standard_normal((4, 5))
        assert np.array_equal(
            _check_successes(*_one_test(family), [[0, 1]], [x, x]),
            np.zeros((1, 2)))
        x[[0, 8]] = rng.standard_normal((2, 5))
        _check_successes(*_one_test(family), [[0, 1], [1, 1]], [x, 2 * x])

    def test_unequal_blocks_over_many_branches(self):
        # 45 branches of 3 terms: the 4 x 17^2 entries of the family the
        # maps stand for take 22 branches' 3 x 17 member rows at a time, so
        # 3 chunks
        rng = np.random.default_rng(5)
        _check_successes(*_one_test(_test_family(5, 4, (3, 1, 3, 5, 2, 3))),
                         rng.integers(0, 4, (45, 3)),
                         _factors(rng, 4, 17, 3))

    def test_cancelling_off_diagonals(self):
        # S = diag(0.9, 0.6, 0.4): its own pattern splits 1 + 1 + 1, while
        # the members couple the first two indices
        family = [np.array([[0.3, 0.2, 0], [0.2, 0.5, 0], [0, 0, 0.4]]),
                  np.array([[0.6, -0.2, 0], [-0.2, 0.1, 0], [0, 0, 0.0]])]
        assert _own_components(family[0] + family[1]) == 3
        test, maps = _one_test(family)
        assert sorted(idx.shape[1] for _, idx in
                      _every_block(test, maps, np.array([[0, 1]]))) == [1, 2]
        _check_successes(test, maps, [[0, 1], [1, 0], [0, 0]],
                         _factors(np.random.default_rng(6), 2, 3, 2))

    def test_support_eigenvalue_near_1e9(self):
        # S = diag(1, 1e-9) exactly: its 1e-9 direction lies above
        # INV_SQRT_CUT, so it is support, and each Lambda_m couples it to the
        # first index by +-c / sqrt(1e-9), about 0.32
        c = 1e-5
        family = [np.array([[0.5, c], [c, 0.5e-9]]),
                  np.array([[0.5, -c], [-c, 0.5e-9]])]
        off = c / np.sqrt(1e-9)
        lams = [np.array([[0.5, off], [off, 0.5]]),
                np.array([[0.5, -off], [-off, 0.5]])]
        povm = hayashi_nagaoka_povm(family)
        for m, lam in enumerate(lams):
            assert np.max(np.abs(povm.elements[m] - lam)) <= 1e-12
        assert np.max(np.abs(povm.elements[-1])) <= 1e-12
        factors = _factors(np.random.default_rng(7), 2, 2, 2)
        got = _check_successes(*_one_test(family), [[0, 1], [1, 0]], factors)
        want = [np.real(np.trace(lams[m] @ x @ x.conj().T))
                for m, x in enumerate(factors)]
        assert np.max(np.abs(got - [want, want[::-1]])) <= 1e-12


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


def _flat_lifted(psi, eps):
    """The flat decoder's ensemble and lifted test for psi on a trivial B
    and a qubit C, against mu_C at gamma = 2/3, a = 2, n = 3, d_size = 8,
    built as the decoder builds them: (B, F1, D, F2) has 1089 dimensions."""
    mu_c = maximally_mixed(sysof(("C", 2)))
    flat = round_spectrum(mu_c, Fraction(2, 3), "down")
    ens = _flat_ensemble(psi, flat, 2, 3, 9)
    omega, _ = neyman_pearson_operator(
        psi, tensor(partial_trace(psi, ["C"]), mu_c), eps)
    return ens, dense_kron_eye(*lifted_flat_test(ens, flat, omega,
                                                 psi.system.dims))


def _flat_dense(psi, subset, eps):
    """(ensemble, rotated tests by l, dense S^{-1/2}) of `_flat_lifted`."""
    ens, om_full = _flat_lifted(psi, eps)
    rotated = {}
    for ell in subset:
        src = ens.source(ell).src
        rotated[ell] = om_full[np.ix_(src, src)]
    return ens, rotated, _dense_inv_sqrt(sum(rotated.values()))[0]


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
        om_full = dense_kron_eye(*lifted_flat_test(
            ens, flat, neyman_pearson_operator(psi, ref, eps)[0],
            psi.system.dims))
        rotated = {}
        for ell in subset:
            src = ens.source(ell).src
            rotated[ell] = om_full[np.ix_(src, src)]
        inv_half, _ = _dense_inv_sqrt(sum(rotated.values()))

        r_dim, s_dim, d_dim, f_prime = ens.r_dim, ens.s_dim, ens.d_dim, \
            ens.f_prime
        t_vals, t_vecs = np.linalg.eigh(ens.theta)
        keep = t_vals > 1e-13
        t_vals, t_vecs = t_vals[keep], t_vecs[:, keep]
        for ell in subset:
            perm = np.argsort(ens.source(ell).src)
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


    def test_peak_memory_below_one_dense_lifted_test(self):
        # the benchmark's case: trivial B, gamma = 2/3, a = 2, n = 3,
        # d_size = 8, subset [0]; the family is the lifted test, kept as its
        # 99-dimensional factor with |F2| = 11, and its gather maps: neither
        # the dense test (18.1 MiB) nor a rotated copy of it is built
        psi = DensityOperator(sysof(("B", 1), ("C", 2)),
                              _seeded_input((0.7, 0.3), 9).matrix)
        mu_c = maximally_mixed(sysof(("C", 2)))
        lifted_bytes = _flat_lifted(psi, 0.01)[1].nbytes
        tracemalloc.start()
        try:
            position_based_decode_flat(psi, mu_c, Fraction(2, 3), [0], 0.01,
                                       0.2, a=2, n=3, d_size=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < lifted_bytes


class TestFlatDecoderProperty:
    """The flat decoder on random mixed psi_C with a trivial B: its bound,
    and its successes against a dense S^{-1/2} on all 1089 dimensions,
    with tau_l = U_l base U_l^dag.  A draw costs the oracle one 1089 x 1089
    eigh (about 2 s on one core of a 2-core VM) and two products per
    position, so two draws of at most 2 positions each."""

    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), eps=st.floats(1e-3, 0.2),
           delta=st.floats(0.05, 0.95), data=st.data())
    def test_bound_and_dense_oracle(self, seed, eps, delta, data):
        psi = random_density(seed, sysof(("B", 1), ("C", 2)))
        mu_c = maximally_mixed(sysof(("C", 2)))
        _, type2 = neyman_pearson_operator(
            psi, tensor(partial_trace(psi, ["C"]), mu_c), eps)
        cap = delta ** 2 / (4 * eps * type2)
        assume(cap >= 1)
        # positions of the prime register |F| = 11 built on the 3-state grid
        subset = sorted(data.draw(st.sets(st.integers(0, 10), min_size=1,
                                          max_size=int(min(2, cap)))))
        try:
            rep = position_based_decode_flat(psi, mu_c, Fraction(2, 3),
                                             subset, eps, delta, a=2, n=3,
                                             d_size=8)
        except ValueError:
            assume(False)
        ens, rotated, inv_half = _flat_dense(psi, subset, eps)
        base = dense_kron_eye(ens.base_factor, ens.f_prime)
        for ell in subset:
            src = ens.source(ell).src
            lam = inv_half @ rotated[ell] @ inv_half
            want = np.real(np.sum(lam.T * base[np.ix_(src, src)]))
            assert abs(rep.successes[ell] - want) <= 1e-12
        assert rep.min_success >= rep.exact_bound - 1e-9


def _admitted_size(psi, eps, delta, size):
    """``size`` cut to the decoders' cap (delta^2 / 4 eps) 2^D_H for psi on
    (B, C) against psi_B (x) mu_C; a draw whose cap is below 1 is
    filtered out."""
    ref = tensor(partial_trace(psi, ["C"]), maximally_mixed(sysof(("C", 2))))
    _, type2 = neyman_pearson_operator(psi, ref, eps)
    cap = delta ** 2 / (4 * eps * type2)
    assume(cap >= 1)
    return min(size, int(cap))


_FLOOR_DRAWS = dict(seed=st.integers(0, 2 ** 32 - 1),
                    b_dim=st.integers(1, 2), rank=st.integers(1, 2),
                    eps=st.floats(1e-6, 0.2), size=st.integers(1, 11))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the cap admits more positions than the floor holds")
class TestCoarseFloorProperty:
    """Each decoder's coarse floor min_success >= 1 - eps - coarse delta
    (coarse 4 classical, 64 flat) over random psi on (B, C), |B| 1 or 2,
    |C| = 2, of rank 1 or 2, with delta where the floor is above 0 and the
    subset cut to the cap; refused draws are filtered out.

    The floor does not hold.  When eps is far below delta^2, the cap
    (delta^2 / 4 eps) 2^D_H admits more positions than the measurement can
    tell apart: at the classical example the state on (B, C) is psi_C alone,
    the cap is 25 and each of the 7 positions succeeds with 1/7, against a
    floor of 0.96.  The floor is kept as it is, so these fail until the cap
    or the floor is mended; the examples run first and fail at once."""

    @settings(max_examples=60, deadline=None)
    @given(delta=st.floats(1e-3, 0.25), g=st.sampled_from([5, 7]),
           **_FLOOR_DRAWS)
    @example(seed=576710434, b_dim=1, rank=2, eps=1e-6, delta=0.01, size=7,
             g=7)
    def test_classical(self, seed, b_dim, rank, eps, delta, size, g):
        psi = random_density(seed, sysof(("B", b_dim), ("C", 2)), rank=rank)
        size = min(g, _admitted_size(psi, eps, delta, size))
        rep = position_based_decode_classical(psi, PrimeRegister(2, g),
                                              range(size), eps, delta)
        assert rep.min_success >= 1 - eps - 4 * delta - 1e-9

    # below 1/64 a cap of 1 needs eps under about 5e-4 at these dimensions
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(delta=st.floats(1e-3, 1 / 64),
           **dict(_FLOOR_DRAWS, eps=st.floats(1e-6, 5e-4)))
    @example(seed=459790513, b_dim=2, rank=1, eps=5e-6, delta=0.008, size=6)
    def test_flat(self, seed, b_dim, rank, eps, delta, size):
        psi = random_density(seed, sysof(("B", b_dim), ("C", 2)), rank=rank)
        size = _admitted_size(psi, eps, delta, size)
        try:
            rep = position_based_decode_flat(
                psi, maximally_mixed(sysof(("C", 2))), Fraction(2, 3),
                range(size), eps, delta, a=2, n=3, d_size=8)
        except ValueError:
            assume(False)
        assert rep.min_success >= 1 - eps - 64 * delta - 1e-9


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
    xi_pairs = np.diag(embezzling_state(a, n).amplitudes(d_dim))
    shape = (d_a, e_dim, d_dim, d_a, e_dim, d_dim)      # (A, E', D', C, E, D)
    init = np.zeros(shape, dtype=complex)
    init[:, 0, :, :, 0, :] = np.einsum("ac,pq->apcq", sigma_amp, xi_pairs)
    w_img = unitary_flatten_W(flat, d_dim)

    def controlled_w(mat, basis, src, dims, axis):
        inner = act(mat, basis.conj().T, dims, [axis])
        inner = Monomial(src).lift(dims, [axis, axis + 1, axis + 2]).conjugate(
            inner)
        return act(inner, basis, dims, [axis])

    s_cols_a = np.zeros((d_a * e_dim, m_big), dtype=complex)
    s_cols_c = np.zeros((d_a * e_dim, m_big), dtype=complex)
    for s, (c, e) in enumerate(zip(*np.divmod(flat.support_index(), e_dim))):
        e_vec = np.eye(e_dim)[:, e]
        s_cols_a[:, s] = np.kron(v_basis[:, c], e_vec)
        s_cols_c[:, s] = np.kron(v_basis[:, c].conj(), e_vec)
    hw = dense_hw_family(m_big)

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
        tests.append(act(om_moved, lift_side(s_cols_c, u), bob_dims,
                         [1, 2]))
        u_enc = controlled_w(
            np.kron(lift_side(s_cols_a, u.T), np.eye(d_dim)),
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


def _dense_channel_code_maps(channel, psi_a, gamma, a, n):
    """Bob's member maps V_y W, the column blocks of Alice's encodings over
    every (Kraus, E', D'), and the mask of the columns whose (E', D') is a
    nonzero row of some encoding, all built densely in the rounding's
    eigenbasis: V_y is the matrix of ``_hw_gather`` lifted onto the
    support pairs of (C, E), W is lifted to (B, C, E, D), and
    W^dag (V_y^T (x) I_D') W is a matrix product on the resource, followed
    by each Kraus operator."""
    flat = round_spectrum(psi_a, gamma, "down")
    counts, m_big, e_dim = flat.counts, flat.grid_total, flat.e_dim
    d_a, d_dim = flat.c_dim, n * (m_big + 1) + 1
    side = d_a * e_dim * d_dim
    xi_pairs = np.diag(embezzling_state(a, n).amplitudes(d_dim))
    init = np.zeros((d_a, e_dim, d_dim, d_a, e_dim, d_dim), dtype=complex)
    init[:, 0, :, :, 0, :] = np.einsum(
        "ac,pq->apcq", np.diag(np.sqrt(np.array(counts) / m_big)), xi_pairs)
    w = np.zeros((side, side))
    w[unitary_flatten_W(flat, d_dim), np.arange(side)] = 1.0
    pairs = flat.support_index()
    w_bob = np.kron(np.eye(d_a), w)
    members, columns = [], []
    reached = np.zeros(e_dim * d_dim, dtype=bool)
    for y in range(m_big * m_big):
        lift = np.eye(d_a * e_dim, dtype=complex)
        lift[np.ix_(pairs, pairs)] = dense_matrix(
            _hw_gather(*divmod(y, m_big), m_big))
        members.append(np.kron(np.eye(d_a), np.kron(lift, np.eye(d_dim)))
                       @ w_bob)
        enc = w.T @ np.kron(lift.T, np.eye(d_dim)) @ w @ init.reshape(side, -1)
        reached |= enc.reshape(d_a, e_dim * d_dim, -1).any(axis=(0, 2))
        columns.append(np.concatenate(
            [(np.kron(k @ flat.basis, np.eye(e_dim * d_dim)) @ enc).reshape(
                d_a, e_dim * d_dim, side).transpose(0, 2, 1).reshape(
                d_a * side, e_dim * d_dim) for k in channel.kraus], axis=1))
    return members, np.stack(columns), np.tile(reached, len(channel.kraus))


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
        monkeypatch.setattr(coding, "_threshold_test",
                            lambda rho, sigma, eps: bisection_test(
                                rho.matrix, sigma.matrix, eps))
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
        m = 4
        hw = dense_hw_family(m)
        phi = np.eye(m).reshape(-1) / np.sqrt(m)
        for y in (1, 5, 9):
            lhs = np.kron(hw[y].T, np.eye(m)) @ phi
            rhs = np.kron(np.eye(m), hw[y]) @ phi
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_nonuniform_input_state(self):
        rep = ea_channel_code(identity_channel(2), _nonuniform_input(), 0,
                              0.05, 0.5, 0.5, a=4, n=8)
        assert rep.bound_satisfied()
        assert rep.empirical_max_error < 0.5

    def test_two_register_input_is_refused(self):
        # the code takes psi_A alone: a purification on (A, R) is 4
        # dimensions against the qubit channel
        psi_ar = canonical_purification(_seeded_input((0.7, 0.3), 1), "R")
        channel = amplitude_damping_channel(0.3)
        with pytest.raises(ValueError, match="channel dimensions"):
            ea_channel_code(channel, psi_ar, 0, 0.05, Fraction(2, 3), 0.5,
                            a=2, n=4)
        with pytest.raises(ValueError, match="channel expects 2"):
            channel_rate_cap(channel, psi_ar, 0.05, 2 / 3, 0.5)

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

    @pytest.mark.parametrize("rate, a, n, match", [
        (0, 1, 3, "need n >= a"),           # a below |E| = 2
        (0, 2, 3, "outside"),               # |D| = 3 x 5 above n^2 = 9
        (5, 4, 5, "message set")])          # 32 messages over GF(16)
    def test_refusal_makes_no_threshold_test(self, monkeypatch, rate, a, n,
                                             match):
        # a refused call pays for no Neyman-Pearson solve; only the rate
        # cap, which needs D_H, refuses after it
        calls = []
        threshold_test = entropy._threshold_test

        def counting(*args):
            calls.append(1)
            return threshold_test(*args)

        monkeypatch.setattr(coding, "_threshold_test", counting)
        with pytest.raises(ValueError, match=match):
            ea_channel_code(identity_channel(2), self.mu_a, rate, 0.05,
                            Fraction(1, 2), 0.5, a=a, n=n)
        assert calls == []

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

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), p=st.floats(0.55, 0.95),
           kind=st.sampled_from([(depolarizing_channel, 4 / 3),
                                 (dephasing_channel, 2.0),
                                 (amplitude_damping_channel, 1.0)]),
           strength=st.floats(0.0, 1.0),
           gamma=st.sampled_from([Fraction(1, 2), Fraction(2, 3)]),
           rate=st.sampled_from([0, 1]))
    def test_gather_maps_match_dense_encodings(self, seed, p, kind, strength,
                                               gamma, rate):
        make, top = kind
        channel = make(strength * top)
        psi_a = _seeded_input((p, 1 - p), seed)
        with mock.patch.object(coding, "_successes",
                               wraps=_successes) as spy:
            rep = ea_channel_code(channel, psi_a, rate, 0.05, gamma, 0.5,
                                  a=4, n=5, enforce_cap=False)
        assert rep.bound_satisfied()
        (_, maps, _, rows, values), _ = spy.call_args
        factors = dense_rows(rows, values, maps.src.shape)
        members, columns, kept = _dense_channel_code_maps(
            channel, psi_a, gamma, a=4, n=5)
        rows = np.arange(maps.src.shape[1])
        for y, dense in enumerate(members):
            member = np.zeros_like(dense)
            member[rows, maps.src[y]] = maps.phase[y]
            assert np.max(np.abs(member - dense)) <= 1e-14
        # the program keeps the columns that some encoding reaches; every
        # column it drops is exactly 0 in the dense construction
        assert not columns[:, :, ~kept].any()
        assert factors.shape == columns[:, :, kept].shape
        assert np.max(np.abs(factors - columns[:, :, kept])) <= 1e-14

    def test_union_blocks_coarser_than_each_member(self, monkeypatch):
        # depolarizing(0.1) at rate 0: each of the 16 tests splits into 52
        # blocks of 1 and 52 of 3 by its own pattern, and the union of two
        # or more of them joins some into blocks of 4
        calls = []

        def recording(*args):
            calls.append(args)
            return _successes(*args)

        monkeypatch.setattr(coding, "_successes", recording)
        ea_channel_code(depolarizing_channel(0.1), self.mu_a, 0, 0.05, 0.5,
                        0.5, a=4, n=5)
        (test, maps, branches, rows, values), = calls
        factors = dense_rows(rows, values, maps.src.shape)
        assert branches.tolist() == [[y] for y in range(16)]
        for member in _materialised(test, maps):
            labels = _components(*np.nonzero(member), len(member))
            assert sorted(np.bincount(labels)[np.unique(labels)]) \
                == [1] * 52 + [3] * 52
        _check_successes(test, maps, branches, factors)
        for row in ([0, 5], [3, 12], list(range(16))):
            assert max(idx.shape[1] for _, idx in
                       _every_block(test, maps, np.array([row]))) == 4
            _check_successes(test, maps, [row], factors)

    @pytest.fixture
    def solves(self, monkeypatch):
        """Shape of every stack of S blocks handed to `_eig_inv_sqrt`, and
        the number of branches of every chunk handed to `_blocks`."""
        shapes, chunks = [], []

        def recording(total):
            shapes.append(total.shape)
            return _eig_inv_sqrt(total)

        def chunk_recording(test, maps, branches, seeds):
            chunks.append(len(branches))
            return _blocks(test, maps, branches, seeds)

        monkeypatch.setattr(coding, "_eig_inv_sqrt", recording)
        monkeypatch.setattr(coding, "_blocks", chunk_recording)
        return shapes, chunks

    def test_split_stacks_match_inv_sqrt_oracle(self, solves):
        # gamma = 2/3, rate 1: the 81 two-message branches over GF(9) have
        # 54 blocks of 168 that the messages' columns touch; a stack's two
        # member blocks hold at most 9 x 168^2 entries, so they are solved
        # in stacks of 4
        with mock.patch.object(coding, "_successes", wraps=_successes) as spy:
            ea_channel_code(identity_channel(2), _seeded_input((0.7, 0.3), 3),
                            1, 0.05, Fraction(2, 3), 0.5, a=4, n=5,
                            enforce_cap=False)
        args, _ = spy.call_args
        n_members, dim = args[1].src.shape
        shapes, _ = solves
        assert all(count * size * size <= n_members * dim * dim
                   for count, size, _ in shapes)
        assert sum(count for count, size, _ in shapes if size == dim) == 54
        assert len(shapes) > len({shape[-1] for shape in shapes})
        assert np.max(np.abs(_successes(*args) - inv_sqrt_successes(
            *args[:3], dense_rows(*args[3:], (n_members, dim))))) <= 1e-12

    def test_peak_memory_below_the_dense_column_blocks(self):
        # the benchmark's depolarizing(0.1) code at rate 0: the columns of
        # the 16 encodings over (Kraus, E', D') are 16 x 208 x 208 complex
        # built densely, of which 8 columns are reached
        channel = depolarizing_channel(0.1)
        _, columns, kept = _dense_channel_code_maps(channel, self.mu_a, 0.5,
                                                    a=4, n=5)
        assert columns.shape == (16, 208, 208) and kept.sum() == 8
        tracemalloc.start()
        try:
            ea_channel_code(channel, self.mu_a, 0, 0.05, 0.5, 0.5, a=4, n=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < columns.nbytes

    def test_peak_memory_below_one_unsplit_stack(self, solves):
        # gamma = 2/3, rate 1: solved in one stack, the 54 blocks of 168
        # would take 23.3 MiB per complex array, and the S^{-1/2} form held
        # several such arrays (a 150 MiB peak); cut into stacks of at most
        # n_members dim^2 entries, the call holds less than one of them
        psi_a = _seeded_input((0.7, 0.3), 3)

        def call():
            ea_channel_code(identity_channel(2), psi_a, 1, 0.05,
                            Fraction(2, 3), 0.5, a=4, n=5, enforce_cap=False)

        call()
        shapes, _ = solves
        largest = max(size for _, size, _ in shapes)
        unsplit = sum(count for count, size, _ in shapes if size == largest) \
            * largest * largest * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < unsplit

    @pytest.mark.parametrize("psi_a, gamma, a, n", [
        (_seeded_input((0.7, 0.3), 1), Fraction(2, 3), 2, 4),
        (_nonuniform_input(), 0.5, 4, 8)])
    def test_rate_zero_blocks_are_small(self, solves, psi_a, gamma, a, n):
        ea_channel_code(identity_channel(2), psi_a, 0, 0.05, gamma, 0.5,
                        a=a, n=n)
        shapes, _ = solves
        assert shapes and max(shape[-1] for shape in shapes) <= 4

    def test_rate_two_blocks_are_small_and_solved_once_per_family(
            self, solves):
        # the benchmark's rate-2 identity code: 4 messages over GF(16), all
        # 256 distinct branches in one chunk, one stacked eigensolve per
        # block size (the blocks that the messages' columns touch)
        ea_channel_code(identity_channel(2), self.mu_a, 2, 0.05, 0.5, 0.5,
                        a=4, n=5, enforce_cap=False)
        images = pairwise_family(16).images(range(4)).reshape(-1, 4)
        assert len(set(map(tuple, images.tolist()))) == 256
        shapes, chunks = solves
        assert chunks == [256]
        sizes = [shape[-1] for shape in shapes]
        assert sizes and len(sizes) == len(set(sizes))
        assert max(sizes) <= 4

    def test_rate_two_labels_only_the_touched_blocks(self, monkeypatch):
        # the benchmark's rate-2 identity code (its _CODE_ARGS): the 256
        # branches hold 13,312 blocks on 53,248 rows, of which the
        # messages' columns touch 512 blocks of 4.  After the members' own
        # patterns (16 x 208 nodes), the branch join labels only those
        # 2,048 rows.
        labelled = []

        def recording(rows, cols, n):
            labelled.append(n)
            return _components(rows, cols, n)

        monkeypatch.setattr(coding, "_components", recording)
        ea_channel_code(identity_channel(2), self.mu_a, 2, 0.05, 0.5, 0.5,
                        a=4, n=5, enforce_cap=False)
        assert labelled[0] == 16 * 208 and labelled[1:] == [2048]


class TestConverseFloor:
    """No entanglement-assisted code of M messages through d_B outputs has
    a mean success above d_B^2 / M, so `ea_channel_code` refuses errors
    outside [0, 1] or with a mean below 1 - d_B^2 / M.  At gamma = 1/2 and
    |A| = 2 the family has 16 members, so rates 3 and 4 (floors 1/2 and
    3/4) can be run with the cap off."""

    CHANNELS = (identity_channel(2), depolarizing_channel(0.1),
                amplitude_damping_channel(0.3))

    @staticmethod
    def run(channel, p, seed, rate):
        rep = ea_channel_code(channel, _seeded_input((p, 1 - p), seed), rate,
                              0.05, 0.5, 0.5, a=4, n=5, enforce_cap=False)
        assert 1 - 4 / 2 ** rate <= rep.empirical_max_error <= 1

    # spectra (p, 1 - p) that round to counts (2, 2) or (0, 4) on the 1/4
    # grid; at counts (1, 3) the members' blocks are large and a call takes
    # 5-9 s, so that range runs as the one case below
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           p=st.floats(0.5, 0.6) | st.floats(0.81, 1.0),
           channel=st.sampled_from(CHANNELS), rate=st.sampled_from([3, 4]))
    @example(seed=0, p=0.5, channel=CHANNELS[0], rate=3)
    def test_errors_lie_above_the_floor(self, seed, p, channel, rate):
        # p = 0.5 is mu_A, where the floor is nearest (0.67 against 0.5)
        self.run(channel, p, seed, rate)

    def test_floor_at_counts_one_and_three(self):
        self.run(identity_channel(2), 0.7, 3, 3)

    @pytest.mark.parametrize("scale, rate, match", [
        pytest.param(lambda s: (s > 0).astype(float), 3, "converse floor",
                     id="unscaled"),
        pytest.param(lambda s: 1.5 * s, 0, "outside", id="over-scaled")])
    def test_a_wrong_measurement_is_refused(self, monkeypatch, scale, rate,
                                            match):
        # S^{-1/2} dropped reports more success than the floor allows, and
        # 1.5 S^{-1/2} a success above 1 at rate 0
        inv_sqrt = coding._eig_inv_sqrt

        def mutant(total):
            vecs, s = inv_sqrt(total)
            return vecs, scale(s)

        monkeypatch.setattr(coding, "_eig_inv_sqrt", mutant)
        with pytest.raises(AssertionError, match=match):
            ea_channel_code(identity_channel(2),
                            maximally_mixed(sysof(("A", 2))), rate, 0.05,
                            0.5, 0.5, a=4, n=5, enforce_cap=False)


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


def _read_members(test, maps):
    """Each member M_m (A (x) I_f) M_m^dag of the pair ``test`` = (A, f)
    and the `Monomial` family ``maps``, gathered in full."""
    return [maps[m].conjugate(
        lambda rows, cols: kron_eye_entries(*test, rows, cols))
        for m in range(len(maps.src))]


class TestProtocolsPassTheirOwnTest:
    """Every protocol hands `_successes` its own Neyman-Pearson test Omega,
    rotated on C where the protocol runs in a rotated basis, with the
    identity factors as f, and its coordinate changes composed into the
    member maps.  Each member reads the same values as the former lifted
    test (the oracles of `tests/oracles.py`) read through the former maps."""

    @staticmethod
    def spied(call):
        with mock.patch.object(coding, "_successes", wraps=_successes) as spy:
            call()
        (test, maps, *_), _ = spy.call_args
        return test, maps

    def check(self, test, maps, omega, f, former_test, former_maps):
        assert np.array_equal(test[0], omega) and test[1] == f
        for got, want in zip(_read_members(test, maps),
                             _read_members(former_test, former_maps)):
            assert (got == want).all()

    @pytest.mark.parametrize("c_dim, prime, subset", [(2, 5, [0, 1]),
                                                      (3, 11, [0, 2, 5])])
    def test_classical_decoder(self, c_dim, prime, subset):
        rng = np.random.default_rng(c_dim)
        u_b, _ = np.linalg.qr(rng.standard_normal((c_dim, c_dim))
                              + 1j * rng.standard_normal((c_dim, c_dim)))
        phi = maximally_entangled("B", "C", c_dim)
        psi = PureState(phi.system, np.kron(u_b, np.eye(c_dim)) @ phi.vector)
        reg = PrimeRegister(c_dim, prime)
        test, maps = self.spied(lambda: position_based_decode_classical(
            psi, reg, subset, 0.005, 0.15))
        ens, psi_b = _classical_ensemble(psi, reg)
        omega, _ = neyman_pearson_operator(
            psi, tensor(psi_b, maximally_mixed(sysof(("C", c_dim)))), 0.005)
        host, d_b = 2 * c_dim * c_dim * prime, c_dim
        first = (np.arange(d_b)[:, None] * host
                 + np.arange(prime * prime)).ravel()
        self.check(test, maps, omega, 2 * c_dim * prime,
                   (lifted_classical_test(omega, d_b, c_dim, prime), 1),
                   ens.source(subset).embed(first, d_b * host))

    def test_flat_decoder(self):
        # the benchmark's case: trivial B, a seeded mixed state on C
        psi = DensityOperator(sysof(("B", 1), ("C", 2)),
                              _seeded_input((0.7, 0.3), 9).matrix)
        mu_c = maximally_mixed(sysof(("C", 2)))
        test, maps = self.spied(lambda: position_based_decode_flat(
            psi, mu_c, Fraction(2, 3), [0], 0.01, 0.2, a=2, n=3, d_size=8))
        flat = round_spectrum(mu_c, Fraction(2, 3), "down")
        ens = _flat_ensemble(psi, flat, 2, 3, 9)
        omega, _ = neyman_pearson_operator(
            psi, tensor(partial_trace(psi, ["C"]), mu_c), 0.01)
        self.check(test, maps,
                   act(omega, flat.basis.conj().T, psi.system.dims, [1]),
                   flat.e_dim * 9 * 2 * ens.s_dim * ens.f_prime,
                   lifted_flat_test(ens, flat, omega, psi.system.dims),
                   ens.source([0]))

    @pytest.mark.parametrize("channel, rate", [(identity_channel(2), 2),
                                               (depolarizing_channel(0.1), 0)])
    def test_channel_code(self, channel, rate):
        # the benchmark's codes on mu_A
        mu_a = maximally_mixed(sysof(("A", 2)))
        test, maps = self.spied(lambda: ea_channel_code(
            channel, mu_a, rate, 0.05, 0.5, 0.5, a=4, n=5, enforce_cap=False))
        flat = round_spectrum(mu_a, 0.5, "down")
        m_big, e_dim = flat.grid_total, flat.e_dim
        d_dim = 5 * (m_big + 1) + 1
        omega, _ = coding._channel_test(channel, mu_a, 0.05)
        v = _hw_gather(*np.divmod(np.arange(m_big * m_big), m_big),
                       m_big).embed(flat.support_index(), 2 * e_dim)
        self.check(test, maps, act(omega, flat.basis.T, (2, 2), [1]),
                   e_dim * d_dim, (moved_channel_test(omega, flat, d_dim), 1),
                   v.lift((2, 2, e_dim, d_dim), [1, 2]))


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
        joint = tensor(phi_rc, ab)
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
