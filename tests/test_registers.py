import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oneshot_qit.coding import (apply_channel, depolarizing_channel,
                                ea_channel_code, identity_channel,
                                position_based_decode_classical,
                                position_based_decode_flat,
                                redistribution_bounds)
from oneshot_qit.convexsplit import (PrimeRegister, convex_split_1design,
                                     convex_split_classical)
from oneshot_qit.entropy import dh_eps, dmax, hmin, imax, relative_entropy
from oneshot_qit.registers import (Check, DensityOperator, Monomial, PureState,
                                   RegisterSystem, _block_eigvalsh,
                                   _pattern_blocks, act, apply_unitary,
                                   basis_state, canonical_purification,
                                   dump_matrix, fidelity,
                                   kron_eye_entries, kron_eye_nonzeros,
                                   maximally_entangled,
                                   maximally_mixed, partial_trace,
                                   permute_registers, purified_distance,
                                   random_density, tensor)
from oracles import dense_matrix, plain_random_density, random_pure


def sysof(*pairs):
    return RegisterSystem(list(pairs))


class TestCheck:
    """The one pass/fail rule: each sense's own float expression."""

    @settings(max_examples=200, deadline=None)
    @given(achieved=st.floats(-2.0, 2.0), limit=st.floats(-2.0, 2.0),
           slack=st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 0.3]))
    def test_holds_is_the_sites_expression(self, achieved, limit, slack):
        assert Check("c", achieved, limit, "<=", slack).holds \
            == (achieved <= limit + slack)
        assert Check("c", achieved, limit, ">=", slack).holds \
            == (achieved >= limit - slack)
        assert Check("c", achieved, limit, "==", slack).holds \
            == (abs(achieved - limit) <= slack)

    def test_margin_is_the_distance_inside_the_limit(self):
        assert Check("c", 0.25, 1.0, "<=").margin == 0.75
        assert Check("c", 0.25, 1.0, ">=").margin == -0.75
        assert Check("c", 1.25, 1.0, "==").margin == -0.25
        assert str(Check("c", 1.0, 1.0, "==").margin) == "0.0"

    @pytest.mark.parametrize("sense", ["<=", ">=", "=="])
    def test_nan_never_holds(self, sense):
        for achieved, limit in ((float("nan"), 0.0), (0.0, float("nan"))):
            assert not Check("nan", achieved, limit, sense, 1.0).holds

    def test_require_names_achieved_limit_and_margin(self):
        Check("fine", 0.5, 1.0).require()
        with pytest.raises(AssertionError, match=r"^converse floor failed: "
                           r"achieved 0\.25 outside >= 0\.75 \(margin -0\.5\)$"):
            Check("converse floor", 0.25, 0.75, ">=", 1e-9).require()


class TestRegisterSystem:
    def test_total_dim(self):
        s = sysof(("A", 2), ("B", 3), ("C", 5))
        assert s.total_dim == 30
        assert s.dims == (2, 3, 5)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            sysof(("A", 2), ("A", 3))

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            sysof(("A", 0))


class TestInvariantsOnRandomStates:
    def test_generated_states_are_states(self):
        for seed in range(30):
            s = sysof(("A", 4))
            rho = random_density(seed, s, rank=1 + seed % 4)
            assert abs(rho.trace() - 1.0) <= 1e-9
            assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) <= 1e-9
            assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-9

    def test_determinism(self):
        s = sysof(("A", 3))
        a = random_density(42, s)
        b = random_density(42, s)
        assert np.array_equal(a.matrix, b.matrix)
        pa, pb = random_pure(42, s), random_pure(42, s)
        assert np.array_equal(pa.vector, pb.vector)

    def test_rank_one_purity(self):
        rho = random_density(7, sysof(("A", 5)), rank=1)
        assert abs(rho.purity() - 1.0) <= 1e-9

    @pytest.mark.parametrize("d,rank", [(6, 6), (6, 1), (64, 64), (64, 1)])
    def test_purity_matches_product_trace(self, d, rank):
        rho = random_density(d + rank, sysof(("A", d)), rank=rank)
        want = float(np.real(np.trace(rho.matrix @ rho.matrix)))
        assert abs(rho.purity() - want) <= 1e-12

    @pytest.mark.parametrize("d", [1, 5, 32])
    def test_purity_of_unchecked_non_hermitian_matrix(self, d):
        # Tr(M M) holds for any square M, not only Hermitian ones
        rng = np.random.default_rng(d)
        mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        op = DensityOperator(sysof(("A", d)), mat / d, validate=False)
        want = float(np.real(np.trace(op.matrix @ op.matrix)))
        assert abs(op.purity() - want) <= 1e-12

    def test_full_rank_positive(self):
        rho = random_density(3, sysof(("A", 6)), rank=6)
        assert np.linalg.eigvalsh(rho.matrix)[0] > 0

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            random_density(0, sysof(("A", 2)), rank=5)

    # odd, even and prime dimensions; at 3 and 65, among others, a
    # Hermitian rank-k product would give other bits than the general one
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 9, 16, 17, 64, 65, 127,
                                   256, 509, 512])
    def test_bit_identical_to_the_plain_expression(self, d):
        system = sysof(("A", d))
        for rank in sorted({1, -(-d // 3), d}):
            for seed in (d, (d, rank, 1)):
                got = random_density(seed, system, rank=rank).matrix
                want = plain_random_density(seed, d, rank)
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64)), (rank, seed)
                assert np.array_equal(got, got.conj().T)


class TestTensorAndPartialTrace:
    def test_mixed_factorizes(self):
        mu2 = maximally_mixed(sysof(("A", 2)))
        mu2b = maximally_mixed(sysof(("B", 2)))
        prod = tensor(mu2, mu2b)
        assert np.allclose(prod.matrix, np.eye(4) / 4)

    def test_computational_basis(self):
        k0 = basis_state(sysof(("A", 2)), 0)
        k1 = basis_state(sysof(("B", 2)), 1)
        prod = tensor(k0, k1)
        expect = np.zeros((4, 4))
        expect[1, 1] = 1.0
        assert np.allclose(prod.matrix, expect)

    def test_trace_multiplies(self):
        rho = random_density(1, sysof(("A", 3)))
        sig = random_density(2, sysof(("B", 2)))
        prod = tensor(rho, sig)
        assert abs(prod.trace() - rho.trace() * sig.trace()) <= 1e-9

    def test_label_collision(self):
        rho = random_density(1, sysof(("A", 2)))
        with pytest.raises(ValueError):
            tensor(rho, rho)

    def test_marginal_of_maximally_entangled(self):
        phi = maximally_entangled("R", "C", 2)
        mu = partial_trace(phi, ["C"])
        assert np.allclose(mu.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_recovery_exact(self):
        for seed in range(10):
            rho = random_density(seed, sysof(("A", 3)))
            sig = random_density(seed + 100, sysof(("B", 4)))
            prod = tensor(rho, sig)
            back = partial_trace(prod, ["B"])
            assert np.linalg.norm(back.matrix - rho.matrix) <= 1e-12
            back_b = partial_trace(prod, ["A"])
            assert np.linalg.norm(back_b.matrix - sig.matrix) <= 1e-12

    def test_full_trace_scalar(self):
        rho = random_density(5, sysof(("A", 2), ("B", 2)))
        scal = partial_trace(rho, ["A", "B"])
        assert scal.matrix.shape == (1, 1)
        assert abs(scal.matrix[0, 0] - 1.0) <= 1e-9

    def test_unknown_label(self):
        rho = random_density(5, sysof(("A", 2)))
        with pytest.raises(KeyError):
            partial_trace(rho, ["Z"])


class TestPermute:
    def test_swap_layout(self):
        rho = random_density(1, sysof(("A", 2)))
        sig = random_density(2, sysof(("B", 3)))
        ab = tensor(rho, sig)
        ba = permute_registers(ab, ["B", "A"])
        assert ba.system.labels == ("B", "A")
        assert np.allclose(ba.matrix, tensor(sig, rho).matrix)

    def test_identity_order_bit_identical(self):
        rho = random_density(3, sysof(("A", 2), ("B", 2)))
        same = permute_registers(rho, ["A", "B"])
        assert np.array_equal(same.matrix, rho.matrix)

    def test_involution(self):
        rho = random_density(4, sysof(("A", 2), ("B", 3), ("C", 2)))
        back = permute_registers(permute_registers(rho, ["C", "A", "B"]),
                                 ["A", "B", "C"])
        assert np.array_equal(back.matrix, rho.matrix)

    def test_not_permutation(self):
        rho = random_density(4, sysof(("A", 2), ("B", 2)))
        with pytest.raises(ValueError):
            permute_registers(rho, ["A", "A"])


class TestEig:
    """The memoised eigensystem that every reader of a state takes."""

    def test_diagonal(self):
        rho = DensityOperator(sysof(("A", 2)), np.diag([0.25, 0.75]))
        vals, _ = rho._eigh()
        assert np.allclose(vals, [0.25, 0.75])

    def test_maximally_mixed(self):
        vals, _ = maximally_mixed(sysof(("A", 4)))._eigh()
        assert np.allclose(vals, 0.25)

    def test_reconstruction(self):
        rho = random_density(9, sysof(("A", 6)))
        vals, vecs = rho._eigh()
        recon = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(recon - rho.matrix) <= 1e-8
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


class TestReadOnlyState:
    def test_matrix_is_read_only(self):
        rho = random_density(0, sysof(("A", 4)))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0
        with pytest.raises(ValueError):
            rho.matrix += 0

    def test_memoised_eigensystem_is_read_only(self):
        rho = random_density(1, sysof(("A", 4)))
        vals, vecs = rho._eigh()
        for arr in (vals, vecs):
            with pytest.raises(ValueError):
                arr[0] = 0
        memo = rho._eigh()
        assert memo[0] is vals and memo[1] is vecs


def _rotated_phi(x, y, seed):
    """The maximally entangled two-qubit state in a seeded local basis on
    ``x``: dense, and of full Schmidt rank."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)))
    phi = maximally_entangled(x, y, 2)
    return PureState(phi.system, np.kron(u, np.eye(2)) @ phi.vector)


def _rc():
    return _rotated_phi("R", "C", 3)


def _mixed_like(state):
    return random_density(7, state.system)


# every entry point that takes a state: (the pure state, the call)
STATE_ENTRY_POINTS = {
    "partial_trace": (_rc, lambda s: partial_trace(s, ["C"])),
    "permute_registers": (_rc, lambda s: permute_registers(s, ["C", "R"])),
    "apply_unitary": (_rc, lambda s: apply_unitary(
        s, np.array([[1, 1], [1, -1]]) / np.sqrt(2), ["C"])),
    "tensor": (_rc, lambda s: tensor(maximally_mixed(sysof(("Q", 2))), s)),
    "fidelity": (_rc, lambda s: fidelity(s, _mixed_like(s))),
    "canonical_purification": (lambda: random_pure(5, sysof(("A", 3))),
                               lambda s: canonical_purification(s, "M")),
    "relative_entropy": (_rc, lambda s: relative_entropy(s, _mixed_like(s))),
    "dmax": (_rc, lambda s: dmax(s, _mixed_like(s))),
    "dh_eps": (_rc, lambda s: dh_eps(s, _mixed_like(s), 0.1)),
    "hmin": (_rc, lambda s: hmin(s, (["R"], ["C"]))),
    "imax": (_rc, lambda s: imax(s, (["R"], ["C"]))),
    "apply_channel": (_rc, lambda s: apply_channel(depolarizing_channel(0.1),
                                                   s, ["C"])),
    "convex_split_1design": (_rc, lambda s: convex_split_1design(s, 2)),
    "convex_split_classical": (_rc, lambda s: convex_split_classical(
        s, range(2), prime=5)),
    "position_based_decode_classical": (
        lambda: _rotated_phi("B", "C", 3),
        lambda s: position_based_decode_classical(
            s, PrimeRegister(2, 5), range(2), 0.005, 0.15)),
    "position_based_decode_flat": (
        lambda: _rotated_phi("B", "C", 3),
        lambda s: position_based_decode_flat(
            s, maximally_mixed(sysof(("C", 2))), Fraction(2, 3), [0], 0.01,
            0.1, a=2, n=3, d_size=8)),
    "ea_channel_code": (
        lambda: random_pure(5, sysof(("A", 2))),
        lambda s: ea_channel_code(depolarizing_channel(0.1), s, 0, 0.05, 0.5,
                                  0.5, a=4, n=5)),
    "redistribution_bounds": (
        lambda: PureState(sysof(("R", 2), ("C", 2), ("A", 2), ("B", 2)),
                          np.kron(_rc().vector, random_pure(5, sysof(
                              ("A", 2), ("B", 2))).vector)),
        lambda s: redistribution_bounds(s, ["R"], ["A"], ["B"], ["C"],
                                        eps=0.1, delta=0.1)),
}


def _shown(result):
    """repr of a result; a state's carries its matrix in full."""
    if isinstance(result, DensityOperator):
        return repr((result, result.matrix.tolist()))
    return repr(result)


class TestPureState:
    @pytest.mark.parametrize("entry", sorted(STATE_ENTRY_POINTS))
    def test_same_result_as_its_density_operator(self, entry):
        make, call = STATE_ENTRY_POINTS[entry]
        pure = make()
        mixed = DensityOperator(pure.system, pure.matrix)
        assert _shown(call(pure)) == _shown(call(mixed))

    def test_building_one_solves_no_eigensystem(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve while building a pure state")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        psi = PureState(sysof(("A", 4), ("B", 4)), np.full(16, 0.25))
        assert isinstance(psi, DensityOperator) and psi._eig is None
        assert np.array_equal(psi.matrix, np.full((16, 16), 1 / 16))

    def test_vector_and_matrix_are_read_only(self):
        # the vector passed in is frozen, not copied, as a matrix is
        vec = np.full(4, 0.5, dtype=complex)
        psi = PureState(sysof(("A", 2), ("B", 2)), vec)
        for arr in (psi.vector, psi.matrix, vec):
            with pytest.raises(ValueError):
                arr[0] = 0
        with pytest.raises(ValueError):
            psi.vector += 0


class TestFidelity:
    def test_self_fidelity(self):
        rho = random_density(11, sysof(("A", 3)))
        assert abs(fidelity(rho, rho) - 1.0) <= 1e-9

    def test_pure_overlap(self):
        s = sysof(("A", 2))
        k0 = basis_state(s, 0)
        plus = PureState(s, np.array([1, 1]) / np.sqrt(2))
        assert abs(fidelity(k0, plus) - 1 / np.sqrt(2)) <= 1e-9

    def test_commuting_closed_form(self):
        s = sysof(("A", 2))
        a = DensityOperator(s, np.diag([0.5, 0.5]))
        b = DensityOperator(s, np.diag([0.9, 0.1]))
        assert abs(fidelity(a, b) - (np.sqrt(0.45) + np.sqrt(0.05))) <= 1e-9

    def test_symmetry(self):
        for seed in range(10):
            a = random_density(seed, sysof(("A", 4)))
            b = random_density(seed + 50, sysof(("A", 4)))
            assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-8

    def test_monotone_under_partial_trace(self):
        # data processing: discarding a register cannot decrease fidelity
        for seed in range(100):
            s = sysof(("A", 2), ("B", 2))
            a = random_density(seed, s)
            b = random_density(seed + 1000, s)
            fa = fidelity(partial_trace(a, ["B"]), partial_trace(b, ["B"]))
            assert fa >= fidelity(a, b) - 1e-8

    def test_purified_distance(self):
        s = sysof(("A", 2))
        rho = random_density(1, s)
        assert purified_distance(rho, rho) <= 1e-6
        k0, k1 = basis_state(s, 0), basis_state(s, 1)
        assert abs(purified_distance(k0, k1) - 1.0) <= 1e-9
        a = DensityOperator(s, np.diag([0.5, 0.5]))
        b = DensityOperator(s, np.diag([0.9, 0.1]))
        assert abs(purified_distance(a, b) - np.sqrt(0.2)) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(random_density(0, sysof(("A", 2))),
                     random_density(0, sysof(("B", 3))))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 6),
           kind=st.sampled_from(["full", "rho-deficient", "both-deficient",
                                 "pure"]))
    def test_fuchs_van_de_graaf(self, seed, d, kind):
        # 1 - F <= T <= P with T = ||rho - sigma||_1 / 2; both pure is the
        # case T = P
        ranks = {"full": (d, d), "rho-deficient": (d // 2, d),
                 "both-deficient": (d // 2, d - 1), "pure": (1, 1)}[kind]
        s = sysof(("A", d))
        rho = random_density(seed, s, rank=ranks[0])
        sigma = random_density(seed + 1, s, rank=ranks[1])
        trace_dist = 0.5 * float(np.sum(np.abs(
            np.linalg.eigvalsh(rho.matrix - sigma.matrix))))
        assert 1.0 - fidelity(rho, sigma) <= trace_dist + 1e-9
        assert trace_dist <= purified_distance(rho, sigma) + 1e-9


class TestCanonicalPurification:
    def test_maximally_mixed_gives_maximally_entangled(self):
        psi = canonical_purification(maximally_mixed(sysof(("A", 2))), "M")
        expect = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.allclose(psi.vector, expect)

    def test_pure_input(self):
        psi = canonical_purification(basis_state(sysof(("A", 2)), 0), "M")
        expect = np.zeros(4)
        expect[0] = 1.0
        assert np.allclose(psi.vector, expect)

    def test_marginal_recovery(self):
        s = sysof(("A", 2))
        rho = DensityOperator(s, np.diag([0.75, 0.25]))
        psi = canonical_purification(rho, "M")
        assert np.allclose(psi.vector, [np.sqrt(0.75), 0, 0, np.sqrt(0.25)])
        back = partial_trace(psi, ["M"])
        assert np.linalg.norm(back.matrix - rho.matrix) <= 1e-9
        for seed in range(10):
            rho = random_density(seed, sysof(("A", 4)))
            back = partial_trace(canonical_purification(rho, "M"), ["M"])
            assert np.linalg.norm(back.matrix - rho.matrix) <= 1e-9

    def test_mirror_label_must_differ(self):
        with pytest.raises(ValueError, match="duplicate register labels"):
            canonical_purification(maximally_mixed(sysof(("A", 2))), "A")


class TestApplyUnitary:
    def test_middle_register(self):
        rho = random_density(2, sysof(("A", 2), ("B", 3), ("C", 2)))
        rng = np.random.default_rng(0)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        out = apply_unitary(rho, u, ["B"])
        full = np.kron(np.kron(np.eye(2), u), np.eye(2))
        assert np.allclose(out.matrix, full @ rho.matrix @ full.conj().T)
        assert out.system.labels == rho.system.labels

    def test_label_checks(self):
        rho = random_density(2, sysof(("A", 2), ("B", 3)))
        with pytest.raises(ValueError):
            apply_unitary(rho, np.eye(4), ["A", "A"])
        with pytest.raises(ValueError):
            apply_unitary(rho, np.eye(2), ["Z"])
        with pytest.raises(ValueError):
            apply_unitary(rho, np.eye(2), ["B"])


def _kron_conjugation(mat, op, dims, axes):
    """Oracle: move ``axes`` to the front, pad op with an identity, move back."""
    n = len(dims)
    order = list(axes) + [k for k in range(n) if k not in axes]
    back = list(np.argsort(order))
    d = mat.shape[0]
    moved = mat.reshape(dims + dims).transpose(order + [k + n for k in order])
    full = np.kron(op, np.eye(d // op.shape[0]))
    out = (full @ moved.reshape(d, d) @ full.conj().T).reshape(
        tuple(dims[k] for k in order) * 2)
    return out.transpose(back + [k + n for k in back]).reshape(d, d)


def _dense_permutation(img):
    mat = np.zeros((len(img), len(img)))
    mat[img, np.arange(len(img))] = 1.0
    return mat


class TestAct:
    dims = (2, 3, 2, 2)

    def _random_op(self, seed, dim):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    @pytest.mark.parametrize("axes", [[1], [0, 2], [3, 1], [2, 0, 3]])
    def test_matches_kron_conjugation(self, axes):
        rho = random_density(5, sysof(*zip("ABCD", self.dims))).matrix
        d_act = int(np.prod([self.dims[k] for k in axes]))
        u, _ = np.linalg.qr(self._random_op(1, d_act))
        assert np.allclose(act(rho, u, self.dims, axes),
                           _kron_conjugation(rho, u, self.dims, axes),
                           atol=1e-13)

    def test_non_unitary_kraus_on_subnormalized_state(self):
        system = sysof(*zip("ABCD", self.dims))
        sub = DensityOperator(system, 0.6 * random_density(6, system).matrix,
                              validate=False)
        kraus = 0.5 * self._random_op(2, 6)
        out = act(sub.matrix, kraus, self.dims, [3, 1])
        assert np.allclose(out, _kron_conjugation(sub.matrix, kraus, self.dims,
                                                  [3, 1]), atol=1e-13)
        assert np.allclose(out, out.conj().T)
        assert not np.isclose(np.trace(out).real, 0.6)


def _kron_lift(op, dims, axes):
    """Oracle: ``op`` on the factors ``axes`` of ``dims`` as a dense matrix
    on the whole space: padded with an identity, factors moved back."""
    n = len(dims)
    order = list(axes) + [k for k in range(n) if k not in axes]
    back = list(np.argsort(order))
    d = int(np.prod(dims))
    full = np.kron(op, np.eye(d // op.shape[0])).reshape(
        tuple(dims[k] for k in order) * 2)
    return full.transpose(back + [k + n for k in back]).reshape(d, d)


class TestPermuteBasis:
    """`Monomial.lift` and `conjugate` as a basis permutation or compression
    of named factors, against dense permutation matrices."""

    dims = (2, 3, 2, 2)

    @pytest.mark.parametrize("axes", [[1, 2], [3, 0], [0, 1, 2, 3]])
    def test_matches_dense_permutation(self, axes):
        rho = random_density(7, sysof(*zip("ABCD", self.dims))).matrix
        d_act = int(np.prod([self.dims[k] for k in axes]))
        img = np.random.default_rng(3).permutation(d_act)
        perm = _dense_permutation(img)
        expect = _kron_conjugation(rho, perm, self.dims, axes)
        assert np.array_equal(Monomial(np.argsort(img)).lift(
            self.dims, axes).conjugate(rho), expect)
        back = _kron_conjugation(rho, perm.T, self.dims, axes)
        assert np.array_equal(Monomial(img).lift(self.dims, axes).conjugate(
            rho), back)

    def test_compression_matches_isometry(self):
        rho = random_density(8, sysof(*zip("ABCD", self.dims))).matrix
        keep = np.array([4, 0, 5, 2])           # basis states of (B, C)
        iso = np.zeros((6, len(keep)))
        iso[keep, np.arange(len(keep))] = 1.0
        big = np.kron(np.eye(2), np.kron(iso, np.eye(2)))
        assert np.array_equal(Monomial(keep).lift(self.dims, [1, 2])
                              .conjugate(rho), big.T @ rho @ big)

    def test_compression_needs_adjacent_axes(self):
        with pytest.raises(ValueError):
            Monomial([0, 1]).lift(self.dims, [0, 2])


@st.composite
def _maps(draw, n, family=True):
    """A `Monomial` on n states: one map or (if ``family``) possibly a
    family of 1-2, each a random permutation, with random phases or unit
    ones (None)."""
    shape = (draw(st.integers(1, 2)),) if family and draw(st.booleans()) \
        else ()
    count = int(np.prod(shape))
    src = np.array([draw(st.permutations(range(n))) for _ in range(count)])
    if not draw(st.booleans()):
        return Monomial(src.reshape(shape + (n,)))
    angles = draw(st.lists(st.floats(0, 2 * np.pi), min_size=src.size,
                           max_size=src.size))
    return Monomial(src.reshape(shape + (n,)),
                    np.exp(1j * np.array(angles)).reshape(shape + (n,)))


@st.composite
def _factors_and_axes(draw):
    """1-3 factors of size 1-4 and a nonempty ordered subset of them."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    axes = draw(st.permutations(range(len(dims))))
    return dims, list(axes[:draw(st.integers(1, len(dims)))])


class TestMonomialProperties:
    """Every method of the type against its own dense ``matrix()``."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), case=_factors_and_axes())
    def test_lift_on_any_axes(self, data, case):
        dims, axes = case
        sub = int(np.prod([dims[ax] for ax in axes]))
        m = data.draw(_maps(sub, family=False))
        assert np.array_equal(dense_matrix(m.lift(dims, axes)),
                              _kron_lift(dense_matrix(m), dims, axes))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), case=_factors_and_axes())
    def test_lift_of_a_compression(self, data, case):
        dims, axes = case           # a compression takes adjacent axes
        start = data.draw(st.integers(0, len(dims) - len(axes)))
        axes = list(range(start, start + len(axes)))
        sub = int(np.prod([dims[ax] for ax in axes]))
        keep = np.array(data.draw(st.permutations(range(sub))))
        keep = keep[:data.draw(st.integers(1, sub))]
        m = Monomial(keep, np.exp(1j * np.arange(len(keep))))
        before = int(np.prod(dims[:axes[0]]))
        after = int(np.prod(dims[axes[-1] + 1:]))
        want = np.kron(np.eye(before),
                       np.kron(dense_matrix(m, sub), np.eye(after)))
        assert np.array_equal(dense_matrix(m.lift(dims, axes),
                                           int(np.prod(dims))),
                              want)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_inverse_and_transpose(self, data, n):
        m = data.draw(_maps(n))
        mat = dense_matrix(m)
        assert np.allclose(dense_matrix(m.compose(m.inverse())), np.eye(n),
                           rtol=0, atol=1e-15)
        assert np.allclose(dense_matrix(m.inverse().compose(m)), np.eye(n),
                           rtol=0, atol=1e-15)
        assert np.array_equal(dense_matrix(m.inverse()),
                              mat.conj().swapaxes(-1, -2))
        assert np.array_equal(dense_matrix(m.transpose()), mat.swapaxes(-1, -2))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), size=st.integers(1, 12))
    def test_inverse_of_a_compression_is_its_adjoint(self, data, size):
        keep = np.array(data.draw(st.permutations(range(size))))
        keep = keep[:data.draw(st.integers(1, size))]
        m = Monomial(keep, np.exp(1j * np.arange(len(keep))))
        inv = m.inverse(size)
        assert np.array_equal(dense_matrix(inv, len(keep)),
                              dense_matrix(m, size).conj().T)
        assert np.allclose(dense_matrix(m.compose(inv)), np.eye(len(keep)),
                           rtol=0, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_compose_is_the_matrix_product(self, data, n):
        first, then = data.draw(_maps(n)), data.draw(_maps(n))
        assert np.allclose(dense_matrix(first.compose(then)),
                           dense_matrix(first) @ dense_matrix(then), rtol=0,
                           atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
    def test_conjugate_apply_and_embed(self, data, n, seed):
        m = data.draw(_maps(n))
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mat = dense_matrix(m)
        assert np.allclose(m.conjugate(a), mat @ a @ mat.conj().swapaxes(
            -1, -2), rtol=0, atol=1e-14)
        assert np.allclose(m.apply(a), mat @ a, rtol=0, atol=1e-14)
        size = n + data.draw(st.integers(0, 3))
        index = np.array(data.draw(st.permutations(range(size))))[:n]
        want = np.broadcast_to(np.eye(size, dtype=complex),
                               mat.shape[:-2] + (size, size)).copy()
        want[..., index[:, None], index] = mat
        assert np.array_equal(dense_matrix(m.embed(index, size)), want)


class TestKronEyeEntries:
    @pytest.mark.parametrize("n, f", [(1, 1), (3, 1), (1, 4), (3, 5)])
    def test_nonzeros_through_maps_match_dense(self, n, f):
        # a permutation and a compression onto every other state, with a
        # zero row and column in the factor
        rng = np.random.default_rng(n * 10 + f + 1)
        factor = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        factor[0], factor[:, 0] = 0, 0
        dense = np.kron(factor, np.eye(f))
        size = n * f
        for src in (rng.permutation(size), np.arange(0, size, 2)):
            maps = Monomial(np.stack([src, src[::-1]]))
            i, j, hit = kron_eye_nonzeros(factor, f, maps)
            for k, one in enumerate(maps.src):
                want = dense[np.ix_(one, one)] != 0
                got = np.zeros_like(want)
                got[i[k][hit[k]], j[k][hit[k]]] = True
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, f", [(1, 1), (3, 1), (1, 4), (3, 5)])
    def test_matches_dense_kron(self, n, f):
        rng = np.random.default_rng(n * 10 + f)
        factor = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dense = np.kron(factor, np.eye(f))
        idx = rng.permutation(n * f)
        assert np.array_equal(kron_eye_entries(factor, f, idx[:, None],
                                               idx[None, :]),
                              dense[np.ix_(idx, idx)])


def _hidden_blocks(rng, blocks):
    """A Hermitian matrix, block-diagonal on ``blocks`` ((size, zero) pairs:
    a random complex block, or an all-zero one), under a random permutation
    of the basis; with the sorted component sizes of its exact pattern."""
    n = sum(size for size, _ in blocks)
    mat = np.zeros((n, n), dtype=complex)
    sizes, at = [], 0
    for size, zero in blocks:
        if not zero:
            g = rng.standard_normal((size, size)) \
                + 1j * rng.standard_normal((size, size))
            mat[at:at + size, at:at + size] = g + g.conj().T
        sizes += [1] * size if zero else [size]
        at += size
    perm = rng.permutation(n)
    return mat[np.ix_(perm, perm)], sorted(sizes)


class TestBlockEigvalsh:
    """`_block_eigvalsh` against one dense eigvalsh of the whole matrix."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           blocks=st.lists(st.tuples(st.integers(1, 6), st.booleans()),
                           min_size=1, max_size=6))
    @example(seed=0, blocks=[(9, False)])             # one component
    @example(seed=1, blocks=[(1, False)] * 7)         # all 1 x 1
    @example(seed=2, blocks=[(3, False), (4, True), (2, False)])  # a zero block
    @example(seed=3, blocks=[(5, True)])              # all zero
    def test_matches_dense(self, seed, blocks):
        rng = np.random.default_rng(seed)
        mat, sizes = _hidden_blocks(rng, blocks)
        other, _ = _hidden_blocks(rng, blocks)
        found = _pattern_blocks(mat)
        assert sorted(group.shape[1] for group in found for _ in group) == sizes
        tol = 1e-12 * np.linalg.norm(mat, 2)
        assert np.max(np.abs(np.sort(_block_eigvalsh(mat))
                             - np.linalg.eigvalsh(mat))) <= tol
        # a stack of two, each solved on the union of both patterns
        stack = np.stack([mat, other])
        tol = 1e-12 * max(np.linalg.norm(m, 2) for m in stack)
        assert np.max(np.abs(np.sort(_block_eigvalsh(stack), axis=-1)
                             - np.linalg.eigvalsh(stack))) <= tol
        # read through a gather function: the same blocks, the same bits
        for arr in (mat, stack):
            blocks = _pattern_blocks(arr)
            read = _block_eigvalsh(lambda rows, cols: arr[..., rows, cols],
                                   blocks)
            assert read.tobytes() == np.concatenate([np.linalg.eigvalsh(
                arr[..., idx[:, :, None], idx[:, None, :]]).reshape(
                    arr.shape[:-2] + (-1,)) for idx in blocks], -1).tobytes()


class TestDump:
    def test_full_precision_roundtrip(self):
        rho = random_density(13, sysof(("A", 3)))
        buf = io.StringIO()
        dump_matrix(rho, buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 3
        parsed = np.array([[complex(float(re), float(im))
                            for re, im in zip(row.split()[0::2], row.split()[1::2])]
                           for row in lines])
        assert np.array_equal(parsed, rho.matrix)
