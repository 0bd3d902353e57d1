"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from oneshot_qit import circuits, cli, coding, convexsplit, entropy, flatten
from oneshot_qit.registers import (DensityOperator, RegisterSystem,
                                   canonical_purification,
                                   fidelity, maximally_entangled,
                                   maximally_mixed, partial_trace,
                                   purified_distance, random_density,
                                   sqrtm_psd, tensor)


def sysof(*pairs):
    return RegisterSystem(list(pairs))


def announce(number, name, started):
    print(f"ACCEPTANCE {number:02d} [{name}]: PASS "
          f"({time.monotonic() - started:.1f}s)")


def test_criterion_01_one_design_decoupling():
    started = time.monotonic()
    for d in (2, 3, 4, 5):
        for seed in range(20):
            rho = random_density((d, seed), sysof(("R", 2), ("C", d)))
            avg = convexsplit.one_design_average(rho, "C")
            target = tensor(partial_trace(rho, ["C"]),
                            maximally_mixed(sysof(("C", d))))
            assert np.linalg.norm(avg.matrix - target.matrix) <= 1e-10
    assert time.monotonic() - started < 5.0
    announce(1, "1-design decoupling", started)


def test_criterion_02_pairwise_selected_split():
    started = time.monotonic()
    for dim_c in (2, 4):
        ladder = [2 ** t for t in range(2 * int(np.log2(dim_c)) + 1)]
        assert ladder[-1] == dim_c * dim_c
        for seed in range(25):
            psi = random_density((dim_c, seed), sysof(("R", 2), ("C", dim_c)))
            values = []
            for n_mixed in ladder:
                rep = convexsplit.convex_split_1design(psi, n_mixed,
                                                       seed=seed)
                bound = np.log2(1 + (2 ** rep.k - 1) / n_mixed)
                assert rep.achieved_rel_entropy <= bound + 1e-7
                values.append(rep.achieved_rel_entropy)
            for lo, hi in zip(values[1:], values):
                assert lo <= hi + 1e-9   # non-increasing along the ladder
    assert time.monotonic() - started < 60.0
    announce(2, "pairwise-selected 1-design split", started)


def test_criterion_03_classical_decoupling():
    started = time.monotonic()
    for dim_c, prime in ((2, 5), (2, 7), (3, 11)):
        reg = convexsplit.PrimeRegister(dim_c, prime)
        # group law, exhaustively
        tables = {m: convexsplit.u_ell(m, reg) for m in range(prime)}
        for ell in range(prime):
            for m in range(prime):
                assert convexsplit.compose_u(tables[ell], tables[m]) \
                    == tables[(m + ell) % prime]
        # marginal flattening lemma, exhaustively over m >= 1
        probe = random_density((prime, 0), sysof(("R", 2), ("C", dim_c)))
        for m in range(1, prime):
            assert convexsplit.classical_marginal_check(probe, reg, m) <= 1e-10
        # split bound and fidelity floor on seeded states
        for seed in range(25):
            psi = random_density((dim_c, prime, seed),
                                 sysof(("R", 2), ("C", dim_c)))
            for n_mixed in (1, 2, prime):
                rep = convexsplit.convex_split_classical(psi, range(n_mixed),
                                                         prime=prime)
                denom = 1 + (2 ** (rep.k + 1) - 1) / n_mixed
                assert rep.achieved_rel_entropy <= np.log2(denom) + 1e-7
                assert rep.achieved_fidelity ** 2 >= 1 / denom - 1e-7
    assert time.monotonic() - started < 120.0
    announce(3, "classical-unitary decoupling", started)


def test_criterion_04_circuit_equivalence():
    started = time.monotonic()
    for dim_c, prime in ((2, 5), (2, 7), (3, 11)):
        circ = circuits.synth_decoupler(dim_c, prime, prime)
        n = max(1, (prime - 1).bit_length())
        reg = convexsplit.PrimeRegister(dim_c, prime)
        tables = {ell: convexsplit.u_ell(ell, reg) for ell in range(prime)}
        inputs, keys = [], []
        for ell in range(prime):
            for i in range(prime):
                for j in range(prime):
                    inputs.append(circuits.encode_decoupler_input(
                        n, n, i, j, ell, circ.wire_count))
                    keys.append((i, j, ell))
        outs = circuits.simulate_table(circ, np.array(inputs))
        for row, (i, j, ell) in zip(outs, keys):
            i_out = sum(int(row[k]) << k for k in range(n))
            j_out = sum(int(row[n + k]) << k for k in range(n))
            l_out = sum(int(row[2 * n + k]) << k for k in range(n))
            assert (i_out, j_out) == tables[ell][(i, j)]
            assert l_out == ell
            assert not row[3 * n:].any()     # ancillas restored
    swap = circuits.metrics(circuits.synth_swap())
    assert swap.size == 3 and swap.depth == 3
    assert time.monotonic() - started < 60.0
    announce(4, "reversible circuit equivalence", started)


def test_criterion_05_entropy_oracles():
    started = time.monotonic()
    # hypothesis-testing divergence vs the exhaustive LP vertex oracle
    from test_entropy import classical_np_lp
    rng = np.random.default_rng(20240901)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        eps = float(rng.uniform(0.0, 0.9))
        got = entropy.dh_eps(
            DensityOperator(sysof(("A", d)), np.diag(p)),
            DensityOperator(sysof(("A", d)), np.diag(q)), eps)
        assert abs(2.0 ** (-got.value) - classical_np_lp(p, q, eps)) <= 1e-8
    # min-entropy SDP vs the product closed form
    for seed in range(20):
        rho_a = random_density(seed, sysof(("A", 3)))
        sig_b = random_density(seed + 300, sysof(("B", 3)))
        val = entropy.hmin(tensor(rho_a, sig_b), (["A"], ["B"]))
        expect = -np.log2(np.linalg.eigvalsh(rho_a.matrix)[-1])
        assert abs(val.value - expect) <= 1e-5
    for d in (2, 3):
        phi = maximally_entangled("A", "B", d)
        val = entropy.hmin(phi, (["A"], ["B"]))
        assert abs(val.value + np.log2(d)) <= 1e-5
    assert time.monotonic() - started < 30.0
    announce(5, "entropy oracle agreement", started)


def test_criterion_06_facts_suite():
    started = time.monotonic()
    rng = np.random.default_rng(99)
    s3 = sysof(("A", 3))
    for seed in range(50):
        rho = random_density(seed, s3)
        sig = random_density(seed + 5000, s3)
        # relative-entropy fidelity floor
        d = entropy.relative_entropy(rho, sig)
        assert d.finite
        assert fidelity(rho, sig) >= 2.0 ** (-d.value / 2) - 1e-8
        # gentle measurement
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = g @ g.conj().T
        h = h / (np.linalg.eigvalsh(h)[-1] * 1.001)
        w = float(np.real(np.trace(h @ h @ rho.matrix)))
        post = DensityOperator(s3, h @ rho.matrix @ h / w, validate=False)
        assert fidelity(rho, post) >= np.sqrt(w) - 1e-8
        # measurement continuity
        lam = h
        p1 = float(np.real(np.trace(lam @ rho.matrix)))
        p2 = float(np.real(np.trace(lam @ sig.matrix)))
        assert abs(np.sqrt(p1) - np.sqrt(p2)) \
            <= purified_distance(rho, sig) + 1e-8
        # canonical purification fidelity
        pr = canonical_purification(rho, "M")
        ps = canonical_purification(sig, "M")
        overlap = float(np.real(np.trace(sqrtm_psd(rho.matrix)
                                         @ sqrtm_psd(sig.matrix))))
        assert abs(fidelity(pr, ps) - overlap) <= 1e-8
        assert fidelity(pr, ps) >= 1 - purified_distance(rho, sig) - 1e-8
    # mixture identity
    for seed in range(50):
        states = [random_density((seed, k), sysof(("A", 2)))
                  for k in range(3)]
        theta = random_density((seed, 99), sysof(("A", 2)))
        res = entropy.check_mixture_identity(states, [0.5, 0.25, 0.25], theta)
        assert res <= 1e-7
    # transpose identity
    for seed in range(50):
        gen = np.random.default_rng(seed)
        d = int(gen.integers(2, 5))
        g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        u, _ = np.linalg.qr(g)
        ut = entropy.transpose_unitary(u, d)
        phi = np.eye(d).reshape(-1) / np.sqrt(d)
        assert np.max(np.abs(np.kron(u, np.eye(d)) @ phi
                             - np.kron(np.eye(d), ut) @ phi)) <= 1e-9
    assert time.monotonic() - started < 60.0
    announce(6, "facts suite", started)


def test_criterion_07_embezzlement_claims():
    started = time.monotonic()
    grid_a, grid_b, grid_n = (2, 4, 8), (1, 2, 4), (16, 64, 256)
    for a, b, n in itertools.product(grid_a, grid_b, grid_n):
        if not (n >= a >= b >= 1):
            continue
        ratio, holds = flatten.check_embezzle_upper(a, b, n)
        assert holds
        lo = (n + 1) * b
        if lo <= n * n:
            for d_size in {lo, n * n}:
                r2, ok = flatten.check_unembezzle(a, b, n, d_size)
                assert ok
        # purified overlap reproduces the coarse floor where hypotheses hold
        delta = max(np.log2(a) / np.log2(n), b / a)
        if 0 < delta < 1 / 25:
            f = flatten.purified_embezzle_fidelity(a, b, n)
            assert f >= np.sqrt(1 - 25 * delta) - 1e-12
        # harmonic sums stay within the logarithmic window
        assert abs(flatten.harmonic_sum(a, n) - np.log2(n / a)) <= 4.0
        assert abs(flatten.harmonic_sum(1, n) - np.log2(n)) <= 4.0
    assert time.monotonic() - started < 30.0
    announce(7, "embezzlement claims", started)


def test_criterion_08_flattened_convex_splits():
    started = time.monotonic()
    mu_c = maximally_mixed(sysof(("C", 2)))
    # 1-design form at both grid resolutions
    for gamma, n_embez, ladder, seeds in (
            (Fraction(1, 2), 4, (4, 16), 2),
            (Fraction(1, 4), 4, (16,), 1)):
        for seed in range(seeds):
            psi = random_density((int(1 / gamma), seed),
                                 sysof(("R", 2), ("C", 2)))
            for n_mixed in ladder:
                rep = flatten.convex_split_flat_1design(
                    psi, mu_c, gamma, n_mixed, n=n_embez, seed=seed)
                assert rep.achieved_rel_entropy \
                    <= rep.analytic_bound + 1e-7
    # classical form at its smallest admissible configuration
    phi = maximally_entangled("R", "C", 2)
    for subset in (range(1), range(4)):
        rep = flatten.convex_split_flat_classical(phi, mu_c, Fraction(1, 2),
                                                  subset, n=3)
        assert rep.achieved_rel_entropy <= rep.analytic_bound + 1e-7
    psi = random_density(77, sysof(("R", 2), ("C", 2)))
    rep = flatten.convex_split_flat_classical(
        psi, partial_trace(psi, ["R"]), Fraction(1, 2), range(8), n=4)
    assert rep.achieved_rel_entropy <= rep.analytic_bound + 1e-7
    assert time.monotonic() - started < 300.0
    announce(8, "flattened convex splits", started)


def test_criterion_09_position_based_decoding():
    started = time.monotonic()
    phi = maximally_entangled("B", "C", 2)
    reg = convexsplit.PrimeRegister(2, 5)
    grid = [(0.01, 0.1, 1), (0.005, 0.15, 1), (0.005, 0.15, 2),
            (0.005, 0.15, 4), (0.01, 0.2, 2)]
    for eps, delta, size in grid:
        rep = coding.position_based_decode_classical(phi, reg, range(size),
                                                     eps, delta)
        assert size <= rep.size_cap
        assert rep.min_success >= 1 - eps - 4 * delta - 1e-9
    mu_c = maximally_mixed(sysof(("C", 2)))
    for eps, delta, size in ((0.01, 0.1, 1), (0.005, 0.15, 3)):
        rep = coding.position_based_decode_flat(
            phi, mu_c, Fraction(2, 3), range(size), eps, delta,
            a=2, n=3, d_size=8)
        assert rep.min_success >= rep.exact_bound - 1e-9
        assert rep.min_success >= 1 - eps - 64 * delta - 1e-9
    assert time.monotonic() - started < 300.0
    announce(9, "position-based decoding", started)


def test_criterion_10_channel_coding():
    started = time.monotonic()
    mu_a = maximally_mixed(sysof(("A", 2)))
    eps, gamma, delta_prime, a_embez, n_embez = 0.05, 0.5, 0.5, 4, 16
    cap = coding.channel_rate_cap(coding.identity_channel(2), mu_a, eps,
                                  gamma, delta_prime)
    max_rate = max(0, int(np.floor(cap)))
    rep = coding.ea_channel_code(coding.identity_channel(2), mu_a, max_rate,
                                 eps, gamma, delta_prime, a=a_embez,
                                 n=n_embez)
    assert rep.empirical_max_error <= rep.analytic_error_bound + 1e-9
    with pytest.raises(ValueError):
        coding.ea_channel_code(coding.identity_channel(2), mu_a,
                               max_rate + 1, eps, gamma, delta_prime,
                               a=a_embez, n=n_embez)
    budget = coding.entanglement_budget(2, gamma, rep.delta_surrogate)
    assert rep.entanglement_qubits <= budget + 1e-9
    rep_dep = coding.ea_channel_code(coding.depolarizing_channel(0.1), mu_a,
                                     0, eps, gamma, delta_prime, a=a_embez,
                                     n=n_embez)
    assert rep_dep.empirical_max_error <= rep_dep.analytic_error_bound + 1e-9
    assert time.monotonic() - started < 600.0
    announce(10, "entanglement-assisted channel coding", started)


def test_criterion_11_determinism(tmp_path):
    started = time.monotonic()
    pairs = [
        ["convexsplit", "--dim-c", "2", "--prime", "5", "--ladder", "1,2",
         "--seed", "13"],
        ["entropy", "--demo", "--seed", "13", "--format", "json"],
    ]
    for base in pairs:
        a = tmp_path / f"{base[0]}-a.out"
        b = tmp_path / f"{base[0]}-b.out"
        assert cli.main(base + ["--out", str(a)]) == 0
        assert cli.main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    announce(11, "byte-level determinism", started)
