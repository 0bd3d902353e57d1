"""Workload definitions: seeded inputs and the checked cases of each pass.

A workload builder takes the imported ``oneshot_qit`` package, the seed and a
pass context, generates every input up front (this is the timed set-up) and
returns a list of ``Case`` objects.  Running a case calls the program through
module attributes such as ``q.coding.ea_channel_code`` so that the tracer's
rebinding applies, and fills a ``Record`` with the numbers the program reported
(compared to the frozen values) and with checks (bounds, success floors,
closed forms, zero circuit mismatches and expected refusals).

``seeded`` tells whether a case's inputs depend on the seed.  Frozen values are
checked at the default seed for every case and at any seed for unseeded ones.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

DEFAULT_SEED = 0


@dataclass
class Case:
    name: str
    seeded: bool
    run: Callable


class Record:
    """Numbers and checks produced by one case."""

    def __init__(self):
        self.values = {}
        self.files = {}
        self.checks = []

    def value(self, key, number):
        self.values[key] = float(number) if isinstance(
            number, (float, np.floating)) else int(number)

    def check(self, label, ok):
        self.checks.append((label, bool(ok)))

    def refuses(self, label, call):
        """Check that ``call`` refuses with ValueError."""
        try:
            call()
        except ValueError:
            self.check(label, True)
        else:
            self.check(label, False)


def _system(q, *pairs):
    return q.RegisterSystem(list(pairs))


def _unitary(rng, dim):
    """Haar-random unitary from a seeded generator (QR with phase fix)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    qm, rm = np.linalg.qr(g)
    return qm * (np.diag(rm) / np.abs(np.diag(rm)))


# ---------------------------------------------------------------- decouple --

def _classical_split(q, psis, prime, rec):
    for k, psi in enumerate(psis):
        for n_mixed in (1, 2, prime):
            rep = q.convexsplit.convex_split_classical(psi, range(n_mixed),
                                                       prime=prime)
            denom = 1 + (2 ** (rep.k + 1) - 1) / n_mixed
            key = f"state{k}-N{n_mixed}"
            rec.value(f"{key}.k", rep.k)
            rec.value(f"{key}.rel_entropy", rep.achieved_rel_entropy)
            rec.value(f"{key}.fidelity", rep.achieved_fidelity)
            rec.check(f"{key} relative entropy bound",
                      rep.achieved_rel_entropy <= math.log2(denom) + 1e-7)
            rec.check(f"{key} fidelity floor",
                      rep.achieved_fidelity ** 2 >= 1 / denom - 1e-7)


def _marginal_check(q, probe, reg, rec):
    for m in range(1, reg.prime):
        resid = q.convexsplit.classical_marginal_check(probe, reg, m)
        rec.check(f"m={m} marginal residual <= 1e-10", resid <= 1e-10)


def _one_design_split(q, psi, ladder, seed, rec):
    values = []
    for n_mixed in ladder:
        rep = q.convexsplit.convex_split_1design(psi, n_mixed, seed=seed)
        bound = math.log2(1 + (2 ** rep.k - 1) / n_mixed)
        rec.value(f"N{n_mixed}.rel_entropy", rep.achieved_rel_entropy)
        rec.value(f"N{n_mixed}.fidelity", rep.achieved_fidelity)
        rec.check(f"N{n_mixed} relative entropy bound",
                  rep.achieved_rel_entropy <= bound + 1e-7)
        values.append(rep.achieved_rel_entropy)
    rec.check("non-increasing along the ladder",
              all(lo <= hi + 1e-9 for lo, hi in zip(values[1:], values)))


def _flat_split(rec, label, call):
    rep = call()
    rec.value(f"{label}.bound", rep.analytic_bound)
    rec.value(f"{label}.rel_entropy", rep.achieved_rel_entropy)
    rec.value(f"{label}.fidelity", rep.achieved_fidelity)
    rec.check(f"{label} relative entropy bound",
              rep.achieved_rel_entropy <= rep.analytic_bound + 1e-7)


def _flat_1design(q, psi, mu_c, gamma, ladder, seed, rec):
    for n_mixed in ladder:
        _flat_split(rec, f"N{n_mixed}", lambda: (
            q.flatten.convex_split_flat_1design(psi, mu_c, gamma, n_mixed,
                                                n=4, seed=seed)))


def _flat_classical(q, psi, omega, gamma, subsets, n_embez, rec):
    for size in subsets:
        _flat_split(rec, f"N{size}", lambda: (
            q.flatten.convex_split_flat_classical(psi, omega, gamma,
                                                  range(size), n=n_embez)))


def decouple(q, seed, ctx):
    """Convex splits and their flattened forms; coding never runs."""
    cases = []
    for dim_c, prime, n_states in ((2, 5, 3), (2, 7, 3), (3, 11, 2)):
        sys_rc = _system(q, ("R", 2), ("C", dim_c))
        psis = [q.random_density((dim_c, prime, seed, k), sys_rc)
                for k in range(n_states)]
        cases.append(Case(f"convex_split_classical/C{dim_c}-G{prime}", True,
                          lambda rec, psis=psis, prime=prime:
                          _classical_split(q, psis, prime, rec)))
        reg = q.PrimeRegister(dim_c, prime)
        probe = q.random_density((prime, seed), sys_rc)
        cases.append(Case(f"classical_marginal_check/C{dim_c}-G{prime}", True,
                          lambda rec, probe=probe, reg=reg:
                          _marginal_check(q, probe, reg, rec)))
    for dim_c, ladder in ((2, (1, 2, 4)), (4, (1, 2, 4, 8, 16))):
        psi = q.random_density((dim_c, seed),
                               _system(q, ("R", 2), ("C", dim_c)))
        cases.append(Case(f"convex_split_1design/C{dim_c}", True,
                          lambda rec, psi=psi, ladder=ladder:
                          _one_design_split(q, psi, ladder, seed, rec)))
    mu_c = q.maximally_mixed(_system(q, ("C", 2)))
    for gamma, ladder in ((Fraction(1, 2), (4, 16)), (Fraction(1, 4), (2,))):
        psi = q.random_density((gamma.denominator, seed),
                               _system(q, ("R", 2), ("C", 2)))
        cases.append(Case(f"convex_split_flat_1design/gamma{gamma}", True,
                          lambda rec, psi=psi, gamma=gamma, ladder=ladder:
                          _flat_1design(q, psi, mu_c, gamma, ladder, seed,
                                        rec)))
    # the acceptance suite's seed-77 state at the default seed
    psi = q.random_density(77 + seed, _system(q, ("R", 2), ("C", 2)))
    omega = q.partial_trace(psi, ["R"])
    cases.append(Case("convex_split_flat_classical/gamma2/3", True,
                      lambda rec: _flat_classical(q, psi, omega,
                                                  Fraction(2, 3), (2, 11), 3,
                                                  rec)))
    return cases


# ------------------------------------------------------------------ coding --

_DECODE_GRID = ((0.01, 0.1, 1), (0.005, 0.15, 1), (0.005, 0.15, 2),
                (0.005, 0.15, 4), (0.01, 0.2, 2))


def _decode_classical(q, psi, reg, rec):
    for eps, delta, size in _DECODE_GRID:
        rep = q.coding.position_based_decode_classical(psi, reg, range(size),
                                                       eps, delta)
        key = f"e{eps}-d{delta}-S{size}"
        rec.value(f"{key}.min_success", rep.min_success)
        rec.value(f"{key}.size_cap", rep.size_cap)
        rec.check(f"{key} size within cap", size <= rep.size_cap)
        rec.check(f"{key} success floor",
                  rep.min_success >= 1 - eps - 4 * delta - 1e-9)


def _decode_flat(q, psi, mu_c, rec):
    eps, delta = 0.01, 0.2
    rep = q.coding.position_based_decode_flat(psi, mu_c, Fraction(2, 3), [0],
                                              eps, delta, a=2, n=3, d_size=8)
    rec.value("min_success", rep.min_success)
    rec.value("exact_bound", rep.exact_bound)
    rec.value("size_cap", rep.size_cap)
    rec.check("size within cap", 1 <= rep.size_cap)
    rec.check("exact success floor", rep.min_success >= rep.exact_bound - 1e-9)


_CODE_ARGS = dict(eps=0.05, gamma=0.5, delta_prime=0.5, a=4, n=5)


def _code_report(rec, key, rep):
    rec.value(f"{key}.empirical_max_error", rep.empirical_max_error)
    rec.value(f"{key}.analytic_error_bound", rep.analytic_error_bound)
    rec.value(f"{key}.trials", rep.trials)


def _ea_identity(q, mu_a, rec):
    code = q.coding
    rep0 = code.ea_channel_code(code.identity_channel(2), mu_a, 0,
                                **_CODE_ARGS)
    _code_report(rec, "R0", rep0)
    rec.check("R0 error bound", rep0.bound_satisfied())
    budget = code.entanglement_budget(2, _CODE_ARGS["gamma"],
                                      rep0.delta_surrogate)
    rec.check("R0 entanglement within budget",
              rep0.entanglement_qubits <= budget + 1e-9)
    rep2 = code.ea_channel_code(code.identity_channel(2), mu_a, 2,
                                enforce_cap=False, **_CODE_ARGS)
    _code_report(rec, "R2", rep2)
    rec.check("R2 propagates all 4 x 16^2 branches", rep2.trials == 1024)
    rec.check("error non-decreasing in rate",
              rep2.empirical_max_error >= rep0.empirical_max_error - 1e-9)


def _ea_refusal(q, mu_a, rec):
    code = q.coding
    cap = code.channel_rate_cap(code.identity_channel(2), mu_a,
                                _CODE_ARGS["eps"], _CODE_ARGS["gamma"],
                                _CODE_ARGS["delta_prime"])
    rec.value("rate_cap", cap)
    rate = max(0, int(math.floor(cap))) + 1
    rec.refuses(f"rate {rate} above the cap refuses", lambda: (
        code.ea_channel_code(code.identity_channel(2), mu_a, rate,
                             **_CODE_ARGS)))


def _ea_depolarizing(q, mu_a, rec):
    code = q.coding
    rep = code.ea_channel_code(code.depolarizing_channel(0.1), mu_a, 0,
                               **_CODE_ARGS)
    _code_report(rec, "R0", rep)
    rec.check("R0 error bound", rep.bound_satisfied())


def coding(q, seed, ctx):
    """Position decoders and the channel code; flatten/entropy run inside."""
    rng = np.random.default_rng([seed, 9])
    # maximally entangled state in a seeded local basis of B
    u_b = _unitary(rng, 2)
    phi = q.maximally_entangled("B", "C", 2)
    vec = (np.kron(u_b, np.eye(2)) @ phi.vector)
    psi_bc = q.PureState(phi.system, vec)
    reg = q.PrimeRegister(2, 5)
    # flat decoder on a trivial B register: C carries a seeded mixed state
    p = 0.6 + 0.3 * rng.random()
    u_c = _unitary(rng, 2)
    c_mat = (u_c * np.array([p, 1 - p])) @ u_c.conj().T
    psi_c = q.DensityOperator(_system(q, ("B", 1), ("C", 2)), c_mat)
    mu_c = q.maximally_mixed(_system(q, ("C", 2)))
    mu_a = q.maximally_mixed(_system(q, ("A", 2)))
    return [
        Case("position_based_decode_classical/grid", True,
             lambda rec: _decode_classical(q, psi_bc, reg, rec)),
        Case("position_based_decode_flat/gamma2/3", True,
             lambda rec: _decode_flat(q, psi_c, mu_c, rec)),
        Case("ea_channel_code/identity", False,
             lambda rec: _ea_identity(q, mu_a, rec)),
        Case("ea_channel_code/refusal", False,
             lambda rec: _ea_refusal(q, mu_a, rec)),
        Case("ea_channel_code/depolarizing0.1", False,
             lambda rec: _ea_depolarizing(q, mu_a, rec)),
    ]


# ---------------------------------------------------------------- measures --

def _binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _divergences(q, rho, sigma, with_dh, rec):
    ent = q.entropy
    rel = ent.relative_entropy(rho, sigma)
    dmx = ent.dmax(rho, sigma)
    fid = q.registers.fidelity(rho, sigma)
    rec.value("relative_entropy", rel.value)
    rec.value("dmax", dmx.value)
    rec.value("fidelity", fid)
    rec.check("0 <= D <= Dmax", rel.finite and 0 <= rel.value
              <= dmx.value + 1e-9)
    rec.check("F >= 2^(-D/2)", fid >= 2.0 ** (-rel.value / 2) - 1e-8)
    rec.check("F <= 1", fid <= 1.0)
    if with_dh:
        eps = 0.1
        dh = ent.dh_eps(rho, sigma, eps)
        rec.value("dh_eps", dh.value)
        rec.check("D_H <= (D + h(eps)) / (1 - eps)", dh.finite and dh.value
                  <= (rel.value + _binary_entropy(eps)) / (1 - eps) + 1e-9)


def _hmin(q, state, partition, closed_form, rec):
    val = q.entropy.hmin(state, partition)
    rec.value("hmin", val.value)
    rec.check("matches the closed form within 1e-5",
              abs(val.value - closed_form) <= 1e-5)


def _primitives(q, rho, small, unitary, rec):
    reg = q.registers
    marg = reg.partial_trace(rho, ["B"])
    rec.value("partial_trace.purity", marg.purity())
    rec.check("partial trace keeps the trace", abs(marg.trace() - 1) <= 1e-9)
    moved = reg.permute_registers(rho, ["C", "A", "B"])
    back = reg.permute_registers(moved, ["A", "B", "C"])
    rec.check("register permutation round trip is exact",
              np.array_equal(back.matrix, rho.matrix))
    turned = reg.apply_unitary(rho, unitary, ["A", "B"])
    rec.value("apply_unitary.purity", turned.purity())
    undone = reg.apply_unitary(turned, unitary.conj().T, ["A", "B"])
    rec.check("U then U^dag restores the state within 1e-10",
              np.max(np.abs(undone.matrix - rho.matrix)) <= 1e-10)
    half = reg.partial_trace(rho, ["A"])
    joint = reg.tensor(half, small)
    rec.value("tensor.purity", joint.purity())
    rec.check("partial trace undoes the tensor product within 1e-12",
              np.max(np.abs(reg.partial_trace(joint, ["Z"]).matrix
                            - half.matrix)) <= 1e-12)


def _circuit(q, dim_c, prime, rec):
    circ_mod = q.circuits
    circ = circ_mod.synth_decoupler(dim_c, prime, prime)
    met = circ_mod.metrics(circ)
    rec.value("size", met.size)
    rec.value("depth", met.depth)
    rec.value("ancillas", met.ancilla_count)
    n = max(1, (prime - 1).bit_length())
    reg = q.convexsplit.PrimeRegister(dim_c, prime)
    tables = {ell: q.convexsplit.u_ell(ell, reg) for ell in range(prime)}
    inputs, keys = [], []
    for ell in range(prime):
        for i in range(prime):
            for j in range(prime):
                inputs.append(circ_mod.encode_decoupler_input(
                    n, n, i, j, ell, circ.wire_count))
                keys.append((i, j, ell))
    outs = circ_mod.simulate_table(circ, np.array(inputs))
    weights = 1 << np.arange(n)
    i_out = outs[:, :n] @ weights
    j_out = outs[:, n:2 * n] @ weights
    l_out = outs[:, 2 * n:3 * n] @ weights
    mismatches = 0
    for row, (i, j, ell) in enumerate(keys):
        if (int(i_out[row]), int(j_out[row])) != tables[ell][(i, j)] \
                or l_out[row] != ell or outs[row, 3 * n:].any():
            mismatches += 1
    rec.value("mismatches", mismatches)
    rec.check("exhaustive table matches u_ell with ancillas restored",
              mismatches == 0)


def _cli(q, sub, ctx, rec):
    path = os.path.join(ctx.workdir, f"{sub}.csv")
    with ctx.span(f"cli.{sub}"), \
            contextlib.redirect_stderr(io.StringIO()):
        status = q.cli.main([sub, "--out", path])
    rec.check("exit status 0", status == 0)
    rec.files[f"{sub}.csv"] = path


def measures(q, seed, ctx):
    """Information measures, register primitives, circuits and the CLI."""
    rng = np.random.default_rng([seed, 11])
    cases = []
    for dim in (64, 256, 512):
        sys_a = _system(q, ("A", dim))
        rho = q.random_density((dim, seed, 0), sys_a)
        sigma = q.random_density((dim, seed, 1), sys_a)
        cases.append(Case(f"divergences/d{dim}", True,
                          lambda rec, rho=rho, sigma=sigma, dim=dim:
                          _divergences(q, rho, sigma, dim <= 256, rec)))
    for d_a, d_b in ((2, 4), (2, 8), (3, 6)):
        rho_a = q.random_density((d_a, d_b, seed, 0), _system(q, ("A", d_a)))
        sig_b = q.random_density((d_a, d_b, seed, 1), _system(q, ("B", d_b)))
        closed = -math.log2(np.linalg.eigvalsh(rho_a.matrix)[-1])
        state = q.tensor(rho_a, sig_b)
        cases.append(Case(f"hmin/product-{d_a}x{d_b}", True,
                          lambda rec, state=state, closed=closed:
                          _hmin(q, state, (["A"], ["B"]), closed, rec)))
    phi = q.maximally_entangled("A", "B", 4)
    vec = np.kron(_unitary(rng, 4), np.eye(4)) @ phi.vector
    ent_state = q.PureState(phi.system, vec)
    cases.append(Case("hmin/entangled-4x4", True,
                      lambda rec: _hmin(q, ent_state, (["A"], ["B"]), -2.0,
                                        rec)))
    unitary = _unitary(rng, 8)
    small = q.random_density((2, seed), _system(q, ("Z", 2)))
    for dim in (64, 256, 1024):
        rho = q.random_density((dim, seed, 2), _system(
            q, ("A", 2), ("B", 4), ("C", dim // 8)))
        cases.append(Case(f"primitives/d{dim}", True,
                          lambda rec, rho=rho:
                          _primitives(q, rho, small, unitary, rec)))
    for dim_c, prime in ((2, 5), (2, 7), (3, 11), (4, 17), (4, 19)):
        cases.append(Case(f"circuit/C{dim_c}-G{prime}", False,
                          lambda rec, dim_c=dim_c, prime=prime:
                          _circuit(q, dim_c, prime, rec)))
    for sub in q.cli.SUBCOMMAND_MAP:
        cases.append(Case(f"cli/{sub}", False,
                          lambda rec, sub=sub: _cli(q, sub, ctx, rec)))
    return cases


WORKLOADS = {"decouple": decouple, "coding": coding, "measures": measures}
