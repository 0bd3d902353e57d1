"""Batch experiment runner: every verification as a subcommand.

Each subcommand evaluates one family of constructions and emits a report of
records (csv or json).  Reports are byte-reproducible for a fixed seed:
records carry stable field order, floats at 12 significant digits, and no
timing data (wall-clock goes to stderr only).  Exit status is 0 when every
record passes its bound checks, 1 otherwise, 2 on usage errors.

Options are parsed once, by argparse: the key=value lines of a ``--config``
file become the same long flags, placed before those of the command line, so
file values are checked like flags and a flag on the command line wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import circuits, coding, convexsplit, entropy, flatten, registers

SUBCOMMAND_MAP = {
    "entropy": "information measures and identity/inequality facts",
    "convexsplit": "1-design and classical-unitary convex splits (decoupling)",
    "circuit": "reversible synthesis of the decoupling permutation",
    "flatten": "embezzling-state claims and flattened convex splits",
    "decode": "position-based decoding success bounds",
    "code": "entanglement-assisted channel coding",
    "bounds": "state redistribution and merging budgets",
}


def _fmt(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not np.isfinite(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.12g}")
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


class ReportRecord:
    """One experiment record: parameter echo, measured values, verdict."""

    def __init__(self, record_id, params, measured, bounds, passed):
        self.record_id = record_id
        self.params = params
        self.measured = measured
        self.bounds = bounds
        self.passed = bool(passed)
        self.built_at = time.monotonic()   # timing goes to stderr only

    def flat(self):
        out = {"id": self.record_id}
        for key, val in self.params.items():
            out[f"param_{key}"] = _fmt(val)
        for key, val in self.measured.items():
            out[f"measured_{key}"] = _fmt(val)
        for key, val in self.bounds.items():
            out[f"bound_{key}"] = _fmt(val)
        out["passed"] = self.passed
        return out


def emit(records, fmt, path):
    """Write records atomically with stable field order."""
    if not records:
        raise ValueError("no records to emit")
    rows = [r.flat() for r in records]
    keys = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    if fmt == "csv":
        lines = [",".join(keys)]
        for row in rows:
            cells = []
            for key in keys:
                val = row.get(key, "")
                if isinstance(val, float):
                    cells.append(f"{val:.12g}")
                else:
                    cells.append(str(val))
            lines.append(",".join(cells))
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = json.dumps(rows, indent=2, sort_keys=False) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _seed_for(global_seed, index):
    # counter-based split: child streams never collide across records
    return [int(global_seed), int(index)]


def _sysof(*pairs):
    return registers.RegisterSystem(list(pairs))


# ---------------------------------------------------------------- entropy --

def run_entropy(args, tol):
    records = []
    s2 = _sysof(("A", 2))
    mu2 = registers.maximally_mixed(s2)
    cases = []

    r = registers.DensityOperator(s2, np.diag([0.75, 0.25]))
    cases.append(("relent_commuting", entropy.relative_entropy(r, mu2).value,
                  0.75 * np.log2(1.5) + 0.25 * np.log2(0.5)))
    cases.append(("dmax_diag", entropy.dmax(r, mu2).value, np.log2(1.5)))
    a5 = registers.DensityOperator(s2, np.diag([0.5, 0.5]))
    b91 = registers.DensityOperator(s2, np.diag([0.9, 0.1]))
    cases.append(("dh_commuting", entropy.dh_eps(a5, b91, 0.5).value,
                  np.log2(10.0)))
    cases.append(("fidelity_commuting", registers.fidelity(a5, b91),
                  np.sqrt(0.45) + np.sqrt(0.05)))
    phi = registers.maximally_entangled("A", "B", 2)
    cases.append(("hmin_maximally_entangled",
                  entropy.hmin(phi, (["A"], ["B"])).value, -1.0))
    cases.append(("imax_maximally_entangled",
                  entropy.imax(phi, (["A"], ["B"])).value, 2.0))
    for idx, (name, got, expect) in enumerate(cases):
        ok = abs(got - expect) <= 1e-5 * tol
        records.append(ReportRecord(
            f"entropy-{idx:02d}-{name}", {"case": name},
            {"value": got, "expected": expect},
            {"abs_error": abs(got - expect), "tolerance": 1e-5 * tol}, ok))
    return records


# ------------------------------------------------------------ convexsplit --

def run_convexsplit(args, tol):
    records = []
    dim_c = args.dim_c
    prime = args.prime
    ladder = args.ladder
    seed = args.seed
    psi = registers.random_density(_seed_for(seed, 0),
                                   _sysof(("R", 2), ("C", dim_c)))
    if getattr(args, "dump", None):
        with open(args.dump, "w") as fh:
            registers.dump_matrix(psi, fh)
    for n_mixed in ladder:
        rep = convexsplit.convex_split_classical(psi, range(n_mixed),
                                                 prime=prime)
        ok = rep.bound_satisfied(slack=1e-7 * tol)
        fid_floor = 1.0 / (1.0 + (2.0 ** (rep.k + 1) - 1.0) / n_mixed)
        ok = ok and rep.achieved_fidelity ** 2 >= fid_floor - 1e-7 * tol
        records.append(ReportRecord(
            f"convexsplit-classical-N{n_mixed}",
            {"dim_c": dim_c, "prime": prime, "N": n_mixed, "seed": seed},
            rep.as_record(),
            {"fidelity_sq_floor": fid_floor}, ok))
    if dim_c & (dim_c - 1) == 0:
        for n_mixed in (n for n in ladder if n <= dim_c * dim_c):
            rep = convexsplit.convex_split_1design(psi, n_mixed, seed=seed)
            records.append(ReportRecord(
                f"convexsplit-1design-N{n_mixed}",
                {"dim_c": dim_c, "N": n_mixed, "seed": seed},
                rep.as_record(), {},
                rep.bound_satisfied(slack=1e-7 * tol)))
    return records


# ---------------------------------------------------------------- circuit --

def run_circuit(args, tol):
    records = []
    dim_c, prime = args.dim_c, args.prime
    circ = circuits.synth_decoupler(dim_c, prime, prime)
    m = circuits.metrics(circ)
    ok = True
    mismatches = 0
    if args.verify == "exhaustive":
        n = max(1, (prime - 1).bit_length())
        images = [convexsplit.u_ell_index(ell, prime) for ell in range(prime)]
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
            want = divmod(int(images[ell][i * prime + j]), prime)
            if (i_out, j_out) != want or row[3 * n:].any():
                mismatches += 1
        ok = mismatches == 0
    swap_m = circuits.metrics(circuits.synth_swap())
    ok = ok and swap_m.size == 3 and swap_m.depth == 3
    records.append(ReportRecord(
        f"circuit-decoupler-C{dim_c}-G{prime}",
        {"dim_c": dim_c, "prime": prime, "verify": args.verify},
        {"size": m.size, "depth": m.depth, "ancillas": m.ancilla_count,
         "mismatches": mismatches, "swap_size": swap_m.size,
         "swap_depth": swap_m.depth},
        {}, ok))
    return records


# ---------------------------------------------------------------- flatten --

def run_flatten(args, tol):
    records = []
    for a, b, n in [(2, 1, 16), (4, 2, 64), (8, 4, 256)]:
        ratio, holds = flatten.check_embezzle_upper(a, b, n)
        records.append(ReportRecord(
            f"flatten-embezzle-a{a}-b{b}-n{n}", {"a": a, "b": b, "n": n},
            {"exact_ratio": ratio,
             "harmonic_ratio": flatten.harmonic_sum(1, n)
             / flatten.harmonic_sum(a, n)},
            {}, holds))
    for a, b, n, d in [(2, 2, 16, 40), (4, 2, 16, 34)]:
        ratio, holds = flatten.check_unembezzle(a, b, n, d)
        records.append(ReportRecord(
            f"flatten-unembezzle-b{b}-n{n}-D{d}",
            {"a": a, "b": b, "n": n, "d_size": d},
            {"exact_ratio": ratio}, {"ceiling": 4.0}, holds))
    psi = registers.random_density(_seed_for(args.seed, 1),
                                   _sysof(("R", 2), ("C", 2)))
    mu_c = registers.maximally_mixed(_sysof(("C", 2)))
    rep = flatten.convex_split_flat_1design(psi, mu_c, Fraction(1, 2), 4,
                                            n=4, seed=args.seed)
    records.append(ReportRecord(
        "flatten-split-1design", {"gamma": "1/2", "N": 4, "seed": args.seed},
        rep.as_record(), {}, rep.bound_satisfied(slack=1e-7 * tol)))
    return records


# ----------------------------------------------------------------- decode --

def run_decode(args, tol):
    records = []
    phi = registers.maximally_entangled("B", "C", 2)
    reg = convexsplit.PrimeRegister(2, 5)
    grid = [(0.01, 0.1, 1), (0.005, 0.15, 2), (0.005, 0.15, 4)]
    for eps, delta, size in grid:
        rep = coding.position_based_decode_classical(
            phi, reg, range(size), eps, delta)
        ok = rep.min_success >= rep.paper_bound - 1e-9 * tol
        records.append(ReportRecord(
            f"decode-classical-e{eps}-d{delta}-S{size}",
            {"variant": "classical", "eps": eps, "delta": delta,
             "size": size, "gamma": ""},
            {"min_success": rep.min_success, "cap": rep.size_cap},
            {"paper_bound": rep.paper_bound, "exact_bound": rep.exact_bound},
            ok))
    if args.flat:
        mu_c = registers.maximally_mixed(_sysof(("C", 2)))
        rep = coding.position_based_decode_flat(
            phi, mu_c, Fraction(2, 3), [0], 0.01, 0.1, a=2, n=3, d_size=8)
        ok = rep.min_success >= rep.exact_bound - 1e-9 * tol
        records.append(ReportRecord(
            "decode-flat-S1",
            {"variant": "flat", "eps": 0.01, "delta": 0.1, "size": 1,
             "gamma": "2/3"},
            {"min_success": rep.min_success, "cap": rep.size_cap},
            {"paper_bound": rep.paper_bound, "exact_bound": rep.exact_bound},
            ok))
    return records


# ------------------------------------------------------------------- code --

def run_code(args, tol):
    records = []
    mu_a = registers.maximally_mixed(_sysof(("A", 2)))
    channel = coding.identity_channel(2) if args.channel == "identity" \
        else coding.depolarizing_channel(args.p)
    cap = coding.channel_rate_cap(channel, mu_a, args.eps, 0.5, 0.5)
    max_rate = max(0, int(np.floor(cap)))
    rep = coding.ea_channel_code(channel, mu_a, max_rate, args.eps, 0.5, 0.5,
                                 a=4, n=args.n)
    refused = False
    try:
        coding.ea_channel_code(channel, mu_a, max_rate + 1, args.eps, 0.5,
                               0.5, a=4, n=args.n)
    except ValueError:
        refused = True
    budget = coding.entanglement_budget(2, 0.5, rep.delta_surrogate)
    ok = rep.bound_satisfied() and refused \
        and rep.entanglement_qubits <= budget + 1e-9
    records.append(ReportRecord(
        f"code-{channel.name}-R{max_rate}",
        {"channel": channel.name, "eps": args.eps, "gamma": "1/2",
         "delta_prime": 0.5, "a": 4, "n": args.n, "rate_cap": cap},
        rep.as_record(),
        {"entanglement_budget": budget, "refusal_above_cap": refused}, ok))
    return records


# ----------------------------------------------------------------- bounds --

def run_bounds(args, tol):
    records = []
    sys4 = _sysof(("R", 2), ("A", 2), ("B", 2), ("C", 2))
    vec = np.zeros(16)
    vec[0] = 1.0
    product = registers.PureState(sys4, vec)
    res = coding.redistribution_bounds(product, ["R"], ["A"], ["B"], ["C"],
                                       eps=0.1, delta=0.1)
    expect_merge = 2.0 + 2.0 * np.log2(10.0)
    ok = abs(res.merge_comm - expect_merge) <= 1e-6 * tol
    records.append(ReportRecord(
        "bounds-product", {"state": "product", "eps": 0.1, "delta": 0.1},
        {"redistribution_comm": res.redistribution_comm,
         "redistribution_ent": res.redistribution_ent,
         "merge_comm": res.merge_comm, "merge_ent": res.merge_ent},
        {"merge_expected": expect_merge}, ok))

    phi_rc = registers.maximally_entangled("R", "C", 2)
    ab = registers.basis_state(_sysof(("A", 2), ("B", 2)), 0)
    joint = registers.tensor_pure(phi_rc, ab)
    res2 = coding.redistribution_bounds(joint, ["R"], ["A"], ["B"], ["C"],
                                        eps=0.1, delta=0.1)
    expect2 = 1.0 + 2.0 + 2.0 * np.log2(10.0)
    ok2 = abs(res2.merge_comm - expect2) <= 1e-6 * tol
    records.append(ReportRecord(
        "bounds-entangled", {"state": "phi_rc", "eps": 0.1, "delta": 0.1},
        {"redistribution_comm": res2.redistribution_comm,
         "merge_comm": res2.merge_comm},
        {"merge_expected": expect2}, ok2))
    return records


RUNNERS = {
    "entropy": run_entropy,
    "convexsplit": run_convexsplit,
    "circuit": run_circuit,
    "flatten": run_flatten,
    "decode": run_decode,
    "code": run_code,
    "bounds": run_bounds,
}


def _parse_int_list(text):
    return [int(x) for x in str(text).split(",") if x != ""]


_DIM_C = ("--dim-c", dict(type=int, default=2, help="dimension of C"))
_PRIME = ("--prime", dict(type=int, default=5, help="prime register size"))

# every option of every subcommand, stated once: flag and add_argument keywords
_OPTIONS = {
    "entropy": [
        ("--demo", dict(action="store_true",
                        help="re-verify the built-in worked examples"))],
    "convexsplit": [
        _DIM_C, _PRIME,
        ("--ladder", dict(type=_parse_int_list, default=[1, 2, 4],
                          help="comma-separated mixture sizes N")),
        ("--dump", dict(help="write the seeded input state to this file"))],
    "circuit": [
        _DIM_C, _PRIME,
        ("--verify", dict(choices=("exhaustive", "none"), default="exhaustive",
                          help="simulate every input of the circuit"))],
    "flatten": [],
    "decode": [
        ("--flat", dict(action="store_true",
                        help="include the flattened variant (slower)"))],
    "code": [
        ("--channel", dict(choices=("identity", "depolarizing"),
                           default="identity")),
        ("--p", dict(type=float, default=0.1, help="depolarizing noise")),
        ("--eps", dict(type=float, default=0.05, help="test error")),
        ("--n", dict(type=int, default=8, help="embezzling state size"))],
    "bounds": [],
}
_COMMON = [
    ("--seed", dict(type=int, default=7)),
    ("--out", dict(help="report path")),
    ("--format", dict(choices=("csv", "json"), default="csv")),
    ("--tolerance-scale", dict(type=float, default=1.0,
                               help="multiplier on every check tolerance")),
    ("--config", dict(help="file of key=value option lines")),
]


def build_parser():
    """The CLI parser: one subparser per subcommand, with its options."""
    parser = argparse.ArgumentParser(
        prog="oneshot-qit",
        description="verification runner for one-shot protocol constructions")
    parser.add_argument("--list", action="store_true",
                        help="list subcommands and what they verify")
    sub = parser.add_subparsers(dest="command")
    for name, desc in SUBCOMMAND_MAP.items():
        p = sub.add_parser(name, help=desc)
        for flag, kwargs in _OPTIONS[name] + _COMMON:
            p.add_argument(flag, **kwargs)
    return parser


def _config_argv(path, command):
    """The flags of a config file's key=value lines for one subcommand.

    Lines before any [section] header apply to every subcommand.  Each key
    must name a long flag of its section in full (``_`` read as ``-``), or of
    ``command`` before any header; a switch is added when its value is 1,
    true or yes.  Errors raise ValueError naming the file and the line.
    """
    argv = []
    section = command
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}, line {lineno}"
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1]
                if section not in _OPTIONS:
                    raise ValueError(f"{where}: section [{section}] names no "
                                     "subcommand")
                continue
            if "=" not in line:
                raise ValueError(f"{where}: bad config line {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            kwargs = dict(_OPTIONS[section] + _COMMON).get(flag)
            if kwargs is None:
                raise ValueError(f"{where}: key {key!r} is not an option of "
                                 f"{section}")
            if section != command:
                continue
            if kwargs.get("action") != "store_true":
                argv.append(f"{flag}={val}")
            elif val.lower() in ("1", "true", "yes"):
                argv.append(flag)
    return argv


def run(args):
    """Execute one parsed subcommand; returns (exit status, records)."""
    started = time.monotonic()
    records = RUNNERS[args.command](args, args.tolerance_scale)
    elapsed = time.monotonic() - started
    out_path = args.out or f"oneshot-{args.command}-report.{args.format}"
    emit(records, args.format, out_path)
    previous = started
    for rec in records:
        print(f"  {rec.record_id}: {rec.built_at - previous:.3f}s",
              file=sys.stderr)
        previous = rec.built_at
    failed = [r.record_id for r in records if not r.passed]
    print(f"{args.command}: {len(records)} records, "
          f"{len(records) - len(failed)} passed, {len(failed)} failed "
          f"({elapsed:.2f}s) -> {out_path}", file=sys.stderr)
    for rid in failed:
        print(f"  FAILED {rid}", file=sys.stderr)
    return (1 if failed else 0), records


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name, desc in SUBCOMMAND_MAP.items():
            print(f"{name}: {desc}")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.config:
            flags = _config_argv(args.config, args.command)
            # file values go right after the command, so later flags win
            i = argv.index(args.command)
            args = parser.parse_args(argv[:i + 1] + flags + argv[i + 1:])
        status, _ = run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
