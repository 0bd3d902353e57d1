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
from dataclasses import replace
from fractions import Fraction

import numpy as np

from . import circuits, coding, convexsplit, entropy, flatten, registers
from .registers import Check

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
            return str(value)       # "inf", "-inf" or "nan"
        return float(f"{value:.12g}")
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


class ReportRecord:
    """One experiment record: parameter echo, measured values, and checks."""

    def __init__(self, record_id, params, measured, bounds, checks):
        self.record_id = record_id
        self.params = params
        self.measured = measured
        self.bounds = bounds
        self.checks = list(checks)
        self.built_at = time.monotonic()   # timing goes to stderr only

    @property
    def passed(self):
        return all(check.holds for check in self.checks)

    def flat(self):
        out = {"id": self.record_id}
        for prefix, fields in (("param", self.params),
                               ("measured", self.measured),
                               ("bound", self.bounds)):
            out.update((f"{prefix}_{key}", _fmt(val))
                       for key, val in fields.items())
        out["passed"] = self.passed
        return out


def emit(records, fmt, path):
    """Write records atomically with stable field order."""
    if not records:
        raise ValueError("no records to emit")
    rows = [r.flat() for r in records]
    keys = list(dict.fromkeys(key for row in rows for key in row))
    if fmt == "csv":
        lines = [",".join(keys)] + [",".join(
            f"{val:.12g}" if isinstance(val, float) else str(val)
            for val in (row.get(key, "") for key in keys)) for row in rows]
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

def run_entropy(args):
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
        # run() fills the tolerance column with the check's scaled slack
        records.append(ReportRecord(
            f"entropy-{idx:02d}-{name}", {"case": name},
            {"value": got, "expected": expect},
            {"abs_error": abs(got - expect), "tolerance": None},
            [Check("closed form", got, expect, "==", 1e-5)]))
    return records


# ------------------------------------------------------------ convexsplit --

def run_convexsplit(args):
    records = []
    dim_c, prime, ladder, seed = args.dim_c, args.prime, args.ladder, args.seed
    psi = registers.random_density(_seed_for(seed, 0),
                                   _sysof(("R", 2), ("C", dim_c)))
    if getattr(args, "dump", None):
        with open(args.dump, "w") as fh:
            registers.dump_matrix(psi, fh)
    for n_mixed in ladder:
        rep = convexsplit.convex_split_classical(psi, range(n_mixed),
                                                 prime=prime)
        fid_floor = 1.0 / (1.0 + (2.0 ** (rep.k + 1) - 1.0) / n_mixed)
        records.append(ReportRecord(
            f"convexsplit-classical-N{n_mixed}",
            {"dim_c": dim_c, "prime": prime, "N": n_mixed, "seed": seed},
            rep.as_record(), {"fidelity_sq_floor": fid_floor},
            [rep.bound_check(), Check("fidelity floor",
                                      rep.achieved_fidelity ** 2, fid_floor,
                                      ">=", 1e-7)]))
    if dim_c & (dim_c - 1) == 0:
        for n_mixed in (n for n in ladder if n <= dim_c * dim_c):
            rep = convexsplit.convex_split_1design(psi, n_mixed, seed=seed)
            records.append(ReportRecord(
                f"convexsplit-1design-N{n_mixed}",
                {"dim_c": dim_c, "N": n_mixed, "seed": seed},
                rep.as_record(), {}, [rep.bound_check()]))
    return records


# ---------------------------------------------------------------- circuit --

def run_circuit(args):
    records = []
    dim_c, prime = args.dim_c, args.prime
    circ = circuits.synth_decoupler(dim_c, prime, prime)
    m = circuits.metrics(circ)
    mismatches = 0
    if args.verify == "exhaustive":
        # every (l, i, j), l slowest, as the little-endian bits of i, j and l
        # on the first 3n wires, where synth_decoupler allocates them; right
        # rows read (i', j', l) there and 0 on every later wire
        n = max(1, (prime - 1).bit_length())
        ell, i, j = np.unravel_index(np.arange(prime ** 3), (prime,) * 3)
        bits = np.stack([i, j, ell], axis=1)[:, :, None] >> np.arange(n) & 1
        inputs = np.zeros((prime ** 3, circ.wire_count), dtype=int)
        inputs[:, :3 * n] = bits.reshape(prime ** 3, -1)
        outs = circuits.simulate_table(circ, inputs)
        got = outs[:, :3 * n].reshape(-1, 3, n) @ (1 << np.arange(n))
        images = convexsplit.u_ell_index(np.arange(prime), prime)
        want = np.stack(np.divmod(images[ell, i * prime + j], prime) + (ell,), 1)
        mismatches = int(np.count_nonzero((got != want).any(axis=1)
                                          | outs[:, 3 * n:].any(axis=1)))
    swap_m = circuits.metrics(circuits.synth_swap())
    records.append(ReportRecord(
        f"circuit-decoupler-C{dim_c}-G{prime}",
        {"dim_c": dim_c, "prime": prime, "verify": args.verify},
        {"size": m.size, "depth": m.depth, "ancillas": m.ancilla_count,
         "mismatches": mismatches, "swap_size": swap_m.size,
         "swap_depth": swap_m.depth},
        {}, [Check("truth table mismatches", mismatches, 0, "=="),
             Check("swap size", swap_m.size, 3, "=="),
             Check("swap depth", swap_m.depth, 3, "==")]))
    return records


# ---------------------------------------------------------------- flatten --

def run_flatten(args):
    records = []
    for a, b, n in [(2, 1, 16), (4, 2, 64), (8, 4, 256)]:
        ratio, _ = flatten.check_embezzle_upper(a, b, n)
        harmonic = flatten.harmonic_sum(1, n) / flatten.harmonic_sum(a, n)
        records.append(ReportRecord(
            f"flatten-embezzle-a{a}-b{b}-n{n}", {"a": a, "b": b, "n": n},
            {"exact_ratio": ratio, "harmonic_ratio": harmonic}, {},
            [Check("embezzle ratio", ratio, harmonic, "<=", flatten.RATIO_SLACK)]))
    for a, b, n, d in [(2, 2, 16, 40), (4, 2, 16, 34)]:
        ratio, _ = flatten.check_unembezzle(a, b, n, d)
        records.append(ReportRecord(
            f"flatten-unembezzle-b{b}-n{n}-D{d}",
            {"a": a, "b": b, "n": n, "d_size": d}, {"exact_ratio": ratio},
            {"ceiling": 4.0},
            [Check("unembezzle ratio", ratio, 4.0, "<=", flatten.RATIO_SLACK)]))
    psi = registers.random_density(_seed_for(args.seed, 1),
                                   _sysof(("R", 2), ("C", 2)))
    mu_c = registers.maximally_mixed(_sysof(("C", 2)))
    rep = flatten.convex_split_flat_1design(psi, mu_c, Fraction(1, 2), 4,
                                            n=4, seed=args.seed)
    records.append(ReportRecord(
        "flatten-split-1design", {"gamma": "1/2", "N": 4, "seed": args.seed},
        rep.as_record(), {}, [rep.bound_check()]))
    return records


# ----------------------------------------------------------------- decode --

def _decode_record(record_id, params, rep, floor):
    """The record of a decoder report; it passes when the least success
    reaches ``floor``."""
    return ReportRecord(
        record_id, params,
        {"min_success": rep.min_success, "cap": rep.size_cap},
        {"paper_bound": rep.paper_bound, "exact_bound": rep.exact_bound},
        [Check("success floor", rep.min_success, floor, ">=", 1e-9)])


def run_decode(args):
    records = []
    phi = registers.maximally_entangled("B", "C", 2)
    reg = convexsplit.PrimeRegister(2, 5)
    grid = [(0.01, 0.1, 1), (0.005, 0.15, 2), (0.005, 0.15, 4)]
    for eps, delta, size in grid:
        rep = coding.position_based_decode_classical(
            phi, reg, range(size), eps, delta)
        records.append(_decode_record(
            f"decode-classical-e{eps}-d{delta}-S{size}",
            {"variant": "classical", "eps": eps, "delta": delta,
             "size": size, "gamma": ""}, rep, rep.paper_bound))
    if args.flat:
        mu_c = registers.maximally_mixed(_sysof(("C", 2)))
        rep = coding.position_based_decode_flat(
            phi, mu_c, Fraction(2, 3), [0], 0.01, 0.1, a=2, n=3, d_size=8)
        records.append(_decode_record(
            "decode-flat-S1", {"variant": "flat", "eps": 0.01, "delta": 0.1,
                               "size": 1, "gamma": "2/3"},
            rep, rep.exact_bound))
    return records


# ------------------------------------------------------------------- code --

def run_code(args):
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
    records.append(ReportRecord(
        f"code-{channel.name}-R{max_rate}",
        {"channel": channel.name, "eps": args.eps, "gamma": "1/2",
         "delta_prime": 0.5, "a": 4, "n": args.n, "rate_cap": cap},
        rep.as_record(),
        {"entanglement_budget": budget, "refusal_above_cap": refused},
        [rep.bound_check(), Check("refusal above cap", refused, 1, ">="),
         Check("entanglement budget", rep.entanglement_qubits, budget, "<=",
               1e-9)]))
    return records


# ----------------------------------------------------------------- bounds --

def run_bounds(args):
    records = []
    sys4 = _sysof(("R", 2), ("A", 2), ("B", 2), ("C", 2))
    phi_rc = registers.maximally_entangled("R", "C", 2)
    ab = registers.basis_state(_sysof(("A", 2), ("B", 2)), 0)
    for name, state, psi, expect in [   # merge cost I_max(R:C)/2 + 2 + 2 log2 10
            ("product", "product", registers.basis_state(sys4, 0),
             2.0 + 2.0 * np.log2(10.0)),
            ("entangled", "phi_rc", registers.tensor(phi_rc, ab),
             1.0 + 2.0 + 2.0 * np.log2(10.0))]:
        res = coding.redistribution_bounds(psi, ["R"], ["A"], ["B"], ["C"],
                                           eps=0.1, delta=0.1)
        costs = {"redistribution_comm": res.redistribution_comm,
                 "redistribution_ent": res.redistribution_ent,
                 "merge_comm": res.merge_comm, "merge_ent": res.merge_ent}
        records.append(ReportRecord(   # the entangled record: its comm only
            f"bounds-{name}", {"state": state, "eps": 0.1, "delta": 0.1},
            {k: v for k, v in costs.items() if state != "phi_rc" or "comm" in k},
            {"merge_expected": expect},
            [Check("merge cost", res.merge_comm, expect, "==", 1e-6)]))
    return records


RUNNERS = {"entropy": run_entropy, "convexsplit": run_convexsplit,
           "circuit": run_circuit, "flatten": run_flatten,
           "decode": run_decode, "code": run_code, "bounds": run_bounds}


def _parse_int_list(text):
    return [int(x) for x in str(text).split(",") if x != ""]


def _scale(text):
    """A finite positive --tolerance-scale; anything else is a usage error."""
    if not 0 < float(text) < float("inf"):
        raise argparse.ArgumentTypeError(f"{text} is not finite and positive")
    return float(text)


_DIM_C = ("--dim-c", dict(type=int, default=2, help="dimension of C"))
_PRIME = ("--prime", dict(type=int, default=5, help="prime register size"))

# every option of every subcommand, stated once: flag and add_argument keywords
_OPTIONS = {
    "entropy": [
        ("--demo", dict(action="store_true",
                        help="accepted for old command lines; changes "
                             "nothing"))],
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
    ("--tolerance-scale", dict(type=_scale, default=1.0,
                               help="multiplier on every record check's slack")),
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
    records = RUNNERS[args.command](args)
    elapsed = time.monotonic() - started
    for rec in records:
        rec.checks = [replace(check, slack=check.slack * args.tolerance_scale)
                      for check in rec.checks]
        if "tolerance" in rec.bounds:       # a column of the check's slack
            rec.bounds["tolerance"] = rec.checks[0].slack
    out_path = args.out or f"oneshot-{args.command}-report.{args.format}"
    emit(records, args.format, out_path)
    previous = started
    for rec in records:
        # a failed check first, then of those with slack the least margin
        least = min(rec.checks, key=lambda c: (c.holds, c.slack == 0, c.margin))
        print(f"  {rec.record_id}: {rec.built_at - previous:.3f}s, least "
              f"margin {least.margin:.3g} ({least.name})", file=sys.stderr)
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
