"""Benchmark driver for oneshot_qit: timed passes, traced passes, compare mode.

    python3 perfbench/run.py --workload decouple --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --compare parent.log change.log
    python3 perfbench/run.py --freeze

A run starts every pass in a fresh process (``passrun.py``), one at a time,
with BLAS pinned to one thread.  Its number of passes is fixed per workload
and scales with ``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics
(medians over the passes); with ``--trace 1`` it runs one untraced pass and
then traced passes, and reports the per-layer metrics and the tracing
overhead.  It prints a readable summary, one JSON line with the
run's facts (workload, seed, machine) and, last, the JSON result.

``--compare`` reads two files of captured run output and prints, per workload
and end-to-end metric, each side's median and quartiles and the pairs won.
``--freeze`` rewrites the frozen expectations in ``perfbench/expected`` from
the current program at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from tracer import LAYERS

WORKLOADS = ("decouple", "coding", "measures")
RUN_SECONDS = 36            # run_seconds in BENCHMARK.json
# Passes per run of RUN_SECONDS, fixed before the run starts: a count chosen
# from the pass times seen in the run would leave slow runs fewer passes.
PASSES = {"decouple": 3, "coding": 2, "measures": 3}
DEFAULT_SEED = 0
BLAS_THREADS = 1
SETUP_SAMPLES = 5
EXIT_DEADLINE_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
HOT_SPOTS = (
    "entropy.dh_eps", "entropy.hmin", "entropy.relative_entropy",
    "entropy.dmax",
    "registers.apply_unitary", "registers.partial_trace", "registers.fidelity",
    "convexsplit.convex_split_classical", "convexsplit.convex_split_1design",
    "convexsplit.classical_marginal_check", "convexsplit.pairwise_family",
    "convexsplit.PairwiseFamily.evaluate", "convexsplit.u_ell",
    "circuits.synth_decoupler", "circuits.simulate_table",
    "flatten.convex_split_flat_classical", "flatten.convex_split_flat_1design",
    "flatten.PrimeEnsemble",
    "coding.ea_channel_code", "coding.position_based_decode_flat",
    "coding.position_based_decode_classical", "coding.hayashi_nagaoka_povm",
    "coding.neyman_pearson_operator",
)
CLI_SUBCOMMANDS = ("entropy", "convexsplit", "circuit", "flatten", "decode",
                   "code", "bounds")


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"),
                (f"{layer}.eig_calls", "count"),
                (f"{layer}.eig_work", "d3_computed")]
    for solver in ("eigh", "eigvalsh"):
        out += [(f"linalg.{solver}.calls", "count"),
                (f"linalg.{solver}.s", "s")]
    out.append(("linalg.eig_max_dim", "dim"))
    for name in HOT_SPOTS:
        out += [(f"{name}.self_s", "s"), (f"{name}.calls", "count"),
                (f"{name}.eig_calls", "count")]
    out += [(f"cli.{sub}.s", "s") for sub in CLI_SUBCOMMANDS]
    out.append(("trace_overhead_s", "s"))
    return out


def _trace_metrics(trace):
    """Per-layer metric values of one traced pass."""
    stats, linalg = trace["stats"], trace["linalg"]
    values = {}
    for layer in LAYERS:
        rows = [s for s in stats.values() if s["layer"] == layer]
        values[f"{layer}.calls"] = sum(s["calls"] for s in rows)
        values[f"{layer}.self_s"] = sum(s["self_s"] for s in rows)
        values[f"{layer}.eig_calls"] = sum(s["eig_calls"] for s in rows)
        values[f"{layer}.eig_work"] = sum(s["eig_work"] for s in rows)
    for key, val in linalg.items():
        values[f"linalg.{key}"] = val
    empty = {"self_s": 0.0, "calls": 0, "eig_calls": 0, "total_s": 0.0}
    for name in HOT_SPOTS:
        row = stats.get(name, empty)
        for field in ("self_s", "calls", "eig_calls"):
            values[f"{name}.{field}"] = row[field]
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}.s"] = stats.get(f"cli.{sub}", empty)["total_s"]
    return values


def _child_env():
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


class Run:
    """Starts pass processes one at a time within a deadline."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.started = time.monotonic()
        self.env = _child_env()

    def elapsed(self):
        return time.monotonic() - self.started

    def child(self, *flags):
        cmd = [sys.executable, str(HERE / "passrun.py"), "--workload",
               self.workload, "--seed", str(self.seed), *flags]
        timeout = max(1.0, EXIT_DEADLINE_S - self.elapsed())
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=timeout,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"pass process {' '.join(flags) or 'timed'} "
                               f"exited with status {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def passes(self, count, seconds, flags=()):
        """Run ``count`` passes, fewer if they overrun ``seconds`` twice over."""
        out = []
        while len(out) < count:
            begun = self.elapsed()
            out.append(self.child(*flags))
            took = self.elapsed() - begun
            if self.elapsed() + took > 2 * seconds:     # a much slower program
                break
        return out


def measure(workload, seed, seconds, trace):
    run = Run(workload, seed)
    count = max(1, round(PASSES[workload] * seconds / RUN_SECONDS))
    setups = []
    if trace:
        plain = [run.child()]
        traced = run.passes(max(1, count - 1), seconds, flags=("--trace",))
        passes = plain + traced
        per_pass = [_trace_metrics(p["trace"]) for p in traced]
        metrics = {}
        for name, unit in per_layer_metrics():
            if name == "trace_overhead_s":
                continue
            samples = [m[name] for m in per_pass]
            metrics[name] = {"value": statistics.median(samples), "unit": unit}
        metrics["trace_overhead_s"] = {
            "value": statistics.median([p["raw_wall_s"] for p in traced])
            - plain[0]["raw_wall_s"], "unit": "s"}
        counts = [name for name, unit in per_layer_metrics()
                  if unit == "count"]
        counts_repeat = all(m[name] == per_pass[0][name]
                            for m in per_pass for name in counts)
    else:
        setups = [run.child("--setup-only")
                  for _ in range(SETUP_SAMPLES - 1)]
        passes = run.passes(count, seconds)
        metrics = {}
        for name, unit in END_TO_END:
            source = setups + passes if name == "setup_s" else passes
            metrics[name] = {
                "value": statistics.median([p[name] for p in source]),
                "unit": unit}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if trace:       # repeatable span counts are one more check
        attempted += 1
        if not counts_repeat:
            failed += 1
            failures.append("span counts differ between traced passes")
    return {
        "facts": {"workload": workload, "seed": seed, "trace": int(trace),
                  "passes": len(passes), "elapsed_s": run.elapsed(),
                  "pass_wall_s": [p["wall_s"] for p in passes],
                  "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
                  "raw_setup_s": statistics.median(
                      p["raw_setup_s"] for p in passes + setups),
                  "env": passes[0]["env"]},
        "failures": failures,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


def _print_summary(out):
    facts, result = out["facts"], out["result"]
    print(f"perfbench {facts['workload']} seed={facts['seed']} "
          f"trace={facts['trace']}: {facts['passes']} passes in "
          f"{facts['elapsed_s']:.1f} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    if "pass_raw_wall_s" in facts:
        raw = statistics.median(facts["pass_raw_wall_s"])
        print(f"  {'unscaled wall_s, setup_s':<48} {raw:>14.6g} s, "
              f"{facts['raw_setup_s']:.6g} s")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':<48} {frac:>14.6g} "
          f"({result['failed']} of {result['attempted']} checks)")
    for line in out["failures"]:
        print(f"  FAILED {line}")


def compare(path_a, path_b):
    """Per-workload medians, quartiles and pairs won of two sets of runs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [_read_runs(path_a), _read_runs(path_b)]
    for workload in sorted(set(sides[0]) & set(sides[1])):
        print(f"{workload}: A={path_a} ({len(sides[0][workload])} runs), "
              f"B={path_b} ({len(sides[1][workload])} runs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r[name]["value"] for r in sides[0][workload]]
            b = [r[name]["value"] for r in sides[1][workload]]
            lower = metric["better"] == "lower"
            pairs = list(zip(a, b))
            won = sum((y < x) if lower else (y > x) for x, y in pairs)
            print(f"  {name:<14} A {_quartiles(a)}  B {_quartiles(b)}  "
                  f"B/A {statistics.median(b) / statistics.median(a):.4f}  "
                  f"B won {won}/{len(pairs)} pairs  "
                  f"(bound {metric['bound']})")


def _quartiles(values):
    if len(values) < 2:
        return f"median {values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.6g} [{q1:.6g}, {q3:.6g}]"


def _read_runs(path):
    """Untraced results per workload, from a file of captured run output."""
    runs = {}
    facts = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "perfbench" in obj:
            facts = obj["perfbench"]
        elif "metrics" in obj and facts is not None:
            if facts["trace"] == 0:
                runs.setdefault(facts["workload"], []).append(obj["metrics"])
            facts = None
    return runs


def freeze():
    """Freeze each workload's outputs at the default seed, if all checks pass."""
    for workload in WORKLOADS:
        out = Run(workload, DEFAULT_SEED).child("--freeze")
        if out["failed"]:
            print("\n".join(out["failures"]), file=sys.stderr)
            raise RuntimeError(f"{workload}: {out['failed']} checks failed; "
                               f"nothing frozen for it")
        print(f"froze {workload}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="oneshot_qit benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--freeze", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not (ROOT / "src" / "oneshot_qit" / "__init__.py").is_file():
        print(f"error: no oneshot_qit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.freeze:
        parser.error("--workload is required")
    try:
        if args.freeze:
            freeze()
            return 0
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_summary(out)
    print(json.dumps({"perfbench": out["facts"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
