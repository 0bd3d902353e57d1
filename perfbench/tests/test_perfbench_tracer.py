"""Tests of the benchmark's tracer, pass runner, metric list and compare mode."""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import oneshot_qit  # noqa: E402
import oneshot_qit.cli  # noqa: E402
from oneshot_qit import cli, convexsplit, entropy, registers  # noqa: E402

import passrun  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def _states(dim=4):
    system = registers.RegisterSystem([("A", dim)])
    return (registers.random_density(1, system),
            registers.random_density(2, system))


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer(clock=FakeClock([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
                                     10.0]))
    with tracer.span("outer", "entropy"):
        with tracer.span("inner", "registers"):
            with tracer.span("leaf", "registers"):
                pass
        with tracer.span("second", "registers"):
            pass
    stats, _ = summarize(tracer.spans)
    assert stats["outer"]["total_s"] == 10.0
    assert stats["outer"]["self_s"] == 10.0 - 3.0 - 1.0
    assert stats["inner"]["self_s"] == 3.0 - 1.0
    assert stats["leaf"]["self_s"] == 1.0
    assert stats["second"]["calls"] == 1


def test_eigensolves_go_to_the_innermost_layer_span():
    rho, sigma = _states()
    tracer = Tracer()
    tracer.install(oneshot_qit)
    try:
        with tracer.span("case"):
            entropy.dmax(rho, sigma)       # one eigh, one eigvalsh
            np.linalg.eigh(rho.matrix)     # benchmark's own solve
    finally:
        tracer.uninstall()
    stats, linalg = summarize(tracer.spans)
    assert stats["entropy.dmax"]["eig_calls"] == 2
    assert stats["entropy.dmax"]["eig_work"] == 2 * 4 ** 3
    assert stats["case"]["eig_calls"] == 0
    assert linalg["eigh.calls"] == 1 and linalg["eigvalsh.calls"] == 1
    assert linalg["eig_max_dim"] == 4


def test_imported_names_are_rebound_across_modules():
    original = entropy.dmax
    tracer = Tracer()
    tracer.install(oneshot_qit)
    try:
        assert entropy.dmax is not original
        assert convexsplit.dmax is entropy.dmax
        assert oneshot_qit.dmax is entropy.dmax
        assert cli.RUNNERS["entropy"] is cli.run_entropy
        psi = registers.random_density(
            3, registers.RegisterSystem([("R", 2), ("C", 2)]))
        convexsplit.convex_split_classical(psi, range(2), prime=5)
    finally:
        tracer.uninstall()
    stats, _ = summarize(tracer.spans)
    assert stats["entropy.dmax"]["calls"] == 1
    assert stats["convexsplit.convex_split_classical"]["calls"] == 1
    parents = {tracer.spans[s[4]][0] for s in tracer.spans
               if s[0] == "entropy.dmax"}
    assert parents == {"convexsplit.convex_split_classical"}


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("oneshot_qit"):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if isinstance(obj, dict):
                    for key, val in obj.items():
                        out[(name, attr, key)] = val
                elif isinstance(obj, type):
                    for key, val in vars(obj).items():
                        out[(name, attr, key)] = val
    out["eigh"] = np.linalg.eigh
    out["eigvalsh"] = np.linalg.eigvalsh
    return out


def test_uninstall_restores_every_original():
    before = _bindings()
    tracer = Tracer()
    tracer.install(oneshot_qit)
    changed = [k for k, v in _bindings().items() if before.get(k) is not v]
    tracer.uninstall()
    after = _bindings()
    assert len(changed) > 100
    assert all(after[k] is before[k] for k in before)


CHEAP = {
    "decouple": ["convex_split_classical/C2-G5",
                 "classical_marginal_check/C2-G5"],
    "measures": ["circuit/C2-G5", "cli/entropy", "hmin/product-2x4",
                 "primitives/d64", "divergences/d64"],
    "coding": ["position_based_decode_classical"],
}


@pytest.mark.parametrize("workload", sorted(CHEAP))
@pytest.mark.parametrize("seed", [0, 5])
def test_traced_pass_gives_the_untraced_outputs(workload, seed):
    plain = passrun.run_pass(workload, seed, only=CHEAP[workload])
    traced = passrun.run_pass(workload, seed, trace=True,
                              only=CHEAP[workload])
    assert plain["failed"] == 0 and traced["failed"] == 0, \
        plain["failures"] + traced["failures"]
    assert plain["attempted"] == traced["attempted"] > 0
    assert plain["values"] == traced["values"]
    assert traced["trace"]["stats"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.per_layer_metrics()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["run_seconds"] == run.RUN_SECONDS
    assert set(run.CLI_SUBCOMMANDS) == set(cli.SUBCOMMAND_MAP)


def test_compare_counts_pairs_won(tmp_path, capsys):
    def log(path, walls):
        lines = []
        for seed, wall in enumerate(walls):
            lines.append(json.dumps({"perfbench": {
                "workload": "coding", "seed": seed, "trace": 0}}))
            lines.append(json.dumps({"correct": True, "attempted": 1,
                                     "failed": 0, "metrics": {
                "wall_s": {"value": wall, "unit": "s"},
                "setup_s": {"value": 0.3, "unit": "s"},
                "peak_rss_mib": {"value": 100.0, "unit": "MiB"}}}))
        path.write_text("\n".join(lines) + "\n")
        return path
    run.compare(log(tmp_path / "a.log", [10.0, 11.0, 12.0]),
                log(tmp_path / "b.log", [9.0, 11.5, 11.0]))
    out = capsys.readouterr().out
    assert "coding:" in out
    assert "B won 2/3 pairs" in out.splitlines()[1]


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coding",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    host = passrun.HostSpeed(np)
    with host.running():
        end = time.perf_counter() + 3 * passrun.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(host.samples) >= 2
    assert 0 < host.spent_s < 3 * passrun.SAMPLE_PERIOD_S
    assert host.speed() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    out = passrun.run_pass("measures", 0, only=["hmin/"])
    assert out["failed"] == 0
    assert out["host_samples"] >= 2
    assert out["wall_s"] > 0 and out["setup_s"] > 0
