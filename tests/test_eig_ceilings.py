"""Eigensolve ceilings of the benchmark's workloads, counted by its tracer.

``perfbench/tracer.py`` counts every ``eigh`` and ``eigvalsh`` that the
program makes inside a layer, and the side length of each, and the counts
repeat exactly from run to run, so a ceiling on them holds on any host.
Each workload's seed-0 cases run once, in this process, traced; the
``measures`` pass includes its CLI cases, and the three passes take about
2.5 s together.  Each ceiling is the count of the code that set it: a change
that lowers a count lowers its ceiling with it.  The per-site gates
(`test_eigensolve_work_below_a_tenth_of_dense`,
`test_eigensolve_budget_at_d256`) stay beside these.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import passrun  # noqa: E402

# per workload: linalg.eigh.calls, linalg.eigvalsh.calls, linalg.eig_max_dim,
# and <layer>.eig_work, the sum of d^3 over the layer's eigensolves (every
# layer that makes one)
CEILINGS = {
    "coding": {"eigh.calls": 69, "eigvalsh.calls": 27, "eig_max_dim": 56,
               "registers.eig_work": 40, "convexsplit.eig_work": 20003,
               "flatten.eig_work": 56, "coding.eig_work": 251600},
    "decouple": {"eigh.calls": 76, "eigvalsh.calls": 501, "eig_max_dim": 66,
                 "entropy.eig_work": 123752,
                 "convexsplit.eig_work": 4563828, "flatten.eig_work": 108},
    "measures": {"eigh.calls": 147, "eigvalsh.calls": 259, "eig_max_dim": 512,
                 "registers.eig_work": 151257152,
                 "entropy.eig_work": 674016847,
                 "convexsplit.eig_work": 231872, "flatten.eig_work": 120,
                 "coding.eig_work": 143206},
}


def layer_eig_work(stats):
    """<layer>.eig_work of a traced pass's span statistics."""
    work = {}
    for row in stats.values():
        key = f"{row['layer']}.eig_work"
        work[key] = work.get(key, 0) + row["eig_work"]
    return work


@pytest.mark.parametrize("workload", sorted(CEILINGS))
def test_eigensolves_within_their_ceilings(workload):
    result = passrun.run_pass(workload, 0, trace=True)
    assert result["failed"] == 0, result["failures"]
    counts = dict(result["trace"]["linalg"])
    counts.update(layer_eig_work(result["trace"]["stats"]))
    # a layer that starts eigensolving has no ceiling, so it fails too
    assert {key for key, val in counts.items()
            if key.endswith(".eig_work") and val} <= set(CEILINGS[workload])
    assert all(counts.get(key, 0) <= ceiling
               for key, ceiling in CEILINGS[workload].items()), counts


def test_layer_eig_work_sums_each_layer():
    stats = {"a": {"layer": "entropy", "eig_work": 8},
             "b": {"layer": "entropy", "eig_work": 27},
             "c": {"layer": "coding", "eig_work": 0}}
    assert layer_eig_work(stats) == {"entropy.eig_work": 35,
                                     "coding.eig_work": 0}
