"""Eigensolve ceilings of the benchmark's workloads, counted by its tracer.

``perfbench/tracer.py`` counts every ``eigh`` and ``eigvalsh`` that the
program makes inside a layer, and the counts repeat exactly from run to
run, so a ceiling on them holds on any host.  Each workload's seed-0 cases
run once, in this process, traced.  Each ceiling is the count of the code
that set it: a change that lowers a count lowers its ceiling with it.  The
per-site gates (`test_eigensolve_work_below_a_tenth_of_dense`,
`test_eigensolve_budget_at_d256`) stay beside these.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import passrun  # noqa: E402

# per workload: linalg.eigh.calls, linalg.eigvalsh.calls, linalg.eig_max_dim
CEILINGS = {"coding": {"eigh.calls": 69, "eigvalsh.calls": 27,
                       "eig_max_dim": 56},
            "decouple": {"eigh.calls": 76, "eigvalsh.calls": 519,
                         "eig_max_dim": 66}}


@pytest.mark.parametrize("workload", sorted(CEILINGS))
def test_eigensolves_within_their_ceilings(workload):
    result = passrun.run_pass(workload, 0, trace=True)
    assert result["failed"] == 0, result["failures"]
    linalg = result["trace"]["linalg"]
    counts = {key: linalg[key] for key in CEILINGS[workload]}
    assert all(counts[key] <= ceiling
               for key, ceiling in CEILINGS[workload].items()), counts
