"""Traced memory ceilings of the benchmark's coding cases, its largest
classical splits and seeded states.

``tracemalloc`` traces numpy's data allocations (numpy reports every array
buffer to it), and a case allocates the same arrays in the same order on
every run, so those repeat exactly from run to run and on any host.  The
process's peak RSS does not: glibc's allocator puts the same pass in one of
two modes a megabyte apart, so a gate on these peaks is what stops a
memory regression.  What else the process has run moves a peak, by 12 KiB
to 0.12 MiB as measured: the flat classical split of the decouple workload
peaks at 6.61 MiB after every earlier decouple case and at 6.73 MiB after
C3-G11 alone, and C2-G5 at 0.083 to 0.095 MiB (which allocation moves was
not found).  Each ceiling is the peak of the code that set it, rounded up
to the next 0.1 MiB, and a case gets one only where that step clears the
spread.  Each case runs once untraced first, so that no lazy import lands
in its peak.  A change that lowers a peak lowers its ceiling with it.
"""

import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import oneshot_qit  # noqa: E402
import workloads  # noqa: E402

MIB = 2 ** 20

# per case of the coding workload at its default seed, in MiB
CEILINGS = {
    "position_based_decode_classical/grid": 0.4,
    "position_based_decode_flat/gamma2/3": 1.6,
    "ea_channel_code/identity": 1.9,
    "ea_channel_code/refusal": 0.1,
    "ea_channel_code/depolarizing0.1": 1.3,
}
# the decouple workload's classical splits at its default seed whose peaks
# clear 1 MiB, in MiB.  Where the support route built tau, its sandwich and
# their pattern whole, and every sector was summed over t, C3-G11 peaked at
# 2.67 and the flat classical split at 8.40.  The state of the process moves
# these peaks by up to 0.12 MiB (the flat split read 6.61 to 6.73), which
# each ceiling clears; the smaller splits (below 0.2) would not clear it.
SPLIT_CEILINGS = {
    "convex_split_classical/C3-G11": 1.2,
    "convex_split_flat_classical/gamma2/3": 6.8,
}
# the flat decoder at the benchmark's arguments with a 2-dimensional B
# (Bob's space 2178): its dense signal arrays peaked at 34.9 MiB
FLAT_TWO_DIM_B_CEILING = 10.8
# a full-rank seeded state at d = 512: G, the conjugate in the product and
# the product, 3 d^2 complex entries; the plain expression peaked at 16.13
RANDOM_DENSITY_512_CEILING = 12.2
# Tr(M M) at d = 1024: the elementwise product M * M.T peaked at 16.13
PURITY_1024_CEILING = 0.1


def traced_peak(call):
    """Bytes at the tracemalloc peak of ``call()``, run once untraced first."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def peaks():
    cases = workloads.coding(oneshot_qit, workloads.DEFAULT_SEED, None)
    return {case.name: traced_peak(lambda: case.run(workloads.Record()))
            for case in cases}


@pytest.fixture(scope="module")
def split_peaks():
    cases = workloads.decouple(oneshot_qit, workloads.DEFAULT_SEED, None)
    return {case.name: traced_peak(lambda: case.run(workloads.Record()))
            for case in cases if case.name in SPLIT_CEILINGS}


def test_every_case_has_a_ceiling(peaks):
    assert set(peaks) == set(CEILINGS)


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_case_within_its_ceiling(peaks, name):
    assert peaks[name] <= CEILINGS[name] * MIB, peaks[name] / MIB


@pytest.mark.parametrize("name", sorted(SPLIT_CEILINGS))
def test_split_case_within_its_ceiling(split_peaks, name):
    assert split_peaks[name] <= SPLIT_CEILINGS[name] * MIB, \
        split_peaks[name] / MIB


def test_flat_decoder_does_not_set_the_peak(peaks):
    # the channel code's signals are narrow column blocks; the flat
    # decoder's, read by their nonzero rows, now hold less
    assert peaks["position_based_decode_flat/gamma2/3"] \
        < peaks["ea_channel_code/identity"]


def test_flat_decoder_with_a_two_dimensional_b():
    system = oneshot_qit.RegisterSystem([("B", 2), ("C", 2)])
    psi = oneshot_qit.random_density(0, system)
    mu_c = oneshot_qit.maximally_mixed(oneshot_qit.RegisterSystem([("C", 2)]))
    peak = traced_peak(lambda: oneshot_qit.coding.position_based_decode_flat(
        psi, mu_c, Fraction(2, 3), [0], 0.01, 0.2, a=2, n=3, d_size=8))
    assert peak <= FLAT_TWO_DIM_B_CEILING * MIB, peak / MIB


def test_random_density_at_d512():
    system = oneshot_qit.RegisterSystem([("A", 512)])
    peak = traced_peak(lambda: oneshot_qit.random_density(0, system))
    assert peak <= RANDOM_DENSITY_512_CEILING * MIB, peak / MIB


def test_purity_at_d1024():
    system = oneshot_qit.RegisterSystem([("A", 1024)])
    rho = oneshot_qit.random_density(0, system)
    peak = traced_peak(rho.purity)
    assert peak <= PURITY_1024_CEILING * MIB, peak / MIB
