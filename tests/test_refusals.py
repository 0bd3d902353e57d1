"""Every input refusal of the package, each with its message.

One row per ``raise ValueError`` that no other test reaches: the call that
reaches it, and the message it must give.  Below the table, the two
infinite-value branches that are not refusals: a redistribution candidate
whose D_max is infinite, and the infinite returns of
`entropy.check_mixture_identity`.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from oneshot_qit import circuits, coding, convexsplit, entropy, flatten
from oneshot_qit.cli import ReportRecord, emit
from oneshot_qit.registers import (Check, DensityOperator, PureState,
                                   RegisterSystem, basis_state,
                                   canonical_purification, maximally_entangled,
                                   maximally_mixed, tensor)

QUBIT = RegisterSystem([("A", 2)])
MU_A = maximally_mixed(QUBIT)
MU_C = maximally_mixed(RegisterSystem([("C", 2)]))
PHI = maximally_entangled("B", "C", 2)      # C last, as the decoders need


def _state(*diag):
    return DensityOperator(QUBIT, np.diag(diag))


def _bell_pairs():
    """phi_RC (x) phi_AB: pure, on the labels R, C, A, B."""
    return tensor(maximally_entangled("R", "C", 2),
                  maximally_entangled("A", "B", 2))


REFUSALS = [
    # registers.py
    ("state-shape", lambda: DensityOperator(QUBIT, np.eye(3) / 3),
     "matrix shape (3, 3) != (2, 2)"),
    ("state-hermitian", lambda: DensityOperator(QUBIT, [[0.5, 0.5],
                                                        [0.0, 0.5]]),
     "matrix is not Hermitian within tolerance"),
    ("state-trace", lambda: DensityOperator(QUBIT, np.eye(2)),
     "trace 2.0 != 1 within tolerance"),
    ("state-negative", lambda: _state(1.5, -0.5),
     "negative eigenvalue -0.5"),
    ("pure-length", lambda: PureState(QUBIT, [1.0, 0.0, 0.0]),
     "vector length 3 != 2"),
    ("pure-norm", lambda: PureState(QUBIT, [1.0, 1.0]),
     "norm 1.4142135623730951 != 1 within tolerance"),
    ("tensor-one", lambda: tensor(MU_A),
     "tensor needs at least two operators"),
    ("purify-two-registers", lambda: canonical_purification(PHI, "M"),
     "canonical purification expects a single-register state"),
    ("basis-index", lambda: basis_state(QUBIT, 2),
     "basis index 2 out of range for dim 2"),
    # circuits.py
    ("circuit-roles", lambda: circuits.ReversibleCircuit(2, ["data"]),
     "one role per wire required"),
    ("adder-widths", lambda: circuits._Builder().cuccaro_add([0], [1, 2], 3),
     "adder registers must have equal width"),
    ("modulus-one", lambda: circuits._ModularUnit(circuits._Builder(), 1),
     "modulus must be >= 2"),
    ("double-even", lambda: circuits._ModularUnit(
        circuits._Builder(), 4).double([0, 1, 2]),
     "doubling trick requires an odd modulus"),
    ("decoupler-l-size", lambda: circuits.synth_decoupler(2, 5, 6),
     "l_size 6 outside [1, 5]"),
    # coding.py
    ("decoder-eps", lambda: coding.position_based_decode_classical(
        PHI, convexsplit.prime_register(2), [0], 0.0, 0.5),
     "eps and delta must lie in (0, 1)"),
    ("flat-decoder-a", lambda: coding.position_based_decode_flat(
        PHI, MU_C, Fraction(2, 3), [0], 0.01, 0.2, a=3, n=3, d_size=8),
     "a = 3 must equal |E| = 2"),
    ("code-rate", lambda: coding.ea_channel_code(
        coding.identity_channel(2), MU_A, 7, 0.05, 0.5, 0.5, a=4, n=16),
     "rate must lie in [0, 6] (message set capped at 64)"),
    ("bounds-labels", lambda: coding.redistribution_bounds(
        _bell_pairs(), ["R"], [], ["B"], ["C"], 0.1, 0.1),
     "partition labels do not cover the system"),
    ("bounds-eps", lambda: coding.redistribution_bounds(
        _bell_pairs(), ["R"], ["A"], ["B"], ["C"], 1.0, 0.1),
     "eps and delta must lie in (0, 1)"),
    # convexsplit.py
    ("next-prime", lambda: convexsplit.next_prime_in(1), "need n >= 2"),
    ("prime-power", lambda: convexsplit.pairwise_family(1),
     "1 is not a prime power"),
    ("field-size", lambda: convexsplit.pairwise_family(8192),
     "field size 8192 too large for desk scale"),
    ("split-k-infinite", lambda: flatten.convex_split_flat_1design(
        PHI, DensityOperator(MU_C.system, np.diag([1.0, 0.0])),
        Fraction(2, 3), 1, 8),
     "Dmax against psi_R (x) omega is infinite"),
    # entropy.py
    ("mixture-weights", lambda: entropy.check_mixture_identity(
        [MU_A, MU_A], [0.5, 0.6], MU_A),
     "weights must form a probability vector"),
    ("transpose-shape", lambda: entropy.transpose_unitary(np.eye(3), 2),
     "expected a 2 x 2 matrix"),
    # flatten.py
    ("moved-state-c-dim", lambda: flatten._moved_state(
        PHI, flatten.round_spectrum(maximally_mixed(RegisterSystem(
            [("C", 4)])), Fraction(1, 2), "up"), 2, 3),
     "C dimension mismatch with the flattened spectrum"),
    ("flat-n", lambda: flatten.convex_split_flat_1design(
        PHI, MU_C, Fraction(2, 3), 1, 1),
     "n = 1 below a = 2"),
    # cli.py
    ("emit-format", lambda: emit([ReportRecord(
        "r", {}, {}, {}, [Check("holds", 0.5, 1.0)])], "xml", "unused.xml"),
     "unknown format 'xml'"),
]


@pytest.mark.parametrize("call, message",
                         [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal_names_its_cause(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_redistribution_skips_a_candidate_of_infinite_dmax(monkeypatch):
    # psi_C has spectrum (0.95, 0.05): rounding it down at gamma = 1/2 (grid
    # 1/4, scales up to 8) drops 0.05, so that omega_C misses part of the
    # support of psi_C and its D_max is infinite; the budget is the least
    # over the other candidates
    vec = np.zeros(4)
    vec[0], vec[3] = math.sqrt(0.95), math.sqrt(0.05)
    psi = tensor(PureState(RegisterSystem([("R", 2), ("C", 2)]), vec),
                 maximally_entangled("A", "B", 2))
    seen = []
    dmax = coding.dmax

    def recording(rho, sigma):
        seen.append(dmax(rho, sigma))
        return seen[-1]

    monkeypatch.setattr(coding, "dmax", recording)
    res = coding.redistribution_bounds(psi, ["R"], ["A"], ["B"], ["C"],
                                       0.1, 0.1)
    finite = [v.value for v in seen if v.finite]
    assert len(finite) < len(seen) and finite
    assert math.isfinite(res.redistribution_comm)


def test_mixture_identity_is_infinite_off_the_support():
    # a term outside the support of theta
    assert entropy.check_mixture_identity(
        [_state(1.0, 0.0), _state(0.0, 1.0)], [0.5, 0.5],
        _state(1.0, 0.0)) == math.inf
    # every term within the support tolerance, the mixture past it: a
    # weight 5e-10 above 1 (the sum's tolerance is 1e-9) lifts the mass
    # 1e-8 off theta's support over the mass tolerance of 1e-8
    assert entropy.check_mixture_identity(
        [_state(1.0 - 1e-8, 1e-8)], [1.0 + 5e-10],
        _state(1.0, 0.0)) == math.inf
