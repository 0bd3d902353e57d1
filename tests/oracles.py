"""Dense oracles shared by the test modules.

The program keeps operators of the form A (x) I_f as the pair (A, f) and
reads their entries by `registers.kron_eye_entries`; the tests build them
in full here and compare against the dense result.
"""

import numpy as np

from oneshot_qit.coding import INV_SQRT_CUT, _blocks, _gathered
from oneshot_qit.entropy import _entropy_sum
from oneshot_qit.registers import _root_sum


def dense_kron_eye(factor, f):
    """factor (x) I_f as one dense array: a `PrimeEnsemble`'s base is
    dense_kron_eye(ens.base_factor, ens.f_prime), and the flat decoder's
    test is dense_kron_eye(*coding._lifted_flat_test(...))."""
    return np.kron(factor, np.eye(f))


def dense_reference_measures(ref, rho):
    """(D, F) of rho against an `entropy.Reference`, each from one plain
    dense eigvalsh of the whole matrix: the oracle of the reference's block
    route.  D is inf on a support violation."""
    terms = ref.log_terms(rho)
    d_val = float("inf") if terms is None else \
        _entropy_sum(np.linalg.eigvalsh(rho)) - terms[0] - terms[1]
    return d_val, min(_root_sum(np.linalg.eigvalsh(ref.sandwich(rho))), 1.0)


def _stacked_inv_sqrt(total):
    """S^{-1/2} on supp(S) for a stack of Hermitian S >= 0 blocks."""
    vals, vecs = np.linalg.eigh(total)
    pos = vals > INV_SQRT_CUT
    scale = np.zeros_like(vals)
    scale[pos] = 1.0 / np.sqrt(vals[pos])
    return (vecs * scale[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def inv_sqrt_successes(test, src, phase, branches, factors):
    """`coding._successes` through S^{-1/2}: on the same blocks and chunks,
    one unbounded stack per block size, and per member the products
    S^{-1/2} F_m S^{-1/2} and X_m X_m^dag, traced against each other."""
    branches = np.asarray(branches)
    n_terms, (n_members, dim) = branches.shape[1], src.shape
    touched = (factors != 0).any(axis=2)
    out = np.zeros(branches.shape)
    step = max(1, n_members * dim // n_terms)
    for start in range(0, len(branches), step):
        chunk = branches[start:start + step]
        hit = touched[chunk].any(axis=1)
        for br, idx in _blocks(test, src, chunk):
            keep = hit[br[:, None], idx].any(axis=1)
            if not keep.any():
                continue
            br, idx = br[keep], idx[keep]
            members = chunk[br].T
            total = _gathered(test, src, phase, members[0], idx)
            for m in members[1:]:
                total += _gathered(test, src, phase, m, idx)
            inv = _stacked_inv_sqrt(total)
            for j, m in enumerate(members):
                x = factors[m[:, None], idx]
                gram = x @ x.conj().swapaxes(-1, -2)
                lam = inv @ _gathered(test, src, phase, m, idx) @ inv
                np.add.at(out[start:start + step, j], br,
                          np.einsum("bij,bji->b", lam, gram).real)
    return out
