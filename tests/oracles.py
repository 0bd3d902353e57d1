"""Dense oracles shared by the test modules.

The program keeps operators of the form A (x) I_f as the pair (A, f) and
reads their entries by `registers.kron_eye_entries`; the tests build them
in full here and compare against the dense result.
"""

import numpy as np


def dense_kron_eye(factor, f):
    """factor (x) I_f as one dense array: a `PrimeEnsemble`'s base is
    dense_kron_eye(ens.base_factor, ens.f_prime), and the flat decoder's
    test is dense_kron_eye(*coding._lifted_flat_test(...))."""
    return np.kron(factor, np.eye(f))
