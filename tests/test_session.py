"""The test session runs numpy's BLAS on one thread unless told otherwise."""

import ctypes
import glob
import os

import numpy as np

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_threads():
    """Thread count of numpy's bundled OpenBLAS; None without that library."""
    libdir = os.path.realpath(os.path.join(os.path.dirname(np.__file__),
                                           os.pardir, "numpy.libs"))
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_",
                         None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return getter()
    return None


def test_blas_threads_pinned_before_numpy_loads():
    for name in _THREAD_VARS:
        assert name in os.environ
    threads = _openblas_threads()
    if threads is not None:
        # OpenBLAS reads the variable only when it loads, so this also shows
        # that the variable was set before numpy was imported
        assert threads == int(os.environ["OPENBLAS_NUM_THREADS"])
