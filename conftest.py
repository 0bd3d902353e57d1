"""Test-session set-up shared by every test directory.

OpenBLAS and MKL read their thread counts once, when numpy loads them, and
pytest imports this file before any test module imports numpy.  One BLAS
thread per process keeps two numerical processes on a small machine from
oversubscribing its cores; a value already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
