"""Set-up for the test suite: BLAS runs one thread unless the caller chose otherwise.

The variables are read when numpy loads its BLAS, so they are set here,
before any test module imports numpy. On a 2-core machine one thread trains
faster than OpenBLAS's default and gives the same weights; the benchmark
pins the same value.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
