"""Set-up for the test suite: BLAS runs one thread unless the caller chose otherwise.

Importing mdocc sets the BLAS thread variables, which numpy reads when it
loads its BLAS, so mdocc is imported here, before any test module imports
numpy. On a 2-core machine one thread trains faster than OpenBLAS's default
and gives the same weights; the benchmark pins the same value.

Every test must also leave no worker process running.
"""

import mdocc  # noqa: F401  (first: it pins BLAS before numpy loads)

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    yield
    leaked = multiprocessing.active_children()
    # stopped before the test fails, so that later tests do not inherit them
    for child in leaked:
        child.terminate()
        child.join(10)
    assert not leaked, f"child processes still running after the test: {leaked}"
