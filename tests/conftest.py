"""Test-session setup.

BLAS runs on one thread unless the caller chose otherwise.  The operands in
this suite are small, and a threaded BLAS spends more time synchronising its
threads than multiplying them.  These must be set before numpy is imported.

Every test starts with the prefix the contraction engine remembers dropped,
so no test's work or memory depends on the tests that ran before it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from pepslab import contraction


@pytest.fixture(autouse=True)
def _no_remembered_prefix():
    """Start every test with the engine's prefix slot empty, whatever ran before."""
    contraction._last_prefix = None
