"""Test-session setup.

BLAS runs on one thread unless the caller chose otherwise.  The operands in
this suite are small, and a threaded BLAS spends more time synchronising its
threads than multiplying them.  These must be set before numpy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
