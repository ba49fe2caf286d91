"""The two numeric kernels: the matrix product and the tile count.

There is one implementation of each, in numpy, and no option selects another.
The module and its three names stay only for the benchmark: ``pepsbench``
records ``backend_name()`` with every run and traces ``backend.matmul`` and
``backend.count_tilings`` as layers of their own.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, always ``numpy``."""
    return "numpy"


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product, written into ``out`` when it is given.

    Inputs are 2-D float64 or complex128 arrays, and the product has their
    common type: two real operands make a real GEMM. They are not copied: a
    C- or Fortran-ordered view, such as a transposed matrix or a slice of
    rows, goes to BLAS as it is. ``out`` must be a C-ordered array of the
    product's shape and type, for instance a block of rows of a larger
    output. This is the single multiply primitive behind every tensor
    contraction in the package.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return np.matmul(a, b, out=out)


def count_tilings(left, top, right, bottom, rows: int, cols: int) -> int:
    """Color-matched tile assignments of the rows x cols torus, counted exactly.

    ``left/top/right/bottom`` are integer color arrays indexed by tile id. A
    row state is a cyclic row of tiles whose touching sides match; T[i, j] is 1
    when row state j fits below row state i, and the count is trace(T**rows).
    The board is transposed so that row states run along the shorter side.
    Entries of every power of T count partial tilings, so the int64 arithmetic
    is exact while t**(rows*cols) < 2**63; callers keep it there.
    """
    sides = np.array([left, top, right, bottom], dtype=np.int64).reshape(4, -1)
    if cols > rows:
        # reflect in the diagonal: left <-> top, right <-> bottom
        sides, rows, cols = sides[[1, 0, 3, 2]], cols, rows
    left, top, right, bottom = sides
    cand = np.indices((sides.shape[1],) * cols).reshape(cols, -1)
    states = cand[:, np.all(right[cand] == left[np.roll(cand, -1, axis=0)], axis=0)]
    fits = np.all(bottom[states][:, :, None] == top[states][:, None, :], axis=0)
    return int(np.trace(np.linalg.matrix_power(fits.astype(np.int64), rows)))
