"""The numpy kernels: the complex matrix product and the transfer-matrix tile count."""

import numpy as np
import pytest

from pepslab import backend

from oracles import count_tilings_python, random_tileset


def test_backend_name_is_numpy():
    assert backend.backend_name() == "numpy"


@pytest.mark.parametrize("shape", [(4, 4, 4), (3, 7, 2), (1, 5, 6)])
def test_matmul_backends_agree_with_numpy_operator(shape):
    m, k, n = shape
    rng = np.random.default_rng(11)
    a = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
    b = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
    np.testing.assert_allclose(backend.matmul(a, b), a @ b, atol=1e-13)


def test_matmul_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        backend.matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape mismatch"):
        backend.matmul(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError, match="shape mismatch"):
        backend.matmul(np.zeros((2, 3)), np.zeros((5, 2, 4)))  # stack of (2, 4)
    with pytest.raises(ValueError, match="shape mismatch"):
        backend.matmul(np.zeros((5, 2, 3)), np.zeros((3, 4)))  # stacked left operand
    with pytest.raises(ValueError, match="shape mismatch"):
        backend.matmul(np.zeros((2, 3)), np.zeros((1, 5, 3, 4)))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_matmul_multiplies_a_stacked_right_operand_into_out(dtype):
    # (m, k) times each of (s, k, n), written into a C-ordered (s, m, n)
    rng = np.random.default_rng(12)
    a = rng.normal(size=(4, 3)).astype(dtype)
    b = rng.normal(size=(5, 3, 6)).astype(dtype)
    out = np.empty((5, 4, 6), dtype=dtype)
    assert backend.matmul(a.T.copy().T, b, out=out) is out  # a Fortran-ordered view
    np.testing.assert_allclose(out, np.stack([a @ m for m in b]), atol=1e-13)
    with pytest.raises(ValueError):
        backend.matmul(a, b, out=np.empty((5, 6, 4), dtype=dtype))


def _sides(ts):
    tiles = np.array(ts.tiles, dtype=np.int64)
    return tiles[:, 0], tiles[:, 1], tiles[:, 2], tiles[:, 3]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_count_tilings_backends_match_python_anchor(seed):
    ts = random_tileset(seed, count=3, colors=2)
    out = backend.count_tilings(*_sides(ts), 2, 3)
    assert type(out) is int
    assert out == count_tilings_python(ts, 2, 3)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_count_tilings_on_non_square_boards(seed):
    # boards wider than tall are transposed before counting, so each pair
    # below counts one board directly and its mirror image transposed
    ts = random_tileset(seed, count=4, colors=2)
    for rows, cols in ((2, 3), (3, 2), (1, 4), (4, 1)):
        want = count_tilings_python(ts, rows, cols)
        assert backend.count_tilings(*_sides(ts), rows, cols) == want, (rows, cols)

