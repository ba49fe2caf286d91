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

