"""Dense labeled tensors and the contraction primitives everything else builds on.

A :class:`Tensor` couples a row-major array with an ordered tuple of
``(label, dim)`` legs. Labels, not positions, identify legs in every public
operation, so callers never track axis permutations by hand. Tensors are
value-like: operations return new instances and the stored array is read-only.

The public constructor copies its input into complex128 and checks its legs
and finiteness. Results of :func:`contract` are built by the private
``Tensor._trusted`` instead: the freshly computed array, float64 or
complex128, is frozen in place, with no copy and no scan, and the contraction
engine checks its final values once. A contraction's result has the common
type of its operands, so real operands give a real product.

Pairwise contraction is a matrix multiply by :func:`pepslab.backend.matmul`.
An operand whose contracted legs already sit at its head or tail is viewed as
a matrix without a copy; one that needs a permutation is copied one block of
at most ``_BLOCK`` entries at a time, each block multiplied straight into its
rows of the output, so a step allocates its output and one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import backend


class NonInjectiveError(ValueError):
    """Raised when a map is numerically rank-deficient where injectivity is required."""


RANK_TOL = 1e-14

# Entries of one permuted block in :func:`contract`: 2**14 entries, 128 KiB of
# float64 or 256 KiB of complex128, small enough to stay in cache between its
# copy and its GEMM.
_BLOCK = 1 << 14


def _as_legs(legs: Iterable) -> tuple[tuple[str, int], ...]:
    out = []
    for leg in legs:
        label, dim = leg
        label = str(label)
        dim = int(dim)
        if not label:
            raise ValueError("leg labels must be non-empty strings")
        if dim <= 0:
            raise ValueError(f"leg {label!r} has non-positive dim {dim}")
        out.append((label, dim))
    labels = [l for l, _ in out]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate leg labels: {labels}")
    return tuple(out)


@dataclass(frozen=True)
class Tensor:
    """Labeled dense tensor with row-major storage: complex128, or float64 from the engine."""

    legs: tuple[tuple[str, int], ...]
    data: np.ndarray

    def __init__(self, legs: Iterable, data) -> None:
        legs = _as_legs(legs)
        # np.array keeps 0-d shapes (ascontiguousarray promotes them to 1-d)
        # and the copy means setflags below never freezes a caller's array.
        arr = np.array(data, dtype=np.complex128, order="C", copy=True)
        dims = tuple(d for _, d in legs)
        if arr.shape != dims:
            if arr.size == int(np.prod(dims, dtype=np.int64)) and arr.ndim <= 1:
                arr = arr.reshape(dims)
            else:
                raise ValueError(f"data shape {arr.shape} does not match leg dims {dims}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _trusted(cls, legs: tuple[tuple[str, int], ...], arr: np.ndarray) -> Tensor:
        """Engine result: a fresh ``arr`` that nothing else holds, frozen in place.

        ``arr`` is float64 or complex128. There is no finiteness scan, and no
        copy unless ``arr`` is not C-ordered (a transposed view); ``legs`` must
        already be valid.
        """
        arr = np.ascontiguousarray(arr).reshape([d for _, d in legs])
        arr.setflags(write=False)
        t = object.__new__(cls)
        object.__setattr__(t, "legs", legs)
        object.__setattr__(t, "data", arr)
        return t

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.legs)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.legs)

    def dim(self, label: str) -> int:
        return self.legs[self.axis(label)][1]

    def axis(self, label: str) -> int:
        for i, (l, _) in enumerate(self.legs):
            if l == label:
                return i
        raise KeyError(f"no leg labeled {label!r} (have {self.labels})")

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> complex:
        if self.legs:
            raise ValueError(f"item() on non-scalar tensor with legs {self.labels}")
        return complex(self.data)

    def conj(self) -> Tensor:
        return Tensor(self.legs, np.conj(self.data))

    def scaled(self, factor: complex) -> Tensor:
        return Tensor(self.legs, self.data * factor)

    def relabeled(self, mapping: dict[str, str]) -> Tensor:
        legs = tuple((mapping.get(l, l), d) for l, d in self.legs)
        return Tensor(legs, self.data)

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.data.ravel()))


def scalar(value: complex) -> Tensor:
    return Tensor((), np.asarray(value, dtype=np.complex128))


def permute_legs(t: Tensor, order: Sequence) -> Tensor:
    """Reorder legs to ``order`` (labels or positional indices)."""
    if len(order) != len(t.legs):
        raise ValueError(f"permutation of length {len(order)} for {len(t.legs)} legs")
    axes = [o if isinstance(o, int) else t.axis(o) for o in order]
    if sorted(axes) != list(range(len(t.legs))):
        raise ValueError(f"{order!r} is not a permutation of {t.labels}")
    legs = tuple(t.legs[a] for a in axes)
    return Tensor(legs, np.ascontiguousarray(np.transpose(t.data, axes)))


def split_leg(t: Tensor, label: str, sublegs: Iterable) -> Tensor:
    """Split one leg into row-major ``sublegs`` whose dims multiply to its dim."""
    sublegs = _as_legs(sublegs)
    ax = t.axis(label)
    if int(np.prod([d for _, d in sublegs], dtype=np.int64)) != t.legs[ax][1]:
        raise ValueError(f"cannot split dim {t.legs[ax][1]} into {sublegs}")
    legs = t.legs[:ax] + sublegs + t.legs[ax + 1 :]
    return Tensor(legs, t.data.reshape([d for _, d in legs]))


def _view(x: np.ndarray, lead: list[int], tail: list[int]) -> np.ndarray | None:
    """``x`` as a matrix with ``lead`` axes as rows and ``tail`` as columns, or None.

    Only a copy-free view is returned: the groups must already sit in that
    order, or in the reverse one (a transposed view, which BLAS reads as is).
    """
    rows = math.prod(x.shape[i] for i in lead)
    cols = math.prod(x.shape[i] for i in tail)
    if lead + tail == list(range(x.ndim)):
        return x.reshape(rows, cols)
    if tail + lead == list(range(x.ndim)):
        return x.reshape(cols, rows).T
    return None


def _blocked_matmul(x: np.ndarray, axes: list[int], other: np.ndarray, out: np.ndarray) -> None:
    """``out = transpose(x, axes)``, viewed as ``(rows, k)``, times ``other`` ``(k, n)``.

    The permuted operand is never copied whole. Its leading axes are walked in
    blocks of at most ``_BLOCK`` entries; each block is copied and multiplied
    straight into its rows of ``out``. When one row alone exceeds a block (a
    pairing to a scalar), the walk goes on into the contracted axes and each
    row sums its partial products.
    """
    p = x.transpose(axes)
    k = other.shape[0]
    # the axes from `split` on fit in one block; chunks of the axis before it fill one
    split, inner = p.ndim, 1
    while split > 0 and inner * p.shape[split - 1] <= _BLOCK:
        split -= 1
        inner *= p.shape[split]
    walk = max(split - 1, 0)
    step = _BLOCK // math.prod(p.shape[walk + 1:])
    pos = 0
    for idx in np.ndindex(*p.shape[:walk]):
        for start in range(0, p.shape[walk], step):
            block = np.ascontiguousarray(p[idx + (slice(start, start + step),)]).reshape(-1)
            row, col = divmod(pos, k)
            if block.size % k == 0:
                backend.matmul(block.reshape(-1, k), other, out=out[row:row + block.size // k])
            elif col == 0:
                out[row] = backend.matmul(block[None], other[:block.size])[0]
            else:
                out[row] += backend.matmul(block[None], other[col:col + block.size])[0]
            pos += block.size


def contract(a: Tensor, b: Tensor, pairs: Sequence[tuple[str, str]]) -> Tensor:
    """Contract ``a`` with ``b`` over label pairs ``(leg_of_a, leg_of_b)``.

    One matrix product by the backend GEMM; result legs are a's free legs
    followed by b's. The contracted legs take their order in the larger
    operand, so that it is multiplied as a view when they sit at its head or
    tail. An operand that needs a permutation is walked block by block; when
    both do, the smaller one is copied whole. The result is a new read-only
    array of the operands' common type (``np.result_type``) that shares no
    buffer with ``a`` or ``b``.
    """
    a_con = [p[0] for p in pairs]
    b_con = [p[1] for p in pairs]
    if len(set(a_con)) != len(a_con) or len(set(b_con)) != len(b_con):
        raise ValueError(f"repeated legs in contraction pairs {pairs}")
    for la, lb in pairs:
        if a.dim(la) != b.dim(lb):
            raise ValueError(
                f"dim mismatch contracting {la!r} ({a.dim(la)}) with {lb!r} ({b.dim(lb)})"
            )
    a_ax = [a.axis(l) for l in a_con]
    b_ax = [b.axis(l) for l in b_con]
    a_free = [i for i in range(len(a.legs)) if i not in a_ax]
    b_free = [i for i in range(len(b.legs)) if i not in b_ax]
    legs = tuple(a.legs[i] for i in a_free) + tuple(b.legs[i] for i in b_free)
    overlap = {a.legs[i][0] for i in a_free} & {b.legs[i][0] for i in b_free}
    if overlap:
        raise ValueError(f"result would carry duplicate labels {sorted(overlap)}")

    a_big = a.size >= b.size
    perm = sorted(range(len(pairs)), key=(a_ax if a_big else b_ax).__getitem__)
    a_ax = [a_ax[i] for i in perm]
    b_ax = [b_ax[i] for i in perm]
    m = math.prod(a.legs[i][1] for i in a_free)
    n = math.prod(b.legs[i][1] for i in b_free)
    a_mat = _view(a.data, a_free, a_ax)
    b_mat = _view(b.data, b_ax, b_free)
    if a_mat is None and b_mat is None:  # copy the smaller whole, walk the larger
        if a_big:
            b_mat = np.ascontiguousarray(b.data.transpose(b_ax + b_free)).reshape(-1, n)
        else:
            a_mat = np.ascontiguousarray(a.data.transpose(a_free + a_ax)).reshape(m, -1)
    out = np.empty((m, n), dtype=np.result_type(a.data, b.data))
    if a_mat is None:
        _blocked_matmul(a.data, a_free + a_ax, b_mat, out)
    elif b_mat is None:
        # out.T = b^T a^T: the walk over b writes blocks of columns of out
        _blocked_matmul(b.data, b_free + b_ax, a_mat.T, out.T)
    else:
        backend.matmul(a_mat, b_mat, out=out)
    return Tensor._trusted(legs, out)


def matrix_view(t: Tensor, row_legs: Sequence[str], col_legs: Sequence[str]) -> np.ndarray:
    """Reshape to a matrix with the given row/col leg groups (row-major within each)."""
    if sorted(list(row_legs) + list(col_legs)) != sorted(t.labels):
        raise ValueError(
            f"row {list(row_legs)} + col {list(col_legs)} must partition legs {t.labels}"
        )
    perm = [t.axis(l) for l in list(row_legs) + list(col_legs)]
    m = int(np.prod([t.dim(l) for l in row_legs], dtype=np.int64)) if row_legs else 1
    n = int(np.prod([t.dim(l) for l in col_legs], dtype=np.int64)) if col_legs else 1
    return np.ascontiguousarray(np.transpose(t.data, perm)).reshape(m, n)


def from_matrix(m, row_legs: Iterable, col_legs: Iterable) -> Tensor:
    """Inverse of :func:`matrix_view` for explicit ``(label, dim)`` leg lists."""
    legs = _as_legs(list(row_legs) + list(col_legs))
    return Tensor(legs, np.asarray(m, dtype=np.complex128).reshape([d for _, d in legs]))


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values of one matrix view of a tensor, sorted descending."""

    values: np.ndarray

    @property
    def largest(self) -> float:
        return float(self.values[0])

    @property
    def smallest(self) -> float:
        return float(self.values[-1])


def singular_values(t: Tensor, row_legs: Sequence[str], col_legs: Sequence[str]) -> SingularSpectrum:
    mat = matrix_view(t, row_legs, col_legs)
    vals = np.linalg.svd(mat, compute_uv=False)
    return SingularSpectrum(values=np.sort(vals)[::-1])


def condition_number(t: Tensor, row_legs: Sequence[str], col_legs: Sequence[str]) -> float:
    """sigma_1 / sigma_min over the min(rows, cols) singular values.

    Rank deficiency is a structural signal here, not a large number: a smallest
    singular value at or below ``RANK_TOL * sigma_1`` raises
    :class:`NonInjectiveError`.
    """
    s = singular_values(t, row_legs, col_legs).values
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
        raise NonInjectiveError("map is numerically rank-deficient (non-injective)")
    return float(s[0] / s[-1])


# ---------------------------------------------------------------------------
# JSON tensor literals


def to_literal(t: Tensor) -> dict:
    """JSON-ready literal: legs plus flat row-major data as [re, im] pairs."""
    flat = t.data.ravel()
    return {
        "legs": [{"label": l, "dim": d} for l, d in t.legs],
        "data": [[float(v.real), float(v.imag)] for v in flat],
    }


def from_literal(obj: dict) -> Tensor:
    if not isinstance(obj, dict) or "legs" not in obj or "data" not in obj:
        raise ValueError("tensor literal must have 'legs' and 'data'")
    legs = _as_legs((leg["label"], leg["dim"]) for leg in obj["legs"])
    expected = int(np.prod([d for _, d in legs], dtype=np.int64)) if legs else 1
    raw = obj["data"]
    if len(raw) != expected:
        raise ValueError(f"data length {len(raw)} does not match leg dims (expected {expected})")
    flat = np.empty(expected, dtype=np.complex128)
    for i, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"data entry {i} is not a [re, im] pair")
        flat[i] = complex(float(pair[0]), float(pair[1]))
    return Tensor(legs, flat.reshape([d for _, d in legs]) if legs else flat.reshape(()))
