"""Dense labeled tensors and the contraction primitives everything else builds on.

A :class:`Tensor` couples a row-major complex array with an ordered tuple of
``(label, dim)`` legs. Labels, not positions, identify legs in every public
operation, so callers never track axis permutations by hand. Tensors are
value-like: operations return new instances and the stored array is read-only.

Pairwise contraction is implemented as permute -> fuse -> matrix multiply, with
the multiply done by :func:`pepslab.backend.matmul`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import backend


class NonInjectiveError(ValueError):
    """Raised when a map is numerically rank-deficient where injectivity is required."""


RANK_TOL = 1e-14


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
    """Labeled dense tensor with row-major complex128 storage."""

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


def fuse_legs(t: Tensor, group: Sequence[str], new_label: str) -> Tensor:
    """Fuse ``group`` (in the given order) into one leg placed at the group's first slot.

    The fused index is row-major over the group, so splitting with the original
    sub-leg list is an exact inverse.
    """
    if not group:
        raise ValueError("empty fuse group")
    axes = [t.axis(l) for l in group]
    rest = [i for i in range(len(t.legs)) if i not in axes]
    insert = sum(1 for i in rest if i < axes[0])
    order = rest[:insert] + axes + rest[insert:]
    moved = np.ascontiguousarray(np.transpose(t.data, order))
    fused_dim = int(np.prod([t.legs[a][1] for a in axes], dtype=np.int64))
    legs = (
        tuple(t.legs[i] for i in rest[:insert])
        + ((new_label, fused_dim),)
        + tuple(t.legs[i] for i in rest[insert:])
    )
    return Tensor(legs, moved.reshape([d for _, d in legs]))


def split_leg(t: Tensor, label: str, sublegs: Iterable) -> Tensor:
    """Split one leg into ``sublegs``; inverse of :func:`fuse_legs` for matching dims."""
    sublegs = _as_legs(sublegs)
    ax = t.axis(label)
    if int(np.prod([d for _, d in sublegs], dtype=np.int64)) != t.legs[ax][1]:
        raise ValueError(f"cannot split dim {t.legs[ax][1]} into {sublegs}")
    legs = t.legs[:ax] + sublegs + t.legs[ax + 1 :]
    return Tensor(legs, t.data.reshape([d for _, d in legs]))


def contract(a: Tensor, b: Tensor, pairs: Sequence[tuple[str, str]]) -> Tensor:
    """Contract ``a`` with ``b`` over label pairs ``(leg_of_a, leg_of_b)``.

    Implemented as permute -> fuse -> matmul: contracted legs of ``a`` move to
    its tail and those of ``b`` to its head, both sides fuse, and the backend
    GEMM does the sum. Result legs are a's free legs followed by b's.
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
    a_free = [l for l in a.labels if l not in a_con]
    b_free = [l for l in b.labels if l not in b_con]
    overlap = set(a_free) & set(b_free)
    if overlap:
        raise ValueError(f"result would carry duplicate labels {sorted(overlap)}")

    ap = np.transpose(a.data, [a.axis(l) for l in a_free + a_con])
    bp = np.transpose(b.data, [b.axis(l) for l in b_con + b_free])
    m = int(np.prod([a.dim(l) for l in a_free], dtype=np.int64))
    k = int(np.prod([a.dim(l) for l in a_con], dtype=np.int64))
    n = int(np.prod([b.dim(l) for l in b_free], dtype=np.int64))
    out = backend.matmul(ap.reshape(m, k), bp.reshape(k, n))
    legs = tuple((l, a.dim(l)) for l in a_free) + tuple((l, b.dim(l)) for l in b_free)
    return Tensor(legs, out.reshape([d for _, d in legs]))


def trace_pairs(t: Tensor, pairs: Sequence[tuple[str, str]]) -> Tensor:
    """Trace out pairs of legs of a single tensor (used to close wrapped bonds)."""
    out = t
    for la, lb in pairs:
        if out.dim(la) != out.dim(lb):
            raise ValueError(f"trace dim mismatch {la!r}/{lb!r}")
        i, j = out.axis(la), out.axis(lb)
        data = np.trace(out.data, axis1=i, axis2=j)
        legs = tuple(leg for k, leg in enumerate(out.legs) if k not in (i, j))
        out = Tensor(legs, np.ascontiguousarray(data))
    return out


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
