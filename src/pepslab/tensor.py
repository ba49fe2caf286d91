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
In :func:`contract`, an operand whose contracted legs already sit at its head
or tail is viewed as a matrix without a copy; one that needs a permutation is
copied one block of at most ``_BLOCK`` entries at a time, each block
multiplied straight into its rows of the output, so a step allocates its
output and one block. The engine's absorption step uses the private
``_contract_run`` instead when the boundary's contracted legs form one
contiguous run of axes, wherever it sits: the boundary is viewed as ``(head,
K, tail)``, one batched GEMM writes the layer's new legs where the run was,
and nothing but the small layer is permuted.

Both first derive, from the operands' legs alone, how they multiply
(:func:`_product`, :func:`_run`): the result's legs, the GEMM's shape, and
how each operand becomes its matrix. The derived object then executes with
numpy calls only, into an output array it is given. A caller that multiplies
many operands with the same legs derives once and writes into buffers it
owns; every GEMM is the same, so every value keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def is_real(self) -> bool:
        """Whether the data has no nonzero imaginary part; scanned once, as it is read-only."""
        return not self.data.imag.any()

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


# How an operand becomes its matrix in a product: viewed as it lies, viewed
# transposed (BLAS reads either as is), copied whole, or walked block by block.
_VIEW, _FLIP, _COPY, _WALK = range(4)


def _how(lead: list[int], tail: list[int]) -> int:
    """``_VIEW`` when the axes ``lead`` (the rows) then ``tail`` (the columns) already
    lie in that order, ``_FLIP`` when they lie in the reverse one, else ``_COPY``."""
    whole = list(range(len(lead) + len(tail)))
    return _VIEW if lead + tail == whole else _FLIP if tail + lead == whole else _COPY


def _matrix(x: np.ndarray, axes: Sequence[int], how: int, rows: int, cols: int,
            batch: int = 0) -> np.ndarray:
    """``transpose(x, axes)`` as a ``(rows, cols)`` matrix, made as ``how`` says.

    The ``batch`` leading axes of ``x`` are not in ``axes`` and stay in front:
    item ``i`` of the result is then bitwise, and laid out as, the matrix of
    ``x[i]``.
    """
    lead = x.shape[:batch]
    if how == _VIEW:
        return x.reshape(*lead, rows, cols)
    if how == _FLIP:
        return x.reshape(*lead, cols, rows).swapaxes(-1, -2)
    if batch:
        axes = [*range(batch), *(batch + i for i in axes)]
    return np.ascontiguousarray(x.transpose(axes)).reshape(*lead, rows, cols)


def _axes(legs: tuple[tuple[str, int], ...], labels: Sequence[str]) -> list[int]:
    """Positions of ``labels`` among ``legs``."""
    index = {l: i for i, (l, _) in enumerate(legs)}
    try:
        return [index[l] for l in labels]
    except KeyError as missing:
        raise KeyError(f"no leg labeled {missing.args[0]!r} (have {tuple(index)})") from None


def _blocked_matmul(x: np.ndarray, axes: list[int], other: np.ndarray, out: np.ndarray) -> None:
    """``out = transpose(x, axes)``, viewed as ``(rows, k)``, times ``other`` ``(k, n)``.

    The permuted operand is never copied whole. Its leading axes are walked in
    blocks of at most ``_BLOCK`` entries; each block is copied into one
    scratch block, made once per walk, and multiplied straight into its rows
    of ``out``. When one row alone exceeds a block (a pairing to a scalar),
    the walk goes on into the contracted axes and each row sums its partial
    products.
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
    scratch = np.empty(min(_BLOCK, p.size), dtype=p.dtype)
    pos = 0
    for idx in np.ndindex(*p.shape[:walk]):
        for start in range(0, p.shape[walk], step):
            part = p[idx + (slice(start, start + step),)]
            block = scratch[:part.size]
            np.copyto(block.reshape(part.shape), part)
            row, col = divmod(pos, k)
            if block.size % k == 0:
                backend.matmul(block.reshape(-1, k), other, out=out[row:row + block.size // k])
            elif col == 0:
                out[row] = backend.matmul(block[None], other[:block.size])[0]
            else:
                out[row] += backend.matmul(block[None], other[col:col + block.size])[0]
            pos += block.size


@dataclass(eq=False, slots=True)
class _Run:
    """How :func:`_contract_run` multiplies operands with given legs, derived from the legs alone.

    ``a`` is viewed as ``(head, k, tail)`` and the product, with legs ``legs``
    (``shape`` their dims, ``size`` entries), as ``(head, n, tail)``. ``perm``
    orders b's axes into its ``(k, n)`` matrix.
    """

    legs: tuple[tuple[str, int], ...]
    shape: tuple[int, ...]
    size: int
    head: int
    k: int
    n: int
    tail: int
    perm: list[int]

    def operand(self, b: np.ndarray, batch: int = 0) -> np.ndarray:
        """``b`` as the product's right operand, a C-ordered ``(k, n)`` matrix
        (``batch`` leading axes stay in front, see :func:`_matrix`)."""
        return _matrix(b, self.perm, _COPY, self.k, self.n, batch)

    def into(self, a: np.ndarray, mat: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out``, a C-ordered array of ``shape``, set to ``a`` times ``mat = operand(b)``."""
        if self.tail == 1:
            backend.matmul(a.reshape(self.head, self.k), mat, out=out.reshape(self.head, self.n))
        else:
            backend.matmul(mat.T, a.reshape(self.head, self.k, self.tail),
                           out=out.reshape(self.head, self.n, self.tail))
        return out


def _run(a_legs: tuple[tuple[str, int], ...], b_legs: tuple[tuple[str, int], ...],
         labels: Sequence[str], free: Sequence[str]) -> _Run | None:
    """The :class:`_Run` of :func:`_contract_run` on operands with these legs, or None
    when ``labels`` do not sit at one contiguous run of a's axes."""
    a_axis = {l: i for i, (l, _) in enumerate(a_legs)}
    axes = sorted([a_axis[l] for l in labels])
    start = axes[0] if axes else len(a_legs)
    stop = start + len(axes)
    if axes and axes[-1] != stop - 1:
        return None
    run = a_legs[start:stop]
    b_axis = {l: i for i, (l, _) in enumerate(b_legs)}
    perm = [b_axis[l] for l, _ in run] + [b_axis[l] for l in free]
    if tuple([b_legs[i] for i in perm[:len(run)]]) != run:
        raise ValueError(f"dim mismatch contracting {run} with {b_legs}")
    new = tuple([b_legs[i] for i in perm[len(run):]])
    legs = a_legs[:start] + new + a_legs[stop:]
    dims = [d for _, d in a_legs]
    head, n, tail = math.prod(dims[:start]), math.prod([d for _, d in new]), math.prod(dims[stop:])
    return _Run(legs, tuple([d for _, d in legs]), head * n * tail, head,
                math.prod(dims[start:stop]), n, tail, perm)


def _contract_run(a: Tensor, b: Tensor, labels: Sequence[str],
                  free: Sequence[str]) -> Tensor | None:
    """``a`` contracted with ``b`` over ``labels``, with b's ``free`` legs in their place.

    ``labels`` name legs of both tensors, ``free`` the rest of b's legs, in the
    order they are to take. When ``labels`` sit at a contiguous run of a's
    axes, ``a`` is viewed as ``(head, K, tail)`` with ``K`` that run, and ``b``
    is copied to a ``(K, N)`` matrix, its rows in the run's order and its
    columns in the order of ``free``. One batched product ``b.T @ a`` (one
    GEMM on 2-D views when ``tail`` is 1) writes ``(head, N, tail)``: the
    result's legs are a's, with the run replaced by ``free``. ``a`` is
    multiplied as a view, never permuted. No labels make an empty run at a's
    tail. Returns None when the run is not contiguous. The layout is derived
    from the legs by :func:`_run`, then executed by :meth:`_Run.into`.
    """
    run = _run(a.legs, b.legs, labels, free)
    if run is None:
        return None
    out = np.empty(run.shape, dtype=np.result_type(a.data, b.data))
    return Tensor._trusted(run.legs, run.into(a.data, run.operand(b.data), out))


@dataclass(eq=False, slots=True)
class _Product:
    """How :func:`contract` multiplies operands with given legs, derived from the legs alone.

    The product is the ``(m, k) @ (k, n)`` GEMM, with legs ``legs`` (``shape``
    their dims, ``size`` entries). ``a_how`` and ``b_how`` say how each
    operand becomes its matrix, or that it is walked (see
    :func:`_blocked_matmul`); ``a_axes`` lists a's axes in the matrix's order
    (free, then contracted), and ``b_axes`` b's (contracted, then free; free
    first when b is walked).
    """

    legs: tuple[tuple[str, int], ...]
    shape: tuple[int, ...]
    size: int
    m: int
    k: int
    n: int
    a_axes: list[int]
    a_how: int
    b_axes: list[int]
    b_how: int

    def operand(self, b: np.ndarray, batch: int = 0) -> np.ndarray:
        """``b`` as the product's right operand: its ``(k, n)`` matrix, or ``b``
        itself when it is walked (``batch`` leading axes stay in front, see
        :func:`_matrix`)."""
        if self.b_how == _WALK:
            return b
        return _matrix(b, self.b_axes, self.b_how, self.k, self.n, batch)

    def into(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out``, a C-ordered array of ``shape``, set to ``a`` times ``b = operand(b)``."""
        mat = out.reshape(self.m, self.n)
        if self.a_how == _WALK:
            _blocked_matmul(a, self.a_axes, b, mat)
        else:
            a = _matrix(a, self.a_axes, self.a_how, self.m, self.k)
            if self.b_how == _WALK:
                # out.T = b^T a^T: the walk over b writes blocks of columns of out
                _blocked_matmul(b, self.b_axes, a.T, mat.T)
            else:
                backend.matmul(a, b, out=mat)
        return out


def _product(a_legs: tuple[tuple[str, int], ...], b_legs: tuple[tuple[str, int], ...],
             pairs: Sequence[tuple[str, str]]) -> _Product:
    """The :class:`_Product` of :func:`contract` on operands with these legs."""
    a_con = [p[0] for p in pairs]
    b_con = [p[1] for p in pairs]
    if len(set(a_con)) != len(a_con) or len(set(b_con)) != len(b_con):
        raise ValueError(f"repeated legs in contraction pairs {pairs}")
    a_ax, b_ax = _axes(a_legs, a_con), _axes(b_legs, b_con)
    a_dims = [d for _, d in a_legs]
    b_dims = [d for _, d in b_legs]
    k = 1
    for i, j in zip(a_ax, b_ax):
        if a_dims[i] != b_dims[j]:
            raise ValueError(f"dim mismatch contracting {a_legs[i][0]!r} ({a_dims[i]}) "
                             f"with {b_legs[j][0]!r} ({b_dims[j]})")
        k *= a_dims[i]
    a_free = [i for i in range(len(a_legs)) if i not in a_ax]
    b_free = [i for i in range(len(b_legs)) if i not in b_ax]
    legs = tuple([a_legs[i] for i in a_free] + [b_legs[i] for i in b_free])
    overlap = {a_legs[i][0] for i in a_free} & {b_legs[i][0] for i in b_free}
    if overlap:
        raise ValueError(f"result would carry duplicate labels {sorted(overlap)}")

    m, n = math.prod([a_dims[i] for i in a_free]), math.prod([b_dims[i] for i in b_free])
    # the contracted legs take their order in the larger operand (m k against k n entries)
    a_big = m >= n
    perm = sorted(range(len(pairs)), key=(a_ax if a_big else b_ax).__getitem__)
    a_ax = [a_ax[i] for i in perm]
    b_ax = [b_ax[i] for i in perm]
    a_how, b_how = _how(a_free, a_ax), _how(b_ax, b_free)
    # an operand that is no view is walked; when both are not, the larger is
    if a_how == _COPY and (b_how != _COPY or a_big):
        a_how = _WALK
    elif b_how == _COPY:
        b_how = _WALK
    return _Product(legs, tuple([d for _, d in legs]), m * n, m, k, n, a_free + a_ax, a_how,
                    b_free + b_ax if b_how == _WALK else b_ax + b_free, b_how)


def contract(a: Tensor, b: Tensor, pairs: Sequence[tuple[str, str]]) -> Tensor:
    """Contract ``a`` with ``b`` over label pairs ``(leg_of_a, leg_of_b)``.

    One matrix product by the backend GEMM; result legs are a's free legs
    followed by b's. The contracted legs take their order in the larger
    operand, so that it is multiplied as a view when they sit at its head or
    tail. An operand that needs a permutation is walked block by block; when
    both do, the smaller one is copied whole. The result is a new read-only
    array of the operands' common type (``np.result_type``) that shares no
    buffer with ``a`` or ``b``. The layout is derived from the legs by
    :func:`_product`, then executed by :meth:`_Product.into`.
    """
    p = _product(a.legs, b.legs, pairs)
    out = np.empty(p.shape, dtype=np.result_type(a.data, b.data))
    return Tensor._trusted(p.legs, p.into(a.data, p.operand(b.data), out))


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
        "data": np.stack([flat.real, flat.imag], axis=1).tolist(),
    }


def from_literal(obj: dict) -> Tensor:
    """Tensor of a literal from :func:`to_literal`, bitwise.

    The pairs are parsed by one numpy call; only when that fails does a loop
    look for the first entry that is not a ``[re, im]`` pair, to name it.
    """
    if not isinstance(obj, dict) or "legs" not in obj or "data" not in obj:
        raise ValueError("tensor literal must have 'legs' and 'data'")
    legs = _as_legs((leg["label"], leg["dim"]) for leg in obj["legs"])
    expected = int(np.prod([d for _, d in legs], dtype=np.int64)) if legs else 1
    raw = obj["data"]
    if len(raw) != expected:
        raise ValueError(f"data length {len(raw)} does not match leg dims (expected {expected})")
    try:
        pairs = np.array(raw, dtype=np.float64)
    except (TypeError, ValueError):
        pairs = None
    if pairs is None or pairs.shape != (expected, 2):
        for i, pair in enumerate(raw):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError(f"data entry {i} is not a [re, im] pair")
            float(pair[0]), float(pair[1])  # raises on the first part that is no number
        raise ValueError("data entries are not [re, im] pairs of numbers")
    # (re, im) float64 pairs are complex128 entries in memory, so the view is bitwise
    return Tensor(legs, pairs.view(np.complex128).reshape([d for _, d in legs]))
