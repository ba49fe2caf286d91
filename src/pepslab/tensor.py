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

Legs never change, so a tensor's leg lookups are made once, when it is made:
``labels`` is a tuple stored beside ``legs``, :meth:`Tensor.axis` is that
tuple's ``index`` (a scan in C over a handful of legs, which costs less than
a dict built for every tensor, most of them engine intermediates that are
never looked up), and ``dims`` is the array's shape. :func:`matrix_view`
makes no copy when the row and column legs are the legs in their order.

Pairwise contraction is a matrix multiply by :func:`pepslab.backend.matmul`,
derived in one way. :func:`_run` reads, from the operands' legs alone, where
the contracted legs of ``a`` sit. When they form one contiguous run of its
axes, wherever it sits, ``a`` is viewed as ``(head, K, tail)`` and one batched
GEMM writes b's free legs where the run was; nothing but ``b`` is permuted.
When they do not, the derived :class:`_Run` records a permutation of ``a``
that moves them to its tail, in a's order, and ``a`` is copied once before
the same GEMM. :func:`contract` is this with the run always at a's tail, so
its result has a's free legs, then b's.

The derived :class:`_Run` then executes with numpy calls only, into an output
array it is given (and a scratch buffer for a permuted copy, if given). A
caller that multiplies many operands with the same legs derives once and
writes into buffers it owns; every GEMM is the same, so every value keeps its
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import backend


class NonInjectiveError(ValueError):
    """Raised when a map is numerically rank-deficient where injectivity is required."""


RANK_TOL = 1e-14


def _split(legs: tuple[tuple[str, int], ...]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The labels and the dims of ``legs``, as two tuples."""
    return tuple(zip(*legs)) if legs else ((), ())


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
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, legs: Iterable, data) -> None:
        legs = _as_legs(legs)
        # np.array keeps 0-d shapes (ascontiguousarray promotes them to 1-d)
        # and the copy means setflags below never freezes a caller's array.
        arr = np.array(data, dtype=np.complex128, order="C", copy=True)
        labels, dims = _split(legs)
        if arr.shape != dims:
            if arr.size == math.prod(dims) and arr.ndim <= 1:
                arr = arr.reshape(dims)
            else:
                raise ValueError(f"data shape {arr.shape} does not match leg dims {dims}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor data must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _trusted(cls, legs: tuple[tuple[str, int], ...], arr: np.ndarray) -> Tensor:
        """Engine result: a fresh ``arr`` that nothing else holds, frozen in place.

        ``arr`` is float64 or complex128. There is no finiteness scan, and no
        copy unless ``arr`` is not C-ordered (a transposed view); ``legs`` must
        already be valid. One exception to "fresh": a boundary replayed into
        buffers its caller owns (``contraction._replay``) is a view of such a
        buffer, valid only until that buffer is written again.
        """
        labels, dims = _split(legs)
        arr = np.ascontiguousarray(arr)
        if arr.shape != dims:
            arr = arr.reshape(dims)
        arr.setflags(write=False)
        t = object.__new__(cls)
        object.__setattr__(t, "legs", legs)
        object.__setattr__(t, "data", arr)
        object.__setattr__(t, "labels", labels)
        return t

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    def dim(self, label: str) -> int:
        return self.data.shape[self.axis(label)]

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no leg labeled {label!r} (have {self.labels})") from None

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
    if math.prod([d for _, d in sublegs]) != t.legs[ax][1]:
        raise ValueError(f"cannot split dim {t.legs[ax][1]} into {sublegs}")
    legs = t.legs[:ax] + sublegs + t.legs[ax + 1 :]
    return Tensor(legs, t.data.reshape([d for _, d in legs]))


@dataclass(eq=False, slots=True)
class _Run:
    """How ``a`` and ``b`` multiply when b's free legs replace a contiguous run of
    a's axes, derived from the legs alone (see :func:`_run`).

    ``lead``, when it is not None, permutes a's axes first: its free axes,
    then the contracted ones in a's order, so that the run sits at its tail.
    ``a`` (so permuted) is viewed as ``(head, k, tail)``, with ``k`` the run,
    and the product, with legs ``legs`` (``shape`` their dims, ``size``
    entries), as ``(head, n, tail)``. ``perm`` orders b's axes into its ``(k,
    n)`` matrix, its rows in the run's order. One batched product ``b.T @ a``
    (one GEMM on 2-D views when ``tail`` is 1) writes the result.
    """

    legs: tuple[tuple[str, int], ...]
    shape: tuple[int, ...]
    size: int
    head: int
    k: int
    n: int
    tail: int
    perm: list[int]
    lead: list[int] | None

    def operand(self, b: np.ndarray, batch: int = 0) -> np.ndarray:
        """``b`` as the product's right operand, a C-ordered ``(k, n)`` matrix.

        The ``batch`` leading axes of ``b`` stay in front: item ``i`` of the
        result is then bitwise, and laid out as, the matrix of ``b[i]``.
        """
        axes = [*range(batch), *(batch + i for i in self.perm)]
        return np.ascontiguousarray(b.transpose(axes)).reshape(*b.shape[:batch], self.k, self.n)

    def into(self, a: np.ndarray, mat: np.ndarray, out: np.ndarray,
             scratch: np.ndarray | None = None) -> np.ndarray:
        """``out``, a C-ordered array of ``shape``, set to ``a`` times ``mat = operand(b)``.

        A permuted ``a`` is copied once, into the head of ``scratch`` when it
        is given (a flat buffer of a's type), else into a new array.
        """
        if self.lead is not None:
            moved = a.transpose(self.lead)
            if scratch is None:
                a = np.ascontiguousarray(moved)
            else:
                a = scratch[:a.size].reshape(moved.shape)
                a[...] = moved
        if self.tail == 1:
            backend.matmul(a.reshape(self.head, self.k), mat, out=out.reshape(self.head, self.n))
        else:
            backend.matmul(mat.T, a.reshape(self.head, self.k, self.tail),
                           out=out.reshape(self.head, self.n, self.tail))
        return out


def _run(a_legs: tuple[tuple[str, int], ...], b_legs: tuple[tuple[str, int], ...],
         pairs: Sequence[tuple[str, str]], free: Sequence[str], at_tail: bool = False) -> _Run:
    """The :class:`_Run` that contracts ``a`` with ``b`` over ``pairs``
    ``(leg of a, leg of b)``, with b's ``free`` legs in their place and order,
    for operands with these legs.

    When a's contracted legs do not sit at one contiguous run of its axes, or
    ``at_tail`` asks for the run at a's tail and it is not there, ``lead`` moves
    them to the tail in a's order, and b's free legs follow a's in b's own
    order (an absorption step's layer keeps its legs' order, which leaves more
    of a compiled circuit's later steps in place than ``free``'s). b's
    contracted legs are matched to a's by their pairs, never by label. No
    pairs make an empty run at a's tail.
    """
    a_axis = {l: i for i, (l, _) in enumerate(a_legs)}
    b_axis = {l: i for i, (l, _) in enumerate(b_legs)}
    con = sorted([(a_axis[x], b_axis[y]) for x, y in pairs])
    axes = [i for i, _ in con]
    start = axes[0] if axes else len(a_legs)
    stop = start + len(axes)
    lead = None
    if axes and (axes[-1] != stop - 1 or at_tail and stop != len(a_legs)):
        lead = [i for i in range(len(a_legs)) if i not in axes] + axes
        a_legs = tuple([a_legs[i] for i in lead])
        start, stop = len(a_legs) - len(axes), len(a_legs)
        free = sorted(free, key=b_axis.__getitem__)
    run = a_legs[start:stop]
    if [b_legs[j][1] for _, j in con] != [d for _, d in run]:
        raise ValueError(f"dim mismatch contracting {run} with {[b_legs[j] for _, j in con]}")
    perm = [j for _, j in con] + [b_axis[l] for l in free]
    new = tuple([b_legs[i] for i in perm[len(run):]])
    legs = a_legs[:start] + new + a_legs[stop:]
    dims = [d for _, d in a_legs]
    head, n, tail = math.prod(dims[:start]), math.prod([d for _, d in new]), math.prod(dims[stop:])
    return _Run(legs, tuple([d for _, d in legs]), head * n * tail, head,
                math.prod(dims[start:stop]), n, tail, perm, lead)


def contract(a: Tensor, b: Tensor, pairs: Sequence[tuple[str, str]]) -> Tensor:
    """Contract ``a`` with ``b`` over label pairs ``(leg_of_a, leg_of_b)``.

    One matrix product by the backend GEMM; result legs are a's free legs
    followed by b's. The contracted legs take their order in ``a``; ``a`` is
    multiplied as a view when they sit at its tail, and copied once, with
    them moved there, when they do not. The result is a new read-only array
    of the operands' common type (``np.result_type``) that shares no buffer
    with ``a`` or ``b``. The layout is derived from the legs by :func:`_run`,
    then executed by :meth:`_Run.into`.
    """
    a_con, b_con = [x for x, _ in pairs], [y for _, y in pairs]
    if len(set(a_con)) != len(a_con) or len(set(b_con)) != len(b_con):
        raise ValueError(f"repeated legs in contraction pairs {pairs}")
    for t, labels in ((a, a_con), (b, b_con)):
        for label in labels:
            t.axis(label)  # a KeyError naming an unknown leg
    free = [l for l in b.labels if l not in b_con]
    overlap = set(a.labels).difference(a_con).intersection(free)
    if overlap:
        raise ValueError(f"result would carry duplicate labels {sorted(overlap)}")
    r = _run(a.legs, b.legs, pairs, free, at_tail=True)
    out = np.empty(r.shape, dtype=np.result_type(a.data, b.data))
    return Tensor._trusted(r.legs, r.into(a.data, r.operand(b.data), out))


def matrix_view(t: Tensor, row_legs: Sequence[str], col_legs: Sequence[str]) -> np.ndarray:
    """Reshape to a matrix with the given row/col leg groups (row-major within each).

    When the groups list the legs in their order the result is a view of the
    data; otherwise it is a transposed copy.
    """
    order = [*row_legs, *col_legs]
    if len(order) != len(t.labels) or set(order) != set(t.labels):
        raise ValueError(
            f"row {list(row_legs)} + col {list(col_legs)} must partition legs {t.labels}"
        )
    perm = [t.labels.index(l) for l in order]
    shape, split = t.data.shape, len(row_legs)
    m = math.prod([shape[i] for i in perm[:split]])
    n = math.prod([shape[i] for i in perm[split:]])
    data = t.data if perm == sorted(perm) else np.ascontiguousarray(t.data.transpose(perm))
    return data.reshape(m, n)


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
    expected = math.prod([d for _, d in legs])
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
