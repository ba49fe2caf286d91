"""Exact double-layer contraction of PEPS networks.

The engine squares each site tensor into a double-layer tensor whose bra and
ket bond indices are fused per edge, then absorbs the layers one at a time.
Bonds contract when both endpoints have been absorbed, so open, periodic and
explicit graphs all go through the same path; a bond that leaves the
contracted sites (the edge of a patch) is closed with the maximally mixed
pair. Each bond's pair-state normalization contributes a factor 1/dim.

Only live bond indices are contracted. A site's layer can be nonzero at a
fused index ``(a, b)`` only when the site tensor is nonzero at bond index
``a`` (the bra) and at ``b`` (the ket), with physical indices the layer
joins: equal ones for the plain layer, at a support site also the nonzeros of
the operator there. An index is kept when, at each end of its bond, it or
its swap ``(b, a)`` is live (at a cut bond, the closure's diagonal), and each
layer and closure is sliced to the kept indices. Every product through a
dropped index is exactly zero, so pruning moves a value only through the
order of summation, and integer tile counts stay exact. A site tensor with no
zero entry costs one count and is scanned no further. The indicator tensors
of a tiling keep at most D of the D**2 indices of each bond. A bond with no
live index makes the norm and the numerator exactly zero, returned without
contracting.

The contraction runs in real arithmetic. A double layer is Hermitian under
the swap of its bra and ket indices, so each fused bond index is rewritten in
a Hermitian basis of the bond's D x D matrices: ``E_aa`` at ``(a, a)``,
``(E_ab + E_ba)/sqrt 2`` at ``(a, b)`` and ``i(E_ab - E_ba)/sqrt 2`` at
``(b, a)``, for ``a < b``. The bond's ``u`` end multiplies its layer's leg by
the unitary ``Q[(a, a'), k] = B_k[a', a]`` and its ``v`` end by ``conj(Q)``,
so the pairing across the bond is unchanged, and the plain layers and the
layer of a one-site (Hermitian) operator come out real: they are stored as
float64, with half the bytes and a quarter of the flops of complex128. The
kept indices of a bond are closed under the swap, so the basis is applied as
the block ``Q[K, K]`` after slicing, and a bond that keeps only diagonal
pairs (every tiling bond, every cut bond) skips it. The closure ``delta/D``
is the same in either basis. The layers of an operator on several sites
carry its operator-bond legs and stay complex, so only the steps through the
support run in complex128.

The order comes from a dry run over the live leg dims, made before anything
is allocated but the masks: the layers are built only once the guard has
passed. Grids have two candidate sweeps (column by column, bottom to top
within a column; row by row, left to right), a patch the same two restricted
to its interior, and explicit graphs their ascending vertex ids. The
candidate with the smallest peak boundary runs, columns on a tie. When even
that peak exceeds the guard (default 2**20 entries), the contraction is
refused with a :class:`GuardExceeded` carrying the best peak.

The environment is split at an observable's support: the sites before the
first support site are contracted once, forwards, and the sites after the
last support site once, backwards. Both are closed twice through the sites in
between, with the plain layers for the norm and with the observable's layers
for the numerator, so an expectation value costs about one norm. One slot
keeps what the engine read from the last network: each site's live masks,
each bond's basis block, and the last prefix. A call on the same network
reads no site tensor again, and when its order (which fixes the contracted
sites, and so the cut bonds) and kept indices are equal and its support
starts no earlier, it resumes from the prefix, so reading out every wire of a
compiled circuit costs about one contraction, with values bitwise those of a
fresh one. The slot holds at most one boundary (up to 8 MiB at the default
guard) until the next call, and it keeps no network alive. An operator on
several sites is split into one factor per support site, in the order the
candidate contracts them, joined by operator-bond legs of its Schmidt rank r
across each cut, which the dry run and the guard see like bonds: a product
operator (r = 1) costs one norm.
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import backend
from . import tensor as tz
from .errors import GuardExceeded
from .network import PHYS, Observable, PepsNetwork
from .tensor import Tensor

BOUNDARY_GUARD = 1 << 20

_SWEEPS = ("cols", "rows")

_EPS = float(np.finfo(np.float64).eps)

_SQRT_HALF = math.sqrt(0.5)

# The engine's start: a float64 scalar 1, so that real layers keep real boundaries.
_ONE = Tensor._trusted((), np.ones(()))


@dataclass(eq=False)
class _Slot:
    """What the engine keeps of the last network it contracted, for the next call.

    ``masks`` holds each site's :func:`_live_pairs` and its plain live masks,
    ``kept`` the kept indices of each bond between two plain layers (see
    :func:`_prune`), ``bases`` each bond's basis blocks (see :func:`_bases`),
    and ``prefix`` the last plain prefix: (order, kept indices, number of
    sites absorbed, boundary). See :func:`_contract`.
    """

    net: weakref.ref
    masks: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)
    bases: dict = field(default_factory=dict)
    prefix: tuple | None = None


_slot: _Slot | None = None


def double_layer(net: PepsNetwork, site: int, factor: Tensor | None = None) -> Tensor:
    """Bra-ket square of one site tensor with bond legs fused per edge.

    The fused index of edge ``e`` is bra-major ``(bra, ket)``, identical at both
    endpoints, so fused legs contract directly across a bond. With ``factor``
    (legs ``out0``/``in0`` and any operator-bond legs, see
    :func:`_operator_factors`) the physical pair is sandwiched instead of
    traced, and the operator-bond legs follow the fused ones. The site is a
    matrix ``T[bonds, phys]``, so the square is one matrix product (two with a
    factor) and one transpose that interleaves the bra and ket bond indices.
    """
    t = net.site(site)
    edge_ids = net.virtual_labels(site)
    mat = tz.matrix_view(t, edge_ids, [PHYS])
    dims = [t.dim(l) for l in edge_ids]
    m = len(dims)
    legs = [(l, d * d) for l, d in zip(edge_ids, dims)]
    if factor is None:
        bonds, sq = [], backend.matmul(mat.conj(), mat.T)
    else:
        # op[x, (k, y)]: conj(T) @ op is [a, (k, y)], then @ T.T gives [(a, k), b]
        bonds = _operator_bonds(factor)
        op = tz.matrix_view(factor, ["out0"], [l for l, _ in bonds] + ["in0"])
        sq = backend.matmul(backend.matmul(mat.conj(), op).reshape(-1, len(op)), mat.T)
    sq = sq.reshape(dims + [math.prod(d for _, d in bonds)] + dims)
    sq = sq.transpose([ax for i in range(m) for ax in (i, m + 1 + i)] + [m])
    return Tensor._trusted(tuple(legs + bonds), sq)


def _operator_bonds(factor: Tensor) -> list[tuple[str, int]]:
    return [leg for leg in factor.legs if leg[0] not in ("out0", "in0")]


def _operator_factors(obs: Observable, chain: Sequence[int], tag: str) -> dict[int, Tensor]:
    """The operator split into one factor per support site along ``chain``: an MPO.

    ``chain`` lists the support sites in the order they are contracted.
    Successive SVDs across the cuts between consecutive sites of the chain (an
    operator Schmidt decomposition) give its ``i``-th site's factor the legs
    ``out0``/``in0`` and operator-bond legs ``<tag>~<i>`` to the next site (and
    ``<tag>~<i-1>`` to the one before), so only one operator bond is open
    between support sites. Singular values at or below ``tz.RANK_TOL * s0``
    are dropped, so a product operator has bonds of dim 1. Entries of the
    singular vectors at zero rows and columns of the split matrix are set to
    exact zeros, so no factor is nonzero where the operator's pattern
    (:func:`_patterns`) is zero. One site needs no SVD.
    """
    n = len(chain)
    if n == 1:
        return {chain[0]: obs.operator}
    pos = [obs.support.index(v) for v in chain]
    rest = obs.operator.relabeled({f"{io}{i}": f"{io}{k}" for k, i in enumerate(pos)
                                   for io in ("out", "in")})
    factors, left = [], []
    for i in range(n - 1):
        rows = left + [(f"out{i}", rest.dim(f"out{i}")), (f"in{i}", rest.dim(f"in{i}"))]
        cols = [leg for leg in rest.legs if leg not in rows]
        mat = tz.matrix_view(rest, [l for l, _ in rows], [l for l, _ in cols])
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        u[~mat.any(axis=1)] = 0
        vh[:, ~mat.any(axis=0)] = 0
        r = 1 + np.count_nonzero(s[1:] > tz.RANK_TOL * s[0])
        left = [(f"{tag}~{i}", r)]
        factors.append(tz.from_matrix(u[:, :r], rows, left))
        rest = tz.from_matrix(s[:r, None] * vh[:r], left, cols)
    factors.append(rest)
    return {v: f.relabeled({f"out{i}": "out0", f"in{i}": "in0"})
            for i, (v, f) in enumerate(zip(chain, factors))}


def _patterns(obs: Observable) -> dict[int, np.ndarray]:
    """Per support site, the ``(out, in)`` physical pairs its layers join.

    These are the pairs at which the operator is nonzero for some indices of
    the other support sites, OR the identity, which the plain layer of the
    same site needs. They hold the pattern of the site's factor from
    :func:`_operator_factors` whatever the chain, so one pruning serves every
    candidate order.
    """
    nonzero, labels, out = obs.operator.data != 0, obs.operator.labels, {}
    for i, v in enumerate(obs.support):
        o, n = labels.index(f"out{i}"), labels.index(f"in{i}")
        joined = nonzero.any(axis=tuple(j for j in range(len(labels)) if j not in (o, n)))
        out[v] = (joined.T if n < o else joined) | np.eye(len(joined), dtype=bool)
    return out


def mixed_closure(edge_dim: int, label: str) -> Tensor:
    """Fused-leg closure for a cut bond: the maximally mixed pair delta_bk / dim.

    It is real, and the same in the fused ``(bra, ket)`` basis and in the
    Hermitian one (see the module docstring), so it is stored as float64.
    """
    return Tensor._trusted(((label, edge_dim * edge_dim),), np.eye(edge_dim).ravel() / edge_dim)


def sweep_order(graph, sweep: str = "cols") -> list[int]:
    """Vertex order of a sweep; explicit graphs have one order, their vertex ids."""
    if sweep not in _SWEEPS:
        raise ValueError(f"unknown sweep {sweep!r}")
    if graph.rows is None:
        return list(graph.vertices)
    rows, cols = graph.rows, graph.cols
    if sweep == "cols":
        return [r * cols + c for c in range(cols) for r in range(rows - 1, -1, -1)]
    return [r * cols + c for r in range(rows) for c in range(cols)]


def _peak(legs: dict[int, list], order: Sequence[int], closures: dict[str, Tensor]) -> int:
    """Largest boundary, in entries, left after absorbing each site of ``order``."""
    open_legs: dict[str, int] = {}
    worst = 1
    for v in order:
        for label, dim in legs[v]:
            if label in open_legs:
                del open_legs[label]
            elif label not in closures:
                open_legs[label] = dim
        worst = max(worst, math.prod(open_legs.values()))
    return worst


def _layer_legs(net: PepsNetwork, v: int, keep: dict[str, np.ndarray]) -> list[tuple[str, int]]:
    """Legs of ``double_layer(net, v)`` sliced to ``keep``, unbuilt."""
    return [(e.id, keep[e.id].size if e.id in keep else e.dim * e.dim)
            for e in net.graph.incident(v)]


def _live_pairs(net: PepsNetwork, v: int) -> dict[str, np.ndarray]:
    """Per bond leg of site ``v``, which physical indices each bond index reaches.

    ``reach[a, p]`` is True when the site tensor is nonzero at bond index ``a``
    and physical index ``p`` (for some indices of its other bonds). A fused
    pair ``(a, b)`` of a layer that joins physical pairs ``P`` (the identity
    for the plain layer) is live when ``(reach @ P @ reach.T)[a, b]``; every
    other pair of the layer is exactly zero. A site tensor with no zero entry
    costs one count and returns ``{}``: every pair of every leg is live.
    """
    t = net.site(v)
    if np.count_nonzero(t.data) == t.size:
        return {}
    nonzero = t.data != 0
    labels = t.labels
    p_axis = labels.index(PHYS)
    reach = {}
    for axis, label in enumerate(labels):
        if axis != p_axis:
            r = nonzero.any(axis=tuple(j for j in range(len(labels))
                                       if j != axis and j != p_axis))
            reach[label] = r.T if axis > p_axis else r
    return reach


def _site_masks(slot: _Slot, net: PepsNetwork, v: int) -> tuple[dict, dict]:
    """The reach of site ``v`` and its plain layer's live masks, read once per network."""
    held = slot.masks.get(v)
    if held is None:
        reach = _live_pairs(net, v)
        held = slot.masks[v] = (reach, {l: (r @ r.T).ravel() for l, r in reach.items()})
    return held


def _sliced(t: Tensor, keep: dict[str, np.ndarray]) -> Tensor:
    """``t`` restricted to the ``keep`` indices of its legs; other legs stay whole."""
    data, legs = t.data, list(t.legs)
    for axis, (label, _) in enumerate(t.legs):
        if label in keep:
            data = data.take(keep[label], axis=axis)
            legs[axis] = (label, keep[label].size)
    return t if data is t.data else Tensor._trusted(tuple(legs), data)


def _prune(net: PepsNetwork, sites: Sequence[int], patterns: dict[int, np.ndarray],
           closures: dict[str, Tensor], slot: _Slot) -> dict[str, np.ndarray] | None:
    """Kept indices of each fused bond leg: those live at both of its ends.

    An end is a site of ``sites``, which joins the physical pairs of its
    pattern at a support site (see :func:`_live_pairs`), or, for a cut bond,
    its closure. Every end's mask is closed under the swap ``(a, b) <-> (b,
    a)``, and so is what both ends keep, as the Hermitian basis needs: the
    plain masks and the closures are symmetric, and a support site's mask is
    made so (a pair added there multiplies an exact zero at that end). A bond
    between two plain layers keeps the same indices on every call, so the
    slot keeps them. Bonds that keep every index are left out; None means
    some bond keeps none, so every term of the contraction, and the
    contraction itself, is exactly zero.
    """
    inside, masks, keep = set(sites), {}, {}

    def ends(e) -> list[np.ndarray | None]:
        out = [closures[e.id].data != 0] if e.id in closures else []
        for v in (e.u, e.v):
            if v in inside:
                if v not in masks:
                    reach, plain = _site_masks(slot, net, v)
                    masks[v] = plain if v not in patterns else {
                        l: _swap_closed(r @ patterns[v] @ r.T) for l, r in reach.items()}
                out.append(masks[v].get(e.id))
        return out

    for e in net.graph.edges:
        if e.id in closures or e.u in patterns or e.v in patterns:
            kept = _kept(ends(e))
        elif e.u in inside and e.v in inside:
            if e.id not in slot.kept:
                slot.kept[e.id] = _kept(ends(e))
            kept = slot.kept[e.id]
        else:
            continue
        if kept is not None:
            if kept.size == 0:
                return None
            keep[e.id] = kept
    return keep


def _swap_closed(live: np.ndarray) -> np.ndarray:
    """A bond's ``(bra, ket)`` live matrix with each pair's swap added, raveled."""
    return (live | live.T).ravel()


def _kept(ends: list[np.ndarray | None]) -> np.ndarray | None:
    """Indices live at every end of a bond; None when all are (a mask of None: every index)."""
    ends = [m for m in ends if m is not None]
    if not ends:
        return None
    live = ends[0] if len(ends) == 1 else ends[0] & ends[1]
    return None if np.count_nonzero(live) == live.size else np.flatnonzero(live)


def _basis_block(dim: int, kept: np.ndarray | None) -> tuple[np.ndarray, np.ndarray] | None:
    """The block ``Q[K, K]`` of a bond's change to the Hermitian basis, and ``conj(Q[K, K])``.

    The Hermitian basis of the bond's dim x dim matrices is ``E_aa`` at
    ``(a, a)``, and for ``a < b`` ``(E_ab + E_ba)/sqrt 2`` at ``(a, b)`` and
    ``i(E_ab - E_ba)/sqrt 2`` at ``(b, a)``. ``Q[(a, a'), k] = B_k[a', a]`` is
    unitary and maps each pair ``{(a, b), (b, a)}`` into itself, so on the
    swap-closed kept indices ``K`` (None: all of them) its block ``Q[K, K]`` is
    unitary too: the identity on the diagonal and a 2 x 2 block on each such
    pair. A bond whose kept pairs are all diagonal has ``Q[K, K] = I`` and
    gives None.
    """
    if dim == 1 or kept is not None and not any(f % (dim + 1) for f in kept.tolist()):
        return None  # every kept f = a * dim + a is diagonal
    idx = np.arange(dim * dim) if kept is None else kept
    a, b = np.divmod(idx, dim)
    lower = a < b
    p, q = np.flatnonzero(lower), np.searchsorted(idx, b[lower] * dim + a[lower])
    block = np.eye(idx.size, dtype=np.complex128)
    block[p, p] = block[q, p] = _SQRT_HALF
    block[p, q], block[q, q] = -1j * _SQRT_HALF, 1j * _SQRT_HALF
    return block, block.conj()


def _bases(net: PepsNetwork, inside: set, keep: dict[str, np.ndarray],
           slot: _Slot) -> dict[str, tuple[int, np.ndarray, np.ndarray]]:
    """``(u, Q[K, K], conj(Q[K, K]))`` of each bond of ``inside`` that keeps an off-diagonal pair.

    The slot keeps each bond's blocks with the kept indices they were made
    for, and reuses them while :func:`_prune` returns the same array (every
    bond between two plain layers) or all indices; bonds of one dim that keep
    all indices share one block.
    """
    out, whole = {}, {}
    for e in net.graph.edges:
        if e.u in inside or e.v in inside:
            k = keep.get(e.id)
            held = slot.bases.get(e.id)
            if held is None or held[0] is not k:
                if k is None and e.dim not in whole:
                    whole[e.dim] = _basis_block(e.dim, None)
                block = whole[e.dim] if k is None else _basis_block(e.dim, k)
                held = slot.bases[e.id] = (k, block)
            if held[1] is not None:
                out[e.id] = (e.u,) + held[1]
    return out


def _in_basis(t: Tensor, v: int, bases: dict, real: bool) -> Tensor:
    """Layer ``t`` of site ``v`` with each leg in ``bases`` in its Hermitian basis.

    A leg is multiplied by ``Q[K, K]`` at its bond's ``u`` end and by
    ``conj(Q[K, K])`` at its ``v`` end (see :func:`_basis_block`), so the
    pairing across the bond is unchanged. Each leg in turn is the rows of one
    matrix product, whose result has that leg last, so after every leg the
    order is the original one. ``real`` drops the imaginary part, which is
    round-off for a plain layer and for the layer of a one-site operator: both
    are Hermitian under the swap of every bra and ket index.
    """
    data = t.data
    if not any(label in bases for label in t.labels):
        return Tensor._trusted(t.legs, data.real) if real else t
    for label, dim in t.legs:
        rows = data.reshape(dim, -1).T
        if label in bases:
            u, q, qc = bases[label]
            data = rows @ (q if v == u else qc)
        else:
            data = np.ascontiguousarray(rows)
    return Tensor._trusted(t.legs, data.real if real else data)


def _absorb(acc: Tensor, layers: dict[int, Tensor], order: Sequence[int],
            closures: dict[str, Tensor]) -> Tensor:
    for v in order:
        labels = set(layers[v].labels)
        acc = tz.contract(acc, layers[v], [(l, l) for l in acc.labels if l in labels])
        for label in acc.labels:
            if label in closures:
                acc = tz.contract(acc, closures[label], [(label, label)])
    return acc


def _absolute(tensors: dict) -> dict:
    return {k: Tensor._trusted(t.legs, np.abs(t.data)) for k, t in tensors.items()}


def _real_scalar(value: complex, abs_scale_fn) -> float:
    """Validate that a contracted norm is finite and real (and clamp its round-off)."""
    if not cmath.isfinite(value):
        raise ValueError(f"norm is not finite: {value}")
    real, imag = value.real, value.imag
    if real >= 0.0 and abs(imag) <= 1e-10 * max(1.0, abs(real)):
        return real
    tol = max(1e-12, 4096.0 * _EPS * abs_scale_fn())
    if real < -tol:
        raise ValueError(f"norm is negative beyond round-off: {real}")
    if abs(imag) > max(1e-10 * max(1.0, abs(real)), tol):
        raise ValueError(f"norm has imaginary residue {imag}")
    return max(real, 0.0)


def _contract(net: PepsNetwork, sites: Sequence[int], observable: Observable | None = None, *,
              guard: int | None, sweep: str | None) -> tuple[float, complex | None]:
    """Norm and numerator of ``observable`` over ``sites``, each double layer built once.

    Bonds with both ends in ``sites`` carry 1/dim; bonds with one end there are
    closed with :func:`mixed_closure`. The dry run, the guard and the
    contraction see the bond indices :func:`_prune` keeps, read from the site
    tensors; the layers are built after the guard, sliced to them and put in
    the Hermitian basis (:func:`_in_basis`). A bond with no live index gives an
    exact zero norm (and numerator) without contracting anything.
    ``sweep=None`` dry-runs every sweep and runs the one with the smallest
    peak; a multi-site operator is split along each candidate's order.
    Intermediates are not scanned for finiteness: a non-finite entry anywhere
    reaches the final scalars, so :func:`_real_scalar` (the norm) and
    :func:`_expectation` (the numerator) refuse it there. The numerator is
    None without an observable.

    The slot's masks and basis blocks are reused when it holds this network
    (checked by identity first). Its prefix resumes when it has the same
    order and kept indices and no site past this support's first; otherwise
    the prefix is dropped before any layer is built, so a miss never holds two
    boundaries. A refusal leaves the slot empty; the absolute pass of
    :func:`_real_scalar` builds its own layers.
    """
    global _slot
    slot, _slot = _slot, None
    if slot is None or slot.net() is not net:
        slot = _Slot(weakref.ref(net))
    held, slot.prefix = slot.prefix, None
    inside = set(sites)
    prefactor = 1.0
    closures: dict[str, Tensor] = {}
    for e in net.graph.edges:
        if e.u in inside and e.v in inside:
            prefactor /= e.dim
        elif e.u in inside or e.v in inside:
            closures[e.id] = mixed_closure(e.dim, e.id)
    support = observable.support if observable is not None else ()
    keep = _prune(net, sites, _patterns(observable) if support else {}, closures, slot)
    if keep is None:
        _slot = slot
        return 0.0, (None if observable is None else 0j)
    closures = {label: _sliced(t, keep) for label, t in closures.items()}
    legs = {v: _layer_legs(net, v, keep) for v in inside}
    # operator-bond labels longer than every edge id, so that none is a bond
    tag = "~" * max((len(e.id) for e in net.graph.edges), default=0)

    candidates, chains = [], {}
    for name in _SWEEPS if sweep is None else (sweep,):
        order = [v for v in sweep_order(net.graph, name) if v in inside]
        if any(order == c[1] for c in candidates):
            continue
        chain = tuple(sorted(support, key=order.index))
        if chain not in chains:
            chains[chain] = _operator_factors(observable, chain, tag) if support else {}
        factors = chains[chain]
        observed = legs | {v: legs[v] + _operator_bonds(f) for v, f in factors.items()}
        # forward through the last support site, backwards through the suffix
        last = max((order.index(v) for v in support), default=len(order) - 1)
        peak = max(_peak(observed, order[:last + 1], closures),
                   _peak(legs, order[:last:-1], closures))
        candidates.append((peak, order, factors))
    best = min(c[0] for c in candidates)
    if guard is not None and best > guard:
        raise GuardExceeded("contraction boundary of the best order exceeds guard", best, guard)
    _, order, factors = next(c for c in candidates if c[0] == best)
    first = min((order.index(v) for v in support), default=len(order))
    last = max((order.index(v) for v in support), default=len(order) - 1)

    start, prefix = 0, _ONE
    if (held is not None and held[0] == order and held[2] <= first
            and held[1].keys() == keep.keys()
            and all(k is keep[label] or np.array_equal(k, keep[label])
                    for label, k in held[1].items())):
        start, prefix = held[2], held[3]
    del held  # a miss drops the old prefix before any layer is built
    bases = _bases(net, inside, keep, slot)

    def layer(v: int, factor: Tensor | None = None) -> Tensor:
        real = factor is None or not _operator_bonds(factor)
        return _in_basis(_sliced(double_layer(net, v, factor), keep), v, bases, real)

    layers = {v: layer(v) for v in order[start:]}
    special = {v: layer(v, f) for v, f in factors.items()}
    suffix = _absorb(_ONE, layers, order[:last:-1], closures)
    prefix = _absorb(prefix, layers, order[start:first], closures)
    slot.prefix = (order, keep, first, prefix)
    _slot = slot
    middle, pairs = order[first:last + 1], [(l, l) for l in suffix.labels]
    norm = tz.contract(_absorb(prefix, layers, middle, closures), suffix, pairs).item() * prefactor
    numer = None
    if special:
        numer = tz.contract(_absorb(prefix, layers | special, middle, closures),
                            suffix, pairs).item() * prefactor

    def absolute() -> float:
        plain = _absolute({v: layer(v) for v in order})
        return abs(_absorb(_ONE, plain, order, _absolute(closures)).item() * prefactor)

    return _real_scalar(norm, absolute), numer


def _expectation(norm: float, numer: complex, what: str) -> tuple[float, float]:
    """Normalized value and imaginary residue.

    Refuses a non-finite norm or numerator, a zero norm, and a non-finite or
    complex value.
    """
    if not (math.isfinite(norm) and cmath.isfinite(numer)):
        raise ValueError(f"{what} norm {norm} or numerator {numer} is not finite")
    if norm < 1e-300:
        raise ValueError(f"{what} has numerically zero norm; expectation undefined")
    value = numer / norm
    if not cmath.isfinite(value):
        raise ValueError(f"{what} expectation is not finite: {value}")
    residue = abs(value.imag)
    if residue > 1e-10 * max(1.0, abs(value.real)):
        raise ValueError(f"{what} expectation has imaginary residue {residue}")
    return float(value.real), float(residue)


def _check_support(net: PepsNetwork, obs: Observable) -> None:
    for i, v in enumerate(obs.support):
        if v not in net.tensors:
            raise ValueError(f"observable site {v} not in network")
        if obs.operator.dim(f"in{i}") != net.phys_dim(v):
            raise ValueError(
                f"observable dim {obs.operator.dim(f'in{i}')} != phys dim {net.phys_dim(v)} at site {v}"
            )


def peps_norm(net: PepsNetwork, *, guard: int | None = BOUNDARY_GUARD,
              sweep: str | None = None) -> float:
    """Exact squared norm of the physical state; ``sweep=None`` picks the order."""
    return _contract(net, net.graph.vertices, guard=guard, sweep=sweep)[0]


def nev_report(net: PepsNetwork, obs: Observable, *, guard: int | None = BOUNDARY_GUARD,
               sweep: str | None = None) -> dict:
    """Normalized expectation value with its imaginary residue and the norm."""
    _check_support(net, obs)
    norm, numer = _contract(net, net.graph.vertices, obs, guard=guard, sweep=sweep)
    value, residue = _expectation(norm, numer, "state")
    return {"value": value, "imag_residue": residue, "norm": norm}


def peps_nev(net: PepsNetwork, obs: Observable, *, guard: int | None = BOUNDARY_GUARD,
             sweep: str | None = None) -> float:
    return nev_report(net, obs, guard=guard, sweep=sweep)["value"]


def _decision(value: float) -> str:
    """Promise-problem thresholds: accept at >= 2/3, reject at <= 1/3, else undetermined."""
    if value >= 2.0 / 3.0:
        return "accept"
    if value <= 1.0 / 3.0:
        return "reject"
    return "undetermined"


def decide_nev(net: PepsNetwork, obs: Observable, *, guard: int | None = BOUNDARY_GUARD) -> str:
    """Promise-problem wrapper around :func:`peps_nev`."""
    return _decision(peps_nev(net, obs, guard=guard))


# ---------------------------------------------------------------------------
# Patch estimator: contract a neighborhood, close cut bonds maximally mixed


@dataclass(frozen=True)
class PatchSpec:
    """A Chebyshev annulus around an observable's support box.

    ``interior`` holds the sites at distance < radius (clipped to the lattice),
    ``ring`` the sites at distance exactly radius. ``covers_lattice`` marks the
    degenerate case where the whole lattice lies inside the ring, in which case
    the patch is exact.
    """

    support: tuple[int, ...]
    radius: int
    interior: tuple[int, ...]
    ring: tuple[int, ...]
    covers_lattice: bool


def make_patch(net: PepsNetwork, support: Sequence[int], radius: int) -> PatchSpec:
    graph = net.graph
    if graph.geometry != "open-grid":
        raise ValueError("patches are defined on open grids")
    if radius < 1:
        raise ValueError("patch radius must be >= 1")
    rows, cols = graph.rows, graph.cols
    coords = [divmod(int(v), cols) for v in support]
    r0 = min(r for r, _ in coords)
    r1 = max(r for r, _ in coords)
    c0 = min(c for _, c in coords)
    c1 = max(c for _, c in coords)

    def dist(r: int, c: int) -> int:
        dr = max(r0 - r, r - r1, 0)
        dc = max(c0 - c, c - c1, 0)
        return max(dr, dc)

    interior = [r * cols + c for r in range(rows) for c in range(cols) if dist(r, c) < radius]
    ring = [r * cols + c for r in range(rows) for c in range(cols) if dist(r, c) == radius]
    full_ring = (r1 - r0 + 2 * radius + 1) * 2 + (c1 - c0 + 2 * radius - 1) * 2
    if ring and len(ring) != full_ring:
        raise ValueError(
            f"ring at radius {radius} exits the lattice; shrink the radius or move the support"
        )
    return PatchSpec(support=tuple(int(v) for v in support), radius=radius,
                     interior=tuple(interior), ring=tuple(ring),
                     covers_lattice=not ring)


def patch_nev(net: PepsNetwork, obs: Observable, radius: int, *,
              guard: int | None = BOUNDARY_GUARD) -> float:
    """Local estimate of an expectation value from a patch around the support.

    Sites outside the ring are discarded; each bond cut between the interior
    and the ring is closed with the maximally mixed pair 1/dim. When the patch
    covers the whole lattice this is exactly :func:`peps_nev`.
    """
    _check_support(net, obs)
    patch = make_patch(net, obs.support, radius)
    norm, numer = _contract(net, patch.interior, obs, guard=guard, sweep=None)
    return _expectation(norm, numer, "patch")[0]
