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
its operator factor. An index is kept when it is live at both ends of its bond (at a cut bond, the closure's diagonal), and each layer
and closure is sliced to the kept indices. Every product through a dropped
index is exactly zero, so pruning moves a value only through the order of
summation, and integer tile counts stay exact. A site tensor with no zero
entry costs one count and is scanned no further. The indicator tensors of a
tiling keep at most D of the D**2 indices of each bond. A bond with no live
index makes the norm and the numerator exactly zero, returned without
contracting.

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
keeps the last prefix: a call on the same network with an equal order (which
fixes the contracted sites, and so the cut bonds) and equal kept indices,
whose support starts no earlier, resumes from it, so reading out every wire
of a compiled circuit costs about one contraction, with values bitwise those
of a fresh one. The slot holds at most one boundary (up to 16 MiB at the
default guard) until the next call, and it keeps no network alive. An
operator on several sites is split into one factor per support site, joined
by operator-bond legs of its Schmidt rank r across each cut, which the dry run
and the guard see like bonds: a product operator (r = 1) costs one norm.
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass
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

# The plain prefix the last contraction built, kept for the next call on the
# same network: (weakref to the network, order, kept indices, number of sites
# absorbed, boundary). See _contract.
_last_prefix: tuple | None = None


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


def _operator_factors(obs: Observable, tag: str) -> list[Tensor]:
    """The operator split into one factor per support site: an MPO chain.

    Successive SVDs across the cuts between consecutive support sites (an
    operator Schmidt decomposition) give factor ``i`` the legs ``out0``/``in0``
    and operator-bond legs ``<tag>~<i>`` to site ``i + 1`` (and ``<tag>~<i-1>``
    to site ``i - 1``). Singular values at or below ``tz.RANK_TOL * s0`` are
    dropped, so a product operator has bonds of dim 1. One site needs no SVD.
    """
    rest, factors, left = obs.operator, [], []
    for i in range(len(obs.support) - 1):
        rows = left + [(f"out{i}", rest.dim(f"out{i}")), (f"in{i}", rest.dim(f"in{i}"))]
        cols = [leg for leg in rest.legs if leg not in rows]
        u, s, vh = np.linalg.svd(tz.matrix_view(rest, [l for l, _ in rows], [l for l, _ in cols]),
                                 full_matrices=False)
        r = 1 + np.count_nonzero(s[1:] > tz.RANK_TOL * s[0])
        left = [(f"{tag}~{i}", r)]
        factors.append(tz.from_matrix(u[:, :r], rows, left))
        rest = tz.from_matrix(s[:r, None] * vh[:r], left, cols)
    factors.append(rest)
    return [f.relabeled({f"out{i}": "out0", f"in{i}": "in0"}) for i, f in enumerate(factors)]


def mixed_closure(edge_dim: int, label: str) -> Tensor:
    """Fused-leg closure for a cut bond: the maximally mixed pair delta_bk / dim."""
    vec = (np.eye(edge_dim, dtype=np.complex128) / edge_dim).ravel()
    return Tensor(((label, edge_dim * edge_dim),), vec)


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


def _live_pairs(net: PepsNetwork, v: int, factor: Tensor | None) -> dict[str, np.ndarray]:
    """Per bond leg of site ``v``, the fused ``(bra, ket)`` pairs its layers can reach.

    The bra's physical index is joined to the ket's by equal indices in the
    plain layer and, at a support site, also by the nonzeros of its operator
    ``factor`` (taken over its operator-bond legs), since both layers are
    sliced alike. A bond index reaches a physical index when the site tensor
    is nonzero at both, and a pair is live when its bra and its ket reach
    physical indices that are joined. Every other pair of the layers is
    exactly zero. A site tensor with no zero entry costs one count and
    returns ``{}``: every pair of every leg is live.
    """
    t = net.site(v)
    if np.count_nonzero(t.data) == t.size:
        return {}
    phys = None
    if factor is not None:
        op = tz.matrix_view(factor, ["out0"], ["in0"] + [l for l, _ in _operator_bonds(factor)])
        phys = (op != 0).reshape(len(op), len(op), -1).any(axis=2) | np.eye(len(op), dtype=bool)
    nonzero = t.data != 0
    labels = t.labels
    p_axis = labels.index(PHYS)
    live = {}
    for axis, label in enumerate(labels):
        if axis != p_axis:
            reach = nonzero.any(axis=tuple(j for j in range(len(labels))
                                           if j != axis and j != p_axis))
            if axis > p_axis:
                reach = reach.T
            live[label] = (reach @ reach.T if phys is None else reach @ phys @ reach.T).ravel()
    return live


def _sliced(t: Tensor, keep: dict[str, np.ndarray]) -> Tensor:
    """``t`` restricted to the ``keep`` indices of its legs; other legs stay whole."""
    data, legs = t.data, list(t.legs)
    for axis, (label, _) in enumerate(t.legs):
        if label in keep:
            data = data.take(keep[label], axis=axis)
            legs[axis] = (label, keep[label].size)
    return t if data is t.data else Tensor._trusted(tuple(legs), data)


def _prune(net: PepsNetwork, sites: Sequence[int], factors: dict[int, Tensor],
           closures: dict[str, Tensor]) -> dict[str, np.ndarray] | None:
    """Kept indices of each fused bond leg: those live at both of its ends.

    An end is a site of ``sites``, with its operator factor at a support site
    (see :func:`_live_pairs`), or, for a cut bond, its closure. Bonds that
    keep every index are left out; None means some bond keeps none, so every
    term of the contraction, and the contraction itself, is exactly zero.
    """
    masks = {v: _live_pairs(net, v, factors.get(v)) for v in sites}
    keep = {}
    for e in net.graph.edges:
        # a bond has two ends: two sites, or one site and the cut bond's closure
        ends = [masks[x].get(e.id) for x in (e.u, e.v) if x in masks]
        if e.id in closures:
            ends.append(closures[e.id].data != 0)
        ends = [m for m in ends if m is not None]
        if not ends:
            continue
        live = ends[0] if len(ends) == 1 else ends[0] & ends[1]
        count = np.count_nonzero(live)
        if count == 0:
            return None
        if count < live.size:
            keep[e.id] = np.flatnonzero(live)
    return keep


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
    return {k: Tensor(t.legs, np.abs(t.data)) for k, t in tensors.items()}


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
    tensors; the layers are built after the guard and sliced to them. A bond
    with no live index gives an exact zero norm (and numerator) without
    contracting anything. ``sweep=None`` dry-runs every sweep and runs the one
    with the smallest peak. Intermediates are not scanned for finiteness: a
    non-finite entry anywhere reaches the final scalars, so
    :func:`_real_scalar` (the norm) and :func:`_expectation` (the numerator)
    refuse it there. The numerator is None without an observable.

    The prefix resumes from the slot when it holds one of this network
    (checked by identity first) with the same order and kept indices and no
    site past this support's first; otherwise the slot is dropped before any
    layer is built, so a miss never holds two boundaries. A refusal leaves it
    empty; the absolute pass of :func:`_real_scalar` builds its own layers.
    """
    global _last_prefix
    held, _last_prefix = _last_prefix, None
    inside = set(sites)
    prefactor = 1.0
    closures: dict[str, Tensor] = {}
    for e in net.graph.edges:
        if e.u in inside and e.v in inside:
            prefactor /= e.dim
        elif e.u in inside or e.v in inside:
            closures[e.id] = mixed_closure(e.dim, e.id)
    support = observable.support if observable is not None else ()
    # operator-bond labels longer than every edge id, so that none is a bond
    tag = "~" * max((len(e.id) for e in net.graph.edges), default=0)
    factors = dict(zip(support, _operator_factors(observable, tag))) if support else {}
    keep = _prune(net, sites, factors, closures)
    if keep is None:
        return 0.0, (None if observable is None else 0j)
    closures = {label: _sliced(t, keep) for label, t in closures.items()}
    legs = {v: _layer_legs(net, v, keep) for v in inside}
    observed = legs | {v: legs[v] + _operator_bonds(f) for v, f in factors.items()}

    def peak(order: list[int]) -> int:
        # forward through the last support site, backwards through the suffix
        last = max((order.index(v) for v in support), default=len(order) - 1)
        return max(_peak(observed, order[:last + 1], closures),
                   _peak(legs, order[:last:-1], closures))

    orders: list[list[int]] = []
    for name in _SWEEPS if sweep is None else (sweep,):
        order = [v for v in sweep_order(net.graph, name) if v in inside]
        if order not in orders:
            orders.append(order)
    peaks = [peak(order) for order in orders]
    best = min(peaks)
    if guard is not None and best > guard:
        raise GuardExceeded("contraction boundary of the best order exceeds guard", best, guard)
    order = orders[peaks.index(best)]
    first = min((order.index(v) for v in support), default=len(order))
    last = max((order.index(v) for v in support), default=len(order) - 1)

    start, prefix = 0, tz.scalar(1.0)
    if (held is not None and held[0]() is net and held[1] == order and held[3] <= first
            and held[2].keys() == keep.keys()
            and all(np.array_equal(k, keep[label]) for label, k in held[2].items())):
        start, prefix = held[3], held[4]
    del held  # a miss drops the old prefix before any layer is built

    layers = {v: _sliced(double_layer(net, v), keep) for v in order[start:]}
    special = {v: _sliced(double_layer(net, v, f), keep) for v, f in factors.items()}
    suffix = _absorb(tz.scalar(1.0), layers, order[:last:-1], closures)
    prefix = _absorb(prefix, layers, order[start:first], closures)
    _last_prefix = (weakref.ref(net), order, keep, first, prefix)
    middle, pairs = order[first:last + 1], [(l, l) for l in suffix.labels]
    norm = tz.contract(_absorb(prefix, layers, middle, closures), suffix, pairs).item() * prefactor
    numer = None
    if special:
        numer = tz.contract(_absorb(prefix, layers | special, middle, closures),
                            suffix, pairs).item() * prefactor

    def absolute() -> float:
        plain = _absolute({v: _sliced(double_layer(net, v), keep) for v in order})
        return abs(_absorb(tz.scalar(1.0), plain, order, _absolute(closures)).item() * prefactor)

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
