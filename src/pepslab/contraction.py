"""Exact double-layer contraction of PEPS networks.

The engine squares each site tensor into a double-layer tensor whose bra and
ket bond indices are fused per edge, then absorbs sites one at a time in a
deterministic sweep (grid geometries: left-to-right columns, bottom-to-top
within a column; explicit geometries: ascending vertex id). Bonds contract
automatically when both endpoints have been absorbed, so open, periodic and
explicit graphs all go through the same path. Each bond's pair-state
normalization contributes a factor 1/dim.

Costs are bounded before any allocation by a dry run over leg labels; the
largest intermediate is guarded (default 2**20 entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as tz
from .errors import GuardExceeded
from .network import PHYS, Observable, PepsNetwork
from .tensor import Tensor

BOUNDARY_GUARD = 1 << 20

_EPS = float(np.finfo(np.float64).eps)


def double_layer(net: PepsNetwork, site: int, observable_factor: Tensor | None = None,
                 open_phys: bool = False) -> Tensor:
    """Bra-ket square of one site tensor with bond legs fused per edge.

    The fused index of edge ``e`` is bra-major ``(bra, ket)``, identical at both
    endpoints, so fused legs contract directly across a bond. With
    ``observable_factor`` (legs ``in0``/``out0``) the physical pair is sandwiched
    instead of traced; with ``open_phys`` it stays open as ``bra@<site>`` /
    ``ket@<site>``.
    """
    t = net.site(site)
    edge_ids = net.virtual_labels(site)
    bra = t.conj().relabeled({l: f"b:{l}" for l in edge_ids} | {PHYS: "_bp"})
    ket = t.relabeled({l: f"k:{l}" for l in edge_ids} | {PHYS: "_kp"})
    if observable_factor is not None and open_phys:
        raise ValueError("choose either an observable factor or open physical legs")
    if observable_factor is not None:
        half = tz.contract(bra, observable_factor, [("_bp", "out0")])
        e = tz.contract(half, ket, [("in0", "_kp")])
    elif open_phys:
        e = tz.contract(bra, ket, [])
        e = e.relabeled({"_bp": f"bra@{site}", "_kp": f"ket@{site}"})
    else:
        e = tz.contract(bra, ket, [("_bp", "_kp")])
    for l in edge_ids:
        e = tz.fuse_legs(e, [f"b:{l}", f"k:{l}"], l)
    order = edge_ids + ([f"bra@{site}", f"ket@{site}"] if open_phys else [])
    return tz.permute_legs(e, order)


def mixed_closure(edge_dim: int, label: str) -> Tensor:
    """Fused-leg closure for a cut bond: the maximally mixed pair delta_bk / dim."""
    vec = (np.eye(edge_dim, dtype=np.complex128) / edge_dim).ravel()
    return Tensor(((label, edge_dim * edge_dim),), vec)


def sweep_order(graph, sweep: str = "cols") -> list[int]:
    if graph.rows is None:
        return list(graph.vertices)
    rows, cols = graph.rows, graph.cols
    if sweep == "cols":
        return [r * cols + c for c in range(cols) for r in range(rows - 1, -1, -1)]
    if sweep == "rows":
        return [r * cols + c for r in range(rows) for c in range(cols)]
    raise ValueError(f"unknown sweep {sweep!r}")


def _dry_run(layers: dict[int, Tensor], order: Sequence[int],
             closures: dict[str, Tensor], guard: int | None) -> None:
    if guard is None:
        return
    open_legs: dict[str, int] = {}
    worst = 1
    for v in order:
        t = layers[v]
        for label, dim in t.legs:
            if label in open_legs:
                del open_legs[label]
            else:
                open_legs[label] = dim
        for label in list(open_legs):
            if label in closures:
                del open_legs[label]
        size = 1
        for d in open_legs.values():
            size *= d
        worst = max(worst, size)
        if worst > guard:
            raise GuardExceeded("contraction boundary exceeds guard", worst, guard)


def _absorb(layers: dict[int, Tensor], order: Sequence[int],
            closures: dict[str, Tensor]) -> Tensor:
    acc = tz.scalar(1.0)
    for v in order:
        t = layers[v]
        shared = [l for l in acc.labels if l in set(t.labels)]
        acc = tz.contract(acc, t, [(l, l) for l in shared])
        for label in acc.labels:
            if label in closures:
                acc = tz.contract(acc, closures[label], [(label, label)])
    return acc


def _contract_network(layers: dict[int, Tensor], order: Sequence[int],
                      closures: dict[str, Tensor], prefactor: float,
                      observable: Observable | None, guard: int | None,
                      absolute: bool = False) -> complex:
    if absolute:
        layers = {v: Tensor(t.legs, np.abs(t.data)) for v, t in layers.items()}
        closures = {l: Tensor(t.legs, np.abs(t.data)) for l, t in closures.items()}
    _dry_run(layers, order, closures, guard)
    acc = _absorb(layers, order, closures)
    if observable is not None:
        op = observable.operator
        if absolute:
            op = Tensor(op.legs, np.abs(op.data))
        pairs = []
        for i, v in enumerate(observable.support):
            pairs += [(f"bra@{v}", f"out{i}"), (f"ket@{v}", f"in{i}")]
        acc = tz.contract(acc, op, pairs)
    return acc.item() * prefactor


def _norm_layers(net: PepsNetwork, observable: Observable | None):
    """Double layers, deferred-observable flag, closures and bond prefactor for a network."""
    single = observable is not None and len(observable.support) == 1
    layers = {}
    for v in net.graph.vertices:
        if single and v == observable.support[0]:
            layers[v] = double_layer(net, v, observable_factor=observable.operator)
        elif observable is not None and not single and v in observable.support:
            layers[v] = double_layer(net, v, open_phys=True)
        else:
            layers[v] = double_layer(net, v)
    deferred = observable if (observable is not None and not single) else None
    prefactor = 1.0
    for e in net.graph.edges:
        prefactor /= e.dim
    return layers, deferred, prefactor


def _real_scalar(value: complex, abs_scale_fn, *, what: str) -> float:
    """Validate that a contraction result is real (and clamp norm round-off)."""
    real, imag = value.real, value.imag
    if real >= 0.0 and abs(imag) <= 1e-10 * max(1.0, abs(real)):
        return real
    tol = max(1e-12, 4096.0 * _EPS * abs_scale_fn())
    if real < -tol:
        raise ValueError(f"{what} is negative beyond round-off: {real}")
    if abs(imag) > max(1e-10 * max(1.0, abs(real)), tol):
        raise ValueError(f"{what} has imaginary residue {imag}")
    return max(real, 0.0)


def peps_norm(net: PepsNetwork, *, guard: int | None = BOUNDARY_GUARD,
              sweep: str = "cols") -> float:
    """Exact squared norm of the physical state."""
    layers, _, prefactor = _norm_layers(net, None)
    order = sweep_order(net.graph, sweep)
    value = _contract_network(layers, order, {}, prefactor, None, guard)
    return _real_scalar(
        value,
        lambda: abs(_contract_network(layers, order, {}, prefactor, None, guard, absolute=True)),
        what="norm",
    )


def _check_support(net: PepsNetwork, obs: Observable) -> None:
    for i, v in enumerate(obs.support):
        if v not in net.tensors:
            raise ValueError(f"observable site {v} not in network")
        if obs.operator.dim(f"in{i}") != net.phys_dim(v):
            raise ValueError(
                f"observable dim {obs.operator.dim(f'in{i}')} != phys dim {net.phys_dim(v)} at site {v}"
            )


def nev_report(net: PepsNetwork, obs: Observable, *, guard: int | None = BOUNDARY_GUARD,
               sweep: str = "cols") -> dict:
    """Normalized expectation value with its imaginary residue and the norm."""
    _check_support(net, obs)
    nlayers, _, prefactor = _norm_layers(net, None)
    order = sweep_order(net.graph, sweep)
    denom = _real_scalar(
        _contract_network(nlayers, order, {}, prefactor, None, guard),
        lambda: abs(_contract_network(nlayers, order, {}, prefactor, None, guard, absolute=True)),
        what="norm",
    )
    if denom < 1e-300:
        raise ValueError("state has numerically zero norm; expectation undefined")
    olayers, deferred, _ = _norm_layers(net, obs)
    numer = _contract_network(olayers, order, {}, prefactor, deferred, guard)
    value = numer / denom
    residue = abs(value.imag)
    if residue > 1e-10 * max(1.0, abs(value.real)):
        raise ValueError(f"expectation of Hermitian observable has imaginary residue {residue}")
    return {"value": float(value.real), "imag_residue": float(residue), "norm": float(denom)}


def peps_nev(net: PepsNetwork, obs: Observable, *, guard: int | None = BOUNDARY_GUARD,
             sweep: str = "cols") -> float:
    return nev_report(net, obs, guard=guard, sweep=sweep)["value"]


def decide_nev(net: PepsNetwork, obs: Observable, *, guard: int | None = BOUNDARY_GUARD) -> str:
    """Promise-problem wrapper: accept at >= 2/3, reject at <= 1/3, else undetermined."""
    value = peps_nev(net, obs, guard=guard)
    if value >= 2.0 / 3.0:
        return "accept"
    if value <= 1.0 / 3.0:
        return "reject"
    return "undetermined"


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
    if patch.covers_lattice:
        return peps_nev(net, obs, guard=guard)
    inside = set(patch.interior)
    ring = set(patch.ring)
    closures: dict[str, Tensor] = {}
    prefactor = 1.0
    for e in net.graph.edges:
        u_in, v_in = e.u in inside, e.v in inside
        if u_in and v_in:
            prefactor /= e.dim
        elif u_in != v_in and (e.u in ring or e.v in ring):
            closures[e.id] = mixed_closure(e.dim, e.id)
    order = [v for v in sweep_order(net.graph) if v in inside]

    def run(observable: Observable | None) -> complex:
        single = observable is not None and len(observable.support) == 1
        layers = {}
        for v in patch.interior:
            if observable is not None and v in observable.support:
                if single:
                    layers[v] = double_layer(net, v, observable_factor=observable.operator)
                else:
                    layers[v] = double_layer(net, v, open_phys=True)
            else:
                layers[v] = double_layer(net, v)
        deferred = observable if (observable is not None and not single) else None
        return _contract_network(layers, order, closures, prefactor, deferred, guard)

    denom = run(None).real
    if denom <= 1e-300:
        raise ValueError("patch has numerically zero weight")
    value = run(obs) / denom
    residue = abs(value.imag)
    if residue > 1e-10 * max(1.0, abs(value.real)):
        raise ValueError(f"patch expectation has imaginary residue {residue}")
    return float(value.real)
