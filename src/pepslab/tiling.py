"""Wang tilings of the torus as tensor network contractions.

Each lattice site carries the indicator tensor of a tile set: physical index =
tile id, virtual legs = edge colors.  The network norm times D^(2 * rows *
cols) counts valid tilings exactly.  A tile fixes its four colors, so the
indicator's double layer is zero unless bra and ket carry the same color on
every bond: the contraction engine drops the other (bra, ket) pairs, and a
board contracts at bond dim D, not D^2.  The 6x6 torus of the tile set
(0,0,0,1), (0,1,1,0), (1,0,0,0), (1,1,0,1) peaks at 2^14 boundary entries,
not 2^28.  A delta-interpolated variant connects the (generally
non-injective) tile tensor at delta=0 to a perfectly injective tensor at
delta=1; its norm is a polynomial of degree 2 * rows * cols in delta, so the
count at delta=0 is recoverable from samples at delta > 1/2 by
polynomial extrapolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import backend
from . import tensor as tz
from .contraction import BOUNDARY_GUARD, peps_norm, peps_norms
from .errors import GuardExceeded
from .network import PHYS, PepsNetwork, periodic_grid
from .tensor import Tensor

SIDES = ("left", "top", "right", "bottom")
# The side of a torus bond at a site, by the bond's kind (h or v, see
# periodic_grid) and whether the site is its u end: a site is the u end of
# its right (h) and bottom (v) bonds.
_SIDE = {("h", False): 0, ("v", False): 1, ("h", True): 2, ("v", True): 3}

INTEGER_RESIDUE_TOL = 1e-6
# float64 holds every integer below 2**53 and no odd one above it
EXACT_COUNT_LIMIT = 1 << 53
TRANSFER_GUARD = 1 << 10
INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class WangTileSet:
    """Square tiles with colored sides; two tiles match when the touching
    sides carry equal colors."""

    colors: int
    tiles: tuple

    def __post_init__(self):
        if self.colors < 1:
            raise ValueError("need at least one color")
        norm = []
        for i, tile in enumerate(self.tiles):
            tile = tuple(int(c) for c in tile)
            if len(tile) != 4:
                raise ValueError(f"tile {i} must list (left, top, right, bottom)")
            if any(not 0 <= c < self.colors for c in tile):
                raise ValueError(f"tile {i} uses a color outside [0, {self.colors})")
            norm.append(tile)
        if not norm:
            raise ValueError("empty tile set")
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate tiles")
        object.__setattr__(self, "tiles", tuple(norm))

    @property
    def count(self) -> int:
        return len(self.tiles)


def tileset_to_json(ts: WangTileSet) -> dict:
    return {"colors": ts.colors, "tiles": [list(t) for t in ts.tiles]}


def tileset_from_json(obj: dict) -> WangTileSet:
    try:
        return WangTileSet(int(obj["colors"]), tuple(tuple(t) for t in obj["tiles"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tile set: {exc}") from exc


def load_tileset(path: str) -> WangTileSet:
    with open(path, "r", encoding="utf-8") as fh:
        return tileset_from_json(json.load(fh))


def tile_tensor(ts: WangTileSet) -> Tensor:
    """Indicator tensor, legs (left, top, right, bottom, phys)."""
    d = ts.colors
    arr = np.zeros((d, d, d, d, ts.count), dtype=np.complex128)
    for p, (left, top, right, bottom) in enumerate(ts.tiles):
        arr[left, top, right, bottom, p] = 1.0
    return Tensor([(s, d) for s in SIDES] + [(PHYS, ts.count)], arr)


def interpolated_tensor(ts: WangTileSet, delta: float) -> Tensor:
    """(1 - delta) * padded tile tensor + delta * identity tensor.

    The physical leg is padded to D^4 so the delta=1 endpoint is the exact
    identity map from the four virtual legs onto the physical index.  The
    padded indicator is a partial permutation matrix (norm 1), so for
    delta > 1/2 the smallest singular value is at least 2 * delta - 1: every
    sample the extrapolation uses comes from an injective network.  Entries
    are affine in delta, hence any contraction closed in both layers is a
    polynomial in delta.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    d = ts.colors
    full = d ** 4
    arr = np.zeros((d, d, d, d, full), dtype=np.complex128)
    for p, (left, top, right, bottom) in enumerate(ts.tiles):
        arr[left, top, right, bottom, p] += 1.0 - delta
    eye = np.eye(full, dtype=np.complex128).reshape(d, d, d, d, full)
    arr += delta * eye
    return Tensor([(s, d) for s in SIDES] + [(PHYS, full)], arr)


def tiling_network(ts: WangTileSet, rows: int, cols: int, delta: float = None) -> PepsNetwork:
    """Tile tensors on a periodic grid; matching is enforced by the bonds."""
    graph = periodic_grid(rows, cols, bond_dim=ts.colors)
    return _tile_network(graph, tile_tensor(ts) if delta is None else interpolated_tensor(ts, delta))


def _tile_network(graph, base: Tensor) -> PepsNetwork:
    """``base`` (legs ``SIDES`` + phys) on every site of the torus ``graph``.

    Each site's legs are its bonds in the graph's canonical order, so the
    network keeps its tensors as they are. The data is ``base``'s transposed
    once per distinct leg order and shared, read-only, by the sites with
    that order.
    """
    data, tensors = {}, {}
    for v in graph.vertices:
        edges = graph.incident(v)
        perm = tuple(_SIDE[e.id[0], e.u == v] for e in edges) + (4,)
        if perm not in data:
            data[perm] = np.ascontiguousarray(base.data.transpose(perm))
        legs = tuple((e.id, e.dim) for e in edges) + (base.legs[4],)
        tensors[v] = Tensor._trusted(legs, data[perm])
    return PepsNetwork(graph, tensors)


def count_tilings_exhaustive(ts: WangTileSet, rows: int, cols: int) -> int:
    """Exact torus tiling count by a row transfer matrix, independent of the norm route.

    Integer arithmetic only: the count is trace(T**rows), where T says which
    horizontally matched rows of tiles may sit on top of one another.  Work
    and memory grow with the t**min(rows, cols) candidate rows, not with the
    t**(rows*cols) assignments, and both are guarded: the candidate rows by
    TRANSFER_GUARD, and the assignments by the int64 range every partial
    count must fit in.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"a torus needs rows, cols >= 1, got rows={rows}, cols={cols}")
    t = ts.count
    states = t ** min(rows, cols)
    if states > TRANSFER_GUARD:
        raise GuardExceeded("transfer-matrix row states exceed guard", states, TRANSFER_GUARD)
    if t ** (rows * cols) > INT64_MAX:
        raise GuardExceeded("tiling count may overflow int64", t ** (rows * cols), INT64_MAX)
    left, top, right, bottom = np.array(ts.tiles, dtype=np.int64).T
    return backend.count_tilings(left, top, right, bottom, rows, cols)


def tiling_count_via_norm(ts: WangTileSet, rows: int, cols: int, *, guard: int = BOUNDARY_GUARD) -> dict:
    """Count tilings by contracting the indicator network.

    <Psi|Psi> sums |amplitude|^2 over tile assignments; amplitudes are
    D^(-edges/2) on valid tilings and 0 otherwise, so the count is the norm
    times D^(2 * rows * cols).  The indicator's double layer is diagonal in
    each bond's (bra, ket) color pair, so the engine contracts the board at
    bond dim D (at most; fewer where a color never meets itself across a
    bond), and a bond whose two sides share no color counts 0 without
    contracting.  The result must sit on an integer to within
    INTEGER_RESIDUE_TOL, and below 2**53, where float64 stops telling
    neighbouring integers apart.
    """
    net = tiling_network(ts, rows, cols)
    norm = peps_norm(net, guard=guard)
    scale = float(ts.colors) ** (2 * rows * cols)
    z = norm * scale
    _check_exact(z)
    count = round(z)
    residue = abs(z - count)
    if residue > INTEGER_RESIDUE_TOL * max(1.0, abs(z)):
        raise ValueError(f"contracted count {z!r} is not integral (residue {residue:.3e})")
    return {"count": int(count), "z": z, "norm": norm, "residue": residue}


def _check_exact(z: float) -> None:
    """Refuse a float count at or above 2**53, which no float64 value pins to one integer."""
    if abs(z) >= EXACT_COUNT_LIMIT:
        raise ValueError(
            f"contracted count {z!r} is at or above 2**53, beyond float64's exact integers")


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.ones_like(nodes)
    for i, x in enumerate(nodes):
        diff = x - np.delete(nodes, i)
        w[i] = 1.0 / np.prod(diff)
    return w / np.max(np.abs(w))


def _barycentric_eval(nodes, weights, values, x: float):
    """Second-form barycentric evaluation plus the error amplification factor."""
    diff = x - nodes
    hit = np.nonzero(np.abs(diff) == 0.0)[0]
    if hit.size:
        return float(values[hit[0]]), 1.0
    terms = weights / diff
    denom = np.sum(terms)
    value = float(np.sum(terms * values) / denom)
    amplification = float(np.sum(np.abs(terms)) / abs(denom))
    return value, amplification


def extrapolate_norm_to_zero(
    ts: WangTileSet,
    rows: int,
    cols: int,
    *,
    num_nodes: int = None,
    guard: int = BOUNDARY_GUARD,
) -> dict:
    """Recover the tiling count from norms of well-conditioned networks only.

    The norm of the interpolated network is a polynomial of degree
    2 * rows * cols in delta, pinned by samples at 2n + 1 nodes inside
    (0.5, 1), the region where the interpolated tensor is guaranteed
    injective.  Three extra samples are held out to measure the interpolation
    residual before extrapolating to delta = 0.  A count at or above 2**53 is
    refused, as in :func:`tiling_count_via_norm`.

    All 2n + 4 samples share one periodic grid and the same zero entries, so
    their norms come from one :func:`peps_norms` call: the contraction is
    planned once, each site's layers are squared as one stack, and each
    sample's norm is bitwise the one :func:`peps_norm` gives its network.
    """
    n = rows * cols
    degree = 2 * n
    if num_nodes is None:
        num_nodes = degree + 1
    if num_nodes < degree + 1:
        raise ValueError(f"need at least {degree + 1} nodes for a degree-{degree} polynomial")
    total = num_nodes + 3
    xs = 0.5 + 0.5 * (np.arange(1, total + 1) / (total + 1.0))
    held_idx = sorted({total // 4, total // 2, (3 * total) // 4})
    node_idx = [i for i in range(total) if i not in held_idx]
    while len(node_idx) > num_nodes:
        node_idx.pop()

    graph = periodic_grid(rows, cols, bond_dim=ts.colors)
    sampled = node_idx + held_idx
    nets = [_tile_network(graph, interpolated_tensor(ts, float(xs[i]))) for i in sampled]
    values = dict(zip(sampled, peps_norms(nets, guard=guard)))

    nodes = xs[node_idx]
    fvals = np.array([values[i] for i in node_idx])
    weights = _barycentric_weights(nodes)

    residual = 0.0
    for i in held_idx:
        pred, _ = _barycentric_eval(nodes, weights, fvals, float(xs[i]))
        residual = max(residual, abs(pred - values[i]) / max(1.0, abs(values[i])))

    norm0, amplification = _barycentric_eval(nodes, weights, fvals, 0.0)
    scale = float(ts.colors) ** (2 * n)
    z = norm0 * scale
    _check_exact(z)
    count = round(z)
    return {
        "z": z,
        "count": int(count),
        "integer_residue": abs(z - count),
        "norm_at_zero": norm0,
        "amplification": amplification,
        "held_out_residual": residual,
        "nodes": [float(x) for x in nodes],
        "held_out": [float(xs[i]) for i in held_idx],
        "degree": degree,
    }
