"""Wang tilings of the torus as tensor network contractions.

Each lattice site carries the indicator tensor of a tile set: physical index =
tile id, virtual legs = edge colors.  The network norm times D^(2 * rows *
cols) counts valid tilings exactly.  A delta-interpolated variant connects the
(generally non-injective) tile tensor at delta=0 to a perfectly injective
tensor at delta=1; its norm is a polynomial of degree 2 * rows * cols in
delta, so the count at delta=0 is recoverable from samples at delta > 1/2 by
polynomial extrapolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import backend
from . import tensor as tz
from .contraction import BOUNDARY_GUARD, peps_norm
from .errors import GuardExceeded
from .network import PHYS, PepsNetwork, periodic_grid
from .tensor import Tensor

SIDES = ("left", "top", "right", "bottom")

INTEGER_RESIDUE_TOL = 1e-6
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
    base = tile_tensor(ts) if delta is None else interpolated_tensor(ts, delta)
    tensors = {}
    for r in range(rows):
        for c in range(cols):
            mapping = {
                "left": f"h{r}.{(c - 1) % cols}",
                "right": f"h{r}.{c}",
                "top": f"v{(r - 1) % rows}.{c}",
                "bottom": f"v{r}.{c}",
            }
            tensors[r * cols + c] = base.relabeled(mapping)
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
    times D^(2 * rows * cols).  The result must sit on an integer to within
    INTEGER_RESIDUE_TOL.
    """
    net = tiling_network(ts, rows, cols)
    norm = peps_norm(net, guard=guard)
    scale = float(ts.colors) ** (2 * rows * cols)
    z = norm * scale
    count = round(z)
    residue = abs(z - count)
    if residue > INTEGER_RESIDUE_TOL * max(1.0, abs(z)):
        raise ValueError(f"contracted count {z!r} is not integral (residue {residue:.3e})")
    return {"count": int(count), "z": z, "norm": norm, "residue": residue}


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
    residual before extrapolating to delta = 0.
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

    values = {}
    for i in np.concatenate([node_idx, held_idx]):
        net = tiling_network(ts, rows, cols, delta=float(xs[i]))
        values[int(i)] = peps_norm(net, guard=guard)

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
