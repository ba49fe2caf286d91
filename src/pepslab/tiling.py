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
delta=1; its norm is a polynomial of degree 2n in delta, n = rows * cols, so
the count at delta=0 is fixed by 2n + 1 samples at delta > 1/2, where every
sample is injective (the interpolation technique of Valiant, Theoret. Comput.
Sci. 8, 189, 1979).  In float64 the extrapolation amplifies the samples'
round-off fast with n: it answers the 2x2 and 2x3 tori of two colors, and it
refuses a board whose estimated round-off on the count reaches 1/2 rather
than print an integer that round-off chose.
"""

from __future__ import annotations

import json
import math
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


def extrapolate_norm_to_zero(
    ts: WangTileSet,
    rows: int,
    cols: int,
    *,
    guard: int = BOUNDARY_GUARD,
) -> dict:
    """Recover the tiling count from norms of injective networks only.

    The norm of the interpolated network is a polynomial p of degree 2n in
    delta, n = rows * cols, so 2n + 1 samples fix it. They sit at the
    equispaced nodes delta = x / q, q = 4n + 4, for the integers
    x = 2n + 3 ... 4n + 3, all inside (1/2, 1), where every site is
    injective. p(0) is read in the barycentric second form, whose weights on
    equispaced nodes are (-1)**i * C(2n, i) (Berrut & Trefethen, SIAM Rev.
    46, 501, 2004), and scaled by colors**(2n) into the count z.

    ``amplification`` is the sum of the |terms| over |their sum|, the factor
    by which the evaluation can grow a relative error in the samples.
    ``roundoff`` is amplification * n * 2**-53 * max|p(x_i)| *
    colors**(2n): the error that one unit of round-off per absorbed site, in
    each sample, can put on z. It is an estimate, not a certificate. A count
    at or above 2**53 is refused first, as in :func:`tiling_count_via_norm`,
    then one whose ``roundoff`` reaches 1/2, as round-off may then decide the
    integer. With two colors the 2x2 and 2x3 tori answer; 2x4 and 3x3 are
    refused.

    All samples share one periodic grid and the same zero entries, so their
    norms come from one :func:`peps_norms` call: the contraction is planned
    once, each site's layers are squared as one stack, and each sample's norm
    is bitwise the one :func:`peps_norm` gives its network. A side below 2,
    which no periodic grid has, is refused first.
    """
    if rows < 2 or cols < 2:
        raise ValueError(
            f"a torus extrapolation needs rows, cols >= 2, got rows={rows}, cols={cols}")
    n = rows * cols
    degree = 2 * n
    q = 4 * n + 4
    nodes = np.arange(2 * n + 3, 4 * n + 4) / q
    graph = periodic_grid(rows, cols, bond_dim=ts.colors)
    values = np.array(peps_norms(
        [_tile_network(graph, interpolated_tensor(ts, float(x))) for x in nodes], guard=guard))

    weights = np.array([(-1) ** i * math.comb(degree, i) for i in range(degree + 1)], dtype=float)
    terms = weights / -nodes
    denom = np.sum(terms)
    norm0 = float(np.sum(terms * values) / denom)
    amplification = float(np.sum(np.abs(terms)) / abs(denom))
    scale = float(ts.colors) ** degree
    z = norm0 * scale
    _check_exact(z)
    roundoff = amplification * n * 2.0 ** -53 * float(np.max(np.abs(values))) * scale
    if roundoff >= 0.5:
        raise ValueError(
            f"extrapolated count {z!r} is not pinned: roundoff {roundoff:.3g} reaches 1/2 "
            f"(amplification {amplification:.3g})")
    count = round(z)
    return {
        "z": z,
        "count": int(count),
        "integer_residue": abs(z - count),
        "norm_at_zero": norm0,
        "amplification": amplification,
        "roundoff": roundoff,
        "nodes": [float(x) for x in nodes],
        "degree": degree,
    }
