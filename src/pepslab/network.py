"""PEPS networks on lattice graphs.

A network is a lattice graph (open grid, periodic grid, or an explicit edge
list) plus one tensor per vertex. Site tensors are maps from the tensor product
of virtual bond spaces into a physical space: legs are labeled by incident edge
ids, in canonical order (ascending neighbor vertex id, edge id as tiebreak for
parallel bonds), with the physical leg labeled ``phys`` last.

Every bond carries the uniform entangled pair state with 1/sqrt(dim)
normalization, so a network of isometric site tensors has norm exactly one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from . import tensor as tz
from .errors import GuardExceeded
from .tensor import Tensor

PHYS = "phys"

STATE_DIM_GUARD = 1 << 20


@dataclass(frozen=True)
class Edge:
    id: str
    u: int
    v: int
    dim: int

    def other(self, vertex: int) -> int:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise ValueError(f"vertex {vertex} not on edge {self.id}")


class LatticeGraph:
    """Vertices, bonds and geometry tag of a PEPS lattice."""

    def __init__(self, geometry: str, vertices: Iterable[int], edges: Iterable[Edge],
                 rows: int | None = None, cols: int | None = None) -> None:
        if geometry not in ("open-grid", "periodic-grid", "explicit"):
            raise ValueError(f"unknown geometry {geometry!r}")
        self.geometry = geometry
        self.vertices = tuple(sorted(int(v) for v in vertices))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        self.rows = rows
        self.cols = cols
        vset = set(self.vertices)
        seen = set()
        out = []
        for e in edges:
            if e.id in seen:
                raise ValueError(f"duplicate edge id {e.id!r}")
            seen.add(e.id)
            if e.u == e.v:
                raise ValueError(f"self-loop on vertex {e.u} (edge {e.id!r})")
            if e.u not in vset or e.v not in vset:
                raise ValueError(f"edge {e.id!r} references unknown vertex")
            if e.dim < 1:
                raise ValueError(f"edge {e.id!r} has dim {e.dim}")
            out.append(e)
        self.edges = tuple(out)
        self._by_id = {e.id: e for e in self.edges}
        incident: dict[int, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            incident[e.u].append(e)
            incident[e.v].append(e)
        self._incident = {v: tuple(sorted(es, key=lambda e: (e.other(v), e.id)))
                          for v, es in incident.items()}

    def edge(self, edge_id: str) -> Edge:
        return self._by_id[edge_id]

    def incident(self, vertex: int) -> tuple[Edge, ...]:
        """Incident edges in canonical order: (neighbor id, edge id) ascending, sorted once."""
        return self._incident[vertex]

    def vertex_at(self, r: int, c: int) -> int:
        if self.cols is None:
            raise ValueError("not a grid")
        return r * self.cols + c


def open_grid(rows: int, cols: int, bond_dim: int = 2) -> LatticeGraph:
    if rows < 1 or cols < 1:
        raise ValueError("grid must have at least one row and column")
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append(Edge(f"h{r}.{c}", r * cols + c, r * cols + c + 1, bond_dim))
            if r + 1 < rows:
                edges.append(Edge(f"v{r}.{c}", r * cols + c, (r + 1) * cols + c, bond_dim))
    return LatticeGraph("open-grid", range(rows * cols), edges, rows=rows, cols=cols)


def periodic_grid(rows: int, cols: int, bond_dim: int = 2) -> LatticeGraph:
    if rows < 2 or cols < 2:
        raise ValueError("periodic grid needs rows, cols >= 2 (smaller wraps are self-loops)")
    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append(Edge(f"h{r}.{c}", r * cols + c, r * cols + (c + 1) % cols, bond_dim))
            edges.append(Edge(f"v{r}.{c}", r * cols + c, ((r + 1) % rows) * cols + c, bond_dim))
    return LatticeGraph("periodic-grid", range(rows * cols), edges, rows=rows, cols=cols)


def explicit_graph(vertices: Iterable[int], edges: Iterable[Edge]) -> LatticeGraph:
    return LatticeGraph("explicit", vertices, edges)


class PepsNetwork:
    """Lattice graph plus site tensors, stored in canonical leg order.

    ``tensors`` is read-only, so a network cannot change under the boundaries
    the contraction engine keeps for it; :meth:`with_site` returns a copy.
    """

    def __init__(self, graph: LatticeGraph, tensors: Mapping[int, Tensor]) -> None:
        self.graph = graph
        if sorted(tensors) != list(graph.vertices):
            raise ValueError("tensors must cover exactly the graph vertices")
        canon: dict[int, Tensor] = {}
        for v in graph.vertices:
            t = tensors[v]
            edges = graph.incident(v)
            want = (*(e.id for e in edges), PHYS)
            if t.labels != want:
                if sorted(t.labels) != sorted(want):
                    raise ValueError(f"site {v}: legs {sorted(t.labels)} do not match "
                                     f"incident edges {sorted(want)}")
                t = tz.permute_legs(t, want)
            for e, (label, dim) in zip(edges, t.legs):
                if dim != e.dim:
                    raise ValueError(f"site {v}: leg {label!r} dim {dim} != bond dim {e.dim}")
            canon[v] = t
        self.tensors = MappingProxyType(canon)

    def site(self, v: int) -> Tensor:
        return self.tensors[v]

    def phys_dim(self, v: int) -> int:
        return self.tensors[v].dim(PHYS)

    def virtual_dim(self, v: int) -> int:
        return math.prod([e.dim for e in self.graph.incident(v)])

    def virtual_labels(self, v: int) -> list[str]:
        return [e.id for e in self.graph.incident(v)]

    def with_site(self, v: int, t: Tensor) -> "PepsNetwork":
        tensors = dict(self.tensors)
        tensors[v] = t
        return PepsNetwork(self.graph, tensors)


def link_state(edge: Edge) -> Tensor:
    """Normalized entangled pair on a bond, legs ``<id>@u`` / ``<id>@v``."""
    data = np.eye(edge.dim, dtype=np.complex128) / np.sqrt(edge.dim)
    return Tensor(((f"{edge.id}@u", edge.dim), (f"{edge.id}@v", edge.dim)), data)


def site_injectivity(net: PepsNetwork, v: int) -> float:
    """sigma_min / sigma_1 of the virtual -> physical map at one site; 0 if non-injective."""
    t = net.site(v)
    k = net.virtual_dim(v)
    if net.phys_dim(v) < k:
        return 0.0
    s = tz.singular_values(t, [PHYS], net.virtual_labels(v)).values
    if s[0] == 0.0 or s[-1] <= tz.RANK_TOL * s[0]:
        return 0.0
    return float(s[-1] / s[0])


def peps_injectivity(net: PepsNetwork) -> float:
    """Worst-site injectivity of the network (0 if any site is non-injective)."""
    return min(site_injectivity(net, v) for v in net.graph.vertices)


@dataclass(frozen=True)
class Observable:
    """Hermitian operator on up to four sites.

    The operator tensor carries legs ``in0, out0, in1, out1, ...`` following the
    order of ``support``; ``out`` legs are the row (bra) side.
    """

    support: tuple[int, ...]
    operator: Tensor

    HERMITICITY_TOL = 1e-12

    def __post_init__(self) -> None:
        if not self.support:
            raise ValueError("empty observable support")
        if len(set(self.support)) != len(self.support):
            raise ValueError("observable support must be distinct sites")
        if len(self.support) > 4:
            raise ValueError("observable support is limited to 4 sites")
        want = []
        for i in range(len(self.support)):
            want += [f"in{i}", f"out{i}"]
        if sorted(self.operator.labels) != sorted(want):
            raise ValueError(f"operator legs {self.operator.labels} must be {want}")
        for i in range(len(self.support)):
            if self.operator.dim(f"in{i}") != self.operator.dim(f"out{i}"):
                raise ValueError(f"operator in{i}/out{i} dims differ")
        # an absolute bound on the scale of the entries, with no relative term:
        # a looser check would let the engine drop an imaginary part unseen
        m = self.matrix()
        if np.abs(m - m.conj().T).max() > self.HERMITICITY_TOL * max(1.0, np.abs(m).max()):
            raise ValueError("observable operator is not Hermitian")

    def matrix(self) -> np.ndarray:
        n = len(self.support)
        rows = [f"out{i}" for i in range(n)]
        cols = [f"in{i}" for i in range(n)]
        return tz.matrix_view(self.operator, rows, cols)


def observable_from_matrix(support, matrix, dims=None) -> Observable:
    """Observable from a dense matrix over the listed sites (row-major site order)."""
    support = tuple(int(s) for s in support)
    m = np.asarray(matrix, dtype=np.complex128)
    n = len(support)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("observable matrix must be square")
    total = m.shape[0]
    if dims is None:
        dim = round(total ** (1.0 / n))
        if dim ** n != total:
            raise ValueError(f"matrix dim {total} is not a {n}-fold power")
        dims = (dim,) * n
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) != total:
        raise ValueError(f"site dims {dims} do not multiply to matrix dim {total}")
    rows = [(f"out{i}", dims[i]) for i in range(n)]
    cols = [(f"in{i}", dims[i]) for i in range(n)]
    t = tz.from_matrix(m, rows, cols)
    return Observable(support=support, operator=t)


def assemble_state_vector(net: PepsNetwork) -> Tensor:
    """Brute-force physical state: contract every bond pair state into the site maps.

    Returns a tensor with one leg ``phys<v>`` per vertex, ascending. Guarded by
    total physical dimension <= 2**20; this is the oracle route, not the engine.
    """
    total = 1
    for v in net.graph.vertices:
        total *= net.phys_dim(v)
        if total > STATE_DIM_GUARD:
            raise GuardExceeded("total physical dimension exceeds the state guard", total, STATE_DIM_GUARD)
    acc = tz.scalar(1.0)
    added: set[str] = set()
    for v in net.graph.vertices:
        for e in net.graph.incident(v):
            if e.id not in added:
                acc = tz.contract(acc, link_state(e), [])
                added.add(e.id)
        site = net.site(v).relabeled(
            {e.id: f"{e.id}@{'u' if e.u == v else 'v'}" for e in net.graph.incident(v)}
        )
        site = site.relabeled({PHYS: f"{PHYS}{v}"})
        pairs = [(f"{e.id}@{'u' if e.u == v else 'v'}",) * 2 for e in net.graph.incident(v)]
        acc = tz.contract(acc, site, pairs)
    order = [f"{PHYS}{v}" for v in net.graph.vertices]
    return tz.permute_legs(acc, order)


# ---------------------------------------------------------------------------
# Seeded test-instance factories (counter-based PRNG: numpy Philox)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_network(rows: int, cols: int, bond_dim: int = 2, phys_dim: int | None = None,
                   delta: float | None = None, seed: int = 0,
                   geometry: str = "open-grid") -> PepsNetwork:
    """Seeded random PEPS on a grid.

    With ``delta`` set, each site map gets singular spectrum linspace(1, delta)
    via random isometric factors, so its condition number is exactly 1/delta
    (requires physical dim >= virtual dim; ``phys_dim=None`` uses the minimum).
    With ``delta=None`` the entries are plain complex Gaussians, and any
    ``phys_dim`` is allowed. Same seed, same network, bit for bit.
    """
    if geometry == "open-grid":
        graph = open_grid(rows, cols, bond_dim)
    elif geometry == "periodic-grid":
        graph = periodic_grid(rows, cols, bond_dim)
    else:
        raise ValueError("random networks are generated on grid geometries")
    if delta is not None and not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    rng = _rng(seed)
    tensors: dict[int, Tensor] = {}
    for v in graph.vertices:
        legs = [(e.id, e.dim) for e in graph.incident(v)]
        k = math.prod([d for _, d in legs])
        d = k if phys_dim is None else int(phys_dim)
        if delta is None:
            mat = (rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))) / np.sqrt(2 * k)
        else:
            if d < k:
                raise ValueError(f"site {v}: phys dim {d} < virtual dim {k}, cannot hit 1/delta")
            spectrum = np.linspace(1.0, delta, k)
            u = _haar_unitary(rng, d)[:, :k]
            w = _haar_unitary(rng, k)
            mat = (u * spectrum) @ w
        tensors[v] = tz.from_matrix(mat.T, legs, [(PHYS, d)])
    return PepsNetwork(graph, tensors)


def isometric_network(rows: int, cols: int, bond_dim: int = 2, seed: int = 0) -> PepsNetwork:
    """Random network whose site maps are exact isometries (norm-one state)."""
    return random_network(rows, cols, bond_dim, phys_dim=None, delta=1.0, seed=seed)


def normalize_sigma1(net: PepsNetwork) -> PepsNetwork:
    """Rescale every site so its largest singular value is exactly one.

    Physical convention for comparing condition numbers and channel weights;
    normalized expectation values are unchanged.
    """
    tensors = {}
    for v in net.graph.vertices:
        t = net.site(v)
        s1 = tz.singular_values(t, [PHYS], net.virtual_labels(v)).largest
        if s1 <= 0.0:
            raise ValueError(f"site {v} is identically zero")
        tensors[v] = t.scaled(1.0 / s1)
    return PepsNetwork(net.graph, tensors)


# ---------------------------------------------------------------------------
# File formats


def network_to_json(net: PepsNetwork) -> dict:
    g = net.graph
    graph: dict = {"geometry": g.geometry}
    if g.rows is not None:
        graph["rows"] = g.rows
        graph["cols"] = g.cols
    graph["vertices"] = list(g.vertices)
    graph["edges"] = [{"id": e.id, "u": e.u, "v": e.v, "dim": e.dim} for e in g.edges]
    return {
        "graph": graph,
        "tensors": {str(v): tz.to_literal(net.site(v)) for v in g.vertices},
    }


def network_from_json(obj: dict) -> PepsNetwork:
    try:
        graph_obj = obj["graph"]
        tensors_obj = obj["tensors"]
    except (KeyError, TypeError):
        raise ValueError("network file must have 'graph' and 'tensors'") from None
    if not isinstance(graph_obj, dict) or not isinstance(tensors_obj, dict):
        raise ValueError("network file's 'graph' and 'tensors' must be JSON objects")
    edges = []
    for e in graph_obj["edges"]:
        try:
            edges.append(Edge(str(e["id"]), int(e["u"]), int(e["v"]), int(e["dim"])))
        except (KeyError, TypeError):
            raise ValueError(f"network edge {e!r} needs 'id', 'u', 'v' and 'dim'") from None
    geometry = graph_obj.get("geometry", "explicit")
    vertices = graph_obj.get("vertices")
    if vertices is None:
        rows, cols = int(graph_obj["rows"]), int(graph_obj["cols"])
        vertices = range(rows * cols)
    graph = LatticeGraph(geometry, vertices, edges,
                         rows=graph_obj.get("rows"), cols=graph_obj.get("cols"))
    tensors = {int(v): tz.from_literal(lit) for v, lit in tensors_obj.items()}
    return PepsNetwork(graph, tensors)


def observable_to_json(obs: Observable) -> dict:
    return {"support": list(obs.support), "operator": tz.to_literal(obs.operator)}


def observable_from_json(obj: dict) -> Observable:
    try:
        support = [int(v) for v in obj["support"]]
        op = tz.from_literal(obj["operator"])
    except (KeyError, TypeError):
        raise ValueError("observable file must have 'support' and 'operator'") from None
    return Observable(support=tuple(support), operator=op)
