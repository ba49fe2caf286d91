"""Parent Hamiltonians for injective tensor networks.

Every edge of an injective network contributes one positive semidefinite
two-site term built from the pseudo-inverses of the endpoint tensors and the
projector that kills the shared link state.  The resulting Hamiltonian is
frustration free: the network state is an exact zero-energy eigenstate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .errors import GuardExceeded
from .network import PHYS, Observable, PepsNetwork, assemble_state_vector, observable_from_matrix
from .tensor import NonInjectiveError, Tensor

PINV_RTOL = 1e-12
DENSE_DIM_LIMIT = 1 << 14
DENSE_EIG_CUTOFF = 256
DEGENERACY_TOL = 1e-8


def pseudo_inverse(t: Tensor, out_legs, in_legs) -> Tensor:
    """Pseudo-inverse of ``t`` viewed as a linear map ``in_legs -> out_legs``.

    The result keeps the same legs; read it as the reverse map
    ``out_legs -> in_legs``.  All singular values must exceed
    ``PINV_RTOL * sigma_max`` (the map must be injective), otherwise
    NonInjectiveError is raised.
    """
    m = tz.matrix_view(t, out_legs, in_legs)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= PINV_RTOL * s[0]:
        raise NonInjectiveError(
            f"singular values span [{s[-1]:.3e}, {s[0]:.3e}], below pinv threshold"
        )
    inv = (vh.conj().T * (1.0 / s)) @ u.conj().T  # in_dim x out_dim
    rows = [(lbl, t.dim(lbl)) for lbl in in_legs]
    cols = [(lbl, t.dim(lbl)) for lbl in out_legs]
    return tz.from_matrix(inv, rows, cols)


def _site_inverse_map(net: PepsNetwork, vertex: int, tag: str):
    """Tensor for T_v^{-1} with virtual legs suffixed by ``tag``.

    Returned legs: (virtual legs renamed to ``{edge_id}{tag}``..., phys).
    Entry [v..., p] is the pseudo-inverse matrix element <v...|T^{-1}|p>.
    """
    t = net.site(vertex)
    virt = [lbl for lbl in t.labels if lbl != PHYS]
    inv = pseudo_inverse(t, [PHYS], virt)
    mapping = {lbl: lbl + tag for lbl in virt}
    mapping[PHYS] = PHYS + tag
    return inv.relabeled(mapping), [mapping[lbl] for lbl in virt]


def _link_projector(edge_dim: int) -> Tensor:
    """1 - |phi><phi| on a link pair, phi the maximally entangled link state."""
    d = edge_dim
    eye2 = np.eye(d * d, dtype=np.complex128)
    phi = np.eye(d, dtype=np.complex128).reshape(-1) / np.sqrt(d)
    p = eye2 - np.outer(phi, phi.conj())
    return tz.from_matrix(
        p,
        [("xo", d), ("yo", d)],
        [("xi", d), ("yi", d)],
    )


def parent_term(net: PepsNetwork, edge_id: str) -> Observable:
    """Two-site parent Hamiltonian term for one edge, as a physical observable.

    h = A^dag (1 - |phi_e><phi_e|) A with A = T_x^{-1} (x) T_y^{-1}, acting as
    the identity on every virtual leg other than the pair carried by the edge.
    Built as B^dag B, so the result is exactly Hermitian PSD up to round-off.
    """
    edge = next((e for e in net.graph.edges if e.id == edge_id), None)
    if edge is None:
        raise ValueError(f"unknown edge id {edge_id!r}")
    x, y = edge.u, edge.v

    inv_x, virt_x = _site_inverse_map(net, x, "@hx")
    inv_y, virt_y = _site_inverse_map(net, y, "@hy")
    proj = _link_projector(edge.dim)

    pair = tz.contract(inv_x, inv_y, [])
    pair = tz.contract(
        proj,
        pair,
        [("xi", edge.id + "@hx"), ("yi", edge.id + "@hy")],
    )
    # B legs: xo, yo, remaining virtual legs of x and y, phys@hx, phys@hy.
    row_legs = ["xo", "yo"]
    row_legs += [lbl for lbl in virt_x if lbl != edge.id + "@hx"]
    row_legs += [lbl for lbl in virt_y if lbl != edge.id + "@hy"]
    b = tz.matrix_view(pair, row_legs, [PHYS + "@hx", PHYS + "@hy"])
    h = b.conj().T @ b
    h = 0.5 * (h + h.conj().T)
    dx = net.site(x).dim(PHYS)
    dy = net.site(y).dim(PHYS)
    return observable_from_matrix((x, y), h, dims=(dx, dy))


@dataclass(frozen=True)
class ParentHamiltonian:
    """Sum of per-edge parent terms over a fixed vertex ordering.

    Construction prepares every term once: its matrix, the axis permutation
    that brings its support to the front of the state tensor, and the inverse
    of that permutation.  ``matvec``, ``to_dense`` and ``term_norms`` all read
    these prepared terms.
    """

    vertices: tuple
    dims: tuple
    terms: tuple  # of Observable
    _prepared: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.dims)
        prepared = []
        for obs in self.terms:
            ax = [self.vertices.index(v) for v in obs.support]
            perm = ax + [i for i in range(n) if i not in ax]
            prepared.append((obs.matrix(), tuple(perm), tuple(np.argsort(perm).tolist())))
        object.__setattr__(self, "_prepared", tuple(prepared))

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64))

    def term_norms(self) -> list:
        return [float(np.linalg.norm(m, ord=2)) for m, _, _ in self._prepared]

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        psi = np.asarray(vec, dtype=np.complex128).reshape(self.dims)
        out = np.zeros_like(psi)
        for m, perm, inv in self._prepared:
            front = psi.transpose(perm).reshape(m.shape[0], -1)
            contrib = (m @ front).reshape([self.dims[a] for a in perm])
            out += contrib.transpose(inv)
        return out.reshape(-1)

    def to_dense(self) -> np.ndarray:
        dim = self.dim
        if dim > DENSE_DIM_LIMIT:
            raise GuardExceeded("Hamiltonian dimension exceeds the dense guard", dim, DENSE_DIM_LIMIT)
        n = len(self.dims)
        h = np.zeros((dim, dim), dtype=np.complex128)
        for m, perm, inv in self._prepared:
            # kron with the identity on the other sites in the permuted order,
            # then undo the permutation on the row and the column axes.
            big = np.kron(m, np.eye(dim // m.shape[0], dtype=np.complex128))
            shape = [self.dims[a] for a in perm]
            big = big.reshape(shape + shape).transpose(list(inv) + [n + i for i in inv])
            h += big.reshape(dim, dim)
        return h


def parent_hamiltonian(net: PepsNetwork) -> ParentHamiltonian:
    vertices = tuple(net.graph.vertices)
    dims = tuple(net.site(v).dim(PHYS) for v in vertices)
    terms = tuple(parent_term(net, e.id) for e in net.graph.edges)
    return ParentHamiltonian(vertices=vertices, dims=dims, terms=terms)


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple
    degeneracy: int
    gap: float
    gap_normalized: float
    overlap: float
    max_term_norm: float
    solver: str

    def to_json(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "degeneracy": self.degeneracy,
            "gap": self.gap,
            "gap_normalized": self.gap_normalized,
            "overlap": self.overlap,
            "max_term_norm": self.max_term_norm,
            "solver": self.solver,
        }


def _low_spectrum(ham: ParentHamiltonian, k: int):
    import scipy.linalg
    from scipy.sparse.linalg import LinearOperator, eigsh

    dim = ham.dim
    k = max(2, min(k, dim - 1))
    if dim <= DENSE_EIG_CUTOFF:
        vals, vecs = scipy.linalg.eigh(ham.to_dense(), subset_by_index=[0, k - 1])
        return vals, vecs, "dense"
    op = LinearOperator(
        (dim, dim),
        matvec=lambda v: ham.matvec(v),
        dtype=np.complex128,
    )
    # A fixed start vector makes the report repeatable.  It must not be the
    # network state: an exact eigenvector ends the Krylov space at once.
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    # sigma-free Lanczos on a PSD operator; shift-invert is not worth the
    # factorization cost at these sizes.
    vals, vecs = eigsh(op, k=k, which="SA", tol=1e-11, maxiter=5000, v0=v0)
    order = np.argsort(vals)
    return vals[order], vecs[:, order], "lanczos"


def spectrum_report(ham: ParentHamiltonian, net: PepsNetwork = None, k: int = 6) -> SpectrumReport:
    """Low eigenvalues, ground degeneracy, gap, and overlap with the network state.

    The gap is E_{deg} - E_0 where deg counts eigenvalues within
    DEGENERACY_TOL of E_0.  gap_normalized divides by the largest term norm
    (the convention that caps every local term at unit norm).
    """
    if ham.dim > DENSE_DIM_LIMIT:
        raise GuardExceeded("Hamiltonian dimension exceeds the dense guard", ham.dim, DENSE_DIM_LIMIT)
    vals, vecs, solver = _low_spectrum(ham, k)
    e0 = float(vals[0])
    deg = int(np.sum(vals <= e0 + DEGENERACY_TOL))
    if deg < len(vals):
        gap = float(vals[deg] - e0)
    else:
        gap = float("nan")
    norms = ham.term_norms()
    max_norm = max(norms) if norms else 0.0
    gap_normalized = gap / max_norm if max_norm > 0 else float("nan")

    overlap = float("nan")
    if net is not None:
        psi = assemble_state_vector(net)
        order = [f"{PHYS}{v}" for v in ham.vertices]
        psi = tz.permute_legs(psi, order)
        vec = psi.data.reshape(-1)
        nrm = np.linalg.norm(vec)
        if nrm > 0:
            vec = vec / nrm
            amp = vecs[:, :deg].conj().T @ vec
            overlap = float(np.sum(np.abs(amp) ** 2))
    return SpectrumReport(
        eigenvalues=tuple(float(v) for v in vals),
        degeneracy=deg,
        gap=gap,
        gap_normalized=gap_normalized,
        overlap=overlap,
        max_term_norm=float(max_norm),
        solver=solver,
    )
