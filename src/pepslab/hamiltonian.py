"""Parent Hamiltonians for injective tensor networks.

Every edge of an injective network contributes one positive semidefinite
two-site term built from the pseudo-inverses of the endpoint tensors and the
projector that kills the shared link state.  The resulting Hamiltonian is
frustration free: the network state is an exact zero-energy eigenstate.

``spectrum_report`` reads the low spectrum with numpy alone: ``eigh`` of the
dense matrix up to DENSE_EIG_CUTOFF, and above it a thick-restart Lanczos that
calls ``matvec`` one vector at a time, followed by a randomized probe for
ground-state copies a single Krylov space cannot see.  A solve that does not
converge within LANCZOS_MATVEC_BUDGET products raises GuardExceeded.
"""

from __future__ import annotations

import math
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
LANCZOS_BASIS = 30
LANCZOS_MAX_K = LANCZOS_BASIS // 2
LANCZOS_TOL = 1e-11
LANCZOS_MATVEC_BUDGET = 20000
PROBE_FAILURE = 1e-6


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
        return math.prod(self.dims)

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
    matvecs: int
    residual: float

    def to_json(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "degeneracy": self.degeneracy,
            "gap": self.gap,
            "gap_normalized": self.gap_normalized,
            "overlap": self.overlap,
            "max_term_norm": self.max_term_norm,
            "solver": self.solver,
            "matvecs": self.matvecs,
            "residual": self.residual,
        }


def _overlaps(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``rows.conj() @ w`` without a conjugated copy of ``rows``."""
    return (rows @ w.conj()).conj()


class _Operator:
    """``ham.matvec`` on one vector at a time, counted against the matvec budget.

    With ``locked`` set (orthonormal rows), ``project`` removes their span.
    A Lanczos run on the complement projects every new basis vector after its
    recurrence: the locked vectors span a zero eigenspace of the projected
    operator, which round-off would otherwise bring back as a false ground
    state.
    """

    def __init__(self, ham: ParentHamiltonian) -> None:
        self.ham = ham
        self.matvecs = 0
        self.locked = None

    def reserve(self, count: int) -> None:
        if self.matvecs + count > LANCZOS_MATVEC_BUDGET:
            raise GuardExceeded(
                "Lanczos eigensolver needs more matvecs than its budget",
                self.matvecs + count,
                LANCZOS_MATVEC_BUDGET,
            )

    def project(self, w: np.ndarray) -> np.ndarray:
        if self.locked is None:
            return w
        return w - _overlaps(self.locked, w) @ self.locked

    def __call__(self, v: np.ndarray) -> np.ndarray:
        self.reserve(1)
        self.matvecs += 1
        return self.ham.matvec(v)


def _random_start(rng, op: _Operator) -> np.ndarray:
    dim = op.ham.dim
    v = op.project(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    return v / np.linalg.norm(v)


def _thick_restart_lanczos(op: _Operator, start: np.ndarray, k: int, scale: float, rng):
    """Lowest ``k`` Ritz pairs of ``op`` by thick-restart Lanczos (Wu & Simon 2000).

    The basis holds at most LANCZOS_BASIS vectors.  Each step runs the
    three-term recurrence (after a restart, the kept Ritz vectors take the
    place of the previous vector) and then one classical Gram-Schmidt pass
    against the whole basis.  A full basis restarts from its lowest Ritz
    vectors, about half of it.  The run stops when each of the ``k`` lowest
    Ritz pairs has residual ``beta * |s_last| <= LANCZOS_TOL * scale``, scale
    being the largest |Ritz value| seen: an absolute test in the operator's own
    scale, so an exact zero eigenvalue costs no extra sweeps.

    Returns the Ritz values, the Ritz vectors as rows, their residual norms
    and the updated scale.
    """
    dim = start.size
    size = min(LANCZOS_BASIS, dim)
    keep = max(k, size // 2)
    basis = np.empty((size, dim), dtype=np.complex128)
    t = np.zeros((size, size))
    basis[0] = start
    kept, j = 0, 0
    while True:
        w = op(basis[j])
        alpha = float(np.vdot(basis[j], w).real)
        t[j, j] = alpha
        scale = max(scale, abs(alpha))
        w -= alpha * basis[j]
        if j == kept and kept > 0:
            w -= t[:kept, j] @ basis[:kept]
        elif j > 0:
            w -= t[j - 1, j] * basis[j - 1]
        w -= _overlaps(basis[: j + 1], w) @ basis[: j + 1]
        w = op.project(w)
        beta = float(np.linalg.norm(w))
        breakdown = beta <= LANCZOS_TOL * scale
        if j + 1 < size and not breakdown:
            t[j, j + 1] = t[j + 1, j] = beta
            basis[j + 1] = w / beta
            j += 1
            continue
        if breakdown:
            # the Krylov space is invariant: its Ritz pairs are exact, and a
            # fresh direction continues the search with no coupling to it
            beta = 0.0
        theta, s = np.linalg.eigh(t[: j + 1, : j + 1])
        scale = max(scale, float(np.max(np.abs(theta))))
        res = beta * np.abs(s[j])
        if j + 1 >= k and np.all(res[:k] <= LANCZOS_TOL * scale):
            return theta[:k], s[:, :k].T @ basis[: j + 1], res[:k], scale
        nxt = w / beta if beta > 0 else None
        if j + 1 < size:
            # breakdown with room left: extend the basis
            j += 1
        else:
            kept = keep
            basis[:kept] = s[:, :kept].T @ basis
            t[:] = 0.0
            t[np.arange(kept), np.arange(kept)] = theta[:kept]
            t[kept, :kept] = t[:kept, kept] = beta * s[j, :kept]
            j = kept
        if nxt is None:
            nxt = _random_start(rng, op)
            nxt -= _overlaps(basis[:j], nxt) @ basis[:j]
            nxt /= np.linalg.norm(nxt)
        basis[j] = nxt


def _probe_steps(dim: int, gap: float, spread: float) -> int:
    """Lanczos steps that bring the lowest Ritz value within gap/2 of the bottom.

    Kuczynski & Wozniakowski (SIAM J. Matrix Anal. Appl. 13, 1094, 1992):
    from a random start, m steps leave the lowest Ritz value above
    ``lambda_min + eps * (lambda_max - lambda_min)`` with probability at most
    ``1.648 sqrt(dim) exp(-sqrt(eps) (2m - 1))``.  ``spread`` bounds
    ``lambda_max - lambda_min`` from above.
    """
    eps = gap / (2.0 * spread)
    return math.ceil((math.log(1.648 * math.sqrt(dim) / PROBE_FAILURE) / math.sqrt(eps) + 1) / 2)


def _probe_finds_lower(op: _Operator, start: np.ndarray, steps: int, threshold: float, scale: float) -> bool:
    """Whether plain Lanczos on ``op`` from ``start`` finds a Ritz value below ``threshold``.

    The three-term recurrence keeps no basis.  The LDL^T pivots of
    ``T - threshold`` grow one per step, and the first negative pivot means a
    Ritz value below the threshold (Sylvester's law of inertia).
    """
    op.reserve(steps)
    prev = np.zeros_like(start)
    q, beta, pivot = start, 0.0, 1.0
    for _ in range(steps):
        w = op(q)
        alpha = float(np.vdot(q, w).real)
        pivot = alpha - threshold - beta * beta / pivot
        if pivot < 0:
            return True
        pivot = max(pivot, np.finfo(float).tiny)
        w -= alpha * q + beta * prev
        w = op.project(w)
        beta = float(np.linalg.norm(w))
        if beta <= LANCZOS_TOL * scale:
            return False
        prev, q = q, w / beta
    return False


def _lanczos_spectrum(ham: ParentHamiltonian, k: int, spread: float):
    """Lowest ``k`` eigenpairs by thick-restart Lanczos, degenerate copies included.

    A single-vector Krylov space sees one direction per eigenspace, so the
    converged pairs can miss copies of a degenerate eigenvalue.  A probe from
    a fresh random vector, projected off the ``k`` pairs, then runs enough
    steps to find a missed ground copy with probability at least
    1 - PROBE_FAILURE.  Its threshold, ``theta_{k-1} - gap / 2``, is at least
    ``theta_0 + gap / 2``, so the same steps also find any missed eigenvalue
    more than ``gap`` below the top pair.  If the probe finds a Ritz value
    below it, the lowest pair of the complement is solved for and merged, and
    the probe runs again.  It stops once the ground space fills ``k``, which
    the report refuses anyway.  ``spread`` bounds the operator norm from
    above.
    """
    dim = ham.dim
    op = _Operator(ham)
    # A fixed start vector makes the report repeatable.  It must not be the
    # network state: an exact eigenvector ends the Krylov space at once.
    rng = np.random.default_rng(0)
    vals, vecs, res, scale = _thick_restart_lanczos(op, _random_start(rng, op), k, 0.0, rng)
    while True:
        deg = int(np.sum(vals <= vals[0] + DEGENERACY_TOL))
        if deg >= k:
            break
        gap = float(vals[deg] - vals[0])
        op.locked = vecs
        steps = _probe_steps(dim, gap, spread)
        if not _probe_finds_lower(op, _random_start(rng, op), steps, vals[-1] - gap / 2, scale):
            break
        val, vec, r, scale = _thick_restart_lanczos(op, _random_start(rng, op), 1, scale, rng)
        op.locked = None
        # the merged vector also carries the residual the locked pairs leave
        # in its complement
        res = np.append(res, r[0] + np.linalg.norm(res))
        vals = np.append(vals, val)
        vecs = np.vstack([vecs, vec])
        order = np.argsort(vals, kind="stable")[:k]
        vals, vecs, res = vals[order], vecs[order], res[order]
    return vals, vecs.T, float(np.max(res)), op.matvecs


def _low_spectrum(ham: ParentHamiltonian, k: int, spread: float):
    dim = ham.dim
    if dim <= DENSE_EIG_CUTOFF:
        # all of the spectrum when k >= dim, so the ground space always fits
        k = max(2, min(k, dim))
        h = ham.to_dense()
        vals, vecs = np.linalg.eigh(h)
        vals, vecs = vals[:k], vecs[:, :k]
        residual = float(np.max(np.linalg.norm(h @ vecs - vecs * vals, axis=0)))
        return vals, vecs, "dense", 0, residual
    k = max(2, min(k, dim - 1))
    if k > LANCZOS_MAX_K:
        raise GuardExceeded("Lanczos eigensolver asked for more eigenvalues than its basis keeps", k, LANCZOS_MAX_K)
    vals, vecs, residual, matvecs = _lanczos_spectrum(ham, k, spread)
    return vals, vecs, "lanczos", matvecs, residual


def spectrum_report(ham: ParentHamiltonian, net: PepsNetwork = None, k: int = 6) -> SpectrumReport:
    """Low eigenvalues, ground degeneracy, gap, and overlap with the network state.

    The gap is E_{deg} - E_0 where deg counts eigenvalues within
    DEGENERACY_TOL of E_0.  gap_normalized divides by the largest term norm
    (the convention that caps every local term at unit norm). ``k`` must be at
    least 1; ``k = 1`` computes two eigenvalues, as the gap needs them.
    """
    if k < 1:
        raise ValueError(f"spectrum_report needs k >= 1 eigenvalues, got k = {k}")
    if ham.dim > DENSE_DIM_LIMIT:
        raise GuardExceeded("Hamiltonian dimension exceeds the dense guard", ham.dim, DENSE_DIM_LIMIT)
    norms = ham.term_norms()
    max_norm = max(norms) if norms else 0.0
    vals, vecs, solver, matvecs, residual = _low_spectrum(ham, k, sum(norms))
    e0 = float(vals[0])
    deg = int(np.sum(vals <= e0 + DEGENERACY_TOL))
    if deg < len(vals):
        gap = float(vals[deg] - e0)
    elif deg < ham.dim:
        # the ground space may be larger still, and the overlap would be read
        # off an arbitrary part of it
        raise ValueError(
            f"all {deg} computed eigenvalues lie in the ground space; raise k above {deg}"
        )
    else:
        gap = float("nan")
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
        matvecs=matvecs,
        residual=residual,
    )
