"""Parent Hamiltonians for injective tensor networks.

Every edge of an injective network contributes one positive semidefinite
two-site term built from the pseudo-inverses of the endpoint tensors and the
projector that kills the shared link state.  The link state only identifies
the bond's two indices, so the projector is applied as one broadcast product
on the pseudo-inverses' arrays, with no tensor for it.  The resulting
Hamiltonian is frustration free: the network state is an exact zero-energy
eigenstate.  ``ParentHamiltonian`` applies its terms in a few site orders
(frames), in each of which every term is one GEMM or a short stack of them.

``spectrum_report`` reads the low spectrum with numpy alone: ``eigh`` of the
dense matrix up to DENSE_EIG_CUTOFF, and above it a thick-restart Lanczos that
calls ``matvec`` one vector at a time, into output and scratch vectors the
solver owns, followed by a randomized probe for ground-state copies a single
Krylov space cannot see.  The Lanczos basis is kept orthogonal by partial
reorthogonalization (Simon, Math. Comp. 42, 115, 1984): a recurrence on the
tridiagonal (after a restart, arrowhead) matrix estimates each new vector's
overlaps with the basis, and a Gram-Schmidt pass against the whole basis runs
where an estimate reaches LANCZOS_TOL and after each start or restart, not on
every step.  Overlaps below the solver's own tolerance move the Ritz values by
no more than the residual it accepts.  A
solve that does not converge within LANCZOS_MATVEC_BUDGET products raises
GuardExceeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .errors import GuardExceeded
from .network import PHYS, Edge, Observable, PepsNetwork, assemble_state_vector, observable_from_matrix
from .tensor import NonInjectiveError, Tensor

PINV_RTOL = 1e-12
DENSE_DIM_LIMIT = 1 << 14
_DENSE_MATRIX_LIMIT = 1 << 11
_DENSE_BLOCK = 256
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
    ``PINV_RTOL * sigma_max`` and the input dim may not exceed the output
    dim (the map must be injective), otherwise NonInjectiveError is raised.
    """
    m = tz.matrix_view(t, out_legs, in_legs)
    if m.shape[1] > m.shape[0]:
        # svd returns only min(rows, cols) singular values, none of them zero
        raise NonInjectiveError(f"map from dim {m.shape[1]} into dim {m.shape[0]} cannot be injective")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= PINV_RTOL * s[0]:
        raise NonInjectiveError(
            f"singular values span [{s[-1]:.3e}, {s[0]:.3e}], below pinv threshold"
        )
    inv = (vh.conj().T * (1.0 / s)) @ u.conj().T  # in_dim x out_dim
    rows = [(lbl, t.dim(lbl)) for lbl in in_legs]
    cols = [(lbl, t.dim(lbl)) for lbl in out_legs]
    return tz.from_matrix(inv, rows, cols)


def _edge_first_inverse(net: PepsNetwork, vertex: int, edge: Edge) -> np.ndarray:
    """T_v^+ as an array ``[a, r, p]``: the edge's index, v's other bond legs, its physical index."""
    t = net.site(vertex)
    inv = pseudo_inverse(t, [PHYS], t.labels[:-1]).data
    return np.moveaxis(inv, t.axis(edge.id), 0).reshape(edge.dim, -1, inv.shape[-1])


def parent_term(net: PepsNetwork, edge_id: str) -> Observable:
    """Two-site parent Hamiltonian term for one edge, as a physical observable.

    h = B^dag B with B = (1 - |phi_e><phi_e|)(T_x^+ (x) T_y^+), phi_e the
    bond's pair state sum_a |aa> / sqrt(D), acting as the identity on every
    other bond leg of x and y.  With X and Y the pseudo-inverses viewed as
    ``[a, r, p]`` (the edge's index, the site's other bond legs, its physical
    index), B[a, b, r, s, p, q] = X[a, r, p] Y[b, s, q] - delta_ab
    sum_c X[c, r, p] Y[c, s, q] / D, one broadcast product.  h is symmetrized,
    so it is exactly Hermitian and PSD up to round-off.
    """
    try:
        edge = net.graph.edge(edge_id)
    except KeyError:
        raise ValueError(f"unknown edge id {edge_id!r}") from None
    x, y = (_edge_first_inverse(net, v, edge) for v in (edge.u, edge.v))
    b = x[:, None, :, None, :, None] * y[None, :, None, :, None, :]
    diag = np.arange(edge.dim)
    b[diag, diag] -= b[diag, diag].sum(axis=0) / edge.dim
    dx, dy = x.shape[-1], y.shape[-1]
    b = b.reshape(-1, dx * dy)
    h = b.conj().T @ b
    h = 0.5 * (h + h.conj().T)
    return observable_from_matrix((edge.u, edge.v), h, dims=(dx, dy))


def _position(order: tuple, pair: tuple) -> int | None:
    """First of the two adjacent positions ``pair`` takes in ``order``, or None."""
    i, j = order.index(pair[0]), order.index(pair[1])
    return min(i, j) if abs(i - j) == 1 else None


def _path_order(n: int, left: list, pairs: list) -> tuple:
    """A site order that walks the graph of ``pairs``, along the pairs of ``left`` where it can.

    Each walk starts at an unvisited site of least degree in ``left`` (a
    path's end) and steps to its lowest unvisited neighbour across a pair of
    ``left``, else across any pair; sites it never reaches come last.  The
    first walk's first step always places a pair of ``left`` side by side.
    """
    want, nbrs = [set() for _ in range(n)], [set() for _ in range(n)]
    for group, ps in ((want, left), (nbrs, pairs)):
        for i, j in ps:
            group[i].add(j)
            group[j].add(i)
    order: list = []
    for v in sorted((v for v in range(n) if want[v]), key=lambda v: (len(want[v]), v)):
        while v is not None and v not in order:
            order.append(v)
            v = min(want[v].difference(order) or nbrs[v].difference(order), default=None)
    return tuple(order + [v for v in range(n) if v not in order])


def _frames(dims: tuple, pairs: list, matrices: list) -> tuple:
    """Group the terms into frames: site orders in which each term acts on two adjacent sites.

    The orders are the vertex order; for the pairs not adjacent in it, a
    path order along them and its reverse (repeated until every pair is
    adjacent somewhere); and the reverse of the vertex order.  A term at
    positions p, p + 1 of an order is a stack of ``lead = prod(dims before
    p)`` GEMMs, or one GEMM with the term on the right when no site follows
    it.  It goes to the order with the shortest stack, the earlier order on a
    tie.  Returns ``(order, inverse, frame dims, terms)`` per non-empty frame,
    the vertex order first with ``order = None``; ``order`` and its inverse
    keep a column axis ``n`` last.  A term is ``(index, matrix, lead, k,
    trail)``, its matrix in the frame's site order.
    """
    n = len(dims)
    orders = [tuple(range(n))]
    left = [p for p in pairs if _position(orders[0], p) is None]
    while left:
        path = _path_order(n, left, pairs)
        orders += [path, path[::-1]]
        left = [p for p in left if _position(path, p) is None]
    orders.append(orders[0][::-1])
    placed: list = [[] for _ in orders]
    for t, (pair, m) in enumerate(zip(pairs, matrices)):
        best = None
        for f, order in enumerate(orders):
            p = _position(order, pair)
            if p is None:
                continue
            fdims = [dims[a] for a in order]
            lead, trail = math.prod(fdims[:p]), math.prod(fdims[p + 2:])
            cost = 1 if trail == 1 else lead
            if best is None or cost < best[0]:
                best = (cost, f, p, lead, trail)
        _, f, p, lead, trail = best
        da, db = dims[pair[0]], dims[pair[1]]
        if orders[f][p] != pair[0]:  # the frame holds the pair's second site first
            m = m.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, da * db)
        placed[f].append((t, m, lead, da * db, trail))
    return tuple((None, None, dims, tuple(terms)) if f == 0 else
                 (order + (n,), tuple(np.argsort(order).tolist()) + (n,),
                  tuple(dims[a] for a in order), tuple(terms))
                 for f, (order, terms) in enumerate(zip(orders, placed)) if terms)


@dataclass(frozen=True)
class ParentHamiltonian:
    """Sum of per-edge two-site parent terms over a fixed vertex ordering.

    Construction prepares the terms once as a few frames (``_frames``): site
    orders in which each term acts on two adjacent sites with few sites
    before them.  A product copies the vector into each frame's order once,
    applies the frame's terms to it, each one GEMM or a short stack of them
    written with ``out=``, and copies the frame's sum back once; the vertex
    order's frame reads the vector and writes the output in place.
    ``matvec``, ``to_dense`` and ``term_norms`` all read these frames.
    """

    vertices: tuple
    dims: tuple
    terms: tuple  # of Observable
    _frames: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(len(obs.support) != 2 for obs in self.terms):
            raise ValueError("every parent Hamiltonian term acts on two sites")
        pairs = [tuple(self.vertices.index(v) for v in obs.support) for obs in self.terms]
        frames = _frames(tuple(self.dims), pairs, [obs.matrix() for obs in self.terms])
        object.__setattr__(self, "_frames", frames)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def term_norms(self) -> list:
        norms = {t: float(np.linalg.norm(m, ord=2)) for *_, terms in self._frames for t, m, *_ in terms}
        return [norms[t] for t in range(len(self.terms))]

    def matvec(self, vec: np.ndarray, out: np.ndarray = None, scratch: np.ndarray = None) -> np.ndarray:
        """H @ vec, written into ``out`` (a contiguous complex vector of size dim) and returned.

        ``scratch`` is a contiguous complex array ``(3, dim)`` of work space.
        Either is allocated when not given; neither may overlap ``vec``.
        """
        dim = self.dim
        out = np.empty(dim, dtype=np.complex128) if out is None else out
        scratch = np.empty((3, dim), dtype=np.complex128) if scratch is None else scratch
        for buf, shape in ((out, (dim,)), (scratch, (3, dim))):
            if buf.shape != shape or buf.dtype != np.complex128 or not buf.flags.c_contiguous:
                raise ValueError(f"matvec buffers must be contiguous complex arrays of shape {shape}")
        return self._apply(np.asarray(vec, dtype=np.complex128), out, scratch, 1)

    def _apply(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray, cols: int) -> np.ndarray:
        """H applied to the ``cols`` columns of ``x`` (``dim * cols`` entries, row-major), into ``out``.

        A frame other than the vertex order's is copied into ``scratch[0]``,
        summed in ``scratch[1]`` (``scratch[2]`` takes each later term's
        product) and copied back through ``scratch[0]``, then added to ``out``:
        two contiguous passes are cheaper than one add through a transpose.
        """
        shape = tuple(self.dims) + (cols,)
        written = False
        for order, inverse, fdims, terms in self._frames:
            if order is None:
                src, acc = x, out
            else:
                src, acc = scratch[0], scratch[1]
                np.copyto(src.reshape(fdims + (cols,)), x.reshape(shape).transpose(order))
            for i, (_, m, lead, k, trail) in enumerate(terms):
                dst = scratch[2] if i else acc
                if trail * cols == 1:
                    np.matmul(src.reshape(lead, k), m.T, out=dst.reshape(lead, k))
                else:
                    stack = (lead, k, trail * cols)
                    np.matmul(m, src.reshape(stack), out=dst.reshape(stack))
                if i:
                    acc += dst
            if order is not None:
                back = out if not written else scratch[0]
                np.copyto(back.reshape(shape), acc.reshape(fdims + (cols,)).transpose(inverse))
                if written:
                    out += back
            written = True
        if not written:
            out[...] = 0.0
        return out

    def to_dense(self) -> np.ndarray:
        """The dense matrix, applied to the identity in blocks of columns.

        Up to dim _DENSE_BLOCK one block covers the matrix, and the product
        of the identity is written straight into it.  Refused with
        GuardExceeded above dim 2**11, whose complex matrix takes 64 MiB; the
        work buffers stay below a quarter of that.
        """
        dim = self.dim
        if dim > _DENSE_MATRIX_LIMIT:
            raise GuardExceeded("Hamiltonian dimension exceeds the dense-matrix guard", dim, _DENSE_MATRIX_LIMIT)
        h = np.empty((dim, dim), dtype=np.complex128)
        step = min(dim, _DENSE_BLOCK)
        scratch = np.empty((3, dim * step), dtype=np.complex128)
        if step == dim:
            self._apply(np.eye(dim, dtype=np.complex128), h.reshape(-1), scratch, dim)
            return h
        for j in range(0, dim, step):
            cols = min(step, dim - j)
            eye = np.zeros((dim, cols), dtype=np.complex128)
            eye[j:j + cols] = np.eye(cols)
            block = np.empty(dim * cols, dtype=np.complex128)
            h[:, j:j + cols] = self._apply(eye, block, scratch[:, : dim * cols], cols).reshape(dim, cols)
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

    It owns the product's output and scratch vectors, so a solve allocates
    no vector per product.

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
        self.out = np.empty(ham.dim, dtype=np.complex128)
        self.scratch = np.empty((3, ham.dim), dtype=np.complex128)

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
        """``ham @ v`` in the operator's own output buffer, which the next call overwrites."""
        self.reserve(1)
        self.matvecs += 1
        return self.ham.matvec(v, self.out, self.scratch)


def _random_start(rng, op: _Operator) -> np.ndarray:
    dim = op.ham.dim
    v = op.project(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    return v / np.linalg.norm(v)


def _thick_restart_lanczos(op: _Operator, start: np.ndarray, k: int, scale: float, rng):
    """Lowest ``k`` Ritz pairs of ``op`` by thick-restart Lanczos (Wu & Simon 2000).

    The basis holds at most LANCZOS_BASIS vectors.  Each step runs the
    three-term recurrence (after a restart, the kept Ritz vectors take the
    place of the previous vector).  A full basis restarts from its lowest
    Ritz vectors, about half of it.  The run stops when each of the ``k``
    lowest Ritz pairs has residual ``beta * |s_last| <= LANCZOS_TOL * scale``,
    scale being the largest |Ritz value| seen: an absolute test in the
    operator's own scale, so an exact zero eigenvalue costs no extra sweeps.

    Orthogonality is kept by partial reorthogonalization (Simon, Math. Comp.
    42, 115, 1984).  ``omega[i, l]`` estimates the overlap of basis vectors i
    and l.  The relation ``H Q = Q T + beta q e^T`` holds to round-off
    whatever the overlaps, so the new vector's overlaps follow from the
    matrix the loop holds, tridiagonal or, after a restart, arrowhead:
    ``beta * omega[j + 1, :j] = (T omega[:, j] - omega T[:, j])[:j]`` plus a
    round-off term ``eps * sqrt(dim) * scale`` with the sign of the rest, and
    ``omega[j + 1, j] = eps * sqrt(dim) * scale / beta``.  A classical
    Gram-Schmidt pass against the whole basis runs only

    - on a step whose estimate reaches LANCZOS_TOL, and on the step after it,
      as the previous vector has lost as much and feeds the next one;
    - on the first two steps after the start and after each restart, whose
      estimates are reset to round-off;
    - on every fresh random vector.

    A pass leaves overlaps of round-off size.  The threshold is the solver's
    tolerance because a basis whose overlaps stay below it is orthonormal to
    that order: ``T`` then differs from the Rayleigh quotient of ``H`` on the
    basis by about ``LANCZOS_TOL * scale``, the residual the stopping test
    accepts anyway, so the Ritz values and residuals keep the accuracy of a
    pass on every step.

    Returns the Ritz values, the Ritz vectors as rows, their residual norms
    and the updated scale.
    """
    dim = start.size
    size = min(LANCZOS_BASIS, dim)
    keep = max(k, size // 2)
    basis = np.empty((size, dim), dtype=np.complex128)
    # real coefficients act on the basis viewed as float64: half the flops
    real = basis.view(np.float64)
    t = np.zeros((size, size))
    # row ``size`` holds the vector a full basis restarts from
    omega = np.eye(size + 1)
    roundoff = np.finfo(float).eps * math.sqrt(dim)
    tmp = np.empty(dim, dtype=np.complex128)
    basis[0] = start
    kept, j, forced = 0, 0, 2
    while True:
        w = op(basis[j])
        alpha = float(np.vdot(basis[j], w).real)
        t[j, j] = alpha
        scale = max(scale, abs(alpha))
        w -= np.multiply(basis[j], alpha, out=tmp)
        if j == kept and kept > 0:
            w -= np.matmul(t[:kept, j], real[:kept], out=tmp.view(np.float64)).view(np.complex128)
        elif j > 0:
            w -= np.multiply(basis[j - 1], t[j - 1, j], out=tmp)
        w = op.project(w)
        beta = float(np.linalg.norm(w.view(np.float64)))
        tj = t[: j + 1, : j + 1]
        drift = tj[:j] @ omega[: j + 1, j] - omega[:j, : j + 1] @ tj[:, j]
        drift += np.copysign(roundoff * scale, drift)
        if forced == 0 and np.max(np.abs(drift), initial=roundoff * scale) >= LANCZOS_TOL * beta:
            forced = 2
        if forced:
            forced -= 1
            w -= np.matmul(_overlaps(basis[: j + 1], w), basis[: j + 1], out=tmp)
            beta = float(np.linalg.norm(w.view(np.float64)))
            omega[j + 1, : j + 1] = omega[: j + 1, j + 1] = roundoff
        else:
            omega[j + 1, :j] = omega[:j, j + 1] = drift / beta
            omega[j + 1, j] = omega[j, j + 1] = roundoff * scale / beta
        breakdown = beta <= LANCZOS_TOL * scale
        if j + 1 < size and not breakdown:
            t[j, j + 1] = t[j + 1, j] = beta
            np.divide(w.view(np.float64), beta, out=real[j + 1])
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
            return theta[:k], (s[:, :k].T @ real[: j + 1]).view(np.complex128), res[:k], scale
        nxt = np.divide(w, beta, out=w) if beta > 0 else None
        if j + 1 < size:
            # breakdown with room left: extend the basis
            j += 1
        else:
            kept = keep
            # the kept Ritz vectors overwrite the basis they are made of, a
            # block of columns at a time through ``tmp``
            width = 2 * dim // kept
            for c in range(0, 2 * dim, width):
                block = real[:, c:c + width]
                out = tmp.view(np.float64)[: kept * block.shape[1]].reshape(kept, -1)
                real[:kept, c:c + width] = np.matmul(s[:, :kept].T, block, out=out)
            t[:] = 0.0
            t[np.arange(kept), np.arange(kept)] = theta[:kept]
            t[kept, :kept] = t[:kept, kept] = beta * s[j, :kept]
            j = kept
            omega[:] = roundoff
            np.fill_diagonal(omega, 1.0)
            forced = 2
        if nxt is None:
            nxt = _random_start(rng, op)
            nxt -= _overlaps(basis[:j], nxt) @ basis[:j]
            nxt /= np.linalg.norm(nxt)
            omega[j, :j] = omega[:j, j] = roundoff
            forced = 2
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
