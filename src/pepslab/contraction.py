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
order of summation, and integer tile counts stay exact. The sites of one
shape are read together (:func:`_read_masks`), each distinct array once: a
site tensor with no zero entry costs one count and is scanned no further,
and the nonzero patterns of the others go into one boolean stack, which one
scan turns into every leg's masks. The bonds between two plain layers are
then decided together (:func:`_plain_kept`): their end masks are rows of one
table per bond dim, and one AND of the gathered rows gives every bond's kept
indices. The indicator tensors of a tiling keep at most D of the D**2
indices of each bond. A bond with no live index makes the norm and the
numerator exactly zero, returned without contracting.

The contraction runs in real arithmetic. When every site tensor is real, so
is every plain layer in the fused ``(bra, ket)`` basis, and the plan makes no
basis blocks; a one-site operator's layer is then real when the operator is,
and a complex one (Pauli Y) makes its support steps complex, as an operator
on several sites does. The choice depends on the sites alone, so the plain
boundaries the environment cache holds serve every operator. Otherwise, as
a double layer is Hermitian under the swap of its bra and ket indices, each
fused bond index is rewritten in a Hermitian basis of the bond's D x D
matrices: ``E_aa`` at ``(a, a)``, ``(E_ab + E_ba)/sqrt 2`` at ``(a, b)`` and
``i(E_ab - E_ba)/sqrt 2`` at ``(b, a)``, for ``a < b``. The bond's ``u`` end
multiplies its layer's leg by the unitary ``Q[(a, a'), k] = B_k[a', a]`` and
its ``v`` end by ``conj(Q)``, so the pairing across the bond is unchanged, and
the plain layers and the layer of a one-site (Hermitian) operator come out
real: they are stored as float64, with half the bytes and a quarter of the
flops of complex128. The kept indices of a bond are closed under the swap, so
the basis is applied as the block ``Q[K, K]`` after slicing, and a bond that
keeps only diagonal pairs (every tiling bond, every cut bond) skips it. The closure ``delta/D``
is the same in either basis. The layers of an operator on several sites
carry its operator-bond legs and stay complex, so only the steps through the
support run in complex128.

Every contraction first makes one plan (:func:`_plan`, a frozen
:class:`_Plan`), before anything is allocated but the masks; the layers are
built only from the plan, once the guard has passed. The plan holds the bond
prefactor, the closures and kept indices, the basis blocks, each site's layer
legs, the order with its peak and checkpoint cuts, the operator's factors,
and the two cuts where the passes meet. Its order comes from a dry run over
the live leg dims. Grids have two candidate sweeps (column by column, bottom
to top within a column; row by row, left to right), a patch the same two
restricted to its interior, and explicit graphs their ascending vertex ids.
The candidate with the smallest peak boundary runs, columns on a tie. When
even that peak exceeds the guard (default 2**20 entries), the plan refuses
the contraction with a :class:`GuardExceeded` carrying the best peak. The
plan/execute split follows Gray and Kourtis, Quantum 5, 410 (2021).

The plan is the one place a layer is finished, so every path squares, slices
and closes the same way. :meth:`_Plan.layer` squares a site, slices it to the
kept indices, puts it in the Hermitian basis, and closes each of its cut bonds
with that bond's closure when it is built; the plan's leg lists are these
closed legs. :meth:`_Plan.layers` builds the plain layers of a pass: the
sites of one shape that keep the same indices at each leg position are
squared and sliced as one stack (:func:`_stacked_layers`), in chunks whose
site matrices total at most one boundary of the plan's peak, and each layer
is bitwise the one :meth:`_Plan.layer` gives. :meth:`_Plan.stacks` builds the
plain layers of many networks as one stack. A pass builds its layers before
its steps, then only schedules and replays them, and lets each layer go once
its step has run (the plain layers of the sites between the two cuts are
kept for the numerator).
:meth:`_Plan.norm` checks each norm by :func:`_real_scalar`, whose scale is
the absolute pass: the contraction of the absolute values of the layers, the
``x_abs`` of the forward error bound ``gamma_N * x_abs`` of a chain of
products (Higham, Accuracy and Stability of Numerical Algorithms, §3.5). The
same builder makes its layers: with ``absolute`` it takes the absolute value
of every entry after the basis change and before closing (the closures are
nonnegative). It runs only when a norm looks wrong.

A boundary keeps its legs in the order of the cut. A layer's new legs are
sorted by the position of their other end in the whole order, the latest
first (:func:`_ranks`).
Forwards, the leg whose other end comes soonest thus sits last, next to the
old legs it will meet; backwards the passes are mirror images, so the forward
and backward boundaries meet in the same leg order. As the keys do not depend
on where a pass starts, a resumed boundary is bitwise a fresh one.

Every absorption step is a ``tz._Run``, derived from leg lists alone
(:func:`_schedule`), starting from any boundary's legs, and run by one loop
(:func:`_replay`) with numpy calls only. When the legs a layer shares with
the boundary form one contiguous run of its axes, the step writes the
layer's new legs in place of the run by one batched GEMM, and the boundary is
not copied. On open grids and patches this holds for every step of both
sweeps. Otherwise, as on a torus or in parts of a compiled circuit, the step
is permuted (its ``lead``): it copies the boundary once with the shared legs
moved to its tail, and the GEMM appends the new legs there. The loop writes
each boundary into a fresh array (a permuted step briefly holds its input,
the copy and its output), or into buffers its caller owns; every GEMM is the
same either way, so the bits are too.

The environment is split at an observable's support: the sites before the
first support site are contracted once, forwards, and the sites after the
last support site once, backwards. Both are closed twice through the sites in
between, with the plain layers for the norm and with the observable's layers
for the numerator, so an expectation value costs about one norm. A norm is
the same split with no support: its two passes meet at the checkpoint cut
(below) with the smallest boundary, the nearest the middle on a tie.

One slot keeps what the engine read from the last network: each site's live
masks, each bond's basis block, and an environment cache of the last order.
A call on the same network reads no site tensor again. The cache holds plain
prefixes and suffixes at checkpoint cuts: every column (or row) cut of a grid
sweep, every ``ceil(sqrt(n))`` sites of an explicit graph, and the cuts where
each pass stops. A call resumes its prefix from the latest checkpoint at or
before its first support site and its suffix from the earliest at or after
the cut past its last, and records the checkpoints it passes. Boundaries made
with other kept indices on some bond are dropped first. As the leg order of a
boundary does not depend on where its pass starts, every value is bitwise
that of a fresh network. So a local value read after a norm costs about one
column of steps, and reading out every wire of a compiled circuit about one
contraction. When a call's support lies within one checkpoint gap of the
last call's, the call is taken for a scan and records every cut it passes,
so reading every one-site value along the order costs under four norms.
The cache holds at most ``ENV_BOUNDARIES`` (8) boundaries of the order's peak
size, in float64 bytes (up to 64 MiB at the default guard): past that it
drops cuts between checkpoints before checkpoints, those behind a scan first,
then the farthest from the call; the call's own two never go. It keeps no
network alive, and a call on another network or order frees it before any
layer is built.

Networks that differ only in their entries, such as the samples of a tiling
extrapolation, take one call to :func:`peps_norms`, which makes one plan for
all of them, on the union of their nonzero patterns (:func:`_union`), and one
set of leg ranks. Whether the plan makes basis blocks is judged on the
networks themselves, never on the union's 0/1 entries, and a real network of
a set that is not all real is replayed with no basis, as :func:`peps_norm`
contracts it. As a step's layout depends only on leg lists, the call
schedules the steps of both passes once, and each network replays that
schedule. Each site's matrices are squared as one
stack, which is sliced, put in the Hermitian basis and permuted into its
step's operand as a whole. The boundaries are written into buffers the call
owns: two of the largest boundary's size, in turn, and one for the suffix; a
permuted step copies its boundary into the other of the two and writes its
output back into the one it read, so a step allocates nothing.
Every GEMM keeps its shape and the layout of its operands, so each value has
:func:`peps_norm`'s bits when the networks share their zero entries. The
call holds these buffers and at most ``guard`` stacked layer entries; past
that the networks go in chunks. It neither reads nor clears the slot.

An operator on several sites is split into one factor per support site, in
the order the candidate contracts them, joined by operator-bond legs of its
Schmidt rank r across each cut, which the dry run and the guard see like
bonds: a product operator (r = 1) costs one norm.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import backend
from . import tensor as tz
from .errors import GuardExceeded
from .network import Observable, PepsNetwork
from .tensor import Tensor

BOUNDARY_GUARD = 1 << 20

# The environment cache's byte budget, in float64 boundaries of the order's peak size.
ENV_BOUNDARIES = 8

_SWEEPS = ("cols", "rows")

_EPS = float(np.finfo(np.float64).eps)

_SQRT_HALF = math.sqrt(0.5)

# The fewest sites :meth:`_Plan.layers` squares as one stack; two alone are squared faster.
_STACK_MIN = 3

# The engine's start: a float64 scalar 1, so that real layers keep real boundaries.
_ONE = Tensor._trusted((), np.ones(()))


@dataclass(eq=False)
class _Env:
    """Plain boundaries of one order, kept between calls: the environment cache.

    ``plan`` is the last call's :class:`_Plan` of the order. ``held[1, k]`` is
    the prefix over ``order[:k]`` and ``held[-1, k]`` the suffix over
    ``order[k:]``, both made of the plan's plain layers. ``stride`` is the
    longest run of sites between two of the plan's ``marks``, and
    ``ahead``/``behind`` the :func:`_ranks` of the order, which are also minus
    the last and the first position of each bond's ends. ``span`` is the
    ``(first, last + 1)`` cut pair of the last call with a support, and
    ``heading`` the direction of a scan (1 forwards, -1 backwards, 0 none).
    See :func:`_contract`.
    """

    plan: _Plan
    stride: int = field(init=False)
    ahead: dict[str, int] = field(init=False)
    behind: dict[str, int] = field(init=False)
    held: dict[tuple[int, int], Tensor] = field(default_factory=dict)
    nbytes: int = 0
    span: tuple[int, int] | None = None
    heading: int = 0

    def __post_init__(self) -> None:
        ends = sorted(self.plan.marks | {0, len(self.plan.order)})
        self.stride = max(j - i for i, j in zip(ends, ends[1:]))
        self.ahead, self.behind = _ranks(self.plan.order, self.plan.legs)

    def refit(self, plan: _Plan) -> None:
        """Take ``plan``, of the same order, dropping the boundaries its kept indices change.

        A prefix over ``order[:k]`` holds a bond when one of its ends comes
        before ``k``, a suffix over ``order[k:]`` when one comes at or after it.
        A cut bond, which has no rank, never changes: it keeps the diagonal of
        its closure, which an observable's pattern leaves alone.
        """
        old, new = self.plan.keep, plan.keep
        changed = [label for label in old.keys() | new.keys()
                   if not _same(old.get(label), new.get(label))]
        if changed:
            lo = min(-self.behind[label] for label in changed)
            hi = max(-self.ahead[label] for label in changed)
            for key in [key for key in self.held
                        if (key[1] > lo if key[0] > 0 else key[1] <= hi)]:
                self._drop(key)
        self.plan = plan

    def _drop(self, key: tuple[int, int]) -> None:
        self.nbytes -= self.held.pop(key).data.nbytes

    def record(self, key: tuple[int, int], t: Tensor) -> None:
        """Hold ``t`` at ``key``, then drop boundaries until the plan's budget suffices.

        The budget is ``ENV_BOUNDARIES`` boundaries of the plan's peak size, in
        float64 bytes. The plan's own two cuts, ``(1, first)`` and ``(-1,
        past)``, stay. The others go cuts between marks first, and in each
        group those behind a scan (see ``heading``) first, then the farthest
        from this call's cut in their direction.
        """
        if key in self.held:  # a repeated read: the same bits, counted once
            return
        self.held[key] = t
        self.nbytes += t.data.nbytes
        plan = self.plan
        budget = ENV_BOUNDARIES * 8 * plan.peak
        if self.nbytes > budget:
            here = {1: plan.first, -1: plan.past}

            def drop_order(k: tuple[int, int]) -> tuple:
                gap = k[1] - here[k[0]]
                return k[1] in plan.marks, self.heading * gap >= 0, -abs(gap)

            for drop in sorted((k for k in self.held if k[1] != here[k[0]]), key=drop_order):
                self._drop(drop)
                if self.nbytes <= budget:
                    break

    def boundary(self, forward: bool, net: PepsNetwork, scan: bool) -> Tensor:
        """The prefix over ``order[:first]`` (``forward``) or the suffix over ``order[past:]``.

        It resumes from the held boundary nearest the plan's cut on the near
        side (or from the scalar 1 at either end of the order) and absorbs the
        plan's layers of the sites in between. It holds every mark it passes
        and the cut itself, and during a ``scan`` every cut it passes.
        """
        plan, d = self.plan, 1 if forward else -1
        cut = plan.first if forward else plan.past
        start = max((k for s, k in self.held if s == d and d * k <= d * cut),
                    key=lambda k: d * k, default=0 if forward else len(plan.order))
        sites = plan.order[start:cut] if forward else plan.order[cut:start][::-1]

        def seen(i: int, legs: tuple, data: np.ndarray) -> None:
            k = start + d * (i + 1)
            if scan or k == cut or k in plan.marks:
                self.record((d, k), Tensor._trusted(legs, data))

        return _absorb(self.held.get((d, start), _ONE), plan.layers(net, sites),
                       self.ahead if forward else self.behind, seen)


@dataclass(eq=False)
class _Slot:
    """What the engine keeps of the last network it contracted, for the next call.

    ``masks`` holds each site's live masks as :func:`_read_masks` reads them,
    one stack per site shape (None for a site with no zero entry), ``kept``
    the kept indices of each bond between two plain layers, filled by one
    :func:`_plain_kept` for the bonds a call has not seen (see
    :func:`_prune`), ``bases`` each bond's basis blocks (see :func:`_bases`),
    and ``env`` the environment cache of the last order (see :class:`_Env`
    and :func:`_contract`).
    """

    net: weakref.ref
    masks: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)
    bases: dict = field(default_factory=dict)
    env: _Env | None = None


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
    A site with no imaginary part, such as a tile's indicator tensor, is
    squared in float64, so its plain layer comes out float64 without a copy.
    """
    t = net.site(site)
    edges = net.graph.incident(site)
    dims = [e.dim for e in edges]
    # the site's legs are its bonds in this order, then phys (see PepsNetwork)
    mat = t.data.reshape(math.prod(dims), -1)
    if t.is_real:
        mat = bra = np.ascontiguousarray(mat.real)
    else:
        bra = mat.conj()
    legs = [(e.id, e.dim * e.dim) for e in edges]
    if factor is None:
        bonds, sq = [], backend.matmul(bra, mat.T)
    else:
        # op[x, (k, y)]: conj(T) @ op is [a, (k, y)], then @ T.T gives [(a, k), b]
        bonds = _operator_bonds(factor)
        op = tz.matrix_view(factor, ["out0"], [l for l, _ in bonds] + ["in0"])
        sq = backend.matmul(backend.matmul(bra, op).reshape(-1, len(op)), mat.T)
    return Tensor._trusted(tuple(legs + bonds), _fused(sq, dims, math.prod(d for _, d in bonds)))


def _fused(sq: np.ndarray, dims: list[int], rank: int = 1) -> np.ndarray:
    """Squares ``sq[..., (bra, k), ket]`` with each bond's bra and ket index side by side.

    ``dims`` are the site's bond dims and ``rank`` the dim of the operator-bond
    index ``k``. The result is a view with axes ``[..., bra_0, ket_0, ...,
    bra_m-1, ket_m-1, k]``, which the caller copies once.
    """
    lead, m = sq.ndim - 2, len(dims)
    sq = sq.reshape(sq.shape[:lead] + (*dims, rank, *dims))
    return sq.transpose([*range(lead)] + [lead + ax for i in range(m) for ax in (i, m + 1 + i)]
                        + [lead + m])


def _squares(mats: np.ndarray, real: np.ndarray) -> np.ndarray:
    """``conj(M) @ M.T`` for each site matrix ``M`` of the stack ``mats``.

    ``real`` says which sites have no imaginary part; when all are real the
    stack is squared in float64. One ``np.matmul`` over the stack makes, for
    each matrix, the BLAS call :func:`double_layer` makes for one site (dsyrk
    for a real site, zgemm otherwise), so every square is bitwise that
    site's. It is not ``backend.matmul``, whose left operand is one matrix.
    The real sites of a mixed stack are squared apart, so they keep their bits.
    """
    if real.all():
        m = np.ascontiguousarray(mats.real)
        return np.matmul(m, m.transpose(0, 2, 1))
    sq = np.matmul(mats.conj(), mats.transpose(0, 2, 1))
    if real.any():
        sq[real] = _squares(mats[real], real[real])
    return sq


def _squared(ts: Sequence[Tensor], dims: Sequence[int]) -> np.ndarray:
    """The plain squares of site tensors ``ts`` of bond dims ``dims``, fused, as one stack.

    The site matrices are stacked, as float64 when all are real, and squared
    by one :func:`_squares`; the result is the view :func:`_fused` gives.
    """
    real = np.array([t.is_real for t in ts])
    whole = real.all()
    mats = np.stack([t.data.real if whole else t.data for t in ts])
    return _fused(_squares(mats.reshape(len(ts), math.prod(dims), -1), real), dims)


def _stacked_layers(net: PepsNetwork, sites: Sequence[int],
                    keep: dict[str, np.ndarray]) -> list[Tensor]:
    """The plain double layers of ``sites``, squared and sliced to ``keep`` as one stack.

    The sites have one shape, and at each leg position they keep the same
    indices. Layer ``i`` is bitwise ``_sliced(double_layer(net, sites[i]),
    keep)``: the squares are :func:`_squares`', and slicing moves no value.
    """
    ts = [net.site(v) for v in sites]
    dims = ts[0].data.shape[:-1]
    legs = tuple(zip(ts[0].labels, [d * d for d in dims]))
    stack = _sliced(Tensor._trusted((("", len(ts)),) + legs, _squared(ts, dims)), keep)
    dims = [d for _, d in stack.legs[1:]]
    return [Tensor._trusted(tuple(zip(t.labels, dims)), data) for t, data in zip(ts, stack.data)]


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


def _cuts(legs: dict[int, list], order: Sequence[int]):
    """Entries of the boundary left after absorbing each site of ``order`` in turn."""
    open_legs: dict[str, int] = {}
    for v in order:
        for label, dim in legs[v]:
            if label in open_legs:
                del open_legs[label]
            else:
                open_legs[label] = dim
        yield math.prod(open_legs.values())


def _marks(graph, order: Sequence[int], sweep: str) -> frozenset[int]:
    """Checkpoint cuts of an order: where a grid sweep starts a new column (or
    row), and every ``ceil(sqrt(n))`` sites of an explicit graph's ``n``."""
    n = len(order)
    if graph.rows is None:
        step = math.isqrt(n - 1) + 1
        return frozenset(range(step, n, step))
    line = (lambda v: v % graph.cols) if sweep == "cols" else (lambda v: v // graph.cols)
    return frozenset(k for k in range(1, n) if line(order[k]) != line(order[k - 1]))


def _read_masks(net: PepsNetwork, sites: Sequence[int], slot: _Slot) -> None:
    """Fill ``slot.masks`` for ``sites``: which bond indices reach which physical
    indices, and which fused pairs of each plain layer are live.

    ``reach[a, p]`` is True when the site tensor is nonzero at bond index ``a``
    and physical index ``p`` (for some indices of its other bonds). A fused
    pair ``(a, b)`` of a layer that joins physical pairs ``P`` (the identity
    for the plain layer) is live when ``(reach @ P @ reach.T)[a, b]``; every
    other pair of the layer is exactly zero. The plain masks are these
    matrices for ``P = I``.

    The sites of one shape are read together, and each distinct array once
    (sites may share one). An array with no zero entry costs one count and is
    scanned no further: its sites get None, every pair of every leg is live.
    The nonzero patterns of the others go into one boolean stack, with no
    copy of their data, which is scanned once: each nonzero entry marks its
    (bond index, physical index) on every leg, in one stack of legs padded to
    the largest bond dim. Such a site gets ``(reach, plain, s)``: the
    group's stacks, of shapes ``(k, legs, dim, phys)`` and ``(k, legs, dim,
    dim)``, and its row ``s``.
    """
    shapes: dict[tuple, list[int]] = {}
    for v in sites:
        shapes.setdefault(net.site(v).data.shape, []).append(v)
    for shape, group in shapes.items():
        arrays = {id(a): a for a in (net.site(v).data for v in group)}
        if len(shape) > 1:  # one count each, and a scan of the arrays with a zero entry
            arrays = {key: a for key, a in arrays.items() if np.count_nonzero(a) < a.size}
        if len(shape) == 1 or not arrays:
            slot.masks.update(dict.fromkeys(group))
            continue
        nonzero = np.empty((len(arrays),) + shape, dtype=bool)
        for row, a in zip(nonzero, arrays.values()):
            np.not_equal(a, 0, out=row)
        coords = nonzero.nonzero()
        dims = shape[:-1]  # the bond legs; phys is last (see PepsNetwork)
        m = len(dims)
        reach = np.zeros((len(arrays), m, max(dims), shape[-1]), dtype=bool)
        reach[coords[0], np.arange(m)[:, None], np.array(coords[1:-1]), coords[-1]] = True
        plain = reach @ reach.transpose(0, 1, 3, 2)
        at = dict(zip(arrays, range(len(arrays))))
        for v in group:
            s = at.get(id(net.site(v).data))
            slot.masks[v] = None if s is None else (reach, plain, s)


def _mask(net: PepsNetwork, v: int, label: str, slot: _Slot,
          joins: np.ndarray | None = None) -> np.ndarray | None:
    """The raveled live mask of leg ``label`` of site ``v`` (None: every pair).

    The plain mask, or with ``joins``, a support site's physical pairs, the
    mask of its layers, closed under the swap.
    """
    held = slot.masks[v]
    if held is None:
        return None
    reach, plain, s = held
    t = net.site(v)
    i = t.labels.index(label)
    d = t.data.shape[i]
    if joins is None:
        return plain[s, i, :d, :d].ravel()
    r = reach[s, i, :d]
    return _swap_closed(r @ joins @ r.T)


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
    pattern at a support site (see :func:`_read_masks` and :func:`_mask`),
    or, for a cut bond, its closure. Every end's mask is closed under the
    swap ``(a, b) <-> (b, a)``, and so is what both ends keep, as the
    Hermitian basis needs: the plain masks and the closures are symmetric,
    and a support site's mask is made so (a pair added there multiplies an
    exact zero at that end). The slot keeps the masks of every site it has
    read, and for each bond with both ends in ``sites`` the indices it keeps
    between two plain layers, which are the same on every call; those of the
    bonds it has not seen come from one :func:`_plain_kept`, at a support
    site too, so that a later call with another support finds them. Bonds
    that keep every index are left out; None means some bond keeps none, so
    every term of the contraction, and the contraction itself, is exactly
    zero.
    """
    inside = set(sites)
    if not inside <= slot.masks.keys():
        _read_masks(net, [v for v in sites if v not in slot.masks], slot)
    edges, known = net.graph.edges, slot.kept
    if len(known) < len(edges):
        fresh = [e for e in edges if e.id not in known and e.u in inside and e.v in inside]
        if fresh:
            known.update(zip((e.id for e in fresh), _plain_kept(net, fresh, slot)))
    keep, ends = {}, []
    for e in edges:
        if e.id in closures or e.u in patterns or e.v in patterns:
            live = [closures[e.id].data != 0] if e.id in closures else []
            live += [_mask(net, v, e.id, slot, patterns.get(v)) for v in (e.u, e.v) if v in inside]
            live = [m for m in live if m is not None]
            if live:
                ends.append((e.id, live[0] & live[-1]))
        elif e.u in inside and e.v in inside and known[e.id] is not None:
            keep[e.id] = known[e.id]
    for label, live in ends:
        kept = live.nonzero()[0]
        if kept.size < live.size:
            keep[label] = kept
    return None if any(k.size == 0 for k in keep.values()) else keep


def _plain_kept(net: PepsNetwork, bonds: Sequence, slot: _Slot) -> list[np.ndarray | None]:
    """The kept indices of ``bonds``, each between two plain layers, from one AND per bond dim.

    The plain masks of the bonds' two ends are gathered as rows of one array
    per bond dim, one fancy index into each of the slot's stacks of masks
    (see :func:`_read_masks`), with rows of True for an end with every pair
    live. A bond with every pair live at both ends keeps every index.
    """
    out = [None] * len(bonds)
    by_dim: dict[int, tuple[list, dict]] = {}
    for j, e in enumerate(bonds):
        ends = slot.masks[e.u], slot.masks[e.v]
        if ends[0] is None and ends[1] is None:
            continue
        picked, stacks = by_dim.setdefault(e.dim, ([], {}))
        for side, (v, held) in enumerate(zip((e.u, e.v), ends)):
            if held is not None:
                plain, s = held[1], held[2]
                at, rows = stacks.setdefault(id(plain), (plain, [], []))[1:]
                at.append(2 * len(picked) + side)
                rows.append(s * plain.shape[1] + net.site(v).labels.index(e.id))
        picked.append(j)
    for d, (picked, stacks) in by_dim.items():
        ends = np.ones((2 * len(picked), d * d), dtype=bool)
        for plain, at, rows in stacks.values():
            table = plain if plain.shape[-1] == d else plain[..., :d, :d]
            ends[at] = table.reshape(-1, d * d)[rows]
        for j, kept in zip(picked, _kept(ends[0::2] & ends[1::2])):
            out[j] = kept
    return out


def _swap_closed(live: np.ndarray) -> np.ndarray:
    """A bond's ``(bra, ket)`` live matrix with each pair's swap added, raveled."""
    return (live | live.T).ravel()


def _kept(live: np.ndarray) -> list[np.ndarray | None]:
    """Per row of ``live`` (a bond's live fused indices), its nonzero columns; None when all are.

    Rows that keep the same indices share one array, so that
    :meth:`_Plan.layers` can tell them apart by identity.
    """
    counts = live.sum(axis=1).tolist()
    cols = live.nonzero()[1]
    out, seen, stop = [], {}, 0
    for count, row in zip(counts, live):
        stop += count
        if count == live.shape[1]:
            out.append(None)
        else:
            out.append(seen.setdefault(row.tobytes(), cols[stop - count:stop]))
    return out


def _same(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Whether two kept-index arrays (None: every index) keep the same indices."""
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


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
        return Tensor._trusted(t.legs, data.real) if real and data.dtype.kind == "c" else t
    for label, dim in t.legs:
        rows = data.reshape(dim, -1).T
        if label in bases:
            u, q, qc = bases[label]
            data = rows @ (q if v == u else qc)
        else:
            data = np.ascontiguousarray(rows)
    return Tensor._trusted(t.legs, data.real if real else data)


def _ranks(order: Sequence[int], legs: dict[int, list]) -> tuple[dict, dict]:
    """Sort keys for a layer's new legs, forwards and backwards along ``order``.

    The key is minus the position of the leg's other end: forwards the later
    end of its bond, backwards the earlier one. Forwards, the leg whose other
    end is absorbed soonest thus comes last, next to the old legs that will be
    contracted with it. Backwards the same keys give the mirror image, the
    soonest first, so that the backward boundary meets the forward one in the
    same leg order. The keys come from the whole order, so a boundary's leg
    order does not depend on where a pass starts or stops: a resumed prefix
    or suffix is bitwise a fresh one.
    """
    ahead, behind = {}, {}
    for i, v in enumerate(order):
        for label, _ in legs.get(v, ()):
            ahead[label] = -i
            behind.setdefault(label, -i)
    return ahead, behind


def _schedule(held: tuple[tuple[str, int], ...], layers: Sequence[Sequence[tuple[str, int]]],
              rank: dict[str, int]) -> list:
    """The steps that absorb layers with legs ``layers`` in turn into a boundary with legs ``held``.

    This is the one place a step's layout is derived, from the leg lists
    alone: the closed legs of :meth:`_Plan.layer` (``plan.legs``). The legs a
    layer shares with the boundary keep the layer's order, and its new legs
    are sorted by ``rank``. Every step is a ``tz._Run``: when the shared legs sit
    at one contiguous run of the boundary's axes the new legs are written in
    their place, else the step is permuted (``lead``) and they are appended
    at its tail in the layer's order.
    """
    steps = []
    for layer in layers:
        labels = {l for l, _ in held}
        shared = [(l, l) for l, _ in layer if l in labels]
        free = sorted((l for l, _ in layer if l not in labels), key=rank.__getitem__)
        step = tz._run(held, layer, shared, free)
        steps.append(step)
        held = step.legs
    return steps


def _replay(steps: list, acc: Tensor, operands: Iterable[np.ndarray],
            buffers: list[np.ndarray] | None = None, seen=None) -> Tensor:
    """The boundary ``acc`` with ``steps`` run in turn: the one loop that runs absorption steps.

    ``operands`` are the layers as the steps' right operands
    (``step.operand``). Step ``i`` writes a fresh array of its operands'
    common type, or, given ``buffers``, the head of the first of the pair
    ``buffers[i]``, with a permuted boundary copied into the second (see
    :func:`_buffers`); every GEMM and the layout of its operands are the same
    either way, so a boundary keeps its bits. ``seen(i, legs, data)``, if
    given, is called after each step with the boundary's legs and array. A
    fresh boundary is the caller's alone; a buffer view is valid only until
    that buffer is written again.
    """
    data = acc.data
    for i, (step, operand) in enumerate(zip(steps, operands)):
        if buffers is None:
            out, scratch = np.empty(step.shape, np.result_type(data, operand)), None
        else:
            out, scratch = buffers[i]
            out = out[:step.size].reshape(step.shape)
        data = step.into(data, operand, out, scratch)
        if seen is not None:
            seen(i, step.legs, data)
    return Tensor._trusted(steps[-1].legs, data) if steps else acc


def _absorb(acc: Tensor, layers: list[Tensor], rank: dict[str, int], seen=None) -> Tensor:
    """``acc`` with ``layers`` absorbed in turn, their new legs sorted by ``rank``.

    The steps are derived from the layers' legs (:func:`_schedule`) and run
    into fresh arrays (:func:`_replay`, which calls ``seen``). Each layer is
    popped from ``layers`` as its step runs, so none outlives its step unless
    the caller holds it.
    """
    steps = _schedule(acc.legs, [t.legs for t in layers], rank)
    return _replay(steps, acc, (step.operand(layers.pop(0).data) for step in steps), seen=seen)


def _pair(a: Tensor, b: Tensor) -> complex:
    """The final pairing of a norm or numerator: ``a`` and ``b`` contracted over all their legs.

    On open grids the two meet in the same leg order and are read as flat
    vectors. Elsewhere (on a torus) ``b`` is first permuted to ``a``'s order
    by one copy.
    """
    perm = [b.labels.index(l) for l in a.labels]
    return np.dot(a.data.ravel(), b.data.transpose(perm).ravel()).item()


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


@dataclass(frozen=True, eq=False)
class _Plan:
    """What a contraction fixes before it builds any layer (see :func:`_plan`).

    ``prefactor`` is 1/dim per bond with both ends inside, ``closures`` holds
    the :func:`mixed_closure` of each cut bond sliced to ``keep``, the kept
    indices of :func:`_prune`. ``real`` says whether every site tensor is
    real; then ``bases`` is empty, as the plain layers are real in the fused
    basis, and else it holds the blocks of :func:`_bases`. ``legs`` are each
    site's layer legs sliced to ``keep``, its cut bonds closed, ``peak`` the
    largest boundary of ``order`` in entries, ``marks`` its checkpoint cuts
    (:func:`_marks`) and ``factors`` the observable's, split along it. The
    prefix runs over ``order[:first]`` and the suffix over ``order[past:]``.

    The plan is the one place a layer is finished (:meth:`layers`,
    :meth:`layer`, :meth:`stacks`); a pass only schedules and replays the
    layers it is given.
    """

    prefactor: float
    closures: dict[str, Tensor]
    keep: dict[str, np.ndarray]
    real: bool
    bases: dict
    legs: dict[int, list]
    peak: int
    order: list[int]
    marks: frozenset[int]
    factors: dict[int, Tensor]
    first: int
    past: int

    def layers(self, net: PepsNetwork, sites: Sequence[int]) -> list[Tensor]:
        """The finished plain layers of ``sites``, in their order: the layers of a pass.

        The sites of one shape that keep the same indices at each leg
        position are squared and sliced as one stack (:func:`_stacked_layers`),
        in chunks whose site matrices total at most ``peak`` entries, each
        chunk's layers finished before the next is squared. A chunk of fewer
        than ``_STACK_MIN`` sites, which a stack would only slow down, and every
        other site are squared one at a time by :func:`double_layer`. Every
        layer is bitwise the one :meth:`layer` builds.
        """
        keep, groups = self.keep, {}
        if self.real and len(sites) >= _STACK_MIN:
            for v in sites:
                t = net.site(v)
                key = (t.data.shape, *map(id, map(keep.get, t.labels))) if keep else t.data.shape
                groups.setdefault(key, []).append(v)
        out = {}
        for group in groups.values():
            per = self.peak // net.site(group[0]).size  # sites whose matrices fit one boundary
            if per < _STACK_MIN:
                continue
            for i in range(0, len(group), per):
                chunk = group[i:i + per]
                if len(chunk) >= _STACK_MIN:
                    layers = _stacked_layers(net, chunk, keep)
                    out.update(zip(chunk, map(self._closed, layers, chunk)))
        return [out[v] if v in out else self._closed(_sliced(double_layer(net, v), keep), v)
                for v in sites]

    def layer(self, net: PepsNetwork, v: int, factor: Tensor | None = None,
              absolute: bool = False) -> Tensor:
        """The double layer of site ``v``, finished: its legs are ``legs[v]``.

        It is sliced to ``keep``, put in the Hermitian basis, and each of its
        cut bonds is closed by that bond's closure, one ``tz.contract`` each.
        ``absolute`` takes the absolute value of every entry after the basis
        change and before closing; the closures are nonnegative, so they are
        their own absolute values. A one-site operator's layer is real, as
        the plain ones are, in the Hermitian basis, and on real sites when the
        operator is real; on real sites a complex one (Pauli Y) keeps its
        layer complex, so only the steps through its support run in
        complex128, as for an operator on several sites.
        """
        real = factor is None or not _operator_bonds(factor) and (not self.real or factor.is_real)
        return self._closed(_sliced(double_layer(net, v, factor), self.keep), v, real, absolute)

    def _closed(self, t: Tensor, v: int, real: bool = True, absolute: bool = False) -> Tensor:
        """Sliced layer ``t`` of site ``v`` in the basis, cut bonds closed (see :meth:`layer`)."""
        t = _in_basis(t, v, self.bases, real)
        if absolute:
            t = Tensor._trusted(t.legs, np.abs(t.data))
        for label in t.labels:
            if label in self.closures:
                t = tz.contract(t, self.closures[label], [(label, label)])
        return t

    def stacks(self, nets: Sequence[PepsNetwork]) -> dict[int, Tensor]:
        """Each site's plain layers of all ``nets`` as one tensor, with a leading sample leg ``""``.

        The plan must have no cut bond (it covers the whole graph). Sample
        ``s`` is bitwise ``layer(nets[s], v)``: the site matrices are squared
        by :func:`_squared`, and :func:`_sliced` and :func:`_in_basis` act on
        the stack as on one layer (no edge id is empty, so the sample leg is
        neither sliced nor put in a basis).
        """
        graph = nets[0].graph
        out = {}
        for v in graph.vertices:
            edges = graph.incident(v)
            sq = _squared([n.site(v) for n in nets], [e.dim for e in edges])
            legs = (("", len(nets)),) + tuple((e.id, e.dim * e.dim) for e in edges)
            out[v] = _in_basis(_sliced(Tensor._trusted(legs, sq), self.keep), v, self.bases, True)
        return out

    def norm(self, value: complex, net: PepsNetwork) -> float:
        """The paired ``value`` times the prefactor, checked by :func:`_real_scalar`.

        Its scale is the absolute pass: the layers of ``net`` built with
        ``absolute``, absorbed along ``order`` from the scalar 1.
        """
        def absolute() -> float:
            layers = [self.layer(net, v, absolute=True) for v in self.order]
            rank = _ranks(self.order, self.legs)[0]
            return abs(_absorb(_ONE, layers, rank).item() * self.prefactor)

        return _real_scalar(value * self.prefactor, absolute)


def _plan(net: PepsNetwork, sites: Sequence[int], observable: Observable | None,
          guard: int | None, sweep: str | None, slot: _Slot, real: bool) -> _Plan | None:
    """The plan of a contraction over ``sites``, made before any layer is built.

    :func:`_prune` picks the kept bond indices; None means some bond keeps
    none. ``real`` says whether every site tensor is real, so that the plan
    makes no basis blocks. The dry run tries each sweep (``sweep=None``: every one), with the
    observable split along each order, and keeps the smallest peak, the first
    on a tie. The peak counts the operator bonds up to the last support site
    and the plain suffix past it; above ``guard`` it raises
    :class:`GuardExceeded`. A norm's ``first`` and ``past`` are both the mark
    with the smallest boundary, the nearest the middle of the order on a tie
    (any cut when there is no mark).
    """
    graph, inside = net.graph, set(sites)
    prefactor, closures = 1.0, {}
    for e in graph.edges:
        if e.u in inside and e.v in inside:
            prefactor /= e.dim
        elif e.u in inside or e.v in inside:
            closures[e.id] = mixed_closure(e.dim, e.id)
    support = observable.support if observable is not None else ()
    keep = _prune(net, sites, _patterns(observable) if support else {}, closures, slot)
    if keep is None:
        return None
    closures = {label: _sliced(t, keep) for label, t in closures.items()}
    legs = {v: [(e.id, keep[e.id].size if e.id in keep else e.dim * e.dim)
                for e in graph.incident(v) if e.id not in closures] for v in inside}
    # operator-bond labels longer than every edge id, so that none is a bond
    tag = "~" * max((len(e.id) for e in graph.edges), default=0)
    best, chains = None, {}
    for name in _SWEEPS if sweep is None else (sweep,):
        order = [v for v in sweep_order(graph, name) if v in inside]
        if best is not None and order == best[2]:
            continue
        chain = tuple(sorted(support, key=order.index))
        if chain not in chains:
            chains[chain] = _operator_factors(observable, chain, tag) if support else {}
        observed = legs | {v: legs[v] + _operator_bonds(f) for v, f in chains[chain].items()}
        # forward through the last support site, backwards through the suffix
        last = max((order.index(v) for v in support), default=len(order) - 1)
        cuts = list(_cuts(observed, order[:last + 1]))
        peak = max(max(cuts), max(_cuts(legs, order[:last:-1]), default=1))
        if best is None or peak < best[0]:
            best = peak, name, order, chains[chain], cuts
    peak, name, order, factors, cuts = best
    if guard is not None and peak > guard:
        raise GuardExceeded("contraction boundary of the best order exceeds guard", peak, guard)
    n, marks = len(order), _marks(graph, order, name)
    if support:
        first = min(order.index(v) for v in support)
        past = 1 + max(order.index(v) for v in support)
    else:
        first = past = min(marks or range(1, n) or (n,),
                           key=lambda k: (cuts[k - 1], abs(2 * k - n), k))
    bases = {} if real else _bases(net, inside, keep, slot)
    return _Plan(prefactor, closures, keep, real, bases, legs, peak, order, marks, factors,
                 first, past)


def _contract(net: PepsNetwork, sites: Sequence[int], observable: Observable | None = None, *,
              guard: int | None, sweep: str | None) -> tuple[float, complex | None]:
    """Norm and numerator of ``observable`` over ``sites``, each double layer built once.

    :func:`_plan` fixes the prefactor, closures, kept indices, order, cuts
    and operator factors, and refuses before any layer is built; the layers
    are then built by :meth:`_Plan.layer`. A bond with no live index gives an
    exact zero norm (and numerator) without contracting anything.
    Intermediates are not scanned for finiteness: a non-finite entry anywhere
    reaches the final scalars, so :meth:`_Plan.norm` (the norm) and
    :func:`_expectation` (the numerator) refuse it there. The numerator is
    None without an observable.

    The prefix runs forwards to the plan's ``first`` cut and the suffix
    backwards to its ``past`` cut. The sites between are absorbed into the
    prefix twice, with plain layers for the norm and with the observable's for
    the numerator, and each result is paired with the suffix by :func:`_pair`.
    A norm's two cuts are one mark, so it leaves marks on both sides of it.
    Each boundary resumes from the slot's environment cache (:class:`_Env`)
    when it holds this network and order: boundaries made with other kept
    indices on some bond are dropped first, and an order that misses drops the
    whole cache before any layer is built. The cache keeps ``ENV_BOUNDARIES``
    times the plan's peak, in float64 bytes. A call whose first support site
    lies within ``stride`` of the last call's keeps every cut it passes and
    its norm's prefix as well, so a scan of one-site values along the order
    costs under four norms. A refusal leaves the slot empty; the absolute pass
    of :meth:`_Plan.norm` builds its own layers.
    """
    global _slot
    slot, _slot = _slot, None
    if slot is None or slot.net() is not net:
        slot = _Slot(weakref.ref(net))
    plan = _plan(net, sites, observable, guard, sweep, slot,
                 all(net.site(v).is_real for v in sites))
    if plan is None:
        _slot = slot
        return 0.0, (None if observable is None else 0j)
    order, first, past = plan.order, plan.first, plan.past
    env = slot.env
    if env is None or env.plan.order != order:
        # a miss drops the old boundaries before any layer is built
        env = slot.env = _Env(plan)
    else:
        env.refit(plan)
    scan = bool(plan.factors) and env.span is not None and abs(first - env.span[0]) <= env.stride
    env.heading = (first > env.span[0]) - (first < env.span[0]) if scan else 0
    if plan.factors:
        env.span = (first, past)
    _slot = slot
    suffix = env.boundary(False, net, scan)
    prefix = env.boundary(True, net, scan)
    middle = order[first:past]
    plain = plan.layers(net, middle)
    closed = _absorb(prefix, list(plain), env.ahead)
    if scan:
        env.record((1, past), closed)
    norm = _pair(closed, suffix)
    del closed  # before the numerator's boundary is made
    numer = None
    if plan.factors:
        special = [plan.layer(net, v, plan.factors[v]) if v in plan.factors else t
                   for v, t in zip(middle, plain)]
        del plain  # the numerator's pass lets each layer go
        ahead = env.ahead | _ranks(order, {v: _operator_bonds(f)
                                           for v, f in plan.factors.items()})[0]
        numer = _pair(_absorb(prefix, special, ahead), suffix) * plan.prefactor
    return plan.norm(norm, net), numer


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


def peps_norms(nets: Sequence[PepsNetwork], *, guard: int | None = BOUNDARY_GUARD,
               sweep: str | None = None) -> list[float]:
    """Exact squared norms of networks that differ only in their entries, planned once.

    The networks must share one :class:`LatticeGraph` object and have equal
    site legs. Each value is bitwise ``peps_norm(net)`` when every network is
    nonzero at the same entries; otherwise pruning keeps the union of their
    live bond indices (see :func:`_union`), which adds only exact zeros.
    One :func:`_plan` on the union fixes the pruning, the order, the meeting
    cut and the basis blocks, and the leg ranks are made once. The plan makes
    basis blocks unless every site of every network is real (the union's 0/1
    entries are no guide), and the networks whose sites are all real in a
    set that is not all real are replayed with no basis, as
    :func:`peps_norm` contracts each of them. A refusal
    comes from the plan, before any layer is built, and carries the peak
    ``peps_norm`` would report on the same kept indices. The steps of both
    passes are derived once from the leg lists (:func:`_schedule`). Each
    site's layers of all networks are built as one stack
    (:meth:`_Plan.stacks`) and made into the step's right operand as a
    whole; then each network replays the steps (:func:`_replay`), is paired
    and checked on its own, as by :func:`peps_norm`. At most ``guard`` layer
    entries, or one network's, are stacked at once (the networks go in
    chunks), plus the call's own boundary buffers: two of the largest
    boundary's size, which a permuted step's copy uses too, and one of the
    suffix's. The engine's slot is neither read nor cleared.
    """
    nets = list(nets)
    if not nets:
        return []
    net, graph = nets[0], nets[0].graph
    for other in nets[1:]:
        if other.graph is not graph:
            raise ValueError("peps_norms needs networks on one LatticeGraph object")
        if any(other.site(v).legs != net.site(v).legs for v in graph.vertices):
            raise ValueError("peps_norms needs networks with equal site legs")
    reals = [all(n.site(v).is_real for v in graph.vertices) for n in nets]
    union = _union(nets)
    plan = _plan(union, graph.vertices, None, guard, sweep, _Slot(weakref.ref(union)), all(reals))
    out = [0.0] * len(nets)
    if plan is None:
        return out
    ahead, behind = _ranks(plan.order, plan.legs)
    # (sites, steps) of the suffix, then of the prefix; every layer is used once
    passes = [(sites, _schedule((), [plan.legs[v] for v in sites], rank))
              for sites, rank in ((plan.order[plan.first:][::-1], behind),
                                  (plan.order[:plan.first], ahead))]
    entries = sum(math.prod(e.dim ** 2 for e in graph.incident(v)) for v in graph.vertices)
    chunk = len(nets) if guard is None else max(1, guard // entries)
    # the real networks of a mixed set go as peps_norm takes each: with no basis
    for real in sorted(set(reals)):
        which = [i for i, r in enumerate(reals) if r == real]
        used = plan if real == plan.real else dataclasses.replace(plan, real=True, bases={})
        for start in range(0, len(which), chunk):
            part = which[start:start + chunk]
            stacks = used.stacks([nets[i] for i in part])
            operands = {v: step.operand(stacks.pop(v).data, 1)
                        for sites, steps in passes for v, step in zip(sites, steps)}
            buffers = _buffers([steps for _, steps in passes])
            for s, i in enumerate(part):
                suffix, prefix = (_replay(steps, _ONE, [operands[v][s] for v in sites], outs)
                                  for (sites, steps), outs in zip(passes, buffers))
                out[i] = used.norm(_pair(prefix, suffix), nets[i])
            del operands, buffers
    return out


def _buffers(passes: list[list]) -> list[list[tuple]]:
    """The ``(out, scratch)`` buffers of each of the suffix's and the prefix's steps.

    Two buffers of the largest step's size take turns. A step writes the one
    its boundary is not in, with no scratch; a permuted step (``lead``)
    copies its boundary into that one and writes its output back into the
    one it read. So no step writes its boundary before reading it. The
    suffix's last step writes a third buffer of its own size, which the
    prefix's steps leave alone. All are float64, as every plain layer is.
    """
    suffix, prefix = passes
    size = max(step.size for steps in passes for step in steps)
    ping = (np.empty(size), np.empty(size))
    out = []
    for steps in passes:
        at, pairs = 1, []  # the buffer the boundary is in; the scalar 1 is in neither
        for step in steps:
            if step.lead is None:
                at = 1 - at
            pairs.append((ping[at], None if step.lead is None else ping[1 - at]))
        out.append(pairs)
    if suffix:
        out[0][-1] = (np.empty(suffix[-1].size), out[0][-1][1])
    return out


def _union(nets: Sequence[PepsNetwork]) -> PepsNetwork:
    """A network nonzero wherever one of ``nets`` is, for :func:`_prune`.

    Its live pairs are the union of theirs, so a bond index kept for it is
    live in some network; in the others it multiplies exact zeros.
    """
    if len(nets) == 1:
        return nets[0]
    graph = nets[0].graph
    return PepsNetwork(graph, {
        v: Tensor._trusted(nets[0].site(v).legs,
                           np.logical_or.reduce([n.site(v).data != 0 for n in nets]).astype(float))
        for v in graph.vertices})


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
    """The sites around an observable's support box, in the Chebyshev distance.

    ``interior`` holds the sites at distance < radius, clipped at the lattice
    edge; every bond from the interior to a site outside it is cut.
    ``covers_lattice`` marks the case where the interior is every site, in
    which case the patch is exact.
    """

    support: tuple[int, ...]
    radius: int
    interior: tuple[int, ...]
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
    interior = tuple(r * cols + c for r in range(rows) for c in range(cols)
                     if max(r0 - r, r - r1, c0 - c, c - c1) < radius)
    return PatchSpec(support=tuple(int(v) for v in support), radius=radius,
                     interior=interior, covers_lattice=len(interior) == rows * cols)


def patch_nev(net: PepsNetwork, obs: Observable, radius: int, *,
              guard: int | None = BOUNDARY_GUARD) -> float:
    """Local estimate of an expectation value from a patch around the support.

    Only the patch's interior (:func:`make_patch`) is contracted: each bond
    cut between it and a site outside is closed with the maximally mixed pair
    1/dim, and the sites outside are discarded. A patch that meets the lattice
    edge is clipped there and simply cuts fewer bonds. When the patch covers
    the whole lattice this is exactly :func:`peps_nev`.
    """
    _check_support(net, obs)
    patch = make_patch(net, obs.support, radius)
    norm, numer = _contract(net, patch.interior, obs, guard=guard, sweep=None)
    return _expectation(norm, numer, "patch")[0]
