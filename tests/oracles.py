"""Reference implementations used to cross-check the package.

Everything in here is deliberately dumb: explicit python loops (or, for
the dense state, one einsum over every bond index), dense vectors, and no
shared code paths with the library beyond the public tensor container.
Slow is fine, these only ever run on tiny instances.  Two references are
the exception: they keep the tensor constructions the library replaced by
identifying each bond's two indices, the parent term through a link
projector (``parent_term_by_projector``) and the dense state through one
tensor per bond pair state (``state_by_link_states``), and they build them
with ``tz.contract`` and ``pseudo_inverse``.  ``matvec_by_permutations``
keeps the parent Hamiltonian's product the library replaced by frames: one
transpose of the whole vector per term.  ``lanczos_with_full_reorthogonalization``
keeps the thick-restart Lanczos the library replaced by partial
reorthogonalization: one classical Gram-Schmidt pass on every step.  It drives
the library's counted operator and draws its fresh vectors through
``_random_start``, so its matvec counts compare with the library's.
``prune_per_site`` keeps the contraction engine's pruning before it read
the sites of one shape in one scan and decided the bonds in one AND: one
scan per site (``live_pairs_per_site``) and one AND per bond
(``kept_per_bond``).
"""

import itertools

import numpy as np

from pepslab import tensor as tz
from pepslab import hamiltonian
from pepslab.hamiltonian import pseudo_inverse


def arr(t):
    """Raw ndarray of a tensor, axes in label order."""
    if not t.labels:
        return np.asarray(t.item())
    m = tz.matrix_view(t, list(t.labels), [])
    return m.reshape(t.dims)


def loop_contract(a, a_legs, b, b_legs, pairs):
    """Pairwise tensor contraction written as nested index loops."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    a_legs = list(a_legs)
    b_legs = list(b_legs)
    a_ax = [a_legs.index(x) for x, _ in pairs]
    b_ax = [b_legs.index(y) for _, y in pairs]
    a_keep = [i for i in range(a.ndim) if i not in a_ax]
    b_keep = [j for j in range(b.ndim) if j not in b_ax]
    out = np.zeros(
        tuple(a.shape[i] for i in a_keep) + tuple(b.shape[j] for j in b_keep),
        dtype=complex,
    )
    for ia in np.ndindex(*(a.shape[i] for i in a_keep)):
        for ib in np.ndindex(*(b.shape[j] for j in b_keep)):
            acc = 0j
            for kk in np.ndindex(*(a.shape[i] for i in a_ax)):
                ai = [0] * a.ndim
                bi = [0] * b.ndim
                for pos, ax in enumerate(a_keep):
                    ai[ax] = ia[pos]
                for pos, ax in enumerate(a_ax):
                    ai[ax] = kk[pos]
                for pos, ax in enumerate(b_keep):
                    bi[ax] = ib[pos]
                for pos, ax in enumerate(b_ax):
                    bi[ax] = kk[pos]
                acc += a[tuple(ai)] * b[tuple(bi)]
            out[ia + ib] = acc
    labels = [a_legs[i] for i in a_keep] + [b_legs[j] for j in b_keep]
    return out, labels


def dense_state(net):
    """Coefficient tensor of the physical state, one axis per vertex.

    Sums every virtual bond index explicitly, as one ``np.einsum`` with an
    index per bond and per site (no library contraction code).  Each bond
    carries the normalized pair state, so each edge contributes 1/sqrt(dim).
    """
    verts = list(net.graph.vertices)
    edges = list(net.graph.edges)
    bond = {e.id: k for k, e in enumerate(edges)}
    phys = {v: len(edges) + k for k, v in enumerate(verts)}
    operands = []
    for v in verts:
        t = net.site(v)
        operands += [arr(t), [phys[v] if lab == "phys" else bond[lab] for lab in t.labels]]
    out = np.einsum(*operands, [phys[v] for v in verts], optimize=True)
    scale = 1.0
    for e in edges:
        scale /= np.sqrt(e.dim)
    return out * scale


def state_by_link_states(net):
    """The dense state by contracting one tensor per bond pair state into the sites.

    Each bond's ``eye(dim) / sqrt(dim)`` becomes a tensor with legs
    ``<id>@u`` / ``<id>@v``, and each site, its legs relabeled to match, is
    contracted into the product with ``tz.contract``.  Returns the
    ``phys<v>``-legged tensor :func:`pepslab.assemble_state_vector` gives.
    """
    acc = tz.scalar(1.0)
    added = set()
    for v in net.graph.vertices:
        for e in net.graph.incident(v):
            if e.id not in added:
                legs = ((f"{e.id}@u", e.dim), (f"{e.id}@v", e.dim))
                link = tz.Tensor(legs, np.eye(e.dim) / np.sqrt(e.dim))
                acc = tz.contract(acc, link, [])
                added.add(e.id)
        ends = {e.id: f"{e.id}@{'u' if e.u == v else 'v'}" for e in net.graph.incident(v)}
        site = net.site(v).relabeled({**ends, "phys": f"phys{v}"})
        acc = tz.contract(acc, site, [(end, end) for end in ends.values()])
    return tz.permute_legs(acc, [f"phys{v}" for v in net.graph.vertices])


def parent_term_by_projector(net, edge_id):
    """Parent term matrix ``A^dag (1 - |phi><phi|) A``, ``A = T_x^+ (x) T_y^+``, built as tensors.

    The endpoints' pseudo-inverses get their legs tagged ``@hx`` / ``@hy``,
    their product is contracted with ``1 - |phi><phi|`` on the edge's pair of
    legs, and the result is read as the matrix ``B`` of ``h = B^dag B``.
    """
    edge = net.graph.edge(edge_id)
    invs, virts = [], []
    for v, tag in ((edge.u, "@hx"), (edge.v, "@hy")):
        t = net.site(v)
        virt = [lbl for lbl in t.labels if lbl != "phys"]
        inv = pseudo_inverse(t, ["phys"], virt).relabeled({lbl: lbl + tag for lbl in t.labels})
        invs.append(inv)
        virts += [lbl + tag for lbl in virt if lbl != edge.id]
    d = edge.dim
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    proj = tz.from_matrix(np.eye(d * d) - np.outer(phi, phi), [("xo", d), ("yo", d)],
                          [("xi", d), ("yi", d)])
    pair = tz.contract(proj, tz.contract(invs[0], invs[1], []),
                       [("xi", edge.id + "@hx"), ("yi", edge.id + "@hy")])
    b = tz.matrix_view(pair, ["xo", "yo"] + virts, ["phys@hx", "phys@hy"])
    h = b.conj().T @ b
    return 0.5 * (h + h.conj().T)


def matvec_by_permutations(ham, vec):
    """``H @ vec`` term by term: bring the term's sites to the front, multiply, transpose back."""
    n = len(ham.dims)
    psi = np.asarray(vec, dtype=np.complex128).reshape(ham.dims)
    out = np.zeros_like(psi)
    for obs in ham.terms:
        m = obs.matrix()
        ax = [ham.vertices.index(v) for v in obs.support]
        perm = ax + [i for i in range(n) if i not in ax]
        front = psi.transpose(perm).reshape(m.shape[0], -1)
        contrib = (m @ front).reshape([ham.dims[a] for a in perm])
        out += contrib.transpose(np.argsort(perm))
    return out.reshape(-1)


def lanczos_with_full_reorthogonalization(op, start, k, scale, rng):
    """``hamiltonian._thick_restart_lanczos`` with a Gram-Schmidt pass against the whole basis on every step."""
    tol = hamiltonian.LANCZOS_TOL
    dim = start.size
    size = min(hamiltonian.LANCZOS_BASIS, dim)
    keep = max(k, size // 2)
    basis = np.empty((size, dim), dtype=np.complex128)
    real = basis.view(np.float64)
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
            w -= (t[:kept, j] @ real[:kept]).view(np.complex128)
        elif j > 0:
            w -= t[j - 1, j] * basis[j - 1]
        w -= (basis[: j + 1] @ w.conj()).conj() @ basis[: j + 1]
        w = op.project(w)
        beta = float(np.linalg.norm(w))
        breakdown = beta <= tol * scale
        if j + 1 < size and not breakdown:
            t[j, j + 1] = t[j + 1, j] = beta
            basis[j + 1] = w / beta
            j += 1
            continue
        if breakdown:
            beta = 0.0
        theta, s = np.linalg.eigh(t[: j + 1, : j + 1])
        scale = max(scale, float(np.max(np.abs(theta))))
        res = beta * np.abs(s[j])
        if j + 1 >= k and np.all(res[:k] <= tol * scale):
            return theta[:k], (s[:, :k].T @ real[: j + 1]).view(np.complex128), res[:k], scale
        nxt = w / beta if beta > 0 else None
        if j + 1 < size:
            j += 1
        else:
            kept = keep
            real[:kept] = s[:, :kept].T @ real
            t[:] = 0.0
            t[np.arange(kept), np.arange(kept)] = theta[:kept]
            t[kept, :kept] = t[:kept, kept] = beta * s[j, :kept]
            j = kept
        if nxt is None:
            nxt = hamiltonian._random_start(rng, op)
            nxt -= (basis[:j] @ nxt.conj()).conj() @ basis[:j]
            nxt /= np.linalg.norm(nxt)
        basis[j] = nxt


def dense_norm(net):
    v = dense_state(net).ravel()
    return float(np.real(np.vdot(v, v)))


def dense_nev(net, support, matrix, psi=None):
    """Normalized expectation value on the assembled dense state (``psi``, if given)."""
    verts = list(net.graph.vertices)
    psi = dense_state(net) if psi is None else psi
    axes = [verts.index(s) for s in support]
    shape = [psi.shape[ax] for ax in axes]
    m = np.asarray(matrix, dtype=complex).reshape(shape + shape)
    n = len(axes)
    opsi = np.tensordot(m, psi, axes=(list(range(n, 2 * n)), axes))
    opsi = np.moveaxis(opsi, list(range(n)), axes)
    num = np.vdot(psi.ravel(), opsi.ravel())
    den = np.vdot(psi.ravel(), psi.ravel())
    return float(np.real(num / den))


def einsum_nev(net, support, matrix):
    """Normalized expectation value from the site tensors, with no dense state.

    The numerator and the norm are one ``np.einsum`` each (greedy order) over
    every ket site tensor and its conjugate, plus the operator in the
    numerator.  Bra and ket sum their bond indices separately and share the
    physical index of each site off the support.  The bond normalization
    cancels in the ratio.
    """
    verts = list(net.graph.vertices)
    labels = itertools.count()
    ket_bond = {e.id: next(labels) for e in net.graph.edges}
    bra_bond = {e.id: next(labels) for e in net.graph.edges}
    ket_phys = {v: next(labels) for v in verts}
    bra_phys = {**ket_phys, **{s: next(labels) for s in support}}

    def layers(bra):
        operands = []
        for v in verts:
            t = net.site(v)
            a = arr(t)
            operands += [a, [ket_phys[v] if lab == "phys" else ket_bond[lab] for lab in t.labels]]
            operands += [a.conj(), [bra[v] if lab == "phys" else bra_bond[lab] for lab in t.labels]]
        return operands

    shape = [net.phys_dim(s) for s in support]
    m = np.asarray(matrix, dtype=complex).reshape(shape + shape)
    op_idx = [bra_phys[s] for s in support] + [ket_phys[s] for s in support]
    num = np.einsum(*layers(bra_phys), m, op_idx, [], optimize="greedy")
    den = np.einsum(*layers(ket_phys), [], optimize="greedy")
    return float(np.real(num / den))


def dense_patch_nev(net, sites, support, matrix):
    """Normalized value on the patch ``sites``, every cut bond closed maximally mixed.

    One ``np.einsum`` gives the patch's state with each cut bond index left
    open; summing over those indices in both the bra and the ket is the trace
    over the cut bonds that the closure delta/dim takes.
    """
    sites = list(sites)
    inside = set(sites)
    edges = [e for e in net.graph.edges if e.u in inside or e.v in inside]
    bond = {e.id: k for k, e in enumerate(edges)}
    phys = {v: len(edges) + k for k, v in enumerate(sites)}
    cut = [bond[e.id] for e in edges if not (e.u in inside and e.v in inside)]
    operands = []
    for v in sites:
        t = net.site(v)
        operands += [arr(t), [phys[v] if lab == "phys" else bond[lab] for lab in t.labels]]
    psi = np.einsum(*operands, [phys[v] for v in sites] + cut, optimize=True)
    axes = [sites.index(s) for s in support]
    n = len(axes)
    m = np.asarray(matrix, dtype=complex).reshape([psi.shape[ax] for ax in axes] * 2)
    opsi = np.moveaxis(np.tensordot(m, psi, axes=(list(range(n, 2 * n)), axes)),
                       list(range(n)), axes)
    return float(np.real(np.vdot(psi.ravel(), opsi.ravel()) / np.vdot(psi.ravel(), psi.ravel())))


def live_pairs_per_site(net, v):
    """Per bond leg of site ``v``, which physical indices each bond index
    reaches, and which fused pairs of its plain layer are live: one scan of
    the site's nonzero entries.

    This is the per-site scan the engine replaced by one scan per site shape.
    ``reach[a, p]`` is True when the site tensor is nonzero at bond index
    ``a`` and physical index ``p``; the plain mask of a leg is ``reach @
    reach.T``, raveled. A site tensor with no zero entry returns ``({}, {})``:
    every pair of every leg is live.
    """
    t = net.site(v)
    dims = t.data.shape[:-1]  # the bond legs; phys is last
    if not dims or np.count_nonzero(t.data) == t.size:
        return {}, {}
    coords = t.data.nonzero()
    reach = np.zeros((len(dims), max(dims), t.data.shape[-1]), dtype=bool)
    reach[np.arange(len(dims))[:, None], np.array(coords[:-1]), coords[-1]] = True
    plain = reach @ reach.transpose(0, 2, 1)
    legs = list(zip(t.labels, dims))
    return ({label: reach[i, :d] for i, (label, d) in enumerate(legs)},
            {label: plain[i, :d, :d].ravel() for i, (label, d) in enumerate(legs)})


def kept_per_bond(ends):
    """Indices live at every end of a bond; None when all are (a mask of None: every index)."""
    ends = [m for m in ends if m is not None]
    if not ends:
        return None
    live = ends[0] if len(ends) == 1 else ends[0] & ends[1]
    kept = live.nonzero()[0]
    return None if kept.size == live.size else kept


def prune_per_site(net, sites, patterns, closures):
    """The kept indices of every bond, found one site and one bond at a time.

    The engine's pruning before it stacked its scans: each site's masks by
    :func:`live_pairs_per_site`, a support site's joined through its pattern
    and closed under the swap, and each bond's kept indices by
    :func:`kept_per_bond` over its ends (a cut bond's closure is one). Bonds
    that keep every index are left out; None when some bond keeps none.
    """
    inside, keep = set(sites), {}
    for e in net.graph.edges:
        if not (e.u in inside or e.v in inside):
            continue
        ends = [closures[e.id].data != 0] if e.id in closures else []
        for v in (e.u, e.v):
            if v in inside:
                reach, plain = live_pairs_per_site(net, v)
                if v in patterns:
                    r = reach.get(e.id)
                    ends.append(None if r is None else
                                ((live := r @ patterns[v] @ r.T) | live.T).ravel())
                else:
                    ends.append(plain.get(e.id))
        kept = kept_per_bond(ends)
        if kept is not None:
            if kept.size == 0:
                return None
            keep[e.id] = kept
    return keep


def count_tilings_python(ts, rows, cols):
    """Brute-force torus tiling count.  Pure python, no numpy."""
    tiles = ts.tiles
    total = 0
    for assign in itertools.product(range(len(tiles)), repeat=rows * cols):
        ok = True
        for r in range(rows):
            for c in range(cols):
                t = tiles[assign[r * cols + c]]
                right = tiles[assign[r * cols + (c + 1) % cols]]
                below = tiles[assign[((r + 1) % rows) * cols + c]]
                if t[2] != right[0] or t[3] != below[1]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


def count_tilings_transfer_python(ts, rows, cols):
    """Torus tiling count as trace(T**rows), in Python integers.  No numpy.

    A state is a row of ``cols`` tiles whose touching sides match, the last
    wrapping onto the first; T[s][u] is 1 when row u can sit under row s.  The
    trace is summed one start row at a time, by counting the ways to walk
    ``rows`` steps from it back to itself.
    """
    tiles = ts.tiles
    states = [s for s in itertools.product(range(len(tiles)), repeat=cols)
              if all(tiles[s[c]][2] == tiles[s[(c + 1) % cols]][0] for c in range(cols))]
    below = {s: [u for u in states if all(tiles[s[c]][3] == tiles[u[c]][1] for c in range(cols))]
             for s in states}
    total = 0
    for start in states:
        ways = {start: 1}
        for _ in range(rows):
            step = {}
            for s, n in ways.items():
                for u in below[s]:
                    step[u] = step.get(u, 0) + n
            ways = step
        total += ways.get(start, 0)
    return total


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def random_tileset(seed, count=4, colors=2):
    from pepslab.tiling import WangTileSet

    rng = np.random.default_rng(seed)
    tiles = set()
    while len(tiles) < count:
        tiles.add(tuple(int(x) for x in rng.integers(0, colors, 4)))
    return WangTileSet(colors, tuple(sorted(tiles)))


def barycentric_weights(nodes):
    """Barycentric weights by the product formula 1 / prod_{j != i} (x_i - x_j).

    Scaled so the largest has magnitude 1; any node layout, O(n**2) work.
    """
    nodes = np.asarray(nodes, dtype=float)
    w = np.ones_like(nodes)
    for i, x in enumerate(nodes):
        w[i] = 1.0 / np.prod(x - np.delete(nodes, i))
    return w / np.max(np.abs(w))


def full_space_operator(op, wires, n):
    """Matrix of ``op`` acting on ``wires`` of an n-wire register, built with np.kron.

    ``op`` is expanded over matrix units |o><i| of its wires (first listed
    wire most significant); each unit is a kron chain over all n wires, with
    the identity on wires outside ``wires``.  Wire 0 is the most significant.
    """
    op = np.asarray(op, dtype=complex)
    wires = list(wires)
    k = len(wires)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for o in itertools.product((0, 1), repeat=k):
        for i in itertools.product((0, 1), repeat=k):
            coeff = op[int("".join(map(str, o)), 2), int("".join(map(str, i)), 2)]
            term = np.eye(1, dtype=complex)
            for w in range(n):
                if w in wires:
                    unit = np.zeros((2, 2), dtype=complex)
                    unit[o[wires.index(w)], i[wires.index(w)]] = 1.0
                else:
                    unit = np.eye(2, dtype=complex)
                term = np.kron(term, unit)
            out += coeff * term
    return out


def replace_with_mixed(rho, wires, n):
    """tr_wires[rho] with 1/2**k reinserted on ``wires``, by an explicit partial trace."""
    dim = 2**n
    kept = [w for w in range(n) if w not in wires]

    def bits(index):
        return [(index >> (n - 1 - w)) & 1 for w in range(n)]

    reduced = {}
    for i in range(dim):
        for j in range(dim):
            bi, bj = bits(i), bits(j)
            if all(bi[w] == bj[w] for w in wires):
                key = (tuple(bi[w] for w in kept), tuple(bj[w] for w in kept))
                reduced[key] = reduced.get(key, 0.0) + rho[i, j]
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            bi, bj = bits(i), bits(j)
            if all(bi[w] == bj[w] for w in wires):
                key = (tuple(bi[w] for w in kept), tuple(bj[w] for w in kept))
                out[i, j] = reduced[key] / 2 ** len(wires)
    return out


def noisy_map(rho, kraus, wires, n, eta):
    """(1 - eta) sum_a K_a rho K_a^dag + eta tr_wires[rho] (x) mixed, on full-space matrices."""
    coherent = np.zeros_like(rho, dtype=complex)
    for k in kraus:
        big = full_space_operator(k, wires, n)
        coherent += big @ rho @ big.conj().T
    return (1 - eta) * coherent + eta * replace_with_mixed(rho, wires, n)


def kraus_completion_one_at_a_time(kraus, dim):
    """Orthonormal completion by modified Gram-Schmidt, one inner product at a time.

    Normalized input first, then the matrix units in row-major order, each
    projected against every kept element in turn; a candidate whose residual
    norm falls below 1e-10 is skipped.
    """
    basis = [np.asarray(k, dtype=complex) / np.linalg.norm(k) for k in kraus]
    for i in range(dim):
        for j in range(dim):
            if len(basis) == dim * dim:
                return basis
            cand = np.zeros((dim, dim), dtype=complex)
            cand[i, j] = 1.0
            for b in basis:
                cand = cand - np.trace(b.conj().T @ cand) * b
            rem = np.linalg.norm(cand)
            if rem >= 1e-10:
                basis.append(cand / rem)
    return basis


CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)


def trace_out_wire(rho, w, n):
    """tr_w[rho] for one wire w of an n-wire full-space matrix."""
    lo, hi = 2**w, 2 ** (n - w - 1)
    r = rho.reshape(lo, 2, hi, lo, 2, hi)
    return np.einsum("aibcid->abcd", r).reshape(lo * hi, lo * hi)


def postselect_one_ancilla_at_a_time(rho, eta, copies, observable, post_wire, out_wire):
    """Expectation and residual trace after ``copies`` leaky |0>-postselections.

    Each extra copy appends one fresh |0> ancilla as the least significant
    wire, copies the postselected wire onto it with a CNOT, projects the
    ancilla with the leaky projection (``noisy_map`` of |0><0|) and traces it
    out before the next copy; the postselected wire is projected and traced
    out last.  Full-space matrices throughout.
    """
    n = int(np.log2(len(rho)))
    for _ in range(copies - 1):
        big = np.kron(rho, P0)
        u = full_space_operator(CNOT, (post_wire, n), n + 1)
        big = noisy_map(u @ big @ u.conj().T, [P0], [n], n + 1, eta)
        rho = trace_out_wire(big, n, n + 1)
    rho = trace_out_wire(noisy_map(rho, [P0], [post_wire], n, eta), post_wire, n)
    obs = full_space_operator(observable, [out_wire - (out_wire > post_wire)], n - 1)
    residual = np.trace(rho).real
    return {"expectation": (np.trace(obs @ rho) / residual).real, "residual_trace": residual}


def compiled_sites_cell_by_cell(families, delta, complete, cells_per_row):
    """Site arrays of a compiled circuit, built one cell at a time.

    ``families`` holds one Kraus family per site in row-major order, the
    closing reset row included, and ``complete(family, 4)`` returns its
    orthonormal completion. Each site is ``c_a * B_a[(o0 o1), (i0 i1)]``
    laid out as ``[i0, i1, o0, o1, a]`` with ``c_a`` 1 on the Kraus rows and
    delta on the rest; the first row's in-legs and the last row's out-legs
    are then contracted with |0>.
    """
    ket0 = np.array([1.0, 0.0], dtype=complex)
    last = len(families) // cells_per_row - 1
    sites = []
    for v, family in enumerate(families):
        basis = complete(family, 4)
        arr = np.zeros((2, 2, 2, 2, 16), dtype=complex)
        for a, b in enumerate(basis):
            c = 1.0 if a < len(family) else delta
            for i0, i1, o0, o1 in itertools.product(range(2), repeat=4):
                arr[i0, i1, o0, o1, a] = c * b[2 * o0 + o1, 2 * i0 + i1]
        if v // cells_per_row == 0:
            arr = np.einsum("i,j,ijkla->kla", ket0, ket0, arr)
        if v // cells_per_row == last:
            arr = np.einsum("k,l,ijkla->ija", ket0, ket0, arr)
        sites.append(arr)
    return sites
