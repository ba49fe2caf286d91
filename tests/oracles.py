"""Reference implementations used to cross-check the package.

Everything in here is deliberately dumb: explicit python loops (or, for
the dense state, one einsum over every bond index), dense vectors, and no
shared code paths with the library beyond the public tensor container.
Slow is fine, these only ever run on tiny instances.
"""

import itertools

import numpy as np

from pepslab import tensor as tz


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


def dense_norm(net):
    v = dense_state(net).ravel()
    return float(np.real(np.vdot(v, v)))


def dense_nev(net, support, matrix):
    """Normalized expectation value on the assembled dense state."""
    verts = list(net.graph.vertices)
    psi = dense_state(net)
    axes = [verts.index(s) for s in support]
    shape = [psi.shape[ax] for ax in axes]
    m = np.asarray(matrix, dtype=complex).reshape(shape + shape)
    n = len(axes)
    opsi = np.tensordot(m, psi, axes=(list(range(n, 2 * n)), axes))
    opsi = np.moveaxis(opsi, list(range(n)), axes)
    num = np.vdot(psi.ravel(), opsi.ravel())
    den = np.vdot(psi.ravel(), psi.ravel())
    return float(np.real(num / den))


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
