"""Kraus-form quantum channels, the depolarizing wrapper and basis completion.

A circuit's cells are prepared as one batch. ``kraus_families`` stacks their
Kraus families into one zero-padded array ``[F, M, d, d]`` with a count per
family; ``unit_kraus_families`` rescales every family to unit
Hilbert-Schmidt norm; ``orthonormal_completions`` extends every family of a
stack to an orthonormal operator basis in one pass over the ``d**2`` matrix
units. The one-family functions, ``kraus_orthonormal_completion`` and
``QuantumChannel.hs_normalized``, are batches of one of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HS_TOL = 1e-10


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive map given by a finite Kraus family.

    Not required to be trace preserving; postselecting elements (projections)
    are first-class citizens here.
    """

    dim: int
    kraus: tuple

    def __post_init__(self):
        ops = tuple(np.ascontiguousarray(k, dtype=np.complex128) for k in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (self.dim, self.dim):
                raise ValueError(f"Kraus operator shape {k.shape} != ({self.dim}, {self.dim})")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus", ops)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=np.complex128)
        out = np.zeros_like(rho)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out

    def kraus_sum(self) -> np.ndarray:
        """sum_a K_a^dag K_a (identity iff trace preserving)."""
        s = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for k in self.kraus:
            s += k.conj().T @ k
        return s

    def is_trace_preserving(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.kraus_sum() - np.eye(self.dim))) <= tol)

    def choi(self) -> np.ndarray:
        """Choi matrix sum_ij |i><j| (x) Phi(|i><j|), normalized by 1/dim."""
        d = self.dim
        c = np.zeros((d * d, d * d), dtype=np.complex128)
        for k in self.kraus:
            # Choi = (1/d) sum_a |K_a>><<K_a| with |K>> = sum_i |i> ox K|i>.
            vec = np.zeros(d * d, dtype=np.complex128)
            for i in range(d):
                vec[i * d : (i + 1) * d] = k[:, i]
            c += np.outer(vec, vec.conj())
        return c / d

    def hs_normalized(self) -> "QuantumChannel":
        """Rescale every Kraus operator to unit Hilbert-Schmidt norm.

        Requires all operators to share the same HS norm; mixing unequal
        weights would silently change the channel, so that is rejected.
        """
        ops, counts = kraus_families([self.kraus], self.dim)
        return QuantumChannel(self.dim, tuple(unit_kraus_families(ops, counts)[0]))


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel(dim, (np.eye(dim, dtype=np.complex128),))


def unitary_channel(u: np.ndarray, tol: float = 1e-12) -> QuantumChannel:
    u = np.asarray(u, dtype=np.complex128)
    d = u.shape[0]
    if u.shape != (d, d) or np.max(np.abs(u.conj().T @ u - np.eye(d))) > tol:
        raise ValueError("matrix is not unitary")
    return QuantumChannel(d, (u,))


def depolarize(channel: QuantumChannel, eta: float) -> QuantumChannel:
    """(1 - eta) * channel + eta * tr[rho] * identity / dim, in Kraus form.

    The mixing part uses the d^2 matrix units scaled by sqrt(eta / d), which
    reproduces eta * tr[rho] * 1/d exactly.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    d = channel.dim
    ops = [np.sqrt(1.0 - eta) * k for k in channel.kraus]
    if eta > 0.0:
        w = np.sqrt(eta / d)
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=np.complex128)
                e[i, j] = w
                ops.append(e)
    return QuantumChannel(d, tuple(ops))


def kraus_families(families, dim: int):
    """Stack Kraus families into ``(ops, counts)``.

    ``ops`` is ``[F, M, dim, dim]`` complex128 with ``M`` the largest family
    size: ``ops[f, a]`` is operator ``a`` of family ``f`` for
    ``a < counts[f]``, and zero beyond.
    """
    families = [list(f) for f in families]
    counts = np.array([len(f) for f in families], dtype=np.intp)
    ops = np.zeros((len(families), max(counts, default=0), dim, dim), dtype=np.complex128)
    for f, family in enumerate(families):
        if family:
            ops[f, : len(family)] = family
    return ops, counts


def unit_kraus_families(ops: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Rescale every operator of a stack to unit Hilbert-Schmidt norm.

    The operators of one family must share one nonzero norm; mixing unequal
    weights would silently change the channel, so that is rejected with an
    error naming the family. Padding stays zero.
    """
    norms = np.linalg.norm(ops, axis=(2, 3))
    live = np.arange(ops.shape[1]) < counts[:, None]
    zero = np.flatnonzero(np.any(live & (norms <= 0), axis=1))
    if zero.size:
        raise ValueError(f"Kraus family {zero[0]}: a zero operator cannot be normalized")
    top = np.max(norms, axis=1, where=live, initial=0.0)
    low = np.min(norms, axis=1, where=live, initial=np.inf)
    bad = np.flatnonzero(top - low > HS_TOL * top)
    if bad.size:
        f = bad[0]
        raise ValueError(
            f"Kraus family {f}: HS norms differ ({low[f]:.6g} vs {top[f]:.6g}); "
            "uniform normalization undefined"
        )
    return ops / np.where(live, norms, 1.0)[:, :, None, None]


def orthonormal_completions(ops: np.ndarray, counts: np.ndarray, dim: int) -> np.ndarray:
    """Extend every family of a stack to an orthonormal operator basis.

    Returns ``[F, dim**2, dim, dim]``. Family ``f`` starts with its operators
    at unit HS norm; they must share one norm and be mutually HS-orthogonal.
    The remaining directions are filled by Gram-Schmidt over the matrix
    units in row-major order. Each unit is projected against the rows the
    family holds so far, twice, and kept where its residual norm is at least
    1e-10. The first pass against unit ``u`` has the coefficients
    ``conj(rows[:, u])``; the second is one batched product. A family takes
    the candidate only where its own residual passes and it still has fewer
    than ``dim**2`` rows, so each family comes out as if completed alone.
    The procedure is deterministic.
    """
    size = dim * dim
    nfam = ops.shape[0]
    if np.any(counts > size):
        raise ValueError("more Kraus operators than the space dimension")
    normed = unit_kraus_families(ops, counts).reshape(nfam, -1, size)
    overlap = np.abs(normed.conj() @ np.swapaxes(normed, 1, 2))
    diag = np.arange(normed.shape[1])
    overlap[:, diag, diag] = 0.0
    bad = np.flatnonzero(np.any(overlap > HS_TOL, axis=(1, 2)))
    if bad.size:
        raise ValueError(f"Kraus family {bad[0]}: Kraus operators must be HS-orthogonal")

    rows = np.zeros((nfam, size, size), dtype=np.complex128)
    rows[:, : normed.shape[1]] = normed
    kept = counts.copy()
    fams = np.arange(nfam)
    for u in range(size):
        short = kept < size
        if not short.any():
            break
        # the rows beyond kept are zero, so projecting on all of them is exact
        cand = -(rows[:, None, :, u].conj() @ rows)
        cand[:, 0, u] += 1.0
        cand -= (cand @ np.swapaxes(rows.conj(), 1, 2)) @ rows
        rem = np.linalg.norm(cand[:, 0], axis=1)
        take = short & (rem >= 1e-10)
        rows[fams[take], kept[take]] = cand[take, 0] / rem[take, None]
        kept += take
    if np.any(kept != size):
        raise ValueError("failed to complete the Kraus basis")
    return rows.reshape(nfam, size, dim, dim)


def kraus_orthonormal_completion(kraus, dim: int) -> list:
    """Extend one HS-orthogonal, equal-norm Kraus family to an orthonormal basis.

    A batch of one of :func:`orthonormal_completions`.
    """
    return list(orthonormal_completions(*kraus_families([kraus], dim), dim)[0])
