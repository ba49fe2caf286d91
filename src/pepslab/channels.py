"""Kraus-form quantum channels and the depolarizing wrapper."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HS_TOL = 1e-10


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a^dag b)."""
    return complex(np.trace(a.conj().T @ b))


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
        norms = [np.linalg.norm(k) for k in self.kraus]
        if max(norms) <= 0:
            raise ValueError("cannot normalize a zero channel")
        if max(norms) - min(norms) > HS_TOL * max(norms):
            raise ValueError(
                f"Kraus HS norms differ ({min(norms):.6g} vs {max(norms):.6g}); "
                "uniform normalization undefined"
            )
        scale = 1.0 / norms[0]
        return QuantumChannel(self.dim, tuple(k * scale for k in self.kraus))


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


def kraus_orthonormal_completion(kraus, dim: int) -> list:
    """Extend HS-orthogonal equal-norm Kraus operators to an orthonormal basis.

    Input operators are rescaled to unit HS norm and must be mutually
    orthogonal.  The remaining dim^2 - m directions are filled by running
    Gram-Schmidt over the matrix units in row-major order, skipping candidates
    whose residual norm falls below 1e-10.  Each candidate is projected against
    all kept rows at once with one matrix product, applied twice.  The
    procedure is deterministic.
    """
    ops = [np.asarray(k, dtype=np.complex128) for k in kraus]
    if len(ops) > dim * dim:
        raise ValueError("more Kraus operators than the space dimension")
    norms = [np.linalg.norm(k) for k in ops]
    if ops:
        if min(norms) <= 0:
            raise ValueError("zero Kraus operator cannot be normalized")
        if max(norms) - min(norms) > HS_TOL * max(norms):
            raise ValueError("Kraus operators must share one HS norm")
    basis = [k / n for k, n in zip(ops, norms)]
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            if abs(hs_inner(basis[a], basis[b])) > HS_TOL:
                raise ValueError("Kraus operators must be HS-orthogonal")

    rows = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    kept = len(basis)
    rows[:kept] = np.reshape(basis, (kept, dim * dim))
    for unit in range(dim * dim):
        if kept == dim * dim:
            break
        cand = np.zeros(dim * dim, dtype=np.complex128)
        cand[unit] = 1.0
        for _ in range(2):
            cand -= (rows[:kept].conj() @ cand) @ rows[:kept]
        rem = np.linalg.norm(cand)
        if rem < 1e-10:
            continue
        rows[kept] = cand / rem
        kept += 1
    if kept != dim * dim:
        raise ValueError("failed to complete the Kraus basis")
    return list(rows.reshape(dim * dim, dim, dim))
