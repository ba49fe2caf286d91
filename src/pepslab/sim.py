"""Small dense density-matrix simulator for noisy brickwork circuits.

A state on n wires is stored as its real Pauli coefficients: the 4**n
float64 numbers ``c[p1, ..., pn] = tr[(B_p1 (x) ... (x) B_pn) rho]`` in the
orthonormal Hermitian basis ``B = (I, X, Y, Z) / sqrt(2)``, one axis of 4 per
wire, wire 0 first (most significant, as in the computational index).  The
complex matrix ``rho`` is built only when asked for.

Every local map on k wires has a real ``4**k x 4**k`` Pauli transfer matrix
``R = T^H S T``, where ``S = sum_a K_a (x) conj(K_a)`` is its Liouville matrix
over the (ket, bra) index pair and ``T`` maps Pauli coefficients to that pair.
A completely positive map preserves Hermiticity, so ``R`` is real; its
round-off imaginary part is checked and dropped.  When the map's wires are
adjacent and ascending, ``R`` multiplies a reshaped view of the state in one
matrix product; otherwise (the wrap cell ``(w - 1, 0)``, a CNOT on ``[1, 0]``)
the wires are moved to the front and back.  A partial trace keeps index 0 of
the traced axes, and ``tr[O rho]`` contracts the operator's own Pauli
coefficients with those of the state.

``run_noisy_circuit`` computes the transfer matrices of all cells as one
stack (``_transfer_matrices``, families padded with zero operators) and
applies them in order between three state buffers that it owns, so no cell
allocates.  The one-map functions (``apply_noisy_cell`` and the others
behind ``_local_map``) are stacks of one of the same code.

Noise acts at the cell level: with rate eta the cell output is replaced by
the maximally mixed state of its wires (times the input trace), so a noisy
map is ``(1 - eta) S + eta |vec I><vec I| / 2**k``.  Projections are
therefore leaky: a postselected wrong branch survives with weight eta per
projection instead of being annihilated.

Postselection with m copies (copy the postselected wire onto m - 1 fresh
wires with CNOTs, project every copy leakily, trace the copies out) has a
closed form.  Each copy keeps the |0><0| block of the postselected wire,
multiplies its |1><1| block by eta and removes the coherences; the last
projection and trace then leave ``rho_00 + eta**m rho_11`` on the other
wires.  So the state never holds more than the body's wires.
"""

from __future__ import annotations

import functools

import numpy as np

from .channels import (
    QuantumChannel,
    depolarize,
    identity_channel,
    kraus_families,
    unit_kraus_families,
)
from .circuits import Circuit
from .embed import cell_kraus
from .errors import GuardExceeded

WIRE_GUARD = 10

_P00 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
_EYE2 = np.eye(2, dtype=np.complex128)
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=np.complex128,
)

_SQRT2 = np.sqrt(2.0)
# B[p] = sigma_p / sqrt(2) for p = I, X, Y, Z
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=np.complex128,
) / _SQRT2


def _pauli_coeffs(pairs: np.ndarray) -> np.ndarray:
    """Per-wire (row, col) pairs ``(00, 01, 10, 11)`` -> coefficients ``tr[B_p A]``.

    Sums and differences only, one axis at a time: entries of a basis state
    that vanish come out exactly zero.
    """
    out = pairs
    for w in range(pairs.ndim):
        a00, a01, a10, a11 = np.moveaxis(out, w, 0)
        out = np.stack([a00 + a11, a01 + a10, 1j * (a01 - a10), a00 - a11], axis=w)
    return out * 2.0 ** (-pairs.ndim / 2)


def _pauli_pairs(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of ``_pauli_coeffs``: ``sum_p c_p B_p`` as per-wire (row, col) pairs."""
    out = coeffs
    for w in range(coeffs.ndim):
        i, x, y, z = np.moveaxis(out, w, 0)
        out = np.stack([i + z, x - 1j * y, x + 1j * y, i - z], axis=w)
    return out * 2.0 ** (-coeffs.ndim / 2)


def _pairs(matrix: np.ndarray, k: int) -> np.ndarray:
    """``(2**k, 2**k)`` matrix -> ``(4,) * k`` array of per-wire (row, col) pairs."""
    nd = matrix.reshape([2] * (2 * k))
    order = [ax for w in range(k) for ax in (w, k + w)]
    return nd.transpose(order).reshape([4] * k)


@functools.lru_cache(maxsize=None)
def _basis_change(k: int) -> np.ndarray:
    """T: Pauli coefficients on k wires -> the Liouville (ket, bra) index pair."""
    basis = _PAULI
    for _ in range(k - 1):
        basis = np.einsum("aij,bkl->abikjl", basis, _PAULI).reshape(
            basis.shape[0] * 4, basis.shape[1] * 2, basis.shape[2] * 2
        )
    return basis.reshape(4**k, 4**k).T


def _check_wires(n: int, wires, shape: tuple) -> list:
    """Distinct wires in ``[0, n)`` for a matrix of ``shape`` ``(2**k, 2**k)``."""
    wires = [int(w) for w in wires]
    if not wires:
        raise ValueError("need at least one wire")
    if len(set(wires)) != len(wires):
        raise ValueError(f"wires {wires} repeat a wire")
    if any(not 0 <= w < n for w in wires):
        raise ValueError(f"wires {wires} out of range for a {n}-wire state")
    side = 1 << len(wires)
    if tuple(shape) != (side, side):
        raise ValueError(f"a matrix of shape {tuple(shape)} does not act on {len(wires)} wire(s)")
    return wires


def _check_wire_count(wires: int) -> None:
    if wires < 1:
        raise ValueError("need at least one wire")
    if wires > WIRE_GUARD:
        raise GuardExceeded("simulator wire count exceeds the guard", wires, WIRE_GUARD)


class DensityState:
    """Unnormalized density operator on ``wires`` qubits, kept as Pauli coefficients."""

    def __init__(self, wires: int, rho: np.ndarray):
        _check_wire_count(wires)
        dim = 1 << wires
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.shape != (dim, dim):
            raise ValueError(f"state shape {rho.shape} != ({dim}, {dim})")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12 * max(1.0, np.abs(rho).max()):
            raise ValueError("density matrix is not Hermitian")
        self.wires = int(wires)
        self._coeffs = np.ascontiguousarray(_pauli_coeffs(_pairs(rho, wires)).real)

    @classmethod
    def _from_coeffs(cls, coeffs: np.ndarray) -> "DensityState":
        _check_wire_count(coeffs.ndim)
        state = cls.__new__(cls)
        state.wires = coeffs.ndim
        state._coeffs = np.ascontiguousarray(coeffs)
        return state

    @property
    def dim(self) -> int:
        return 1 << self.wires

    @property
    def trace(self) -> float:
        return float(self._coeffs.flat[0]) * 2.0 ** (self.wires / 2)

    @property
    def rho(self) -> np.ndarray:
        n = self.wires
        nd = _pauli_pairs(self._coeffs).reshape([2] * (2 * n))
        order = [2 * w for w in range(n)] + [2 * w + 1 for w in range(n)]
        return nd.transpose(order).reshape(self.dim, self.dim)


def basis_state(bits: str) -> DensityState:
    if len(bits) == 0 or any(b not in "01" for b in bits):
        raise ValueError("bits must be a nonempty string over {0, 1}")
    _check_wire_count(len(bits))
    # |0><0| = (B_I + B_Z) / sqrt(2), |1><1| = (B_I - B_Z) / sqrt(2)
    wire = {"0": np.array([1.0, 0.0, 0.0, 1.0]), "1": np.array([1.0, 0.0, 0.0, -1.0])}
    coeffs = np.ones(())
    for b in bits[:-1]:
        coeffs = np.multiply.outer(coeffs, wire[b])
    # entries so far are 0 or +-1, so scaling the last factor is exact and
    # the product is the one array of the state's size
    last = wire[bits[-1]] * 2.0 ** (-len(bits) / 2)
    return DensityState._from_coeffs(np.multiply.outer(coeffs, last))


def _superoperators(ops: np.ndarray, eta: float = 0.0) -> np.ndarray:
    """Liouville matrices of a stack ``[F, M, d, d]`` of (noisy) local maps.

    Each is taken over the (ket, bra) index pair; zero operators that pad a
    family add nothing.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    nmaps, d = ops.shape[0], ops.shape[-1]
    s = np.einsum("faij,fakl->fikjl", ops, ops.conj()).reshape(nmaps, d * d, d * d)
    if eta == 0.0:
        return s
    vec_id = np.eye(d, dtype=np.complex128).ravel()
    return (1.0 - eta) * s + (eta / d) * np.outer(vec_id, vec_id)


def _transfer_matrices(ops: np.ndarray, eta: float = 0.0) -> np.ndarray:
    """Real Pauli transfer matrices ``T^H S T`` of a stack of (noisy) local maps."""
    t = _basis_change(ops.shape[-1].bit_length() - 1)
    r = t.conj().T @ _superoperators(ops, eta) @ t
    leak = np.abs(r.imag).max(axis=(1, 2)) > 1e-12 * np.abs(r.real).max(axis=(1, 2))
    if leak.any():
        raise ValueError(f"local map {np.flatnonzero(leak)[0]} does not preserve Hermiticity")
    return np.ascontiguousarray(r.real)


def _apply_transfer(c: np.ndarray, r: np.ndarray, wires: list, out: np.ndarray,
                    spare: np.ndarray) -> np.ndarray:
    """Apply a Pauli transfer matrix on checked ``wires`` of the coefficients ``c``.

    The result is written into ``out``; ``out`` and ``spare`` are C-ordered
    arrays shaped like ``c`` that share no memory with it, and ``spare`` is
    scratch.  Adjacent ascending wires take one matrix product on views.
    Other wires are moved to the front into ``out``, multiplied into
    ``spare`` and moved back into ``out``, on a view that merges the runs of
    untouched wires so that the copies stride well.
    """
    k, first = len(wires), wires[0]
    if wires == list(range(first, first + k)):
        x = c.reshape(4**first, 4**k, -1)
        if x.shape[2] == 1:
            np.matmul(x.reshape(-1, 4**k), r.T, out=out.reshape(-1, 4**k))
        else:
            np.matmul(r, x, out=out.reshape(x.shape))
        return out
    ordered = sorted(wires)
    shape = [4**ordered[0]]
    for a, b in zip(ordered, ordered[1:] + [c.ndim]):
        shape += [4, 4 ** (b - a - 1)]
    axes = [2 * ordered.index(w) + 1 for w in wires]
    front = list(range(k))
    moved = np.moveaxis(c.reshape(shape), axes, front)
    x = out.reshape(moved.shape)
    np.copyto(x, moved)
    y = spare.reshape(4**k, -1)
    np.matmul(r, x.reshape(4**k, -1), out=y)
    np.copyto(out.reshape(shape), np.moveaxis(y.reshape(moved.shape), front, axes))
    return out


def _local_map(state: DensityState, kraus, wires, eta: float) -> DensityState:
    """One (noisy) local map: a stack of one for ``_transfer_matrices``."""
    ops = np.asarray(kraus, dtype=np.complex128)
    wires = _check_wires(state.wires, wires, ops.shape[1:])
    r = _transfer_matrices(ops[None], eta)[0]
    c = state._coeffs
    return DensityState._from_coeffs(
        _apply_transfer(c, r, wires, np.empty_like(c), np.empty_like(c)))


def apply_unitary(state: DensityState, u: np.ndarray, wires) -> DensityState:
    return _local_map(state, [u], wires, 0.0)


def apply_noisy_cell(state: DensityState, kraus, wires, eta: float) -> DensityState:
    """(1 - eta) * cell channel + eta * tr_pair[rho] (x) maximally mixed pair."""
    return _local_map(state, kraus, wires, eta)


def noisy_projection(state: DensityState, wire: int, eta: float) -> DensityState:
    """Leaky projection onto |0> of one wire.

    Marginal of the cell-level noisy projection after tracing the idle
    partner: (1 - eta) P rho P + eta * tr_w[rho] (x) 1/2.
    """
    return _local_map(state, [_P00], [wire], eta)


def partial_trace(state: DensityState, traced) -> DensityState:
    traced = set(int(w) for w in traced)
    if any(not 0 <= w < state.wires for w in traced):
        raise ValueError("traced wire out of range")
    if len(traced) == state.wires:
        raise ValueError("cannot trace out every wire")
    # tr_w keeps the B_I coefficient of wire w, times tr[B_I] = sqrt(2)
    index = tuple(0 if w in traced else slice(None) for w in range(state.wires))
    return DensityState._from_coeffs(state._coeffs[index] * 2.0 ** (len(traced) / 2))


def extend_with_zeros(state: DensityState, extra: int) -> DensityState:
    """Append ``extra`` fresh wires in |0> as the least significant bits."""
    if extra < 1:
        return state
    _check_wire_count(state.wires + extra)
    fresh = basis_state("0" * extra)._coeffs
    return DensityState._from_coeffs(np.multiply.outer(state._coeffs, fresh))


def expectation_value(state: DensityState, matrix, wires) -> complex:
    """tr[O rho] with O acting on the listed wires (unnormalized)."""
    op = np.asarray(matrix, dtype=np.complex128)
    wires = _check_wires(state.wires, wires, op.shape)
    m, n = len(wires), state.wires
    coeffs = _pauli_coeffs(_pairs(op, m))
    # tr[O rho] = sum_q tr[B_q O] c[q on the wires, I elsewhere] * tr[B_I]**(n - m)
    index = tuple(slice(None) if w in wires else 0 for w in range(n))
    ordered = sorted(wires)
    local = state._coeffs[index].transpose([ordered.index(w) for w in wires])
    return complex(np.sum(coeffs * local)) * 2.0 ** ((n - m) / 2)


def run_noisy_circuit(
    circuit: Circuit,
    eta: float,
    input_bits: str = None,
    convention: str = "raw",
) -> DensityState:
    """Evolve |input><input| through the circuit with cell-level noise.

    convention='raw' applies each cell's Kraus family as written;
    'virtual' rescales every Kraus operator to unit Hilbert-Schmidt norm
    first, which is the map the compiled tensor network realizes (up to one
    scalar per cell that drops out of normalized expectation values).

    Every cell's transfer matrix is computed first, as one stack.  They are
    then applied in order between three state buffers that this call owns,
    the input state's and two more, so no cell allocates; the result ends
    in the input state's buffer.
    """
    if input_bits is None:
        input_bits = "0" * circuit.width
    if len(input_bits) != circuit.width:
        raise ValueError(f"input needs {circuit.width} bits, got {len(input_bits)}")
    if convention not in ("raw", "virtual"):
        raise ValueError(f"unknown convention {convention!r} (use 'raw' or 'virtual')")
    cells = [cell for t in range(circuit.depth) for cell in circuit.cells(t)]
    ops, counts = kraus_families([cell_kraus(cell) for cell in cells], 4)
    if convention == "virtual":
        ops = unit_kraus_families(ops, counts)
    transfers = _transfer_matrices(ops, eta)
    state = basis_state(input_bits)
    c = state._coeffs
    # the other two buffers are one block: glibc's allocator then serves it
    # from its heap on later runs, where two separate blocks went back to the
    # system and faulted in again (224 minor faults per 8-wire run)
    out, spare = np.empty((2,) + c.shape)
    for r, cell in zip(transfers, cells):
        c, out = _apply_transfer(c, r, list(cell.wires), out, spare), c
    if c is not state._coeffs:
        np.copyto(state._coeffs, c)
    return state


def projection_error_coeffs(v, eta: float):
    """Leakage coefficients (eps0, eps1, eps01) of a noisy projection.

    The projection is modeled at the cell level: project0 on the wire,
    identity on an idle partner, depolarized at rate eta, partner traced out.
    eps0 is the weight lost from the kept branch V(|0><0|), eps1 the weight
    kept from the rejected branch V(|1><1|), eps01 the coherence leak.
    The result does not depend on the partner state.
    """
    if v is None:
        v = identity_channel(2)
    if v.dim != 2:
        raise ValueError("V must act on a single wire")
    cell = QuantumChannel(4, (np.kron(_P00, _EYE2),))
    noisy = depolarize(cell, eta)
    sigma = _EYE2 / 2.0

    def passed(omega):
        rho = np.kron(v.apply(omega), sigma)
        return complex(np.trace(noisy.apply(rho)))

    w00 = passed(np.array([[1, 0], [0, 0]], dtype=np.complex128))
    w11 = passed(np.array([[0, 0], [0, 1]], dtype=np.complex128))
    w01 = passed(np.array([[0, 1], [0, 0]], dtype=np.complex128))
    for val in (w00, w11):
        if abs(val.imag) > 1e-12:
            raise ValueError("projection weights acquired an imaginary part")
    return (1.0 - w00.real, w11.real, w01)


def postselected_expectation(
    body,
    eta: float,
    copies: int,
    observable,
    post_wire: int = 0,
    out_wire: int = 1,
    input_bits: str = None,
    body_eta: float = None,
    convention: str = "raw",
) -> dict:
    """Expectation on ``out_wire`` after ``copies`` noisy |0>-postselections.

    ``body`` is either a Circuit (evolved with noise rate body_eta, default
    eta) or an already-prepared DensityState.  The postselected register is
    copied onto copies-1 fresh wires with ideal CNOTs, every copy is projected
    with the leaky projection at rate eta, and the projected wires are traced
    out.  That leaves ``rho_00 + eta**copies rho_11`` of the postselected
    wire's blocks on the other wires (module docstring), which is computed
    directly, so no copy wire is ever added.  Returns the normalized
    expectation and the surviving trace weight.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if isinstance(body, Circuit):
        rate = eta if body_eta is None else body_eta
        state = run_noisy_circuit(body, rate, input_bits, convention)
    elif isinstance(body, DensityState):
        state = body
    else:
        raise TypeError("body must be a Circuit or a DensityState")
    if not 0 <= post_wire < state.wires or not 0 <= out_wire < state.wires:
        raise ValueError("post/out wires out of range")
    if post_wire == out_wire:
        raise ValueError("post and out wires must differ")

    # rho_00 = (c_I + c_Z) / sqrt(2) and rho_11 = (c_I - c_Z) / sqrt(2) on the post wire
    leak = eta**copies
    c = state._coeffs
    kept = ((1.0 + leak) * np.take(c, 0, axis=post_wire)
            + (1.0 - leak) * np.take(c, 3, axis=post_wire)) / _SQRT2
    state = DensityState._from_coeffs(kept)
    out_pos = out_wire - (out_wire > post_wire)

    obs = np.asarray(observable, dtype=np.complex128)
    if obs.shape != (2, 2):
        raise ValueError("observable must be a 2x2 matrix")
    residual = state.trace
    if residual <= 0:
        raise ValueError("no weight survived postselection")
    val = expectation_value(state, obs, [out_pos])
    if abs(val.imag) > 1e-10 * max(1.0, abs(val)):
        raise ValueError("expectation acquired an imaginary part")
    return {
        "expectation": val.real / residual,
        "residual_trace": residual,
    }
