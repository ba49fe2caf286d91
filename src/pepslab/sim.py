"""Small dense density-matrix simulator for noisy brickwork circuits.

Wire 0 is the most significant bit of the computational index.  Every local
map on k wires is applied in superoperator (Liouville) form: one
``4**k x 4**k`` matrix over the (ket wires, bra wires) index pair,
``S = sum_a K_a (x) conj(K_a)``, moved onto the state's matching axes with one
move-axes/reshape, one matrix product and one move-axes back.  Noise acts at
the cell level: with rate eta the cell output is replaced by the maximally
mixed state of its wires (times the input trace), so a noisy map is
``(1 - eta) S + eta |vec I><vec I| / 2**k``.  Projections are therefore leaky:
a postselected wrong branch survives with weight eta per projection instead of
being annihilated.

Postselection with copies adds one ancilla at a time: copy the postselected
wire onto a fresh wire with a CNOT, project the ancilla, trace it out, and go
on to the next copy; the postselected wire itself is projected last.  The
CNOTs share their control and commute with the other copies' projections, so
this equals copying onto every ancilla first, while the state never holds more
than the body width + 1 wires.
"""

from __future__ import annotations

import numpy as np

from .channels import QuantumChannel, depolarize, identity_channel
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


class DensityState:
    """Unnormalized density operator on ``wires`` qubits."""

    def __init__(self, wires: int, rho: np.ndarray, check: bool = True):
        if wires < 1:
            raise ValueError("need at least one wire")
        if wires > WIRE_GUARD:
            raise GuardExceeded("simulator wire count exceeds the guard", wires, WIRE_GUARD)
        dim = 1 << wires
        rho = np.ascontiguousarray(rho, dtype=np.complex128)
        if rho.shape != (dim, dim):
            raise ValueError(f"state shape {rho.shape} != ({dim}, {dim})")
        if check and np.max(np.abs(rho - rho.conj().T)) > 1e-12 * max(1.0, np.abs(rho).max()):
            raise ValueError("density matrix is not Hermitian")
        self.wires = int(wires)
        self.rho = rho

    @property
    def dim(self) -> int:
        return 1 << self.wires

    @property
    def trace(self) -> float:
        return float(np.trace(self.rho).real)

    def _nd(self) -> np.ndarray:
        return self.rho.reshape([2] * (2 * self.wires))


def basis_state(bits: str) -> DensityState:
    n = len(bits)
    if n == 0 or any(b not in "01" for b in bits):
        raise ValueError("bits must be a nonempty string over {0, 1}")
    idx = int(bits, 2)
    rho = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    rho[idx, idx] = 1.0
    return DensityState(n, rho, check=False)


def _superoperator(kraus, eta: float = 0.0) -> np.ndarray:
    """Liouville matrix of a (noisy) local map over the (ket, bra) index pair."""
    ops = np.asarray(kraus, dtype=np.complex128)
    d = ops.shape[-1]
    s = np.einsum("aij,akl->ikjl", ops, ops.conj()).reshape(d * d, d * d)
    if eta == 0.0:
        return s
    vec_id = np.eye(d, dtype=np.complex128).ravel()
    return (1.0 - eta) * s + (eta / d) * np.outer(vec_id, vec_id)


def _apply_superoperator(state: DensityState, s: np.ndarray, wires) -> DensityState:
    """Apply a Liouville matrix on ``wires`` as one GEMM on the (ket, bra) axes."""
    n, k = state.wires, len(wires)
    axes = list(wires) + [n + w for w in wires]
    front = list(range(2 * k))
    nd = np.moveaxis(state._nd(), axes, front).reshape(s.shape[1], -1)
    out = np.moveaxis((s @ nd).reshape([2] * (2 * n)), front, axes)
    return DensityState(n, out.reshape(state.dim, state.dim), check=False)


def apply_unitary(state: DensityState, u: np.ndarray, wires) -> DensityState:
    return _apply_superoperator(state, _superoperator([u]), list(wires))


def apply_noisy_cell(state: DensityState, kraus, wires, eta: float) -> DensityState:
    """(1 - eta) * cell channel + eta * tr_pair[rho] (x) maximally mixed pair."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    return _apply_superoperator(state, _superoperator(kraus, eta), list(wires))


def noisy_projection(state: DensityState, wire: int, eta: float) -> DensityState:
    """Leaky projection onto |0> of one wire.

    Marginal of the cell-level noisy projection after tracing the idle
    partner: (1 - eta) P rho P + eta * tr_w[rho] (x) 1/2.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    return _apply_superoperator(state, _superoperator([_P00], eta), [wire])


def partial_trace(state: DensityState, traced) -> DensityState:
    traced = sorted(set(int(w) for w in traced))
    if any(not 0 <= w < state.wires for w in traced):
        raise ValueError("traced wire out of range")
    kept = [w for w in range(state.wires) if w not in traced]
    if not kept:
        raise ValueError("cannot trace out every wire")
    n = state.wires
    idx = list(range(2 * n))
    for w in traced:
        idx[n + w] = idx[w]
    out_idx = [idx[w] for w in kept] + [idx[n + w] for w in kept]
    reduced = np.einsum(state._nd(), idx, out_idx)
    dim = 1 << len(kept)
    return DensityState(len(kept), reduced.reshape(dim, dim), check=False)


def extend_with_zeros(state: DensityState, extra: int) -> DensityState:
    """Append ``extra`` fresh wires in |0> as the least significant bits."""
    if extra < 1:
        return state
    if state.wires + extra > WIRE_GUARD:
        raise GuardExceeded("simulator wire count exceeds the guard", state.wires + extra, WIRE_GUARD)
    anc = np.zeros((1 << extra, 1 << extra), dtype=np.complex128)
    anc[0, 0] = 1.0
    return DensityState(state.wires + extra, np.kron(state.rho, anc), check=False)


def expectation_value(state: DensityState, matrix, wires) -> complex:
    """tr[O rho] with O acting on the listed wires (unnormalized)."""
    wires = list(wires)
    m = len(wires)
    op_nd = np.asarray(matrix, dtype=np.complex128).reshape([2] * (2 * m))
    n = state.wires
    idx = list(range(2 * n))
    for w in range(n):
        if w not in wires:
            idx[n + w] = idx[w]
    op_idx = [idx[n + w] for w in wires] + [idx[w] for w in wires]
    return complex(np.einsum(state._nd(), idx, op_nd, op_idx, []))


def _cell_kraus_for(cell, convention: str):
    kraus = cell_kraus(cell)
    if convention == "virtual":
        return QuantumChannel(4, tuple(kraus)).hs_normalized().kraus
    if convention == "raw":
        return kraus
    raise ValueError(f"unknown convention {convention!r} (use 'raw' or 'virtual')")


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
    """
    if input_bits is None:
        input_bits = "0" * circuit.width
    if len(input_bits) != circuit.width:
        raise ValueError(f"input needs {circuit.width} bits, got {len(input_bits)}")
    state = basis_state(input_bits)
    for t in range(circuit.depth):
        for cell in circuit.cells(t):
            kraus = _cell_kraus_for(cell, convention)
            state = apply_noisy_cell(state, kraus, cell.wires, eta)
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
    out.  The copies are made one at a time, each traced out before the next,
    so the state peaks at the body width + 1 wires.  Returns the normalized
    expectation and the surviving trace weight.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
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

    for _ in range(copies - 1):
        a = state.wires
        state = extend_with_zeros(state, 1)
        state = apply_unitary(state, CNOT, (post_wire, a))
        state = partial_trace(noisy_projection(state, a, eta), [a])
    state = partial_trace(noisy_projection(state, post_wire, eta), [post_wire])
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
