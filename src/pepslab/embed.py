"""Compile brickwork circuits into injective tensor networks.

Each brickwork cell becomes one site tensor on a cylinder: the physical leg
enumerates a Hilbert-Schmidt orthonormal operator basis whose first elements
are the cell's (normalized) Kraus operators, weighted 1, and whose completion
rows are weighted delta.  Contracting the double layer then applies, per cell,
the channel (1 - delta^2) * Phi_hat + delta^2 * tr[rho] * identity, a
depolarized version of the cell map, with one global scalar per cell that
cancels in normalized expectation values.

``compile_circuit`` prepares every cell of the circuit, the appended reset
row included, as one batch: one zero-padded stack of Kraus families, one
batched completion (``channels.orthonormal_completions``) and one broadcast
weighting and transpose into ``[i0, i1, o0, o1, a]``.  The first row's
in-legs and the last row's out-legs are closed with |0>, which is taking
their index 0.  ``build_site_tensor`` is a batch of one of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .channels import QuantumChannel, kraus_families, orthonormal_completions
from .circuits import Cell, Circuit, cell_wires, wire_cell
from .network import (
    PHYS,
    Edge,
    Observable,
    PepsNetwork,
    explicit_graph,
    observable_from_matrix,
)
from .tensor import Tensor

CELL_DIM = 4
BASIS_SIZE = CELL_DIM * CELL_DIM

_P00 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
_R01 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)


def eta_from_delta(delta: float) -> float:
    """Depolarizing rate matching the compiled cell map at injectivity delta."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    d2 = delta * delta
    return 4.0 * d2 / (1.0 + 3.0 * d2)


_WIRE_KRAUS = {
    "identity": np.eye(2, dtype=np.complex128)[None],
    "reset": np.stack([_P00, _R01]),
    "project0": _P00[None],
}


def _single_wire_kraus(gate) -> np.ndarray:
    """Kraus family ``[m, 2, 2]`` of a single-wire gate."""
    if gate.kind == "unitary":
        return gate.matrix[None]
    if gate.kind not in _WIRE_KRAUS:
        raise ValueError(f"gate kind {gate.kind!r} is not a single-wire operation")
    return _WIRE_KRAUS[gate.kind]


def _pair_kraus(ka: np.ndarray, kb: np.ndarray) -> list:
    """``[kron(a, b) for a in ka for b in kb]`` in one broadcast product."""
    # kron(a, b)[(i k), (j l)] = a[i, j] * b[k, l]
    prod = ka[:, None, :, None, :, None] * kb[None, :, None, :, None, :]
    return list(prod.reshape(-1, CELL_DIM, CELL_DIM))


# the appended row: both wires reset, then closed with <00|
_RESET_ROW = _pair_kraus(_WIRE_KRAUS["reset"], _WIRE_KRAUS["reset"])


def cell_kraus(cell: Cell) -> list:
    """Raw Kraus family of a brickwork cell, first wire most significant."""
    if len(cell.gates) == 1:
        return [cell.gates[0].matrix]
    a, b = cell.gates
    return _pair_kraus(_single_wire_kraus(a), _single_wire_kraus(b))


def _site_arrays(families, delta: float) -> np.ndarray:
    """Site arrays ``[F, i0, i1, o0, o1, a]`` of a list of Kraus families.

    Entry ``[f, i0, i1, o0, o1, a] = c_a * B_a[(o0 o1), (i0 i1)]`` where
    ``{B_a}`` is the orthonormal completion of family ``f`` and ``c_a`` is 1
    on its Kraus rows and delta on the completion rows.
    """
    ops, counts = kraus_families(families, CELL_DIM)
    basis = orthonormal_completions(ops, counts, CELL_DIM)  # [f, a, o, i]
    coeffs = np.where(np.arange(BASIS_SIZE) < counts[:, None], 1.0, delta)  # [f, a]
    arr = np.transpose(basis, (0, 3, 2, 1)) * coeffs[:, None, None, :]  # [f, i, o, a]
    return arr.reshape(len(counts), 2, 2, 2, 2, BASIS_SIZE)


def build_site_tensor(kraus, delta: float) -> Tensor:
    """Site tensor with legs (in0, in1, out0, out1, phys).

    Entry [i0, i1, o0, o1, a] = c_a * B_a[(o0 o1), (i0 i1)] where {B_a} is the
    orthonormal completion of the normalized Kraus family and c_a is 1 on the
    Kraus rows and delta on the completion rows.  Singular values are exactly
    {1 x (m+1), delta x (15-m)} for m+1 Kraus operators.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    legs = [("in0", 2), ("in1", 2), ("out0", 2), ("out1", 2), (PHYS, BASIS_SIZE)]
    return Tensor(legs, _site_arrays([kraus], delta)[0])


def effective_channel(
    t: Tensor,
    in_legs=("in0", "in1"),
    out_legs=("out0", "out1"),
    phys: str = PHYS,
) -> QuantumChannel:
    """Channel represented by a site tensor: Kraus row a is c_a * B_a.

    Applying it yields (1 - delta^2) * Phi_hat + delta^2 * tr[rho] * identity.
    """
    m = tz.matrix_view(t, [phys], list(in_legs) + list(out_legs))
    din = t.dim(in_legs[0]) * t.dim(in_legs[1])
    dout = t.dim(out_legs[0]) * t.dim(out_legs[1])
    if din != dout:
        raise ValueError("site tensor must have matching in/out dimensions")
    ops = tuple(m[a].reshape(din, dout).T.copy() for a in range(m.shape[0]))
    return QuantumChannel(din, ops)


@dataclass(frozen=True)
class CompiledNetwork:
    network: PepsNetwork
    circuit: Circuit
    delta: float
    rows: int
    cells_per_row: int

    def vertex(self, t: int, index: int) -> int:
        return t * self.cells_per_row + index


def _edge_id(t: int, wire: int) -> str:
    return f"w{t}.{wire}"


def compile_circuit(circuit: Circuit, delta: float) -> CompiledNetwork:
    """Network for the circuit on a cylinder, one site per brickwork cell.

    The input row absorbs |0...0> on its virtual in-legs; a row of resets is
    appended and closed with <0...0|, which makes the top row an exact
    isometry whose physical indices 0..3 expose the cell's virtual input pair.
    Bulk and input sites have injectivity >= delta.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    width = circuit.width
    ncells = width // 2
    rows = circuit.depth + 1

    vertices = list(range(rows * ncells))
    edges = []
    for t in range(rows - 1):
        for w in range(width):
            su = wire_cell(width, t, w)[0]
            sv = wire_cell(width, t + 1, w)[0]
            edges.append(Edge(_edge_id(t, w), t * ncells + su, (t + 1) * ncells + sv, 2))
    graph = explicit_graph(vertices, edges)

    families = [cell_kraus(circuit.cell(t, s)) for t in range(circuit.depth) for s in range(ncells)]
    arrays = _site_arrays(families + [_RESET_ROW] * ncells, delta)
    sites = {}
    for t in range(rows):
        for s in range(ncells):
            a, b = cell_wires(width, t, s)
            arr = arrays[t * ncells + s]
            legs = []
            # closing a leg with |0> is taking its index 0
            if t == 0:
                arr = arr[0, 0]
            else:
                legs += [(_edge_id(t - 1, a), 2), (_edge_id(t - 1, b), 2)]
            if t == rows - 1:
                arr = arr[..., 0, 0, :]
            else:
                legs += [(_edge_id(t, a), 2), (_edge_id(t, b), 2)]
            sites[t * ncells + s] = Tensor(legs + [(PHYS, BASIS_SIZE)], arr)

    net = PepsNetwork(graph, sites)
    return CompiledNetwork(
        network=net,
        circuit=circuit,
        delta=delta,
        rows=rows,
        cells_per_row=ncells,
    )


def readout_observable(compiled: CompiledNetwork, wire: int, matrix) -> Observable:
    """Single-site observable measuring a wire operator on the reset row.

    The reset row's physical indices 0..3 coincide with its virtual input
    pair, so embedding the wire operator there evaluates tr[O rho] against
    the channel-composed state of the circuit.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError("readout operator must be 2x2")
    width = compiled.circuit.width
    if not 0 <= wire < width:
        raise ValueError(f"wire {wire} out of range for a {width}-wire circuit")
    t = compiled.rows - 1
    s, pos = wire_cell(width, t, wire)
    # the entries of kron(m, I) (or kron(I, m)) as [i, k, j, l], one broadcast product
    eye = np.eye(2, dtype=np.complex128)
    a, b = (m, eye) if pos == 0 else (eye, m)
    o4 = (a[:, None, :, None] * b[None, :, None, :]).reshape(CELL_DIM, CELL_DIM)
    o16 = np.zeros((BASIS_SIZE, BASIS_SIZE), dtype=np.complex128)
    o16[:CELL_DIM, :CELL_DIM] = o4
    return observable_from_matrix((compiled.vertex(t, s),), o16)
