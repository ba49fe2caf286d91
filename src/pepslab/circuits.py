"""Brickwork circuits on a ring of wires.

Timestep t pairs wires (0,1)(2,3)... when t is even and (1,2)(3,4)...(n-1,0)
when t is odd, so the wire count must be even.  Each pair is a cell; a cell
holds either one two-wire unitary or two independent single-wire operations
drawn from {identity, reset, project0, unitary}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

KINDS_1Q = ("identity", "reset", "project0", "unitary")
KINDS = KINDS_1Q + ("unitary2",)

UNITARY_TOL = 1e-12


@dataclass(frozen=True, eq=False, slots=True)
class Gate:
    kind: str
    t: int
    wire: int
    matrix: np.ndarray = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        size = {"unitary": 2, "unitary2": 4}.get(self.kind)
        if size is None:
            if self.matrix is not None:
                raise ValueError(f"{self.kind} gate takes no matrix")
            return
        m = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if m.shape != (size, size):
            raise ValueError(f"{self.kind} gate needs a {size}x{size} matrix")
        if np.max(np.abs(m.conj().T @ m - np.eye(size))) > UNITARY_TOL:
            raise ValueError(f"{self.kind} gate matrix is not unitary")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def wires(self) -> tuple:
        if self.kind == "unitary2":
            return (self.wire, self.wire + 1)
        return (self.wire,)


def cell_wires(width: int, t: int, index: int) -> tuple:
    """Wires of brickwork cell ``index`` at timestep ``t`` (cyclic pairing)."""
    if t % 2 == 0:
        a = 2 * index
        return (a, a + 1)
    a = 2 * index + 1
    return (a, (a + 1) % width)


def wire_cell(width: int, t: int, wire: int) -> tuple:
    """(cell index, position within the cell) holding ``wire`` at step ``t``."""
    if t % 2 == 0:
        return (wire // 2, wire % 2)
    if wire == 0:
        return (width // 2 - 1, 1)
    return ((wire - 1) // 2, (wire - 1) % 2)


@dataclass(frozen=True)
class Cell:
    t: int
    index: int
    wires: tuple
    gates: tuple  # one unitary2 gate, or one single-wire gate per wire


class Circuit:
    """Validated brickwork circuit; every (t, wire) slot covered exactly once.

    Missing slots are filled with identity gates at construction, so partial
    gate lists are accepted.  A unitary2 gate must start on the left wire of
    its cell: even t means an even wire, odd t means an odd wire.
    """

    def __init__(self, width: int, depth: int, gates=()):
        if width < 2 or width % 2 != 0:
            raise ValueError("width must be an even integer >= 2")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.width = int(width)
        self.depth = int(depth)

        occupied = {}
        for g in gates:
            if not 0 <= g.t < depth:
                raise ValueError(f"gate timestep {g.t} outside [0, {depth})")
            if not 0 <= g.wire < width:
                raise ValueError(f"wire {g.wire} outside [0, {width})")
            if g.kind == "unitary2":
                pair = cell_wires(width, g.t, wire_cell(width, g.t, g.wire)[0])
                if g.wire != pair[0]:
                    raise ValueError(
                        f"unitary2 at t={g.t} must start on wire {pair[0]}, got {g.wire}"
                    )
            for w in g.wires():
                key = (g.t, w % width)
                if key in occupied:
                    raise ValueError(f"slot t={g.t} wire={w % width} covered twice")
                occupied[key] = g

        full = list(gates)
        for t in range(depth):
            for w in range(width):
                if (t, w) not in occupied:
                    full.append(Gate("identity", t, w))
        self.gates = tuple(sorted(full, key=lambda g: (g.t, g.wire, g.kind)))
        # gate covering (t, w) at index t * width + w
        by_slot = [None] * (depth * width)
        for g in self.gates:
            for w in g.wires():
                by_slot[g.t * width + w % width] = g
        self._by_slot = tuple(by_slot)

    def cell(self, t: int, index: int) -> Cell:
        wires = cell_wires(self.width, t, index)
        g0 = self._by_slot[t * self.width + wires[0]]
        if g0.kind == "unitary2":
            return Cell(t=t, index=index, wires=wires, gates=(g0,))
        g1 = self._by_slot[t * self.width + wires[1]]
        return Cell(t=t, index=index, wires=wires, gates=(g0, g1))

    def cells(self, t: int) -> list:
        return [self.cell(t, s) for s in range(self.width // 2)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if (self.width, self.depth) != (other.width, other.depth):
            return False
        if len(self.gates) != len(other.gates):
            return False
        for a, b in zip(self.gates, other.gates):
            if (a.kind, a.t, a.wire) != (b.kind, b.t, b.wire):
                return False
            if a.matrix is not None and np.max(np.abs(a.matrix - b.matrix)) > 0:
                return False
        return True


def circuit_to_json(circuit: Circuit) -> dict:
    gates = []
    for g in circuit.gates:
        if g.kind == "identity":
            continue
        entry = {"kind": g.kind, "t": g.t, "wire": g.wire}
        if g.matrix is not None:
            entry["matrix"] = [[float(z.real), float(z.imag)] for z in g.matrix.reshape(-1)]
        gates.append(entry)
    return {"width": circuit.width, "depth": circuit.depth, "gates": gates}


def circuit_from_json(obj: dict) -> Circuit:
    try:
        width = int(obj["width"])
        depth = int(obj["depth"])
        raw = obj["gates"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed circuit object: {exc}") from exc
    gates = []
    for entry in raw:
        kind = entry["kind"]
        matrix = None
        if "matrix" in entry and entry["matrix"] is not None:
            size = {"unitary": 2, "unitary2": 4}.get(kind)
            if size is None:
                raise ValueError(f"{kind} gate does not carry a matrix")
            flat = entry["matrix"]
            if len(flat) != size * size:
                raise ValueError(f"{kind} matrix needs {size * size} entries, got {len(flat)}")
            matrix = np.array(
                [complex(re, im) for re, im in flat], dtype=np.complex128
            ).reshape(size, size)
        gates.append(Gate(kind, int(entry["t"]), int(entry["wire"]), matrix))
    return Circuit(width, depth, gates)


def load_circuit(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return circuit_from_json(json.load(fh))


def save_circuit(circuit: Circuit, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(circuit_to_json(circuit), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _haar(rng, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_circuit(
    width: int,
    depth: int,
    seed: int = 0,
    p_two: float = 0.6,
    p_reset: float = 0.15,
    p_project: float = 0.1,
) -> Circuit:
    """Deterministic random brickwork circuit (counter-based generator)."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    gates = []
    for t in range(depth):
        for s in range(width // 2):
            wires = cell_wires(width, t, s)
            if rng.random() < p_two:
                gates.append(Gate("unitary2", t, wires[0], _haar(rng, 4)))
                continue
            for w in wires:
                r = rng.random()
                if r < p_reset:
                    gates.append(Gate("reset", t, w))
                elif r < p_reset + p_project:
                    gates.append(Gate("project0", t, w))
                elif r < p_reset + p_project + 0.25:
                    gates.append(Gate("unitary", t, w, _haar(rng, 2)))
                else:
                    gates.append(Gate("identity", t, w))
    return Circuit(width, depth, gates)
