"""Command line interface.

Every subcommand prints one JSON document to stdout.  Exit codes: 0 on
success, 1 on validation errors, 2 when a resource guard refuses the
computation (pass --force to lift the guard and accept the memory cost).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .circuits import _matrix_from_pairs, load_circuit
from .contraction import BOUNDARY_GUARD, _decision, nev_report, patch_nev, peps_norm
from .embed import compile_circuit, eta_from_delta, readout_observable
from .errors import GuardExceeded
from .hamiltonian import parent_hamiltonian, spectrum_report
from .network import (
    PepsNetwork,
    network_from_json,
    network_to_json,
    normalize_sigma1,
    observable_from_json,
    peps_injectivity,
    random_network,
    site_injectivity,
)
from .sim import (
    expectation_value,
    postselected_expectation,
    run_noisy_circuit,
)
from .tiling import (
    count_tilings_exhaustive,
    extrapolate_norm_to_zero,
    load_tileset,
    tiling_count_via_norm,
)

PAULIS = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "P0": np.array([[1, 0], [0, 0]], dtype=np.complex128),
    "P1": np.array([[0, 0], [0, 1]], dtype=np.complex128),
}


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _network_from_args(args) -> PepsNetwork:
    if getattr(args, "network", None):
        net = network_from_json(_load_json(args.network))
    elif getattr(args, "random", None):
        try:
            rows, cols = (int(p) for p in args.random.lower().split("x"))
        except ValueError:
            raise ValueError("--random expects ROWSxCOLS, e.g. 3x3") from None
        net = random_network(
            rows,
            cols,
            bond_dim=args.bond_dim,
            phys_dim=args.phys_dim,
            delta=args.delta,
            seed=args.seed,
            geometry=args.geometry,
        )
    else:
        raise ValueError("provide --network FILE or --random ROWSxCOLS")
    if getattr(args, "normalize_sigma1", False):
        net = normalize_sigma1(net)
    if getattr(args, "emit_network", None):
        with open(args.emit_network, "w", encoding="utf-8") as fh:
            json.dump(network_to_json(net), fh, sort_keys=True)
            fh.write("\n")
    return net


def _add_network_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--network", help="network JSON file")
    p.add_argument("--random", metavar="RxC", help="generate a seeded random grid network")
    p.add_argument("--bond-dim", type=int, default=2)
    p.add_argument("--phys-dim", type=int, default=None)
    p.add_argument("--delta", type=float, default=None,
                   help="target injectivity of generated sites (condition number 1/delta)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--geometry", choices=["open-grid", "periodic-grid"], default="open-grid")
    p.add_argument("--normalize-sigma1", action="store_true",
                   help="rescale every site so its largest singular value is 1")
    p.add_argument("--emit-network", metavar="FILE",
                   help="also write the network that was used to FILE")
    p.add_argument("--force", action="store_true", help="lift the contraction size guard")


def _guard(args) -> int | None:
    return None if getattr(args, "force", False) else BOUNDARY_GUARD


def cmd_norm(args) -> dict:
    net = _network_from_args(args)
    return {"norm": peps_norm(net, guard=_guard(args))}


def cmd_nev(args) -> dict:
    net = _network_from_args(args)
    obs = observable_from_json(_load_json(args.observable))
    report = nev_report(net, obs, guard=_guard(args))
    report["decision"] = _decision(report["value"])
    return report


def cmd_inject(args) -> dict:
    net = _network_from_args(args)
    return {
        "injectivity": peps_injectivity(net),
        "sites": {str(v): site_injectivity(net, v) for v in net.graph.vertices},
    }


def cmd_patch_nev(args) -> dict:
    net = _network_from_args(args)
    obs = observable_from_json(_load_json(args.observable))
    return {
        "value": patch_nev(net, obs, args.radius, guard=_guard(args)),
        "radius": args.radius,
    }


def cmd_parent_ham(args) -> dict:
    net = _network_from_args(args)
    ham = parent_hamiltonian(net)
    report = spectrum_report(ham, net, k=args.eigenvalues)
    out = report.to_json()
    out["terms"] = len(ham.terms)
    out["dimension"] = ham.dim
    return out


def cmd_compile(args) -> dict:
    circuit = load_circuit(args.circuit)
    compiled = compile_circuit(circuit, args.delta)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(network_to_json(compiled.network), fh, sort_keys=True)
            fh.write("\n")
    return {
        "rows": compiled.rows,
        "cells_per_row": compiled.cells_per_row,
        "vertices": len(compiled.network.graph.vertices),
        "edges": len(compiled.network.graph.edges),
        "delta": compiled.delta,
        "eta": eta_from_delta(compiled.delta),
        "injectivity": peps_injectivity(compiled.network),
    }


def _sim_observable(args) -> np.ndarray:
    if args.observable:
        lit = _load_json(args.observable)
        if not isinstance(lit, dict) or "matrix" not in lit:
            raise ValueError(f"sim observable file {args.observable} must have 'matrix'")
        return _matrix_from_pairs(lit["matrix"], 2, "sim observable matrix")
    return PAULIS[args.pauli]


def cmd_sim_run(args) -> dict:
    circuit = load_circuit(args.circuit)
    obs = _sim_observable(args)
    if args.copies == 0:
        state = run_noisy_circuit(circuit, args.eta, args.input, args.convention)
        trace = state.trace
        if trace <= 0:
            raise ValueError("state trace vanished")
        val = expectation_value(state, obs, [args.wire])
        return {"expectation": val.real / trace, "residual_trace": trace}
    result = postselected_expectation(
        circuit,
        args.eta,
        args.copies,
        obs,
        post_wire=args.post_wire,
        out_wire=args.wire,
        input_bits=args.input,
        body_eta=args.body_eta,
        convention=args.convention,
    )
    return result


def cmd_tile_count(args) -> dict:
    ts = load_tileset(args.tiles)
    out: dict = {"tiles": ts.count, "colors": ts.colors, "rows": args.rows, "cols": args.cols}
    if args.extrapolate:
        out["extrapolation"] = extrapolate_norm_to_zero(
            ts, args.rows, args.cols, guard=_guard(args)
        )
        out["count"] = out["extrapolation"]["count"]
    else:
        out.update(tiling_count_via_norm(ts, args.rows, args.cols, guard=_guard(args)))
    if args.check:
        exhaustive = count_tilings_exhaustive(ts, args.rows, args.cols)
        out["exhaustive"] = exhaustive
        if exhaustive != out["count"]:
            raise ValueError(
                f"count {out['count']} disagrees with transfer-matrix count {exhaustive}"
            )
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pepslab",
        description="Injective tensor network states: contraction, parent Hamiltonians, "
        "circuit embedding, noisy simulation and tiling counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="exact squared norm of a network state")
    _add_network_args(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("nev", help="normalized expectation value of an observable")
    _add_network_args(p)
    p.add_argument("--observable", required=True, help="observable JSON file")
    p.set_defaults(func=cmd_nev)

    p = sub.add_parser("inject", help="injectivity (sigma_min / sigma_1) per site")
    _add_network_args(p)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("patch-nev", help="local patch estimate of an expectation value")
    _add_network_args(p)
    p.add_argument("--observable", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=cmd_patch_nev)

    p = sub.add_parser("parent-ham", help="parent Hamiltonian spectrum report")
    _add_network_args(p)
    p.add_argument("--eigenvalues", type=int, default=6, help="how many low eigenvalues")
    p.set_defaults(func=cmd_parent_ham)

    p = sub.add_parser("compile-circuit", help="compile a brickwork circuit to a network")
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--output", help="write the compiled network JSON here")
    p.set_defaults(func=cmd_compile)

    sim = sub.add_parser("sim", help="dense noisy-circuit simulator")
    simsub = sim.add_subparsers(dest="sim_command", required=True)
    p = simsub.add_parser("run", help="run a circuit with cell-level depolarizing noise")
    p.add_argument("--circuit", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--input", default=None, help="input bitstring (default all zeros)")
    p.add_argument("--wire", type=int, default=1, help="measured wire")
    p.add_argument("--pauli", choices=sorted(PAULIS), default="Z")
    p.add_argument("--observable", help="JSON file {\"matrix\": [[re,im] x 4]}")
    p.add_argument("--copies", type=int, default=0,
                   help="postselection copies; 0 runs without postselection")
    p.add_argument("--post-wire", type=int, default=0)
    p.add_argument("--body-eta", type=float, default=None,
                   help="noise rate for the circuit body (default: same as --eta)")
    p.add_argument("--convention", choices=["raw", "virtual"], default="raw")
    p.set_defaults(func=cmd_sim_run)

    tile = sub.add_parser("tile", help="Wang tiling counters")
    tilesub = tile.add_subparsers(dest="tile_command", required=True)
    p = tilesub.add_parser("count", help="count tilings of the torus")
    p.add_argument("--tiles", required=True, help="tile set JSON file")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="cross-check against the exact transfer-matrix count")
    p.add_argument("--extrapolate", action="store_true",
                   help="use only well-conditioned interpolated networks")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_tile_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except GuardExceeded as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
