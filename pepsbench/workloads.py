"""Seeded job lists of the benchmark workloads and their independent checks.

A workload is a list of jobs built from the run seed and an input-set number.
Every job is a call sequence made only of public pepslab functions, looked up
on their modules at call time so that the tracer's wrappers apply. Every job carries a
check that the benchmark runs outside the timed region, against a route that
does not share the code path being timed:

- grid: the other sweep order, a random unitary gauge on every bond (same
  order, different numbers), an isometric norm of 1, or a dense ``np.einsum``
  contraction of the patch;
- circuit: the compiled PEPS readout against the dense noisy simulator;
- spectrum: the frustration-free properties of the parent Hamiltonian;
- tiling: an exact integer row-transfer-matrix count written here.

Jobs that failed when the benchmark was defined carry ``known_failure``: they
count as failed, but do not make the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import pepslab as pl
import pepslab.cli
import pepslab.hamiltonian
import pepslab.network
import pepslab.sim

WORKLOADS = ("grid", "circuit", "spectrum", "tiling")

# The cost of a circuit job depends on the drawn gates, and that of a Lanczos
# spectrum on the instance and on the solver's random start vector, so these
# workloads draw new inputs for every timed pass and a run averages over many
# instances. Grid and tiling costs depend only on the shapes, and the grid
# checks cost as much as the jobs, so those workloads repeat one input set.
FRESH_INPUTS = frozenset({"circuit", "spectrum"})

GRID_DELTA = 0.8
CIRCUIT_DELTA = 0.3
SPECTRUM_DELTA = 0.5

# Tolerances of the independent checks.
VALUE_TOL = 1e-10
ISOMETRIC_TOL = 1e-12
CIRCUIT_TOL = 1e-9
GROUND_ENERGY_TOL = 1e-9
OVERLAP_TOL = 1e-8

Z = np.diag([1.0, -1.0]).astype(np.complex128)

# The 4-tile set of the package README and of its old backend benchmark.
README_TILES = ((0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0), (1, 1, 0, 1))


@dataclass
class Job:
    """One timed call sequence, its kind, and its check.

    ``check(output, ref)`` returns ``None`` when the output is right and a
    message otherwise; ``ref`` is ``reference()``, computed once per job however
    often the job repeats. ``known_failure`` says how the job fails at the
    commit that defined the benchmark.
    """

    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], str | None]
    reference: Callable[[], Any] = lambda: None
    known_failure: str | None = None
    _ref: Any = field(default=None, init=False, repr=False)
    _has_ref: bool = field(default=False, init=False, repr=False)

    def verify(self, output: Any) -> str | None:
        if not self._has_ref:
            self._ref, self._has_ref = self.reference(), True
        return self.check(output, self._ref)


def job_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input of a workload run with ``seed``."""
    return seed * 1000 + index


def close_to(what: str, tol: float, value_of: Callable[[Any], float] = lambda out: out):
    """Check that a job's value matches its reference to ``tol`` (relative above 1)."""
    def check(out, ref):
        value = value_of(out)
        if abs(value - ref) <= tol * max(1.0, abs(ref)):
            return None
        return f"{what} {value!r} differs from the independent route {ref!r}"
    return check


def unit_hermitian(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = (m + m.conj().T) / 2
    return m / np.linalg.norm(m, 2)


def _haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def gauged(net, seed: int):
    """The same physical state with a random unitary inserted on every bond.

    For bond ``e`` between ``u`` and ``v`` the site at ``u`` absorbs ``U`` and the
    site at ``v`` absorbs ``U^dagger``, so the contraction order and cost are
    unchanged while every intermediate number differs.
    """
    rng = np.random.default_rng(seed)
    data = {v: np.array(net.site(v).data) for v in net.graph.vertices}
    for e in net.graph.edges:
        u = _haar(e.dim, rng)
        for vertex, mat in ((e.u, u), (e.v, u.conj().T)):
            ax = net.site(vertex).axis(e.id)
            arr = data[vertex]
            if vertex == e.u:
                arr = np.tensordot(arr, mat, axes=([ax], [0]))
            else:
                arr = np.tensordot(mat, arr, axes=([1], [ax]))
                arr = np.moveaxis(arr, 0, -1)
            data[vertex] = np.moveaxis(arr, -1, ax)
    tensors = {v: pl.Tensor(net.site(v).legs, data[v]) for v in net.graph.vertices}
    return pl.PepsNetwork(net.graph, tensors)


def patch_value(net, site: int, matrix: np.ndarray, radius: int) -> float:
    """Patch estimate by one dense ``np.einsum`` over the patch interior.

    Interior sites lie at Chebyshev distance < ``radius`` from ``site``; every
    bond from the interior to the ring is closed by identifying its bra and
    ket index (the 1/dim weights cancel in the ratio). The neighbours of an
    interior site are interior or ring sites, so every leg gets an index.
    """
    cols = net.graph.cols
    r0, c0 = divmod(site, cols)
    inside = sorted(v for v in net.graph.vertices
                    if max(abs(v // cols - r0), abs(v % cols - c0)) < radius)
    ids = itertools.count()
    bra: dict[str, int] = {}
    ket: dict[str, int] = {}
    for e in net.graph.edges:
        if e.u in inside and e.v in inside:
            bra[e.id], ket[e.id] = next(ids), next(ids)
        elif e.u in inside or e.v in inside:
            bra[e.id] = ket[e.id] = next(ids)

    bond_ids = next(ids)

    def contract(with_operator: bool) -> complex:
        ids = itertools.count(bond_ids)
        operands: list = []
        for v in inside:
            t = net.site(v)
            virt = [label for label in t.labels if label != "phys"]
            p_bra = next(ids)
            p_ket = next(ids) if (with_operator and v == site) else p_bra
            operands += [np.conj(t.data), [bra[label] for label in virt] + [p_bra]]
            operands += [t.data, [ket[label] for label in virt] + [p_ket]]
            if p_ket != p_bra:
                operands += [matrix, [p_bra, p_ket]]
        return complex(np.einsum(*operands, [], optimize="greedy"))

    return float((contract(True) / contract(False)).real)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _cli(*argv: str) -> dict:
    """Run one CLI command in process; its stdout document is the job output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pepslab.cli.main(list(argv))
    return {"code": code, "doc": json.loads(buf.getvalue()) if code == 0 else None}


def _cli_value(key: str):
    def value_of(out):
        if out["code"] != 0:
            raise ValueError(f"CLI exited with {out['code']}")
        return out["doc"][key]
    return value_of


def _check_cli_nev(out, ref) -> str | None:
    value = _cli_value("value")(out)
    want = "accept" if value >= 2 / 3 else "reject" if value <= 1 / 3 else "undetermined"
    if out["doc"]["decision"] != want:
        return f"CLI decision {out['doc']['decision']} for value {value}"
    return close_to("CLI nev", VALUE_TOL)(value, ref)


# ---------------------------------------------------------------------------
# grid: open-grid random PEPS, norm / nev / patch / CLI


def grid_jobs(seed: int, workdir: str) -> list[Job]:
    shapes = {"6x6": (6, 6, 2), "8x8": (8, 8, 2), "5x5d3": (5, 5, 3),
              "10x3": (10, 3, 2), "3x10": (3, 10, 2)}
    nets = {key: pl.random_network(r, c, bond_dim=d, delta=GRID_DELTA, seed=job_seed(seed, i))
            for i, (key, (r, c, d)) in enumerate(shapes.items())}
    site = {key: nets[key].graph.vertex_at(r // 2, c // 2) for key, (r, c, _) in shapes.items()}
    matrix = {key: unit_hermitian(nets[key].phys_dim(site[key]), job_seed(seed, 100 + i))
              for i, key in enumerate(("6x6", "8x8", "5x5d3"))}
    obs = {key: pl.observable_from_matrix((site[key],), m) for key, m in matrix.items()}
    # The top-right corner pair is the only nearest-neighbour pair of 6x6 D=2
    # whose deferred contraction fits the default guard under the default sweep.
    net6 = nets["6x6"]
    pair = (net6.graph.vertex_at(0, 5), net6.graph.vertex_at(1, 5))
    dims = tuple(net6.phys_dim(v) for v in pair)
    obs2 = pl.observable_from_matrix(pair, unit_hermitian(dims[0] * dims[1], job_seed(seed, 200)),
                                     dims=dims)
    iso = pl.isometric_network(6, 6, seed=job_seed(seed, 300))

    net_path = os.path.join(workdir, "grid6x6.json")
    obs_path = os.path.join(workdir, "obs6x6.json")
    _write_json(net_path, pl.network_to_json(net6))
    _write_json(obs_path, pepslab.network.observable_to_json(obs["6x6"]))

    nev_value = close_to("nev", VALUE_TOL, lambda out: out["value"])
    jobs: list[Job] = []
    for key in ("6x6", "8x8", "5x5d3"):
        jobs.append(Job(f"norm_{key}", "peps_norm",
                        lambda key=key: pl.peps_norm(nets[key]),
                        close_to("norm", VALUE_TOL),
                        lambda key=key: pl.peps_norm(nets[key], sweep="rows")))
        jobs.append(Job(f"nev_{key}", "nev_report",
                        lambda key=key: pl.nev_report(nets[key], obs[key]),
                        nev_value,
                        lambda key=key: pl.nev_report(nets[key], obs[key], sweep="rows")["value"]))
    jobs.append(Job("nev2_6x6", "nev_report", lambda: pl.nev_report(net6, obs2), nev_value,
                    lambda: pl.nev_report(gauged(net6, seed), obs2)["value"]))
    jobs.append(Job("norm_iso_6x6", "peps_norm", lambda: pl.peps_norm(iso),
                    close_to("isometric norm", ISOMETRIC_TOL), lambda: 1.0))
    jobs.append(Job("norm_10x3", "peps_norm", lambda: pl.peps_norm(nets["10x3"]),
                    close_to("norm", VALUE_TOL),
                    lambda: pl.peps_norm(nets["10x3"], sweep="rows"),
                    known_failure="GuardExceeded: the default cols sweep peaks at 4194304 entries"))
    jobs.append(Job("norm_3x10", "peps_norm", lambda: pl.peps_norm(nets["3x10"]),
                    close_to("norm", VALUE_TOL),
                    lambda: pl.peps_norm(gauged(nets["3x10"], seed))))
    for key in ("8x8", "5x5d3"):
        for radius in (1, 2):
            jobs.append(Job(
                f"patch_r{radius}_{key}", "patch_nev",
                lambda key=key, radius=radius: pl.patch_nev(nets[key], obs[key], radius),
                close_to("patch estimate", VALUE_TOL),
                lambda key=key, radius=radius: patch_value(nets[key], site[key], matrix[key],
                                                           radius)))
    jobs.append(Job("cli_nev_6x6", "cli_nev",
                    lambda: _cli("nev", "--network", net_path, "--observable", obs_path),
                    _check_cli_nev,
                    lambda: pl.nev_report(net6, obs["6x6"], sweep="rows")["value"]))
    jobs.append(Job("cli_norm_6x6", "cli_norm",
                    lambda: _cli("norm", "--network", net_path),
                    close_to("CLI norm", VALUE_TOL, _cli_value("norm")),
                    lambda: pl.peps_norm(net6, sweep="rows")))
    return jobs


# ---------------------------------------------------------------------------
# circuit: compiled brickwork circuits against the noisy simulator


CIRCUIT_SHAPES = ((6, 4), (6, 5), (6, 6), (6, 7), (6, 8), (8, 4), (8, 6), (8, 8))


def circuit_jobs(seed: int, workdir: str) -> list[Job]:
    jobs = []
    eta = pl.eta_from_delta(CIRCUIT_DELTA)
    for i, (width, depth) in enumerate(CIRCUIT_SHAPES):
        circuit = pl.random_circuit(width, depth, seed=job_seed(seed, i))
        copies = 2 + i % 2

        def run(circuit=circuit, copies=copies):
            compiled = pl.compile_circuit(circuit, CIRCUIT_DELTA)
            peps = [pl.peps_nev(compiled.network, pl.readout_observable(compiled, w, Z))
                    for w in range(circuit.width)]
            state = pl.run_noisy_circuit(circuit, eta, convention="virtual")
            sim = [pepslab.sim.expectation_value(state, Z, [w]).real / state.trace
                   for w in range(circuit.width)]
            post = pl.postselected_expectation(circuit, eta, copies, Z, convention="virtual")
            return {"peps": peps, "sim": sim, "post": post}

        jobs.append(Job(f"circuit_w{width}d{depth}", "circuit", run, check_circuit))
    return jobs


def check_circuit(out, _ref) -> str | None:
    worst = max(abs(a - b) for a, b in zip(out["peps"], out["sim"]))
    if not worst <= CIRCUIT_TOL:
        return f"PEPS readout and simulator differ by {worst:.3e}"
    post = out["post"]
    if not (abs(post["expectation"]) <= 1 + CIRCUIT_TOL
            and 0 < post["residual_trace"] <= 1 + CIRCUIT_TOL):
        return f"postselected result out of range: {post}"
    return None


# ---------------------------------------------------------------------------
# spectrum: parent Hamiltonians on both sides of the dense cutoff


# The median job of this mix is a 1x7 Lanczos run, whose time depends on the
# instance and on the solver's random start vector; three instances per pass
# keep the run's median latency steady.
SPECTRUM_SHAPES = ((2, 2), (1, 5), (1, 6), (1, 7), (1, 7), (1, 7), (2, 3))


def spectrum_jobs(seed: int, workdir: str) -> list[Job]:
    jobs = []
    cutoff = pepslab.hamiltonian.DENSE_EIG_CUTOFF
    for i, (rows, cols) in enumerate(SPECTRUM_SHAPES):
        net = pl.random_network(rows, cols, delta=SPECTRUM_DELTA, seed=job_seed(seed, i))
        dim = int(np.prod([net.phys_dim(v) for v in net.graph.vertices]))
        kind = "spectrum_dense" if dim <= cutoff else "spectrum_lanczos"

        def run(net=net):
            return pl.spectrum_report(pl.parent_hamiltonian(net), net, k=4)

        jobs.append(Job(f"spectrum_{rows}x{cols}", kind, run, check_spectrum))
    return jobs


def check_spectrum(rep, _ref) -> str | None:
    e0 = rep.eigenvalues[0]
    if abs(e0) > GROUND_ENERGY_TOL * rep.max_term_norm:
        return f"ground energy {e0:.3e} is not zero"
    if rep.degeneracy != 1:
        return f"ground degeneracy {rep.degeneracy}"
    if not rep.overlap >= 1 - OVERLAP_TOL:
        return f"ground-state overlap {rep.overlap!r}"
    return None


# ---------------------------------------------------------------------------
# tiling: torus tiling counts by norm, enumeration and extrapolation


def transfer_count(tiles, rows: int, cols: int) -> int:
    """Exact torus tiling count as trace(T**rows) over periodic row states.

    Every entry of every power of T counts partial tilings, so it is an
    integer no larger than the number of assignments; below 2**53 the float
    products are exact.
    """
    t = len(tiles)
    if t ** (rows * cols) >= 1 << 53:
        raise ValueError("count may exceed exact float range")
    states = [s for s in itertools.product(range(t), repeat=cols)
              if all(tiles[s[i]][2] == tiles[s[(i + 1) % cols]][0] for i in range(cols))]
    if not states:
        return 0
    top = np.array([[tiles[x][1] for x in s] for s in states])
    bottom = np.array([[tiles[x][3] for x in s] for s in states])
    transfer = np.all(bottom[:, None, :] == top[None, :, :], axis=2).astype(np.float64)
    return int(round(np.trace(np.linalg.matrix_power(transfer, rows))))


def random_tileset(seed: int, count: int = 5, colors: int = 2):
    rng = np.random.default_rng(seed)
    tiles: set = set()
    while len(tiles) < count:
        tiles.add(tuple(int(x) for x in rng.integers(0, colors, 4)))
    return pl.WangTileSet(colors, tuple(sorted(tiles)))


def tiling_jobs(seed: int, workdir: str) -> list[Job]:
    sets = {"readme": pl.WangTileSet(2, README_TILES)}
    for i in range(2):
        sets[f"rand{i}"] = random_tileset(job_seed(seed, i))
    jobs = []
    for key, ts in sets.items():
        for rows, cols in ((3, 3), (2, 4), (3, 5), (4, 4)):
            jobs.append(Job(
                f"norm_{key}_{rows}x{cols}", "count_via_norm",
                lambda ts=ts, rows=rows, cols=cols: pl.tiling_count_via_norm(ts, rows, cols),
                check_count,
                lambda ts=ts, rows=rows, cols=cols: transfer_count(ts.tiles, rows, cols)))
        for rows, cols in ((3, 3), (2, 4)):
            jobs.append(Job(
                f"exhaustive_{key}_{rows}x{cols}", "count_exhaustive",
                lambda ts=ts, rows=rows, cols=cols: pl.count_tilings_exhaustive(ts, rows, cols),
                check_count,
                lambda ts=ts, rows=rows, cols=cols: transfer_count(ts.tiles, rows, cols)))
    readme = sets["readme"]
    for rows, cols in ((2, 2), (2, 3), (3, 3)):
        jobs.append(Job(
            f"extrapolate_readme_{rows}x{cols}", "extrapolate",
            lambda rows=rows, cols=cols: pl.extrapolate_norm_to_zero(readme, rows, cols),
            check_count,
            lambda rows=rows, cols=cols: transfer_count(readme.tiles, rows, cols),
            known_failure=("count 912 where the exact count is 6 (amplification 5e15)"
                           if (rows, cols) == (3, 3) else None)))
    return jobs


def check_count(out, ref) -> str | None:
    got = out if isinstance(out, int) else out["count"]
    return None if got == ref else f"count {got} != transfer-matrix count {ref}"


BUILDERS = {"grid": grid_jobs, "circuit": circuit_jobs,
            "spectrum": spectrum_jobs, "tiling": tiling_jobs}


def build(workload: str, seed: int, workdir: str, input_set: int = 0) -> list[Job]:
    """Jobs of ``workload``; ``input_set`` numbers the draws of a run (below 100)."""
    return BUILDERS[workload](seed * 100 + input_set, workdir)


def first_of_each_kind(jobs: list[Job]) -> list[Job]:
    """The warm-up set, which is also the smoke-mode job list."""
    first: dict[str, Job] = {}
    for job in jobs:
        first.setdefault(job.kind, job)
    return list(first.values())
