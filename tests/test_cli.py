"""Command line behavior, exercised in process through cli.main."""

import json

import numpy as np
import pytest

import pepslab as pl
from pepslab import contraction, hamiltonian
from pepslab.circuits import Circuit, Gate, save_circuit
from pepslab.cli import main
from pepslab.network import network_to_json, observable_to_json
from pepslab.sim import expectation_value, postselected_expectation, run_noisy_circuit
from pepslab.tiling import WangTileSet, count_tilings_exhaustive, tileset_to_json

from oracles import dense_nev, random_hermitian, random_tileset

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
Z = np.diag([1.0, -1.0]).astype(np.complex128)


def run_json(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0, err
    return json.loads(out)


def write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def demo_circuit():
    # layer 1 pairs wires as (1, 0), so the two-qubit gate sits on wire 1
    return Circuit(2, 2, (Gate("unitary", 0, 0, H), Gate("unitary2", 1, 1, CNOT)))


def test_norm_matches_library_call(capsys):
    out = run_json(capsys, "norm", "--random", "2x3", "--delta", "0.8", "--seed", "3")
    net = pl.random_network(2, 3, bond_dim=2, delta=0.8, seed=3)
    assert out["norm"] == pytest.approx(pl.peps_norm(net), rel=1e-12)


def test_emit_network_reproduces_the_run(capsys, tmp_path):
    saved = tmp_path / "net.json"
    first = run_json(
        capsys, "norm", "--random", "2x2", "--seed", "5", "--emit-network", str(saved)
    )
    again = run_json(capsys, "norm", "--network", str(saved))
    assert again["norm"] == first["norm"]


def test_inject_reports_generated_injectivity(capsys):
    out = run_json(capsys, "inject", "--random", "2x2", "--delta", "0.6", "--seed", "1")
    assert out["injectivity"] == pytest.approx(0.6, abs=1e-12)
    assert set(out["sites"]) == {"0", "1", "2", "3"}
    assert min(out["sites"].values()) == pytest.approx(out["injectivity"])


def test_normalize_sigma1_flag(capsys):
    plain = run_json(capsys, "inject", "--random", "2x2", "--seed", "1")
    scaled = run_json(
        capsys, "inject", "--random", "2x2", "--seed", "1", "--normalize-sigma1"
    )
    # injectivity is scale free
    assert scaled["injectivity"] == pytest.approx(plain["injectivity"], rel=1e-12)


def test_nev_with_observable_file(capsys, tmp_path):
    net = pl.random_network(2, 2, seed=15)
    obs = pl.observable_from_matrix((0,), 0.8 * np.eye(net.phys_dim(0)))
    netf = write_json(tmp_path / "net.json", network_to_json(net))
    obsf = write_json(tmp_path / "obs.json", observable_to_json(obs))
    out = run_json(capsys, "nev", "--network", netf, "--observable", obsf)
    assert set(out) == {"value", "imag_residue", "norm", "decision"}
    assert out["value"] == pytest.approx(0.8, abs=1e-12)
    assert out["decision"] == "accept"


def test_nev_on_a_long_grid_runs_the_sweep_that_fits(capsys, tmp_path):
    # the cols sweep of a 10x3 D=2 grid peaks at 4**11 entries, rows at 4**4
    net = pl.random_network(10, 3, bond_dim=2, delta=0.9, seed=17)
    site = net.graph.vertex_at(5, 1)
    obs = pl.observable_from_matrix((site,), random_hermitian(net.phys_dim(site), 8))
    netf = write_json(tmp_path / "net.json", network_to_json(net))
    obsf = write_json(tmp_path / "obs.json", observable_to_json(obs))
    out = run_json(capsys, "nev", "--network", netf, "--observable", obsf)
    assert out["value"] == pytest.approx(pl.peps_nev(net, obs, sweep="rows"), abs=1e-12)
    value = out["value"]
    want = "accept" if value >= 2 / 3 else "reject" if value <= 1 / 3 else "undetermined"
    assert out["decision"] == want


def test_norm_on_a_long_random_grid(capsys):
    out = run_json(capsys, "norm", "--random", "10x3")
    assert out["norm"] == pytest.approx(
        pl.peps_norm(pl.random_network(10, 3), sweep="rows"), rel=1e-12
    )


@pytest.mark.parametrize("support", [(4,), (0, 5)])
def test_nev_builds_each_double_layer_once(capsys, tmp_path, monkeypatch, support):
    net = pl.random_network(3, 3, phys_dim=2, seed=22)
    obs = pl.observable_from_matrix(support, random_hermitian(2 ** len(support), 4),
                                    dims=(2,) * len(support))
    netf = write_json(tmp_path / "net.json", network_to_json(net))
    obsf = write_json(tmp_path / "obs.json", observable_to_json(obs))
    built = []
    real = contraction.double_layer
    monkeypatch.setattr(contraction, "double_layer",
                        lambda *args, **kwargs: built.append(args[1]) or real(*args, **kwargs))
    value = pl.nev_report(net, obs)["value"]
    assert len(built) == 9 + len(support)
    assert value == pytest.approx(dense_nev(net, support, obs.matrix()), abs=1e-11)
    built.clear()
    out = run_json(capsys, "nev", "--network", netf, "--observable", obsf)
    assert len(built) == 9 + len(support)
    assert out["value"] == value


def test_nev_answers_an_interior_pair(capsys, tmp_path):
    # Z x Z on (2,2)-(2,3) of a 6x6 grid, refused with exit 2 while support
    # sites kept open physical legs (2**30 entries)
    net = pl.random_network(6, 6, delta=0.8, seed=0)
    z = np.kron(np.eye(8), Z)  # Z on one qubit of each 16-dim site
    obs = pl.observable_from_matrix((14, 15), np.kron(z, z), dims=(16, 16))
    netf = write_json(tmp_path / "net.json", network_to_json(net))
    obsf = write_json(tmp_path / "obs.json", observable_to_json(obs))
    out = run_json(capsys, "nev", "--network", netf, "--observable", obsf)
    assert out["value"] == pytest.approx(pl.peps_nev(net, obs, sweep="rows"), abs=1e-11)


def test_patch_nev_command(capsys, tmp_path):
    net = pl.random_network(4, 4, delta=0.9, seed=16)
    center = net.graph.vertex_at(1, 1)
    m = random_hermitian(net.phys_dim(center), 7)
    obs = pl.observable_from_matrix((center,), m)
    netf = write_json(tmp_path / "net.json", network_to_json(net))
    obsf = write_json(tmp_path / "obs.json", observable_to_json(obs))
    out = run_json(
        capsys, "patch-nev", "--network", netf, "--observable", obsf, "--radius", "1"
    )
    assert out["radius"] == 1
    assert out["value"] == pytest.approx(pl.patch_nev(net, obs, 1), rel=1e-12)


def test_parent_ham_report(capsys):
    out = run_json(
        capsys, "parent-ham", "--random", "2x2", "--delta", "0.7", "--seed", "2",
        "--eigenvalues", "4",
    )
    assert out["terms"] == 4
    assert out["dimension"] == 256
    assert out["solver"] == "dense"
    assert out["degeneracy"] == 1
    assert out["overlap"] >= 1 - 1e-8
    assert out["eigenvalues"][0] == pytest.approx(0.0, abs=1e-9)
    assert out["gap"] > 0


@pytest.mark.parametrize("k", ["0", "-3"])
def test_parent_ham_refuses_fewer_than_one_eigenvalue(capsys, k):
    code = main(["parent-ham", "--random", "2x2", "--eigenvalues", k])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert f"k = {k}" in err


def test_parent_ham_past_the_matvec_budget_exits_with_the_guard_code(capsys, monkeypatch):
    monkeypatch.setattr(hamiltonian, "LANCZOS_MATVEC_BUDGET", 20)
    code = main(["parent-ham", "--random", "1x6", "--delta", "0.6", "--eigenvalues", "4"])
    _, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("guard:") and "matvecs" in err


def test_compile_circuit_writes_loadable_network(capsys, tmp_path):
    circf = tmp_path / "circ.json"
    save_circuit(demo_circuit(), str(circf))
    netf = tmp_path / "net.json"
    out = run_json(
        capsys, "compile-circuit", "--circuit", str(circf), "--delta", "0.5",
        "--output", str(netf),
    )
    assert out["rows"] == 3
    assert out["cells_per_row"] == 1
    assert out["vertices"] == 3
    assert out["injectivity"] == pytest.approx(0.5, abs=1e-12)
    net = pl.network_from_json(json.loads(netf.read_text()))
    assert pl.peps_injectivity(net) == pytest.approx(out["injectivity"], rel=1e-12)


def test_sim_run_matches_library(capsys, tmp_path):
    circf = tmp_path / "circ.json"
    save_circuit(demo_circuit(), str(circf))
    out = run_json(
        capsys, "sim", "run", "--circuit", str(circf), "--eta", "0.1",
        "--wire", "1", "--pauli", "Z",
    )
    assert set(out) == {"expectation", "residual_trace"}
    state = run_noisy_circuit(demo_circuit(), 0.1, None, "raw")
    want = expectation_value(state, Z, [1]).real / state.trace
    assert out["expectation"] == pytest.approx(want, rel=1e-12)
    assert out["residual_trace"] == pytest.approx(state.trace, rel=1e-12)


def test_sim_run_with_copies(capsys, tmp_path):
    circf = tmp_path / "circ.json"
    save_circuit(demo_circuit(), str(circf))
    out = run_json(
        capsys, "sim", "run", "--circuit", str(circf), "--eta", "0.05",
        "--copies", "2", "--post-wire", "0", "--wire", "1",
    )
    want = postselected_expectation(
        demo_circuit(), 0.05, 2, Z, post_wire=0, out_wire=1
    )
    assert out["expectation"] == pytest.approx(want["expectation"], rel=1e-12)
    assert out["residual_trace"] == pytest.approx(want["residual_trace"], rel=1e-12)


def test_sim_observable_file_matches_pauli_flag(capsys, tmp_path):
    circf = tmp_path / "circ.json"
    save_circuit(demo_circuit(), str(circf))
    obsf = write_json(
        tmp_path / "x.json", {"matrix": [[0, 0], [1, 0], [1, 0], [0, 0]]}
    )
    by_name = run_json(
        capsys, "sim", "run", "--circuit", str(circf), "--eta", "0.2", "--pauli", "X"
    )
    by_file = run_json(
        capsys, "sim", "run", "--circuit", str(circf), "--eta", "0.2",
        "--observable", obsf,
    )
    assert by_file["expectation"] == pytest.approx(by_name["expectation"], rel=1e-12)


@pytest.mark.parametrize("copies", ["0", "2"])
@pytest.mark.parametrize("wire", ["-1", "4"])
def test_sim_run_rejects_a_wire_outside_the_circuit(capsys, tmp_path, wire, copies):
    circf = tmp_path / "circ.json"
    save_circuit(Circuit(4, 1), str(circf))
    code = main(["sim", "run", "--circuit", str(circf), "--eta", "0.1", "--wire", wire,
                 "--copies", copies])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_tile_count_with_enumeration_check(capsys, tmp_path):
    ts = pl.WangTileSet(2, ((0, 0, 0, 0), (1, 1, 1, 1)))
    tilef = write_json(tmp_path / "tiles.json", tileset_to_json(ts))
    out = run_json(
        capsys, "tile", "count", "--tiles", tilef, "--rows", "2", "--cols", "2",
        "--check",
    )
    assert out["count"] == 2
    assert out["exhaustive"] == 2
    assert out["residue"] < 1e-6


def test_tile_count_check_guard_exits_2(capsys, tmp_path):
    # the norm route counts this 3x3 board; the check's 11**3 row states do not fit
    tilef = write_json(tmp_path / "tiles.json", tileset_to_json(random_tileset(0, count=11)))
    code = main(["tile", "count", "--tiles", tilef, "--rows", "3", "--cols", "3"])
    assert code == 0
    capsys.readouterr()
    code = main(["tile", "count", "--tiles", tilef, "--rows", "3", "--cols", "3", "--check"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "row states" in err


def test_tile_count_extrapolated(capsys, tmp_path):
    ts = random_tileset(3)
    tilef = write_json(tmp_path / "tiles.json", tileset_to_json(ts))
    plain = run_json(
        capsys, "tile", "count", "--tiles", tilef, "--rows", "2", "--cols", "2"
    )
    extr = run_json(
        capsys, "tile", "count", "--tiles", tilef, "--rows", "2", "--cols", "2",
        "--extrapolate",
    )
    assert extr["count"] == plain["count"]
    assert extr["extrapolation"]["roundoff"] < 0.5


def test_tile_count_extrapolated_runs_its_check(capsys, tmp_path, monkeypatch):
    ts = random_tileset(3)
    tilef = write_json(tmp_path / "tiles.json", tileset_to_json(ts))
    argv = ["tile", "count", "--tiles", tilef, "--rows", "2", "--cols", "2",
            "--extrapolate", "--check"]
    out = run_json(capsys, *argv)
    assert out["exhaustive"] == out["count"] == count_tilings_exhaustive(ts, 2, 2)
    monkeypatch.setattr("pepslab.cli.count_tilings_exhaustive", lambda ts, rows, cols: -1)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "disagrees with transfer-matrix count -1" in err


@pytest.mark.parametrize("rows,cols", [(2, 4), (3, 3)])
def test_tile_count_extrapolation_that_roundoff_decides_exits_1(capsys, tmp_path, rows, cols):
    # README4: these boards printed -4 and 911 (exact 0 and 6) with exit 0
    readme4 = WangTileSet(2, ((0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0), (1, 1, 0, 1)))
    tilef = write_json(tmp_path / "tiles.json", tileset_to_json(readme4))
    code = main(["tile", "count", "--tiles", tilef, "--rows", str(rows), "--cols", str(cols),
                 "--extrapolate", "--check"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "roundoff" in err


def test_contraction_guard_exits_2_and_force_lifts_it(capsys):
    code = main(["norm", "--random", "3x3", "--bond-dim", "6", "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("guard:")
    forced = run_json(
        capsys, "norm", "--random", "3x3", "--bond-dim", "6", "--seed", "1", "--force"
    )
    assert forced["norm"] > 0


def test_a_chain_past_int64_dims_is_refused_by_the_dense_guard(capsys):
    # 2 * 4**32 * 2 = 2**66 states, which an int64 product wraps to 0
    ham = pl.parent_hamiltonian(pl.random_network(1, 34))
    assert ham.dim == 2 ** 66
    with pytest.raises(pl.GuardExceeded) as err:
        pl.spectrum_report(ham, k=2)
    assert err.value.required == 2 ** 66
    code = main(["parent-ham", "--random", "1x34", "--eigenvalues", "2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("guard:")


def test_tile_guard_exits_2(capsys, tmp_path):
    # every color on every side: each bond keeps all 4 of its (color, color)
    # pairs, so the 5x5 torus still peaks at 4**12 live boundary entries
    ts = WangTileSet(4, tuple((c, c, c, c) for c in range(4)))
    tilef = write_json(tmp_path / "tiles.json", tileset_to_json(ts))
    code = main(["tile", "count", "--tiles", tilef, "--rows", "5", "--cols", "5"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("guard:")


def test_tile_count_fits_once_dead_color_pairs_are_dropped(capsys, tmp_path):
    # with every (bra, ket) color pair kept this board would need 9**8 =
    # 43046721 boundary entries; the indicator's layers are diagonal in each pair
    ts = random_tileset(2, count=4, colors=3)
    tilef = write_json(tmp_path / "tiles.json", tileset_to_json(ts))
    doc = run_json(capsys, "tile", "count", "--tiles", tilef, "--rows", "3", "--cols", "4")
    assert doc["count"] == count_tilings_exhaustive(ts, 3, 4)


def test_tile_count_above_2_53_exits_1(capsys, tmp_path):
    # every two-color tile but (0,0,0,0) tiles the 6x6 torus about 6.03e20 times
    ts = WangTileSet(2, tuple(t for t in np.ndindex(2, 2, 2, 2) if t != (0, 0, 0, 0)))
    tilef = write_json(tmp_path / "tiles.json", tileset_to_json(ts))
    code = main(["tile", "count", "--tiles", tilef, "--rows", "6", "--cols", "6"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "2**53" in err


def _malformed(tmp_path, case):
    """Argv of a CLI call on a missing or malformed input file, and what its error names."""
    net = network_to_json(pl.random_network(1, 2, seed=0))
    listed = dict(net, tensors=list(net["tensors"].values()))
    net["graph"]["edges"][0] = [0, 1]
    circuit = pl.circuit_to_json(demo_circuit())
    circuit["gates"][0] = [1, 2]
    circuit_file = write_json(tmp_path / "bad_circuit.json", circuit)
    good_circuit = write_json(tmp_path / "circuit.json", pl.circuit_to_json(demo_circuit()))
    tiles = write_json(tmp_path / "tiles.json", tileset_to_json(WangTileSet(1, ((0, 0, 0, 0),))))
    return {
        "missing": (["norm", "--network", "/no/such/file.json"], "/no/such/file.json"),
        "directory": (["norm", "--network", str(tmp_path)], str(tmp_path)),
        "edge": (["norm", "--network", write_json(tmp_path / "net.json", net)], "[0, 1]"),
        "tensors": (["norm", "--network", write_json(tmp_path / "listed.json", listed)],
                    "'tensors'"),
        "gate-compile": (["compile-circuit", "--circuit", circuit_file, "--delta", "0.5"],
                         "[1, 2]"),
        "gate-sim": (["sim", "run", "--circuit", circuit_file, "--eta", "0.1"], "[1, 2]"),
        "observable": (["sim", "run", "--circuit", good_circuit, "--eta", "0.1", "--observable",
                        write_json(tmp_path / "obs.json", {"matrix": [1, 2, 3, 4]})],
                       "[1, 2, 3, 4]"),
        "extrapolate": (["tile", "count", "--tiles", tiles, "--rows", "-2", "--cols", "3",
                         "--extrapolate"], "rows=-2"),
    }[case]


@pytest.mark.parametrize("case", ["missing", "directory", "edge", "tensors", "gate-compile",
                                  "gate-sim", "observable", "extrapolate"])
def test_missing_file_exits_1(capsys, tmp_path, case):
    # one error line, no traceback, and nothing on stdout
    argv, named = _malformed(tmp_path, case)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert named in err


def test_bad_random_spec_exits_1(capsys):
    code = main(["norm", "--random", "3by3"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "ROWSxCOLS" in err


def test_missing_source_exits_1(capsys):
    code = main(["norm"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "--network" in err
