"""Command line behavior, exercised in process through cli.main."""

import json

import numpy as np
import pytest

import pepslab as pl
from pepslab.circuits import Circuit, Gate, save_circuit
from pepslab.cli import main
from pepslab.network import network_to_json, observable_to_json
from pepslab.sim import expectation_value, postselected_expectation, run_noisy_circuit
from pepslab.tiling import tileset_to_json

from oracles import random_hermitian, random_tileset

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


def test_norm_sweep_directions_agree(capsys):
    a = run_json(capsys, "norm", "--random", "3x2", "--seed", "4")
    b = run_json(capsys, "norm", "--random", "3x2", "--seed", "4", "--sweep", "rows")
    assert a["norm"] == pytest.approx(b["norm"], rel=1e-12)


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
    assert extr["extrapolation"]["held_out_residual"] < 1e-6


def test_contraction_guard_exits_2_and_force_lifts_it(capsys):
    code = main(["norm", "--random", "3x3", "--bond-dim", "6", "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("guard:")
    forced = run_json(
        capsys, "norm", "--random", "3x3", "--bond-dim", "6", "--seed", "1", "--force"
    )
    assert forced["norm"] > 0


def test_tile_guard_exits_2(capsys, tmp_path):
    ts = random_tileset(2, count=4, colors=3)
    tilef = write_json(tmp_path / "tiles.json", tileset_to_json(ts))
    code = main(["tile", "count", "--tiles", tilef, "--rows", "3", "--cols", "4"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("guard:")


def test_missing_file_exits_1(capsys):
    code = main(["norm", "--network", "/no/such/file.json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("error:")


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
