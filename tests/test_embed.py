"""Circuit cells as network sites: spectra, channels, compilation."""

import numpy as np
import pytest

import pepslab as pl
from pepslab import embed, sim
from pepslab import tensor as tz
from pepslab.channels import depolarize, kraus_orthonormal_completion
from pepslab.circuits import Circuit, Gate, cell_wires
from pepslab.embed import (
    build_site_tensor,
    cell_kraus,
    compile_circuit,
    effective_channel,
    eta_from_delta,
    readout_observable,
)
from pepslab.sim import expectation_value, run_noisy_circuit

from oracles import compiled_sites_cell_by_cell

Z = np.diag([1.0, -1.0]).astype(complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def one_cell(*gates):
    return Circuit(2, 1, gates).cell(0, 0)


CELLS = {
    "identity": one_cell(),
    "unitary-pair": one_cell(Gate("unitary", 0, 0, H), Gate("unitary", 0, 1, random_unitary(2, 1))),
    "entangling": one_cell(Gate("unitary2", 0, 0, random_unitary(4, 2))),
    "reset-reset": one_cell(Gate("reset", 0, 0), Gate("reset", 0, 1)),
    "reset-idle": one_cell(Gate("reset", 0, 0)),
    "project-idle": one_cell(Gate("project0", 0, 0)),
    "project-unitary": one_cell(Gate("project0", 0, 0), Gate("unitary", 0, 1, H)),
}


def test_eta_from_delta_values():
    assert eta_from_delta(0.0) == 0.0
    assert eta_from_delta(1.0) == pytest.approx(1.0)
    assert eta_from_delta(0.5) == pytest.approx(4 * 0.25 / 1.75)
    grid = np.linspace(0, 1, 21)
    vals = [eta_from_delta(d) for d in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("name", sorted(CELLS))
@pytest.mark.parametrize("delta", [0.3, 0.7])
def test_site_tensor_spectrum_is_two_valued(name, delta):
    kraus = cell_kraus(CELLS[name])
    t = build_site_tensor(kraus, delta)
    sv = tz.singular_values(t, ["phys"], ["in0", "in1", "out0", "out1"]).values
    m1 = len(kraus)
    want = np.array([1.0] * m1 + [delta] * (16 - m1))
    np.testing.assert_allclose(sv, want, atol=1e-12)
    assert tz.condition_number(t, ["phys"], ["in0", "in1", "out0", "out1"]) == pytest.approx(
        1 / delta
    )


def test_cell_kraus_counts():
    assert len(cell_kraus(CELLS["identity"])) == 1
    assert len(cell_kraus(CELLS["unitary-pair"])) == 1
    assert len(cell_kraus(CELLS["entangling"])) == 1
    assert len(cell_kraus(CELLS["reset-reset"])) == 4
    assert len(cell_kraus(CELLS["reset-idle"])) == 2
    assert len(cell_kraus(CELLS["project-idle"])) == 1


def test_cell_kraus_order_first_wire_most_significant():
    v = random_unitary(2, 5)
    k = cell_kraus(one_cell(Gate("unitary", 0, 0, v)))
    np.testing.assert_allclose(k[0], np.kron(v, np.eye(2)), atol=1e-14)
    k = cell_kraus(one_cell(Gate("unitary", 0, 1, v)))
    np.testing.assert_allclose(k[0], np.kron(np.eye(2), v), atol=1e-14)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_effective_channel_is_depolarized_cell_channel(name):
    delta = 0.35
    cell = CELLS[name]
    t = build_site_tensor(cell_kraus(cell), delta)
    got = effective_channel(t).choi()
    base = pl.QuantumChannel(4, tuple(cell_kraus(cell))).hs_normalized()
    want = (1 + 3 * delta**2) * depolarize(base, eta_from_delta(delta)).choi()
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_effective_channel_at_delta_one_is_fully_mixing():
    cell = CELLS["entangling"]
    rho = np.eye(4, dtype=complex) / 4 + 0.1 * np.diag([1, -1, 1, -1]).astype(complex)
    t1 = build_site_tensor(cell_kraus(cell), 1.0)
    np.testing.assert_allclose(
        effective_channel(t1).apply(rho), np.trace(rho) * np.eye(4), atol=1e-12
    )


def test_build_site_tensor_rejects_degenerate_delta():
    kraus = cell_kraus(CELLS["identity"])
    with pytest.raises(ValueError):
        build_site_tensor(kraus, 0.0)
    with pytest.raises(ValueError):
        build_site_tensor(kraus, 1.2)


def test_compile_layout():
    circuit = Circuit(4, 3, (Gate("unitary2", 1, 1, CNOT),))
    comp = compile_circuit(circuit, 0.4)
    assert comp.rows == 4
    assert comp.cells_per_row == 2
    g = comp.network.graph
    assert len(g.vertices) == 8
    ids = {e.id for e in g.edges}
    assert ids == {f"w{t}.{w}" for t in range(3) for w in range(4)}
    assert all(e.dim == 2 for e in g.edges)
    assert all(comp.network.phys_dim(v) == 16 for v in g.vertices)
    assert comp.vertex(0, 1) == 1
    assert comp.vertex(3, 0) == 6


@pytest.mark.parametrize("delta", [0.15, 0.5])
def test_compiled_network_injectivity_floor(delta):
    circuit = pl.random_circuit(4, 2, seed=6)
    comp = compile_circuit(circuit, delta)
    assert pl.peps_injectivity(comp.network) == pytest.approx(delta, abs=1e-12)
    for v in comp.network.graph.vertices:
        assert pl.site_injectivity(comp.network, v) >= delta - 1e-12


def test_reset_row_sites_are_isometries():
    comp = compile_circuit(pl.random_circuit(4, 2, seed=8), 0.3)
    top = comp.rows - 1
    for s in range(comp.cells_per_row):
        v = comp.vertex(top, s)
        t = comp.network.site(v)
        virt = comp.network.virtual_labels(v)
        m = tz.matrix_view(t, ["phys"], virt)
        np.testing.assert_allclose(m.conj().T @ m, np.eye(4), atol=1e-12)
        assert pl.site_injectivity(comp.network, v) == pytest.approx(1.0, abs=1e-12)


def test_readout_observable_embeds_in_the_transparent_block():
    comp = compile_circuit(Circuit(4, 2), 0.3)
    obs = readout_observable(comp, 2, Z)
    top = comp.rows - 1
    assert obs.support == (comp.vertex(top, 1),)  # wire 2 sits in cell 1
    m = obs.matrix()
    assert m.shape == (16, 16)
    np.testing.assert_allclose(m[:4, :4], np.kron(Z, np.eye(2)), atol=1e-14)
    rest = m.copy()
    rest[:4, :4] = 0
    assert np.abs(rest).max() == 0


def test_compiled_expectation_matches_simulator():
    # layer 1 of a width-2 circuit pairs (1, 0), so the 2q gate sits on wire 1
    circuit = Circuit(
        2, 2, (Gate("unitary", 0, 0, H), Gate("unitary2", 1, 1, CNOT))
    )
    delta = 0.2
    comp = compile_circuit(circuit, delta)
    state = run_noisy_circuit(circuit, eta_from_delta(delta), convention="virtual")
    for wire in (0, 1):
        want = expectation_value(state, Z, [wire]).real / state.trace
        got = pl.peps_nev(comp.network, readout_observable(comp, wire, Z))
        assert got == pytest.approx(want, abs=1e-12)


P0 = np.diag([1.0, 0.0]).astype(complex)
R01 = np.array([[0, 1], [0, 0]], dtype=complex)


@pytest.mark.parametrize(
    "circuit",
    [
        pl.random_circuit(4, 3, seed=9, p_reset=0.3, p_project=0.3),
        pl.random_circuit(6, 4, seed=3),
        pl.random_circuit(2, 2, seed=4, p_two=0.0, p_reset=0.4, p_project=0.4),
    ],
)
def test_compiled_sites_match_a_cell_by_cell_reference(circuit):
    delta = 0.3
    comp = compile_circuit(circuit, delta)
    ncells = comp.cells_per_row
    families = [cell_kraus(circuit.cell(t, s)) for t in range(circuit.depth) for s in range(ncells)]
    families += [[np.kron(a, b) for a in (P0, R01) for b in (P0, R01)]] * ncells
    want = compiled_sites_cell_by_cell(families, delta, kraus_orthonormal_completion, ncells)
    for v, arr in enumerate(want):
        t, s = divmod(v, ncells)
        a, b = cell_wires(circuit.width, t, s)
        legs = [f"w{t - 1}.{a}", f"w{t - 1}.{b}"] if t > 0 else []
        legs += [f"w{t}.{a}", f"w{t}.{b}"] if t < comp.rows - 1 else []
        got = tz.permute_legs(comp.network.site(v), legs + ["phys"]).data
        np.testing.assert_allclose(got, arr, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(got == 0, arr == 0)


def test_readout_observable_refuses_wires_outside_the_circuit():
    comp = compile_circuit(pl.random_circuit(4, 2, seed=0), 0.3)
    for wire in (-1, 4, 7):
        with pytest.raises(ValueError, match="out of range"):
            readout_observable(comp, wire, Z)
    readout_observable(comp, 3, Z)


def test_circuit_cells_are_prepared_in_one_batch(monkeypatch):
    # per-cell preparation must not creep back: one batched completion per
    # compile, one transfer-matrix stack per simulation
    calls = {"completion": 0, "transfer": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(embed, "orthonormal_completions",
                        counted("completion", embed.orthonormal_completions))
    monkeypatch.setattr(sim, "_transfer_matrices", counted("transfer", sim._transfer_matrices))
    circuit = pl.random_circuit(8, 5, seed=2)
    compile_circuit(circuit, 0.3)
    assert calls["completion"] == 1
    run_noisy_circuit(circuit, 0.2, convention="virtual")
    assert calls["transfer"] == 1
