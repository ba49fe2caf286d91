"""Dense density-matrix simulator with cell-level depolarizing noise."""

import itertools
import tracemalloc

import numpy as np
import pytest

from pepslab.channels import unitary_channel
from pepslab.circuits import Circuit, Gate, random_circuit
from pepslab.embed import cell_kraus
from pepslab.sim import (
    DensityState,
    _basis_change,
    _superoperators,
    _transfer_matrices,
    apply_noisy_cell,
    apply_unitary,
    basis_state,
    expectation_value,
    extend_with_zeros,
    noisy_projection,
    partial_trace,
    postselected_expectation,
    projection_error_coeffs,
    run_noisy_circuit,
)
from pepslab.errors import GuardExceeded

from oracles import full_space_operator, noisy_map, postselect_one_ancilla_at_a_time

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(wires, seed):
    rng = np.random.default_rng(seed)
    d = 2**wires
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return DensityState(wires, rho / np.trace(rho))


def test_basis_state_layout():
    s = basis_state("01")
    assert s.wires == 2
    want = np.zeros((4, 4), dtype=complex)
    want[1, 1] = 1.0  # first character is the most significant wire
    np.testing.assert_allclose(s.rho, want, atol=0)
    assert s.trace == pytest.approx(1.0)


def test_density_state_validation():
    with pytest.raises(ValueError):
        DensityState(1, np.array([[0.0, 1.0], [0.0, 0.0]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityState(2, np.eye(3))  # wrong dimension


def test_expectation_value_oracle():
    s = random_state(3, 1)
    m = random_unitary(2, 2)
    m = m + m.conj().T
    got = expectation_value(s, m, [1])
    full = np.kron(np.kron(np.eye(2), m), np.eye(2))
    assert got == pytest.approx(np.trace(full @ s.rho))


def test_apply_unitary_on_chosen_wires():
    s = basis_state("00")
    s = apply_unitary(s, X, [1])
    np.testing.assert_allclose(s.rho, basis_state("01").rho, atol=1e-14)
    s = apply_unitary(s, CNOT, [1, 0])  # control wire 1, target wire 0
    np.testing.assert_allclose(s.rho, basis_state("11").rho, atol=1e-14)


def test_partial_trace_oracle():
    s = random_state(3, 3)
    got = partial_trace(s, [1])
    r = s.rho.reshape(2, 2, 2, 2, 2, 2)
    want = np.einsum("aibcid->abcd", r).reshape(4, 4)
    np.testing.assert_allclose(got.rho, want, atol=1e-13)
    assert got.wires == 2
    assert got.trace == pytest.approx(s.trace)


def test_extend_with_zeros_appends_fresh_wires():
    s = random_state(2, 4)
    big = extend_with_zeros(s, 1)
    assert big.wires == 3
    m = random_unitary(2, 5)
    m = m + m.conj().T
    assert expectation_value(big, m, [0]) == pytest.approx(expectation_value(s, m, [0]))
    assert expectation_value(big, Z, [2]).real == pytest.approx(big.trace.real)


def test_noiseless_run_of_identity_circuit_is_exact():
    state = run_noisy_circuit(Circuit(2, 3), 0.0, input_bits="10")
    np.testing.assert_allclose(state.rho, basis_state("10").rho, atol=1e-14)


def test_unitary_only_run_preserves_purity_at_zero_eta():
    c = random_circuit(4, 3, seed=2, p_reset=0.0, p_project=0.0)
    state = run_noisy_circuit(c, 0.0)
    assert np.trace(state.rho @ state.rho).real == pytest.approx(1.0, abs=1e-12)


def test_raw_run_preserves_trace_without_projections():
    c = random_circuit(4, 3, seed=5, p_project=0.0)
    state = run_noisy_circuit(c, 0.37)
    assert state.trace == pytest.approx(1.0, abs=1e-12)


def test_projection_shrinks_trace():
    c = Circuit(2, 1, (Gate("unitary", 0, 0, H),))
    c2 = Circuit(2, 2, (Gate("unitary", 0, 0, H), Gate("project0", 1, 0)))
    state = run_noisy_circuit(c2, 0.0)
    assert state.trace == pytest.approx(0.5, abs=1e-12)
    del c


def test_noisy_cell_depolarizing_law():
    eta = 0.23
    u = random_unitary(4, 6)
    s = random_state(3, 7)
    got = apply_noisy_cell(s, [u], (0, 1), eta)
    coherent = apply_unitary(s, u, (0, 1)).rho
    marginal = partial_trace(s, [0, 1]).rho  # remaining wire 2
    mixed = np.kron(np.eye(4) / 4, marginal)
    np.testing.assert_allclose(got.rho, (1 - eta) * coherent + eta * mixed, atol=1e-13)


P0 = np.diag([1.0, 0.0]).astype(complex)
R01 = np.array([[0, 1], [0, 0]], dtype=complex)
RESET_RESET = [np.kron(a, b) for a in (P0, R01) for b in (P0, R01)]


@pytest.mark.parametrize("eta", [0.0, 0.3])
@pytest.mark.parametrize("wires", [(2, 0), (1, 3)])
@pytest.mark.parametrize("cell", ["reset-reset", "haar"])
def test_noisy_cell_matches_kron_oracle(cell, wires, eta):
    kraus = RESET_RESET if cell == "reset-reset" else [random_unitary(4, 9)]
    s = random_state(4, 10)
    got = apply_noisy_cell(s, kraus, wires, eta)
    want = noisy_map(s.rho, kraus, wires, 4, eta)
    np.testing.assert_allclose(got.rho, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("eta", [0.0, 0.3])
def test_noisy_projection_matches_kron_oracle(eta):
    s = random_state(4, 11)
    got = noisy_projection(s, 3, eta)
    np.testing.assert_allclose(got.rho, noisy_map(s.rho, [P0], [3], 4, eta), rtol=0, atol=1e-13)


def test_run_matches_manual_cell_composition():
    # the batched run against apply_noisy_cell, one cell at a time
    eta = 0.29
    circuits = (
        random_circuit(4, 2, seed=8),
        random_circuit(6, 5, seed=25, p_project=0.3),  # odd steps hold the wrap cell (5, 0)
        random_circuit(8, 4, seed=26),
        Circuit(2, 2, (Gate("unitary", 0, 0, H), Gate("unitary2", 1, 1, CNOT))),  # CNOT on (1, 0)
    )
    for circuit, convention in itertools.product(circuits, ("raw", "virtual")):
        got = run_noisy_circuit(circuit, eta, convention=convention)
        state = basis_state("0" * circuit.width)
        for t in range(circuit.depth):
            for cell in circuit.cells(t):
                kraus = cell_kraus(cell)
                if convention == "virtual":
                    kraus = [k / np.linalg.norm(k) for k in kraus]
                state = apply_noisy_cell(state, kraus, cell.wires, eta)
        assert np.abs(got._coeffs - state._coeffs).max() <= 1e-14 * state.trace


def test_virtual_convention_trace_scalar():
    # identity cells carry HS-normalized Kraus, so each one scales the
    # trace by (1 + 3 eta) / 4 in the virtual convention
    eta = 0.4
    state = run_noisy_circuit(Circuit(2, 3), eta, convention="virtual")
    assert state.trace == pytest.approx(((1 + 3 * eta) / 4) ** 3, abs=1e-12)


def test_noisy_projection_ignores_the_partner_state():
    eta = 0.3
    psi = H @ np.array([1.0, 0.0])
    rho_w = np.outer(psi, psi.conj())
    for seed in (1, 2):
        partner = random_state(1, seed).rho
        s = DensityState(2, np.kron(rho_w, partner))
        out = noisy_projection(s, 0, eta)
        keep = partial_trace(out, [1])
        if seed == 1:
            first = keep.rho.copy()
        else:
            np.testing.assert_allclose(keep.rho, first, atol=1e-13)


def test_projection_error_coeffs_identity_gate():
    eta = 0.07
    e0, e1, e01 = projection_error_coeffs(None, eta)
    assert e0 == pytest.approx(0.0, abs=1e-14)
    assert e1 == pytest.approx(eta, abs=1e-14)
    assert abs(e01) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_projection_error_coeffs_against_simulator(seed):
    eta = 0.21
    v = random_unitary(2, seed)
    e0, e1, e01 = projection_error_coeffs(unitary_channel(v), eta)

    def kept_weight(psi):
        rho = np.outer(psi, psi.conj())
        s = DensityState(2, np.kron(rho, np.eye(2) / 2))
        return noisy_projection(s, 0, eta).trace.real

    w0 = kept_weight(v @ np.array([1.0, 0.0]))
    w1 = kept_weight(v @ np.array([0.0, 1.0]))
    assert w0 == pytest.approx(1 - e0, abs=1e-12)
    assert w1 == pytest.approx(e1, abs=1e-12)
    wp = kept_weight(v @ (np.array([1.0, 1.0]) / np.sqrt(2)))
    wi = kept_weight(v @ (np.array([1.0, 1.0j]) / np.sqrt(2)))
    mid = (w0 + w1) / 2
    assert abs(wp - mid) == pytest.approx(abs(e01.real), abs=1e-12)
    assert abs(wi - mid) == pytest.approx(abs(e01.imag), abs=1e-12)
    # kept weights form a PSD quadratic form in (alpha, beta)
    assert abs(e01) ** 2 <= (1 - e0) * e1 + 1e-12


def bell_body():
    state = basis_state("000")
    state = apply_unitary(state, H, [0])
    return apply_unitary(state, CNOT, [0, 1])


def test_postselection_keeps_the_zero_branch():
    out = postselected_expectation(bell_body(), 0.0, 1, Z, post_wire=0, out_wire=1)
    assert out["residual_trace"] == pytest.approx(0.5, abs=1e-13)
    assert out["expectation"] == pytest.approx(1.0, abs=1e-12)


def test_postselection_requires_a_copy():
    with pytest.raises(ValueError):
        postselected_expectation(bell_body(), 0.0, 0, Z)


@pytest.mark.parametrize("copies", [1, 2, 4])
def test_postselected_contamination_decays_geometrically(copies):
    eta = 0.05
    out = postselected_expectation(bell_body(), eta, copies, Z, post_wire=0, out_wire=1)
    # the rejected branch survives each noisy copy with weight eta exactly,
    # on top of the fully kept |alpha_0|^2 = 1/2 branch
    assert out["residual_trace"] - 0.5 == pytest.approx(0.5 * eta**copies, rel=1e-9)


def test_noiseless_copies_change_nothing():
    vals = [
        postselected_expectation(bell_body(), 0.0, m, Z, post_wire=0, out_wire=1)[
            "expectation"
        ]
        for m in (1, 2, 3)
    ]
    assert vals[0] == pytest.approx(vals[1], abs=1e-12)
    assert vals[0] == pytest.approx(vals[2], abs=1e-12)


def test_postselected_expectation_accepts_circuits():
    c = Circuit(2, 1, (Gate("unitary", 0, 0, H),))
    out = postselected_expectation(c, 0.02, 2, Z, post_wire=0, out_wire=1)
    assert 0.0 < out["residual_trace"] < 1.0
    assert -1.0 <= out["expectation"] <= 1.0


def test_postselection_with_post_wire_above_out_wire():
    # post_wire 2 sits after out_wire 0, so the readout keeps its position;
    # the oracle copies onto every ancilla first, then projects them all
    eta, copies = 0.2, 3
    body = random_state(3, 12)
    out = postselected_expectation(body, eta, copies, Z, post_wire=2, out_wire=0)
    n = 3 + copies - 1
    anc = np.zeros((4, 4), dtype=complex)
    anc[0, 0] = 1.0
    rho = np.kron(body.rho, anc)
    for a in (3, 4):
        big = full_space_operator(CNOT, (2, a), n)
        rho = big @ rho @ big.conj().T
    for w in (2, 3, 4):
        rho = noisy_map(rho, [P0], [w], n, eta)
    zo = full_space_operator(Z, [0], n)
    assert out["residual_trace"] == pytest.approx(np.trace(rho).real, abs=1e-13)
    assert out["expectation"] == pytest.approx((np.trace(zo @ rho) / np.trace(rho)).real, abs=1e-13)


def test_postselection_never_adds_a_wire():
    # a width-9 Bell body with 3 copies stays on its own 9 wires
    eta = 0.05
    state = apply_unitary(basis_state("0" * 9), H, [0])
    state = apply_unitary(state, CNOT, [0, 1])
    out = postselected_expectation(state, eta, 3, Z, post_wire=0, out_wire=1)
    assert out["residual_trace"] - 0.5 == pytest.approx(0.5 * eta**3, rel=1e-9)


def test_postselection_refuses_beyond_the_wire_guard():
    # a 10-wire body takes any number of copies: rho_00 + eta**m rho_11 of a
    # Bell pair leaves weight (1 + eta**2) / 2 and <Z> = (1 - eta**2) / (1 + eta**2)
    eta = 0.1
    state = apply_unitary(basis_state("0" * 10), H, [0])
    state = apply_unitary(state, CNOT, [0, 1])
    out = postselected_expectation(state, eta, 2, Z, post_wire=0, out_wire=1)
    assert out["residual_trace"] == pytest.approx((1 + eta**2) / 2, abs=1e-13)
    assert out["expectation"] == pytest.approx((1 - eta**2) / (1 + eta**2), abs=1e-13)
    with pytest.raises(GuardExceeded) as err:
        postselected_expectation(basis_state("0" * 11), eta, 2, Z, post_wire=0, out_wire=1)
    assert err.value.required == 11


@pytest.mark.parametrize("wires", [1, 2, 3, 4])
def test_pauli_coefficients_round_trip(wires):
    rng = np.random.default_rng(wires)
    d = 2**wires
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    s = DensityState(wires, rho)
    assert s._coeffs.dtype == np.float64
    assert s._coeffs.shape == (4,) * wires
    np.testing.assert_allclose(s.rho, rho, rtol=0, atol=1e-13 * np.abs(rho).max())
    assert s.trace == pytest.approx(np.trace(rho).real, rel=1e-14)


def test_pauli_coefficients_are_the_traces_against_the_basis():
    # wire 0 is the first axis; B = sigma / sqrt(2) on each wire
    rho = random_state(2, 13).rho
    s = DensityState(2, rho)
    paulis = [np.eye(2), X, np.array([[0, -1j], [1j, 0]]), Z]
    for p, q in itertools.product(range(4), repeat=2):
        want = np.trace(np.kron(paulis[p], paulis[q]) @ rho).real / 2
        assert s._coeffs[p, q] == pytest.approx(want, abs=1e-15)


PROJECT0 = [np.kron(P0, np.eye(2))]
RESET = [np.kron(a, np.eye(2)) for a in (P0, R01)]


@pytest.mark.parametrize("cell", ["unitary", "reset", "project0", "haar"])
@pytest.mark.parametrize("eta", [0.0, 0.3])
def test_transfer_matrix_is_real(cell, eta):
    kraus = {
        "unitary": [np.kron(random_unitary(2, 14), np.eye(2))],
        "reset": RESET,
        "project0": PROJECT0,
        "haar": [random_unitary(4, 15)],
    }[cell]
    ops = np.asarray(kraus)[None]
    t = _basis_change(2)
    full = t.conj().T @ _superoperators(ops, eta) @ t
    assert np.abs(full.imag).max() <= 1e-13 * np.abs(full).max()
    r = _transfer_matrices(ops, eta)
    assert r.dtype == np.float64
    np.testing.assert_array_equal(r, full.real)


@pytest.mark.parametrize("convention", ["raw", "virtual"])
@pytest.mark.parametrize(
    "circuit",
    [
        random_circuit(4, 4, seed=21),  # odd steps hold the wrap cell (3, 0)
        Circuit(2, 2, (Gate("unitary", 0, 0, H), Gate("unitary2", 1, 1, CNOT))),  # CNOT on (1, 0)
    ],
)
def test_run_matches_kron_oracle(circuit, convention):
    eta = 0.17
    got = run_noisy_circuit(circuit, eta, convention=convention)
    n = circuit.width
    rho = basis_state("0" * n).rho
    for t in range(circuit.depth):
        for cell in circuit.cells(t):
            kraus = cell_kraus(cell)
            if convention == "virtual":
                kraus = [k / np.linalg.norm(k) for k in kraus]
            rho = noisy_map(rho, kraus, cell.wires, n, eta)
    assert any(cell.wires[0] > cell.wires[1] for cell in circuit.cells(1))
    np.testing.assert_allclose(got.rho, rho, rtol=0, atol=1e-13 * np.trace(rho).real)


@pytest.mark.parametrize("convention", ["raw", "virtual"])
@pytest.mark.parametrize("post_wire, out_wire", [(0, 2), (3, 1)])
@pytest.mark.parametrize("copies", [1, 2, 3, 4])
def test_postselection_closed_form_matches_ancilla_oracle(copies, post_wire, out_wire, convention):
    eta, body_eta = 0.23, 0.11
    circuit = random_circuit(4, 3, seed=22, p_project=0.3)
    obs = random_unitary(2, 23)
    obs = obs + obs.conj().T
    got = postselected_expectation(
        circuit, eta, copies, obs, post_wire=post_wire, out_wire=out_wire,
        body_eta=body_eta, convention=convention,
    )
    body = run_noisy_circuit(circuit, body_eta, convention=convention).rho
    want = postselect_one_ancilla_at_a_time(body, eta, copies, obs, post_wire, out_wire)
    assert got["residual_trace"] == pytest.approx(want["residual_trace"], rel=1e-12)
    assert got["expectation"] == pytest.approx(want["expectation"], abs=1e-12)


def test_width_8_run_holds_no_complex_density_matrix():
    # one complex 2**8 x 2**8 matrix is 1 MiB; the input and the output of a
    # cell are the two live states, so the Pauli run must stay below 2 MiB
    circuit = random_circuit(8, 4, seed=24)
    run_noisy_circuit(circuit, 0.1)
    tracemalloc.start()
    try:
        run_noisy_circuit(circuit, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * 4**8


def plus_zero():
    return apply_unitary(basis_state("00"), H, [0])


@pytest.mark.parametrize("wires", [[0, 0], [-1, 0], [0, 2], [2]])
def test_expectation_value_rejects_bad_wires(wires):
    op = np.kron(X, X) if len(wires) == 2 else Z
    with pytest.raises(ValueError):
        expectation_value(plus_zero(), op, wires)


def test_expectation_value_rejects_a_mismatched_operator():
    with pytest.raises(ValueError):
        expectation_value(plus_zero(), np.kron(X, X), [0])
    with pytest.raises(ValueError):
        expectation_value(plus_zero(), np.ones((2, 4)), [0])


@pytest.mark.parametrize("wires", [[1, 1], [-1, 0], [0, 2]])
def test_maps_reject_bad_wires(wires):
    s = plus_zero()
    with pytest.raises(ValueError):
        apply_unitary(s, CNOT, wires)
    with pytest.raises(ValueError):
        apply_noisy_cell(s, RESET_RESET, wires, 0.1)


def test_maps_reject_mismatched_matrices():
    s = plus_zero()
    with pytest.raises(ValueError):
        apply_unitary(s, CNOT, [0])
    with pytest.raises(ValueError):
        apply_noisy_cell(s, [H], [0, 1], 0.1)
    for wire in (-1, 2):
        with pytest.raises(ValueError):
            noisy_projection(s, wire, 0.1)
