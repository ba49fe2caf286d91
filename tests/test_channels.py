"""Kraus channel container, depolarizing mix, basis completion."""

import numpy as np
import pytest

from pepslab.channels import (
    QuantumChannel,
    depolarize,
    identity_channel,
    kraus_families,
    kraus_orthonormal_completion,
    orthonormal_completions,
    unitary_channel,
)

from pepslab.circuits import Circuit, Gate
from pepslab.embed import cell_kraus

from oracles import kraus_completion_one_at_a_time, random_hermitian


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_apply_conjugates_with_kraus():
    u = random_unitary(3, 0)
    ch = unitary_channel(u)
    rho = random_density(3, 1)
    np.testing.assert_allclose(ch.apply(rho), u @ rho @ u.conj().T, atol=1e-13)
    assert ch.is_trace_preserving()


def test_kraus_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        QuantumChannel(2, (np.eye(2), np.eye(3)))


def test_trace_preservation_detection():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    assert not QuantumChannel(2, (p0,)).is_trace_preserving()
    r01 = np.array([[0, 1], [0, 0]], dtype=complex)
    assert QuantumChannel(2, (p0, r01)).is_trace_preserving()


def test_choi_of_identity_is_pure():
    ch = identity_channel(3)
    choi = ch.choi()
    np.testing.assert_allclose(choi, choi.conj().T, atol=1e-14)
    vals = np.linalg.eigvalsh(choi)
    assert vals[-1] == pytest.approx(1.0, abs=1e-13)
    assert np.abs(vals[:-1]).max() < 1e-13
    assert np.trace(choi).real == pytest.approx(1.0, abs=1e-13)


def test_choi_blocks_encode_the_channel_action():
    # choi = (1/d) sum_ij |i><j| (x) E(|i><j|): block (i, j) holds the
    # action on the matrix unit, so the channel is fully recoverable
    d = 2
    ch = unitary_channel(random_unitary(d, 5))
    blocks = ch.choi().reshape(d, d, d, d)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            np.testing.assert_allclose(
                blocks[i, :, j, :], ch.apply(unit) / d, atol=1e-13
            )


@pytest.mark.parametrize("eta", [0.0, 0.2, 0.7, 1.0])
def test_depolarize_action_law(eta):
    d = 4
    ch = unitary_channel(random_unitary(d, 7))
    noisy = depolarize(ch, eta)
    rho = random_density(d, 8)
    want = (1 - eta) * ch.apply(rho) + eta * np.trace(rho) * np.eye(d) / d
    np.testing.assert_allclose(noisy.apply(rho), want, atol=1e-12)
    assert noisy.is_trace_preserving()


def test_depolarize_mixes_choi_matrices():
    d = 2
    ch = unitary_channel(random_unitary(d, 9))
    eta = 0.3
    want = (1 - eta) * ch.choi() + eta * np.eye(d * d) / d**2
    np.testing.assert_allclose(depolarize(ch, eta).choi(), want, atol=1e-12)


def test_depolarize_rejects_bad_rate():
    ch = identity_channel(2)
    with pytest.raises(ValueError):
        depolarize(ch, -0.1)
    with pytest.raises(ValueError):
        depolarize(ch, 1.5)


def test_completion_spans_the_full_operator_space():
    d = 4
    p00 = np.zeros((d, d), dtype=complex)
    p00[0, 0] = 1.0
    r01 = np.zeros((d, d), dtype=complex)
    r01[0, 1] = 1.0
    full = kraus_orthonormal_completion([p00, r01], d)
    assert len(full) == d * d
    # pairwise Hilbert-Schmidt orthonormality
    gram = np.array([[np.trace(a.conj().T @ b) for b in full] for a in full])
    np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-10)
    # the input operators survive as the leading elements (normalized)
    np.testing.assert_allclose(full[0], p00, atol=1e-13)
    np.testing.assert_allclose(full[1], r01, atol=1e-13)


def test_completion_is_deterministic():
    u = random_unitary(4, 11)
    a = kraus_orthonormal_completion([u / 2], 4)
    b = kraus_orthonormal_completion([u / 2], 4)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_completion_rejects_non_orthogonal_input():
    d = 2
    a = np.eye(d, dtype=complex) / np.sqrt(d)
    b = (np.eye(d) + 0.1 * np.diag([1.0, -1.0])).astype(complex)
    b /= np.linalg.norm(b)
    with pytest.raises(ValueError):
        kraus_orthonormal_completion([a, b], d)


def test_completion_basis_resolves_identity():
    # sum_a B rho B^dag over an orthonormal operator basis equals tr(rho) * I
    d = 4
    u = random_unitary(d, 12)
    full = kraus_orthonormal_completion([u / 2], d)
    rho = random_density(d, 13)
    acc = sum(k @ rho @ k.conj().T for k in full)
    np.testing.assert_allclose(acc, np.trace(rho) * np.eye(d), atol=1e-12)


P0 = np.diag([1.0, 0.0]).astype(complex)
R01 = np.array([[0, 1], [0, 0]], dtype=complex)


def cell_family(kind):
    """Kraus family of one brickwork cell of the given kind."""
    if kind == "reset-row":
        return [np.kron(a, b) for a in (P0, R01) for b in (P0, R01)]
    gate = {
        "unitary": Gate("unitary2", 0, 0, random_unitary(4, 16)),
        "reset": Gate("reset", 0, 0),
        "project0": Gate("project0", 0, 1),
    }[kind]
    return cell_kraus(Circuit(2, 1, (gate,)).cell(0, 0))


@pytest.mark.parametrize("kind", ["unitary", "reset", "project0", "reset-row"])
def test_completion_is_orthonormal_and_matches_one_at_a_time(kind):
    kraus = cell_family(kind)
    full = kraus_orthonormal_completion(kraus, 4)
    b = np.reshape(full, (16, 16))
    assert np.linalg.norm(b @ b.conj().T - np.eye(16)) <= 1e-13
    for got, k in zip(full, kraus):
        np.testing.assert_allclose(got, k / np.linalg.norm(k), rtol=0, atol=1e-15)
    want = kraus_completion_one_at_a_time(kraus, 4)
    np.testing.assert_allclose(b, np.reshape(want, (16, 16)), rtol=0, atol=1e-12)


MIXED = ("unitary", "reset", "project0", "reset-row")


def test_mixed_batch_matches_one_at_a_time():
    # families of 1, 2, 1 and 4 operators completed in one batch
    families = [cell_family(kind) for kind in MIXED]
    ops, counts = kraus_families(families, 4)
    assert list(counts) == [1, 2, 1, 4]
    full = orthonormal_completions(ops, counts, 4)
    assert full.shape == (4, 16, 4, 4)
    for kind, family, got in zip(MIXED, families, full):
        b = got.reshape(16, 16)
        want = np.reshape(kraus_completion_one_at_a_time(family, 4), (16, 16))
        np.testing.assert_allclose(b, want, rtol=0, atol=1e-12)
        assert np.linalg.norm(b @ b.conj().T - np.eye(16)) <= 1e-13
        # each family comes out as if completed alone, zeros included
        alone = np.reshape(kraus_orthonormal_completion(family, 4), (16, 16))
        np.testing.assert_array_equal(b == 0, alone == 0)
        if kind != "unitary":  # a Haar unitary's completion has no structural zeros
            np.testing.assert_array_equal(b == 0, want == 0)


def test_second_pass_keeps_a_near_unit_family_orthonormal():
    # the first unit is almost in the family's span, so its residual is about
    # 1e-7 of its norm, and one projection pass leaves it far from orthogonal
    k = np.zeros((4, 4), dtype=complex)
    k[0, 0], k[0, 1] = 1.0, 1e-7
    ops, counts = kraus_families([[np.eye(4, dtype=complex)], [k]], 4)
    for got in orthonormal_completions(ops, counts, 4):
        b = got.reshape(16, 16)
        assert np.abs(b @ b.conj().T - np.eye(16)).max() <= 1e-14


@pytest.mark.parametrize("bad", ["unequal-norm", "non-orthogonal"])
def test_batch_names_the_family_that_breaks_the_rules(bad):
    a = np.eye(2, dtype=complex)
    b = {
        "unequal-norm": 2.0 * np.array([[0, 1], [1, 0]], dtype=complex),
        "non-orthogonal": (np.eye(2) + np.diag([1.0, -1.0])).astype(complex) / np.sqrt(2),
    }[bad]
    families = [[a], [np.diag([1.0, -1.0]).astype(complex)], [a, b]]
    with pytest.raises(ValueError, match="family 2"):
        orthonormal_completions(*kraus_families(families, 2), 2)


def test_hs_normalization_rescales_uniformly():
    u = random_unitary(2, 14)
    normed = QuantumChannel(2, (u,)).hs_normalized()
    np.testing.assert_allclose(np.linalg.norm(normed.kraus[0]), 1.0, atol=1e-13)
    np.testing.assert_allclose(normed.kraus[0], u / np.sqrt(2), atol=1e-13)


def test_hs_normalization_rejects_mixed_weights():
    u = random_unitary(2, 15)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        QuantumChannel(2, (u, p0)).hs_normalized()
