"""Parent Hamiltonian construction and spectrum reports."""

import math

import numpy as np
import pytest

import pepslab as pl
from pepslab import hamiltonian
from pepslab import tensor as tz
from pepslab.errors import GuardExceeded
from pepslab.tensor import NonInjectiveError


def rnd(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_pseudo_inverse_is_a_left_inverse():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))  # injective
    t = tz.from_matrix(m, [("phys", 5)], [("a", 2), ("b", 2)])
    pinv = pl.pseudo_inverse(t, ["a", "b"], ["phys"])
    comp = tz.contract(
        pinv.relabeled({"a": "a2", "b": "b2"}), t, [("phys", "phys")]
    )
    got = tz.matrix_view(comp, ["a2", "b2"], ["a", "b"])
    np.testing.assert_allclose(got, np.eye(4), atol=1e-10)


def test_pseudo_inverse_rejects_rank_deficient_maps():
    m = np.ones((4, 3), dtype=complex)
    t = tz.from_matrix(m, [("phys", 4)], [("v", 3)])
    with pytest.raises(NonInjectiveError):
        pl.pseudo_inverse(t, ["v"], ["phys"])


def identity_chain():
    g = pl.open_grid(1, 2)
    t = tz.from_matrix(np.eye(2), [("phys", 2)], [("h0.0", 2)])
    return pl.PepsNetwork(g, {0: t, 1: t})


def test_parent_term_for_identity_sites_is_the_link_projector():
    net = identity_chain()
    term = pl.parent_term(net, "h0.0")
    assert term.support == (0, 1)
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    want = np.eye(4) - np.outer(phi, phi.conj())
    np.testing.assert_allclose(term.matrix(), want, atol=1e-12)


def test_parent_terms_are_psd_and_annihilate_the_state():
    net = pl.random_network(2, 2, delta=0.6, seed=1)
    for e in net.graph.edges:
        term = pl.parent_term(net, e.id)
        m = term.matrix()
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
        evals = np.linalg.eigvalsh(m)
        assert evals.min() > -1e-10
        # the network state is a zero mode of every term
        assert abs(pl.peps_nev(net, term)) < 1e-10


def test_parent_term_requires_injective_sites():
    net = identity_chain()
    bad = tz.from_matrix(
        np.array([[1.0, 1.0], [1.0, 1.0]]), [("phys", 2)], [("h0.0", 2)]
    )
    net = net.with_site(0, bad)
    with pytest.raises(NonInjectiveError):
        pl.parent_term(net, "h0.0")


# 1x5: every term acts on adjacent axes; 2x2: the vertical bonds do not.
@pytest.mark.parametrize("rows,cols", [(2, 2), (1, 5)], ids=["2x2", "1x5"])
def test_hamiltonian_matvec_matches_dense(rows, cols):
    net = pl.random_network(rows, cols, delta=0.5, seed=2)
    ham = pl.parent_hamiltonian(net)
    assert ham.dim == 256
    h = ham.to_dense()
    np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
    v = rnd((256,), 3)
    np.testing.assert_allclose(ham.matvec(v), h @ v, atol=1e-10)


def test_spectrum_report_dense_path():
    net = pl.random_network(2, 2, delta=0.6, seed=4)
    rep = pl.spectrum_report(pl.parent_hamiltonian(net), net, k=5)
    assert rep.solver == "dense"
    assert abs(rep.eigenvalues[0]) < 1e-9
    assert rep.degeneracy == 1
    assert rep.overlap >= 1 - 1e-8
    assert rep.gap > 0
    assert rep.gap_normalized == pytest.approx(rep.gap / rep.max_term_norm)
    assert len(rep.eigenvalues) == 5


# 2x2 (dim 256) is solved densely by default, 1x4 at bond dim 3 (dim 729) by
# Lanczos; each is compared with the other route, forced through the cutoff.
@pytest.mark.parametrize(
    "rows,cols,bond_dim,default_solver",
    [(2, 2, 2, "dense"), (1, 4, 3, "lanczos")],
    ids=["2x2", "1x4"],
)
def test_lanczos_path_agrees_with_dense(monkeypatch, rows, cols, bond_dim, default_solver):
    net = pl.random_network(rows, cols, bond_dim, delta=0.6, seed=5)
    ham = pl.parent_hamiltonian(net)
    default = pl.spectrum_report(ham, net, k=4)
    assert default.solver == default_solver
    forced_cutoff = 1 if default_solver == "dense" else ham.dim
    monkeypatch.setattr(hamiltonian, "DENSE_EIG_CUTOFF", forced_cutoff)
    forced = pl.spectrum_report(ham, net, k=4)
    dense, sparse = (default, forced) if default_solver == "dense" else (forced, default)
    assert dense.solver == "dense"
    assert sparse.solver == "lanczos"
    assert sparse.eigenvalues[0] == pytest.approx(dense.eigenvalues[0], abs=1e-8)
    assert sparse.gap == pytest.approx(dense.gap, abs=1e-7)
    assert sparse.degeneracy == dense.degeneracy
    assert sparse.overlap == pytest.approx(dense.overlap, abs=1e-8)


def test_lanczos_report_is_repeatable():
    net = pl.random_network(1, 4, 3, delta=0.6, seed=9)
    ham = pl.parent_hamiltonian(net)
    first = pl.spectrum_report(ham, net, k=4)
    second = pl.spectrum_report(ham, net, k=4)
    assert first.solver == "lanczos"
    assert first.eigenvalues == second.eigenvalues
    assert first.gap == second.gap


def test_spectrum_report_refuses_a_ground_space_that_fills_k():
    # physical dim 8 above virtual dim 2 on the end sites: the ground space is
    # larger than 4, so k=4 can neither count it nor read the overlap off it
    net = pl.random_network(1, 3, phys_dim=8, delta=0.6, seed=5)
    ham = pl.parent_hamiltonian(net)
    with pytest.raises(ValueError, match="raise k"):
        pl.spectrum_report(ham, net, k=4)


@pytest.mark.parametrize("k", [16, 100])
def test_spectrum_report_takes_the_whole_spectrum_when_k_reaches_dim(k):
    net = pl.random_network(1, 2, phys_dim=4, delta=0.6, seed=1)
    ham = pl.parent_hamiltonian(net)
    assert ham.dim == 16
    rep = pl.spectrum_report(ham, net, k=k)
    want = np.linalg.eigvalsh(ham.to_dense())
    np.testing.assert_allclose(rep.eigenvalues, want, atol=1e-10)
    assert rep.degeneracy == int(np.sum(want <= want[0] + hamiltonian.DEGENERACY_TOL))
    assert rep.gap > 0
    assert rep.overlap == pytest.approx(1.0, abs=1e-8)


def test_spectrum_report_without_state_overlap():
    net = pl.random_network(2, 2, delta=0.7, seed=6)
    rep = pl.spectrum_report(pl.parent_hamiltonian(net), k=3)
    assert math.isnan(rep.overlap)
    assert abs(rep.eigenvalues[0]) < 1e-9


def test_to_dense_respects_size_guard(monkeypatch):
    net = pl.random_network(2, 2, delta=0.5, seed=7)
    ham = pl.parent_hamiltonian(net)
    monkeypatch.setattr(hamiltonian, "DENSE_DIM_LIMIT", 8)
    with pytest.raises(GuardExceeded):
        ham.to_dense()


def test_report_serializes():
    net = pl.random_network(2, 2, delta=0.8, seed=8)
    rep = pl.spectrum_report(pl.parent_hamiltonian(net), net, k=3)
    obj = rep.to_json()
    assert set(obj) >= {
        "eigenvalues",
        "degeneracy",
        "gap",
        "gap_normalized",
        "overlap",
        "max_term_norm",
        "solver",
    }
    assert all(isinstance(x, float) for x in obj["eigenvalues"])
