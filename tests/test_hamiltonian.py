"""Parent Hamiltonian construction and spectrum reports."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pepslab as pl
from pepslab import hamiltonian
from pepslab import tensor as tz
from pepslab.errors import GuardExceeded
from pepslab.tensor import NonInjectiveError

from oracles import lanczos_with_full_reorthogonalization, matvec_by_permutations, parent_term_by_projector


def rnd(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_pseudo_inverse_is_a_left_inverse():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))  # injective
    t = tz.from_matrix(m, [("phys", 5)], [("a", 2), ("b", 2)])
    pinv = pl.pseudo_inverse(t, ["phys"], ["a", "b"])
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


def test_pseudo_inverse_refuses_a_map_into_a_smaller_space():
    # svd sees only min(rows, cols) singular values, all nonzero here
    rng = np.random.default_rng(0)
    m = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    t = tz.from_matrix(m, [("phys", 2)], [("a", 2), ("b", 2)])
    with pytest.raises(NonInjectiveError, match="dim 4 into dim 2"):
        pl.pseudo_inverse(t, ["phys"], ["a", "b"])
    # a parent Hamiltonian on sites whose physical dim is below their bond product
    with pytest.raises(NonInjectiveError):
        pl.parent_hamiltonian(pl.random_network(2, 2, phys_dim=2, seed=0))


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


# open grids at D = 2 and 3, and a torus, whose sites carry four bonds
PARENT_TERM_NETWORKS = [
    dict(rows=2, cols=2), dict(rows=1, cols=5), dict(rows=2, cols=3),
    dict(rows=2, cols=2, bond_dim=3), dict(rows=3, cols=3, geometry="periodic-grid"),
]


@pytest.mark.parametrize("kw", PARENT_TERM_NETWORKS,
                         ids=["2x2", "1x5", "2x3", "2x2-D3", "3x3-torus"])
def test_parent_terms_equal_the_link_projector_reference(kw):
    for seed in range(3):
        net = pl.random_network(delta=0.6, seed=seed, **kw)
        for e in net.graph.edges:
            term = pl.parent_term(net, e.id)
            assert term.support == (e.u, e.v)
            np.testing.assert_allclose(term.matrix(), parent_term_by_projector(net, e.id),
                                       rtol=0, atol=1e-13)


def test_parent_term_refuses_an_unknown_edge_id():
    net = identity_chain()
    with pytest.raises(ValueError, match="unknown edge id 'h9.9'"):
        pl.parent_term(net, "h9.9")


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


# a chain; an open grid, whose vertical bonds are adjacent in no vertex
# order; a torus, with two bonds between the same sites and wrap bonds listed
# from the higher vertex; and a 2x4 grid, whose terms spread over four frames
FRAME_NETWORKS = [dict(rows=1, cols=7), dict(rows=2, cols=3),
                  dict(rows=2, cols=2, geometry="periodic-grid"), dict(rows=2, cols=4)]


@pytest.mark.parametrize("kw", FRAME_NETWORKS, ids=["1x7", "2x3", "2x2-torus", "2x4"])
def test_matvec_by_frames_matches_the_permutation_reference(kw):
    ham = pl.parent_hamiltonian(pl.random_network(delta=0.5, seed=3, **kw))
    placed = sorted(t for *_, terms in ham._frames for t, *_ in terms)
    assert placed == list(range(len(ham.terms)))
    v = rnd((ham.dim,), 4)
    want = matvec_by_permutations(ham, v)
    np.testing.assert_allclose(ham.matvec(v), want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("rows,cols", [(2, 2), (1, 6)], ids=["2x2", "1x6"])
def test_to_dense_matches_the_permutation_reference(rows, cols):
    # dim 256 in one block of columns, dim 1024 in four
    ham = pl.parent_hamiltonian(pl.random_network(rows, cols, delta=0.5, seed=2))
    v = rnd((ham.dim,), 5)
    want = matvec_by_permutations(ham, v)
    np.testing.assert_allclose(ham.to_dense() @ v, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_matvec_buffers_and_the_traced_call_count(monkeypatch):
    # pepsbench counts products by wrapping ParentHamiltonian.matvec on the class
    calls = []
    original = hamiltonian.ParentHamiltonian.matvec

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(hamiltonian.ParentHamiltonian, "matvec", counted)
    net = pl.random_network(1, 6, delta=0.5, seed=6)
    ham = pl.parent_hamiltonian(net)
    rep = pl.spectrum_report(ham, net, k=4)
    assert rep.solver == "lanczos" and len(calls) == rep.matvecs > 0
    v = rnd((ham.dim,), 7)
    first, second = ham.matvec(v), ham.matvec(v)
    assert first is not second and not np.shares_memory(first, second)
    out = np.full(ham.dim, np.nan, dtype=np.complex128)
    scratch = np.full((3, ham.dim), np.nan, dtype=np.complex128)
    assert ham.matvec(v, out, scratch) is out
    np.testing.assert_allclose(out, first, rtol=0, atol=1e-13 * np.abs(first).max())
    with pytest.raises(ValueError, match="contiguous complex"):
        ham.matvec(v, np.empty(ham.dim))


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


@pytest.mark.parametrize("k", [0, -3])
def test_spectrum_report_refuses_fewer_than_one_eigenvalue(k):
    net = pl.random_network(2, 2, delta=0.6, seed=4)
    with pytest.raises(ValueError, match=f"k = {k}"):
        pl.spectrum_report(pl.parent_hamiltonian(net), net, k=k)


def test_spectrum_report_promotes_one_eigenvalue_to_two_for_the_gap():
    net = pl.random_network(2, 2, delta=0.6, seed=4)
    ham = pl.parent_hamiltonian(net)
    one, two = pl.spectrum_report(ham, net, k=1), pl.spectrum_report(ham, net, k=2)
    assert len(one.eigenvalues) == 2
    assert one.eigenvalues == two.eigenvalues and one.gap == two.gap


# 2x2 (dim 256) is solved densely by default, 1x4 at bond dim 3 (dim 729) and
# 1x6 at bond dim 2 (dim 1024) by Lanczos; each is compared with the other
# route, forced through the cutoff, and with every eigenvalue of the dense matrix.
@pytest.mark.parametrize(
    "rows,cols,bond_dim,default_solver",
    [(2, 2, 2, "dense"), (1, 4, 3, "lanczos"), (1, 6, 2, "lanczos")],
    ids=["2x2", "1x4", "1x6"],
)
def test_lanczos_path_agrees_with_dense(monkeypatch, rows, cols, bond_dim, default_solver):
    net = pl.random_network(rows, cols, bond_dim, delta=0.6, seed=5)
    ham = pl.parent_hamiltonian(net)
    want = np.linalg.eigvalsh(ham.to_dense())[:4]
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
    np.testing.assert_allclose(sparse.eigenvalues, want, rtol=0, atol=1e-9)
    np.testing.assert_allclose(dense.eigenvalues, want, rtol=0, atol=1e-9)
    assert sparse.matvecs > 0
    assert dense.matvecs == 0


def test_lanczos_report_on_a_2x3_grid_passes_the_benchmark_checks():
    # the largest shape of the benchmark's spectrum workload (dim 16384)
    net = pl.random_network(2, 3, delta=0.5, seed=11)
    rep = pl.spectrum_report(pl.parent_hamiltonian(net), net, k=4)
    assert rep.solver == "lanczos"
    assert abs(rep.eigenvalues[0]) <= 1e-9 * rep.max_term_norm
    assert rep.degeneracy == 1
    assert rep.overlap >= 1 - 1e-8


def count_full_passes(monkeypatch):
    """Count the solver's steps and its Gram-Schmidt passes against the whole basis.

    A pass is an ``_overlaps`` call inside ``_thick_restart_lanczos`` on rows
    other than the operator's locked set, whose projection also calls it.
    """
    counts = {"steps": 0, "passes": 0}
    solver, overlaps = hamiltonian._thick_restart_lanczos, hamiltonian._overlaps
    running = []

    def counted_solver(op, *args):
        before = op.matvecs
        running.append(op)
        try:
            return solver(op, *args)
        finally:
            running.pop()
            counts["steps"] += op.matvecs - before

    def counted_overlaps(rows, w):
        if running and rows is not running[-1].locked:
            counts["passes"] += 1
        return overlaps(rows, w)

    monkeypatch.setattr(hamiltonian, "_thick_restart_lanczos", counted_solver)
    monkeypatch.setattr(hamiltonian, "_overlaps", counted_overlaps)
    return counts


# the Lanczos shapes of the benchmark's spectrum workload
@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("rows,cols", [(1, 6), (1, 7), (2, 3)], ids=["1x6", "1x7", "2x3"])
def test_partial_reorthogonalization_matches_the_full_pass_reference(monkeypatch, rows, cols, seed):
    net = pl.random_network(rows, cols, delta=0.5, seed=seed)
    ham = pl.parent_hamiltonian(net)
    with monkeypatch.context() as m:
        m.setattr(hamiltonian, "_thick_restart_lanczos", lanczos_with_full_reorthogonalization)
        want = pl.spectrum_report(ham, net, k=4)
    counts = count_full_passes(monkeypatch)
    got = pl.spectrum_report(ham, net, k=4)
    assert got.solver == want.solver == "lanczos"
    assert got.matvecs == want.matvecs
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-12 * want.max_term_norm)
    assert got.overlap == pytest.approx(want.overlap, abs=1e-12)
    assert 0 < counts["passes"] <= counts["steps"] / 2


# Instances that take over a thousand Lanczos products, forced off the dense
# route: over that many steps a basis kept orthogonal by nothing but the
# recurrence returns ghost copies of converged eigenvalues.
@pytest.mark.parametrize("cols,delta,seed", [(5, 0.15, 3), (6, 0.2, 2)], ids=["1x5", "1x6"])
def test_lanczos_stays_accurate_over_long_solves(monkeypatch, cols, delta, seed):
    net = pl.random_network(1, cols, delta=delta, seed=seed)
    ham = pl.parent_hamiltonian(net)
    want = np.linalg.eigvalsh(ham.to_dense())[:4]
    monkeypatch.setattr(hamiltonian, "DENSE_EIG_CUTOFF", 1)
    vals, vecs, solver, matvecs, _ = hamiltonian._low_spectrum(ham, 4, sum(ham.term_norms()))
    assert solver == "lanczos"
    assert matvecs > 1000
    np.testing.assert_allclose(vals, want, rtol=0, atol=1e-9)
    assert np.abs(vecs.conj().T @ vecs - np.eye(vecs.shape[1])).max() <= 1e-10
    assert pl.spectrum_report(ham, net, k=4).overlap >= 1 - 1e-8


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


# Ground spaces far larger than k (dense dimension 425 at 1x3 and 214 at
# 1x4): a single Krylov space sees one ground direction, so only the probe
# off the converged pairs finds the copies that fill k.
@pytest.mark.parametrize(
    "cols,phys_dim,seed,k",
    [(3, 8, 19, 8), (4, 5, 4, 8), (3, 8, 18, 4), (4, 5, 0, 4), (4, 5, 4, 4), (4, 5, 17, 4), (4, 5, 19, 4)],
)
def test_lanczos_refuses_a_degenerate_ground_space_that_fills_k(cols, phys_dim, seed, k):
    net = pl.random_network(1, cols, phys_dim=phys_dim, delta=0.6, seed=seed)
    ham = pl.parent_hamiltonian(net)
    assert ham.dim > hamiltonian.DENSE_EIG_CUTOFF
    with pytest.raises(ValueError, match="raise k"):
        pl.spectrum_report(ham, net, k=k)


def test_lanczos_lists_every_copy_of_a_degenerate_level():
    # identity sites on a 1x6 line (dim 1024): the parent terms are commuting
    # link projectors of rank 3, so the spectrum is m with multiplicity
    # C(5, m) 3**m and the Krylov space of one vector breaks down at dim 6
    g = pl.open_grid(1, 6)
    sites = {}
    for v in g.vertices:
        legs = [e.id for e in g.edges if v in (e.u, e.v)]
        sites[v] = tz.from_matrix(np.eye(2 ** len(legs)), [("phys", 2 ** len(legs))],
                                  [(leg, 2) for leg in legs])
    net = pl.PepsNetwork(g, sites)
    rep = pl.spectrum_report(pl.parent_hamiltonian(net), net, k=4)
    assert rep.solver == "lanczos"
    np.testing.assert_allclose(rep.eigenvalues, [0, 1, 1, 1], rtol=0, atol=1e-9)
    assert rep.degeneracy == 1
    assert rep.gap == pytest.approx(1.0, abs=1e-9)
    assert rep.overlap == pytest.approx(1.0, abs=1e-9)


def test_lanczos_on_a_complement_stays_off_the_locked_pairs():
    # the locked ground pair spans a zero eigenspace of the projected
    # operator; a solve that let round-off back into it would return 0 again
    net = pl.random_network(1, 6, delta=0.6, seed=5)
    ham = pl.parent_hamiltonian(net)
    want = np.linalg.eigvalsh(ham.to_dense())[:2]
    op = hamiltonian._Operator(ham)
    rng = np.random.default_rng(1)
    ground, locked, _, scale = hamiltonian._thick_restart_lanczos(
        op, hamiltonian._random_start(rng, op), 1, 0.0, rng)
    op.locked = locked
    second, vec, _, _ = hamiltonian._thick_restart_lanczos(
        op, hamiltonian._random_start(rng, op), 1, scale, rng)
    np.testing.assert_allclose([ground[0], second[0]], want, rtol=0, atol=1e-9)
    assert np.abs(locked.conj() @ vec.T).max() < 1e-12
    # the probe sees nothing below the second eigenvalue off the ground pair,
    # and finds the ground state once it is unlocked
    middle = want[1] / 2
    assert not hamiltonian._probe_finds_lower(op, hamiltonian._random_start(rng, op), 300, middle, scale)
    op.locked = None
    assert hamiltonian._probe_finds_lower(op, hamiltonian._random_start(rng, op), 300, middle, scale)


def test_lanczos_refuses_to_run_past_its_matvec_budget(monkeypatch):
    net = pl.random_network(1, 4, 3, delta=0.6, seed=9)
    ham = pl.parent_hamiltonian(net)
    monkeypatch.setattr(hamiltonian, "LANCZOS_MATVEC_BUDGET", 20)
    with pytest.raises(GuardExceeded) as info:
        pl.spectrum_report(ham, net, k=4)
    assert info.value.limit == 20


def test_lanczos_refuses_more_eigenvalues_than_its_basis_keeps():
    net = pl.random_network(1, 4, 3, delta=0.6, seed=9)
    ham = pl.parent_hamiltonian(net)
    with pytest.raises(GuardExceeded):
        pl.spectrum_report(ham, net, k=hamiltonian.LANCZOS_MAX_K + 1)


# 1x7 (dim 4096) takes the Lanczos route by default, and most of its steps
# skip the Gram-Schmidt pass
@pytest.mark.parametrize(
    "rows,cols,delta,cutoff,solver",
    [(2, 2, 0.6, 256, "dense"), (2, 2, 0.6, 1, "lanczos"), (1, 7, 0.5, 256, "lanczos")],
    ids=["dense", "lanczos", "1x7-lanczos"],
)
def test_reported_residual_bounds_the_recomputed_one(monkeypatch, rows, cols, delta, cutoff, solver):
    net = pl.random_network(rows, cols, delta=delta, seed=4)
    ham = pl.parent_hamiltonian(net)
    monkeypatch.setattr(hamiltonian, "DENSE_EIG_CUTOFF", cutoff)
    counts = count_full_passes(monkeypatch)
    norms = ham.term_norms()
    vals, vecs, got_solver, _, residual = hamiltonian._low_spectrum(ham, 4, sum(norms))
    assert got_solver == solver
    if solver == "lanczos":
        assert 0 < counts["passes"] < counts["steps"] / 2
    for theta, x in zip(vals, vecs.T):
        got = np.linalg.norm(ham.matvec(x) - theta * x)
        assert got <= 10 * residual + 1e-12 * max(norms)


def test_spectrum_reports_load_no_scipy():
    code = (
        "import sys\n"
        "import pepslab as pl\n"
        "for cols in (4, 6):\n"
        "    net = pl.random_network(1, cols, delta=0.6, seed=1)\n"
        "    rep = pl.spectrum_report(pl.parent_hamiltonian(net), net, k=4)\n"
        "    print(rep.solver)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(pl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.split()
    assert out == ["dense", "lanczos", "[]"]


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
    monkeypatch.setattr(hamiltonian, "_DENSE_MATRIX_LIMIT", 8)
    with pytest.raises(GuardExceeded):
        ham.to_dense()


def test_to_dense_refuses_a_matrix_past_its_own_guard():
    # dim 16384 passes the state guard; its matrix would take 4 GiB
    ham = pl.parent_hamiltonian(pl.random_network(2, 3, delta=0.5, seed=1))
    assert ham.dim == 1 << 14 <= hamiltonian.DENSE_DIM_LIMIT
    with pytest.raises(GuardExceeded) as info:
        ham.to_dense()
    assert info.value.required == 1 << 14 and info.value.limit == 1 << 11


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
        "matvecs",
        "residual",
    }
    assert all(isinstance(x, float) for x in obj["eigenvalues"])
    assert obj["matvecs"] == 0
    assert 0 <= obj["residual"] < 1e-10 * obj["max_term_norm"]
    json.dumps(obj)
