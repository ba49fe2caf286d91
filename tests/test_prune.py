"""Stacked pruning against the per-site reference, and the rule that real sites need no basis."""

import weakref

import numpy as np
import pytest

import pepslab as pl
from pepslab import contraction
from pepslab import tiling
from pepslab.circuits import random_circuit
from pepslab.tiling import WangTileSet

from oracles import (
    dense_nev,
    dense_norm,
    live_pairs_per_site,
    prune_per_site,
    random_hermitian,
    random_tileset,
)
from test_contraction import _real_engine_case

README4 = WangTileSet(2, ((0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0), (1, 1, 0, 1)))
TORI = [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (3, 5)]
Z = np.diag([1.0, -1.0]).astype(np.complex128)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
Y = np.array([[0.0, -1j], [1j, 0.0]])


def _same_kept(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert sorted(got) == sorted(want)
        for label, kept in want.items():
            assert got[label].tolist() == kept.tolist(), label


def _check(net, sites, observable=None, slot=None):
    """The stacked masks and kept indices of one call equal the per-site reference's."""
    inside = set(sites)
    closures = {e.id: contraction.mixed_closure(e.dim, e.id) for e in net.graph.edges
                if (e.u in inside) != (e.v in inside)}
    patterns = contraction._patterns(observable) if observable is not None else {}
    slot = slot or contraction._Slot(weakref.ref(net))
    got = contraction._prune(net, sites, patterns, closures, slot)
    _same_kept(got, prune_per_site(net, sites, patterns, closures))
    for v in sites:
        plain = live_pairs_per_site(net, v)[1]
        for e in net.graph.incident(v):
            mask = contraction._mask(net, v, e.id, slot)
            want = plain.get(e.id)
            assert (mask is None) == (want is None)
            if want is not None:
                assert mask.tolist() == want.tolist()
    return got


def _tile_sets():
    return [README4, random_tileset(11, count=5), random_tileset(12, count=6)]


@pytest.mark.parametrize("shape", TORI, ids=[f"{r}x{c}" for r, c in TORI])
def test_stacked_masks_equal_the_per_site_scan_on_tori(shape):
    for ts in _tile_sets():
        net = tiling.tiling_network(ts, *shape)
        _check(net, net.graph.vertices)
        sample = tiling.tiling_network(ts, *shape, delta=0.7)
        _check(sample, sample.graph.vertices)


def test_stacked_masks_equal_the_per_site_scan_on_the_sparse_chain():
    net, observables = _real_engine_case("sparse")
    slot = contraction._Slot(weakref.ref(net))
    _check(net, net.graph.vertices, slot=slot)
    for obs in observables:
        _check(net, net.graph.vertices, obs, slot)


def test_stacked_masks_equal_the_per_site_scan_on_circuit_readouts():
    # Z and X join other physical pairs at the support; one slot serves every read
    for seed, (width, depth) in enumerate([(6, 4), (8, 6)]):
        compiled = pl.compile_circuit(random_circuit(width, depth, seed=seed), 0.3)
        net = compiled.network
        slot = contraction._Slot(weakref.ref(net))
        for m in (Z, X):
            for w in range(width):
                _check(net, net.graph.vertices, pl.readout_observable(compiled, w, m), slot)


def test_stacked_masks_equal_the_per_site_scan_on_a_patch():
    # a radius-2 patch of the 8x8 grid: its cut bonds keep the closure's diagonal
    net = pl.random_network(8, 8, bond_dim=2, delta=0.8, seed=1)
    centre = net.graph.vertex_at(4, 4)
    obs = pl.observable_from_matrix((centre,), random_hermitian(net.phys_dim(centre), 3))
    sites = pl.make_patch(net, obs.support, 2).interior
    got = _check(net, sites, obs)
    cut = [e.id for e in net.graph.edges if (e.u in sites) != (e.v in sites)]
    assert cut and all(got[label].tolist() == [0, 3] for label in cut)


def test_stacked_masks_equal_the_per_site_scan_on_mixed_site_shapes():
    # the edge sites of an open grid (three bonds) are sparse, the corners and
    # the interior dense; the first two edge sites share one array
    base = pl.random_network(3, 4, bond_dim=3, phys_dim=3, seed=7)
    rng = np.random.default_rng(7)
    tensors = dict(base.tensors)
    edge = [v for v in base.graph.vertices if len(base.graph.incident(v)) == 3]
    for v in edge[1:]:
        t = base.site(v)
        data = t.data * (rng.random(t.data.shape) < 0.5)
        data[rng.integers(3)] = 0  # one index of its first bond reaches nothing
        tensors[v] = pl.Tensor(t.legs, data)
    tensors[edge[0]] = pl.Tensor._trusted(base.site(edge[0]).legs, tensors[edge[1]].data)
    net = pl.PepsNetwork(base.graph, tensors)
    got = _check(net, net.graph.vertices)
    assert got  # some bond keeps fewer pairs
    obs = pl.observable_from_matrix((1,), random_hermitian(3, 4))
    _check(net, net.graph.vertices, obs)


# ---------------------------------------------------------------------------
# Real sites give real layers: no Hermitian basis


def _real(net):
    return pl.PepsNetwork(net.graph, {v: pl.Tensor(t.legs, t.data.real)
                                      for v, t in net.tensors.items()})


def _planned(monkeypatch):
    plans, plan = [], contraction._plan

    def recorded(*args):
        out = plan(*args)
        plans.append(out)
        return out

    monkeypatch.setattr(contraction, "_plan", recorded)
    return plans


def test_extrapolation_samples_plan_no_basis_and_replay_float64(monkeypatch):
    graph = pl.periodic_grid(2, 3, bond_dim=2)
    nets = [tiling._tile_network(graph, tiling.interpolated_tensor(README4, x))
            for x in (9 / 28, 15 / 28)]
    plans = _planned(monkeypatch)
    dtypes, replay = set(), contraction._replay

    def recorded(steps, acc, operands, buffers=None, seen=None):
        out = replay(steps, acc, operands, buffers, seen)
        dtypes.add(out.data.dtype)
        return out

    monkeypatch.setattr(contraction, "_replay", recorded)
    got = pl.peps_norms(nets)
    assert [(p.real, p.bases) for p in plans] == [(True, {})]
    assert dtypes == {np.dtype(np.float64)}
    assert got == [pl.peps_norm(net) for net in nets]


def test_one_complex_site_among_real_ones_matches_the_dense_oracle(monkeypatch):
    base = pl.random_network(2, 3, phys_dim=2, seed=5)
    real = _real(base)
    net = real.with_site(4, base.site(4))
    plans = _planned(monkeypatch)
    assert pl.peps_norm(net) == pytest.approx(dense_norm(net), rel=1e-12)
    for v in (0, 4):
        obs = pl.observable_from_matrix((v,), random_hermitian(2, v))
        assert pl.peps_nev(net, obs) == pytest.approx(dense_nev(net, (v,), obs.matrix()), abs=1e-12)
    assert plans and all(not p.real and p.bases for p in plans)


def test_pauli_y_on_a_real_network_matches_the_dense_oracle(monkeypatch):
    net = _real(pl.random_network(2, 3, phys_dim=2, seed=6))
    plans = _planned(monkeypatch)
    for v in net.graph.vertices:
        obs = pl.observable_from_matrix((v,), Y)
        assert pl.peps_nev(net, obs) == pytest.approx(dense_nev(net, (v,), Y), abs=1e-12)
    assert plans and all(p.real and not p.bases for p in plans)


def test_real_network_reads_through_a_warm_cache_equal_fresh_reads():
    # Z, then Y (a complex operator layer), then Z: the plain boundaries the
    # cache holds serve all three
    net = _real(pl.random_network(3, 3, phys_dim=2, seed=8))
    reads = [pl.observable_from_matrix((4,), m) for m in (Z, Y, Z)]
    got = [pl.nev_report(net, obs) for obs in reads]
    fresh = []
    for obs in reads:
        contraction._slot = None
        fresh.append(pl.nev_report(pl.PepsNetwork(net.graph, net.tensors), obs))
    assert got == fresh


def test_peps_norms_of_real_and_complex_samples_are_those_of_peps_norm():
    # a real network alone has no basis; in a mixed set it keeps that rule
    base = pl.random_network(3, 3, seed=2, geometry="periodic-grid")
    nets = [base, _real(base), pl.PepsNetwork(base.graph, {v: pl.Tensor(t.legs, t.data * 1.5)
                                                            for v, t in base.tensors.items()})]
    assert pl.peps_norms(nets) == [pl.peps_norm(net) for net in nets]
