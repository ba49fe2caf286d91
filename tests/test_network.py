"""Network container, grids, injectivity, serialization."""

import json

import numpy as np
import pytest

import pepslab as pl
from pepslab import network
from pepslab import tensor as tz
from pepslab.errors import GuardExceeded
from pepslab.network import (
    Edge,
    explicit_graph,
    observable_from_json,
    observable_to_json,
)

from oracles import arr, dense_state, random_hermitian


def test_open_grid_layout():
    g = pl.open_grid(2, 3)
    assert g.vertices == (0, 1, 2, 3, 4, 5)
    ids = {e.id for e in g.edges}
    assert ids == {"h0.0", "h0.1", "h1.0", "h1.1", "v0.0", "v0.1", "v0.2"}
    e = g.edge("h0.1")
    assert (e.u, e.v) == (1, 2)
    e = g.edge("v0.2")
    assert (e.u, e.v) == (2, 5)
    assert g.vertex_at(1, 2) == 5


def test_periodic_grid_wraps():
    g = pl.periodic_grid(2, 2)
    assert len(g.edges) == 8
    e = g.edge("h0.1")
    assert (e.u, e.v) == (1, 0)
    e = g.edge("v1.0")
    assert (e.u, e.v) == (2, 0)


def test_incident_edges_come_in_neighbour_then_edge_id_order():
    # listed out of order, with two bonds between vertices 0 and 2
    g = explicit_graph([0, 1, 2, 3], [Edge("z", 2, 0, 2), Edge("b", 3, 0, 2), Edge("a", 0, 2, 3),
                                      Edge("m", 1, 0, 2), Edge("c", 2, 1, 2)])
    assert [(e.other(0), e.id) for e in g.incident(0)] == [(1, "m"), (2, "a"), (2, "z"), (3, "b")]
    assert [(e.other(2), e.id) for e in g.incident(2)] == [(0, "a"), (0, "z"), (1, "c")]
    assert [(e.other(3), e.id) for e in g.incident(3)] == [(0, "b")]
    assert g.incident(0) is g.incident(0)  # sorted once, not on every call


def test_incident_edges_on_the_2x2_torus():
    # every neighbouring pair is joined by two bonds, one each way round
    g = pl.periodic_grid(2, 2)
    assert [(e.other(0), e.id) for e in g.incident(0)] == \
        [(1, "h0.0"), (1, "h0.1"), (2, "v0.0"), (2, "v1.0")]
    assert [(e.other(3), e.id) for e in g.incident(3)] == \
        [(1, "v0.1"), (1, "v1.1"), (2, "h1.0"), (2, "h1.1")]


def test_explicit_graph_validation():
    with pytest.raises(ValueError):
        explicit_graph([0, 1], [Edge("e", 0, 1, 2), Edge("e", 1, 0, 2)])
    with pytest.raises(ValueError):
        explicit_graph([0, 1], [Edge("e", 0, 7, 2)])


def test_network_checks_site_legs():
    g = pl.open_grid(1, 2)
    good = tz.from_matrix(np.eye(2), [("phys", 2)], [("h0.0", 2)])
    with pytest.raises(ValueError):
        pl.PepsNetwork(g, {0: good})  # site 1 missing
    bad = tz.from_matrix(np.eye(2), [("phys", 2)], [("wrong", 2)])
    with pytest.raises(ValueError):
        pl.PepsNetwork(g, {0: good, 1: bad})
    wide = tz.from_matrix(np.eye(3), [("phys", 3)], [("h0.0", 3)])
    with pytest.raises(ValueError, match="'h0.0' dim 3 != bond dim 2"):
        pl.PepsNetwork(g, {0: good, 1: wide})


def _chain(m0, m1):
    g = pl.open_grid(1, 2)
    t0 = tz.from_matrix(m0, [("phys", m0.shape[0])], [("h0.0", 2)])
    t1 = tz.from_matrix(m1, [("phys", m1.shape[0])], [("h0.0", 2)])
    return pl.PepsNetwork(g, {0: t0, 1: t1})


def test_site_injectivity_is_singular_value_ratio():
    net = _chain(np.diag([1.0, 0.4]), np.diag([1.0, 0.7]))
    assert pl.site_injectivity(net, 0) == pytest.approx(0.4, abs=1e-14)
    assert pl.site_injectivity(net, 1) == pytest.approx(0.7, abs=1e-14)
    assert pl.peps_injectivity(net) == pytest.approx(0.4, abs=1e-14)


def test_injectivity_zero_when_rank_deficient():
    net = _chain(np.array([[1.0, 1.0], [1.0, 1.0]]), np.diag([1.0, 0.5]))
    assert pl.site_injectivity(net, 0) == 0.0


def test_injectivity_zero_when_phys_too_small():
    net = _chain(np.array([[1.0, 0.5]]), np.diag([1.0, 0.5]))
    assert pl.site_injectivity(net, 0) == 0.0
    assert pl.peps_injectivity(net) == 0.0


@pytest.mark.parametrize("delta", [0.25, 0.6, 0.9])
def test_random_network_hits_requested_injectivity(delta):
    net = pl.random_network(2, 3, delta=delta, seed=4)
    vals = [pl.site_injectivity(net, v) for v in net.graph.vertices]
    assert min(vals) == pytest.approx(delta, abs=1e-12)
    assert all(v >= delta - 1e-12 for v in vals)


def test_random_network_is_deterministic():
    a = pl.random_network(2, 2, delta=0.5, seed=3)
    b = pl.random_network(2, 2, delta=0.5, seed=3)
    c = pl.random_network(2, 2, delta=0.5, seed=4)
    for v in a.graph.vertices:
        assert np.array_equal(arr(a.site(v)), arr(b.site(v)))
    assert any(not np.array_equal(arr(a.site(v)), arr(c.site(v))) for v in a.graph.vertices)


def test_isometric_network_sites_are_isometries():
    net = pl.isometric_network(3, 3, seed=2)
    for v in net.graph.vertices:
        t = net.site(v)
        virt = net.virtual_labels(v)
        m = tz.matrix_view(t, ["phys"], virt)
        np.testing.assert_allclose(m.conj().T @ m, np.eye(m.shape[1]), atol=1e-12)
        assert pl.site_injectivity(net, v) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rows,cols,seed", [(1, 2, 0), (2, 2, 5)])
def test_assemble_state_vector_matches_brute_force(rows, cols, seed):
    net = pl.random_network(rows, cols, seed=seed)
    av = pl.assemble_state_vector(net)
    labs = [f"phys{v}" for v in net.graph.vertices]
    assert set(av.labels) == set(labs)
    got = tz.matrix_view(av, labs, []).reshape([net.phys_dim(v) for v in net.graph.vertices])
    np.testing.assert_allclose(got, dense_state(net), atol=1e-12)


def test_assemble_state_vector_guard_is_a_resource_refusal(monkeypatch):
    net = pl.random_network(2, 2, seed=5)  # total physical dimension 256
    monkeypatch.setattr(network, "STATE_DIM_GUARD", 64)
    with pytest.raises(GuardExceeded) as exc:
        pl.assemble_state_vector(net)
    assert exc.value.limit == 64
    assert exc.value.required > 64


def test_normalize_sigma1_rescales_without_moving_nev():
    net = pl.random_network(2, 2, seed=9)
    obs = pl.observable_from_matrix((1,), random_hermitian(net.phys_dim(1), 0))
    before = pl.peps_nev(net, obs)
    scaled = pl.normalize_sigma1(net)
    for v in scaled.graph.vertices:
        s = tz.singular_values(scaled.site(v), ["phys"], scaled.virtual_labels(v))
        assert s.largest == pytest.approx(1.0, abs=1e-12)
    assert pl.peps_nev(scaled, obs) == pytest.approx(before, abs=1e-10)


def test_site_tensors_are_read_only_and_with_site_copies():
    net = pl.random_network(2, 2, phys_dim=2, seed=1)
    obs = pl.observable_from_matrix((0,), random_hermitian(2, 4))
    with pytest.raises(TypeError):
        net.tensors[0] = net.site(1)
    before = pl.nev_report(net, obs)
    changed = net.with_site(0, pl.random_network(2, 2, phys_dim=2, seed=2).site(0))
    after = pl.nev_report(changed, obs)
    assert after["value"] != before["value"]
    assert after == pl.nev_report(pl.PepsNetwork(changed.graph, changed.tensors), obs)
    assert pl.nev_report(net, obs) == before


def test_network_json_roundtrip_is_bitwise():
    net = pl.random_network(2, 3, delta=0.7, seed=11, geometry="periodic-grid")
    obj = pl.network_to_json(net)
    back = pl.network_from_json(obj)
    assert back.graph.vertices == net.graph.vertices
    assert [e.id for e in back.graph.edges] == [e.id for e in net.graph.edges]
    for v in net.graph.vertices:
        assert back.site(v).labels == net.site(v).labels
        assert np.array_equal(arr(back.site(v)), arr(net.site(v)))
    # serialization must be reproducible byte for byte
    assert json.dumps(obj, sort_keys=True) == json.dumps(pl.network_to_json(back), sort_keys=True)


def test_observable_json_roundtrip():
    m = random_hermitian(4, 3)
    obs = pl.observable_from_matrix((2,), m)
    back = observable_from_json(observable_to_json(obs))
    assert back.support == (2,)
    np.testing.assert_allclose(back.matrix(), m, atol=0)


def test_observable_rejects_non_hermitian():
    with pytest.raises(ValueError):
        pl.observable_from_matrix((0,), np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("skew,hermitian", [(2e-6, False), (1e-13, True)])
def test_hermiticity_tolerance_is_absolute(skew, hermitian):
    # HERMITICITY_TOL times the largest entry, with no relative term on top
    m = np.array([[0.3, 1.0 + skew], [1.0, -0.2]])
    if hermitian:
        pl.observable_from_matrix((0,), m)
    else:
        with pytest.raises(ValueError, match="not Hermitian"):
            pl.observable_from_matrix((0,), m)


def test_observable_with_unequal_site_dims():
    m = random_hermitian(8, 5)
    obs = pl.observable_from_matrix((0, 1), m, dims=(2, 4))
    assert set(obs.operator.labels) == {"in0", "out0", "in1", "out1"}
    assert obs.operator.dim("in0") == 2
    assert obs.operator.dim("in1") == 4
    np.testing.assert_allclose(obs.matrix(), m, atol=0)


def test_observable_dims_must_match_matrix():
    with pytest.raises(ValueError):
        pl.observable_from_matrix((0, 1), np.eye(6), dims=(2, 4))
