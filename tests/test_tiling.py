"""Wang tile sets, torus counting routes, interpolation."""

import json

import numpy as np
import pytest

import pepslab as pl
from pepslab import contraction
from pepslab import tensor as tz
from pepslab.errors import GuardExceeded
from pepslab.tiling import (
    WangTileSet,
    count_tilings_exhaustive,
    extrapolate_norm_to_zero,
    interpolated_tensor,
    load_tileset,
    tile_tensor,
    tileset_from_json,
    tileset_to_json,
    tiling_count_via_norm,
    tiling_network,
)

from oracles import count_tilings_python, count_tilings_transfer_python, random_tileset

UNIFORM2 = WangTileSet(2, ((0, 0, 0, 0), (1, 1, 1, 1)))
# the benchmark's 4-tile set
README4 = WangTileSet(2, ((0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0), (1, 1, 0, 1)))


def test_tileset_validation():
    with pytest.raises(ValueError):
        WangTileSet(0, ((0, 0, 0, 0),))
    with pytest.raises(ValueError):
        WangTileSet(2, ())
    with pytest.raises(ValueError):
        WangTileSet(2, ((0, 0, 0),))
    with pytest.raises(ValueError):
        WangTileSet(2, ((0, 0, 0, 2),))
    with pytest.raises(ValueError):
        WangTileSet(2, ((0, 0, 0, 0), (0, 0, 0, 0)))


def test_tile_tensor_is_an_indicator():
    ts = UNIFORM2
    t = tile_tensor(ts)
    m = tz.matrix_view(t, ["phys"], ["left", "top", "right", "bottom"])
    assert m.shape == (2, 16)
    # one-hot rows at the side-color index, row-major over (l, t, r, b)
    want = np.zeros((2, 16))
    want[0, 0] = 1.0
    want[1, 15] = 1.0
    np.testing.assert_allclose(m, want, atol=0)


def test_always_matching_tiles_count_by_color():
    for rows, cols in ((2, 2), (2, 3), (3, 2)):
        assert count_tilings_python(UNIFORM2, rows, cols) == 2
        assert count_tilings_exhaustive(UNIFORM2, rows, cols) == 2
        assert tiling_count_via_norm(UNIFORM2, rows, cols)["count"] == 2


def test_single_tile_counts_one():
    ts = WangTileSet(1, ((0, 0, 0, 0),))
    assert count_tilings_exhaustive(ts, 2, 2) == 1
    assert tiling_count_via_norm(ts, 2, 2)["count"] == 1


def test_mismatched_tile_counts_zero():
    ts = WangTileSet(2, ((0, 1, 0, 0),))  # bottom never matches top
    assert count_tilings_python(ts, 2, 2) == 0
    assert count_tilings_exhaustive(ts, 2, 2) == 0
    assert tiling_count_via_norm(ts, 2, 2)["count"] == 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
def test_counting_routes_agree_with_python_anchor(seed, shape):
    ts = random_tileset(seed)
    want = count_tilings_python(ts, *shape)
    assert count_tilings_exhaustive(ts, *shape) == want
    report = tiling_count_via_norm(ts, *shape)
    assert report["count"] == want
    # products of 0 and 1 and powers of 1/2 are exact in float64
    assert report["residue"] == 0.0


def test_norm_route_reports_the_scaled_norm():
    report = tiling_count_via_norm(UNIFORM2, 2, 2)
    # eight bonds of dimension 2 on the 2x2 torus
    assert report["z"] == pytest.approx(report["norm"] * 2**8)
    assert report["z"] == pytest.approx(2.0, abs=1e-9)


def test_exhaustive_count_accepts_4x4_five_tile_boards():
    # 5**16 assignments, far past any enumeration, but only 5**4 row states
    for seed in (5, 6):
        ts = random_tileset(seed)
        assert count_tilings_exhaustive(ts, 4, 4) == tiling_count_via_norm(ts, 4, 4)["count"]


def test_exhaustive_count_refuses_oversized_boards():
    many = random_tileset(0, count=11)  # 11**3 candidate row states
    with pytest.raises(GuardExceeded, match="row states"):
        count_tilings_exhaustive(many, 3, 3)
    with pytest.raises(GuardExceeded, match="row states"):
        count_tilings_exhaustive(many, 4, 3)
    # with 2**63 assignments or more the count need not fit in int64
    for rows, cols in ((7, 9), (8, 8)):
        with pytest.raises(GuardExceeded, match="int64"):
            count_tilings_exhaustive(UNIFORM2, rows, cols)
    assert count_tilings_exhaustive(UNIFORM2, 2, 31) == 2


def test_interpolated_tensor_definition_and_bound():
    ts = UNIFORM2
    sides = ["left", "top", "right", "bottom"]
    t1 = interpolated_tensor(ts, 1.0)
    np.testing.assert_allclose(tz.matrix_view(t1, ["phys"], sides), np.eye(16), atol=0)
    # definition: (1 - delta) * padded indicator + delta * identity
    pad = np.zeros((16, 16))
    pad[0, 0] = 1.0
    pad[1, 15] = 1.0
    delta = 0.3
    m = tz.matrix_view(interpolated_tensor(ts, delta), ["phys"], sides)
    np.testing.assert_allclose(m, (1 - delta) * pad + delta * np.eye(16), atol=1e-13)
    for delta in (0.6, 0.75, 0.9):
        td = interpolated_tensor(ts, delta)
        sv = tz.singular_values(td, ["phys"], sides)
        assert sv.smallest >= 2 * delta - 1 - 1e-12


def test_tiling_network_sites_and_norm():
    ts = UNIFORM2
    net = tiling_network(ts, 2, 2)
    assert net.graph.geometry == "periodic-grid"
    assert len(net.graph.edges) == 8
    assert all(net.phys_dim(v) == 2 for v in net.graph.vertices)
    from pepslab.contraction import peps_norm

    assert peps_norm(net) * 2**8 == pytest.approx(2.0, abs=1e-9)


def test_interpolated_network_phys_dim_is_padded():
    net = tiling_network(UNIFORM2, 2, 2, delta=0.8)
    assert all(net.phys_dim(v) == 16 for v in net.graph.vertices)


def test_extrapolation_recovers_the_exact_count():
    res = extrapolate_norm_to_zero(UNIFORM2, 2, 2)
    assert res["count"] == 2
    assert res["z"] == pytest.approx(2.0, rel=1e-6)
    assert res["integer_residue"] < 1e-6
    assert res["held_out_residual"] < 1e-9
    assert res["degree"] == 8
    assert len(res["nodes"]) == 9
    assert all(0.5 < x < 1.0 for x in res["nodes"])
    assert res["amplification"] > 1.0


def test_extrapolation_on_a_random_set():
    ts = random_tileset(7, count=3)
    want = count_tilings_exhaustive(ts, 2, 2)
    res = extrapolate_norm_to_zero(ts, 2, 2)
    assert res["count"] == want
    assert res["held_out_residual"] < 1e-9


def test_extrapolation_rejects_underfitting_node_counts():
    with pytest.raises(ValueError):
        extrapolate_norm_to_zero(UNIFORM2, 2, 2, num_nodes=8)


def test_tileset_json_roundtrip(tmp_path):
    ts = random_tileset(9, count=3)
    obj = tileset_to_json(ts)
    back = tileset_from_json(obj)
    assert back.colors == ts.colors
    assert back.tiles == ts.tiles
    path = tmp_path / "tiles.json"
    path.write_text(json.dumps(obj))
    assert load_tileset(str(path)).tiles == ts.tiles


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_transfer_oracle_agrees_with_brute_force(shape):
    for seed in range(4):
        ts = random_tileset(seed, count=3 + seed % 2)
        assert count_tilings_transfer_python(ts, *shape) == count_tilings_python(ts, *shape)


@pytest.mark.parametrize("size,want", [(5, 0), (6, 72)])
def test_norm_counts_boards_beyond_the_full_pair_guard(size, want):
    # with all D**2 (bra, ket) color pairs the 5x5 board needs 2**24 boundary
    # entries; only the D pairs with bra == ket are live in the indicator
    assert count_tilings_transfer_python(README4, size, size) == want
    report = tiling_count_via_norm(README4, size, size)
    assert report["count"] == want
    assert report["residue"] == 0.0


def test_live_pairs_set_the_dry_run_peak():
    net = tiling_network(README4, 4, 4)
    with pytest.raises(GuardExceeded) as err:
        pl.peps_norm(net, guard=1)
    assert err.value.required == 2 ** 10  # 4 ** 10 with every pair kept


def test_bond_with_no_live_pair_counts_zero_without_contracting(monkeypatch):
    ts = WangTileSet(2, ((0, 1, 0, 0),))  # bottom 0 never meets top 1
    net = tiling_network(ts, 8, 8)

    def refuse(*args):
        raise AssertionError("contracted a network with a dead bond")

    monkeypatch.setattr(tz, "contract", refuse)
    assert pl.peps_norm(net) == 0.0
    assert tiling_count_via_norm(ts, 8, 8)["count"] == 0
    obs = pl.observable_from_matrix((0,), np.eye(1))
    assert contraction._contract(net, net.graph.vertices, obs, guard=1, sweep=None) == (0.0, 0j)
    with pytest.raises(ValueError, match="zero norm"):
        pl.nev_report(net, obs)
