"""Wang tile sets, torus counting routes, interpolation."""

import json
import math

import numpy as np
import pytest

import pepslab as pl
from pepslab import contraction
from pepslab import tensor as tz
from pepslab import tiling
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

from oracles import (
    barycentric_weights,
    count_tilings_python,
    count_tilings_transfer_python,
    random_tileset,
)

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


def test_tile_layers_are_squared_in_float64(monkeypatch):
    # indicator tensors are real, so their double layers are built real, not
    # built complex and copied to float64; the counts stay exact
    dtypes = []
    layer = contraction.double_layer

    def recorded(net, v, factor=None):
        out = layer(net, v, factor)
        dtypes.append(out.data.dtype)
        return out

    monkeypatch.setattr(contraction, "double_layer", recorded)
    for ts, shape in ((README4, (3, 3)), (README4, (2, 4)), (random_tileset(4), (3, 3))):
        report = tiling_count_via_norm(ts, *shape)
        assert report["count"] == count_tilings_python(ts, *shape)
        assert report["residue"] == 0.0
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


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
    assert res["roundoff"] < 1e-5
    assert res["degree"] == 8
    assert len(res["nodes"]) == 9
    assert all(0.5 < x < 1.0 for x in res["nodes"])
    assert res["amplification"] > 1.0


def test_extrapolation_on_a_random_set():
    ts = random_tileset(7, count=3)
    want = count_tilings_exhaustive(ts, 2, 2)
    res = extrapolate_norm_to_zero(ts, 2, 2)
    assert res["count"] == want
    assert res["roundoff"] < 1e-5


EXTRAPOLATED_SETS = [README4, random_tileset(2, count=3), random_tileset(7, count=3)]


@pytest.mark.parametrize("ts", EXTRAPOLATED_SETS, ids=["readme4", "rand2", "rand7"])
def test_extrapolation_answers_through_2x3_and_refuses_what_roundoff_decides(ts):
    # one unit of round-off per site puts 1e-6 on a 2x2 count and 0.09 on a
    # 2x3 one, but 7e3 on 2x4 and 1.5e6 on 3x3, whose extrapolations printed
    # -4 and 911 for README4 (exact 0 and 6)
    for shape in ((2, 2), (2, 3)):
        res = extrapolate_norm_to_zero(ts, *shape)
        assert res["count"] == count_tilings_exhaustive(ts, *shape)
        assert res["roundoff"] < 0.5
    for shape in ((2, 4), (3, 3), (3, 4)):
        with pytest.raises(ValueError, match="roundoff"):
            extrapolate_norm_to_zero(ts, *shape)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2)])
def test_extrapolation_samples_2n_plus_1_equispaced_nodes_once(monkeypatch, shape):
    # one peps_norms call of exactly 2n + 1 networks, at delta = x / (4n + 4)
    # for the integers x = 2n + 3 ... 4n + 3, strictly inside (1/2, 1)
    calls, deltas = [], []
    norms = tiling.peps_norms
    interpolated = tiling.interpolated_tensor

    def counted_norms(nets, guard):
        calls.append(len(nets))
        return norms(nets, guard=guard)

    def recorded(ts, delta):
        deltas.append(delta)
        return interpolated(ts, delta)

    monkeypatch.setattr(tiling, "peps_norms", counted_norms)
    monkeypatch.setattr(tiling, "interpolated_tensor", recorded)
    res = extrapolate_norm_to_zero(README4, *shape)
    n = shape[0] * shape[1]
    q = 4 * n + 4
    assert calls == [2 * n + 1]
    assert deltas == res["nodes"]
    np.testing.assert_allclose(np.array(deltas) * q, np.arange(2 * n + 3, 4 * n + 4),
                               rtol=0, atol=1e-12)
    assert all(0.5 < x < 1.0 for x in deltas)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
def test_roundoff_is_the_amplified_unit_per_site(monkeypatch, shape):
    values = []
    norms = tiling.peps_norms

    def kept(nets, guard):
        values.extend(norms(nets, guard=guard))
        return values

    monkeypatch.setattr(tiling, "peps_norms", kept)
    res = extrapolate_norm_to_zero(README4, *shape)
    n = shape[0] * shape[1]
    scale = README4.colors ** (2 * n)
    assert res["roundoff"] == pytest.approx(
        res["amplification"] * n * 2.0 ** -53 * max(map(abs, values)) * scale, rel=1e-12)
    # the product-formula weights read the same samples to within the estimate
    nodes = np.array(res["nodes"])
    terms = barycentric_weights(nodes) / -nodes
    z = float(terms @ np.array(values) / terms.sum()) * scale
    assert abs(z - res["z"]) <= res["roundoff"]


def test_closed_form_weights_are_the_product_formula_up_to_one_scale(monkeypatch):
    for degree in range(2, 25):
        nodes = np.arange(degree + 3, 2 * degree + 4) / (2 * degree + 4)
        closed = np.array([(-1) ** i * math.comb(degree, i) for i in range(degree + 1)])
        ratio = barycentric_weights(nodes) / closed
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-10)
    # the weights the extrapolation uses, read back one sample at a time:
    # with a single nonzero sample f_i, p(0) is (w_i / -x_i) / sum_j (w_j / -x_j)
    for shape in ((2, 2), (2, 3), (2, 4), (3, 3)):
        n = shape[0] * shape[1]
        weights = []
        for i in range(2 * n + 1):
            tiny = [0.0] * (2 * n + 1)
            tiny[i] = 2.0 ** -600
            monkeypatch.setattr(tiling, "peps_norms", lambda nets, guard, f=tiny: f)
            res = extrapolate_norm_to_zero(UNIFORM2, *shape)
            weights.append(-res["nodes"][i] * res["norm_at_zero"] / tiny[i])
        ratio = barycentric_weights(res["nodes"]) / np.array(weights)
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-10)


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


# every two-color tile but (0,0,0,0), and every one but (0,1,1,0)
ALL_BUT_ZERO = WangTileSet(2, tuple(t for t in np.ndindex(2, 2, 2, 2) if t != (0, 0, 0, 0)))
ALL_BUT_0110 = WangTileSet(2, tuple(t for t in np.ndindex(2, 2, 2, 2) if t != (0, 1, 1, 0)))


@pytest.mark.parametrize("ts", [ALL_BUT_ZERO, ALL_BUT_0110], ids=["no-0000", "no-0110"])
def test_counts_at_or_above_2_53_are_refused(ts):
    # the 6x6 counts exceed 2**69: the float64 norm route read 603379021931915247616
    # with residue 0.0 for the first board, whose exact count is 603379021931915302062
    with pytest.raises(ValueError, match="2\\*\\*53"):
        tiling_count_via_norm(ts, 6, 6)


def test_counts_below_2_53_stay_exact():
    assert tiling_count_via_norm(ALL_BUT_ZERO, 5, 5)["count"] == 269749521612333


def test_extrapolated_counts_at_or_above_2_53_are_refused(monkeypatch):
    # a constant norm of 2**53 extrapolates to itself, times 2**8 at 2x2
    monkeypatch.setattr("pepslab.tiling.peps_norms", lambda nets, guard: [2.0 ** 53] * len(nets))
    with pytest.raises(ValueError, match="2\\*\\*53"):
        extrapolate_norm_to_zero(README4, 2, 2)


def _old_tiling_network(ts, rows, cols, delta=None):
    """The construction tiling_network replaced: relabel the base tensor per site."""
    graph = pl.periodic_grid(rows, cols, bond_dim=ts.colors)
    base = tile_tensor(ts) if delta is None else interpolated_tensor(ts, delta)
    tensors = {}
    for r in range(rows):
        for c in range(cols):
            mapping = {"left": f"h{r}.{(c - 1) % cols}", "right": f"h{r}.{c}",
                       "top": f"v{(r - 1) % rows}.{c}", "bottom": f"v{r}.{c}"}
            tensors[r * cols + c] = base.relabeled(mapping)
    return pl.PepsNetwork(graph, tensors)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 5)])
@pytest.mark.parametrize("delta", [None, 0.7])
def test_tiling_network_sites_are_bitwise_the_relabeled_ones(shape, delta):
    for ts in (README4, random_tileset(3, count=4, colors=3)):
        new, old = tiling_network(ts, *shape, delta=delta), _old_tiling_network(ts, *shape, delta)
        for v in old.graph.vertices:
            assert new.site(v).legs == old.site(v).legs
            assert new.site(v).data.dtype == old.site(v).data.dtype
            assert np.array_equal(new.site(v).data, old.site(v).data)


@pytest.mark.parametrize("shape", [(0, 2), (2, 0), (-1, 2), (-2, 3), (3, -2)])
def test_exhaustive_count_refuses_empty_boards(shape):
    # the extrapolation refuses them too, before it counts any node
    for count in (count_tilings_exhaustive, extrapolate_norm_to_zero):
        with pytest.raises(ValueError, match=f"rows={shape[0]}, cols={shape[1]}"):
            count(README4, *shape)


@pytest.mark.parametrize("ts,shape", [(README4, (2, 2)), (README4, (2, 3)), (UNIFORM2, (2, 2))])
def test_extrapolation_matches_one_norm_per_sample(monkeypatch, ts, shape):
    # one peps_norms call plans once and gives every sample's peps_norm bits,
    # so the whole report is the one a norm per sample gave
    prunes = []
    prune = contraction._prune

    def counted(*args):
        prunes.append(args[0])
        return prune(*args)

    monkeypatch.setattr(contraction, "_prune", counted)
    got = extrapolate_norm_to_zero(ts, *shape)
    assert len(prunes) == 1
    monkeypatch.setattr("pepslab.tiling.peps_norms",
                        lambda nets, guard: [pl.peps_norm(n, guard=guard) for n in nets])
    assert got == extrapolate_norm_to_zero(ts, *shape)
