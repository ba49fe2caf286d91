"""peps_norms: many networks of one graph, planned once, each value peps_norm's."""

import tracemalloc

import numpy as np
import pytest

import pepslab as pl
from pepslab import contraction
from pepslab import tensor as tz
from pepslab import tiling
from pepslab.circuits import random_circuit
from pepslab.errors import GuardExceeded
from pepslab.tiling import WangTileSet

from oracles import random_hermitian, random_tileset

README4 = WangTileSet(2, ((0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0), (1, 1, 0, 1)))
# top 1 never meets bottom 0, so every vertical bond has no live pair
DEAD4 = WangTileSet(2, ((0, 1, 0, 0), (0, 1, 1, 0), (1, 1, 0, 0), (1, 1, 1, 0)))


def _variants(net, seed, count=4):
    """``net`` and copies with one site each replaced by a rescaled, perturbed one."""
    rng = np.random.default_rng(seed)
    out = [net]
    for v in rng.choice(net.graph.vertices, count, replace=False):
        t = net.site(int(v))
        noise = rng.standard_normal(t.data.shape) * (t.data != 0)  # same zero entries
        out.append(net.with_site(int(v), pl.Tensor(t.legs, t.data * 1.7 + 0.1 * noise)))
    return out


def _real_variants(net, sites):
    """``net`` and copies with one complex site each replaced by its real part."""
    return [net] + [net.with_site(v, pl.Tensor(net.site(v).legs, net.site(v).data.real))
                    for v in sites]


def _tile_samples(sets, rows, cols):
    graph = pl.periodic_grid(rows, cols, bond_dim=2)
    return [tiling._tile_network(graph, tiling.tile_tensor(ts)) for ts in sets]


def _interpolated_samples(ts, rows, cols, deltas):
    graph = pl.periodic_grid(rows, cols, bond_dim=ts.colors)
    return [tiling._tile_network(graph, tiling.interpolated_tensor(ts, d)) for d in deltas]


CASES = {
    "open-4x4": lambda: _variants(pl.random_network(4, 4, delta=0.7, seed=1), 1),
    "torus-3x3": lambda: _variants(pl.random_network(3, 3, seed=2, geometry="periodic-grid"), 2),
    "circuit": lambda: _variants(pl.compile_circuit(random_circuit(6, 4, seed=0), 0.3).network, 3),
    # zgemm on a real site's matrix moves bits of one of these norms that dsyrk gives
    "mixed-real": lambda: _real_variants(pl.random_network(3, 3, bond_dim=3, seed=3), range(9)),
    "tiles": lambda: _tile_samples([DEAD4, README4, random_tileset(4, count=4),
                                    random_tileset(5, count=4)], 3, 3),
    "interpolated-2x3": lambda: _interpolated_samples(README4, 2, 3, np.linspace(0.55, 0.95, 6)),
    "interpolated-3x3": lambda: _interpolated_samples(README4, 3, 3, [0.6, 0.75, 0.9]),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("sweep", [None, "rows"])
def test_values_are_bitwise_those_of_peps_norm(case, sweep):
    nets = CASES[case]()
    want = [pl.peps_norm(net, sweep=sweep) for net in nets]
    assert pl.peps_norms(nets, sweep=sweep) == want
    if case == "tiles":
        assert want[0] == 0.0 and all(w > 0 for w in want[1:])


def test_empty_list_gives_empty_list():
    assert pl.peps_norms([]) == []


def test_networks_must_share_one_graph_and_legs():
    a = pl.random_network(2, 3, seed=0)
    b = pl.random_network(2, 3, seed=1)  # an equal graph, but another object
    with pytest.raises(ValueError, match="LatticeGraph"):
        pl.peps_norms([a, b])
    wide = pl.random_network(2, 3, phys_dim=5, seed=1)
    other = pl.PepsNetwork(a.graph, dict(wide.tensors))
    with pytest.raises(ValueError, match="legs"):
        pl.peps_norms([a, other])


def test_refusal_reports_the_peak_of_peps_norm_and_builds_no_layer(monkeypatch):
    nets = CASES["torus-3x3"]()
    with pytest.raises(GuardExceeded) as single:
        pl.peps_norm(nets[0], guard=16)

    def refuse(*args, **kwargs):
        raise AssertionError("built a layer before the guard")

    monkeypatch.setattr(contraction, "double_layer", refuse)
    monkeypatch.setattr(contraction, "_squares", refuse)
    with pytest.raises(GuardExceeded) as many:
        pl.peps_norms(nets, guard=16)
    assert many.value.required == single.value.required


def test_non_finite_sample_is_refused_as_by_peps_norm():
    base = pl.random_network(4, 4, seed=23)
    # every site scaled by 1e40: the squared norm overflows inside the contraction
    huge = pl.PepsNetwork(base.graph, {v: base.site(v).scaled(1e40) for v in base.graph.vertices})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite") as single:
            pl.peps_norm(huge)
        with pytest.raises(ValueError, match="finite") as many:
            pl.peps_norms([base, huge])
    assert str(many.value) == str(single.value)


def test_a_small_guard_splits_the_samples_into_chunks(monkeypatch):
    nets = CASES["open-4x4"]()
    want = pl.peps_norms(nets)
    with pytest.raises(GuardExceeded) as err:
        pl.peps_norm(nets[0], guard=1)
    entries = sum(4 ** len(net.graph.incident(v)) for net in nets[:1] for v in net.graph.vertices)
    guard = 2 * entries + 1  # two samples' layers fit, three do not
    assert err.value.required <= guard
    chunks = []
    stacks = contraction._Plan.stacks

    def counted(plan, chunk):
        chunks.append(len(chunk))
        return stacks(plan, chunk)

    monkeypatch.setattr(contraction._Plan, "stacks", counted)
    assert pl.peps_norms(nets, guard=guard) == want
    assert chunks == [2, 2, 1]


def test_the_engine_cache_survives_a_call_in_between(monkeypatch):
    net = pl.random_network(4, 4, delta=0.8, seed=5)
    centre = net.graph.vertex_at(2, 1)
    obs = pl.observable_from_matrix((centre,), random_hermitian(net.phys_dim(centre), 6))
    others = CASES["open-4x4"]()
    built = []
    layer = contraction.double_layer

    def counted(net, v, factor=None):
        built.append(v)
        return layer(net, v, factor)

    monkeypatch.setattr(contraction, "double_layer", counted)
    reports, builds = [], []
    for between in (False, True):
        contraction._slot = None
        pl.peps_norm(net)
        if between:
            pl.peps_norms(others)
        built.clear()
        reports.append(pl.nev_report(net, obs))
        builds.append(len(built))
    assert reports[0] == reports[1]
    assert builds[0] == builds[1] < len(net.graph.vertices)  # resumed, not rebuilt


def test_bonds_dead_in_every_sample_give_zeros_without_contracting(monkeypatch):
    # every top is 1 and every bottom 0, in both sets
    sets = [WangTileSet(2, ((0, 1, 0, 0), (1, 1, 1, 0))), WangTileSet(2, ((0, 1, 1, 0), (1, 1, 0, 0)))]
    nets = _tile_samples(sets, 4, 4)

    def refuse(*args, **kwargs):
        raise AssertionError("contracted a network with a dead bond")

    monkeypatch.setattr(contraction, "_squares", refuse)
    monkeypatch.setattr(contraction, "_absorb", refuse)
    monkeypatch.setattr(contraction, "_replay", refuse)
    assert pl.peps_norms(nets) == [0.0, 0.0]


def _readme_extrapolation_samples():
    """The 22 samples the README4 3x3 extrapolation takes, at its nodes and held-out points."""
    return _interpolated_samples(README4, 3, 3, 0.5 + 0.5 * np.arange(1, 23) / 23)


def test_steps_are_derived_once_per_chunk_not_per_sample(monkeypatch):
    # each of the 9 steps (6 of the suffix, 3 of the prefix) derives its layout
    # once; the 22 samples replay it
    nets = _readme_extrapolation_samples()
    want = [pl.peps_norm(net) for net in nets]
    derived = []
    run = tz._run

    def counted(*args):
        derived.append(args)
        return run(*args)

    monkeypatch.setattr(tz, "_run", counted)
    assert pl.peps_norms(nets) == want
    assert len(derived) == len(nets[0].graph.vertices) == 9


@pytest.mark.parametrize("case,count,walks", [
    ("open-4x4", 16, False), ("torus-3x3", 9, True), ("circuit", 8, True)])
def test_peps_norm_derives_the_steps_that_peps_norms_replays(monkeypatch, case, count, walks):
    # one absorption path: each boundary is scheduled from its legs and
    # replayed, so a norm alone and a batch of one run the same steps
    net = {"open-4x4": lambda: pl.random_network(4, 4, seed=0),
           "torus-3x3": lambda: pl.random_network(3, 3, seed=0, geometry="periodic-grid"),
           "circuit": lambda: pl.compile_circuit(random_circuit(4, 3, seed=0), 0.5).network}[case]()
    derived = []
    schedule = contraction._schedule

    def recorded(*args):
        steps = schedule(*args)
        derived.extend((type(step), step.legs, step.shape) for step in steps)
        return steps

    monkeypatch.setattr(contraction, "_schedule", recorded)
    contraction._slot = None
    alone = pl.peps_norm(net)
    single, derived[:] = list(derived), []
    assert pl.peps_norms([net]) == [alone]
    assert derived == single
    assert len(single) == count
    assert any(kind is tz._Product for kind, _, _ in single) == walks


def test_absolute_pass_of_each_sample_is_that_of_peps_norm(monkeypatch):
    # the check's absolute pass, forced for every value: each sample's scale
    # is the one peps_norm computes for its network
    nets = CASES["torus-3x3"]() + CASES["open-4x4"]()[:2]
    monkeypatch.setattr(contraction, "_real_scalar", lambda value, scale: scale())
    for part in (nets[:5], nets[5:]):
        assert pl.peps_norms(part) == [pl.peps_norm(net) for net in part]


def test_replay_holds_no_more_memory_than_absorbing_each_sample():
    # 3x3 torus, bonds of 4 kept indices: the largest boundary holds 4**8
    # float64 entries (512 KiB). Absorbing each sample with boundaries
    # allocated per step peaks at 1.80 MB (numpy 2.4); the replay holds two of
    # the largest, the suffix, one walk's block and the layer stacks.
    nets = _readme_extrapolation_samples()
    pl.peps_norms(nets)
    tracemalloc.start()
    try:
        pl.peps_norms(nets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_804_441
