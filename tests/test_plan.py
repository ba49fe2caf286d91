"""One contraction plan per call, refusals before any layer, and the final pairings."""

import numpy as np
import pytest

import pepslab as pl
from pepslab import contraction
from pepslab.errors import GuardExceeded

from oracles import dense_nev, random_hermitian


def _counted_plans(monkeypatch):
    """Wrap ``contraction._plan``; each call appends "planned" or "refused"."""
    calls, plan = [], contraction._plan

    def counted(*args):
        try:
            out = plan(*args)
        except GuardExceeded:
            calls.append("refused")
            raise
        calls.append("planned")
        return out

    monkeypatch.setattr(contraction, "_plan", counted)
    return calls


def _no_layers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a layer was built")

    monkeypatch.setattr(contraction, "double_layer", refuse)
    monkeypatch.setattr(contraction, "_squares", refuse)


def _calls():
    """Each entry point that plans a contraction, as a function of its guard."""
    net = pl.random_network(5, 5, delta=0.8, seed=5)
    centre = net.graph.vertex_at(2, 2)
    obs = pl.observable_from_matrix((centre,), random_hermitian(net.phys_dim(centre), 6))
    nets = [pl.PepsNetwork(net.graph, {v: pl.Tensor(net.site(v).legs, net.site(v).data * s)
                                       for v in net.graph.vertices}) for s in (1.0, 0.5, 2.0)]
    return {
        "peps_norm": lambda guard: pl.peps_norm(net, guard=guard),
        "nev_report": lambda guard: pl.nev_report(net, obs, guard=guard),
        "patch_nev": lambda guard: pl.patch_nev(net, obs, 2, guard=guard),
        "peps_norms": lambda guard: pl.peps_norms(nets, guard=guard),
    }


@pytest.mark.parametrize("entry", ["peps_norm", "nev_report", "patch_nev", "peps_norms"])
def test_each_call_plans_exactly_once(monkeypatch, entry):
    call = _calls()[entry]
    calls = _counted_plans(monkeypatch)
    contraction._slot = None
    call(pl.BOUNDARY_GUARD)
    assert calls == ["planned"]
    call(pl.BOUNDARY_GUARD)  # a second call on the same network plans again, once
    assert calls == ["planned", "planned"]


@pytest.mark.parametrize("entry", ["peps_norm", "nev_report", "patch_nev", "peps_norms"])
def test_a_refusal_raises_from_the_plan_before_any_layer(monkeypatch, entry):
    call = _calls()[entry]
    calls = _counted_plans(monkeypatch)
    _no_layers(monkeypatch)
    contraction._slot = None
    with pytest.raises(GuardExceeded):
        call(2)
    assert calls == ["refused"]


# Periodic grids at phys dim 2, where the numerator's boundaries meet: in the
# same leg order (2x2), and in another order with a small (2x4) and a large
# (3x3) boundary, which is permuted by one copy either way.
MEETINGS = [(2, 2, (0,), "same"), (2, 2, (0, 2), "same"), (2, 4, (0,), "small"),
            (2, 4, (1, 2), "small"), (3, 3, (4,), "big"), (3, 3, (3, 4), "big")]


@pytest.mark.parametrize("rows,cols,support,meeting", MEETINGS)
def test_the_numerator_pairs_its_boundaries_in_any_leg_order(monkeypatch, rows, cols, support,
                                                             meeting):
    net = pl.random_network(rows, cols, 2, phys_dim=2, seed=1, geometry="periodic-grid")
    dim = 2 ** len(support)
    obs = pl.observable_from_matrix(support, random_hermitian(dim, dim + support[0]),
                                    dims=[2] * len(support))
    seen, pair = [], contraction._pair

    def spy(a, b):
        perm = [b.labels.index(label) for label in a.labels]
        seen.append("same" if perm == sorted(perm) else "permuted")
        return pair(a, b)

    monkeypatch.setattr(contraction, "_pair", spy)
    contraction._slot = None
    report = pl.nev_report(net, obs)
    route = "same" if meeting == "same" else "permuted"
    assert seen == [route, route]  # the norm's pairing, then the numerator's
    want = dense_nev(net, support, obs.matrix())
    assert report["value"] == pytest.approx(want, rel=1e-12, abs=1e-12)
