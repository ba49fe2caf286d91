"""Exact contraction engine against dense brute-force oracles."""

import collections
import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

import pepslab as pl
from pepslab import contraction
from pepslab import tensor as tz
from pepslab.circuits import random_circuit
from pepslab.contraction import _expectation, _real_scalar, double_layer, mixed_closure, sweep_order
from pepslab.errors import GuardExceeded
from pepslab.tiling import WangTileSet, tiling_network

from oracles import (
    arr,
    dense_nev,
    dense_norm,
    dense_patch_nev,
    dense_state,
    einsum_nev,
    random_hermitian,
)

CASES = [
    dict(rows=1, cols=3, bond_dim=2, phys_dim=2, seed=1),
    dict(rows=2, cols=2, bond_dim=2, phys_dim=3, seed=2),
    dict(rows=2, cols=2, bond_dim=3, phys_dim=4, seed=3),
    dict(rows=2, cols=3, bond_dim=2, phys_dim=2, seed=4),
]


@pytest.mark.parametrize("case", CASES)
def test_norm_matches_dense_oracle(case):
    net = pl.random_network(**case)
    want = dense_norm(net)
    got = pl.peps_norm(net)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


# Support first in the order (no prefix), inside it (prefix and suffix) and
# last (no suffix). A one-site observable leaves every peak as it is for the
# norm, so these cases run the cols order (tie or smaller peak); the interior
# cases keep the plain case ids.
SINGLE_SITE = [
    pytest.param(case, where, id=f"case{i}" if where == "interior" else f"case{i}-{where}")
    for i, case in enumerate(CASES) for where in ("first", "interior", "last")
]


@pytest.mark.parametrize("case,where", SINGLE_SITE)
def test_single_site_nev_matches_dense_oracle(case, where):
    net = pl.random_network(**case)
    order = sweep_order(net.graph, "cols")
    v = order[{"first": 0, "interior": len(order) // 2, "last": -1}[where]]
    m = random_hermitian(net.phys_dim(v), case["seed"] + 50)
    obs = pl.observable_from_matrix((v,), m)
    want = dense_nev(net, (v,), m)
    assert pl.peps_nev(net, obs) == pytest.approx(want, abs=1e-11)
    assert pl.peps_nev(net, obs, sweep="cols") == pytest.approx(want, abs=1e-11)


def test_adjacent_pair_nev_matches_dense_oracle():
    net = pl.random_network(2, 2, phys_dim=3, seed=6)
    m = random_hermitian(9, 60)
    obs = pl.observable_from_matrix((0, 1), m, dims=(3, 3))
    assert pl.peps_nev(net, obs) == pytest.approx(dense_nev(net, (0, 1), m), abs=1e-11)


def test_distant_pair_nev_matches_dense_oracle():
    # support on opposite corners, not joined by any edge
    net = pl.random_network(2, 2, phys_dim=2, seed=7)
    m = random_hermitian(4, 61)
    obs = pl.observable_from_matrix((0, 3), m, dims=(2, 2))
    assert pl.peps_nev(net, obs) == pytest.approx(dense_nev(net, (0, 3), m), abs=1e-11)


def _random_operator(dims, product, seed):
    """Hermitian operator on sites of the given dims: a product of one-site
    operators, or a random full-rank one."""
    if product:
        out = np.eye(1)
        for i, d in enumerate(dims):
            out = np.kron(out, random_hermitian(d, seed + i))
        return out
    return random_hermitian(int(np.prod(dims)), seed)


# Supports out of graph order on a 2x3 grid (sites 0-2 bottom row, 3-5 top),
# so the operator chain runs against the contraction order.
@pytest.mark.parametrize("product", [False, True], ids=["full-rank", "product"])
@pytest.mark.parametrize("support", [(4, 0, 2), (5, 1, 3), (3, 0, 5, 1), (2, 4, 1, 3)])
def test_multi_site_nev_matches_dense_oracle(support, product):
    net = pl.random_network(2, 3, phys_dim=2, seed=len(support) + sum(support))
    m = _random_operator((2,) * len(support), product, 70 + support[0])
    obs = pl.observable_from_matrix(support, m, dims=(2,) * len(support))
    assert pl.peps_nev(net, obs) == pytest.approx(dense_nev(net, support, m), abs=1e-11)


@pytest.mark.parametrize("edge_id", ["bra@0", "~0", "~~0", "~op0"])
def test_operator_bonds_never_meet_an_edge_id(edge_id):
    # a 3-site chain whose edge 1-2 carries a label the engine could use for
    # its own legs: an open physical leg (bra@0 with phys dim 4 matches the
    # fused bond dim, so it used to contract silently) or an operator bond
    rng = np.random.default_rng(5)
    graph = pl.explicit_graph([0, 1, 2], [pl.Edge("a", 0, 1, 2), pl.Edge(edge_id, 1, 2, 2)])

    def site(*legs):
        legs += (("phys", 4),)
        shape = [d for _, d in legs]
        return tz.Tensor(legs, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    net = pl.PepsNetwork(graph, {0: site(("a", 2)), 1: site(("a", 2), (edge_id, 2)),
                                 2: site((edge_id, 2))})
    m = random_hermitian(16, 9)
    obs = pl.observable_from_matrix((0, 2), m, dims=(4, 4))
    assert pl.peps_nev(net, obs) == pytest.approx(dense_nev(net, (0, 2), m), abs=1e-11)


def test_compiled_circuit_pair_fits_the_default_guard():
    # the open physical legs of (0, 1) needed 2**24 entries
    net = pl.compile_circuit(random_circuit(4, 2, seed=1), 0.5).network
    dims = (net.phys_dim(0), net.phys_dim(1))
    m = random_hermitian(dims[0] * dims[1], 11)
    obs = pl.observable_from_matrix((0, 1), m, dims=dims)
    assert pl.peps_nev(net, obs) == pytest.approx(einsum_nev(net, (0, 1), m), abs=1e-11)


def _zz(net, u, v):
    dims = (net.phys_dim(u), net.phys_dim(v))
    z = [np.diag([1.0, -1.0] * (d // 2)) for d in dims]
    return pl.observable_from_matrix((u, v), np.kron(*z), dims=dims)


def test_interior_product_pair_matches_the_rows_sweep():
    # Z x Z on (2,2)-(2,3) of a 6x6 grid: the open physical legs needed 2**30
    net = pl.random_network(6, 6, delta=0.8, seed=0)
    obs = _zz(net, net.graph.vertex_at(2, 2), net.graph.vertex_at(2, 3))
    got = pl.peps_nev(net, obs)
    assert got == pytest.approx(pl.peps_nev(net, obs, sweep="rows"), abs=1e-11)
    assert got == pytest.approx(0.0042024, abs=1e-7)


def test_every_nearest_neighbour_product_pair_costs_one_norm():
    # with open physical legs, 15 of these 60 pairs fit the default guard
    net = pl.random_network(6, 6, delta=0.8, seed=0)
    with pytest.raises(GuardExceeded) as err:
        pl.peps_norm(net, guard=1)
    norm_peak = err.value.required
    for e in net.graph.edges:
        with pytest.raises(GuardExceeded) as err:
            pl.nev_report(net, _zz(net, e.u, e.v), guard=1)
        assert err.value.required == norm_peak


def test_full_rank_pair_beyond_the_guard_reports_norm_peak_times_rank():
    # interior sites of phys dim 16: the operator bond has rank 256
    net = pl.random_network(6, 6, seed=3)
    dims = (net.phys_dim(14), net.phys_dim(15))
    obs = pl.observable_from_matrix((14, 15), random_hermitian(256, 2), dims=dims)
    with pytest.raises(GuardExceeded) as err:
        pl.nev_report(net, obs)
    assert err.value.required == 16384 * 256 == 4194304


def test_norm_round_off_below_zero_is_clamped():
    # site 1 carries w and -w on its two bond values, so the state cancels to
    # zero and the contracted norm comes out at about -5e-16
    rng = np.random.default_rng(0)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    net = pl.PepsNetwork(pl.open_grid(1, 3), {
        0: tz.Tensor((("h0.0", 2), ("phys", 2)), np.stack([v, v])),
        1: tz.Tensor((("h0.0", 2), ("h0.1", 2), ("phys", 2)), np.stack([w, -w])),
        2: tz.Tensor((("h0.1", 2), ("phys", 2)), u),
    })
    assert pl.peps_norm(net) == 0.0
    with pytest.raises(ValueError, match="zero norm"):
        pl.nev_report(net, pl.observable_from_matrix((0,), np.eye(2)))


@pytest.mark.parametrize("what", ["peps_norm", "nev_report", "patch_nev"])
def test_overflowing_network_is_refused(what):
    # every site scaled by 1e40: the squared norm, about 1e1280, overflows to
    # inf or nan inside the contraction, and the check of the final scalars
    # refuses it (no intermediate is scanned)
    net = pl.random_network(4, 4, seed=23)
    net = pl.PepsNetwork(net.graph, {v: net.site(v).scaled(1e40) for v in net.graph.vertices})
    site = net.graph.vertex_at(1, 1)
    obs = pl.observable_from_matrix((site,), random_hermitian(net.phys_dim(site), 4))
    calls = {"peps_norm": lambda: pl.peps_norm(net),
             "nev_report": lambda: pl.nev_report(net, obs),
             "patch_nev": lambda: pl.patch_nev(net, obs, 3)}  # radius 3 covers the lattice
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
        calls[what]()


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(np.inf, 0.0),
                                 complex(1.0, np.nan), complex(-np.inf, 1.0)])
def test_non_finite_norm_and_numerator_are_refused(bad):
    # max(nan, 0.0) is nan, so the clamp alone would pass a nan norm through
    with pytest.raises(ValueError, match="finite"):
        _real_scalar(bad, lambda: 1.0)
    with pytest.raises(ValueError, match="finite"):
        _expectation(1.0, bad, "state")


@pytest.mark.parametrize("norm", [np.nan, np.inf])
def test_non_finite_norm_gives_no_expectation(norm):
    with pytest.raises(ValueError, match="finite"):
        _expectation(norm, 0.5, "state")


def test_peak_memory_stays_near_the_largest_boundary(monkeypatch):
    # 5x5 D=3: the largest boundary holds 531441 entries (8.1 MiB). A step holds
    # its input and its output; nev_report also holds the suffix.
    net = pl.random_network(5, 5, bond_dim=3, seed=0)
    centre = net.graph.vertex_at(2, 2)
    obs = pl.observable_from_matrix((centre,), random_hermitian(net.phys_dim(centre), 5))
    sizes = []
    schedule = contraction._schedule

    def recorded(*args):
        steps = schedule(*args)
        sizes.extend(step.size for step in steps)
        return steps

    with monkeypatch.context() as patched:
        patched.setattr(contraction, "_schedule", recorded)
        pl.nev_report(net, obs)
    boundary = 16 * max(sizes)
    assert max(sizes) == 3 ** 12

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: pl.peps_norm(net)) <= 2.5 * boundary
    assert peak(lambda: pl.nev_report(net, obs)) <= 3.5 * boundary


def test_a_pass_lets_each_layer_go(monkeypatch):
    # when step i of a pass runs, the layer that step i - 1 absorbed has no
    # reference left, so a pass holds one layer at a time; the absolute pass
    # (forced here) too
    net = pl.random_network(4, 4, seed=3)
    centre = net.graph.vertex_at(2, 1)
    obs = pl.observable_from_matrix((centre,), random_hermitian(net.phys_dim(centre), 4))
    state = {"pass": None}
    alive = []
    replay = contraction._replay

    def recorded_replay(*args, **kwargs):
        state["pass"] = []
        try:
            return replay(*args, **kwargs)
        finally:
            state["pass"] = None

    def fed(operand):
        def recorded(step, b, batch=0):
            if state["pass"] is not None:
                state["pass"].append(weakref.ref(b))
            return operand(step, b, batch)
        return recorded

    def ran(into):
        def checked(step, a, b, out, scratch=None):
            if state["pass"] is not None:
                alive.append(sum(ref() is not None for ref in state["pass"][:-1]))
                permuted.append(step.lead is not None)
            return into(step, a, b, out, scratch)
        return checked

    permuted = []
    monkeypatch.setattr(contraction, "_replay", recorded_replay)
    monkeypatch.setattr(tz._Run, "operand", fed(tz._Run.operand))
    monkeypatch.setattr(tz._Run, "into", ran(tz._Run.into))
    contraction._slot = None
    pl.peps_norm(net)
    contraction._slot = None
    pl.nev_report(net, obs)
    monkeypatch.setattr(contraction, "_real_scalar", lambda value, scale: scale())
    pl.peps_norm(net)
    assert len(alive) > 3 * 16
    assert alive == [0] * len(alive)
    assert not any(permuted)  # an open grid: every step writes in place


def _count_steps(monkeypatch) -> collections.Counter:
    """Counts of absorption steps scheduled to write in place and of those that
    copy a permuted boundary first (``step.lead is not None``)."""
    counts = collections.Counter()
    schedule = contraction._schedule

    def counted_schedule(*args):
        steps = schedule(*args)
        counts.update("in place" if step.lead is None else "permuted" for step in steps)
        return steps

    monkeypatch.setattr(contraction, "_schedule", counted_schedule)
    return counts


@pytest.mark.parametrize("sweep", ["cols", "rows"])
@pytest.mark.parametrize("rows,cols,bond_dim", [(8, 8, 2), (5, 5, 3)], ids=["8x8-D2", "5x5-D3"])
def test_grid_steps_never_copy_the_boundary(monkeypatch, rows, cols, bond_dim, sweep):
    # every step writes its new legs where the contracted ones sat, so no
    # boundary is permuted, and the forward and backward boundaries meet in
    # the same leg order
    net = pl.random_network(rows, cols, bond_dim=bond_dim, seed=0)
    centre = net.graph.vertex_at(rows // 2, cols // 2)
    one = pl.observable_from_matrix((centre,), random_hermitian(net.phys_dim(centre), 6))
    pair = (net.graph.vertex_at(0, cols // 2), net.graph.vertex_at(0, cols // 2 + 1))
    d, e = (net.phys_dim(v) for v in pair)
    product = np.kron(random_hermitian(d, 7), random_hermitian(e, 8))
    two = pl.observable_from_matrix(pair, product, dims=(d, e))
    counts = _count_steps(monkeypatch)
    calls = [lambda: pl.peps_norm(net, sweep=sweep),
             lambda: pl.nev_report(net, one, sweep=sweep),
             lambda: pl.nev_report(net, two, sweep=sweep)]
    for call in calls:
        contraction._slot = None
        call()
    assert counts["in place"] > 3 * rows * cols
    assert counts["permuted"] == 0


def _oracle_case(kind):
    """A network, an observable, the engine's value and the oracle's."""
    if kind == "circuit":
        compiled = pl.compile_circuit(random_circuit(4, 2, seed=1), 0.5)
        obs = pl.readout_observable(compiled, 2, Z)
        net = compiled.network
        return pl.peps_nev(net, obs), einsum_nev(net, obs.support, obs.matrix())
    if kind == "periodic":
        net = pl.random_network(3, 3, phys_dim=2, seed=35, geometry="periodic-grid")
    else:
        net = pl.random_network(3, 4, phys_dim=2, seed=35)
    support = (4, 5)
    m = random_hermitian(4, 43)
    obs = pl.observable_from_matrix(support, m, dims=(2, 2))
    if kind.startswith("patch"):
        net = pl.random_network(6, 6, phys_dim=2, seed=35)
        support = (14,)
        m = random_hermitian(2, 44)
        obs = pl.observable_from_matrix(support, m)
        radius = int(kind[-1])
        sites = pl.make_patch(net, support, radius).interior
        return pl.patch_nev(net, obs, radius), dense_patch_nev(net, sites, support, m)
    sweep = kind.split("-")[1] if kind.startswith("open") else None
    return pl.peps_nev(net, obs, sweep=sweep), dense_nev(net, support, m)


@pytest.mark.parametrize("kind", ["open-cols", "open-rows", "periodic", "patch-r1", "patch-r2",
                                  "circuit"])
def test_both_step_paths_match_the_oracles(monkeypatch, kind):
    # open grids and patches run every step in place; periodic grids and
    # compiled circuits mix in-place steps with steps that permute the boundary
    counts = _count_steps(monkeypatch)
    got, want = _oracle_case(kind)
    assert got == pytest.approx(want, abs=1e-12)
    assert counts["in place"] > 0
    assert (counts["permuted"] > 0) == (kind in ("periodic", "circuit"))


def test_environment_cache_stays_within_its_budget_until_another_network():
    # 5x5 D=3: the largest boundary holds 3**12 float64 entries (4.1 MiB). A
    # norm, then every one-site value along the order (a scan, which keeps
    # every cut it passes): after each call the slot holds at most
    # ENV_BOUNDARIES of them; a call on another network frees them all
    net = pl.random_network(5, 5, bond_dim=3, seed=0)
    boundary = 8 * 3 ** 12
    budget = contraction.ENV_BOUNDARIES * boundary
    calls = [pl.peps_norm] + [
        lambda n, v=v: pl.nev_report(n, pl.observable_from_matrix(
            (v,), np.diag(np.arange(float(n.phys_dim(v))))))
        for v in sweep_order(net.graph)]
    held = []
    tracemalloc.start()
    try:
        for call in calls:
            call(net)
            held.append(tracemalloc.get_traced_memory()[0])
            assert contraction._slot.env.nbytes <= budget
        pl.peps_norm(pl.random_network(2, 2, seed=1))
        gc.collect()  # which also empties the interpreter's free lists
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert max(held) <= budget + boundary / 10
    assert max(held) >= budget / 2  # the scan fills the cache
    assert after < boundary / 100


def test_centre_value_after_the_norm_builds_one_column(monkeypatch):
    # 8x8 D=2: the norm leaves the column cuts of both passes, so the centre
    # value resumes one cut below its site and one above, and builds the
    # layers of one column (its own twice: plain and with the operator)
    net = pl.random_network(8, 8, bond_dim=2, delta=0.8, seed=1)
    centre = net.graph.vertex_at(4, 4)
    obs = pl.observable_from_matrix((centre,), random_hermitian(net.phys_dim(centre), 9))
    pl.peps_norm(net)
    built = []
    stacked = contraction._stacked_layers

    def recorded(net, v, factor=None):
        built.append(v)
        return double_layer(net, v, factor)

    def recorded_stack(net, sites, keep):
        built.extend(sites)
        return stacked(net, sites, keep)

    monkeypatch.setattr(contraction, "double_layer", recorded)
    monkeypatch.setattr(contraction, "_stacked_layers", recorded_stack)
    got = pl.nev_report(net, obs)
    assert len(built) <= 8 + 2
    assert {v % 8 for v in built} == {4}
    assert got == pl.nev_report(pl.PepsNetwork(net.graph, net.tensors), obs)


def test_scan_of_every_site_costs_at_most_four_norms(monkeypatch):
    # 8x8 D=2, a norm and then all 64 one-site values along the contraction
    # order: the scan keeps the cuts it passes, so each value costs its two
    # layers and about one step of the suffix
    net = pl.random_network(8, 8, bond_dim=2, delta=0.8, seed=1)
    order = sweep_order(net.graph)
    obs = [pl.observable_from_matrix((v,), random_hermitian(net.phys_dim(v), v)) for v in order]
    pl.peps_norm(net)
    steps = collections.Counter()
    schedule = contraction._schedule

    def counted(*args):
        derived = schedule(*args)
        steps["absorbed"] += len(derived)
        return derived

    with monkeypatch.context() as patched:
        patched.setattr(contraction, "_schedule", counted)
        got = [pl.nev_report(net, o) for o in obs]
    assert steps["absorbed"] <= 4 * len(order)
    assert got == [pl.nev_report(pl.PepsNetwork(net.graph, net.tensors), o) for o in obs]


@pytest.mark.parametrize("geometry,shape", [("open-grid", (4, 5)), ("periodic-grid", (3, 4)),
                                            ("periodic-grid", (4, 4))])
def test_norm_pairs_at_the_middle_cut_to_round_off(geometry, shape):
    # the norm's passes meet at a column cut, in one leg order on the open
    # grid and in two on the tori (a cut of 4096 or 65536 entries, permuted
    # by one copy); a one-site identity pairs
    # its passes elsewhere, and the forward pass alone ends at the last site
    net = pl.random_network(*shape, phys_dim=2, seed=12, geometry=geometry)
    order = sweep_order(net.graph)
    norm = pl.peps_norm(net)
    for v in (order[0], order[7], order[-1]):
        assert pl.nev_report(net, pl.observable_from_matrix((v,), np.eye(2)))["norm"] == \
            pytest.approx(norm, rel=1e-14)


Z = np.diag([1.0, -1.0]).astype(np.complex128)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


@pytest.mark.parametrize("width,depth", [(6, 4), (8, 6), (6, 7)])
def test_every_wire_readout_equals_a_fresh_network(width, depth):
    compiled = pl.compile_circuit(random_circuit(width, depth, seed=1), 0.3)
    net = compiled.network
    for m in (Z, X):
        obs = [pl.readout_observable(compiled, w, m) for w in range(width)]
        got = [pl.nev_report(net, o) for o in obs]
        assert got == [pl.nev_report(pl.PepsNetwork(net.graph, net.tensors), o) for o in obs]


def test_interleaved_calls_give_the_fresh_values():
    a = pl.random_network(4, 4, phys_dim=2, seed=3)
    b = pl.random_network(3, 4, seed=5)
    early, late = a.graph.vertex_at(2, 1), a.graph.vertex_at(1, 2)
    one = pl.observable_from_matrix((late,), random_hermitian(2, 2))
    two = pl.observable_from_matrix((early, late), random_hermitian(4, 3), dims=(2, 2))
    calls = [
        (a, lambda n: pl.nev_report(n, two)),
        (a, lambda n: pl.nev_report(n, one)),  # a later support: resumes
        (a, pl.peps_norm),  # resumes from the last prefix
        (a, lambda n: pl.nev_report(n, two)),  # an earlier support: recontracts
        (b, pl.peps_norm),
        (a, lambda n: pl.nev_report(n, one)),
        (a, lambda n: pl.patch_nev(n, one, 1)),
        (a, lambda n: pl.nev_report(n, one, sweep="rows")),
        (a, lambda n: pl.peps_norm(n, sweep="rows")),  # resumes
        (a, pl.peps_norm),
        (a, lambda n: pl.nev_report(n, two, sweep="rows")),
        (a, lambda n: pl.nev_report(n, one)),  # a prefix of the other sweep
        (b, pl.peps_norm),
    ]
    got = [call(net) for net, call in calls]
    assert got == [call(pl.PepsNetwork(net.graph, net.tensors)) for net, call in calls]


def test_other_kept_indices_start_a_fresh_prefix():
    # site 1 copies its bond index to its physical index, so its plain layer
    # keeps 3 of the 9 pairs of the bond to the dense site 0, and a swap of
    # physical indices 0 and 1 there keeps 5: the prefix of the first readout,
    # site 0, does not fit the second
    rng = np.random.default_rng(3)
    net = pl.PepsNetwork(pl.open_grid(1, 2, bond_dim=3), {
        0: tz.Tensor((("h0.0", 3), ("phys", 2)), rng.normal(size=(3, 2)) + 0j),
        1: tz.Tensor((("h0.0", 3), ("phys", 3)), np.eye(3) + 0j),
    })
    calls = [pl.observable_from_matrix((1,), np.diag([1.0, 2.0, 3.0])),
             pl.observable_from_matrix((1,), np.eye(3)[[1, 0, 2]])]
    got = [pl.nev_report(net, obs) for obs in calls]
    assert got == [pl.nev_report(pl.PepsNetwork(net.graph, net.tensors), obs) for obs in calls]


def test_second_wire_of_a_cell_builds_no_layer_before_its_support(monkeypatch):
    compiled = pl.compile_circuit(random_circuit(6, 4, seed=2), 0.3)
    net = compiled.network
    obs = [pl.readout_observable(compiled, w, Z) for w in range(6)]
    first, second = next((u, w) for u, w in itertools.combinations(obs, 2)
                         if u.support == w.support)
    site = first.support[0]
    pl.nev_report(net, first)
    built = []

    def recorded(net, v, factor=None):
        built.append(v)
        return double_layer(net, v, factor)

    monkeypatch.setattr(contraction, "double_layer", recorded)
    pl.nev_report(net, second)
    assert built == [site, site]  # the prefix and the suffix both resume


def test_refusal_empties_the_slot_and_it_keeps_no_network_alive():
    net = pl.random_network(3, 3, seed=1)
    pl.peps_norm(net)
    assert contraction._slot.env.held
    with pytest.raises(GuardExceeded):
        pl.peps_norm(net, guard=1)
    assert contraction._slot is None
    pl.peps_norm(net)
    ref = weakref.ref(net)
    del net
    gc.collect()
    assert ref() is None


def test_absolute_pass_on_a_resumed_prefix_matches_a_fresh_network(monkeypatch):
    # the state cancels to zero, so the norm comes out at about -5e-16 and
    # _real_scalar needs the absolute pass, which builds every layer again
    rng = np.random.default_rng(0)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    w = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    net = pl.PepsNetwork(pl.open_grid(1, 3), {
        0: tz.Tensor((("h0.0", 2), ("phys", 2)), np.stack([v, v])),
        1: tz.Tensor((("h0.0", 2), ("h0.1", 2), ("phys", 2)), np.stack([w, -w])),
        2: tz.Tensor((("h0.1", 2), ("phys", 2)), u),
    })
    seen, built = [], []
    real_scalar = contraction._real_scalar

    def recorded_scalar(value, abs_scale_fn):
        seen.append((value, abs_scale_fn()))
        return real_scalar(value, lambda: seen[-1][1])

    def recorded_layer(net, v, factor=None):
        built.append(v)
        return double_layer(net, v, factor)

    monkeypatch.setattr(contraction, "_real_scalar", recorded_scalar)
    monkeypatch.setattr(contraction, "double_layer", recorded_layer)
    with pytest.raises(ValueError, match="zero norm"):
        pl.nev_report(net, pl.observable_from_matrix((2,), np.eye(2)))
    built.clear()
    resumed = pl.peps_norm(net)
    # the prefix to the cut after site 0 resumes; the suffix is built back to
    # it, and then the absolute pass builds its own layers
    assert built == [2, 1, 0, 1, 2]
    fresh = pl.peps_norm(pl.PepsNetwork(net.graph, net.tensors))
    assert resumed == fresh == 0.0
    assert seen[1][0].real < 0 and seen[1] == seen[2]


def test_periodic_norm_matches_dense_oracle():
    net = pl.random_network(2, 2, phys_dim=2, seed=8, geometry="periodic-grid")
    assert pl.peps_norm(net) == pytest.approx(dense_norm(net), rel=1e-12)


def test_row_and_column_sweeps_agree():
    net = pl.random_network(3, 4, seed=9)
    a = pl.peps_norm(net, sweep="cols")
    b = pl.peps_norm(net, sweep="rows")
    assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 4)])
def test_isometric_network_has_unit_norm(rows, cols):
    net = pl.isometric_network(rows, cols, seed=rows * 10 + cols)
    assert pl.peps_norm(net) == pytest.approx(1.0, abs=1e-12)


def test_unknown_sweep_is_rejected_on_every_geometry():
    circuit_net = pl.compile_circuit(random_circuit(4, 2, seed=1), 0.5).network
    for graph in (pl.open_grid(2, 2), pl.periodic_grid(2, 2), circuit_net.graph):
        with pytest.raises(ValueError, match="unknown sweep"):
            sweep_order(graph, "diagonal")
    with pytest.raises(ValueError, match="unknown sweep"):
        pl.peps_norm(circuit_net, sweep="diagonal")


def test_split_environment_fits_where_whole_sweeps_do_not():
    # the deferred pair on (0, 1) peaks at 4096 (cols) and 16384 (rows) entries
    # when the whole network is swept with the open layers
    net = pl.random_network(3, 4, bond_dim=2, phys_dim=2, seed=21)
    m = random_hermitian(4, 5)
    obs = pl.observable_from_matrix((0, 1), m, dims=(2, 2))
    assert pl.peps_nev(net, obs, guard=1024) == pytest.approx(dense_nev(net, (0, 1), m), abs=1e-11)


@pytest.mark.parametrize("rows,cols,fits,refused",
                         [(10, 3, "rows", "cols"), (3, 10, "cols", "rows")])
def test_long_grids_run_the_sweep_that_fits(rows, cols, fits, refused):
    net = pl.random_network(rows, cols, bond_dim=2, seed=23)
    with pytest.raises(GuardExceeded):
        pl.peps_norm(net, sweep=refused)
    assert pl.peps_norm(net) == pytest.approx(pl.peps_norm(net, sweep=fits), rel=1e-12)
    v = net.graph.vertex_at(rows // 2, cols // 2)
    obs = pl.observable_from_matrix((v,), random_hermitian(net.phys_dim(v), 6))
    got, want = pl.nev_report(net, obs), pl.nev_report(net, obs, sweep=fits)
    assert got["value"] == pytest.approx(want["value"], abs=1e-12)
    assert got["norm"] == pytest.approx(want["norm"], rel=1e-12)


# 3x3 D=6: four fused legs of 36 in either sweep; 10x3 D=2: the rows sweep's
# row of three plus one leg, four legs of 4, where cols peaks at 4**11.
@pytest.mark.parametrize("rows,cols,bond_dim,guard,best", [
    (3, 3, 6, pl.BOUNDARY_GUARD, 36 ** 4), (10, 3, 2, 1, 4 ** 4)])
def test_refusal_reports_the_best_peak(rows, cols, bond_dim, guard, best):
    net = pl.random_network(rows, cols, bond_dim=bond_dim, phys_dim=2, seed=24)
    peaks = []
    for sweep in ("cols", "rows"):
        with pytest.raises(GuardExceeded) as err:
            pl.peps_norm(net, guard=guard, sweep=sweep)
        peaks.append(err.value.required)
    with pytest.raises(GuardExceeded) as err:
        pl.peps_norm(net, guard=guard)
    assert err.value.required == min(peaks) == best
    assert err.value.limit == guard
    # a one-site observable keeps the norm's peak; on 10x3 site 0 opens the
    # rows order (all else is suffix) and the last site closes it
    for v in (net.graph.vertices[0], net.graph.vertices[-1]):
        obs = pl.observable_from_matrix((v,), np.eye(2))
        with pytest.raises(GuardExceeded) as err:
            pl.peps_nev(net, obs, guard=guard)
        assert err.value.required == best


def test_sweep_order_layouts():
    g = pl.open_grid(2, 3)
    assert sweep_order(g, "rows") == [0, 1, 2, 3, 4, 5]
    cols = sweep_order(g, "cols")
    assert sorted(cols) == [0, 1, 2, 3, 4, 5]
    # column sweep visits one full column before the next
    assert {cols[0], cols[1]} == {0, 3}
    assert {cols[2], cols[3]} == {1, 4}


def test_mixed_closure_values():
    c = mixed_closure(3, "e")
    assert c.labels == ("e",)
    assert c.dim("e") == 9
    got = tz.matrix_view(c, ["e"], []).ravel()
    np.testing.assert_allclose(got, np.eye(3).ravel() / 3, atol=0)


def test_double_layer_is_a_gram_matrix():
    net = pl.random_network(2, 2, seed=12)
    v = 0
    t = net.site(v)
    virt = net.virtual_labels(v)
    dl = double_layer(net, v)
    split = dl
    for lab in virt:
        d = t.dim(lab)
        split = tz.split_leg(split, lab, [(lab + ".b", d), (lab + ".k", d)])
    m = tz.matrix_view(split, [lab + ".b" for lab in virt], [lab + ".k" for lab in virt])
    a = tz.matrix_view(t, ["phys"], virt)
    np.testing.assert_allclose(m, a.conj().T @ a, atol=1e-13)
    np.testing.assert_allclose(m, m.conj().T, atol=1e-13)
    assert np.linalg.eigvalsh(m).min() > -1e-12


def _layer_sites():
    # a bulk cell of a compiled circuit (phys 16, legs relabeled to wire edges)
    # and the last column of a periodic grid, whose wrap edge comes first
    compiled = pl.compile_circuit(random_circuit(4, 2, seed=1), 0.5).network
    periodic = pl.random_network(3, 3, delta=0.8, seed=3, geometry="periodic-grid")
    return {"compiled": (compiled, 2), "periodic": (periodic, 2)}


def _einsum_layer(net, v, kind, op):
    """Double layer by one np.einsum over the stored leg order, bra-major fused per bond."""
    t = net.site(v)
    virt = net.virtual_labels(v)
    a = arr(t)
    bra = [2 * i if lab != "phys" else 50 for i, lab in enumerate(t.labels)]
    ket = [2 * i + 1 if lab != "phys" else (50 if kind == "plain" else 51)
           for i, lab in enumerate(t.labels)]
    out = [x for lab in virt for x in (2 * t.labels.index(lab), 2 * t.labels.index(lab) + 1)]
    dims = [t.dim(lab) ** 2 for lab in virt]
    if kind == "plain":
        ref = np.einsum(a.conj(), bra, a, ket, out)
    elif kind == "sandwiched":
        ref = np.einsum(a.conj(), bra, op, [50, 51], a, ket, out)
    else:
        # op[in, bond, out]: the operator-bond leg stays open, after the fused legs
        ref = np.einsum(a.conj(), bra, op, [51, 49, 50], a, ket, out + [49])
        dims += [op.shape[1]]
    return ref.reshape(dims)


@pytest.mark.parametrize("kind", ["plain", "sandwiched", "open"])
@pytest.mark.parametrize("which", ["compiled", "periodic"])
def test_double_layer_matches_einsum_reference(which, kind):
    # "open" is one factor of a multi-site operator: legs out0/in0 and an open
    # operator-bond leg, stored in another order than the layer's
    net, v = _layer_sites()[which]
    t = net.site(v)
    virt = net.virtual_labels(v)
    p = net.phys_dim(v)
    if which == "periodic":
        assert virt != sorted(virt)
    m = random_hermitian(p, 7)
    factor = pl.observable_from_matrix((v,), m).operator
    legs = tuple((lab, t.dim(lab) ** 2) for lab in virt)
    if kind == "open":
        rng = np.random.default_rng(8)
        m = rng.standard_normal((p, 3, p)) + 1j * rng.standard_normal((p, 3, p))
        factor = tz.Tensor((("in0", p), ("~0", 3), ("out0", p)), m)
        legs += (("~0", 3),)
    got = double_layer(net, v, None if kind == "plain" else factor)
    assert got.legs == legs
    want = _einsum_layer(net, v, kind, m)
    np.testing.assert_allclose(arr(got), want, rtol=0, atol=1e-14)


def test_guard_refuses_then_force_runs():
    net = pl.random_network(2, 2, seed=13)
    with pytest.raises(GuardExceeded) as err:
        pl.peps_norm(net, guard=4)
    assert err.value.required > err.value.limit == 4
    assert pl.peps_norm(net, guard=None) == pytest.approx(pl.peps_norm(net), rel=1e-13)


def test_nev_report_fields():
    net = pl.random_network(2, 2, seed=14)
    obs = pl.observable_from_matrix((0,), random_hermitian(net.phys_dim(0), 1))
    rep = pl.nev_report(net, obs)
    assert set(rep) == {"value", "imag_residue", "norm"}
    assert rep["norm"] > 0
    assert abs(rep["imag_residue"]) < 1e-10
    assert rep["value"] == pytest.approx(pl.peps_nev(net, obs))


@pytest.mark.parametrize(
    "alpha,decision", [(0.8, "accept"), (0.5, "undetermined"), (0.2, "reject")]
)
def test_decide_nev_thresholds(alpha, decision):
    net = pl.random_network(2, 2, seed=15)
    obs = pl.observable_from_matrix((0,), alpha * np.eye(net.phys_dim(0)))
    # identity observable makes the normalized value exactly alpha
    assert pl.peps_nev(net, obs) == pytest.approx(alpha, abs=1e-12)
    assert pl.decide_nev(net, obs) == decision


def test_patch_spec_is_a_chebyshev_annulus():
    net = pl.random_network(5, 5, seed=16)
    center = net.graph.vertex_at(2, 2)
    spec = pl.make_patch(net, (center,), 2)

    def cheb(v):
        r, c = divmod(v, 5)
        return max(abs(r - 2), abs(c - 2))

    assert set(spec.interior) == {v for v in net.graph.vertices if cheb(v) <= 1}
    assert not spec.covers_lattice


@pytest.mark.parametrize("rows,cols,seed", [(2, 2, 17), (5, 5, 21)])
def test_patch_is_clipped_at_the_lattice_edge(rows, cols, seed):
    # a patch at a corner keeps the sites of its box inside the lattice and
    # cuts only the bonds to them; it is the same estimator with fewer cuts
    net = pl.random_network(rows, cols, seed=seed)
    for corner in (0, cols - 1, (rows - 1) * cols, rows * cols - 1):
        r0, c0 = divmod(corner, cols)
        for radius in (1, 2):
            spec = pl.make_patch(net, (corner,), radius)
            assert set(spec.interior) == {
                v for v in net.graph.vertices
                if max(abs(v // cols - r0), abs(v % cols - c0)) < radius}
            assert spec.covers_lattice == (len(spec.interior) == rows * cols)
            m = random_hermitian(net.phys_dim(corner), corner + radius)
            obs = pl.observable_from_matrix((corner,), m)
            want = dense_patch_nev(net, spec.interior, (corner,), m)
            assert pl.patch_nev(net, obs, radius) == pytest.approx(want, abs=1e-12)


def test_patch_covering_the_lattice_reproduces_exact_value():
    net = pl.random_network(5, 5, delta=0.8, seed=18)
    center = net.graph.vertex_at(2, 2)
    obs = pl.observable_from_matrix((center,), random_hermitian(net.phys_dim(center), 2))
    spec = pl.make_patch(net, (center,), 3)
    assert spec.covers_lattice
    assert pl.patch_nev(net, obs, 3) == pytest.approx(pl.peps_nev(net, obs), abs=1e-12)


def test_patch_error_shrinks_with_radius():
    net = pl.random_network(6, 6, delta=0.9, seed=19)
    center = net.graph.vertex_at(2, 2)
    m = random_hermitian(net.phys_dim(center), 3)
    m /= np.linalg.norm(m, 2)
    obs = pl.observable_from_matrix((center,), m)
    exact = pl.peps_nev(net, obs)
    errs = [abs(pl.patch_nev(net, obs, r) - exact) for r in (1, 2)]
    assert errs[1] <= errs[0] + 1e-6


def test_patch_nev_respects_guard():
    net = pl.random_network(5, 5, seed=20)
    obs = pl.observable_from_matrix((12,), np.eye(net.phys_dim(12)))
    with pytest.raises(GuardExceeded):
        pl.patch_nev(net, obs, 2, guard=2)


def test_support_layers_keep_the_bond_pairs_the_plain_layers_drop():
    # every two-color tile on the 2x2 torus: the plain layers are diagonal in
    # each bond's (bra, ket) color pair, while the observable layers of a pair
    # on (0, 1) also carry the off-diagonal pairs of the two bonds they share
    ts = WangTileSet(2, tuple(itertools.product((0, 1), repeat=4)))
    net = tiling_network(ts, 2, 2)
    m = random_hermitian(16, 3)
    obs = pl.observable_from_matrix((0,), m)
    assert pl.peps_nev(net, obs) == pytest.approx(dense_nev(net, (0,), m), abs=1e-12)
    pair = np.kron(m, random_hermitian(16, 4)) + random_hermitian(256, 3)
    obs = pl.observable_from_matrix((0, 1), pair, dims=(16, 16))
    assert pl.peps_nev(net, obs) == pytest.approx(dense_nev(net, (0, 1), pair), abs=1e-12)
    # swapping each tile with its color complement joins only unequal colors,
    # so the support also keeps the equal pairs its plain layer needs
    flip = np.eye(16)[::-1]
    for support, m in (((0,), flip), ((0, 1), np.kron(flip, flip))):
        obs = pl.observable_from_matrix(support, m, dims=(16,) * len(support))
        assert pl.peps_nev(net, obs) == pytest.approx(dense_nev(net, support, m), abs=1e-12)


def test_support_layers_keep_the_pairs_of_every_operator_term():
    # tiles with left == right and top == bottom on the 2x2 torus. Flipping
    # both horizontal colors of every tile (A) keeps a tiling valid, and so
    # does flipping both vertical ones (B). The operator 2 A^4 + B^4 has two
    # terms across each cut; B's layers carry the unequal vertical pairs that
    # A's do not, so the live pairs are taken over every term
    tiles = ((0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1))
    net = tiling_network(WangTileSet(2, tiles), 2, 2)

    def perm(flip):
        return np.array([[float(tiles.index(flip(t)) == i) for t in tiles] for i in range(4)])

    a = perm(lambda t: (1 - t[0], t[1], 1 - t[2], t[3]))
    b = perm(lambda t: (t[0], 1 - t[1], t[2], 1 - t[3]))
    m = 2 * np.kron(np.kron(a, a), np.kron(a, a)) + np.kron(np.kron(b, b), np.kron(b, b))
    obs = pl.observable_from_matrix((0, 1, 2, 3), m, dims=(4,) * 4)
    assert pl.peps_nev(net, obs) == pytest.approx(dense_nev(net, (0, 1, 2, 3), m), abs=1e-12)


# The dry-run peaks, with guard=1, of networks without a zero entry: norm,
# a one-site observable at the centre, and an identity pair on sites (0, 1).
# Nothing is dropped, so each is the peak of the full D**2 fused dims; the
# pair is a product operator, whose operator bond has dim 1.
@pytest.mark.parametrize("shape,bond_dim,seed,peaks", [
    ((3, 3), 2, 0, (256, 256, 256)),
    ((4, 4), 2, 1, (1024, 1024, 1024)),
    ((5, 5), 3, 0, (531441, 531441, 531441)),
    ((6, 6), 2, 3, (16384, 16384, 16384)),
])
def test_dense_networks_keep_their_dry_run_peaks(shape, bond_dim, seed, peaks):
    net = pl.random_network(*shape, bond_dim=bond_dim, seed=seed)
    centre = net.graph.vertex_at(shape[0] // 2, shape[1] // 2)
    p, q, r = (net.phys_dim(v) for v in (centre, 0, 1))
    calls = (lambda: pl.peps_norm(net, guard=1),
             lambda: pl.nev_report(net, pl.observable_from_matrix((centre,), np.eye(p)), guard=1),
             lambda: pl.nev_report(net, pl.observable_from_matrix((0, 1), np.eye(q * r),
                                                                  dims=(q, r)), guard=1))
    for call, want in zip(calls, peaks):
        with pytest.raises(GuardExceeded) as err:
            call()
        assert err.value.required == want



@pytest.mark.parametrize("make,pair", [
    (lambda: pl.random_network(4, 4, bond_dim=6, phys_dim=2, seed=0), False),
    (lambda: pl.random_network(4, 4, bond_dim=6, phys_dim=2, seed=0), True),
    (lambda: tiling_network(WangTileSet(5, tuple((c,) * 4 for c in range(5))), 4, 4), False),
], ids=["dense-norm", "dense-pair", "five-color-tiles"])
def test_refusal_builds_no_layer(make, pair):
    # an interior layer of the dense network holds 6**8 entries (27 MiB); the
    # tiling's 16 layers, diagonal in each bond's color pair, take 100 MiB. A
    # refusal reads the site tensors only, so it stays below their total size
    net = make()
    sites = sum(t.data.nbytes for t in net.tensors.values())
    obs = pl.observable_from_matrix((5, 6), random_hermitian(4, 1), dims=(2, 2))
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded):
            pl.nev_report(net, obs) if pair else pl.peps_norm(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sites


# ---------------------------------------------------------------------------
# Real arithmetic: every fused bond index in the Hermitian basis


def _real_engine_case(kind):
    """A network and one-site observables on it, one per site and two per wire.

    "sparse" is a chain whose middle site reaches physical index 1 from bond
    indices 0 and 1 of each bond, so its bonds keep five of nine pairs, two of
    them off the diagonal; its entries are complex.
    """
    if kind == "explicit":
        compiled = pl.compile_circuit(random_circuit(4, 1, seed=1), 0.3)
        return compiled.network, [pl.readout_observable(compiled, w, m)
                                  for w in range(4) for m in (Z, X)]
    if kind == "sparse":
        rng = np.random.default_rng(34)

        def complex_normal(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        middle = np.zeros((3, 3, 3), dtype=complex)
        for a in range(3):
            middle[a, a, a] = complex_normal()
        middle[0, 0, 1], middle[1, 1, 1] = complex_normal(2)
        net = pl.PepsNetwork(pl.open_grid(1, 3, bond_dim=3), {
            0: tz.Tensor((("h0.0", 3), ("phys", 2)), complex_normal(3, 2)),
            1: tz.Tensor((("h0.0", 3), ("h0.1", 3), ("phys", 3)), middle),
            2: tz.Tensor((("h0.1", 3), ("phys", 2)), complex_normal(3, 2)),
        })
    else:
        net = pl.random_network(2, 3, phys_dim=2, seed=31,
                                geometry="open-grid" if kind == "open" else "periodic-grid")
    return net, [pl.observable_from_matrix((v,), random_hermitian(net.phys_dim(v), 40 + v))
                 for v in net.graph.vertices]


@pytest.mark.parametrize("kind", ["open", "periodic", "explicit", "sparse"])
def test_real_engine_matches_the_dense_oracles(kind):
    net, observables = _real_engine_case(kind)
    if kind == "open":
        observables.append(pl.observable_from_matrix((4, 0), random_hermitian(4, 39), dims=(2, 2)))
    psi = dense_state(net)
    assert pl.peps_norm(net) == pytest.approx(dense_norm(net), rel=1e-12)
    for obs in observables:
        want = dense_nev(net, obs.support, obs.matrix(), psi)
        assert pl.peps_nev(net, obs) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("support,radius", [((12,), 1), ((12, 13), 1), ((12,), 2)],
                         ids=["site-r1", "pair-r1", "site-r2"])
def test_patch_matches_the_einsum_oracle(support, radius):
    net = pl.random_network(5, 5, phys_dim=2, seed=32)
    m = random_hermitian(2 ** len(support), 41)
    obs = pl.observable_from_matrix(support, m, dims=(2,) * len(support))
    sites = pl.make_patch(net, support, radius).interior
    assert pl.patch_nev(net, obs, radius) == pytest.approx(
        dense_patch_nev(net, sites, support, m), abs=1e-12)


def _layers_in_basis(net, obs):
    """Every site's plain layer and the support's operator layer, in the basis, complex;
    and whether some bond has a basis block (not only diagonal pairs)."""
    sites = net.graph.vertices
    slot = contraction._Slot(weakref.ref(net))
    keep = contraction._prune(net, sites, contraction._patterns(obs), {}, slot)
    bases = contraction._bases(net, set(sites), keep, slot)
    layers = [(v, None) for v in sites] + [(obs.support[0], obs.operator)]
    return [contraction._in_basis(contraction._sliced(double_layer(net, v, f), keep), v, bases,
                                  real=False) for v, f in layers], bool(bases)


@pytest.mark.parametrize("kind", ["open", "periodic", "explicit", "sparse"])
def test_discarded_imaginary_part_is_round_off(kind):
    net, observables = _real_engine_case(kind)
    rotated = False
    for obs in observables:
        layers, some = _layers_in_basis(net, obs)
        rotated |= some
        for layer in layers:
            assert np.abs(layer.data.imag).max() <= 1e-13 * np.abs(layer.data).max()
    assert rotated


def test_kept_pairs_are_closed_under_the_swap():
    # two sites copy their bond index (dim 3) to the physical one, and both
    # join the physical pair (0, 1): the bond pair (0, 1) is live at both
    # ends and (1, 0) at neither, while the basis mixes the two
    graph = pl.explicit_graph([0, 1], [pl.Edge("a", 0, 1, 3)])
    copy = tz.Tensor((("a", 3), ("phys", 3)), np.eye(3))
    net = pl.PepsNetwork(graph, {0: copy, 1: copy})
    joins = np.eye(3, dtype=bool)
    joins[0, 1] = True
    slot = contraction._Slot(weakref.ref(net))
    keep = contraction._prune(net, [0, 1], {0: joins, 1: joins}, {}, slot)
    assert keep["a"].tolist() == [0, 1, 3, 4, 8]


def _hermitian_basis(dim):
    """Q[(a, a'), k] = B_k[a', a] from the basis matrices B_k, k fused like (a, a')."""
    q = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a, b in itertools.product(range(dim), repeat=2):
        unit = np.zeros((dim, dim), dtype=complex)
        if a == b:
            unit[a, a] = 1
        elif a < b:
            unit[a, b] = unit[b, a] = np.sqrt(0.5)
        else:  # k = (a, b) with b < a: i(E_ba - E_ab)/sqrt 2
            unit[b, a], unit[a, b] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
        q[:, a * dim + b] = unit.T.ravel()
    return q


@pytest.mark.parametrize("dim,kept", [(2, None), (3, None), (3, [0, 1, 3, 4, 8]),
                                      (4, [0, 2, 5, 8, 10, 15])],
                         ids=["2-all", "3-all", "3-pair", "4-pairs"])
def test_basis_block_is_the_unitary_change_of_basis(dim, kept):
    # a random three-leg tensor with one leg in the basis, at either end of its bond
    q = _hermitian_basis(dim)
    np.testing.assert_allclose(q @ q.conj().T, np.eye(dim * dim), atol=1e-15)
    idx = np.arange(dim * dim) if kept is None else np.array(kept)
    block = q[np.ix_(idx, idx)]
    rng = np.random.default_rng(dim)
    data = rng.standard_normal((2, idx.size, 3)) + 1j * rng.standard_normal((2, idx.size, 3))
    t = tz.Tensor((("x", 2), ("e", idx.size), ("y", 3)), data)
    blocks = contraction._basis_block(dim, None if kept is None else idx)
    np.testing.assert_allclose(blocks[0], block, atol=1e-15)
    for v, want in ((0, block), (1, block.conj())):
        got = contraction._in_basis(t, v, {"e": (0,) + blocks}, real=False)
        np.testing.assert_allclose(got.data, np.einsum("xfy,fk->xky", data, want), atol=1e-15)


def test_site_tensors_are_read_once_per_network(monkeypatch):
    # every wire of two compiled circuits read out with Z and with X, as the
    # benchmark's circuit jobs do with Z; X keeps other bond indices
    reads = collections.Counter()
    read_masks = contraction._read_masks

    def counted(net, sites, slot):
        reads.update((id(net), v) for v in sites)
        return read_masks(net, sites, slot)

    monkeypatch.setattr(contraction, "_read_masks", counted)
    nets, calls = [], []
    for seed, (width, depth) in enumerate([(6, 4), (8, 6)]):
        compiled = pl.compile_circuit(random_circuit(width, depth, seed=seed), 0.3)
        nets.append(compiled.network)
        calls += [(compiled.network, pl.readout_observable(compiled, w, m))
                  for m in (Z, X) for w in range(width)]
    got = [pl.nev_report(net, obs) for net, obs in calls]
    assert sorted(reads) == sorted((id(net), v) for net in nets for v in net.graph.vertices)
    assert set(reads.values()) == {1}
    fresh = []
    for net, obs in calls:
        contraction._slot = None
        fresh.append(pl.nev_report(net, obs))
    assert got == fresh


def test_operator_chain_follows_the_contraction_order():
    # the same full-rank operator on sites 0, 5 and 10, listed in three orders:
    # split along the list, (5, 0, 10) held two operator bonds open (16384)
    net = pl.random_network(4, 4, phys_dim=2, seed=0)
    m = random_hermitian(8, 3)
    required, values = set(), []
    for support in [(0, 5, 10), (5, 0, 10), (10, 0, 5)]:
        perm = [(0, 5, 10).index(v) for v in support]
        listed = m.reshape((2,) * 6).transpose(perm + [3 + p for p in perm]).reshape(8, 8)
        obs = pl.observable_from_matrix(support, listed, dims=(2, 2, 2))
        with pytest.raises(GuardExceeded) as err:
            pl.nev_report(net, obs, guard=1)
        required.add(err.value.required)
        values.append(pl.peps_nev(net, obs))
    assert required == {4096}
    assert values == pytest.approx([dense_nev(net, (0, 5, 10), m)] * 3, abs=1e-12)
