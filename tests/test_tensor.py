"""Labeled tensor container against loop-level oracles."""

import json

import numpy as np
import pytest

from pepslab import tensor as tz

from oracles import arr, loop_contract


def rnd(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def mk(labels, data):
    return tz.Tensor(list(zip(labels, np.shape(data))), data)


@pytest.mark.parametrize(
    "sa,la,sb,lb,pairs",
    [
        ((2, 3), "ij", (3, 4), "jk", [("j", "j")]),
        ((2, 3, 2), "ijk", (3, 2, 2), "jkl", [("j", "j"), ("k", "k")]),
        ((2, 2), "ij", (2, 2), "ij", [("i", "i"), ("j", "j")]),
        ((4,), "i", (4, 3), "im", [("i", "i")]),
        # differently named pairs, and a free leg of b named like a's contracted one
        ((2, 3), "xz", (2, 4), "yx", [("x", "y")]),
    ],
)
def test_contract_matches_loop_oracle(sa, la, sb, lb, pairs):
    a = rnd(sa, 7)
    b = rnd(sb, 8)
    got = tz.contract(mk(la, a), mk(lb, b), pairs)
    want, want_labels = loop_contract(a, la, b, lb, pairs)
    assert list(got.labels) == want_labels
    np.testing.assert_allclose(arr(got), want, atol=1e-13)


def test_contract_without_pairs_is_outer_product():
    a = rnd((2, 3), 0)
    b = rnd((2,), 1)
    got = tz.contract(mk("ij", a), mk("k", b), [])
    np.testing.assert_allclose(arr(got), np.multiply.outer(a, b), atol=1e-14)


def test_scalar_contraction_keeps_zero_rank():
    # regression: a rank-0 tensor must stay rank-0 through contract
    s = tz.scalar(2.0 - 1j)
    t = mk("ab", rnd((2, 2), 3))
    out = tz.contract(s, t, [])
    assert out.labels == ("a", "b")
    np.testing.assert_allclose(arr(out), (2.0 - 1j) * arr(t), atol=1e-14)
    both = tz.contract(s, tz.scalar(-0.5j), [])
    assert both.labels == ()
    assert both.item() == pytest.approx((2.0 - 1j) * -0.5j)


def test_contract_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        tz.contract(mk("ij", rnd((2, 3), 0)), mk("jk", rnd((4, 2), 1)), [("j", "j")])


def test_contract_rejects_unknown_label():
    with pytest.raises((KeyError, ValueError)):
        tz.contract(mk("i", rnd((2,), 0)), mk("j", rnd((2,), 1)), [("x", "j")])


@pytest.mark.parametrize("lookup,error,match", [
    (lambda t: tz.matrix_view(t, ["i", "i"], ["k"]), ValueError, "partition"),
    (lambda t: tz.matrix_view(t, ["i"], ["j", "j", "k"]), ValueError, "partition"),
    (lambda t: tz.matrix_view(t, ["i"], ["k"]), ValueError, "partition"),
    (lambda t: tz.matrix_view(t, ["i", "j"], ["x"]), ValueError, "partition"),
    (lambda t: t.axis("x"), KeyError, "'x'"),
    (lambda t: t.dim("x"), KeyError, "'x'"),
], ids=["repeated-row", "repeated-col", "omitted", "unknown", "axis", "dim"])
def test_leg_lookups_reject_a_repeated_missing_or_unknown_leg(lookup, error, match):
    with pytest.raises(error, match=match):
        lookup(mk("ijk", rnd((2, 3, 4), 0)))


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        tz.Tensor([("i", 2), ("i", 2)], np.zeros((2, 2)))


def test_constructor_copies_input():
    a = np.zeros((2, 2), dtype=complex)
    t = mk("ij", a)
    a[0, 0] = 5.0
    assert arr(t)[0, 0] == 0.0


def test_split_leg_matches_numpy_reshape():
    a = rnd((2, 6, 3), 11)
    t = mk("ijk", a)
    split = tz.split_leg(t, "j", [("j1", 2), ("j2", 3)])
    assert split.legs == (("i", 2), ("j1", 2), ("j2", 3), ("k", 3))
    # the split index runs row-major over the sub-legs
    np.testing.assert_array_equal(arr(split), a.reshape(2, 2, 3, 3))
    with pytest.raises(ValueError):
        tz.split_leg(t, "j", [("j1", 4), ("j2", 2)])


def test_constructor_rejects_non_finite_data():
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        data = np.ones((2, 2), dtype=complex)
        data[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            mk("ij", data)


# Each case names a's legs, b's legs and the contracted labels (same label on
# both sides). The contracted legs of a sit at its head, its tail, in its
# middle, or split; "scalar" pairs two tensors over every leg in different
# orders; "b larger" has the larger operand on the right; "few rows" keeps two
# small free legs of a. a is multiplied as it lies when its contracted legs
# already sit at its tail (VIEWED), and copied once with them moved there
# otherwise.
CONTRACT_CASES = {
    "head": ("vwxyz", "vwp", "vw"),
    "tail": ("xyzvw", "wvp", "vw"),
    "middle": ("xvwyz", "pvw", "vw"),
    "split": ("vxywz", "wpv", "vw"),
    "scalar": ("vwxyz", "zxvyw", "vwxyz"),
    "outer": ("vwxyz", "pq", ""),
    "b larger": ("pw", "xywvz", "w"),
    "few rows": ("vpwxqyz", "zyxwv", "vwxyz"),
}
VIEWED = {"tail", "scalar", "outer", "b larger"}
SMALL_LEGS = {"p": 3, "q": 2}


@pytest.mark.parametrize("case", CONTRACT_CASES)
# operands of at most and of more than 2**14 entries
@pytest.mark.parametrize("dim", [3, 8], ids=["below-block", "above-block"])
def test_contract_matches_einsum(case, dim, monkeypatch):
    la, lb, con = CONTRACT_CASES[case]
    dims = {l: SMALL_LEGS.get(l, dim) for l in la + lb}
    a = rnd([dims[l] for l in la], 1)
    b = rnd([dims[l] for l in lb], 2)
    flops = []
    matmul = tz.backend.matmul

    def counted(x, y, out=None):
        flops.append(8 * x.shape[0] * x.shape[1] * y.shape[1])
        return matmul(x, y, out=out)

    monkeypatch.setattr(tz.backend, "matmul", counted)
    ta, tb = mk(la, a), mk(lb, b)
    pairs = [(l, l) for l in con]
    got = tz.contract(ta, tb, pairs)
    free = "".join(l for l in la + lb if l not in con)
    assert "".join(got.labels) == free
    want = np.einsum(f"{la},{lb}->{free}", a, b)
    np.testing.assert_allclose(arr(got), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    # one GEMM does the work, after at most one copy of a
    m = np.prod([dims[l] for l in la if l not in con])
    k = np.prod([dims[l] for l in con])
    n = np.prod([dims[l] for l in lb if l not in con])
    assert flops == [8 * m * k * n]
    step = tz._run(ta.legs, tb.legs, pairs, [l for l in lb if l not in con], at_tail=True)
    assert (step.lead is None) == (case in VIEWED)
    assert not got.data.flags.writeable
    assert not np.shares_memory(got.data, ta.data)
    assert not np.shares_memory(got.data, tb.data)


@pytest.mark.parametrize("kinds", [("real", "real"), ("real", "complex"), ("complex", "real")])
def test_contract_result_has_the_operands_common_type(kinds):
    # engine tensors may be float64: the product is real only when both are
    for la, lb, con in CONTRACT_CASES.values():
        dims = {l: SMALL_LEGS.get(l, 3) for l in la + lb}
        a, b = (rnd([dims[l] for l in labels], seed) for labels, seed in ((la, 5), (lb, 6)))
        a, b = (x.real.copy() if kind == "real" else x for x, kind in zip((a, b), kinds))
        ta = tz.Tensor._trusted(tuple((l, dims[l]) for l in la), a)
        tb = tz.Tensor._trusted(tuple((l, dims[l]) for l in lb), b)
        got = tz.contract(ta, tb, [(l, l) for l in con])
        assert got.data.dtype == np.result_type(a, b)
        free = "".join(l for l in la + lb if l not in con)
        np.testing.assert_allclose(got.data, np.einsum(f"{la},{lb}->{free}", a, b),
                                   rtol=1e-12, atol=1e-12)


def test_complex_values_written_into_a_real_array_fail_the_suite():
    # pyproject.toml makes numpy's ComplexWarning an error, so a complex product
    # written into a float64 output cannot drop its imaginary part silently
    out = np.empty(2)
    with pytest.raises(np.exceptions.ComplexWarning):
        out[0] = np.complex128(1 + 1j)


def test_permute_legs_is_a_view_change_only():
    a = rnd((2, 3, 4), 5)
    t = mk("ijk", a)
    p = tz.permute_legs(t, ["k", "i", "j"])
    assert [lab for lab, _ in p.legs] == ["k", "i", "j"]
    np.testing.assert_allclose(
        tz.matrix_view(p, ["i"], ["j", "k"]),
        tz.matrix_view(t, ["i"], ["j", "k"]),
        atol=0,
    )


def test_from_matrix_matrix_view_roundtrip():
    m = rnd((6, 4), 9)
    t = tz.from_matrix(m, [("r1", 2), ("r2", 3)], [("c1", 4)])
    view = tz.matrix_view(t, ["r1", "r2"], ["c1"])
    np.testing.assert_allclose(view, m, atol=0)
    # the legs in their order: a view of the data; any other order: a copy
    assert np.shares_memory(view, t.data)
    assert not np.shares_memory(tz.matrix_view(t, ["c1"], ["r1", "r2"]), t.data)
    assert (t.axis("c1"), t.dim("r2"), t.labels, t.dims) == (2, 3, ("r1", "r2", "c1"), (2, 3, 4))


def test_literal_roundtrip_is_exact():
    t = mk("ab", rnd((2, 3), 13))
    back = tz.from_literal(tz.to_literal(t))
    assert back.legs == t.legs
    assert np.array_equal(arr(back), arr(t))


def test_literal_keeps_every_bit():
    data = np.array([-0.0 + 0j, complex(5e-324, -0.0), complex(np.pi, -1e300), 1 / 3 + 0j])
    back = tz.from_literal(json.loads(json.dumps(tz.to_literal(mk("a", data)))))
    assert back.data.view(np.uint64).tolist() == data.view(np.uint64).tolist()


@pytest.mark.parametrize("data,index", [([[1, 2], [3]], 1), ([1, 2], 0), ([[1, 2], "ab"], 1),
                                        ([[1, 2, 3], [4]], 0), ([[1, 2], {"re": 1, "im": 2}], 1)])
def test_literal_names_the_first_entry_that_is_not_a_pair(data, index):
    with pytest.raises(ValueError, match=f"data entry {index} is not"):
        tz.from_literal({"legs": [{"label": "a", "dim": 2}], "data": data})


def test_singular_values_match_gram_oracle():
    m = rnd((6, 4), 21)
    t = tz.from_matrix(m, [("r", 6)], [("c", 4)])
    sv = tz.singular_values(t, ["r"], ["c"]).values
    gram = np.linalg.eigvalsh(m.conj().T @ m)
    want = np.sqrt(np.clip(gram, 0, None))[::-1]
    np.testing.assert_allclose(sv, want, atol=1e-10)


def test_singular_spectrum_extremes():
    t = tz.from_matrix(np.diag([2.0, 0.5, 1.0]), [("r", 3)], [("c", 3)])
    s = tz.singular_values(t, ["r"], ["c"])
    assert s.largest == pytest.approx(2.0)
    assert s.smallest == pytest.approx(0.5)
    assert tz.condition_number(t, ["r"], ["c"]) == pytest.approx(4.0)


def test_norm_matches_numpy():
    a = rnd((3, 3), 17)
    assert mk("xy", a).norm() == pytest.approx(np.linalg.norm(a))
