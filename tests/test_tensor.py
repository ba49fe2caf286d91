"""Labeled tensor container against loop-level oracles."""

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


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        tz.Tensor([("i", 2), ("i", 2)], np.zeros((2, 2)))


def test_constructor_copies_input():
    a = np.zeros((2, 2), dtype=complex)
    t = mk("ij", a)
    a[0, 0] = 5.0
    assert arr(t)[0, 0] == 0.0


def test_fuse_split_roundtrip():
    a = rnd((2, 3, 2), 11)
    t = mk("ijk", a)
    fused = tz.fuse_legs(t, ["i", "k"], "ik")
    assert fused.dim("ik") == 4
    # fused index runs row-major over the group order
    want = np.transpose(a, (0, 2, 1)).reshape(4, 3)
    np.testing.assert_allclose(tz.matrix_view(fused, ["ik"], ["j"]), want, atol=1e-14)
    back = tz.split_leg(fused, "ik", [("i", 2), ("k", 2)])
    np.testing.assert_allclose(
        tz.matrix_view(back, ["i", "j", "k"], []).ravel(), a.ravel(), atol=1e-14
    )


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
    np.testing.assert_allclose(tz.matrix_view(t, ["r1", "r2"], ["c1"]), m, atol=0)


def test_literal_roundtrip_is_exact():
    t = mk("ab", rnd((2, 3), 13))
    back = tz.from_literal(tz.to_literal(t))
    assert back.legs == t.legs
    assert np.array_equal(arr(back), arr(t))


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
