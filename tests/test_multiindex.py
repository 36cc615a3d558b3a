import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dillcalc import multiindex as mi
from dillcalc.series import MAX_DEGREE

from brute import graded_order, iter_indices


def test_count_matches_binomial():
    for dim in range(1, 5):
        for deg in range(0, 7):
            assert mi.count_indices(dim, deg) == math.comb(dim + deg, deg)
            assert len(mi.enumerate_indices(dim, deg)) == mi.count_indices(dim, deg)


def test_enumeration_is_graded_then_reverse_lex():
    idx = mi.enumerate_indices(2, 2)
    assert [tuple(a) for a in idx] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    idx3 = mi.enumerate_indices(3, 1)
    assert [tuple(a) for a in idx3] == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_enumeration_matches_brute_set():
    for dim in (1, 2, 3):
        for deg in (0, 2, 4):
            got = {tuple(a) for a in mi.enumerate_indices(dim, deg)}
            assert got == set(iter_indices(dim, deg))


@given(st.integers(1, 3), st.integers(0, 6), st.integers(0, 10**6))
@example(15, 4, 3000)
@example(900, 1, 899)
def test_position_roundtrip(dim, deg, k):
    idx = mi.enumerate_indices(dim, deg)
    k %= len(idx)
    assert mi.position_of(idx[k], deg) == k
    ranks = mi.rank(mi.exponent_matrix(dim, deg))
    np.testing.assert_array_equal(ranks, np.arange(len(idx)))
    with pytest.raises(ValueError, match="exceeds degree"):
        mi.position_of((0,) * (dim - 1) + (deg + 1,), deg)


def test_degree_blocks_are_prefixes():
    # positions of degree <= k indices form the leading block, so truncation
    # of a coefficient table is a slice
    for dim in (1, 2, 3):
        degs = [sum(a) for a in mi.enumerate_indices(dim, 5)]
        assert degs == sorted(degs)


def test_binom_componentwise_frozen():
    assert mi.binom_componentwise((1, 1), (1, 0)) == 2
    assert mi.binom_componentwise((2, 0), (1, 1)) == 3
    assert mi.binom_componentwise((0,), (3,)) == 1


@given(st.integers(1, 3), st.data())
def test_binom_componentwise_symmetry(dim, data):
    tup = st.tuples(*[st.integers(0, 3)] * dim)
    a = data.draw(tup)
    b = data.draw(tup)
    assert mi.binom_componentwise(a, b) == mi.binom_componentwise(b, a)
    want = math.prod(math.comb(x + y, x) for x, y in zip(a, b))
    assert mi.binom_componentwise(a, b) == want


def test_multiindex_validation():
    with pytest.raises(ValueError, match=r"negative exponent in multi-index \(1, -1\)"):
        mi.position_of((1, -1), 3)
    with pytest.raises(ValueError, match=r"negative exponent in multi-index \(0, -2\)"):
        mi.binom_componentwise((1, 0), (0, -2))
    with pytest.raises(ValueError, match="empty space"):
        mi.position_of((), 3)
    with pytest.raises(ValueError, match="empty space"):
        mi.binom_componentwise((), ())
    with pytest.raises(ValueError, match="multi-index dimensions differ: 2 vs 3"):
        mi.binom_componentwise((1, 0), (1, 0, 0))
    with pytest.raises(ValueError, match=r"multi-index \(2, 2\) exceeds degree 3"):
        mi.position_of((2, 2), 3)
    with pytest.raises(ValueError, match="empty space"):
        mi.count_indices(0, 3)


@pytest.mark.parametrize(
    "bad",
    [1.5, 1.0, True, "1", np.float64(1.0), np.bool_(True), None],
    ids=["float", "whole-float", "bool", "str", "numpy-float", "numpy-bool", "none"],
)
def test_non_integral_exponents_are_refused(bad):
    # int() once read 1.5 and True as 1 and "1" as 1, so a malformed index
    # silently addressed the (1, 0) coefficient
    with pytest.raises(ValueError, match=re.escape(f"non-integer exponent {bad!r}")):
        mi.position_of((bad, 0), 3)
    with pytest.raises(ValueError, match="non-integer exponent"):
        mi.binom_componentwise((0, 1), (bad, 0))


def test_numpy_integer_exponents_are_accepted():
    for kind in (np.int8, np.int64, np.uint16):
        assert mi.position_of((kind(1), kind(0)), 3) == 1
        assert mi.binom_componentwise((kind(2), 0), (kind(1), kind(1))) == 3
    assert mi.position_of(np.array([0, 2]), 2) == 5


def test_product_table_complete_and_consistent():
    dim, deg = 2, 3
    ia, ib, ic = mi.product_table(dim, deg)
    idx = mi.enumerate_indices(dim, deg)
    pairs = 0
    for a in idx:
        for b in idx:
            if sum(a) + sum(b) <= deg:
                pairs += 1
    assert len(ia) == pairs
    for k in range(len(ia)):
        assert tuple(x + y for x, y in zip(idx[ia[k]], idx[ib[k]])) == idx[ic[k]]


def test_convolution_table_weights():
    # the weights are integers built up in float64: exact up to the degree
    # cap, rounded far above it, which is why the cap is a constant
    for dim, deg in [(2, 2), (1, MAX_DEGREE), (2, MAX_DEGREE), (3, MAX_DEGREE)]:
        ia, ib, _, w = mi.convolution_table(dim, deg)
        rows = mi.exponent_matrix(dim, deg).tolist()
        want = [
            math.prod(math.comb(x + y, x) for x, y in zip(rows[a], rows[b]))
            for a, b in zip(ia.tolist(), ib.tolist())
        ]
        assert w.tolist() == want


def test_pair_tables_build_without_pair_sized_temporaries():
    # (15, 4) is the level-two space digging builds; the one-pass builder writes
    # into its output arrays, so a cold build peaks well under two copies of them
    mi.exponent_matrix(15, 4)
    for table in (mi._pair_tables, mi.product_table, mi.convolution_table):
        table.cache_clear()
    tracemalloc.start()
    try:
        out = mi.convolution_table(15, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out[0]) == 46376
    assert peak <= 2 * sum(a.nbytes for a in out)


@pytest.mark.parametrize("dim,deg", [(2, 4), (3, 6), (15, 4)])
def test_width_limited_tables_filter_the_full_table(dim, deg):
    # tops bound |alpha_ia| and |alpha_ib|; the kept pairs stay in full-table order
    full = mi.convolution_table(dim, deg)
    degree = mi.degree_vector(dim, deg)
    for top_a in range(deg + 1):
        for top_b in range(deg + 1):
            keep = (degree[full[0]] <= top_a) & (degree[full[1]] <= top_b)
            got = mi.convolution_table(dim, deg, top_a, top_b) + mi.product_table(
                dim, deg, top_a, top_b
            )
            assert len(got) == 7
            for arr, want in zip(got, full + full[:3]):
                np.testing.assert_array_equal(arr, want[keep])
    assert mi.convolution_table(dim, deg, deg, deg)[0] is full[0]


def test_top_degrees():
    coeffs = np.zeros((2, mi.count_indices(3, 4)), dtype=np.complex128)
    assert mi.top_degrees(3, coeffs, coeffs[0]) == (0, 0)
    coeffs[0, 0] = np.nan
    coeffs[1, mi.degree_slice(3, 2).stop - 1] = -0.5
    assert mi.top_degrees(3, coeffs, coeffs[0], coeffs[1]) == (2, 0, 2)
    coeffs[0, -1] = 1e-300
    assert mi.top_degrees(3, coeffs[:, :1], coeffs) == (0, 4)


def test_derivative_table_matches_manual():
    dim, deg = 2, 3
    src, factor = mi.derivative_table(dim, deg)
    idx_lo = mi.enumerate_indices(dim, deg - 1)
    idx_hi = mi.enumerate_indices(dim, deg)
    assert src.shape == factor.shape == (dim, len(idx_lo))
    for t, a in enumerate(idx_lo):
        assert idx_hi[src[0, t]] == (a[0] + 1, a[1])
        assert idx_hi[src[1, t]] == (a[0], a[1] + 1)
        assert tuple(factor[:, t]) == (a[0] + 1, a[1] + 1)
    empty_src, empty_factor = mi.derivative_table(2, 0)
    assert empty_src.shape == empty_factor.shape == (2, 0)
    for table in (src, factor, empty_src, empty_factor):
        assert not table.flags.writeable


@pytest.mark.parametrize(
    "dim, deg", [(d, k) for d in range(1, 5) for k in range(7)] + [(15, 2)]
)
def test_power_tree_matches_the_brute_graded_order(dim, deg):
    # beta's parent is beta - e_j, j the last nonzero coordinate; the root
    # reads (0, 0)
    order = graded_order(dim, deg)
    position = {beta: p for p, beta in enumerate(order)}
    parent, last = mi.power_tree(dim, deg)
    assert (parent.dtype, last.dtype) == (np.int64, np.int64)
    assert (parent[0], last[0]) == (0, 0)
    for p, beta in enumerate(order[1:], start=1):
        j = max(i for i, e in enumerate(beta) if e)
        assert last[p] == j
        assert parent[p] == position[beta[:j] + (beta[j] - 1,) + beta[j + 1 :]]
    assert len(parent) == len(last) == len(order)
    assert not parent.flags.writeable and not last.flags.writeable


def test_numpy_views_are_frozen():
    exps = mi.exponent_matrix(2, 3)
    with pytest.raises(ValueError):
        exps[0, 0] = 5
    degs = mi.degree_vector(2, 3)
    assert degs.shape == (mi.count_indices(2, 3),)
    np.testing.assert_array_equal(degs, exps.sum(axis=1))

