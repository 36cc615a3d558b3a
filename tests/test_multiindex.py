import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dillcalc import multiindex as mi

from brute import iter_indices


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
        degs = [a.degree() for a in mi.enumerate_indices(dim, 5)]
        assert degs == sorted(degs)


def test_multinomial_values():
    assert mi.multinomial((2, 1)) == 3
    assert mi.multinomial((1, 1, 1)) == 6
    assert mi.multinomial((0, 0)) == 1
    assert mi.multinomial((4,)) == 1


def test_binom_componentwise_frozen():
    assert mi.binom_componentwise((1, 1), (1, 0)) == 2
    assert mi.binom_componentwise((2, 0), (1, 1)) == 3
    assert mi.binom_componentwise((0,), (3,)) == 1


@given(st.integers(1, 3), st.data())
def test_binom_componentwise_symmetry(dim, data):
    tup = st.tuples(*[st.integers(0, 3)] * dim)
    a = mi.MultiIndex(data.draw(tup))
    b = mi.MultiIndex(data.draw(tup))
    assert mi.binom_componentwise(a, b) == mi.binom_componentwise(b, a)
    want = math.prod(math.comb(x + y, x) for x, y in zip(a, b))
    assert mi.binom_componentwise(a, b) == want


def test_multiindex_validation():
    with pytest.raises(ValueError):
        mi.MultiIndex((1, -1))
    with pytest.raises(ValueError):
        mi.MultiIndex(())
    with pytest.raises(ValueError):
        mi.MultiIndex((1, 0)) + mi.MultiIndex((1, 0, 0))
    with pytest.raises(ValueError):
        mi.MultiIndex((0, 0)) - mi.MultiIndex((0, 1))
    with pytest.raises(ValueError, match="empty space"):
        mi.count_indices(0, 3)


def test_add_sub():
    a = mi.MultiIndex((2, 0)) + mi.MultiIndex((0, 1))
    assert tuple(a) == (2, 1)
    assert a.degree() == 3
    assert tuple(a - mi.MultiIndex((1, 1))) == (1, 0)


def test_product_table_complete_and_consistent():
    dim, deg = 2, 3
    ia, ib, ic = mi.product_table(dim, deg)
    idx = mi.enumerate_indices(dim, deg)
    pairs = 0
    for a in idx:
        for b in idx:
            if a.degree() + b.degree() <= deg:
                pairs += 1
    assert len(ia) == pairs
    for k in range(len(ia)):
        assert tuple(idx[ia[k]] + idx[ib[k]]) == tuple(idx[ic[k]])


def test_convolution_table_weights():
    dim, deg = 2, 2
    ia, ib, ic, w = mi.convolution_table(dim, deg)
    idx = mi.enumerate_indices(dim, deg)
    for k in range(len(ia)):
        assert w[k] == mi.binom_componentwise(idx[ia[k]], idx[ib[k]])


def test_derivative_table_matches_manual():
    dim, deg = 2, 3
    src, factor = mi.derivative_table(dim, deg, 0)
    idx_lo = mi.enumerate_indices(dim, deg - 1)
    idx_hi = mi.enumerate_indices(dim, deg)
    for t, a in enumerate(idx_lo):
        assert tuple(idx_hi[src[t]]) == (a[0] + 1, a[1])
        assert factor[t] == a[0] + 1
    empty_src, empty_factor = mi.derivative_table(2, 0, 1)
    assert empty_src.size == 0 and empty_factor.size == 0
    with pytest.raises(ValueError):
        mi.derivative_table(2, 3, 2)


def test_numpy_views_are_frozen():
    exps = mi.exponent_matrix(2, 3)
    with pytest.raises(ValueError):
        exps[0, 0] = 5
    degs = mi.degree_vector(2, 3)
    assert degs.shape == (mi.count_indices(2, 3),)
    np.testing.assert_array_equal(degs, exps.sum(axis=1))


def test_to_json():
    assert mi.MultiIndex((1, 2)).to_json() == [1, 2]
