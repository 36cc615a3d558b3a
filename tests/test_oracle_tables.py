"""Index tables and structure maps against entry-by-entry oracles.

Positions come from sorting plain tuples (brute.graded_positions) and weights
from math.comb, so nothing here shares code with the rank function or the
table scatters it checks.  Several laws compare two package routes that now
read the same table (cocontraction against convolve, for one); this file is
the check that stands outside both.
"""

import math

import numpy as np
import pytest

from dillcalc import exponential as xp
from dillcalc import multiindex as mi

from brute import graded_order, graded_positions

CASES = [(dim, deg) for dim in (1, 2, 3) for deg in (0, 1, 2, 3)]


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def weight(a, b):
    return math.prod(math.comb(x + y, x) for x, y in zip(a, b))


def pairs(dim, deg):
    """(alpha, beta) with |alpha| + |beta| <= deg, degree blocks first, alpha-major."""
    order = graded_order(dim, deg)
    for da in range(deg + 1):
        for db in range(deg - da + 1):
            for a in (t for t in order if sum(t) == da):
                for b in (t for t in order if sum(t) == db):
                    yield a, b


@pytest.mark.parametrize("dim,deg", CASES)
def test_enumeration_matches_sorted_tuples(dim, deg):
    assert [tuple(a) for a in mi.enumerate_indices(dim, deg)] == graded_order(dim, deg)
    np.testing.assert_array_equal(mi.exponent_matrix(dim, deg), graded_order(dim, deg))


@pytest.mark.parametrize("dim,deg", CASES + [(15, 2)])  # (15, 2): a level-two shape
def test_product_and_convolution_tables(dim, deg):
    pos = graded_positions(dim, deg)
    want = [(pos[a], pos[b], pos[add(a, b)], weight(a, b)) for a, b in pairs(dim, deg)]
    ia, ib, ic = mi.product_table(dim, deg)
    for got, col in zip((ia, ib, ic), zip(*want)):
        np.testing.assert_array_equal(got, col)
    ja, jb, jc, w = mi.convolution_table(dim, deg)
    for got, col in zip((ja, jb, jc, w), zip(*want)):
        np.testing.assert_array_equal(got, col)
    assert w.dtype == np.float64


@pytest.mark.parametrize("dim,deg", CASES)
def test_derivative_table(dim, deg):
    pos = graded_positions(dim, deg)
    src, factor = mi.derivative_table(dim, deg)
    assert src.shape == factor.shape == (dim, mi.count_indices(dim, deg - 1) if deg else 0)
    for coord in range(dim):
        unit = tuple(int(i == coord) for i in range(dim))
        lower = graded_order(dim, deg - 1) if deg else []
        np.testing.assert_array_equal(src[coord], [pos[add(a, unit)] for a in lower])
        np.testing.assert_array_equal(factor[coord], [a[coord] + 1 for a in lower])


@pytest.mark.parametrize("dim,deg", CASES)
def test_contraction_and_cocontraction(dim, deg):
    pos = graded_positions(dim, deg)
    n = len(pos)
    delta = np.zeros((n * n, n), dtype=np.complex128)
    nabla = np.zeros((n, n * n), dtype=np.complex128)
    for a, b in pairs(dim, deg):
        delta[pos[a] * n + pos[b], pos[add(a, b)]] = 1.0
        nabla[pos[add(a, b)], pos[a] * n + pos[b]] = weight(a, b)
    np.testing.assert_array_equal(xp.contraction(dim, deg).matrix, delta)
    np.testing.assert_array_equal(xp.cocontraction(dim, deg).matrix, nabla)


@pytest.mark.parametrize("dim_e,deg", CASES)
@pytest.mark.parametrize("dim_f", (1, 2, 3))
def test_monoidal_product_and_inverse(dim_e, dim_f, deg):
    pos_e, pos_f = graded_positions(dim_e, deg), graded_positions(dim_f, deg)
    pos = graded_positions(dim_e + dim_f, deg)
    nf = len(pos_f)
    m2 = np.zeros((len(pos), len(pos_e) * nf), dtype=np.complex128)
    m2inv = np.zeros((len(pos_e) * nf, len(pos)), dtype=np.complex128)
    for a, i in pos_e.items():
        for b, j in pos_f.items():
            if sum(a) + sum(b) <= deg:
                m2[pos[a + b], i * nf + j] = 1.0
    for g, col in pos.items():
        m2inv[pos_e[g[:dim_e]] * nf + pos_f[g[dim_e:]], col] = 1.0
    np.testing.assert_array_equal(xp.monoidal_product(dim_e, dim_f, deg).matrix, m2)
    np.testing.assert_array_equal(xp.monoidal_product_inverse(dim_e, dim_f, deg).matrix, m2inv)


@pytest.mark.parametrize("dim,deg", CASES)
def test_swap_operator(dim, deg):
    for left, right in [
        (xp.DistBasis(dim, deg), xp.VectorBasis(2)),
        (xp.VectorBasis(3), xp.DistBasis(dim, deg)),
    ]:
        nl, nr = left.size, right.size
        want = np.zeros((nl * nr, nl * nr), dtype=np.complex128)
        for i in range(nl):
            for j in range(nr):
                want[:, i * nr + j] = np.kron(np.eye(nr)[j], np.eye(nl)[i])
        np.testing.assert_array_equal(xp.swap_operator(left, right).matrix, want)


@pytest.mark.parametrize("before,left,right,after", [(2, 3, 2, 2), (3, 2, 4, 5), (2, 1, 3, 3)])
def test_swap_at_an_inner_slot(before, left, right, after):
    # sigma exchanging the slots left (x) right inside before (x) . (x) after,
    # against the explicit permutation kron(I_before, P, I_after)
    perm = np.zeros((left * right, left * right))
    for i in range(left):
        for j in range(right):
            perm[j * left + i, i * right + j] = 1.0
    size = before * left * right * after
    dense = (np.arange(size * 4) % 7).reshape(size, 4) * (1 - 2j)
    x = xp.LinearOperator(xp.VectorBasis(4), xp.VectorBasis(size), dense)
    got = x.swap(left, right, after)
    want = np.kron(np.kron(np.eye(before), perm), np.eye(after)) @ dense
    assert (got.source, got.target) == (x.source, xp.VectorBasis(size))
    np.testing.assert_array_equal(got.matrix, want)


@pytest.mark.parametrize("dim,deg", [(1, 3), (2, 2)])
def test_comultiplication(dim, deg):
    inner = graded_order(dim, deg)
    pos = graded_positions(dim, deg)
    outer = graded_order(len(inner), deg)
    want = np.zeros((len(outer), len(inner)), dtype=np.complex128)
    for r, big in enumerate(outer):
        gamma = tuple(sum(e * a[c] for e, a in zip(big, inner)) for c in range(dim))
        if sum(gamma) <= deg:
            want[r, pos[gamma]] = 1.0
    np.testing.assert_array_equal(xp.comultiplication(dim, deg).matrix, want)
