"""The oracle's index generator against the filter it replaced.

`brute.iter_indices` prunes: it never builds a tuple whose sum passes the
degree.  The filter keeps the tuples of product(range(D + 1), repeat=dim)
whose sum is at most D; here it walks the whole product in numpy blocks, so
even (15, 2), 3**15 tuples, takes a moment.
"""

from itertools import product

import numpy as np
import pytest

from brute import iter_indices

# every shape the suite hands to brute: dimension at most 6 and degree at most
# 8 (hypothesis draws, the oracle tables and their level-two spaces), and the
# level-two shape (15, 2) of the product and convolution tables
SHAPES = [(dim, deg) for dim in range(1, 7) for deg in range(9)] + [(15, 2)]


def filtered_product(dim, deg):
    """[t for t in product(range(deg + 1), repeat=dim) if sum(t) <= deg]"""
    split = dim // 2
    tails = np.array(list(product(range(deg + 1), repeat=dim - split)), dtype=np.int64)
    tail_sums = tails.sum(axis=1)
    out = []
    for head in product(range(deg + 1), repeat=split):
        keep = tails[sum(head) + tail_sums <= deg]
        out.extend(head + tuple(t) for t in keep.tolist())
    return out


@pytest.mark.parametrize("dim,deg", SHAPES)
def test_pruned_indices_equal_the_filtered_product(dim, deg):
    got = list(iter_indices(dim, deg))
    assert got == filtered_product(dim, deg)  # the same tuples, in the same order
    assert len(set(got)) == len(got)


def test_filtered_product_is_the_plain_filter():
    for dim, deg in [(1, 3), (2, 4), (3, 3), (4, 2), (5, 1)]:
        plain = [t for t in product(range(deg + 1), repeat=dim) if sum(t) <= deg]
        assert filtered_product(dim, deg) == plain
