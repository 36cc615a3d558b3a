"""Multi-index arithmetic and the cached combinatorial tables behind coefficient storage.

Every coefficient table in this package is indexed by multi-indices in a fixed
graded order: degree ascending, and within a degree by descending lexicographic
comparison of the exponent tuples, so for dimension 2 the order starts
(0,0), (1,0), (0,1), (2,0), (1,1), (0,2).  Positions in this order do not
depend on the truncation degree, so a degree-D table is a prefix of the
degree-D' table for D' > D.  All counting is done in exact integer arithmetic.

A multi-index is a row of integers, and `rank` and `unrank` are the one
bijection between exponent rows and graded positions.  `rank` maps rows to
positions arithmetically, from suffix sums and a cached Pascal table;
`unrank` peels the same suffix sums off a position, and `exponent_matrix` is
`unrank` of every position.  Digging and series construction scatter
through `rank`; the JSON writers unrank only the positions they print.
`split_table` ranks each concatenation (alpha, beta) as lead(alpha, |beta|) +
rank(beta), one `rank` per alpha and |beta|; m2 and currying read it.
Adding multi-indices has one formula, the shift table `derivative_table`,
src[i, t] = rank(alpha_t + e_i), which applies the `rank` formula to
shifted suffix sums.  `power_tree` reads each parent beta - e_j off it, and
the product and convolution tables walk that tree, moving columns of pairs
through the shift table: no summed exponent row is formed, and no exponent
row above degree max_degree - 1 is read.  The same walk gives the point
monomials x^beta = x^(beta - e_j) x_j of `series._monomials_at`, and
`degree_vector` reads the sizes of the degree blocks, not exponent rows.
The scalar `position_of` takes any sequence of integers and checks it with
`_checked`.  `indices_of_degree`, `enumerate_indices` and `index_positions`
are plain-tuple views of `exponent_matrix` that no package code calls; the
benchmark's tracer (`perfbench/tracer.py`) wraps them by name.  The other
modules ask this one for the dimension rule (`_require_dim`) and for the
positions of a degree block (`degree_slice`; the degree-1 block holds the
unit indices e_1..e_m).
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

import numpy as np


def _require_dim(dim: int) -> None:
    """The one dimension rule: an integer by `_is_integer`, at least 1."""
    if not _is_integer(dim):
        raise ValueError(f"dimension must be an integer, got {dim!r}")
    if dim < 1:
        raise ValueError("empty space: dimension must be at least 1")


def count_indices(dim: int, degree: int) -> int:
    """Number of multi-indices of the given dimension with total degree <= degree."""
    _require_dim(dim)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return math.comb(dim + degree, degree)


def degree_slice(dim: int, degree: int) -> slice:
    """Positions of the degree-`degree` block in the graded order."""
    return slice(count_indices(dim, degree - 1) if degree else 0, count_indices(dim, degree))


@lru_cache(maxsize=None)
def indices_of_degree(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """The exponent rows of total degree exactly `degree`, as tuples."""
    return tuple(map(tuple, exponent_matrix(dim, degree)[degree_slice(dim, degree)].tolist()))


@lru_cache(maxsize=None)
def enumerate_indices(dim: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """The rows of `exponent_matrix(dim, max_degree)`, as tuples."""
    return tuple(map(tuple, exponent_matrix(dim, max_degree).tolist()))


@lru_cache(maxsize=None)
def index_positions(dim: int, max_degree: int) -> dict[tuple[int, ...], int]:
    """Dict from exponent tuple to position, read off the row order, not `rank`."""
    return {a: i for i, a in enumerate(enumerate_indices(dim, max_degree))}


@lru_cache(maxsize=None)
def _counts(top: int, width: int) -> np.ndarray:
    """int64 table counts[r, k] = count_indices(k, r - 1) = binom(r - 1 + k, k)
    for 0 < r <= top and k < width, with counts[0] = 0."""
    table = np.zeros((top + 1, width), dtype=np.int64)
    if top:
        table[1] = 1
    for r in range(2, top + 1):
        table[r] = np.cumsum(table[r - 1])  # hockey stick: sum_t<=k counts[r-1, t]
    table.setflags(write=False)
    return table


def _suffix(exps: np.ndarray) -> np.ndarray:
    """Suffix sums r_i = alpha_i + ... + alpha_(m-1) along the last axis."""
    return np.cumsum(exps[..., ::-1], axis=-1)[..., ::-1]


def rank(exps) -> np.ndarray:
    """Graded position of each multi-index along the last axis of `exps`.

    With suffix sums r_i = alpha_i + ... + alpha_(m-1), the indices before
    alpha are those of lower degree, count_indices(m, r_0 - 1), plus for each
    i >= 1 those of the same degree that agree with alpha on alpha_0 ..
    alpha_(i-2) and are larger at alpha_(i-1): count_indices(m - i, r_i - 1)
    of them.  So the position is sum_i binom(r_i + m - i - 1, m - i), read
    from the cached counts[r_i, m - i], with a zero term where r_i = 0.
    """
    exps = np.asarray(exps, dtype=np.int64)
    dim = exps.shape[-1]
    suffix = _suffix(exps)
    counts = _counts(int(suffix.max(initial=0)), dim + 1)
    return counts[suffix, np.arange(dim, 0, -1)].sum(axis=-1)


def unrank(positions, dim: int, max_degree: int) -> np.ndarray:
    """Exponent rows at the given graded positions, each below
    count_indices(dim, max_degree): the inverse of `rank`, shape (len, dim).

    The terms counts[r_i, m - i] of `rank` grow strictly with r_i, and the
    terms after the i-th sum to less than the gap to counts[r_i + 1, m - i],
    so each suffix sum r_i is the largest r with counts[r, m - i] at most
    what the earlier terms leave of the position (the combinatorial number
    system).  alpha_i = r_i - r_(i+1).
    """
    rest = np.array(positions, dtype=np.int64).reshape(-1)
    counts = _counts(max_degree, dim + 1)
    suffix = np.zeros((rest.size, dim + 1), dtype=np.int64)
    for i in range(dim):
        col = counts[:, dim - i]
        suffix[:, i] = (col <= rest[:, None]).sum(axis=1) - 1
        rest -= col[suffix[:, i]]
    return suffix[:, :-1] - suffix[:, 1:]


def _is_integer(e) -> bool:
    """A Python or numpy integer.  A bool, a float or a string is not one,
    though int() would read it.  The plain-int test comes first because the
    ABC test costs several times more."""
    return type(e) is int or (not isinstance(e, bool) and isinstance(e, numbers.Integral))


def _checked(alpha) -> tuple[int, ...]:
    """The exponents of a multi-index as Python ints, by `_is_integer`."""
    exps = tuple(alpha)
    _require_dim(len(exps))
    for e in exps:
        if not _is_integer(e):
            raise ValueError(f"non-integer exponent {e!r} in multi-index {exps!r}")
    exps = tuple(map(int, exps))
    if min(exps) < 0:
        raise ValueError(f"negative exponent in multi-index {exps}")
    return exps


def position_of(alpha, max_degree: int) -> int:
    a = _checked(alpha)
    if sum(a) > max_degree:
        raise ValueError(f"multi-index {a} exceeds degree {max_degree}")
    return int(rank(a))


# ---------------------------------------------------------------------------
# numpy views used by the series engine


def _frozen(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def exponent_matrix(dim: int, max_degree: int) -> np.ndarray:
    """Integer array of shape (count, dim); row i is the i-th multi-index."""
    return _frozen(unrank(np.arange(count_indices(dim, max_degree)), dim, max_degree))[0]


@lru_cache(maxsize=None)
def degree_vector(dim: int, max_degree: int) -> np.ndarray:
    """Total degree of each graded position, read off the degree block sizes."""
    sizes = np.diff([0] + [count_indices(dim, k) for k in range(max_degree + 1)])
    return _frozen(np.repeat(np.arange(max_degree + 1), sizes))[0]


def top_degrees(dim: int, *tables) -> tuple:
    """For each coefficient table, the least degree d whose first
    count_indices(dim, d) positions hold every nonzero entry along its last axis."""
    lasts = [np.nonzero(table)[-1].max(initial=-1) for table in tables]
    return tuple(next(d for d in range(last + 2) if count_indices(dim, d) > last) for last in lasts)


@lru_cache(maxsize=None)
def _pair_tables(dim: int, max_degree: int, top_a: int, top_b: int):
    """(ia, ib, ic, w) over all pairs alpha_ia + alpha_ib = alpha_ic, all <= max_degree,
    with |alpha_ia| <= top_a, |alpha_ib| <= top_b and the convolution weight
    w = prod_i C(alpha_ia_i + alpha_ib_i, alpha_ia_i).

    One walk over the degrees db <= top_b of beta writes each block (da, db),
    da + db <= max_degree, straight into the output, da-major and ia-major
    inside a block.  Column beta holds rank(alpha + beta) and the weight for
    every alpha with |alpha| <= min(top_a, max_degree - db): the column of its
    parent beta - e_j, j = last beta, moved through the shift table, the weight
    times (alpha_j + beta_j) / beta_j from `factor`, exact since weights are
    integers.  Only the previous degree's columns are kept.  The pair count
    is known before anything is built, and at 32 bytes a pair it is checked
    against `series.BYTE_BUDGET`.
    """
    from .series import _check_bytes

    block = [degree_slice(dim, d) for d in range(max_degree + 1)]
    n = [r.stop - r.start for r in block]
    # block (da, db) follows the n[a] * count(min(top_b, max_degree - a)) pairs of each a < da
    off = np.cumsum([0] + [n[a] * block[min(top_b, max_degree - a)].stop for a in range(top_a + 1)])
    _check_bytes(32 * int(off[-1]), f"a pair table of {off[-1]} pairs (dimension {dim}, degree {max_degree})")
    src, factor = derivative_table(dim, min(max_degree, top_a + top_b))
    parent, last = power_tree(dim, min(max_degree, top_a + top_b))
    ia, ib, ic = (np.empty(off[-1], dtype=np.int64) for _ in range(3))
    w = np.empty(off[-1], dtype=np.float64)
    cols, weights = np.arange(block[top_a].stop)[:, None], np.ones((block[top_a].stop, 1))
    for db, rb in enumerate(block[: top_b + 1]):
        if db:
            j, up = last[rb], parent[rb]
            rows, prev = block[min(top_a, max_degree - db)].stop, up - block[db - 1].start
            moved = cols[:rows, prev]
            cols = src[j, moved]
            weights = weights[:rows, prev] * factor[j, moved] / factor[j, up]
        for da, ra in enumerate(block[: min(top_a, max_degree - db) + 1]):
            at = slice(off[da] + n[da] * rb.start, off[da] + n[da] * rb.stop)
            ia[at].reshape(n[da], -1)[:] = np.arange(ra.start, ra.stop)[:, None]
            ib[at].reshape(n[da], -1)[:] = np.arange(rb.start, rb.stop)
            ic[at].reshape(n[da], -1)[:] = cols[ra]
            w[at].reshape(n[da], -1)[:] = weights[ra]
    return _frozen(ia, ib, ic, w)


@lru_cache(maxsize=None)
def product_table(dim: int, max_degree: int, top_a: float = math.inf, top_b: float = math.inf):
    """Index triples (ia, ib, ic) with alpha_ia + alpha_ib = alpha_ic, all <= max_degree,
    |alpha_ia| <= top_a and |alpha_ib| <= top_b: c[ic] += a[ia] * b[ib] is a Cauchy
    product, and the `top_degrees` of a and b drop only pairs that multiply a zero."""
    return _pair_tables(dim, max_degree, min(top_a, max_degree), min(top_b, max_degree))[:3]


@lru_cache(maxsize=None)
def convolution_table(dim: int, max_degree: int, top_a: float = math.inf, top_b: float = math.inf):
    """The product_table triples with the weight prod_i C(alpha_ia_i + alpha_ib_i, alpha_ia_i),
    the structure constant of convolution on coefficient extractors."""
    return _pair_tables(dim, max_degree, min(top_a, max_degree), min(top_b, max_degree))


@lru_cache(maxsize=None)
def derivative_table(dim: int, max_degree: int):
    """Gather maps for every d/dx_i on a degree-max_degree coefficient table.

    Returns (src, factor), both of shape (dim, count_indices(dim, max_degree - 1)):
    the coefficient at position t of d/dx_i, over the degree max_degree - 1
    order, is factor[i, t] * source[src[i, t]].  Adding e_i raises the suffix
    sums s_k with k <= i by one, so with alpha the row at t,
    rank(alpha + e_i) = t + sum_(k <= i) counts[s_k + 1, m - k] - counts[s_k, m - k],
    a prefix sum over the coordinates.
    """
    _require_dim(dim)
    if max_degree < 1:
        return _frozen(np.zeros((dim, 0), dtype=np.int64), np.zeros((dim, 0)))
    lower = exponent_matrix(dim, max_degree - 1)
    suffix = _suffix(lower)
    counts = _counts(max_degree, dim + 1)
    cols = np.arange(dim, 0, -1)
    src = np.cumsum(counts[suffix + 1, cols] - counts[suffix, cols], axis=1)
    src += np.arange(len(lower))[:, None]
    return _frozen(np.ascontiguousarray(src.T), np.ascontiguousarray(lower.T + 1.0))


def _runs(sizes: np.ndarray):
    """(k, t) over the places t < sizes[k] of consecutive runs, k-major."""
    k = np.repeat(np.arange(sizes.size), sizes)
    return k, np.arange(k.size) - (np.cumsum(sizes) - sizes)[k]


@lru_cache(maxsize=None)
def split_table(dim_a: int, dim_b: int, max_degree: int):
    """(i, j, pos) over the pairs (alpha_i, beta_j) with |alpha_i| + |beta_j|
    <= max_degree, i-major and j ascending, pos the graded position of the
    concatenated row on C^(dim_a + dim_b): a permutation of its positions.  In
    `rank` of that row the beta coordinates add j = rank(beta), and the alpha
    ones a lead of alpha and b = |beta| alone; (0, ..., 0, b) closes its degree
    block, so lead = rank((alpha, 0, ..., 0, b)) - (count_indices(dim_b, b) - 1)."""
    top = max_degree - degree_vector(dim_a, max_degree)
    blocks = np.array([count_indices(dim_b, d) for d in range(max_degree + 1)])
    li, b = _runs(top + 1)
    rows = np.zeros((li.size, dim_a + dim_b), dtype=np.int64)
    rows[:, :dim_a], rows[:, -1] = exponent_matrix(dim_a, max_degree)[li], b
    lead = np.empty((top.size, max_degree + 1), dtype=np.int64)
    lead[li, b] = rank(rows) - (blocks[b] - 1)
    i, j = _runs(blocks[top])
    return _frozen(i, j, lead[i, degree_vector(dim_b, max_degree)[j]] + j)


@lru_cache(maxsize=None)
def power_tree(dim: int, max_degree: int):
    """(parent, last) over the graded positions up to max_degree: each beta
    but the root is parent[beta] + e_j, j = last[beta] its last nonzero
    coordinate; the root reads (0, 0).  Row j of the shift table sends
    alpha_t to alpha_t + e_j, and no two alpha_t to one beta, so writing the
    rows in ascending j leaves at beta the shift of its last nonzero j."""
    src, _ = derivative_table(dim, max_degree)
    parent, last = (np.zeros(count_indices(dim, max_degree), dtype=np.int64) for _ in range(2))
    shifts = np.arange(src.shape[1])
    for j, row in enumerate(src):
        parent[row] = shifts
        last[row] = j
    return _frozen(parent, last)
