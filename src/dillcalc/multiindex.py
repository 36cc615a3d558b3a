"""Multi-index arithmetic and the cached combinatorial tables behind coefficient storage.

Every coefficient table in this package is indexed by multi-indices in a fixed
graded order: degree ascending, and within a degree by descending lexicographic
comparison of the exponent tuples, so for dimension 2 the order starts
(0,0), (1,0), (0,1), (2,0), (1,1), (0,2).  Positions in this order do not
depend on the truncation degree, so a degree-D table is a prefix of the
degree-D' table for D' > D.  All counting is done in exact integer arithmetic.

`rank` is the one place positions are computed: it maps exponent rows to
graded positions arithmetically, and the product, convolution and derivative
tables, the exponential structure maps, currying and series construction all
scatter through it.  `index_positions`, a dict built from the enumeration
alone, is kept for check-only code that must stay independent of `rank`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np


class MultiIndex(tuple):
    """Exponent vector of a monomial, one nonnegative entry per coordinate."""

    def __new__(cls, exponents):
        idx = super().__new__(cls, (int(e) for e in exponents))
        if not idx:
            raise ValueError("empty space: dimension must be at least 1")
        for e in idx:
            if e < 0:
                raise ValueError(f"negative exponent in multi-index {tuple(idx)}")
        return idx

    def degree(self) -> int:
        return sum(self)

    def __add__(self, other):
        if len(self) != len(other):
            raise ValueError(
                f"multi-index dimensions differ: {len(self)} vs {len(other)}"
            )
        return MultiIndex(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        if len(self) != len(other):
            raise ValueError(
                f"multi-index dimensions differ: {len(self)} vs {len(other)}"
            )
        return MultiIndex(a - b for a, b in zip(self, other))

    def to_json(self) -> list[int]:
        return list(self)


def _require_dim(dim: int) -> None:
    if dim < 1:
        raise ValueError("empty space: dimension must be at least 1")


def count_indices(dim: int, degree: int) -> int:
    """Number of multi-indices of the given dimension with total degree <= degree."""
    _require_dim(dim)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return math.comb(dim + degree, degree)


def _degree_block(dim: int, degree: int) -> np.ndarray:
    """Exponent rows of total degree exactly `degree`, in graded order.

    combinations_with_replacement lists the sorted coordinate tuples of length
    `degree` in ascending lexicographic order, and their multiplicity vectors
    come out in descending lexicographic order, which is the order inside a
    degree block.  No recursion, so any dimension works.
    """
    tuples = list(combinations_with_replacement(range(dim), degree))
    coords = np.array(tuples, dtype=np.int64).reshape(len(tuples), degree)
    rows = np.zeros((len(tuples), dim), dtype=np.int64)
    np.add.at(rows, (np.arange(len(tuples))[:, None], coords), 1)
    return rows


@lru_cache(maxsize=None)
def indices_of_degree(dim: int, degree: int) -> tuple[MultiIndex, ...]:
    """All multi-indices with total degree exactly `degree`, in graded order.

    Within the fixed degree the order is descending lexicographic, which is
    what makes (1,0) come before (0,1).
    """
    _require_dim(dim)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return tuple(MultiIndex(row) for row in _degree_block(dim, degree).tolist())


@lru_cache(maxsize=None)
def enumerate_indices(dim: int, max_degree: int) -> tuple[MultiIndex, ...]:
    """All multi-indices with total degree <= max_degree, in graded order."""
    _require_dim(dim)
    out = []
    for k in range(max_degree + 1):
        out.extend(indices_of_degree(dim, k))
    return tuple(out)


@lru_cache(maxsize=None)
def index_positions(dim: int, max_degree: int) -> dict[MultiIndex, int]:
    """Dict from multi-index to position, built from the enumeration alone.

    The package computes positions with `rank`; this table stays for
    check-only code that must not share that formula.
    """
    return {a: i for i, a in enumerate(enumerate_indices(dim, max_degree))}


def _pascal(rows: int, cols: int) -> np.ndarray:
    """int64 table P[j, k] = binom(j + k, k) for j < rows, k < cols."""
    table = np.ones((rows, cols), dtype=np.int64)
    for j in range(1, rows):
        table[j] = np.cumsum(table[j - 1])  # hockey stick: sum_t<=k P[j-1, t]
    return table


def rank(exps) -> np.ndarray:
    """Graded position of each multi-index along the last axis of `exps`.

    With suffix sums r_i = alpha_i + ... + alpha_(m-1), the indices before
    alpha are those of lower degree, count_indices(m, r_0 - 1), plus for each
    i >= 1 those of the same degree that agree with alpha on alpha_0 ..
    alpha_(i-2) and are larger at alpha_(i-1): count_indices(m - i, r_i - 1)
    of them.  So the position is sum_i binom(r_i + m - i - 1, m - i), with a
    zero term where r_i = 0.
    """
    exps = np.asarray(exps, dtype=np.int64)
    dim = exps.shape[-1]
    suffix = np.cumsum(exps[..., ::-1], axis=-1)[..., ::-1]
    top = int(suffix.max(initial=0))
    counts = np.zeros((top + 1, dim + 1), dtype=np.int64)
    counts[1:] = _pascal(top, dim + 1)  # counts[r, k] = count_indices(k, r - 1)
    return counts[suffix, np.arange(dim, 0, -1)].sum(axis=-1)


def position_of(alpha, max_degree: int) -> int:
    a = MultiIndex(alpha)
    if a.degree() > max_degree:
        raise ValueError(f"multi-index {tuple(a)} exceeds degree {max_degree}")
    return int(rank(a))


def multinomial(alpha) -> int:
    """|alpha|! / prod(alpha_i!), the number of orderings of the multiset."""
    a = MultiIndex(alpha)
    out = math.factorial(a.degree())
    for e in a:
        out //= math.factorial(e)
    return out


def binom_componentwise(alpha, beta) -> int:
    """prod_i binom(alpha_i + beta_i, alpha_i).

    This is the coefficient of x^alpha y^beta in (x + y)^(alpha + beta) and the
    structure constant of convolution on coefficient extractors.
    """
    a, b = MultiIndex(alpha), MultiIndex(beta)
    if len(a) != len(b):
        raise ValueError(f"multi-index dimensions differ: {len(a)} vs {len(b)}")
    out = 1
    for x, y in zip(a, b):
        out *= math.comb(x + y, x)
    return out


# ---------------------------------------------------------------------------
# numpy views used by the series engine


def _frozen(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def exponent_matrix(dim: int, max_degree: int) -> np.ndarray:
    """Integer array of shape (count, dim); row i is the i-th multi-index."""
    _require_dim(dim)
    m = np.concatenate([_degree_block(dim, d) for d in range(max_degree + 1)])
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def degree_vector(dim: int, max_degree: int) -> np.ndarray:
    v = exponent_matrix(dim, max_degree).sum(axis=1)
    v.setflags(write=False)
    return v


def _pair_blocks(dim: int, max_degree: int):
    """Yield (ia, ib, alpha_ia, alpha_ib) per degree block (da, db), da + db <= max_degree.

    Blocks come da-major, and pairs inside a block ia-major, so every table
    built from them lists its pairs in one fixed order.
    """
    exps = exponent_matrix(dim, max_degree)
    starts = [0] + [count_indices(dim, d) for d in range(max_degree + 1)]
    for da in range(max_degree + 1):
        rows_a = np.arange(starts[da], starts[da + 1])
        for db in range(max_degree - da + 1):
            rows_b = np.arange(starts[db], starts[db + 1])
            ia = np.repeat(rows_a, rows_b.size)
            ib = np.tile(rows_b, rows_a.size)
            yield ia, ib, exps[ia], exps[ib]


@lru_cache(maxsize=None)
def product_table(dim: int, max_degree: int):
    """Index triples (ia, ib, ic) with alpha_ia + alpha_ib = alpha_ic, all <= max_degree.

    Drives truncated Cauchy products: c[ic] += a[ia] * b[ib].
    """
    blocks = [(ia, ib, rank(a + b)) for ia, ib, a, b in _pair_blocks(dim, max_degree)]
    return _frozen(*(np.concatenate(col) for col in zip(*blocks)))


@lru_cache(maxsize=None)
def convolution_table(dim: int, max_degree: int):
    """The product_table triples with the weight binom_componentwise(alpha_ia, alpha_ib)."""
    ia, ib, ic = product_table(dim, max_degree)
    binom = _pascal(max_degree + 1, max_degree + 1)  # binom[y, x] = C(x + y, x)
    w = np.concatenate(
        [binom[b, a].prod(axis=1) for _, _, a, b in _pair_blocks(dim, max_degree)]
    ).astype(np.float64)
    w.setflags(write=False)
    return ia, ib, ic, w


@lru_cache(maxsize=None)
def derivative_table(dim: int, max_degree: int, coord: int):
    """Gather map for d/dx_coord on a degree-max_degree coefficient table.

    Returns (src, factor): the target coefficient at position t (over the
    degree max_degree - 1 order) is factor[t] * source[src[t]].
    """
    _require_dim(dim)
    if not 0 <= coord < dim:
        raise ValueError(f"coordinate {coord} out of range for dimension {dim}")
    if max_degree < 1:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
    lower = exponent_matrix(dim, max_degree)[: count_indices(dim, max_degree - 1)]
    raised = lower.copy()
    raised[:, coord] += 1
    return _frozen(rank(raised), (lower[:, coord] + 1).astype(np.float64))
