"""Distributions on truncated series spaces and the exponential structure maps.

A distribution of degree D on C^m is a linear functional on the degree-D
series space, stored in the basis of coefficient extractors: eps_alpha sends a
series to its alpha coefficient, and a distribution is sum_alpha d_alpha
eps_alpha over |alpha| <= D.  The Dirac functional at x has d_alpha = x^alpha,
and the extractor basis is exactly what makes the convolution product and the
comonad matrices finite and explicit.

Conventions for the operator matrices:

* bases are described by VectorBasis (a plain C^k), DistBasis (a distribution
  space with its dimension and degree) and TensorBasis (pairs, row-major);
* a map out of a tensor basis truncates: any image index of total degree
  above the target degree is dropped to 0;
* the structure maps (dereliction, digging, weakening, contraction,
  cocontraction, m2) are sparse scatters of index tables, built from their
  nonzero entries; coweakening, codereliction and m2's inverse are their
  transposes, and the swap sigma is `swap` on the identity.  `LinearOperator`
  is the one place that computes on (row, col, value) triples (`act`,
  `swap`, `@`, `.T`, `-`), and a tensor product of maps is two `act`s;
  promotion and the adjunction are dense;
* the structural laws are checked on the sub-basis where the truncated maps
  are exact; the law harness states each restriction explicitly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import multiindex as mi
from .series import (
    FiniteSpace, TruncatedSeries, _check_degree, _check_index_dim, _check_size, _json_header,
    _json_terms, _monomials_at,
)


# ---------------------------------------------------------------------------
# distributions


class Distribution:
    """A linear functional sum_alpha d_alpha eps_alpha on degree-D series over C^m."""

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim: int, degree: int, coeffs):
        mi._require_dim(dim)
        degree = _check_degree(degree)
        n_idx = _check_size(dim, 1, degree)
        arr = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if arr.size != n_idx:
            raise ValueError(
                f"coefficient vector has length {arr.size}, expected "
                f"{n_idx} for dimension {dim} degree {degree}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Distribution is immutable")

    @classmethod
    def zero(cls, dim: int, degree: int) -> "Distribution":
        return cls(dim, degree, np.zeros(_check_size(dim, 1, degree)))

    @classmethod
    def extractor(cls, alpha, degree: int) -> "Distribution":
        """The basis functional eps_alpha."""
        arr = np.zeros(_check_size(len(alpha), 1, degree), dtype=np.complex128)
        arr[mi.position_of(alpha, degree)] = 1.0
        return cls(len(alpha), degree, arr)

    def coefficient(self, alpha) -> complex:
        _check_index_dim(alpha, self.dim)
        return complex(self.coeffs[mi.position_of(alpha, self.degree)])

    def apply(self, f: TruncatedSeries) -> np.ndarray:
        """Pair with a series: sum_alpha d_alpha c_alpha(f), componentwise on f.

        The pairing runs over the indices both sides know about; a distribution
        is a finite combination of extractors, so it acts on any series, but it
        only sees coefficients up to its own degree.
        """
        if f.domain.dim != self.dim:
            raise ValueError(
                f"distribution lives on dimension {self.dim}, series domain is {f.domain.dim}"
            )
        common = mi.count_indices(self.dim, min(self.degree, f.degree))
        return f.coeffs[:, :common] @ self.coeffs[:common]

    def add(self, other: "Distribution") -> "Distribution":
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("distribution shapes differ: cannot add")
        return Distribution(self.dim, self.degree, self.coeffs + other.coeffs)

    def scale(self, scalar: complex) -> "Distribution":
        return Distribution(self.dim, self.degree, self.coeffs * scalar)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def __mul__(self, scalar):
        return self.scale(scalar)

    __rmul__ = __mul__

    def __repr__(self):
        nz = int(np.count_nonzero(self.coeffs))
        return f"Distribution(dim {self.dim}, degree {self.degree}, {nz} nonzero coefficients)"

    def to_json_dict(self) -> dict:
        (pos,) = np.nonzero(self.coeffs)
        alphas = mi.unrank(pos, self.dim, self.degree).tolist()
        entries = [
            {"alpha": a, "re": c.real, "im": c.imag}
            for a, c in zip(alphas, self.coeffs[pos].tolist())
        ]
        return {"dim": self.dim, "degree": self.degree, "coeffs": entries}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), allow_nan=False)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Distribution":
        dim, degree = _json_header(data, "distribution", ("dim", "degree"))
        terms = _json_terms(data.get("coeffs", []), "distribution")
        # a distribution is stored as the coefficient row of a scalar series
        row = TruncatedSeries.from_terms(dim, 1, degree, terms)
        return cls(dim, degree, row.coeffs[0])


def dirac(x, degree: int) -> Distribution:
    """The evaluation functional delta_x, with d_alpha = x^alpha."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    degree = _check_degree(degree)
    _check_size(x.size, 1, degree)
    return Distribution(x.size, degree, _monomials_at(x, x.size, degree))


def theta(order: int, x, degree: int) -> Distribution:
    """The scaled coefficient extractor at x: applying theta(n, x) to f gives n! f_n(x).

    theta_0(x) is delta_0, theta_1(x) is the derivative of t -> delta_{tx}
    at 0, and theta_{n+1} = theta_1 * theta_n under convolution; the closed
    form n! sum_{|alpha| = n} x^alpha eps_alpha is what gets stored.
    """
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    degree = _check_degree(degree)
    if not (mi._is_integer(order) and 0 <= order <= degree):
        raise ValueError(f"extractor order {order} outside 0..{degree}")
    dim = x.size
    _check_size(dim, 1, degree)
    mono = _monomials_at(x, dim, degree)
    mask = mi.degree_vector(dim, degree) == order
    return Distribution(dim, degree, math.factorial(order) * mono * mask)


def convolve(d1: Distribution, d2: Distribution) -> Distribution:
    """Convolution product; on extractors eps_alpha * eps_beta =
    binom_componentwise(alpha, beta) eps_(alpha+beta), truncated at the degree."""
    if (d1.dim, d1.degree) != (d2.dim, d2.degree):
        raise ValueError("distribution shapes differ: cannot convolve")
    tops = mi.top_degrees(d1.dim, d1.coeffs, d2.coeffs)
    ia, ib, ic, w = mi.convolution_table(d1.dim, d1.degree, *tops)
    out = np.zeros_like(d1.coeffs)
    np.add.at(out, ic, w * d1.coeffs[ia] * d2.coeffs[ib])
    return Distribution(d1.dim, d1.degree, out)


def codereliction(v, degree: int) -> Distribution:
    """theta_1(v): the first-order extractor sum_i v_i eps_(e_i)."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    degree = _check_degree(degree)
    if degree < 1:
        raise ValueError("codereliction needs degree at least 1")
    arr = np.zeros(_check_size(v.size, 1, degree), dtype=np.complex128)
    arr[mi.degree_slice(v.size, 1)] = v  # the unit indices e_1..e_m
    return Distribution(v.size, degree, arr)


# ---------------------------------------------------------------------------
# bases and operators


@dataclass(frozen=True)
class VectorBasis:
    dim: int

    @property
    def size(self) -> int:
        return self.dim

    def describe(self) -> dict:
        return {"kind": "vector", "dim": self.dim}


@dataclass(frozen=True)
class DistBasis:
    dim: int
    degree: int

    @property
    def size(self) -> int:
        return mi.count_indices(self.dim, self.degree)

    def describe(self) -> dict:
        return {"kind": "dist", "dim": self.dim, "degree": self.degree}


@dataclass(frozen=True)
class TensorBasis:
    left: "Basis"
    right: "Basis"

    @property
    def size(self) -> int:
        return self.left.size * self.right.size

    def describe(self) -> dict:
        return {"kind": "tensor", "left": self.left.describe(), "right": self.right.describe()}


Basis = Union[VectorBasis, DistBasis, TensorBasis]


def _join(left: np.ndarray, right: np.ndarray):
    """All index pairs (i, j) with left[i] == right[j], grouped by i."""
    order = np.argsort(right, kind="stable")
    keys = right[order]
    lo = np.searchsorted(keys, left, side="left")
    counts = np.searchsorted(keys, left, side="right") - lo
    i = np.repeat(np.arange(left.size), counts)
    first = np.repeat(lo - np.cumsum(counts) + counts, counts)
    return i, order[first + np.arange(i.size)]


def _check_keys(n_rows: int, n_cols: int) -> None:
    """Entries are sorted and merged on the int64 key row * n_cols + col."""
    if n_rows * n_cols > 2**63:
        raise ValueError(
            f"operator shape ({n_rows}, {n_cols}) has more than 2**63 entries, "
            "past the int64 entry keys"
        )


def _keys(rows, cols, n_cols: int) -> np.ndarray:
    keys = rows * n_cols
    keys += cols
    return keys


def _merge(keys, vals, n_cols: int):
    """Read-only row-major (rows, cols, vals) triples of the entries keyed
    row * n_cols + col, repeated keys summed and zero sums dropped, and the
    number of distinct keys."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(vals[order], starts)
    keep = sums != 0
    entries = (*np.divmod(keys[starts[keep]], n_cols), sums[keep])
    for arr in entries:
        arr.setflags(write=False)
    return entries, starts.size


class LinearOperator:
    """Complex matrix between described bases, rows indexing the target.

    `LinearOperator(source, target, matrix)` keeps the dense matrix it is
    given, signed zeros included.  `from_entries` keeps only the nonzero
    (row, col, value) triples, as the structure maps and `identity` are
    built, and `matrix` scatters them into a dense array when first read.
    `act`, `@` and `.T` join and relabel triples, except that `@` of two
    dense operators is one dense product.  Their results may repeat a
    (row, col) pair; repeats are summed, and zero sums dropped, once, when
    `entries()` or `matrix` is first read.  `-` merges as it goes, on the
    keys of both operands.  Merges sort on the int64 key row * n_cols + col,
    so `from_entries` and `act` refuse a shape of more than 2**63 entries.
    """

    __slots__ = ("source", "target", "_matrix", "_entries", "_merged")

    def __init__(self, source: Basis, target: Basis, matrix):
        arr = np.asarray(matrix, dtype=np.complex128)
        if arr.shape != (target.size, source.size):
            raise ValueError(
                f"matrix has shape {arr.shape}, expected ({target.size}, {source.size})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        self._set(source=source, target=target, _matrix=arr, _entries=None, _merged=True)

    def __setattr__(self, name, value):
        raise AttributeError("LinearOperator is immutable")

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @classmethod
    def _from_triples(cls, source, target, rows, cols, vals, merged=False) -> "LinearOperator":
        op = cls.__new__(cls)
        op._set(
            source=source, target=target, _matrix=None, _entries=(rows, cols, vals), _merged=merged
        )
        return op

    @classmethod
    def from_entries(cls, source: Basis, target: Basis, rows, cols, vals) -> "LinearOperator":
        """The operator whose entry (rows[k], cols[k]) is vals[k] and every other
        entry 0.  Zero values are dropped and the triples kept in row-major order."""
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        cols = np.asarray(cols, dtype=np.intp).reshape(-1)
        vals = np.asarray(vals, dtype=np.complex128).reshape(-1)
        if not rows.size == cols.size == vals.size:
            raise ValueError(
                f"entry arrays have lengths {rows.size}, {cols.size}, {vals.size}"
            )
        n_rows, n_cols = target.size, source.size
        _check_keys(n_rows, n_cols)
        if rows.size and (
            rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols
        ):
            raise ValueError(f"entry index outside the shape ({n_rows}, {n_cols})")
        entries, distinct = _merge(_keys(rows, cols, n_cols), vals, n_cols)
        if distinct < rows.size:
            raise ValueError("repeated (row, col) entry")
        return cls._from_triples(source, target, *entries, merged=True)

    @property
    def matrix(self) -> np.ndarray:
        """The dense (target.size, source.size) matrix, read-only."""
        if self._matrix is None:
            arr = np.zeros((self.target.size, self.source.size), dtype=np.complex128)
            rows, cols, vals = self.entries()
            arr[rows, cols] = vals
            arr.setflags(write=False)
            self._set(_matrix=arr)
        return self._matrix

    def entries(self) -> tuple:
        """The nonzero entries as (rows, cols, vals) arrays, in row-major order."""
        if self._entries is None:
            rows, cols = np.nonzero(self._matrix)
            return rows, cols, self._matrix[rows, cols]
        if not self._merged:
            rows, cols, vals = self._entries
            n_cols = self.source.size
            self._set(_entries=_merge(_keys(rows, cols, n_cols), vals, n_cols)[0], _merged=True)
        return self._entries

    def _triples(self) -> tuple:
        """The triples as stored, repeats and all, or a dense matrix's nonzeros."""
        return self.entries() if self._entries is None else self._entries

    @classmethod
    def identity(cls, basis: Basis) -> "LinearOperator":
        diagonal = np.arange(basis.size)
        return cls.from_entries(basis, basis, diagonal, diagonal, np.ones(basis.size))

    def act(self, x: "LinearOperator", after: int = 1) -> "LinearOperator":
        """(1 (x) self (x) 1_after) x: self acts on the slot of x's target above
        trailing factors of total size `after`.  The target is self's when the
        slot is all of x's target, and otherwise the plain C^k of its size."""
        before, rest = divmod(x.target.size, self.source.size * after)
        if rest:
            raise ValueError(f"{self.source} is not a slot of {x.target} above size {after}")
        whole = (before, after) == (1, 1)
        target = self.target if whole else VectorBasis(before * self.target.size * after)
        _check_keys(target.size, x.source.size)
        rows, cols, vals = x._triples()
        a_rows, a_cols, a_vals = self._triples()
        head, tail = np.divmod(rows, after)
        head, slot = np.divmod(head, self.source.size)
        i, j = _join(slot, a_cols)
        rows = (head[i] * self.target.size + a_rows[j]) * after + tail[i]
        return LinearOperator._from_triples(x.source, target, rows, cols[i], vals[i] * a_vals[j])

    def swap(self, left: int, right: int, after: int = 1) -> "LinearOperator":
        """(1 (x) sigma (x) 1_after) self, sigma exchanging the adjacent target
        slots of sizes left and right above trailing factors of total size
        `after`: a permutation of the row indices.  A whole TensorBasis pair
        becomes the swapped pair, any other target the plain C^k of its size."""
        t = self.target
        if t.size % (left * right * after):
            raise ValueError(f"no slots of sizes {left}, {right} in {t} above size {after}")
        rows, cols, vals = self.entries()
        a, b = np.divmod(rows // after % (left * right), right)
        # the pair (a, b) at a * right + b moves to b * left + a
        rows = rows + (b * (left - 1) - a * (right - 1)) * after
        pair = isinstance(t, TensorBasis) and (t.left.size, t.right.size) == (left, right)
        target = TensorBasis(t.right, t.left) if pair else VectorBasis(t.size)
        return LinearOperator.from_entries(self.source, target, rows, cols, vals)

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        if other.target != self.source:
            raise ValueError(
                f"operator composition mismatch: {other.target} feeds into {self.source}"
            )
        if self._entries is None and other._entries is None:
            return LinearOperator(other.source, self.target, self._matrix @ other._matrix)
        return self.act(other)

    @property
    def T(self) -> "LinearOperator":
        """The transpose, with rows and columns of the triples exchanged."""
        rows, cols, vals = self._triples()
        return LinearOperator._from_triples(self.target, self.source, cols, rows, vals)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        """The difference, on self's bases, merged; other's bases need only the
        same sizes, so tensor factors may be grouped differently."""
        if (self.target.size, self.source.size) != (other.target.size, other.source.size):
            raise ValueError(f"operator shapes differ: {self} vs {other}")
        n_cols = self.source.size
        (rows, cols, vals), (o_rows, o_cols, o_vals) = self._triples(), other._triples()
        entries, _ = _merge(
            np.concatenate([_keys(rows, cols, n_cols), _keys(o_rows, o_cols, n_cols)]),
            np.concatenate([vals, -o_vals]),
            n_cols,
        )
        return LinearOperator._from_triples(self.source, self.target, *entries, merged=True)

    def __call__(self, value):
        """Apply to a Distribution or a raw coordinate vector; the result is
        wrapped as a Distribution when the target is a distribution basis."""
        if isinstance(value, Distribution):
            if not isinstance(self.source, DistBasis) or (
                value.dim,
                value.degree,
            ) != (self.source.dim, self.source.degree):
                raise ValueError("distribution does not live in the operator source basis")
            vec = value.coeffs
        else:
            vec = np.asarray(value, dtype=np.complex128).reshape(-1)
            if vec.size != self.source.size:
                raise ValueError(
                    f"vector has length {vec.size}, source basis has size {self.source.size}"
                )
        if self._entries is None:
            out = self._matrix @ vec
        else:
            rows, cols, vals = self._entries
            out = np.zeros(self.target.size, dtype=np.complex128)
            np.add.at(out, rows, vals * vec[cols])
        if isinstance(self.target, DistBasis):
            return Distribution(self.target.dim, self.target.degree, out)
        return out

    def __repr__(self):
        return f"LinearOperator({self.source} -> {self.target})"

    def to_json_dict(self) -> dict:
        return {
            "source": self.source.describe(),
            "target": self.target.describe(),
            "matrix": [[[v.real, v.imag] for v in row] for row in self.matrix.tolist()],
        }


# ---------------------------------------------------------------------------
# structure maps


def counit(dim: int, degree: int) -> LinearOperator:
    """Dereliction !E -> E: keeps the unit extractors, so delta_x goes to x."""
    degree = _check_degree(degree)
    units = np.arange(dim if degree >= 1 else 0)
    first = mi.degree_slice(dim, 1).start  # the unit indices e_1..e_m
    return LinearOperator.from_entries(
        DistBasis(dim, degree), VectorBasis(dim), units, first + units, np.ones(units.size)
    )


def comultiplication(dim: int, degree: int) -> LinearOperator:
    """Digging !E -> !!E determined by delta_x -> delta_(delta_x).

    The coefficient of delta_(delta_x) at the outer index A is
    prod_j (x^alpha_j)^(A_j) = x^(sum_j A_j alpha_j), so the matrix has a 1
    placing each outer index A at the inner index sum_j A_j alpha_j, and rows
    whose inner index overflows the inner degree stay zero.  The outer
    exponent table, n_outer x n_inner, is the largest allocation, and it is
    checked against the size budget first.
    """
    degree = _check_degree(degree)
    n_inner = mi.count_indices(dim, degree)
    _check_size(n_inner, n_inner, degree)
    inner_exps = mi.exponent_matrix(dim, degree)  # (n_inner, dim)
    outer_exps = mi.exponent_matrix(n_inner, degree)  # (n_outer, n_inner)
    images = outer_exps @ inner_exps  # row r: the inner multi-index hit by row r
    rows = np.flatnonzero(images.sum(axis=1) <= degree)
    return LinearOperator.from_entries(
        DistBasis(dim, degree),
        DistBasis(n_inner, degree),
        rows,
        mi.rank(images[rows]),
        np.ones(rows.size),
    )


def weakening(dim: int, degree: int) -> LinearOperator:
    """e: !E -> C, the coefficient at alpha = 0; e(delta_x) = 1."""
    degree = _check_degree(degree)
    return LinearOperator.from_entries(DistBasis(dim, degree), VectorBasis(1), [0], [0], [1.0])


def coweakening(dim: int, degree: int) -> LinearOperator:
    """m0: C -> !E sending 1 to eps_0 = delta_0, the unit of convolution: e^T."""
    return weakening(dim, degree).T


def contraction(dim: int, degree: int) -> LinearOperator:
    """Delta: !E -> !E (x) !E splitting each extractor over all index sums.

    eps_gamma goes to the sum of eps_alpha (x) eps_beta over alpha + beta =
    gamma: the product table read backwards.
    """
    degree = _check_degree(degree)
    basis = DistBasis(dim, degree)
    ia, ib, ic = mi.product_table(dim, degree)
    return LinearOperator.from_entries(
        basis, TensorBasis(basis, basis), ia * basis.size + ib, ic, np.ones(ic.size)
    )


def cocontraction(dim: int, degree: int) -> LinearOperator:
    """nabla: !E (x) !E -> !E, the bilinear form of convolution on extractors."""
    degree = _check_degree(degree)
    basis = DistBasis(dim, degree)
    ia, ib, ic, w = mi.convolution_table(dim, degree)
    return LinearOperator.from_entries(
        TensorBasis(basis, basis), basis, ic, ia * basis.size + ib, w
    )


def monoidal_product(dim_e: int, dim_f: int, degree: int) -> LinearOperator:
    """m2: !E (x) !F -> !(E x F), concatenating extractor indices.

    Bijective between the pairs with |alpha| + |beta| <= degree and the basis
    of the product space; pairs over the budget truncate to 0.
    """
    degree = _check_degree(degree)
    be, bf = DistBasis(dim_e, degree), DistBasis(dim_f, degree)
    de = mi.degree_vector(dim_e, degree)
    df = mi.degree_vector(dim_f, degree)
    i, j = np.nonzero(de[:, None] + df[None, :] <= degree)
    gamma = np.hstack(
        [mi.exponent_matrix(dim_e, degree)[i], mi.exponent_matrix(dim_f, degree)[j]]
    )
    return LinearOperator.from_entries(
        TensorBasis(be, bf),
        DistBasis(dim_e + dim_f, degree),
        mi.rank(gamma),
        i * bf.size + j,
        np.ones(i.size),
    )


def monoidal_product_inverse(dim_e: int, dim_f: int, degree: int) -> LinearOperator:
    """Splits !(E x F) back into the pair of marginal extractors: the transpose
    of the bijection m2."""
    return monoidal_product(dim_e, dim_f, degree).T


def swap_operator(left: Basis, right: Basis) -> LinearOperator:
    """sigma: left (x) right -> right (x) left, `swap` on the identity."""
    return LinearOperator.identity(TensorBasis(left, right)).swap(left.size, right.size)


def codereliction_operator(dim: int, degree: int) -> LinearOperator:
    """E -> !E, v to theta_1(v); the transpose of dereliction, and a section."""
    if _check_degree(degree) < 1:
        raise ValueError("codereliction needs degree at least 1")
    return counit(dim, degree).T


# ---------------------------------------------------------------------------
# promotion and the adjunction


def bang_map(f: TruncatedSeries, degree: int) -> LinearOperator:
    """!f: !E -> !F with entry (beta, alpha) the alpha coefficient of f(x)^beta.

    Needs f truncated at least to `degree`; the matrix is the power table of
    f, the same one `calculus.compose` multiplies by.  Sends delta_x to
    delta_(f(x)) up to truncation when f(0) = 0, exactly when f is linear.
    """
    degree = _check_degree(degree)
    if f.degree < degree:
        raise ValueError(
            f"series degree {f.degree} below the promotion degree {degree}"
        )
    f = f.truncate(degree)
    _check_size(f.domain.dim, mi.count_indices(f.codomain.dim, degree), degree)  # the power table
    return LinearOperator(
        DistBasis(f.domain.dim, degree), DistBasis(f.codomain.dim, degree), f.power_table(degree)
    )


def bang_linear(matrix, degree: int) -> LinearOperator:
    """Promotion of a plain linear map given by a dense (n, m) matrix: `bang_map`
    of the series whose only coefficients are the matrix columns at the unit
    indices.  At degree 0 the linear part truncates away."""
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError("expected a 2d matrix")
    n, m = arr.shape
    coeffs = np.zeros((n, mi.count_indices(m, _check_degree(degree))), dtype=np.complex128)
    if degree >= 1:
        coeffs[:, mi.degree_slice(m, 1)] = arr  # the unit indices e_1..e_m
    return bang_map(TruncatedSeries.from_arrays(m, n, degree, coeffs), degree)


def series_to_operator(f: TruncatedSeries) -> LinearOperator:
    """The adjunction f-hat: !E -> F whose column at eps_alpha is the alpha
    coefficient vector of f.  Inverse to `operator_to_series`."""
    return LinearOperator(
        DistBasis(f.domain.dim, f.degree), VectorBasis(f.codomain.dim), f.coeffs
    )


def operator_to_series(g: LinearOperator) -> TruncatedSeries:
    """The adjunction g-check: x -> g(delta_x) as a truncated series."""
    if not isinstance(g.source, DistBasis) or not isinstance(g.target, VectorBasis):
        raise ValueError("expected an operator from a distribution basis to a vector basis")
    return TruncatedSeries(
        FiniteSpace(g.source.dim), FiniteSpace(g.target.dim), g.source.degree, g.matrix
    )
