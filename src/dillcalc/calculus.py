"""Composition, currying and differentiation of truncated series.

Composition goes through promotion.  In the model a series g is a linear map
out of the distributions, and the row of !g at beta is the power g^beta, so
coeffs(f o g) = f^ . !g: the coefficient table of f times the power table of g
(`TruncatedSeries.power_table`).  When g(0) = 0 the power g^beta starts at
degree |beta|, so only the coefficients of f up to the output degree count.  A
constant part of g lets every coefficient of f reach every output coefficient,
so the caller must declare f an exact polynomial; f is then recentred at g(0)
(`TruncatedSeries.recenter`) and composed with g - g(0).  `compose_naive`
substitutes g into each monomial of f and serves as the independent oracle.

Currying is m2: !E (x) !F = !(E x F) on coefficients, a linear reindexing.  A
curried series is one coefficient table in `multiindex.split_table` order, a
`series._Table` that adds and scales as a series does: `curry` is one gather,
`uncurry` one scatter, and `evaluate` and the JSON writer read the table's pairs.

`derivative_series` gathers every partial derivative at once through
`multiindex.derivative_table`, the table `partial_derivative` reads one row of.
"""

from __future__ import annotations

import math

import numpy as np

from . import multiindex as mi
from . import multilinear as ml
from .series import (
    FiniteSpace, TruncatedSeries, _check_degree, _check_size, _frozen, _json_coeffs, _monomials_at,
    _Table,
)


def _composable(f: TruncatedSeries, g: TruncatedSeries, outer_polynomial: bool):
    """The precondition `compose` and `compose_naive` share: the output degree,
    g truncated to it, and whether g has a constant part."""
    if g.codomain.dim != f.domain.dim:
        raise ValueError(
            f"cannot compose: inner series maps into dimension {g.codomain.dim} "
            f"but outer series expects dimension {f.domain.dim}"
        )
    deg = min(f.degree, g.degree)
    g = g.truncate(deg)
    constant_inner = bool(np.any(g.coeffs[:, 0] != 0))
    if constant_inner and not outer_polynomial:
        raise ValueError("constant term requires polynomial outer series")
    return deg, g, constant_inner


def compose(f: TruncatedSeries, g: TruncatedSeries, outer_polynomial: bool = False) -> TruncatedSeries:
    """f after g, truncated at min(f.degree, g.degree): the coefficient table
    of f times the power table of g, exact up to the output degree.

    When g(0) != 0 the caller must flag f as an exact polynomial, else the
    truncated outer coefficients determine no output coefficient; then
    f o g = (h -> f(g(0) + h)) o (g - g(0)), whose inner series has g(0) = 0.
    """
    deg, g, constant_inner = _composable(f, g, outer_polynomial)
    if constant_inner:
        f, g = f.recenter(g.constant_term()), g - g.homogeneous_part(0)
    return TruncatedSeries(g.domain, f.codomain, deg, f.truncate(deg).coeffs @ g.power_table())


def compose_naive(f: TruncatedSeries, g: TruncatedSeries, outer_polynomial: bool = False) -> TruncatedSeries:
    """Oracle composition: substitute g into each monomial of f.

    Same preconditions as `compose`; built from repeated truncated pointwise
    products of the component series of g, with no multilinear regrouping.
    """
    deg, g, constant_inner = _composable(f, g, outer_polynomial)
    p = g.domain.dim
    components = [g.component(i) for i in range(g.codomain.dim)]
    one = TruncatedSeries.constant([1.0], p, deg)
    powers = []
    for comp in components:
        row = [one]
        for _ in range(f.degree):  # the largest exponent of f
            row.append(row[-1].pointwise_multiply(comp))
        powers.append(row)

    out = np.zeros((f.codomain.dim, mi.count_indices(p, deg)), dtype=np.complex128)
    for p_idx, alpha in enumerate(mi.exponent_matrix(f.domain.dim, f.degree).tolist()):
        if not constant_inner and sum(alpha) > deg:
            continue  # valuation of the substituted monomial already exceeds deg
        col = f.coeffs[:, p_idx]
        if not np.any(col):
            continue
        term = one
        for i, e in enumerate(alpha):
            if e:
                term = term.pointwise_multiply(powers[i][e])
        out += np.outer(col, term.coeffs[0])
    return TruncatedSeries(g.domain, f.codomain, deg, out)


# ---------------------------------------------------------------------------
# currying


class CurriedSeries(_Table):
    """A series on a split domain C^m1 x C^m2 as one coefficient table.

    `coeffs[:, p]` is c_(alpha_i, beta_j) at the p-th pair (i, j) of
    `multiindex.split_table`, i-major, so block i is the inner series of
    alpha_i, of degree D - |alpha_i|.  It adds and scales as a series does.
    """

    __slots__ = ("outer_dim", "inner_dim", "codomain_dim", "degree", "coeffs")
    _kind = "curried"

    def __init__(self, outer_dim: int, inner_dim: int, codomain_dim: int, degree: int, coeffs):
        for dim in (outer_dim, inner_dim, codomain_dim):
            mi._require_dim(dim)
        degree, m = _check_degree(degree), outer_dim + inner_dim
        shape = (codomain_dim, _check_size(m, codomain_dim, degree))
        arr = _frozen(coeffs, shape, "curried table", f" for dimension {m} degree {degree}")
        self._set(
            outer_dim=outer_dim, inner_dim=inner_dim, codomain_dim=codomain_dim, degree=degree, coeffs=arr
        )

    def __repr__(self):
        nz = int(np.count_nonzero(self.coeffs))
        return (
            f"CurriedSeries(C^{self.outer_dim} x C^{self.inner_dim} -> C^{self.codomain_dim}, "
            f"degree {self.degree}, {nz} nonzero coefficients)"
        )

    def evaluate(self, x, y) -> np.ndarray:
        """The table times x^alpha_i y^beta_j over the split_table pairs."""
        points = []
        for name, p, dim in (("outer", x, self.outer_dim), ("inner", y, self.inner_dim)):
            p = np.asarray(p, dtype=np.complex128).reshape(-1)
            if p.size != dim:
                raise ValueError(f"{name} point has dimension {p.size}, expected {dim}")
            points.append(_monomials_at(p, dim, self.degree))
        i, j, _ = mi.split_table(self.outer_dim, self.inner_dim, self.degree)
        return self.coeffs @ (points[0][i] * points[1][j])

    def to_json_dict(self) -> dict:
        """The bytes of each block written as its own series, from one nonzero
        scan of the table: its entries grouped by outer index, stably."""
        i, j, _ = mi.split_table(self.outer_dim, self.inner_dim, self.degree)
        outs, cols = np.nonzero(self.coeffs)
        order = np.argsort(i[cols], kind="stable")
        outs, cols = outs[order], cols[order]
        items = _json_coeffs(outs, j[cols], self.coeffs[outs, cols], self.inner_dim, self.degree)
        degs = mi.degree_vector(self.outer_dim, self.degree).tolist()
        bounds = [0, *np.cumsum(np.bincount(i[cols], minlength=len(degs))).tolist()]
        alphas = mi.exponent_matrix(self.outer_dim, self.degree).tolist()
        head = {"domain_dim": self.inner_dim, "codomain_dim": self.codomain_dim}
        return {
            "outer_dim": self.outer_dim,
            "inner_dim": self.inner_dim,
            "codomain_dim": self.codomain_dim,
            "degree": self.degree,
            "outer": [
                {"alpha": a, "series": {**head, "degree": self.degree - d, "coeffs": items[start:end]}}
                for a, d, start, end in zip(alphas, degs, bounds, bounds[1:])
            ],
        }


def _inner_dim(m: int, outer_dim: int) -> int:
    """The split rule `curry` and `split_slot_reference` share: 1 <= outer_dim < m."""
    if not 1 <= outer_dim <= m - 1:
        raise ValueError(f"split {outer_dim} is not a proper split of a {m}-dimensional domain")
    return m - outer_dim


def curry(f: TruncatedSeries, outer_dim: int) -> CurriedSeries:
    """Reindex c_(alpha, beta) into a table over the first `outer_dim` coordinates.

    Pure coefficient bookkeeping, one gather of the `split_table` positions:
    the binomial weights of the slot-splitting formula cancel against the
    repeated-coordinate counts of multi-index storage (`split_slot_reference`).
    """
    inner_dim = _inner_dim(f.domain.dim, outer_dim)
    coeffs = np.take(f.coeffs, mi.split_table(outer_dim, inner_dim, f.degree)[2], axis=1)
    coeffs.setflags(write=False)  # frozen, so the constructor keeps it uncopied
    return CurriedSeries(outer_dim, inner_dim, f.codomain.dim, f.degree, coeffs)


def uncurry(c: CurriedSeries) -> TruncatedSeries:
    """Inverse reindexing, a scatter of the table to the `split_table`
    positions; uncurry(curry(f)) == f coefficient for coefficient."""
    arr = np.empty_like(c.coeffs)
    arr[:, mi.split_table(c.outer_dim, c.inner_dim, c.degree)[2]] = c.coeffs
    return TruncatedSeries.from_arrays(c.outer_dim + c.inner_dim, c.codomain_dim, c.degree, arr)


def split_slot_reference(f: TruncatedSeries, outer_dim: int, x, y) -> np.ndarray:
    """Reference value of the curried nest at (x, y) via slot splitting.

    Evaluates sum over n, m of binom(n+m, n) * f~_(n+m)((x,0) n times, (0,y) m
    times) with the symmetric forms of the homogeneous parts.  Bidegree
    uniqueness makes each (n, m) term equal the mixed part
    sum_{|alpha|=n, |beta|=m} c_(alpha,beta) x^alpha y^beta, so this must agree
    with evaluating `curry(f, outer_dim)`.  Check routine only; the production
    path is the coefficient reindexing above.
    """
    inner_dim = _inner_dim(f.domain.dim, outer_dim)
    xe = np.concatenate([np.asarray(x, dtype=np.complex128).reshape(-1), np.zeros(inner_dim)])
    ye = np.concatenate([np.zeros(outer_dim), np.asarray(y, dtype=np.complex128).reshape(-1)])
    out = np.zeros(f.codomain.dim, dtype=np.complex128)
    for k in range(f.degree + 1):
        tensor = ml.from_monomial(f.homogeneous_part(k), k)
        if not np.any(tensor.entries):
            continue
        for n in range(k + 1):
            args = [xe] * n + [ye] * (k - n)
            out += math.comb(k, n) * tensor.apply(args)
    return out


# ---------------------------------------------------------------------------
# differentiation


def derivative_series(f: TruncatedSeries) -> TruncatedSeries:
    """Matrix valued derivative df: C^m -> C^(n*m), row-major components (j, i).

    One gather through the derivative table of every coordinate; the size of
    the result is checked before the table is built."""
    m, n = f.domain.dim, f.codomain.dim
    deg = max(f.degree - 1, 0)
    _check_size(m, n * m, deg)
    if f.degree == 0:
        return TruncatedSeries.zero(m, n * m, 0)
    src, factor = mi.derivative_table(m, f.degree)
    return TruncatedSeries(f.domain, FiniteSpace(n * m), deg, (f.coeffs[:, src] * factor).reshape(n * m, -1))


def jacobian_at(f: TruncatedSeries, x) -> np.ndarray:
    """Dense Jacobian matrix df(x) of shape (n, m)."""
    m = f.domain.dim
    vals = derivative_series(f).evaluate(x)
    return vals.reshape(f.codomain.dim, m)
