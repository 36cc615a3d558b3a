"""Composition, currying and differentiation of truncated series.

Composition goes through promotion.  In the model a series g is a linear map
out of the distributions, and the row of !g at beta is the power g^beta, so
coeffs(f o g) = f^ . !g: the coefficient table of f times the power table of g
(`TruncatedSeries.power_table`).  When g(0) = 0 the power g^beta starts at
degree |beta|, so only the coefficients of f up to the output degree count.  A
nonzero constant part of g lets every coefficient of f reach every output
coefficient, so it is rejected unless the caller declares the outer series to
be an exact polynomial.  `compose_naive` substitutes g into each monomial of f
with repeated truncated products and serves as the independent oracle.

`derivative_series` gathers every partial derivative at once through
`multiindex.derivative_table`, the table `partial_derivative` reads one row of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exponential as xp
from . import multiindex as mi
from . import multilinear as ml
from .series import FiniteSpace, TruncatedSeries, _check_size, _monomials_at


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


def _finite_result(op: str, value):
    """`value`, or one `<op>: result is outside the float range` error if a
    number it stores is not finite: the overflow rule of the term language
    and the CLI.  An operator is read through its stored entries."""
    tables = value.inner if isinstance(value, CurriedSeries) else (value,)
    for table in tables:
        if isinstance(table, xp.LinearOperator):
            table = table.entries()[2]
        if not np.isfinite(getattr(table, "coeffs", table)).all():
            raise ValueError(f"{op}: result is outside the float range")
    return value


def compose(f: TruncatedSeries, g: TruncatedSeries, outer_polynomial: bool = False) -> TruncatedSeries:
    """f after g, truncated at min(f.degree, g.degree).

    Exact for all total degrees <= the output degree when g(0) = 0.  When
    g(0) != 0 the caller must flag f as an exact polynomial; otherwise the
    truncated outer coefficients do not determine any output coefficient.
    The result is the coefficient table of f times the power table of g.
    """
    deg, g, constant_inner = _composable(f, g, outer_polynomial)
    top = f.degree if constant_inner else deg
    rows = mi.count_indices(f.domain.dim, top)
    return TruncatedSeries(g.domain, f.codomain, deg, f.coeffs[:, :rows] @ g.power_table(top))


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


@dataclass(frozen=True)
class CurriedSeries:
    """Nested view of a series on a split domain C^m1 x C^m2.

    `inner[p]` is the series in the second block attached to the outer
    multi-index at position p of the graded order on C^m1; its degree is the
    remaining budget D - |alpha|, so the nest stores exactly the coefficients
    c_(alpha, beta) with |alpha| + |beta| <= D and nothing else.
    """

    outer_dim: int
    inner_dim: int
    codomain_dim: int
    degree: int
    inner: tuple[TruncatedSeries, ...]

    def __post_init__(self):
        degs = mi.degree_vector(self.outer_dim, self.degree)
        if len(self.inner) != degs.size:
            raise ValueError(
                f"inconsistent nesting: {len(self.inner)} inner series for "
                f"{degs.size} outer indices"
            )
        for p, s in enumerate(self.inner):
            want = self.degree - int(degs[p])
            if (
                s.domain.dim != self.inner_dim
                or s.codomain.dim != self.codomain_dim
                or s.degree != want
            ):
                alpha = tuple(mi.unrank(p, self.outer_dim, self.degree)[0].tolist())
                raise ValueError(
                    f"inconsistent nesting at outer index {alpha}: expected a "
                    f"series C^{self.inner_dim} -> C^{self.codomain_dim} of degree {want}"
                )

    def evaluate(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128).reshape(-1)
        if x.size != self.outer_dim:
            raise ValueError(f"outer point has dimension {x.size}, expected {self.outer_dim}")
        out = np.zeros(self.codomain_dim, dtype=np.complex128)
        for mono, s in zip(_monomials_at(x, self.outer_dim, self.degree), self.inner):
            out += mono * s.evaluate(y)
        return out

    def to_json_dict(self) -> dict:
        return {
            "outer_dim": self.outer_dim,
            "inner_dim": self.inner_dim,
            "codomain_dim": self.codomain_dim,
            "degree": self.degree,
            "outer": [
                {"alpha": a, "series": s.to_json_dict()}
                for a, s in zip(mi.exponent_matrix(self.outer_dim, self.degree).tolist(), self.inner)
            ],
        }


def _outer_groups(dim: int, outer_dim: int, degree: int) -> list[np.ndarray]:
    """Positions of the graded order on C^dim grouped by their outer multi-index.

    Group p holds, in increasing order, the positions of the (alpha, beta) with
    alpha the outer index at position p on C^outer_dim.  For a fixed alpha the
    graded order on (alpha, beta) is the graded order on beta, so group p is
    the coefficient table of the inner series at p, column for column.
    """
    outer = mi.rank(mi.exponent_matrix(dim, degree)[:, :outer_dim])
    order = np.argsort(outer, kind="stable")
    return np.split(order, np.cumsum(np.bincount(outer))[:-1])


def curry(f: TruncatedSeries, outer_dim: int) -> CurriedSeries:
    """Reindex c_(alpha, beta) into a nest over the first `outer_dim` coordinates.

    Pure coefficient bookkeeping: the binomial weights of the slot-splitting
    formula cancel against the repeated-coordinate counts of multi-index
    storage, see `split_slot_reference` for the check.
    """
    m = f.domain.dim
    if not 1 <= outer_dim <= m - 1:
        raise ValueError(
            f"split {outer_dim} is not a proper split of a {m}-dimensional domain"
        )
    inner_dim = m - outer_dim
    groups = _outer_groups(m, outer_dim, f.degree)
    return CurriedSeries(
        outer_dim,
        inner_dim,
        f.codomain.dim,
        f.degree,
        tuple(
            TruncatedSeries(FiniteSpace(inner_dim), f.codomain, f.degree - d, f.coeffs[:, cols])
            for d, cols in zip(mi.degree_vector(outer_dim, f.degree).tolist(), groups)
        ),
    )


def uncurry(c: CurriedSeries) -> TruncatedSeries:
    """Inverse reindexing; uncurry(curry(f)) == f coefficient for coefficient."""
    m = c.outer_dim + c.inner_dim
    arr = np.zeros((c.codomain_dim, mi.count_indices(m, c.degree)), dtype=np.complex128)
    for s, cols in zip(c.inner, _outer_groups(m, c.outer_dim, c.degree)):
        arr[:, cols] = s.coeffs
    return TruncatedSeries(FiniteSpace(m), FiniteSpace(c.codomain_dim), c.degree, arr)


def split_slot_reference(f: TruncatedSeries, outer_dim: int, x, y) -> np.ndarray:
    """Reference value of the curried nest at (x, y) via slot splitting.

    Evaluates sum over n, m of binom(n+m, n) * f~_(n+m)((x,0) n times, (0,y) m
    times) with the symmetric forms of the homogeneous parts.  Bidegree
    uniqueness makes each (n, m) term equal the mixed part
    sum_{|alpha|=n, |beta|=m} c_(alpha,beta) x^alpha y^beta, so this must agree
    with evaluating `curry(f, outer_dim)`.  Check routine only; the production
    path is the coefficient reindexing above.
    """
    m_total = f.domain.dim
    if not 1 <= outer_dim <= m_total - 1:
        raise ValueError(
            f"split {outer_dim} is not a proper split of a {m_total}-dimensional domain"
        )
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    xe = np.concatenate([x, np.zeros(m_total - outer_dim, dtype=np.complex128)])
    ye = np.concatenate([np.zeros(outer_dim, dtype=np.complex128), y])
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
