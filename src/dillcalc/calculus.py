"""Composition, currying and differentiation of truncated series.

Composition is computed degreewise: the degree-m part of f(g(x)) is

    h_m = sum over n of sum over k_1 + ... + k_n = m of
          f~_n(g_{k_1}, ..., g_{k_n})

where f~_n is the symmetric n-linear form of the degree-n part of f and the
g_k are the homogeneous parts of g.  A nonzero constant part of g makes the
sum over n unbounded, so it is rejected unless the caller declares the outer
series to be an exact polynomial.  `compose_naive` substitutes g into each
monomial of f with repeated truncated products and serves as the independent
oracle for the degreewise route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import multiindex as mi
from . import multilinear as ml
from .series import FiniteSpace, TruncatedSeries


@lru_cache(maxsize=None)
def degree_splits(total: int, parts: int, minimum: int) -> tuple[tuple[int, ...], ...]:
    """Nondecreasing tuples of `parts` integers >= minimum summing to `total`."""

    def rec(tot, left, lo):
        if left == 0:
            return [()] if tot == 0 else []
        out = []
        for first in range(lo, tot + 1):
            for rest in rec(tot - first, left - 1, first):
                out.append((first,) + rest)
        return out

    return tuple(tuple(t) for t in rec(total, parts, minimum))


def _orderings(split: tuple[int, ...]) -> int:
    """Number of ordered tuples with the multiset of entries of `split`."""
    counts: dict[int, int] = {}
    for k in split:
        counts[k] = counts.get(k, 0) + 1
    out = math.factorial(len(split))
    for c in counts.values():
        out //= math.factorial(c)
    return out


def _tensor_on_series(tensor: ml.SymmetricMultilinear, args, p_dim: int, degree: int) -> np.ndarray:
    """Contract a symmetric form against series-valued arguments.

    args[l] is the (m, count) coefficient table of a series C^p -> C^m; the
    result is the (n, count) table of f~(args_1(x), ..., args_k(x)).  Ordered
    coordinate tuples are walked depth first so slot products of the scalar
    component series are shared along common prefixes.
    """
    m = tensor.domain.dim
    n_out = tensor.codomain.dim
    count = mi.count_indices(p_dim, degree)
    ia, ib, ic = mi.product_table(p_dim, degree)
    weights = np.zeros((tensor.entries.shape[1], count), dtype=np.complex128)
    one = np.zeros(count, dtype=np.complex128)
    one[0] = 1.0
    pos = ml._tuple_positions(m, tensor.arity)

    def rec(slot, path, prefix):
        if slot == tensor.arity:
            weights[pos[tuple(sorted(path))]] += prefix
            return
        for i in range(m):
            comp = args[slot][i]
            nxt = np.zeros(count, dtype=np.complex128)
            np.add.at(nxt, ic, prefix[ia] * comp[ib])
            if np.any(nxt):
                rec(slot + 1, path + (i,), nxt)

    rec(0, (), one)
    return tensor.entries @ weights


def compose(f: TruncatedSeries, g: TruncatedSeries, outer_polynomial: bool = False) -> TruncatedSeries:
    """f after g, truncated at min(f.degree, g.degree).

    Exact for all total degrees <= the output degree when g(0) = 0.  When
    g(0) != 0 the caller must flag f as an exact polynomial; otherwise the
    truncated outer coefficients do not determine any output coefficient.
    """
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

    p = g.domain.dim
    n_out = f.codomain.dim
    out = np.zeros((n_out, mi.count_indices(p, deg)), dtype=np.complex128)
    g_parts = [g.homogeneous_part(k).coeffs for k in range(deg + 1)]
    minimum = 0 if constant_inner else 1
    tensors: dict[int, ml.SymmetricMultilinear] = {}

    for m_deg in range(deg + 1):
        n_top = f.degree if constant_inner else m_deg
        for n_deg in range(n_top + 1):
            if n_deg == 0:
                if m_deg == 0:
                    out[:, 0] += f.coeffs[:, 0]
                continue
            if n_deg not in tensors:
                tensors[n_deg] = ml.from_monomial(f.homogeneous_part(n_deg), n_deg)
            tensor = tensors[n_deg]
            if not np.any(tensor.entries):
                continue
            for split in degree_splits(m_deg, n_deg, minimum):
                args = [g_parts[k] for k in split]
                term = _tensor_on_series(tensor, args, p, deg)
                out += _orderings(split) * term
    return TruncatedSeries(g.domain, f.codomain, deg, out)


def compose_naive(f: TruncatedSeries, g: TruncatedSeries, outer_polynomial: bool = False) -> TruncatedSeries:
    """Oracle composition: substitute g into each monomial of f.

    Same preconditions as `compose`; built from repeated truncated pointwise
    products of the component series of g, with no multilinear regrouping.
    """
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

    p = g.domain.dim
    components = [g.component(i) for i in range(g.codomain.dim)]
    max_exp = int(np.max(mi.exponent_matrix(f.domain.dim, f.degree))) if f.degree else 0
    one = TruncatedSeries.constant([1.0], p, deg)
    powers = []
    for comp in components:
        row = [one]
        for _ in range(max_exp):
            row.append(row[-1].pointwise_multiply(comp))
        powers.append(row)

    out = np.zeros((f.codomain.dim, mi.count_indices(p, deg)), dtype=np.complex128)
    for p_idx, alpha in enumerate(mi.enumerate_indices(f.domain.dim, f.degree)):
        if not constant_inner and alpha.degree() > deg:
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
        idx = mi.enumerate_indices(self.outer_dim, self.degree)
        if len(self.inner) != len(idx):
            raise ValueError(
                f"inconsistent nesting: {len(self.inner)} inner series for "
                f"{len(idx)} outer indices"
            )
        for a, s in zip(idx, self.inner):
            want = self.degree - a.degree()
            if (
                s.domain.dim != self.inner_dim
                or s.codomain.dim != self.codomain_dim
                or s.degree != want
            ):
                raise ValueError(
                    f"inconsistent nesting at outer index {tuple(a)}: expected a "
                    f"series C^{self.inner_dim} -> C^{self.codomain_dim} of degree {want}"
                )

    def evaluate(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128).reshape(-1)
        if x.size != self.outer_dim:
            raise ValueError(f"outer point has dimension {x.size}, expected {self.outer_dim}")
        out = np.zeros(self.codomain_dim, dtype=np.complex128)
        for a, s in zip(mi.enumerate_indices(self.outer_dim, self.degree), self.inner):
            mono = np.prod(np.array([x[i] ** e if e else 1.0 + 0j for i, e in enumerate(a)]))
            out += mono * s.evaluate(y)
        return out

    def to_json_dict(self) -> dict:
        return {
            "outer_dim": self.outer_dim,
            "inner_dim": self.inner_dim,
            "codomain_dim": self.codomain_dim,
            "degree": self.degree,
            "outer": [
                {"alpha": list(a), "series": s.to_json_dict()}
                for a, s in zip(mi.enumerate_indices(self.outer_dim, self.degree), self.inner)
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
    formula cancel against the multiplicities of multi-index storage, see
    `split_slot_reference` for the check.
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
            TruncatedSeries(
                FiniteSpace(inner_dim), f.codomain, f.degree - a.degree(), f.coeffs[:, cols]
            )
            for a, cols in zip(mi.enumerate_indices(outer_dim, f.degree), groups)
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
    """Matrix valued derivative df: C^m -> C^(n*m), row-major components (j, i)."""
    m = f.domain.dim
    parts = [f.partial_derivative(i) for i in range(m)]
    deg = parts[0].degree
    arr = np.zeros((f.codomain.dim * m, mi.count_indices(m, deg)), dtype=np.complex128)
    for j in range(f.codomain.dim):
        for i in range(m):
            arr[j * m + i] = parts[i].coeffs[j]
    return TruncatedSeries(f.domain, FiniteSpace(f.codomain.dim * m), deg, arr)


def jacobian_at(f: TruncatedSeries, x) -> np.ndarray:
    """Dense Jacobian matrix df(x) of shape (n, m)."""
    m = f.domain.dim
    vals = derivative_series(f).evaluate(x)
    return vals.reshape(f.codomain.dim, m)
