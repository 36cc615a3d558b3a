"""Truncated multivariate power series between finite dimensional complex spaces.

A map f: C^m -> C^n is stored as the dense coefficient table of its Taylor
expansion at 0, truncated at a total degree D: coeffs[j, p] is the coefficient
of x^alpha_p in component j, where alpha_p is row p of
`multiindex.exponent_matrix(m, D)` and p = `multiindex.rank(alpha_p)`.
Coefficient arrays are immutable.  A partial derivative is one gather through
the row of `multiindex.derivative_table` for its coordinate.

`TruncatedSeries.from_terms` is the one place where coefficient keys are
checked: the series and distribution JSON loaders and the term language's
coefficient maps all build through it.

Series and `exponential.Distribution` share one vector-space algebra, the
base `_Table`: `add` takes only a value of the same class and shape, `scale`
only a number, and anything else is a ValueError; `-`, `*` by a number and
`to_json` are written there once.  Its base `_Frozen` makes a value
immutable, for multilinear maps and operators too.

Truncation degrees are capped at MAX_DEGREE, a constant: up to that degree
the weights of `multiindex.convolution_table`, integers built up in float64,
are exact, and far above it they round.  Every other size is decided
by SIZE_BUDGET: a coefficient table may hold at most that many entries,
codomain dimension times `count_indices`, and the constructors check that
before they allocate, so an oversized request fails at once instead of
exhausting memory.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import multiindex as mi

MAX_DEGREE = 8
# entries of one coefficient table: 64 MiB of complex128
SIZE_BUDGET = 2**22
# bytes of one index or power table built on the way to a result: 1 GiB
BYTE_BUDGET = 2**8 * SIZE_BUDGET
# monomials computed per block of points in `evaluate_many`: 64 KiB,
# under glibc's 128 KiB mmap threshold, so blocks reuse freed heap memory
_POINT_BLOCK = 2**12
# pairs of a pair table whose products `_scatter_products` forms at once:
# 16 MiB of complex128 a temporary
_PAIR_BLOCK = 2**20


def _scatter_products(size: int, ic, a, ia, b, ib, weight=None) -> np.ndarray:
    """out[ic] += weight * a[ia] * b[ib] on `size` complex zeros, `_PAIR_BLOCK`
    pairs at a time: a whole table's products take up to 48 bytes a pair
    beside the 32 the byte budget counts.  `np.add.at` adds in table order,
    so the sums are those of one call; one expression lets numpy multiply
    into its temporary in place, a complex loop that rounds unlike the one
    writing a fresh array."""
    out = np.zeros(size, dtype=np.complex128)
    for start in range(0, len(ic), _PAIR_BLOCK):
        t = slice(start, start + _PAIR_BLOCK)
        vals = a[ia[t]] * b[ib[t]] if weight is None else weight[t] * a[ia[t]] * b[ib[t]]
        np.add.at(out, ic[t], vals)
    return out


def _check_degree(degree: int) -> int:
    if not mi._is_integer(degree):
        raise ValueError(f"truncation degree must be an integer, got {degree!r}")
    degree = int(degree)
    if degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    if degree > MAX_DEGREE:
        raise ValueError(f"truncation degree {degree} exceeds the global cap {MAX_DEGREE}")
    return degree


def _check_bytes(nbytes: int, what: str) -> None:
    """Refuse, before it is allocated, a table of `nbytes` bytes above BYTE_BUDGET."""
    if nbytes > BYTE_BUDGET:
        raise ValueError(
            f"{what} needs {nbytes / 2**30:.2f} GiB, over the table budget of "
            f"{BYTE_BUDGET // 2**30} GiB"
        )


def _check_size(dom_dim: int, cod_dim: int, degree: int) -> int:
    """count_indices(dom_dim, degree), once a table of cod_dim rows of that many
    coefficients is known to fit SIZE_BUDGET."""
    n_idx = mi.count_indices(dom_dim, degree)
    if cod_dim * n_idx > SIZE_BUDGET:
        raise ValueError(
            f"a table of {cod_dim} x {n_idx} coefficients (dimension {dom_dim}, "
            f"degree {degree}) exceeds the size budget of {SIZE_BUDGET}"
        )
    return n_idx


def _frozen(values, shape: tuple, what: str, where: str = "") -> np.ndarray:
    """`values` as a read-only C-ordered complex array of `shape`, else the
    ValueError `<what> has shape ..., expected <shape><where>`.  An array frozen
    so that owns its data is shared, as no reference can write it; others are copied."""
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {tuple(map(int, shape))}{where}")
    if arr.flags.writeable or not (arr.flags.owndata and arr.flags.c_contiguous):
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _is_coordinate(i, dim: int) -> bool:
    """The one coordinate rule, for domain coordinates and output components
    alike: an integer by `mi._is_integer`, 0 <= i < dim."""
    return mi._is_integer(i) and 0 <= i < dim


def _check_out(j, cod_dim: int) -> int:
    """An output component by `_is_coordinate`, as a Python int."""
    if not _is_coordinate(j, cod_dim):
        raise ValueError(f"output component {j} out of range")
    return int(j)


def _check_index_dim(alpha, dim: int) -> None:
    if len(alpha) != dim:
        raise ValueError(f"multi-index {tuple(alpha)} has dimension {len(alpha)}, expected {dim}")


@dataclass(frozen=True)
class FiniteSpace:
    """A finite dimensional complex space C^dim."""

    dim: int

    def __post_init__(self):
        mi._require_dim(self.dim)


def _json_int(value, name: str) -> int:
    """A JSON integer: a Python int that is not a bool.  int() would also read
    1.5, "2" and true, and so misread a malformed file."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _json_float(value, name: str) -> float:
    """A JSON number as a float; a string or a bool is refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


_JSON_TYPES = {
    type(None): "null", list: "list", str: "string", bool: "boolean", int: "number", float: "number"
}


def _json_header(data, kind: str, keys) -> list:
    """The integer fields `keys` of a series or distribution JSON object; a
    top level that is not an object, or a missing or non-integer field, is a
    ValueError."""
    if not isinstance(data, dict):
        got = _JSON_TYPES.get(type(data), type(data).__name__)
        raise ValueError(f"malformed {kind} JSON: top level must be an object, got {got}")
    fields = []
    for key in keys:
        if key not in data:
            raise ValueError(f"malformed {kind} JSON: missing key {key!r}")
        try:
            fields.append(_json_int(data[key], key))
        except ValueError as exc:
            raise ValueError(f"malformed {kind} JSON: {exc}") from exc
    return fields


def _json_terms(raw, kind: str) -> dict:
    """The `coeffs` list of a series or distribution JSON as {(out, alpha): value};
    a malformed item, a repeated key or a non-finite value is a ValueError."""
    if not isinstance(raw, list):
        raise ValueError(f"malformed {kind} JSON: coeffs must be a list, got {raw!r}")
    terms = {}
    for item in raw:
        if not isinstance(item, dict):
            raise ValueError(f"malformed {kind} JSON: coeffs item {item!r} is not an object")
        alpha = item.get("alpha")
        if not isinstance(alpha, list):
            raise ValueError(f"malformed {kind} JSON: alpha must be a list, got {alpha!r}")
        try:
            exps = tuple(_json_int(e, "exponent") for e in alpha)
        except ValueError as exc:
            raise ValueError(
                f"malformed {kind} JSON: alpha {alpha} is not a list of integers ({exc})"
            ) from exc
        try:
            real = _json_float(item.get("re", 0.0), "re")
            imag = _json_float(item.get("im", 0.0), "im")
        except (ValueError, OverflowError) as exc:
            raise ValueError(
                f"malformed {kind} JSON: coefficient at alpha={alpha} is not a number ({exc})"
            ) from exc
        try:
            key = (_json_int(item.get("out", 0), "out"), exps)
        except ValueError as exc:
            raise ValueError(
                f"malformed {kind} JSON: out at alpha={alpha} is not an integer ({exc})"
            ) from exc
        where = f"out={key[0]} alpha={alpha}"
        if key in terms:
            raise ValueError(f"malformed {kind} JSON: repeated entry {where}")
        if not (math.isfinite(real) and math.isfinite(imag)):
            raise ValueError(f"malformed {kind} JSON: non-finite coefficient at {where}")
        terms[key] = complex(real, imag)
    return terms


def _json_coeffs(outs, pos, values, dim: int, degree: int) -> list:
    """The `coeffs` items of the JSON writers in the order given, each exponent
    row unranked below count(dim, degree); no "out" key where outs is None."""
    alphas, values = mi.unrank(pos, dim, degree).tolist(), values.tolist()
    if outs is None:
        return [{"alpha": a, "re": c.real, "im": c.imag} for a, c in zip(alphas, values)]
    rows = zip(outs.tolist(), alphas, values)
    return [{"out": j, "alpha": a, "re": c.real, "im": c.imag} for j, a, c in rows]


def _monomials_at(x: np.ndarray, dim: int, degree: int) -> np.ndarray:
    """x^alpha over the graded order for each point along the last axis of the
    complex array x: shape (..., dim) to (..., count), with 0^0 = 1.

    The walk of `multiindex.power_tree`, a tree-shaped Horner scheme: x^0 = 1,
    and degree by degree x^alpha = x^parent[alpha] * x_last[alpha], one
    product per monomial.  A coordinate whose exponent in alpha is 0 never
    enters x^alpha, so 0^0 = 1 holds for 0, inf and nan alike.
    """
    parent, last = mi.power_tree(dim, degree)
    out = np.empty((*x.shape[:-1], len(parent)), dtype=np.complex128)
    out[..., 0] = 1.0
    for k in range(1, degree + 1):
        blk = mi.degree_slice(dim, k)
        np.multiply(out.take(parent[blk], axis=-1), x.take(last[blk], axis=-1), out=out[..., blk])
    return out


class _Frozen:
    """An immutable value: its fields are set through `_set` alone."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)


class _Table(_Frozen):
    """The algebra of a series or distribution: its shape, the constructor fields
    before `coeffs` (the last slot), and its coefficients.  Its class names its
    `_kind`; `add` and `scale` build through the constructor."""

    __slots__ = ()
    __array_ufunc__ = None  # an array on the left of `*` or `+` defers to the methods here

    def _shape(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__[:-1])

    def add(self, other):
        if type(other) is not type(self) or other._shape() != self._shape():
            raise ValueError(f"{self._kind} shapes differ: cannot add")
        return type(self)(*self._shape(), self.coeffs + other.coeffs)

    def scale(self, scalar):
        if not isinstance(scalar, numbers.Number):
            raise ValueError(f"{self._kind} factor must be a number, got {type(scalar).__name__}")
        return type(self)(*self._shape(), self.coeffs * scalar)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0) if isinstance(other, _Table) else other)

    def __mul__(self, scalar):
        return self.scale(scalar)

    __radd__, __rmul__ = __add__, __mul__

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), allow_nan=False)


class TruncatedSeries(_Table):
    """Coefficient table of a truncated power series C^m -> C^n."""

    __slots__ = ("domain", "codomain", "degree", "coeffs")
    _kind = "series"

    def __init__(self, domain: FiniteSpace, codomain: FiniteSpace, degree: int, coeffs):
        degree = _check_degree(degree)
        shape = (codomain.dim, _check_size(domain.dim, codomain.dim, degree))
        arr = _frozen(coeffs, shape, "coefficient table", f" for dimension {domain.dim} degree {degree}")
        self._set(domain=domain, codomain=codomain, degree=degree, coeffs=arr)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dom_dim: int, cod_dim: int, degree: int) -> "TruncatedSeries":
        return cls.from_terms(dom_dim, cod_dim, degree, {})

    @classmethod
    def from_arrays(cls, dom_dim: int, cod_dim: int, degree: int, coeffs) -> "TruncatedSeries":
        """Build from a dense (cod_dim, count) coefficient table."""
        return cls(FiniteSpace(dom_dim), FiniteSpace(cod_dim), degree, coeffs)

    @classmethod
    def from_terms(cls, dom_dim: int, cod_dim: int, degree: int, terms) -> "TruncatedSeries":
        """Build from {(out_component, alpha): coefficient}, checking every key first."""
        domain, codomain = FiniteSpace(dom_dim), FiniteSpace(cod_dim)
        degree = _check_degree(degree)
        n_idx = _check_size(dom_dim, cod_dim, degree)
        for j, alpha in terms:
            _check_index_dim(alpha, dom_dim)
            _check_out(j, cod_dim)
        alphas = [mi._checked(alpha) for _, alpha in terms]  # refuses bool, float, negative
        # Python ints compare exactly, so an exponent past int64 is over-degree
        exps = np.array(alphas, dtype=object).reshape(len(alphas), dom_dim)
        bad = exps.sum(axis=1) > degree
        if bad.any():
            raise ValueError(f"multi-index {alphas[int(np.argmax(bad))]} exceeds degree {degree}")
        arr = np.zeros((cod_dim, n_idx), dtype=np.complex128)
        arr[[j for j, _ in terms], mi.rank(exps.astype(np.int64))] = list(terms.values())
        return cls(domain, codomain, degree, arr)

    @classmethod
    def identity(cls, dim: int, degree: int) -> "TruncatedSeries":
        return cls.from_terms(
            dim,
            dim,
            degree,
            {(i, tuple(1 if k == i else 0 for k in range(dim))): 1.0 for i in range(dim)},
        )

    @classmethod
    def constant(cls, values, dom_dim: int, degree: int) -> "TruncatedSeries":
        v = np.asarray(values, dtype=np.complex128).reshape(-1)
        s = cls.zero(dom_dim, v.size, degree)
        arr = s.coeffs.copy()
        arr[:, 0] = v
        return cls(s.domain, s.codomain, degree, arr)

    # -- queries -------------------------------------------------------------

    def coefficient(self, out: int, alpha) -> complex:
        _check_index_dim(alpha, self.domain.dim)
        out = _check_out(out, self.codomain.dim)
        return complex(self.coeffs[out, mi.position_of(alpha, self.degree)])

    def constant_term(self) -> np.ndarray:
        return self.coeffs[:, 0].copy()

    def _domain_vector(self, x, name: str) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128).reshape(-1)
        if x.size != self.domain.dim:
            raise ValueError(f"{name} has dimension {x.size}, series domain is {self.domain.dim}")
        return x

    def evaluate(self, x) -> np.ndarray:
        x = self._domain_vector(x, "point")
        return self.coeffs @ _monomials_at(x, self.domain.dim, self.degree)

    def evaluate_many(self, points) -> np.ndarray:
        """Values at a stack of points, shape (P, dim) to (P, codomain dim),
        computed a block of points at a time so that the monomial table stays
        small."""
        pts = np.asarray(points, dtype=np.complex128)
        if pts.ndim != 2 or pts.shape[1] != self.domain.dim:
            raise ValueError(
                f"points have shape {pts.shape}, expected (count, {self.domain.dim})"
            )
        out = np.empty((len(pts), self.codomain.dim), dtype=np.complex128)
        step = max(1, _POINT_BLOCK // self.coeffs.shape[1])
        for start in range(0, len(pts), step):
            block = pts[start : start + step]
            out[start : start + step] = (
                _monomials_at(block, self.domain.dim, self.degree) @ self.coeffs.T
            )
        return out

    def homogeneous_part(self, k: int) -> "TruncatedSeries":
        """Series with the same degree whose only nonzero coefficients have |alpha| = k."""
        if not (mi._is_integer(k) and 0 <= k <= self.degree):
            raise ValueError(f"homogeneous degree {k} outside 0..{self.degree}")
        mask = mi.degree_vector(self.domain.dim, self.degree) == k
        return TruncatedSeries(self.domain, self.codomain, self.degree, self.coeffs * mask)

    def truncate(self, new_degree: int) -> "TruncatedSeries":
        """Drop coefficients above new_degree; graded order makes this a prefix slice."""
        if not mi._is_integer(new_degree):
            raise ValueError(f"truncation degree must be an integer, got {new_degree!r}")
        if new_degree >= self.degree:
            return self
        n_idx = mi.count_indices(self.domain.dim, new_degree)
        return TruncatedSeries(
            self.domain, self.codomain, new_degree, self.coeffs[:, :n_idx]
        )

    def component(self, j: int) -> "TruncatedSeries":
        j = _check_out(j, self.codomain.dim)
        return TruncatedSeries(self.domain, FiniteSpace(1), self.degree, self.coeffs[j : j + 1])

    # -- algebra -------------------------------------------------------------

    def pointwise_multiply(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product of scalar series, truncated at min of the two degrees."""
        if self.codomain.dim != 1 or other.codomain.dim != 1:
            raise ValueError("pointwise multiplication needs codomain dimension 1")
        if self.domain != other.domain:
            raise ValueError("series domains differ: cannot multiply")
        deg = min(self.degree, other.degree)
        a = self.truncate(deg).coeffs[0]
        b = other.truncate(deg).coeffs[0]
        ia, ib, ic = mi.product_table(self.domain.dim, deg, *mi.top_degrees(self.domain.dim, a, b))
        out = _scatter_products(mi.count_indices(self.domain.dim, deg), ic, a, ia, b, ib)
        return TruncatedSeries(self.domain, FiniteSpace(1), deg, out[None, :])

    def power_table(self) -> np.ndarray:
        """The powers g^beta = prod_j g_j^beta_j, |beta| <= this degree: the matrix of !g.

        Row r belongs to the r-th multi-index beta of the graded order on the
        codomain and holds the coefficients of g^beta, truncated at this
        series' degree.  Row beta is row parent[beta] = beta - e_j times g_j,
        with j = last[beta] (`multiindex.power_tree`).  With j outer and |beta|
        inner every parent is built before it is read, and each batch of rows
        is one Cauchy product by g_j: the product triples sorted by target
        position, restricted to the nonzero entries of g_j and of the parents,
        summed with reduceat.  Only the triples kept for g_j are sorted,
        stably, so they keep the order the full table would give them.  The
        table, 16 bytes an entry, is checked against BYTE_BUDGET first.
        """
        n, (_, n_cols) = self.codomain.dim, self.coeffs.shape
        n_rows = mi.count_indices(n, self.degree)
        _check_bytes(16 * n_rows * n_cols, f"the power table of {n_rows} x {n_cols} coefficients")
        parent, last = mi.power_tree(n, self.degree)
        (top,) = mi.top_degrees(self.domain.dim, self.coeffs)
        ia, ib, ic = mi.product_table(self.domain.dim, self.degree, self.degree, top)
        table = np.zeros((n_rows, n_cols), dtype=np.complex128)
        table[0, 0] = 1.0
        for j in range(n):
            keep = np.flatnonzero((self.coeffs[j] != 0)[ib])
            keep = keep[np.argsort(ic[keep], kind="stable")]
            ja, jc, jw = ia[keep], ic[keep], self.coeffs[j, ib[keep]]
            for k in range(1, self.degree + 1):
                block = mi.degree_slice(n, k)
                rows = block.start + np.flatnonzero(last[block] == j)
                src = table[parent[rows]]
                live = np.any(src != 0, axis=0)[ja]
                a, c, w = ja[live], jc[live], jw[live]
                if a.size:
                    starts = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
                    table[rows[:, None], c[starts]] = np.add.reduceat(
                        src[:, a] * w, starts, axis=1
                    )
        return table

    def recenter(self, a) -> "TruncatedSeries":
        """The coefficients of h -> f(a + h), this table read as an exact polynomial f.

        Moving the base point is convolution with the Dirac at a, one
        coordinate at a time: moving coordinate j by a_j makes the coefficient
        at beta sum_k a_j^k binom(beta_j + k, k) f_(beta + k e_j).  Each
        beta + k e_j follows the chain src[j] of `multiindex.derivative_table`
        up to f's `top_degrees`, and the integer weight is carried as
        w * factor[j, at] / k, which is exact; no pair table is built.
        """
        dim = self.domain.dim
        a = self._domain_vector(a, "base point")
        (top,) = mi.top_degrees(dim, self.coeffs)
        src, factor = mi.derivative_table(dim, top)
        out = self.coeffs
        for j in np.flatnonzero(a):
            at, w, power, moved = np.arange(src.shape[1]), np.ones(src.shape[1]), 1.0, out.copy()
            for k in range(1, top + 1):
                n = mi.count_indices(dim, top - k)
                w, at, power = w[:n] * factor[j, at[:n]] / k, src[j, at[:n]], power * a[j]
                moved[:, :n] += power * w * out[:, at]
            out = moved
        return TruncatedSeries(self.domain, self.codomain, self.degree, out)

    def partial_derivative(self, coord: int) -> "TruncatedSeries":
        """d/dx_coord, one degree lower; the derivative of a degree-0 table is zero."""
        if not _is_coordinate(coord, self.domain.dim):
            raise ValueError(f"coordinate {coord} out of range for dimension {self.domain.dim}")
        if self.degree == 0:
            return TruncatedSeries.zero(self.domain.dim, self.codomain.dim, 0)
        _check_size(self.domain.dim, self.domain.dim, self.degree - 1)  # the derivative table
        src, factor = mi.derivative_table(self.domain.dim, self.degree)
        return TruncatedSeries(
            self.domain, self.codomain, self.degree - 1, self.coeffs[:, src[coord]] * factor[coord]
        )

    def directional_derivative(self, x, v) -> np.ndarray:
        """sum_i v_i d/dx_i f(x): the coefficients paired with the monomials
        below this degree at x, times factor[i] v_i, scattered through
        `derivative_table`, so no temporary outgrows that table."""
        dim = self.domain.dim
        v, x = self._domain_vector(v, "direction"), self._domain_vector(x, "point")
        if self.degree == 0:
            return np.zeros(self.codomain.dim, dtype=np.complex128)
        _check_size(dim, dim, self.degree - 1)  # the derivative table
        src, factor = mi.derivative_table(dim, self.degree)
        weights = np.zeros(self.coeffs.shape[1], dtype=np.complex128)
        np.add.at(weights, src, factor * _monomials_at(x, dim, self.degree - 1) * v[:, None])
        return self.coeffs @ weights

    # -- operators -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.pointwise_multiply(other)
        return self.scale(other)

    def __repr__(self):
        nz = int(np.count_nonzero(self.coeffs))
        return (
            f"TruncatedSeries(C^{self.domain.dim} -> C^{self.codomain.dim}, "
            f"degree {self.degree}, {nz} nonzero coefficients)"
        )

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        outs, pos = np.nonzero(self.coeffs)
        return {
            "domain_dim": self.domain.dim,
            "codomain_dim": self.codomain.dim,
            "degree": self.degree,
            "coeffs": _json_coeffs(outs, pos, self.coeffs[outs, pos], self.domain.dim, self.degree),
        }

    to_json = _Table.to_json  # its own entry, which the benchmark's span tracer wraps

    @classmethod
    def from_json_dict(cls, data: dict) -> "TruncatedSeries":
        dom, cod, degree = _json_header(data, "series", ("domain_dim", "codomain_dim", "degree"))
        return cls.from_terms(dom, cod, degree, _json_terms(data.get("coeffs", []), "series"))

    @classmethod
    def from_json(cls, text: str) -> "TruncatedSeries":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed series JSON: {exc}") from exc
        return cls.from_json_dict(data)

