"""Truncated multivariate power series between finite dimensional complex spaces.

A map f: C^m -> C^n is stored as the dense coefficient table of its Taylor
expansion at 0, truncated at a total degree D: coeffs[j, p] is the coefficient
of x^alpha_p in component j, with positions p running over the graded order of
`multiindex.enumerate_indices(m, D)`.  Coefficient arrays are immutable.

The environment variable DILL_SERIES_MAX_DEGREE (default 8) caps truncation
degrees globally; constructors reject anything larger.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import multiindex as mi

DEGREE_CAP_ENV = "DILL_SERIES_MAX_DEGREE"
_DEGREE_CAP_DEFAULT = 8


def max_degree_cap() -> int:
    raw = os.environ.get(DEGREE_CAP_ENV, "")
    if not raw:
        return _DEGREE_CAP_DEFAULT
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{DEGREE_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ValueError(f"{DEGREE_CAP_ENV} must be nonnegative, got {cap}")
    return cap


def _check_degree(degree: int) -> int:
    degree = int(degree)
    if degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    cap = max_degree_cap()
    if degree > cap:
        raise ValueError(
            f"truncation degree {degree} exceeds the global cap {cap} "
            f"(set {DEGREE_CAP_ENV} to raise it)"
        )
    return degree


@dataclass(frozen=True)
class FiniteSpace:
    """A finite dimensional complex space C^dim."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("empty space: dimension must be at least 1")


def _monomials_at(x: np.ndarray, dim: int, degree: int) -> np.ndarray:
    """Vector of x^alpha over the graded order, with 0^0 = 1."""
    exps = mi.exponent_matrix(dim, degree)
    pows = np.where(exps == 0, 1.0 + 0j, x[None, :] ** exps)
    return np.prod(pows, axis=1)


class TruncatedSeries:
    """Coefficient table of a truncated power series C^m -> C^n."""

    __slots__ = ("domain", "codomain", "degree", "coeffs")

    def __init__(self, domain: FiniteSpace, codomain: FiniteSpace, degree: int, coeffs):
        degree = _check_degree(degree)
        n_idx = mi.count_indices(domain.dim, degree)
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.shape != (codomain.dim, n_idx):
            raise ValueError(
                f"coefficient table has shape {arr.shape}, expected "
                f"({codomain.dim}, {n_idx}) for dimension {domain.dim} degree {degree}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dom_dim: int, cod_dim: int, degree: int) -> "TruncatedSeries":
        n_idx = mi.count_indices(dom_dim, _check_degree(degree))
        return cls(
            FiniteSpace(dom_dim),
            FiniteSpace(cod_dim),
            degree,
            np.zeros((cod_dim, n_idx), dtype=np.complex128),
        )

    @classmethod
    def from_arrays(cls, dom_dim: int, cod_dim: int, degree: int, coeffs) -> "TruncatedSeries":
        """Build from a dense (cod_dim, count) coefficient table."""
        return cls(FiniteSpace(dom_dim), FiniteSpace(cod_dim), degree, coeffs)

    @classmethod
    def from_terms(cls, dom_dim: int, cod_dim: int, degree: int, terms) -> "TruncatedSeries":
        """Build from a mapping {(out_component, alpha): coefficient}."""
        degree = _check_degree(degree)
        outs, rows, values = [], [], []
        for (j, alpha), value in terms.items():
            a = mi.MultiIndex(alpha)
            if len(a) != dom_dim:
                raise ValueError(
                    f"multi-index {tuple(a)} has dimension {len(a)}, expected {dom_dim}"
                )
            if a.degree() > degree:
                raise ValueError(f"multi-index {tuple(a)} exceeds degree {degree}")
            if not 0 <= j < cod_dim:
                raise ValueError(f"output component {j} out of range")
            outs.append(j)
            rows.append(a)
            values.append(value)
        arr = np.zeros((cod_dim, mi.count_indices(dom_dim, degree)), dtype=np.complex128)
        if rows:
            arr[outs, mi.rank(rows)] = values
        return cls(FiniteSpace(dom_dim), FiniteSpace(cod_dim), degree, arr)

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
        return complex(self.coeffs[out, mi.position_of(alpha, self.degree)])

    def constant_term(self) -> np.ndarray:
        return self.coeffs[:, 0].copy()

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128).reshape(-1)
        if x.size != self.domain.dim:
            raise ValueError(
                f"point has dimension {x.size}, series domain is {self.domain.dim}"
            )
        return self.coeffs @ _monomials_at(x, self.domain.dim, self.degree)

    def homogeneous_part(self, k: int) -> "TruncatedSeries":
        """Series with the same degree whose only nonzero coefficients have |alpha| = k."""
        if not 0 <= k <= self.degree:
            raise ValueError(f"homogeneous degree {k} outside 0..{self.degree}")
        mask = mi.degree_vector(self.domain.dim, self.degree) == k
        return TruncatedSeries(self.domain, self.codomain, self.degree, self.coeffs * mask)

    def truncate(self, new_degree: int) -> "TruncatedSeries":
        """Drop coefficients above new_degree; graded order makes this a prefix slice."""
        if new_degree >= self.degree:
            return self
        n_idx = mi.count_indices(self.domain.dim, new_degree)
        return TruncatedSeries(
            self.domain, self.codomain, new_degree, self.coeffs[:, :n_idx]
        )

    def component(self, j: int) -> "TruncatedSeries":
        return TruncatedSeries(self.domain, FiniteSpace(1), self.degree, self.coeffs[j : j + 1])

    # -- algebra -------------------------------------------------------------

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if (self.domain, self.codomain, self.degree) != (
            other.domain,
            other.codomain,
            other.degree,
        ):
            raise ValueError("series shapes differ: cannot add")
        return TruncatedSeries(self.domain, self.codomain, self.degree, self.coeffs + other.coeffs)

    def scale(self, scalar: complex) -> "TruncatedSeries":
        return TruncatedSeries(self.domain, self.codomain, self.degree, self.coeffs * scalar)

    def pointwise_multiply(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product of scalar series, truncated at min of the two degrees."""
        if self.codomain.dim != 1 or other.codomain.dim != 1:
            raise ValueError("pointwise multiplication needs codomain dimension 1")
        if self.domain != other.domain:
            raise ValueError("series domains differ: cannot multiply")
        deg = min(self.degree, other.degree)
        a = self.truncate(deg).coeffs[0]
        b = other.truncate(deg).coeffs[0]
        ia, ib, ic = mi.product_table(self.domain.dim, deg)
        out = np.zeros(mi.count_indices(self.domain.dim, deg), dtype=np.complex128)
        np.add.at(out, ic, a[ia] * b[ib])
        return TruncatedSeries(self.domain, FiniteSpace(1), deg, out[None, :])

    def partial_derivative(self, coord: int) -> "TruncatedSeries":
        """d/dx_coord, one degree lower; the derivative of a degree-0 table is zero."""
        if self.degree == 0:
            return TruncatedSeries.zero(self.domain.dim, self.codomain.dim, 0)
        src, factor = mi.derivative_table(self.domain.dim, self.degree, coord)
        return TruncatedSeries(
            self.domain, self.codomain, self.degree - 1, self.coeffs[:, src] * factor
        )

    def directional_derivative(self, x, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.complex128).reshape(-1)
        if v.size != self.domain.dim:
            raise ValueError(
                f"direction has dimension {v.size}, series domain is {self.domain.dim}"
            )
        out = np.zeros(self.codomain.dim, dtype=np.complex128)
        for i in range(self.domain.dim):
            if v[i] != 0:
                out += v[i] * self.partial_derivative(i).evaluate(x)
        return out

    # -- operators -----------------------------------------------------------

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.pointwise_multiply(other)
        return self.scale(other)

    __rmul__ = __mul__

    def __repr__(self):
        nz = int(np.count_nonzero(self.coeffs))
        return (
            f"TruncatedSeries(C^{self.domain.dim} -> C^{self.codomain.dim}, "
            f"degree {self.degree}, {nz} nonzero coefficients)"
        )

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        idx = mi.enumerate_indices(self.domain.dim, self.degree)
        entries = []
        for j in range(self.codomain.dim):
            for p, a in enumerate(idx):
                c = self.coeffs[j, p]
                if c != 0:
                    entries.append(
                        {
                            "out": j,
                            "alpha": list(a),
                            "re": _float17(c.real),
                            "im": _float17(c.imag),
                        }
                    )
        return {
            "domain_dim": self.domain.dim,
            "codomain_dim": self.codomain.dim,
            "degree": self.degree,
            "coeffs": entries,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), allow_nan=False)

    @classmethod
    def from_json_dict(cls, data: dict) -> "TruncatedSeries":
        try:
            dom = int(data["domain_dim"])
            cod = int(data["codomain_dim"])
            degree = int(data["degree"])
            raw = data.get("coeffs", [])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed series JSON: {exc}") from exc
        terms = {}
        for item in raw:
            key = (int(item.get("out", 0)), tuple(int(e) for e in item["alpha"]))
            if key in terms:
                raise ValueError(
                    f"malformed series JSON: repeated entry out={key[0]} alpha={list(key[1])}"
                )
            real, imag = float(item.get("re", 0.0)), float(item.get("im", 0.0))
            if not (math.isfinite(real) and math.isfinite(imag)):
                raise ValueError(
                    f"malformed series JSON: non-finite coefficient at "
                    f"out={key[0]} alpha={list(key[1])}"
                )
            terms[key] = complex(real, imag)
        return cls.from_terms(dom, cod, degree, terms)

    @classmethod
    def from_json(cls, text: str) -> "TruncatedSeries":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed series JSON: {exc}") from exc
        return cls.from_json_dict(data)


def _float17(x: float) -> float:
    """Round-trip a float through 17 significant digits (identity on doubles)."""
    return float(format(float(x), ".17g"))


def coefficient_distance(f: TruncatedSeries, g: TruncatedSeries) -> float:
    """Max absolute coefficient difference; shapes must match."""
    if (f.domain, f.codomain, f.degree) != (g.domain, g.codomain, g.degree):
        raise ValueError("series shapes differ: cannot compare")
    return float(np.max(np.abs(f.coeffs - g.coeffs)))
