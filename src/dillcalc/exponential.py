"""Distributions on truncated series spaces and the exponential structure maps.

A distribution of degree D on C^m is a linear functional on the degree-D
series space, stored in the basis of coefficient extractors: eps_alpha sends a
series to its alpha coefficient, and a distribution is sum_alpha d_alpha
eps_alpha over |alpha| <= D.  The Dirac functional at x has d_alpha = x^alpha,
and the extractor basis is exactly what makes the convolution product and the
comonad matrices finite and explicit.

Conventions for the operator matrices:

* bases are described by VectorBasis (a plain C^k), DistBasis (a distribution
  space with its dimension and degree) and TensorBasis (pairs, row-major, so
  matrix tensor products are numpy kron);
* a map out of a tensor basis truncates: any image index of total degree
  above the target degree is dropped to 0;
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
from .series import FiniteSpace, TruncatedSeries, _check_degree, _monomials_at

DIGGING_DIM_BOUND = 5000


# ---------------------------------------------------------------------------
# distributions


class Distribution:
    """A linear functional sum_alpha d_alpha eps_alpha on degree-D series over C^m."""

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim: int, degree: int, coeffs):
        if dim < 1:
            raise ValueError("empty space: dimension must be at least 1")
        degree = _check_degree(degree)
        arr = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if arr.size != mi.count_indices(dim, degree):
            raise ValueError(
                f"coefficient vector has length {arr.size}, expected "
                f"{mi.count_indices(dim, degree)} for dimension {dim} degree {degree}"
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
        return cls(dim, degree, np.zeros(mi.count_indices(dim, degree)))

    @classmethod
    def extractor(cls, alpha, degree: int) -> "Distribution":
        """The basis functional eps_alpha."""
        a = mi.MultiIndex(alpha)
        arr = np.zeros(mi.count_indices(len(a), degree), dtype=np.complex128)
        arr[mi.position_of(a, degree)] = 1.0
        return cls(len(a), degree, arr)

    def coefficient(self, alpha) -> complex:
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
        idx = mi.enumerate_indices(self.dim, self.degree)
        entries = []
        for p, a in enumerate(idx):
            c = self.coeffs[p]
            if c != 0:
                entries.append(
                    {
                        "alpha": list(a),
                        "re": float(format(c.real, ".17g")),
                        "im": float(format(c.imag, ".17g")),
                    }
                )
        return {"dim": self.dim, "degree": self.degree, "coeffs": entries}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), allow_nan=False)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Distribution":
        try:
            dim = int(data["dim"])
            degree = int(data["degree"])
            raw = data.get("coeffs", [])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed distribution JSON: {exc}") from exc
        arr = np.zeros(mi.count_indices(dim, degree), dtype=np.complex128)
        for item in raw:
            p = mi.position_of(tuple(int(e) for e in item["alpha"]), degree)
            arr[p] = complex(float(item.get("re", 0.0)), float(item.get("im", 0.0)))
        return cls(dim, degree, arr)


def dirac(x, degree: int) -> Distribution:
    """The evaluation functional delta_x, with d_alpha = x^alpha."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    return Distribution(x.size, degree, _monomials_at(x, x.size, _check_degree(degree)))


def theta(order: int, x, degree: int) -> Distribution:
    """The scaled coefficient extractor at x: applying theta(n, x) to f gives n! f_n(x).

    theta_0(x) is delta_0, theta_1(x) is the derivative of t -> delta_{tx}
    at 0, and theta_{n+1} = theta_1 * theta_n under convolution; the closed
    form n! sum_{|alpha| = n} x^alpha eps_alpha is what gets stored.
    """
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    degree = _check_degree(degree)
    if not 0 <= order <= degree:
        raise ValueError(f"extractor order {order} outside 0..{degree}")
    dim = x.size
    mono = _monomials_at(x, dim, degree)
    mask = mi.degree_vector(dim, degree) == order
    return Distribution(dim, degree, math.factorial(order) * mono * mask)


def convolve(d1: Distribution, d2: Distribution) -> Distribution:
    """Convolution product; on extractors eps_alpha * eps_beta =
    binom_componentwise(alpha, beta) eps_(alpha+beta), truncated at the degree."""
    if (d1.dim, d1.degree) != (d2.dim, d2.degree):
        raise ValueError("distribution shapes differ: cannot convolve")
    ia, ib, ic, w = mi.convolution_table(d1.dim, d1.degree)
    out = np.zeros_like(d1.coeffs)
    np.add.at(out, ic, w * d1.coeffs[ia] * d2.coeffs[ib])
    return Distribution(d1.dim, d1.degree, out)


def codereliction(v, degree: int) -> Distribution:
    """theta_1(v): the first-order extractor sum_i v_i eps_(e_i)."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    degree = _check_degree(degree)
    if degree < 1:
        raise ValueError("codereliction needs degree at least 1")
    arr = np.zeros(mi.count_indices(v.size, degree), dtype=np.complex128)
    arr[1 : 1 + v.size] = v  # positions 1..m are the unit indices e_1..e_m
    return Distribution(v.size, degree, arr)


def delta_taylor_check(x, degree: int, tol: float = 1e-12) -> bool:
    """dirac(x) = sum_n theta(n, x) / n! coefficient for coefficient."""
    d = dirac(x, degree)
    acc = Distribution.zero(d.dim, degree)
    for n in range(degree + 1):
        acc = acc + theta(n, x, degree).scale(1.0 / math.factorial(n))
    return float(np.max(np.abs(acc.coeffs - d.coeffs))) <= tol


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


class LinearOperator:
    """Dense complex matrix between described bases, rows indexing the target."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Basis, target: Basis, matrix):
        arr = np.asarray(matrix, dtype=np.complex128)
        if arr.shape != (target.size, source.size):
            raise ValueError(
                f"matrix has shape {arr.shape}, expected ({target.size}, {source.size})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", arr)

    def __setattr__(self, name, value):
        raise AttributeError("LinearOperator is immutable")

    @classmethod
    def identity(cls, basis: Basis) -> "LinearOperator":
        return cls(basis, basis, np.eye(basis.size, dtype=np.complex128))

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        if other.target != self.source:
            raise ValueError(
                f"operator composition mismatch: {other.target} feeds into {self.source}"
            )
        return LinearOperator(other.source, self.target, self.matrix @ other.matrix)

    def tensor(self, other: "LinearOperator") -> "LinearOperator":
        return LinearOperator(
            TensorBasis(self.source, other.source),
            TensorBasis(self.target, other.target),
            np.kron(self.matrix, other.matrix),
        )

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
        out = self.matrix @ vec
        if isinstance(self.target, DistBasis):
            return Distribution(self.target.dim, self.target.degree, out)
        return out

    def __repr__(self):
        return f"LinearOperator({self.source} -> {self.target})"

    def to_json_dict(self) -> dict:
        return {
            "source": self.source.describe(),
            "target": self.target.describe(),
            "matrix": [
                [[float(format(v.real, ".17g")), float(format(v.imag, ".17g"))] for v in row]
                for row in self.matrix
            ],
        }


# ---------------------------------------------------------------------------
# structure maps


def counit(dim: int, degree: int) -> LinearOperator:
    """Dereliction !E -> E: keeps the unit extractors, so delta_x goes to x."""
    degree = _check_degree(degree)
    n = mi.count_indices(dim, degree)
    mat = np.zeros((dim, n), dtype=np.complex128)
    if degree >= 1:
        for i in range(dim):
            mat[i, 1 + i] = 1.0  # position of the unit index e_i
    return LinearOperator(DistBasis(dim, degree), VectorBasis(dim), mat)


def comultiplication(dim: int, inner_degree: int, outer_degree: int | None = None) -> LinearOperator:
    """Digging !E -> !!E determined by delta_x -> delta_(delta_x).

    The coefficient of delta_(delta_x) at the outer index A is
    prod_j (x^alpha_j)^(A_j) = x^(sum_j A_j alpha_j), so the matrix has a 1
    placing each outer index A at the inner index sum_j A_j alpha_j, and rows
    whose inner index overflows the inner degree stay zero.
    """
    inner_degree = _check_degree(inner_degree)
    outer_degree = inner_degree if outer_degree is None else _check_degree(outer_degree)
    n_inner = mi.count_indices(dim, inner_degree)
    n_outer = mi.count_indices(n_inner, outer_degree)
    if n_outer > DIGGING_DIM_BOUND:
        raise ValueError(
            f"digging target dimension {n_outer} exceeds the bound {DIGGING_DIM_BOUND} "
            f"(dimension {dim}, inner degree {inner_degree}, outer degree {outer_degree})"
        )
    inner_exps = mi.exponent_matrix(dim, inner_degree)  # (n_inner, dim)
    outer_exps = mi.exponent_matrix(n_inner, outer_degree)  # (n_outer, n_inner)
    images = outer_exps @ inner_exps  # row r: the inner multi-index hit by row r
    rows = np.flatnonzero(images.sum(axis=1) <= inner_degree)
    mat = np.zeros((n_outer, n_inner), dtype=np.complex128)
    mat[rows, mi.rank(images[rows])] = 1.0
    return LinearOperator(DistBasis(dim, inner_degree), DistBasis(n_inner, outer_degree), mat)


def weakening(dim: int, degree: int) -> LinearOperator:
    """e: !E -> C, the coefficient at alpha = 0; e(delta_x) = 1."""
    degree = _check_degree(degree)
    mat = np.zeros((1, mi.count_indices(dim, degree)), dtype=np.complex128)
    mat[0, 0] = 1.0
    return LinearOperator(DistBasis(dim, degree), VectorBasis(1), mat)


def coweakening(dim: int, degree: int) -> LinearOperator:
    """m0: C -> !E sending 1 to eps_0 = delta_0; the unit of convolution."""
    degree = _check_degree(degree)
    mat = np.zeros((mi.count_indices(dim, degree), 1), dtype=np.complex128)
    mat[0, 0] = 1.0
    return LinearOperator(VectorBasis(1), DistBasis(dim, degree), mat)


def contraction(dim: int, degree: int) -> LinearOperator:
    """Delta: !E -> !E (x) !E splitting each extractor over all index sums.

    eps_gamma goes to the sum of eps_alpha (x) eps_beta over alpha + beta =
    gamma: the product table read backwards.
    """
    degree = _check_degree(degree)
    basis = DistBasis(dim, degree)
    n = basis.size
    ia, ib, ic = mi.product_table(dim, degree)
    mat = np.zeros((n * n, n), dtype=np.complex128)
    mat[ia * n + ib, ic] = 1.0
    return LinearOperator(basis, TensorBasis(basis, basis), mat)


def cocontraction(dim: int, degree: int) -> LinearOperator:
    """nabla: !E (x) !E -> !E, the bilinear form of convolution on extractors."""
    degree = _check_degree(degree)
    basis = DistBasis(dim, degree)
    n = basis.size
    ia, ib, ic, w = mi.convolution_table(dim, degree)
    mat = np.zeros((n, n * n), dtype=np.complex128)
    mat[ic, ia * n + ib] = w
    return LinearOperator(TensorBasis(basis, basis), basis, mat)


def monoidal_product(dim_e: int, dim_f: int, degree: int) -> LinearOperator:
    """m2: !E (x) !F -> !(E x F), concatenating extractor indices.

    Bijective between the pairs with |alpha| + |beta| <= degree and the basis
    of the product space; pairs over the budget truncate to 0.
    """
    degree = _check_degree(degree)
    be, bf = DistBasis(dim_e, degree), DistBasis(dim_f, degree)
    target = DistBasis(dim_e + dim_f, degree)
    de = mi.degree_vector(dim_e, degree)
    df = mi.degree_vector(dim_f, degree)
    i, j = np.nonzero(de[:, None] + df[None, :] <= degree)
    gamma = np.hstack(
        [mi.exponent_matrix(dim_e, degree)[i], mi.exponent_matrix(dim_f, degree)[j]]
    )
    mat = np.zeros((target.size, be.size * bf.size), dtype=np.complex128)
    mat[mi.rank(gamma), i * bf.size + j] = 1.0
    return LinearOperator(TensorBasis(be, bf), target, mat)


def monoidal_product_inverse(dim_e: int, dim_f: int, degree: int) -> LinearOperator:
    """Splits !(E x F) back into the pair of marginal extractors: the transpose
    of the bijection m2."""
    m2 = monoidal_product(dim_e, dim_f, degree)
    return LinearOperator(m2.target, m2.source, m2.matrix.T)


def swap_operator(left: Basis, right: Basis) -> LinearOperator:
    i, j = np.divmod(np.arange(left.size * right.size), right.size)
    mat = np.zeros((left.size * right.size, left.size * right.size), dtype=np.complex128)
    mat[j * left.size + i, i * right.size + j] = 1.0
    return LinearOperator(TensorBasis(left, right), TensorBasis(right, left), mat)


def codereliction_operator(dim: int, degree: int) -> LinearOperator:
    """E -> !E, v to theta_1(v); a section of the dereliction counit."""
    degree = _check_degree(degree)
    if degree < 1:
        raise ValueError("codereliction needs degree at least 1")
    n = mi.count_indices(dim, degree)
    mat = np.zeros((n, dim), dtype=np.complex128)
    for i in range(dim):
        mat[1 + i, i] = 1.0
    return LinearOperator(VectorBasis(dim), DistBasis(dim, degree), mat)


# ---------------------------------------------------------------------------
# promotion and the adjunction


def bang_map(f: TruncatedSeries, degree: int) -> LinearOperator:
    """!f: !E -> !F with entry (beta, alpha) the alpha coefficient of f(x)^beta.

    Needs f truncated at least to `degree`; each row is a truncated product of
    powers of the component series of f.  Sends delta_x to delta_(f(x)) up to
    truncation when f(0) = 0, exactly when f is linear.
    """
    degree = _check_degree(degree)
    if f.degree < degree:
        raise ValueError(
            f"series degree {f.degree} below the promotion degree {degree}"
        )
    f = f.truncate(degree)
    m, n = f.domain.dim, f.codomain.dim
    source = DistBasis(m, degree)
    target = DistBasis(n, degree)
    one = TruncatedSeries.constant([1.0], m, degree)
    powers = []
    for j in range(n):
        comp = f.component(j)
        row = [one]
        for _ in range(degree):
            row.append(row[-1].pointwise_multiply(comp))
        powers.append(row)
    mat = np.zeros((target.size, source.size), dtype=np.complex128)
    for r, beta in enumerate(mi.enumerate_indices(n, degree)):
        term = one
        for j, e in enumerate(beta):
            if e:
                term = term.pointwise_multiply(powers[j][e])
        mat[r] = term.coeffs[0]
    return LinearOperator(source, target, mat)


def bang_linear(matrix, degree: int) -> LinearOperator:
    """Promotion of a plain linear map given by a dense (n, m) matrix."""
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError("expected a 2d matrix")
    n, m = arr.shape
    terms = {}
    for j in range(n):
        for i in range(m):
            if arr[j, i] != 0:
                terms[(j, tuple(1 if k == i else 0 for k in range(m)))] = arr[j, i]
    f = TruncatedSeries.from_terms(m, n, degree, terms)
    return bang_map(f, degree)


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
