"""Symmetric multilinear maps and polarization of homogeneous parts.

A symmetric k-linear map C^m -> C^n is stored with one entry per output
component and per multi-index alpha of degree k, in the order of the
degree-k block (`degree_slice`) of the graded order that `multiindex` fixes
with `rank` and `unrank`.  The normalization is fixed so that applying the
map on the diagonal reproduces the homogeneous polynomial it came from: the
entry at alpha is c_alpha * prod(alpha_i!) / k!.
"""

from __future__ import annotations

import math

import numpy as np

from . import multiindex as mi
from . import series
from .series import FiniteSpace, TruncatedSeries


class SymmetricMultilinear:
    """Symmetric k-linear map stored on the degree-k multi-indices."""

    __slots__ = ("arity", "domain", "codomain", "entries")

    def __init__(self, arity: int, domain: FiniteSpace, codomain: FiniteSpace, entries):
        if not 0 <= arity <= series.MAX_DEGREE:  # apply multiplies series of degree arity
            raise ValueError(f"arity {arity} outside 0..{series.MAX_DEGREE}")
        arr = np.asarray(entries, dtype=np.complex128)
        block = mi.degree_slice(domain.dim, arity)
        n_tuples = block.stop - block.start
        if arr.shape != (codomain.dim, n_tuples):
            raise ValueError(
                f"entry table has shape {arr.shape}, expected ({codomain.dim}, {n_tuples})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "entries", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricMultilinear is immutable")

    def entry(self, out: int, t: tuple[int, ...]) -> complex:
        """The entry at the coordinate tuple t, in any order: the rank of its
        multiplicity vector inside the degree-`arity` block."""
        dim, out = self.domain.dim, series._check_out(out, self.codomain.dim)
        if len(t) != self.arity or not all(series._is_coordinate(i, dim) for i in t):
            raise KeyError(f"{tuple(t)} is not a tuple of {self.arity} coordinates below {dim}")
        pos = mi.rank(np.bincount(np.array(t, dtype=np.int64), minlength=dim))
        return complex(self.entries[out, pos - mi.degree_slice(dim, self.arity).start])

    def apply(self, args) -> np.ndarray:
        """Evaluate on arity-many vectors v_1..v_k.

        The weight of the entry at alpha is the coefficient of y^alpha in
        prod_s <v_s, y>, which sums prod_s v_s[i_s] over the ordered
        coordinate tuples with multiplicity vector alpha; so the value is the
        entries against that product: v_1 shifted by v_2 .. v_k in turn,
        y^alpha y_i = y^(alpha + e_i) read from `multiindex.derivative_table`.
        """
        vecs = [np.asarray(a, dtype=np.complex128).reshape(-1) for a in args]
        if len(vecs) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(vecs)}")
        dim = self.domain.dim
        for v in vecs:
            if v.size != dim:
                raise ValueError(f"argument has dimension {v.size}, expected {dim}")
        if self.arity == 0:
            return self.entries[:, 0].copy()
        src, _ = mi.derivative_table(dim, self.arity)
        product = vecs[0]
        for k, v in enumerate(vecs[1:], start=1):
            shifted = np.zeros(mi.count_indices(dim, k + 1), dtype=np.complex128)
            np.add.at(shifted, src[:, mi.degree_slice(dim, k)], v[:, None] * product)
            product = shifted[mi.degree_slice(dim, k + 1)]
        return self.entries @ product


def _homogeneous_arity(f: TruncatedSeries, arity: int | None) -> int:
    """The degree of the one homogeneous part of f, or the given arity.  An
    arity above f's degree is refused, so no arity exceeds MAX_DEGREE."""
    if arity is not None and arity > f.degree:
        raise ValueError(f"arity {arity} exceeds the series degree {f.degree}")
    degs = mi.degree_vector(f.domain.dim, f.degree)
    nonzero = np.any(f.coeffs != 0, axis=0)
    present = set(degs[nonzero].tolist())
    if len(present) > 1:
        raise ValueError(f"series mixes degrees {sorted(present)}: not homogeneous")
    if arity is None:
        if not present:
            raise ValueError("zero series: pass the arity explicitly")
        return int(present.pop())
    if present and present != {arity}:
        raise ValueError(
            f"series is homogeneous of degree {present.pop()}, expected {arity}"
        )
    return arity


def from_monomial(f: TruncatedSeries, arity: int | None = None) -> SymmetricMultilinear:
    """Symmetric form of a homogeneous degree-k part, via the coefficient rule.

    The entry at alpha is c_alpha * prod(alpha_i!) / k!, the unique symmetric
    choice whose diagonal restriction returns the monomial coefficients.
    """
    k = _homogeneous_arity(f, arity)
    block = mi.degree_slice(f.domain.dim, k)
    alphas = mi.exponent_matrix(f.domain.dim, f.degree)[block]
    factorials = np.array([math.factorial(e) for e in range(k + 1)], dtype=np.float64)
    scale = factorials[alphas].prod(axis=1) / math.factorial(k)
    entries = f.coeffs[:, block] * scale
    return SymmetricMultilinear(k, f.domain, f.codomain, entries)


def polarize(f: TruncatedSeries, arity: int | None = None) -> SymmetricMultilinear:
    """Symmetric form of a homogeneous part by the alternating-sum identity.

    f~(x_1,...,x_k) = (1/k!) sum over eps in {0,1}^k of
    (-1)^(k - |eps|) f(eps_1 x_1 + ... + eps_k x_k).  Costs 2^k evaluations per
    stored tuple; the arity is at most the series degree, so at most
    `series.MAX_DEGREE`.  This is the independent route against which
    `from_monomial` is checked.
    """
    k = _homogeneous_arity(f, arity)
    m = f.domain.dim
    # the coordinate tuples: row alpha of the degree-k block repeats coordinate i alpha_i times
    alphas = mi.exponent_matrix(m, f.degree)[mi.degree_slice(m, k)]
    tuples = np.repeat(np.tile(np.arange(m), len(alphas)), alphas.ravel()).reshape(len(alphas), k)
    # row `mask` of masks @ units is eps_1 x_1 + ... + eps_k x_k, eps_slot the
    # bit `slot` of mask, for the unit vectors x_slot = e_(t[slot])
    masks = np.arange(2**k)[:, None] >> np.arange(k) & 1
    signs = (-1.0) ** (k - masks.sum(axis=1)) / math.factorial(k)
    entries = np.zeros((f.codomain.dim, len(tuples)), dtype=np.complex128)
    # at most series._POINT_BLOCK point coordinates a batch
    step = max(1, series._POINT_BLOCK // (2**k * m))
    for start in range(0, len(tuples), step):
        points = masks @ np.eye(m)[tuples[start : start + step]]
        values = f.evaluate_many(points.reshape(-1, m)).reshape(*points.shape[:2], -1)
        entries[:, start : start + step] = (signs @ values).T
    return SymmetricMultilinear(k, f.domain, f.codomain, entries)
