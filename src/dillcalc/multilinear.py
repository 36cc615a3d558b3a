"""Symmetric multilinear maps and polarization of homogeneous parts.

A symmetric k-linear map C^m -> C^n is stored on the sorted coordinate tuples
i_1 <= ... <= i_k, one entry per output component, in the order of the degree-k
block (`degree_slice`, `multiplicities`) that `multiindex` owns with the
dimension rule.  The normalization is fixed so that
applying the map on the diagonal reproduces the homogeneous polynomial it came
from: the entry at a tuple with multiplicity vector alpha is c_alpha * prod(alpha_i!) / k!.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import multiindex as mi
from . import series
from .series import FiniteSpace, TruncatedSeries


@lru_cache(maxsize=None)
def _ordered_lookup(dim: int, arity: int) -> tuple[np.ndarray, np.ndarray]:
    """Digit table of all ordered tuples in [dim]^arity, arity >= 1, and their
    sorted positions.

    The sorted tuple with multiplicity vector alpha sits at alpha's place in
    the degree-`arity` block of the graded order.
    """
    digits = np.stack(np.unravel_index(np.arange(dim**arity), (dim,) * arity), axis=1)
    sorted_pos = mi.rank(mi.multiplicities(digits, dim)) - mi.degree_slice(dim, arity).start
    return mi._frozen(digits, sorted_pos)


class SymmetricMultilinear:
    """Symmetric k-linear map stored on sorted coordinate tuples."""

    __slots__ = ("arity", "domain", "codomain", "entries")

    def __init__(self, arity: int, domain: FiniteSpace, codomain: FiniteSpace, entries):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
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
        multiplicity vector inside the degree-`arity` block, as in `_ordered_lookup`."""
        dim = self.domain.dim
        if len(t) != self.arity or not all(0 <= i < dim for i in t):
            raise KeyError(f"{tuple(t)} is not a tuple of {self.arity} coordinates below {dim}")
        (pos,) = mi.rank(mi.multiplicities(np.array([t], dtype=np.int64), dim))
        return complex(self.entries[out, pos - mi.degree_slice(dim, self.arity).start])

    def apply(self, args) -> np.ndarray:
        """Evaluate on arity-many vectors by full multilinear expansion.

        The sum runs over every ordered coordinate tuple; the symmetric entry is
        looked up at the sorted tuple, which is exactly the multiplicity
        bookkeeping of the stored normal form.
        """
        vecs = [np.asarray(a, dtype=np.complex128).reshape(-1) for a in args]
        if len(vecs) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(vecs)}")
        for v in vecs:
            if v.size != self.domain.dim:
                raise ValueError(
                    f"argument has dimension {v.size}, expected {self.domain.dim}"
                )
        if self.arity == 0:
            return self.entries[:, 0].copy()
        digits, sorted_pos = _ordered_lookup(self.domain.dim, self.arity)
        prod = np.ones(digits.shape[0], dtype=np.complex128)
        for slot in range(self.arity):
            prod *= vecs[slot][digits[:, slot]]
        weights = np.zeros(self.entries.shape[1], dtype=np.complex128)
        np.add.at(weights, sorted_pos, prod)
        return self.entries @ weights


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

    The entry on the sorted tuple with multiplicity vector alpha is
    c_alpha * prod(alpha_i!) / k!, the unique symmetric choice whose diagonal
    restriction returns the monomial coefficients.
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
    # the sorted tuples: row alpha of the degree-k block repeats coordinate i alpha_i times
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
