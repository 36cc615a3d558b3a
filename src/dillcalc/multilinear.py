"""Symmetric multilinear maps and polarization of homogeneous parts.

A symmetric k-linear map C^m -> C^n is stored on the sorted coordinate tuples
i_1 <= ... <= i_k (combinations with replacement), one entry per output
component.  The normalization is fixed so that applying the map on the
diagonal reproduces the homogeneous polynomial it came from: the entry at a
tuple with multiplicity vector alpha is c_alpha * prod(alpha_i!) / k!.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from . import multiindex as mi
from .series import FiniteSpace, TruncatedSeries

POLARIZE_MAX_ARITY = 8


@lru_cache(maxsize=None)
def sorted_tuples(dim: int, arity: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations_with_replacement(range(dim), arity))


@lru_cache(maxsize=None)
def _tuple_positions(dim: int, arity: int) -> dict[tuple[int, ...], int]:
    return {t: i for i, t in enumerate(sorted_tuples(dim, arity))}


@lru_cache(maxsize=None)
def _ordered_lookup(dim: int, arity: int) -> tuple[np.ndarray, np.ndarray]:
    """Digit table of all ordered tuples in [dim]^arity, arity >= 1, and their
    sorted positions.

    The sorted tuple with multiplicity vector alpha sits at alpha's place in
    the degree-`arity` block of the graded order.
    """
    n = dim**arity
    digits = np.stack(np.unravel_index(np.arange(n), (dim,) * arity), axis=1)
    counts = np.zeros((n, dim), dtype=np.int64)
    np.add.at(counts, (np.arange(n)[:, None], digits), 1)
    sorted_pos = mi.rank(counts) - mi.count_indices(dim, arity - 1)
    digits.setflags(write=False)
    sorted_pos.setflags(write=False)
    return digits, sorted_pos


class SymmetricMultilinear:
    """Symmetric k-linear map stored on sorted coordinate tuples."""

    __slots__ = ("arity", "domain", "codomain", "entries")

    def __init__(self, arity: int, domain: FiniteSpace, codomain: FiniteSpace, entries):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        arr = np.asarray(entries, dtype=np.complex128)
        n_tuples = len(sorted_tuples(domain.dim, arity))
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
        return complex(self.entries[out, _tuple_positions(self.domain.dim, self.arity)[tuple(sorted(t))]])

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
    if k > f.degree:
        raise ValueError(f"arity {k} exceeds the series degree {f.degree}")
    m = f.domain.dim
    # sorted_tuples(m, k) lists multiplicity vectors in the order of the
    # degree-k block, so the block is read in place
    block = slice(mi.count_indices(m, k - 1) if k else 0, mi.count_indices(m, k))
    alphas = mi.exponent_matrix(m, f.degree)[block]
    factorials = np.array([math.factorial(e) for e in range(k + 1)], dtype=np.float64)
    scale = factorials[alphas].prod(axis=1) / math.factorial(k)
    entries = f.coeffs[:, block] * scale
    return SymmetricMultilinear(k, f.domain, f.codomain, entries)


def polarize(f: TruncatedSeries, arity: int | None = None) -> SymmetricMultilinear:
    """Symmetric form of a homogeneous part by the alternating-sum identity.

    f~(x_1,...,x_k) = (1/k!) sum over eps in {0,1}^k of
    (-1)^(k - |eps|) f(eps_1 x_1 + ... + eps_k x_k).  Costs 2^k evaluations per
    stored tuple, so the arity is capped at POLARIZE_MAX_ARITY.  This is the
    independent route against which `from_monomial` is checked.
    """
    k = _homogeneous_arity(f, arity)
    if k > POLARIZE_MAX_ARITY:
        raise ValueError(
            f"polarization arity {k} exceeds the supported bound {POLARIZE_MAX_ARITY}"
        )
    m = f.domain.dim
    tuples = sorted_tuples(m, k)
    entries = np.zeros((f.codomain.dim, len(tuples)), dtype=np.complex128)
    kfac = math.factorial(k)
    for t_idx, t in enumerate(tuples):
        acc = np.zeros(f.codomain.dim, dtype=np.complex128)
        for mask in range(2**k):
            x = np.zeros(m, dtype=np.complex128)
            bits = 0
            for slot in range(k):
                if mask >> slot & 1:
                    x[t[slot]] += 1.0
                    bits += 1
            acc += (-1.0) ** (k - bits) * f.evaluate(x)
        entries[:, t_idx] = acc / kfac
    return SymmetricMultilinear(k, f.domain, f.codomain, entries)
