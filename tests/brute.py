"""Dict-backed truncated polynomial arithmetic used as an independent oracle.

Deliberately naive: multi-indices are plain tuples, coefficients live in
dicts, products iterate all pairs, composition substitutes and truncates.
Nothing here shares code paths with the package beyond reading coefficients
out of a series.
"""

import math
from itertools import product


def iter_indices(dim, degree):
    for tup in product(range(degree + 1), repeat=dim):
        if sum(tup) <= degree:
            yield tup


def graded_order(dim, degree):
    """Indices sorted by degree, then descending lexicographically."""
    return sorted(iter_indices(dim, degree), key=lambda t: (sum(t), [-e for e in t]))


def graded_positions(dim, degree):
    return {t: i for i, t in enumerate(graded_order(dim, degree))}


def bp_zero():
    return {}


def bp_add(a, b):
    out = dict(a)
    for key, val in b.items():
        out[key] = out.get(key, 0.0) + val
    return out


def bp_scale(a, c):
    return {key: c * val for key, val in a.items()}


def bp_mul(a, b, degree):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if sum(ka) + sum(kb) > degree:
                continue
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0.0) + va * vb
    return out


def bp_pow(a, n, dim, degree):
    out = {(0,) * dim: 1.0}
    for _ in range(n):
        out = bp_mul(out, a, degree)
    return out


def bp_eval(a, x):
    total = 0.0
    for key, val in a.items():
        term = val
        for xi, e in zip(x, key):
            term = term * xi**e
        total += term
    return total


def bp_diff(a, coord):
    out = {}
    for key, val in a.items():
        if key[coord] == 0:
            continue
        down = tuple(e - 1 if i == coord else e for i, e in enumerate(key))
        out[down] = out.get(down, 0.0) + key[coord] * val
    return out


def bp_compose(outer, inners, dim_in, degree):
    """Substitute the list of inner polynomials into one outer component."""
    result = {}
    for alpha, coeff in outer.items():
        term = {(0,) * dim_in: 1.0}
        for j, e in enumerate(alpha):
            if e:
                term = bp_mul(term, bp_pow(inners[j], e, dim_in, degree), degree)
        result = bp_add(result, bp_scale(term, coeff))
    return {k: v for k, v in result.items() if v != 0}


def from_series(f):
    """Read a package series out into one dict per output component."""
    polys = []
    for out in range(f.codomain.dim):
        poly = {}
        for alpha in iter_indices(f.domain.dim, f.degree):
            c = f.coefficient(out, alpha)
            if c != 0:
                poly[alpha] = c
        polys.append(poly)
    return polys


def max_mismatch(f, polys):
    """Worst coefficient difference between a series and a dict oracle."""
    worst = 0.0
    for out in range(f.codomain.dim):
        for alpha in iter_indices(f.domain.dim, f.degree):
            got = f.coefficient(out, alpha)
            want = polys[out].get(alpha, 0.0)
            worst = max(worst, abs(got - want))
    return worst
