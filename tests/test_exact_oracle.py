"""Integer-coefficient compose, recenter, bang_map and convolve against sympy's exact arithmetic.

sympy expands the polynomials over the integers and rationals, and positions
come from sorting plain tuples (brute.graded_positions), so the expected
tables share no code with the package.  With small integer inputs every float
product and partial sum in the package is an exact integer, so the results
must agree bit for bit.
"""

import math

import numpy as np
import pytest
import sympy as sp

from dillcalc import calculus as ca
from dillcalc import exponential as xp
from dillcalc.series import TruncatedSeries

from brute import graded_order, graded_positions


def integer_terms(rng, dim, cod, deg, zero_constant=False):
    """{(out, alpha): c} with c drawn from -3..3, every alpha of degree <= deg."""
    terms = {}
    for out in range(cod):
        for alpha in graded_order(dim, deg):
            if zero_constant and sum(alpha) == 0:
                continue
            c = int(rng.integers(-3, 4))
            if c:
                terms[(out, alpha)] = c
    return terms


def polys(terms, cod, xs):
    """One sympy Poly in xs per output component."""
    out = [sp.Poly(0, *xs) for _ in range(cod)]
    for (j, alpha), c in terms.items():
        out[j] += sp.Poly(c * sp.prod([x**e for x, e in zip(xs, alpha)]), *xs)
    return out


def truncated_row(poly, dim, deg):
    """Coefficients of poly up to total degree deg over the graded order."""
    pos = graded_positions(dim, deg)
    row = np.zeros(len(pos), dtype=np.complex128)
    for monom, c in poly.terms():
        if sum(monom) <= deg:
            row[pos[monom]] = int(c)
    return row


def substitute(f_poly, g_polys):
    """f_poly(g_1, ..., g_p) as a Poly in the variables of the g's."""
    total = sp.Poly(0, *g_polys[0].gens)
    for monom, c in f_poly.terms():
        term = sp.Poly(int(c), *g_polys[0].gens)
        for g, e in zip(g_polys, monom):
            term *= g**e
        total += term
    return total


COMPOSE_CASES = [(1, 1, 4), (2, 2, 3), (2, 3, 3), (3, 2, 2)]


@pytest.mark.parametrize("m,p,deg", COMPOSE_CASES)
def test_compose_exact(m, p, deg):
    rng = np.random.default_rng(m * 100 + p * 10 + deg)
    xs, ys = sp.symbols(f"x0:{m}"), sp.symbols(f"y0:{p}")
    f_terms = integer_terms(rng, p, 2, deg)
    g_terms = integer_terms(rng, m, p, deg, zero_constant=True)
    h = ca.compose(
        TruncatedSeries.from_terms(p, 2, deg, f_terms),
        TruncatedSeries.from_terms(m, p, deg, g_terms),
    )
    g_polys = polys(g_terms, p, xs)
    want = np.array(
        [truncated_row(substitute(f, g_polys), m, deg) for f in polys(f_terms, 2, ys)]
    )
    assert np.array_equal(h.coeffs, want)


@pytest.mark.parametrize("m,p,f_deg,g_deg", [(1, 1, 5, 3), (2, 2, 3, 2), (2, 1, 4, 2)])
def test_compose_polynomial_outer_exact(m, p, f_deg, g_deg):
    rng = np.random.default_rng(m * 1000 + p * 100 + f_deg * 10 + g_deg)
    xs, ys = sp.symbols(f"x0:{m}"), sp.symbols(f"y0:{p}")
    f_terms = integer_terms(rng, p, 2, f_deg)
    g_terms = integer_terms(rng, m, p, g_deg)
    for j in range(p):
        g_terms[(j, (0,) * m)] = j + 1  # a nonzero constant in every component
    h = ca.compose(
        TruncatedSeries.from_terms(p, 2, f_deg, f_terms),
        TruncatedSeries.from_terms(m, p, g_deg, g_terms),
        outer_polynomial=True,
    )
    g_polys = polys(g_terms, p, xs)
    want = np.array(
        [truncated_row(substitute(f, g_polys), m, g_deg) for f in polys(f_terms, 2, ys)]
    )
    assert h.degree == g_deg
    assert np.array_equal(h.coeffs, want)
    # the route moves f's base point to g(0) = (1, .., p): f(g(0) + y)
    shift = [sp.Poly(y + j + 1, *ys) for j, y in enumerate(ys)]
    moved = TruncatedSeries.from_terms(p, 2, f_deg, f_terms).recenter(np.arange(1, p + 1))
    want = np.array([truncated_row(substitute(f, shift), p, f_deg) for f in polys(f_terms, 2, ys)])
    assert np.array_equal(moved.coeffs, want)


@pytest.mark.parametrize("m,n,deg", [(1, 2, 4), (2, 2, 3), (2, 3, 2), (3, 1, 3)])
@pytest.mark.parametrize("zero_constant", [True, False])
def test_bang_map_exact(m, n, deg, zero_constant):
    rng = np.random.default_rng(m * 100 + n * 10 + deg + zero_constant)
    xs = sp.symbols(f"x0:{m}")
    terms = integer_terms(rng, m, n, deg, zero_constant=zero_constant)
    op = xp.bang_map(TruncatedSeries.from_terms(m, n, deg, terms), deg)
    g_polys = polys(terms, n, xs)
    rows = graded_positions(n, deg)
    want = np.zeros((len(rows), len(graded_order(m, deg))), dtype=np.complex128)
    for beta, r in rows.items():
        power = sp.Poly(1, *xs)
        for g, e in zip(g_polys, beta):
            power *= g**e
        want[r] = truncated_row(power, m, deg)
    assert np.array_equal(op.matrix, want)


@pytest.mark.parametrize("dim,deg", [(1, 6), (2, 4), (3, 3)])
def test_convolve_exact(dim, deg):
    # the exponential generating function sum_alpha d_alpha x^alpha / alpha!
    # turns convolution into multiplication
    rng = np.random.default_rng(dim * 10 + deg)
    xs = sp.symbols(f"x0:{dim}")
    order = graded_order(dim, deg)
    d1, d2 = (rng.integers(-3, 4, len(order)) for _ in range(2))

    def egf(d):
        return sp.Poly(
            sum(
                sp.Rational(int(c), math.prod(math.factorial(e) for e in alpha))
                * sp.prod([x**e for x, e in zip(xs, alpha)])
                for c, alpha in zip(d, order)
            ),
            *xs,
            domain="QQ",
        )

    pos = graded_positions(dim, deg)
    want = np.zeros(len(order), dtype=np.complex128)
    for monom, c in (egf(d1) * egf(d2)).terms():
        if sum(monom) <= deg:
            value = c * math.prod(math.factorial(e) for e in monom)
            assert value.is_integer
            want[pos[monom]] = int(value)
    got = xp.convolve(xp.Distribution(dim, deg, d1), xp.Distribution(dim, deg, d2))
    assert np.array_equal(got.coeffs, want)
