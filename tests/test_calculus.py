import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dillcalc import calculus as ca
from dillcalc import laws
from dillcalc.series import TruncatedSeries

from brute import bp_compose, from_series, iter_indices, max_mismatch

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

coeff_st = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def series_st(draw, dom, cod, degree, zero_constant=False):
    indices = list(iter_indices(dom, degree))
    if zero_constant:
        indices = [a for a in indices if sum(a) > 0]
    terms = {}
    for out in range(cod):
        for alpha in draw(st.lists(st.sampled_from(indices), max_size=4)) if indices else []:
            terms[(out, alpha)] = draw(coeff_st)
    return TruncatedSeries.from_terms(dom, cod, degree, terms)


def test_compose_frozen_example():
    f = TruncatedSeries.from_terms(1, 1, 4, {(0, (2,)): 1.0})
    g = TruncatedSeries.from_terms(1, 1, 4, {(0, (1,)): 1.0, (0, (2,)): 1.0})
    h = ca.compose(f, g)
    got = [h.coefficient(0, (k,)) for k in range(5)]
    np.testing.assert_allclose(got, [0, 0, 1, 2, 1], atol=1e-13)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_compose_matches_brute(data):
    m = data.draw(st.integers(1, 3))
    p = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(1, 2))
    deg = data.draw(st.integers(1, 4))
    f = data.draw(series_st(p, n, deg))
    g = data.draw(series_st(m, p, deg, zero_constant=True))
    h = ca.compose(f, g)
    assert h.degree == deg
    inners = [poly for poly in from_series(g)]
    want = [bp_compose(outer, inners, m, deg) for outer in from_series(f)]
    assert max_mismatch(h, want) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_compose_polynomial_outer_with_constant_inner(data):
    deg = data.draw(st.integers(1, 3))
    f = data.draw(series_st(2, 1, deg))
    g = data.draw(series_st(2, 2, deg))
    if np.all(g.constant_term() == 0):
        g = g + TruncatedSeries.constant([0.5, -0.25j], 2, deg)
    h = ca.compose(f, g, outer_polynomial=True)
    want = [bp_compose(outer, from_series(g), 2, deg) for outer in from_series(f)]
    assert max_mismatch(h, want) < 1e-9
    hn = ca.compose_naive(f, g, outer_polynomial=True)
    assert max_mismatch(hn, want) < 1e-9


def test_compose_constant_inner_needs_flag():
    f = TruncatedSeries.from_terms(1, 1, 3, {(0, (1,)): 1.0})
    g = TruncatedSeries.constant([1.0], 1, 3)
    with pytest.raises(ValueError, match="constant term requires polynomial outer series"):
        ca.compose(f, g)
    with pytest.raises(ValueError, match="constant term requires polynomial outer series"):
        ca.compose_naive(f, g)
    out = ca.compose(f, g, outer_polynomial=True)
    np.testing.assert_allclose(out.constant_term(), [1.0])


def test_compose_dimension_mismatch_names_both():
    f = TruncatedSeries.zero(3, 1, 2)
    g = TruncatedSeries.zero(1, 2, 2)
    with pytest.raises(ValueError) as exc:
        ca.compose(f, g)
    assert "2" in str(exc.value) and "3" in str(exc.value)


def test_compose_truncates_to_min_degree():
    f = TruncatedSeries.from_terms(1, 1, 5, {(0, (1,)): 1.0})
    g = TruncatedSeries.from_terms(1, 1, 3, {(0, (1,)): 1.0})
    assert ca.compose(f, g).degree == 3
    assert ca.compose(g, f).degree == 3


def test_compose_identity_both_sides():
    f = TruncatedSeries.from_terms(2, 2, 3, {(0, (1, 1)): 2.0, (1, (0, 2)): -1.0})
    ident = TruncatedSeries.identity(2, 3)
    left = ca.compose(ident, f, outer_polynomial=True)
    right = ca.compose(f, ident)
    np.testing.assert_array_equal(left.coeffs, f.coeffs)
    np.testing.assert_array_equal(right.coeffs, f.coeffs)


@pytest.mark.parametrize("dim,deg", [(4, 8), (6, 6), (3, 8)])
def test_compose_matches_naive_at_stall_sizes(dim, deg):
    rng = np.random.default_rng(dim * 100 + deg)
    f = laws.random_series(rng, dim, 2, deg)
    g = laws.random_series(rng, dim, dim, deg, zero_constant=True)
    fast = ca.compose(f, g)
    slow = ca.compose_naive(f, g)
    assert fast.degree == deg
    assert np.max(np.abs(fast.coeffs - slow.coeffs)) <= 1e-9


@pytest.mark.parametrize("dim,f_deg,g_deg", [(2, 8, 4), (3, 6, 3), (4, 5, 2)])
def test_compose_polynomial_outer_above_inner_degree(dim, f_deg, g_deg):
    # with a constant inner term every coefficient of f reaches the output,
    # including those above the output degree
    rng = np.random.default_rng(dim * 100 + f_deg)
    f = laws.random_series(rng, dim, 2, f_deg)
    g = laws.random_series(rng, dim, dim, g_deg)
    assert np.all(g.constant_term() != 0)
    fast = ca.compose(f, g, outer_polynomial=True)
    slow = ca.compose_naive(f, g, outer_polynomial=True)
    assert fast.degree == g_deg
    assert np.max(np.abs(fast.coeffs - slow.coeffs)) <= 1e-9
    low = ca.compose(f.truncate(g_deg), g, outer_polynomial=True)
    assert np.max(np.abs(fast.coeffs - low.coeffs)) > 1e-3


def test_fibonacci_script_is_exact():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "fibonacci_compose.py"), "--degree", "8"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all coefficients exact" in proc.stdout


def test_curry_frozen_example():
    # f(x, y) = x^2 y: outer coefficient at alpha = (2) is the series y
    f = TruncatedSeries.from_terms(2, 1, 3, {(0, (2, 1)): 1.0})
    c = ca.curry(f, 1)
    assert c.outer_dim == 1 and c.inner_dim == 1
    inner = c.inner[2]  # position of alpha = (2) at degree <= 3 in one variable
    assert inner.degree == 1
    assert inner.coefficient(0, (1,)) == 1.0
    for pos in (0, 1, 3):
        assert np.all(c.inner[pos].coeffs == 0)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_curry_uncurry_roundtrip_bit_exact(data):
    dim = data.draw(st.integers(2, 4))
    deg = data.draw(st.integers(0, 4))
    f = data.draw(series_st(dim, 2, deg))
    split = data.draw(st.integers(1, dim - 1))
    c = ca.curry(f, split)
    back = ca.uncurry(c)
    assert back.degree == f.degree
    np.testing.assert_array_equal(back.coeffs, f.coeffs)
    again = ca.curry(back, split)
    for a, b in zip(c.inner, again.inner):
        np.testing.assert_array_equal(a.coeffs, b.coeffs)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_curry_evaluation(data):
    f = data.draw(series_st(3, 1, 3))
    split = data.draw(st.integers(1, 2))
    c = ca.curry(f, split)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    x = rng.uniform(-1, 1, split) + 1j * rng.uniform(-1, 1, split)
    y = rng.uniform(-1, 1, 3 - split) + 1j * rng.uniform(-1, 1, 3 - split)
    np.testing.assert_allclose(
        c.evaluate(x, y), f.evaluate(np.concatenate([x, y])), atol=1e-9
    )
    np.testing.assert_allclose(
        ca.split_slot_reference(f, split, x, y),
        f.evaluate(np.concatenate([x, y])),
        atol=1e-8,
    )


def test_curry_invalid_split():
    f = TruncatedSeries.zero(2, 1, 2)
    for split in (0, 2, 5):
        with pytest.raises(ValueError, match="proper split"):
            ca.curry(f, split)


def test_curried_series_validation():
    f = TruncatedSeries.from_terms(2, 1, 2, {(0, (1, 1)): 1.0})
    c = ca.curry(f, 1)
    bad_inner = list(c.inner)
    bad_inner[1] = TruncatedSeries.zero(1, 1, 2)  # alpha=(1) should carry degree 1
    with pytest.raises(ValueError, match="inconsistent nesting"):
        ca.CurriedSeries(c.outer_dim, c.inner_dim, c.codomain_dim, c.degree, tuple(bad_inner))


def test_uncurry_type_check():
    with pytest.raises(AttributeError):
        ca.uncurry("not a curried series")


def test_derivative_series_layout():
    f = TruncatedSeries.from_terms(2, 2, 2, {(0, (2, 0)): 1.0, (1, (1, 1)): 1.0})
    d = ca.derivative_series(f)
    assert d.codomain.dim == 4  # (out, coord) row-major
    assert d.degree == 1
    # row 0: d f_0 / d x_0 = 2 x_0
    assert d.coefficient(0, (1, 0)) == 2.0
    # row 3: d f_1 / d x_1 = x_0
    assert d.coefficient(3, (1, 0)) == 1.0


def test_jacobian_matches_finite_difference():
    f = TruncatedSeries.from_terms(2, 2, 3, {(0, (2, 1)): 1.0, (1, (0, 1)): 2.0})
    x = np.array([0.3, -0.4])
    jac = ca.jacobian_at(f, x)
    t = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = t
        fd = (f.evaluate(x + e) - f.evaluate(x - e)) / (2 * t)
        np.testing.assert_allclose(jac[:, i], fd, atol=1e-6)


def test_chain_rule_at_zero():
    f = TruncatedSeries.from_terms(2, 2, 3, {(0, (1, 1)): 1.0, (1, (1, 0)): 3.0})
    g = TruncatedSeries.from_terms(2, 2, 3, {(0, (0, 1)): 2.0, (1, (1, 0)): 1.0})
    comp = ca.compose(f, g)
    zero = np.zeros(2)
    np.testing.assert_allclose(
        ca.jacobian_at(comp, zero),
        ca.jacobian_at(f, zero) @ ca.jacobian_at(g, zero),
        atol=1e-12,
    )
