import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dillcalc import calculus as ca
from dillcalc import dsl, laws
from dillcalc import multiindex as mi
from dillcalc.cli import main
from dillcalc.series import FiniteSpace, TruncatedSeries

from brute import bp_compose, from_series, graded_order, iter_indices, max_mismatch

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


def dyadic_series(rng, dom, cod, deg):
    """Coefficients that are multiples of 1/4, damped by 2^-k at degree k: every
    product and partial sum of the routes below is exact in floating point."""
    n = mi.count_indices(dom, deg)
    coeffs = (rng.integers(-8, 9, (cod, n)) + 1j * rng.integers(-8, 9, (cod, n))) / 4
    return TruncatedSeries.from_arrays(dom, cod, deg, coeffs * 2.0 ** -mi.degree_vector(dom, deg))


@pytest.mark.parametrize("dim,deg", [(1, 3), (2, 4), (3, 6), (4, 8)])
def test_recenter_is_compose_with_a_translation(dim, deg):
    # f(a + h) by substituting a + h into each monomial of f
    rng = np.random.default_rng(dim * 10 + deg)
    f = dyadic_series(rng, dim, 2, deg)
    a = (rng.integers(-8, 9, dim) + 1j * rng.integers(-8, 9, dim)) / 4
    tau = TruncatedSeries.identity(dim, deg) + TruncatedSeries.constant(a, dim, deg)
    moved = f.recenter(a)
    assert moved.coeffs.tobytes() == ca.compose_naive(f, tau, outer_polynomial=True).coeffs.tobytes()
    # the constant term is f(a), and the degree-1 block the Jacobian at a
    np.testing.assert_allclose(moved.constant_term(), f.evaluate(a), atol=1e-12)
    np.testing.assert_allclose(moved.coeffs[:, 1 : dim + 1], ca.jacobian_at(f, a), atol=1e-12)


def test_recenter_checks_the_base_point():
    f = TruncatedSeries.identity(2, 3)
    with pytest.raises(ValueError, match="base point has dimension 3, series domain is 2"):
        f.recenter([1.0, 2.0, 3.0])


@pytest.mark.parametrize("dim,deg", [(2, 4), (3, 6), (4, 8)])
def test_poly_compose_is_exact_on_dyadic_inputs(dim, deg):
    # f recentred at g(0), after g - g(0), equals the substitution bit for bit
    rng = np.random.default_rng(dim * 100 + deg)
    f, g = dyadic_series(rng, dim, 2, deg), dyadic_series(rng, dim, dim, deg)
    assert np.any(g.constant_term() != 0)
    fast = ca.compose(f, g, outer_polynomial=True)
    assert fast.coeffs.tobytes() == ca.compose_naive(f, g, outer_polynomial=True).coeffs.tobytes()


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
    # blocks of 4, 3, 2 and 1 inner coefficients for alpha = (0) .. (3);
    # y is the second entry of the block of alpha = (2)
    want = np.zeros((1, 10))
    want[0, 4 + 3 + 1] = 1.0
    np.testing.assert_array_equal(c.coeffs, want)


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
    np.testing.assert_array_equal(ca.curry(back, split).coeffs, c.coeffs)


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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(1, 2),
    st.integers(0, 4),
    st.sampled_from([0.0, 0.2, 1.0]),
    st.integers(0, 2**31 - 1),
)
def test_curried_json_writes_each_block_as_its_series(dim, cod, deg, density, seed):
    # the one-pass writer against the series writer on each block, which
    # starts where the inner tables of the outer indices before it end
    rng = np.random.default_rng(seed)
    n = math.comb(dim + deg, deg)
    coeffs = rng.normal(size=(cod, n)) + 1j * rng.normal(size=(cod, n))
    coeffs[rng.random((cod, n)) >= density] = 0
    f = TruncatedSeries.from_arrays(dim, cod, deg, coeffs)
    for split in range(1, dim):
        c = ca.curry(f, split)
        data = c.to_json_dict()
        head = {"outer_dim": split, "inner_dim": dim - split, "codomain_dim": cod, "degree": deg}
        assert {k: data[k] for k in head} == head
        alphas = graded_order(split, deg)
        assert len(data["outer"]) == len(alphas)
        start = 0
        for alpha, entry in zip(alphas, data["outer"]):
            d = deg - sum(alpha)
            width = math.comb(dim - split + d, d)
            table = c.coeffs[:, start : start + width]
            block = TruncatedSeries(FiniteSpace(dim - split), FiniteSpace(cod), d, table)
            assert entry == {"alpha": list(alpha), "series": block.to_json_dict()}
            start += width
        assert start == c.coeffs.shape[1]


def test_curry_invalid_split():
    f = TruncatedSeries.zero(2, 1, 2)
    for split in (0, 2, 5):
        with pytest.raises(ValueError, match="proper split"):
            ca.curry(f, split)


def test_curried_series_validation():
    cases = [
        # C^1 x C^1 at degree 2 holds 6 coefficients, not 5
        ((1, 1, 1, 2, np.zeros((1, 5))), r"shape \(1, 5\), expected \(1, 6\)"),
        ((1, 1, 2, 2, np.zeros((1, 6))), r"shape \(1, 6\), expected \(2, 6\)"),
        ((0, 2, 1, 2, np.zeros((1, 6))), "dimension must be at least 1"),
        ((1, 1.0, 1, 2, np.zeros((1, 6))), "dimension must be an integer"),
        ((1, 1, 1, -1, np.zeros((1, 1))), "degree must be nonnegative"),
    ]
    for args, match in cases:
        with pytest.raises(ValueError, match=match):
            ca.CurriedSeries(*args)


def test_curried_series_compare_by_identity():
    # field-wise == would compare the tables elementwise, and hashing one fails
    c = ca.curry(TruncatedSeries.from_terms(2, 1, 2, {(0, (1, 1)): 1.0}), 1)
    assert c == c and c != ca.curry(ca.uncurry(c), 1) and len({c, c}) == 1


def normal_series(rng, dom, cod, deg):
    coeffs = rng.normal(size=(2, cod, mi.count_indices(dom, deg)))
    return TruncatedSeries.from_arrays(dom, cod, deg, coeffs[0] + 1j * coeffs[1])


@pytest.mark.parametrize("dim,cod,deg", [(2, 1, 4), (3, 2, 5), (4, 1, 6)])
def test_curry_is_linear_at_every_split(dim, cod, deg):
    # curried series add and scale as the series they come from
    rng = np.random.default_rng(dim * 10 + deg)
    f, g = (normal_series(rng, dim, cod, deg) for _ in range(2))
    for split in range(1, dim):
        summed = ca.curry(f, split) + 2 * ca.curry(g, split)
        assert type(summed) is ca.CurriedSeries
        assert summed.coeffs.tobytes() == ca.curry(f + 2 * g, split).coeffs.tobytes()
        assert ca.uncurry(summed).coeffs.tobytes() == (f + 2 * g).coeffs.tobytes()
        difference = ca.curry(f, split) - ca.curry(g, split)
        assert difference.coeffs.tobytes() == ca.curry(f - g, split).coeffs.tobytes()


def test_curried_series_are_immutable_values():
    f = TruncatedSeries.from_terms(3, 1, 2, {(0, (1, 0, 1)): 1.5})
    c = ca.curry(f, 1)
    with pytest.raises(ValueError, match="curried shapes differ: cannot add"):
        c + ca.curry(f, 2)
    with pytest.raises(ValueError, match="curried shapes differ: cannot add"):
        c + f
    with pytest.raises(ValueError, match="curried factor must be a number, got str"):
        c.scale("2")
    with pytest.raises(AttributeError, match="CurriedSeries is immutable"):
        c.coeffs = np.zeros_like(c.coeffs)
    assert repr(c) == "CurriedSeries(C^1 x C^2 -> C^1, degree 2, 1 nonzero coefficients)"


@pytest.mark.parametrize(
    "args,term",
    [
        (["compose", "f.json", "g.json"], "(compose f g)"),
        (["compose", "f.json", "c.json", "--poly"], "(compose f c :poly)"),
        *((["curry", "h.json", "--split", str(k)], f"(curry h {k})") for k in range(1, 6)),
        (["diff", "h.json"], "(diff h)"),
        (["diff", "h.json", "--coord", "4"], "(diff h 4)"),
    ],
    ids=["compose", "compose-poly", *(f"curry-{k}" for k in range(1, 6)), "diff", "diff-coord"],
)
def test_series_commands_print_the_term_language_op(tmp_path, capsys, args, term):
    # compose, curry and diff are rows of the term language: each prints the
    # JSON of the op of its name on the same series
    rng = np.random.default_rng(6)
    env = {"h": normal_series(rng, 6, 1, 6), "f": normal_series(rng, 3, 1, 4)}
    env["c"] = normal_series(rng, 2, 3, 4)
    env["g"] = env["c"] - env["c"].homogeneous_part(0)
    for name, value in env.items():
        (tmp_path / f"{name}.json").write_text(value.to_json())
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    assert main(argv) == 0
    assert capsys.readouterr().out == dsl.evaluate_term(dsl.parse(term), env).to_json() + "\n"


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
