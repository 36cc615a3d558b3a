import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dillcalc import exponential as xp
from dillcalc import multiindex as mi
from dillcalc import series
from dillcalc.series import (
    SIZE_BUDGET,
    FiniteSpace,
    TruncatedSeries,
    _monomials_at,
)

from brute import (
    bp_add,
    bp_diff,
    bp_eval,
    bp_mul,
    bp_scale,
    from_series,
    graded_order,
    iter_indices,
    max_mismatch,
)

coeff_st = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@st.composite
def series_st(draw, dom=None, cod=None, max_deg=4):
    dom = dom if dom is not None else draw(st.integers(1, 3))
    cod = cod if cod is not None else draw(st.integers(1, 2))
    degree = draw(st.integers(0, max_deg))
    indices = list(iter_indices(dom, degree))
    terms = {}
    for out in range(cod):
        chosen = draw(st.lists(st.sampled_from(indices), max_size=5))
        for alpha in chosen:
            terms[(out, alpha)] = draw(coeff_st)
    return TruncatedSeries.from_terms(dom, cod, degree, terms)


@st.composite
def point_st(draw, dim):
    return np.array(
        [draw(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)) for _ in range(dim)]
    )


def test_from_terms_and_queries():
    f = TruncatedSeries.from_terms(2, 2, 3, {(0, (1, 1)): 2.0, (1, (0, 0)): 1j})
    assert f.coefficient(0, (1, 1)) == 2.0
    assert f.coefficient(1, (1, 1)) == 0.0
    np.testing.assert_array_equal(f.constant_term(), np.array([0.0, 1j]))
    assert f.domain == FiniteSpace(2)
    assert f.codomain.dim == 2
    assert "degree 3" in repr(f)


def test_from_terms_validation():
    with pytest.raises(ValueError, match="exceeds degree"):
        TruncatedSeries.from_terms(1, 1, 2, {(0, (3,)): 1.0})
    with pytest.raises(ValueError, match="dimension"):
        TruncatedSeries.from_terms(2, 1, 2, {(0, (1,)): 1.0})
    with pytest.raises(ValueError, match="component"):
        TruncatedSeries.from_terms(1, 1, 2, {(2, (1,)): 1.0})
    with pytest.raises(ValueError, match="empty space"):
        TruncatedSeries.zero(0, 1, 2)


_DIMENSION_TAKERS = {
    "FiniteSpace": FiniteSpace,
    "zero-domain": lambda dim: TruncatedSeries.zero(dim, 1, 2),
    "zero-codomain": lambda dim: TruncatedSeries.zero(1, dim, 2),
    "from_arrays": lambda dim: TruncatedSeries.from_arrays(dim, 1, 2, np.zeros((1, 3))),
    "from_terms": lambda dim: TruncatedSeries.from_terms(dim, 1, 2, {}),
    "Distribution": lambda dim: xp.Distribution(dim, 2, [1, 2, 3]),
}


@pytest.mark.parametrize("dim", [True, 1.0, "2"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("build", _DIMENSION_TAKERS.values(), ids=_DIMENSION_TAKERS.keys())
def test_dimension_must_be_an_integer(build, dim):
    # one dimension rule; a bool once built a space of dimension True, and a
    # float failed in math.comb with a TypeError
    message = f"^dimension must be an integer, got {re.escape(repr(dim))}$"
    with pytest.raises(ValueError, match=message):
        build(dim)


def test_zero_power_convention():
    # 0^0 = 1: evaluating at the origin returns the constant term
    f = TruncatedSeries.from_terms(2, 1, 2, {(0, (0, 0)): 5.0, (0, (1, 0)): 7.0})
    np.testing.assert_allclose(f.evaluate([0, 0]), [5.0])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluate_matches_brute(data):
    f = data.draw(series_st())
    x = data.draw(point_st(f.domain.dim))
    got = f.evaluate(x)
    want = [bp_eval(poly, x) for poly in from_series(f)]
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_evaluate_dim_check():
    f = TruncatedSeries.identity(2, 2)
    with pytest.raises(ValueError, match="dimension"):
        f.evaluate([1.0])
    with pytest.raises(ValueError, match=r"expected \(count, 2\)"):
        f.evaluate_many([1.0, 2.0])
    with pytest.raises(ValueError, match=r"expected \(count, 2\)"):
        f.evaluate_many(np.ones((3, 3)))


def _points(rng, count, dim):
    """Random complex points, about a third of their coordinates exactly 0,
    and signed zeros in the parts of the others."""
    pts = rng.uniform(-1.5, 1.5, (count, dim)) + 1j * rng.uniform(-1.5, 1.5, (count, dim))
    pts[rng.uniform(size=(count, dim)) < 0.3] = 0.0
    pts[0] = [complex(-0.5, -0.0)] * dim
    pts[1] = [complex(-0.0, 0.75)] * dim
    return pts


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_batched_monomials_match_plain_tuple_products(dim):
    rng = np.random.default_rng(dim)
    pts = _points(rng, 7, dim)
    for degree in range(7):
        got = _monomials_at(pts, dim, degree)
        assert got.shape == (7, mi.count_indices(dim, degree))
        for p, x in enumerate(pts.tolist()):
            want = []
            for alpha in graded_order(dim, degree):
                term = 1.0 + 0j
                for xi, e in zip(x, alpha):
                    term *= xi**e  # Python's 0 ** 0 is 1 as well
                want.append(term)
            np.testing.assert_allclose(got[p], want, rtol=1e-13, atol=0)
            # a zero coordinate gives exactly 0 wherever its exponent is positive
            zero = (np.array(graded_order(dim, degree))[:, np.array(x) == 0] > 0).any(axis=1)
            assert not got[p][zero].any()
            assert got[p][0] == 1.0


def _monomials_reference(x, dim, degree):
    """x^beta = x^(beta - e_j) * x_j, j the last nonzero coordinate of beta,
    with each parent found by its exponent tuple.  numpy rounds a complex
    product inside its vector loop differently from a scalar one, so each
    degree block is one array product, as in the kernel."""
    order = graded_order(dim, degree)
    position = {beta: p for p, beta in enumerate(order)}
    mono = np.ones(len(order), dtype=np.complex128)
    for k in range(1, degree + 1):
        block = [p for p, beta in enumerate(order) if sum(beta) == k]
        parents, coords = [], []
        for beta in (order[p] for p in block):
            j = max(i for i, e in enumerate(beta) if e)
            parents.append(position[beta[:j] + (beta[j] - 1,) + beta[j + 1 :]])
            coords.append(j)
        mono[block[0] : block[-1] + 1] = mono[parents] * x[coords]
    return mono


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_single_point_kernels_keep_their_bits(dim):
    rng = np.random.default_rng(10 + dim)
    for degree in range(7):
        f = TruncatedSeries.from_arrays(
            dim, 2, degree, rng.uniform(-1, 1, (2, mi.count_indices(dim, degree)))
        )
        degs = mi.degree_vector(dim, degree)
        for x in _points(rng, 6, dim):
            mono = _monomials_reference(x, dim, degree)
            assert _monomials_at(x, dim, degree).tobytes() == mono.tobytes()
            assert f.evaluate(x).tobytes() == (f.coeffs @ mono).tobytes()
            assert xp.dirac(x, degree).coeffs.tobytes() == mono.tobytes()
            for order in range(degree + 1):
                want = math.factorial(order) * mono * (degs == order)
                assert xp.theta(order, x, degree).coeffs.tobytes() == want.tobytes()


def test_evaluate_many_matches_evaluate_across_blocks(monkeypatch):
    rng = np.random.default_rng(3)
    f = TruncatedSeries.from_arrays(
        2, 3, 4, rng.uniform(-1, 1, (3, 15)) + 1j * rng.uniform(-1, 1, (3, 15))
    )
    pts = _points(rng, 11, 2)
    # two points per block: 15 monomials each
    monkeypatch.setattr(series, "_POINT_BLOCK", 30)
    got = f.evaluate_many(pts)
    assert got.shape == (11, 3)
    for row, x in zip(got, pts):
        np.testing.assert_allclose(row, f.evaluate(x), rtol=1e-14, atol=1e-15)
    assert f.evaluate_many(np.zeros((0, 2))).shape == (0, 3)


def test_size_budget_is_checked_before_allocating():
    # C(48, 8) = 377348994 coefficients; these once allocated gigabytes or ran
    # for minutes before failing
    dom, degree = 40, 8
    count = mi.count_indices(dom, degree)
    assert count > SIZE_BUDGET
    for build in (
        lambda: TruncatedSeries.from_terms(dom, 1, degree, {}),
        lambda: TruncatedSeries.zero(dom, 1, degree),
        lambda: xp.Distribution.zero(dom, degree),
        lambda: xp.dirac(np.zeros(dom), degree),
        lambda: xp.theta(1, np.zeros(dom), degree),
        lambda: xp.codereliction(np.zeros(dom), degree),
    ):
        with pytest.raises(ValueError, match=f"1 x {count} coefficients .* size budget"):
            build()
    # the budget counts every output row
    rows = SIZE_BUDGET // mi.count_indices(2, 3) + 1
    with pytest.raises(ValueError, match="size budget"):
        TruncatedSeries.from_terms(2, rows, 3, {})


def test_byte_budget_refuses_index_and_power_tables_before_building_them():
    # a dense product on C^15 at degree 8 pairs 48.9 M index pairs, and !g of
    # a C^8 -> C^8 series at degree 8 is a 12870 x 12870 power table
    assert series.BYTE_BUDGET == 2**8 * SIZE_BUDGET == 2**30
    g = TruncatedSeries.from_terms(8, 8, 8, {(0, (1,) + (0,) * 7): 1.0})
    for build, table in (
        (lambda: mi.convolution_table(15, 8), "a pair table of 48903492 pairs .* 1.46 GiB"),
        (lambda: mi.product_table(15, 8, 8, 8), "a pair table of 48903492 pairs .* 1.46 GiB"),
        (g.power_table, "the power table of 12870 x 12870 coefficients needs 2.47 GiB"),
    ):
        tracemalloc.start()
        with pytest.raises(ValueError, match=f"{table}, over the table budget of 1 GiB"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**20, table
    # 32 bytes a pair: C^14's 30.3 M pairs are under the budget
    assert 32 * mi.count_indices(28, 8) <= series.BYTE_BUDGET < 32 * mi.count_indices(30, 8)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_homogeneous_parts_matches_brute(data):
    f = data.draw(series_st())
    polys = from_series(f)
    for k in range(f.degree + 1):
        part = f.homogeneous_part(k)
        want = [
            {a: c for a, c in poly.items() if sum(a) == k} for poly in polys
        ]
        assert max_mismatch(part, want) == 0.0
    with pytest.raises(ValueError):
        f.homogeneous_part(f.degree + 1)


def test_truncate_is_prefix():
    f = TruncatedSeries.from_terms(2, 1, 3, {(0, (1, 0)): 1.0, (0, (2, 1)): 2.0})
    t = f.truncate(1)
    assert t.degree == 1
    assert t.coefficient(0, (1, 0)) == 1.0
    np.testing.assert_array_equal(t.coeffs, f.coeffs[:, : mi.count_indices(2, 1)])
    assert f.truncate(4) is f  # widening is a no-op
    with pytest.raises(ValueError):
        f.truncate(-1)


@pytest.mark.parametrize("value", [1.5, True, 1.0, "1", None])
@pytest.mark.parametrize(
    "read, message",
    [
        (lambda f, k: f.homogeneous_part(k), "homogeneous degree"),
        (lambda f, k: f.truncate(k), "truncation degree must be an integer"),
        (lambda f, k: xp.theta(k, [0.5, 2.0], 3), "extractor order"),
    ],
    ids=["homogeneous_part", "truncate", "theta"],
)
def test_degree_arguments_have_one_integer_rule(read, message, value):
    # homogeneous_part(1.5) once returned the zero series, homogeneous_part(True)
    # and theta(True, ...) the degree-1 part, and truncate(1.5) and theta(1.0, ...)
    # raised TypeError from math
    f = TruncatedSeries.from_terms(2, 1, 3, {(0, (1, 0)): 1.0, (0, (0, 1)): 2.0})
    with pytest.raises(ValueError, match=message):
        read(f, value)
    read(f, np.int64(1))  # a numpy integer is an integer


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_add_scale_match_brute(data):
    f = data.draw(series_st(dom=2, cod=1, max_deg=3))
    g = data.draw(series_st(dom=2, cod=1, max_deg=3))
    if f.degree != g.degree:
        lo = min(f.degree, g.degree)
        f, g = f.truncate(lo), g.truncate(lo)
    h = f + g
    want = [bp_add(from_series(f)[0], from_series(g)[0])]
    assert max_mismatch(h, want) < 1e-12
    s = 2.5j * f
    assert max_mismatch(s, [bp_scale(from_series(f)[0], 2.5j)]) < 1e-12
    d = f - g
    assert max_mismatch(d, [bp_add(from_series(f)[0], {k: -v for k, v in from_series(g)[0].items()})]) < 1e-12


def test_add_shape_mismatch():
    f = TruncatedSeries.zero(2, 1, 3)
    with pytest.raises(ValueError):
        f.add(TruncatedSeries.zero(2, 1, 2))
    with pytest.raises(ValueError):
        f.add(TruncatedSeries.zero(1, 1, 3))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pointwise_multiply_matches_brute(data):
    f = data.draw(series_st(dom=2, cod=1, max_deg=3))
    g = data.draw(series_st(dom=2, cod=1, max_deg=3))
    h = f.pointwise_multiply(g)
    assert h.degree == min(f.degree, g.degree)
    want = [bp_mul(from_series(f)[0], from_series(g)[0], h.degree)]
    assert max_mismatch(h, want) < 1e-9


def test_pointwise_multiply_needs_scalar_codomain():
    f = TruncatedSeries.identity(2, 2)
    with pytest.raises(ValueError, match="codomain"):
        f.pointwise_multiply(f)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_partial_derivative_matches_brute(data):
    f = data.draw(series_st(dom=2, cod=2, max_deg=4))
    if f.degree == 0:
        f = TruncatedSeries.from_arrays(2, 2, 0, f.coeffs)
        d = f.partial_derivative(0)
        assert d.degree == 0 and np.all(d.coeffs == 0)
        return
    for coord in range(2):
        d = f.partial_derivative(coord)
        assert d.degree == f.degree - 1
        want = [bp_diff(poly, coord) for poly in from_series(f)]
        assert max_mismatch(d, want) < 1e-9


def test_partial_derivative_checks_the_coordinate_at_every_degree():
    # at degree 0 a bad coordinate once returned a zero series
    for degree in (0, 1, 3):
        f = TruncatedSeries.from_terms(2, 1, degree, {(0, (0, 0)): 1.0})
        for coord in (2, 7, -1):
            with pytest.raises(ValueError, match=f"coordinate {coord} out of range for dimension 2"):
                f.partial_derivative(coord)


def test_coefficient_refuses_non_integral_exponents():
    # (1.9, 0.2) was once read through int() as (1, 0)
    f = TruncatedSeries.from_terms(2, 1, 3, {(0, (1, 0)): 2.0})
    for alpha in ((1.9, 0.2), (True, 0), ("1", 0)):
        with pytest.raises(ValueError, match="non-integer exponent"):
            f.coefficient(0, alpha)
    assert f.coefficient(0, (np.int64(1), np.int32(0))) == 2.0


def test_coefficient_refuses_a_multi_index_of_the_wrong_length():
    # (1,) and (1, 0, 0) were once both read as (1, 0)
    f = TruncatedSeries.from_terms(2, 1, 3, {(0, (1, 0)): 5.0})
    for alpha in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match=f"has dimension {len(alpha)}, expected 2"):
            f.coefficient(0, alpha)


def test_from_terms_refuses_non_integral_exponent_keys():
    # (1.5, 0) and (True, 1) were once stored at (1, 0) and (1, 1)
    for alpha in ((1.5, 0), (True, 1), (np.float64(2.0), 0)):
        with pytest.raises(ValueError, match=r"non-integer exponent .* in multi-index"):
            TruncatedSeries.from_terms(2, 1, 3, {(0, (1, 0)): 1.0, (0, alpha): 2.0})
    f = TruncatedSeries.from_terms(2, 1, 3, {(0, (np.int64(1), np.int32(1))): 2.0})
    assert f.coefficient(0, (1, 1)) == 2.0
    with pytest.raises(ValueError, match=f"multi-index \\({2**64}, 0\\) exceeds degree 3"):
        TruncatedSeries.from_terms(2, 1, 3, {(0, (2**64, 0)): 1.0})


def test_directional_derivative_linear_in_direction():
    f = TruncatedSeries.from_terms(2, 1, 3, {(0, (2, 1)): 1.0})
    x = np.array([0.3, -0.2 + 0.1j])
    v = np.array([1.0, 2.0])
    w = np.array([0.0, 1.0 - 1j])
    lhs = f.directional_derivative(x, v + w)
    rhs = f.directional_derivative(x, v) + f.directional_derivative(x, w)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    # d/dt (x1^2 x2) in direction (1,0) is 2 x1 x2
    np.testing.assert_allclose(
        f.directional_derivative(x, [1, 0]), [2 * x[0] * x[1]], atol=1e-12
    )


def test_identity_and_constant():
    ident = TruncatedSeries.identity(3, 2)
    x = np.array([1.0, 2.0, 3.0j])
    np.testing.assert_allclose(ident.evaluate(x), x)
    c = TruncatedSeries.constant([4.0, 5.0], 2, 3)
    np.testing.assert_allclose(c.evaluate([0.5, 0.5]), [4.0, 5.0])


def test_immutability():
    f = TruncatedSeries.identity(2, 2)
    with pytest.raises(AttributeError):
        f.degree = 5
    with pytest.raises(ValueError):
        f.coeffs[0, 0] = 1.0


def test_component():
    f = TruncatedSeries.from_terms(2, 2, 2, {(0, (1, 0)): 1.0, (1, (0, 1)): 2.0})
    c1 = f.component(1)
    assert c1.codomain.dim == 1
    assert c1.coefficient(0, (0, 1)) == 2.0
    with pytest.raises(ValueError):
        f.component(2)


@pytest.mark.parametrize(
    "read",
    [
        lambda f: f.coefficient(-1, (1, 0)),
        lambda f: f.coefficient(2, (1, 0)),
        lambda f: f.coefficient(True, (1, 0)),
        lambda f: f.coefficient(1.0, (1, 0)),
        lambda f: f.component(-1),
        lambda f: f.component(2),
        lambda f: f.component(True),
        lambda f: TruncatedSeries.from_terms(2, 2, 2, {(True, (1, 0)): 1.0}),
        lambda f: TruncatedSeries.from_terms(2, 2, 2, {(1.0, (1, 0)): 1.0}),
    ],
    ids=[
        "coefficient-negative", "coefficient-past-end", "coefficient-bool", "coefficient-float",
        "component-negative", "component-past-end", "component-bool",
        "from_terms-bool", "from_terms-float",
    ],
)
def test_output_component_has_one_rule(read):
    # coefficient(-1, ...) once read the last component, coefficient(2, ...)
    # raised IndexError and coefficient(True, ...) TypeError
    f = TruncatedSeries.from_terms(2, 2, 2, {(0, (1, 0)): 1.0, (1, (1, 0)): 2.0})
    with pytest.raises(ValueError, match="output component .* out of range"):
        read(f)


@pytest.mark.parametrize("degree", [2.7, True, "2", 2.0])
def test_degree_must_be_an_integer(degree):
    # int() would read each of these as a degree
    message = f"truncation degree must be an integer, got {degree!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        TruncatedSeries.zero(1, 1, degree)
    with pytest.raises(ValueError, match=re.escape(message)):
        xp.dirac([1.0], degree)
    assert TruncatedSeries.zero(1, 1, np.int64(2)).degree == 2


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_json_roundtrip_bit_exact(data):
    f = data.draw(series_st())
    back = TruncatedSeries.from_json(f.to_json())
    assert back.domain == f.domain and back.codomain == f.codomain
    assert back.degree == f.degree
    np.testing.assert_array_equal(back.coeffs, f.coeffs)


def test_json_format_shape():
    f = TruncatedSeries.from_terms(2, 1, 2, {(0, (1, 1)): 1 + 2j})
    data = json.loads(f.to_json())
    assert data == {
        "domain_dim": 2,
        "codomain_dim": 1,
        "degree": 2,
        "coeffs": [{"out": 0, "alpha": [1, 1], "re": 1.0, "im": 2.0}],
    }


def test_json_malformed():
    with pytest.raises(ValueError, match="malformed series JSON"):
        TruncatedSeries.from_json("{not json")
    with pytest.raises(ValueError, match="malformed series JSON"):
        TruncatedSeries.from_json(json.dumps({"domain_dim": 1}))
