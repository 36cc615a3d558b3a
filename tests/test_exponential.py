import functools
import json
import math
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dillcalc import exponential as xp
from dillcalc import laws
from dillcalc import multiindex as mi
from dillcalc.series import MAX_DEGREE, SIZE_BUDGET, TruncatedSeries
from test_laws import STRUCTURE_LAWS


def rand_vec(rng, dim, scale=0.7):
    return scale * (rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim))


def rand_series(rng, dom, cod, degree):
    n = mi.count_indices(dom, degree)
    coeffs = rng.uniform(-1, 1, (cod, n)) + 1j * rng.uniform(-1, 1, (cod, n))
    return TruncatedSeries.from_arrays(dom, cod, degree, coeffs)


# -- distributions -----------------------------------------------------------


def test_dirac_coeffs_are_monomials():
    d = xp.dirac([2.0], 3)
    np.testing.assert_allclose(d.coeffs, [1, 2, 4, 8])
    d2 = xp.dirac([1.0, 1j], 2)
    # order: (0,0) (1,0) (0,1) (2,0) (1,1) (0,2)
    np.testing.assert_allclose(d2.coeffs, [1, 1, 1j, 1, 1j, -1])


def test_dirac_apply_is_evaluation():
    rng = np.random.default_rng(3)
    f = rand_series(rng, 2, 3, 4)
    x = rand_vec(rng, 2)
    np.testing.assert_allclose(xp.dirac(x, 4).apply(f), f.evaluate(x), atol=1e-12)


def test_warm_dirac_peaks_below_four_outputs():
    # the power-position kernel gathered a count x dim table of coordinate
    # powers per point: 13 times the output at C^12, degree 6
    x = np.linspace(0.1, 1.2, 12) + 0.5j
    out = xp.dirac(x, 6).coeffs  # the index tables are cached, not counted
    assert out.size == 18564
    assert _peak_bytes(lambda: xp.dirac(x, 6)) < 4 * out.nbytes


def test_apply_truncates_to_common_degree():
    # a degree-2 distribution sees only the degree <= 2 coefficients
    f = TruncatedSeries.from_terms(1, 1, 4, {(0, (1,)): 1.0, (0, (4,)): 100.0})
    d = xp.dirac([1.0], 2)
    np.testing.assert_allclose(d.apply(f), [1.0])


def test_theta_frozen_example():
    f = TruncatedSeries.from_terms(1, 1, 2, {(0, (2,)): 3.0})
    np.testing.assert_allclose(xp.theta(2, [1.0], 2).apply(f), [6.0], atol=1e-14)


def test_theta_extracts_homogeneous_part():
    rng = np.random.default_rng(5)
    f = rand_series(rng, 3, 2, 4)
    x = rand_vec(rng, 3)
    for order in range(5):
        got = xp.theta(order, x, 4).apply(f)
        want = math.factorial(order) * f.homogeneous_part(order).evaluate(x)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_theta_order_out_of_range():
    with pytest.raises(ValueError, match="order"):
        xp.theta(3, [1.0], 2)
    with pytest.raises(ValueError, match="order"):
        xp.theta(-1, [1.0], 2)


def test_convolve_frozen_dirac_doubling():
    d = xp.convolve(xp.dirac([1.0], 3), xp.dirac([1.0], 3))
    np.testing.assert_allclose(d.coeffs, [1, 2, 4, 8], atol=1e-14)
    np.testing.assert_allclose(d.coeffs, xp.dirac([2.0], 3).coeffs, atol=1e-14)


def test_convolve_diracs_add_points():
    rng = np.random.default_rng(7)
    x, y = rand_vec(rng, 2), rand_vec(rng, 2)
    got = xp.convolve(xp.dirac(x, 3), xp.dirac(y, 3))
    np.testing.assert_allclose(got.coeffs, xp.dirac(x + y, 3).coeffs, atol=1e-12)


def test_convolve_extractor_basis():
    a = xp.Distribution.extractor((1, 0), 3)
    b = xp.Distribution.extractor((1, 1), 3)
    out = xp.convolve(a, b)
    # binom(1 + 1, 1) * binom(0 + 1, 0)
    want = xp.Distribution.extractor((2, 1), 3).scale(2)
    np.testing.assert_allclose(out.coeffs, want.coeffs)
    # overflow truncates to zero
    c = xp.Distribution.extractor((2, 1), 3)
    np.testing.assert_allclose(xp.convolve(c, b).coeffs, 0.0)


def test_convolution_unit():
    rng = np.random.default_rng(9)
    d = xp.Distribution(2, 3, rand_vec(rng, mi.count_indices(2, 3), scale=1.0))
    unit = xp.Distribution.extractor((0, 0), 3)
    np.testing.assert_allclose(xp.convolve(d, unit).coeffs, d.coeffs)


# dense operands on C^14 at degree 8, whose pair table (30 260 340 pairs,
# 0.90 GiB) the byte budget admits; all coefficients 1, so the results are
# exact integers: 2^|gamma| for the diracs at (1, ..., 1), and the number
# prod_i (gamma_i + 1) of ways to split gamma for the product
_C14_PRODUCTS = {
    "conv": (
        "d = xp.dirac(np.ones(14), 8)\n"
        "got = xp.convolve(d, d).coeffs\n"
        "want = 2.0 ** mi.degree_vector(14, 8)\n"
    ),
    "mul": (
        "f = TruncatedSeries.from_arrays(14, 1, 8, np.ones((1, mi.count_indices(14, 8))))\n"
        "got = f.pointwise_multiply(f).coeffs[0]\n"
        "want = np.prod(mi.exponent_matrix(14, 8) + 1, axis=1)\n"
    ),
}


@pytest.mark.parametrize("kind", sorted(_C14_PRODUCTS))
def test_dense_c14_products_fit_in_2_gib(kind):
    # forming every pair's product at once once took 1.5 GB of temporaries
    # beside the table and exited with a MemoryError under a 2 GiB limit
    program = (
        "import numpy as np\n"
        "from dillcalc import exponential as xp, multiindex as mi\n"
        "from dillcalc.series import TruncatedSeries\n"
        + _C14_PRODUCTS[kind]
        + "print(got.size, np.array_equal(got, want))\n"
    )
    limit = 2 * 2**30
    proc = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "319770 True\n")


def test_distribution_shape_checks():
    with pytest.raises(ValueError, match="length"):
        xp.Distribution(2, 2, np.ones(4))
    with pytest.raises(ValueError, match="empty space"):
        xp.Distribution(0, 2, np.ones(1))
    d = xp.dirac([1.0], 2)
    with pytest.raises(ValueError, match="cannot add"):
        d.add(xp.dirac([1.0], 3))
    with pytest.raises(ValueError, match="cannot convolve"):
        xp.convolve(d, xp.dirac([1.0, 2.0], 2))
    f = TruncatedSeries.identity(2, 2)
    with pytest.raises(ValueError, match="dimension"):
        d.apply(f)
    with pytest.raises(AttributeError):
        d.dim = 3


def test_adding_mixed_kinds_or_scaling_by_a_non_number_is_a_value_error():
    # series and distributions share one algebra: add takes a value of the
    # same class and shape, and scale a number
    f = TruncatedSeries.identity(1, 2)
    d = xp.dirac([2.0], 2)  # three coefficients, as many as the array below
    with pytest.raises(ValueError, match="series shapes differ: cannot add"):
        f + d
    with pytest.raises(ValueError, match="distribution shapes differ: cannot add"):
        d + f
    for bad in (
        lambda: d * np.array([1, 2, 3]),
        lambda: np.array([1, 2, 3]) * d,  # once an object array of three distributions
        lambda: f.scale(np.ones(3)),
        lambda: f * "x",
    ):
        with pytest.raises(ValueError, match="factor must be a number"):
            bad()


@pytest.mark.parametrize("kind", ["series", "distribution"])
def test_adding_an_array_or_a_number_is_a_value_error_in_either_order(kind):
    # an array on the left once raised numpy's "Concatenation operation is
    # not implemented" TypeError, and a number on the left a TypeError
    value = TruncatedSeries.identity(1, 2) if kind == "series" else xp.dirac([2.0], 2)
    for bad in (
        lambda: value + np.array([1, 2, 3]),
        lambda: np.array([1, 2, 3]) + value,
        lambda: value + 2,
        lambda: 2 + value,
    ):
        with pytest.raises(ValueError, match=f"{kind} shapes differ: cannot add"):
            bad()


def test_the_shared_algebra_computes_as_the_arrays_do():
    rng = np.random.default_rng(4)
    f, g = rand_series(rng, 2, 1, 3), rand_series(rng, 2, 1, 3)
    d = xp.Distribution(2, 3, rand_vec(rng, mi.count_indices(2, 3)))
    cases = [
        (3 * d, d.coeffs * 3),
        (f - g, f.coeffs + g.coeffs * -1.0),
        (f * g, f.pointwise_multiply(g).coeffs),
    ]
    for factor in (np.float64(0.5), np.complex128(1j), np.int64(3)):
        cases += [(factor * f, f.coeffs * factor), (d * factor, d.coeffs * factor)]
    for value, want in cases:
        assert type(value) in (TruncatedSeries, xp.Distribution)
        assert value.coeffs.tobytes() == want.tobytes()  # bit for bit, signed zeros too


def test_distribution_json_roundtrip():
    d = xp.Distribution(2, 2, [1.0, 0.0, 2.5 - 1j, 0.0, 0.0, 3.0])
    back = xp.Distribution.from_json_dict(json.loads(d.to_json()))
    np.testing.assert_array_equal(back.coeffs, d.coeffs)
    with pytest.raises(ValueError, match="malformed distribution JSON"):
        xp.Distribution.from_json_dict({"dim": 2})


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ([{"alpha": [1, 0], "re": 1.0}, {"alpha": [1, 0], "re": 2.0}], "repeated entry"),
        ([{"alpha": [1, 0], "re": float("nan")}], "non-finite"),
        ([{"alpha": [1, 0], "im": float("inf")}], "non-finite"),
        ([{"alpha": [1, 0, 0], "re": 1.0}], r"multi-index \(1, 0, 0\) has dimension 3, expected 2"),
        ([{"alpha": [1], "re": 1.0}], r"multi-index \(1,\) has dimension 1, expected 2"),
        ([{"alpha": [2, 1], "re": 1.0}], r"multi-index \(2, 1\) exceeds degree 2"),
        ([{"alpha": [-1, 1], "re": 1.0}], r"negative exponent in multi-index \(-1, 1\)"),
        ([{"alpha": [2**70, 0], "re": 1.0}], rf"multi-index \({2**70}, 0\) exceeds degree 2"),
        ([{"alpha": [float("inf"), 0]}], "not a list of integers"),
        ([{"alpha": 5}], "alpha must be a list"),
        ([5], "is not an object"),
        (5, "coeffs must be a list"),
        ([{"alpha": [1.5, 0], "re": 1.0}], "not a list of integers"),
        ([{"alpha": ["0", "1"], "re": 1.0}], "not a list of integers"),
        ([{"alpha": [True, 0], "re": 1.0}], "not a list of integers"),
        ([{"alpha": [1, 0], "re": "2"}], "is not a number"),
        ([{"alpha": [1, 0], "im": False}], "is not a number"),
    ],
    ids=[
        "repeated", "nan", "inf", "long-alpha", "short-alpha", "over-degree", "negative",
        "past-int64", "infinite-exponent", "alpha-not-a-list", "item-not-an-object",
        "coeffs-not-a-list", "fractional-exponent", "string-exponent", "bool-exponent",
        "string-re", "bool-im",
    ],
)
def test_distribution_json_malformed_entries(coeffs, message):
    with pytest.raises(ValueError, match=message):
        xp.Distribution.from_json_dict({"dim": 2, "degree": 2, "coeffs": coeffs})


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"alpha": [1, 0, 0]}, "multi-index (1, 0, 0) has dimension 3, expected 2"),
        ({"alpha": [-1, 1]}, "negative exponent in multi-index (-1, 1)"),
        ({"alpha": [2, 1]}, "multi-index (2, 1) exceeds degree 2"),
        ({"alpha": [2**70, 0]}, f"multi-index ({2**70}, 0) exceeds degree 2"),
        ({"out": 1, "alpha": [1, 0]}, "output component 1 out of range"),
    ],
    ids=["long-alpha", "negative", "over-degree", "past-int64", "component"],
)
def test_series_and_distribution_json_share_one_key_rule(entry, message):
    # the distribution loader once had its own key checks, in its own words,
    # and read an item's out as if it were absent
    item = dict(entry, re=1.0)
    for load, header in [
        (TruncatedSeries.from_json_dict, {"domain_dim": 2, "codomain_dim": 1}),
        (xp.Distribution.from_json_dict, {"dim": 2}),
    ]:
        with pytest.raises(ValueError) as info:
            load(dict(header, degree=2, coeffs=[{"alpha": [0, 1]}, item]))
        assert str(info.value) == message


@pytest.mark.parametrize(
    "data, message",
    [
        (
            {"dim": 2, "degree": 2, "coeffs": [{"out": 5, "alpha": [1, 0], "re": 1.0}]},
            "output component 5 out of range",
        ),
        # the 67 GiB coefficient vector was once allocated before the cap was checked
        (
            {"dim": 3, "degree": 3000, "coeffs": []},
            f"truncation degree 3000 exceeds the global cap {MAX_DEGREE}",
        ),
    ],
    ids=["out-not-zero", "degree-over-cap"],
)
def test_distribution_json_refused(data, message):
    with pytest.raises(ValueError) as info:
        xp.Distribution.from_json_dict(data)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "header, message",
    [
        ({"dim": 2.7, "degree": 2}, "dim must be an integer, got 2.7"),
        ({"dim": True, "degree": 2}, "dim must be an integer, got True"),
        ({"dim": 2, "degree": "2"}, "degree must be an integer, got '2'"),
    ],
    ids=["fractional-dim", "bool-dim", "string-degree"],
)
def test_distribution_json_header_must_be_integers(header, message):
    with pytest.raises(ValueError, match=f"malformed distribution JSON: {message}"):
        xp.Distribution.from_json_dict(dict(header, coeffs=[]))


@pytest.mark.parametrize(
    "data, message",
    [
        ([1], "top level must be an object, got list"),
        (None, "top level must be an object, got null"),
        ("dim", "top level must be an object, got string"),
        (2, "top level must be an object, got number"),
        ({"degree": 2}, "missing key 'dim'"),
        ({"dim": 2}, "missing key 'degree'"),
    ],
    ids=["list", "null", "string", "number", "no-dim", "no-degree"],
)
def test_distribution_json_top_level_shape(data, message):
    # these once read as Python's own words: list indices must be integers,
    # 'NoneType' object is not subscriptable, or the bare key 'dim'
    with pytest.raises(ValueError) as info:
        xp.Distribution.from_json_dict(data)
    assert str(info.value) == f"malformed distribution JSON: {message}"


def test_series_and_distribution_json_share_one_shape_rule():
    for load, kind, first in [
        (TruncatedSeries.from_json_dict, "series", "domain_dim"),
        (xp.Distribution.from_json_dict, "distribution", "dim"),
    ]:
        for data, message in [
            ([], "top level must be an object, got list"),
            ({}, f"missing key {first!r}"),
        ]:
            with pytest.raises(ValueError) as info:
                load(data)
            assert str(info.value) == f"malformed {kind} JSON: {message}"


def test_extractor_and_coefficient_refuse_non_integral_exponents():
    # extractor((1.5, 0), 3) once returned eps_(1,0)
    d = xp.codereliction(np.array([2.0, -1j]), 3)
    for alpha in ((1.5, 0), (1.9, 0.2), (True, 0), ("1", 0)):
        with pytest.raises(ValueError, match="non-integer exponent"):
            xp.Distribution.extractor(alpha, 3)
        with pytest.raises(ValueError, match="non-integer exponent"):
            d.coefficient(alpha)
    np.testing.assert_array_equal(
        xp.Distribution.extractor((np.int64(1), 0), 3).coeffs, xp.Distribution.extractor((1, 0), 3).coeffs
    )


def test_coefficient_refuses_a_multi_index_of_the_wrong_length():
    # (0, 0, 1) on a dimension-2 distribution once read position 2, eps_(0,1)
    d = xp.codereliction(np.array([2.0, -1j]), 3)
    for alpha in ((0, 0, 1), (1,)):
        with pytest.raises(ValueError, match=rf"has dimension {len(alpha)}, expected 2"):
            d.coefficient(alpha)


def test_codereliction_is_first_extractor():
    v = np.array([2.0, -1j])
    d = xp.codereliction(v, 3)
    assert d.coefficient((1, 0)) == 2.0
    assert d.coefficient((0, 1)) == -1j
    assert d.coefficient((0, 0)) == 0.0
    assert d.coefficient((2, 0)) == 0.0
    with pytest.raises(ValueError, match="degree at least 1"):
        xp.codereliction(v, 0)


def test_codereliction_is_derivative_at_zero():
    rng = np.random.default_rng(13)
    f = rand_series(rng, 2, 2, 3)
    v = rand_vec(rng, 2)
    got = xp.codereliction(v, 3).apply(f)
    want = f.directional_derivative(np.zeros(2), v)
    np.testing.assert_allclose(got, want, atol=1e-12)


_WIDE_UNITS = """
import numpy as np
from dillcalc import exponential as xp
v = np.zeros(30000)
v[-1] = 3.0
d = xp.codereliction(v, 1)
assert d.coeffs.size == 30001 and d.coeffs[30000] == 3.0 and np.count_nonzero(d.coeffs) == 1
assert xp.counit(30000, 1)(d)[-1] == 3.0
"""


def test_wide_unit_indices_need_no_square_table():
    # 30001 entries are under the size budget; the unit positions once came
    # from a dim x dim identity, 7.2 GB at this dimension
    limit = 2 * 2**30
    proc = subprocess.run(
        [sys.executable, "-c", _WIDE_UNITS],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")


# -- operators ---------------------------------------------------------------


def test_operator_shapes_and_compose():
    dist = xp.DistBasis(2, 2)
    vec = xp.VectorBasis(2)
    assert dist.size == 6 and vec.size == 2
    op = xp.counit(2, 2)
    assert op.source == dist and op.target == vec
    ident = xp.LinearOperator.identity(dist)
    same = op @ ident
    np.testing.assert_array_equal(same.matrix, op.matrix)
    with pytest.raises(ValueError, match="mismatch"):
        ident @ op
    with pytest.raises(ValueError, match="shape"):
        xp.LinearOperator(dist, vec, np.ones((3, 3)))
    with pytest.raises(AttributeError):
        op.matrix = None


def test_operator_call_wraps_distributions():
    op = xp.counit(2, 3)
    x = np.array([0.5, -0.25])
    out = op(xp.dirac(x, 3))
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, x, atol=1e-14)
    with pytest.raises(ValueError, match="source basis"):
        op(xp.dirac([1.0], 3))
    with pytest.raises(ValueError, match="length"):
        op(np.ones(3))


def test_counit_on_dirac_returns_point():
    rng = np.random.default_rng(17)
    x = rand_vec(rng, 3)
    np.testing.assert_allclose(xp.counit(3, 4)(xp.dirac(x, 4)), x, atol=1e-13)
    # degree 0 has no unit extractors to keep
    z = xp.counit(1, 0)(xp.Distribution.extractor((0,), 0))
    np.testing.assert_array_equal(z, [0.0])


def test_comultiplication_on_dirac_is_dirac_of_dirac():
    # rows whose level-two image stays under the degree budget agree with the
    # untruncated delta_(delta_x); rows over budget are zero
    rng = np.random.default_rng(19)
    for dim, degree in ((1, 3), (2, 2)):
        x = rand_vec(rng, dim)
        inner = xp.dirac(x, degree)
        got = xp.comultiplication(dim, degree)(inner)
        n1 = mi.count_indices(dim, degree)
        want = xp.dirac(inner.coeffs, degree)
        weights = mi.exponent_matrix(n1, degree) @ mi.degree_vector(dim, degree)
        for pos in range(mi.count_indices(n1, degree)):
            if weights[pos] <= degree:
                assert got.coeffs[pos] == pytest.approx(want.coeffs[pos], abs=1e-12)
            else:
                assert got.coeffs[pos] == 0.0


def test_comultiplication_on_unit_extractor():
    # eps_0 is delta_0, so digging gives delta_(delta_0): every power of the
    # extractor at the zero index, nothing else
    rho = xp.comultiplication(1, 3)
    out = rho(xp.Distribution.extractor((0,), 3))
    n1 = mi.count_indices(1, 3)
    pos = mi.index_positions(n1, 3)
    want = np.zeros(mi.count_indices(n1, 3), dtype=complex)
    for k in range(4):
        key = (k,) + (0,) * (n1 - 1)
        want[pos[key]] = 1.0
    np.testing.assert_array_equal(out.coeffs, want)


def test_comultiplication_size_gate():
    # the outer exponent table has n_inner x n_outer entries: 21 x 65 780 at
    # (2,5) fits the size budget, 28 x 1 344 904 at (2,6) does not
    with pytest.raises(ValueError, match=f"28 x 1344904 .* size budget of {SIZE_BUDGET}"):
        xp.comultiplication(2, 6)
    rho = xp.comultiplication(2, 5)
    assert (rho.source.size, rho.target.size) == (21, 65780)


def test_contraction_on_dirac_splits():
    dim, degree = 2, 2
    rng = np.random.default_rng(23)
    x = rand_vec(rng, dim)
    d = xp.dirac(x, degree)
    out = xp.contraction(dim, degree)(np.asarray(d.coeffs))
    n = mi.count_indices(dim, degree)
    idx = mi.enumerate_indices(dim, degree)
    full = np.kron(d.coeffs, d.coeffs)
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            if sum(a) + sum(b) <= degree:
                assert out[i * n + j] == pytest.approx(full[i * n + j], abs=1e-12)


def test_weakening_evaluates_at_constant():
    d = xp.dirac([0.7, 0.2], 3)
    np.testing.assert_allclose(xp.weakening(2, 3)(d), [1.0])


def test_cocontraction_is_convolution():
    rng = np.random.default_rng(29)
    n = mi.count_indices(2, 3)
    d1 = xp.Distribution(2, 3, rand_vec(rng, n, 1.0))
    d2 = xp.Distribution(2, 3, rand_vec(rng, n, 1.0))
    out = xp.cocontraction(2, 3)(np.kron(d1.coeffs, d2.coeffs))
    np.testing.assert_allclose(out.coeffs, xp.convolve(d1, d2).coeffs, atol=1e-12)


def test_coweakening_unit():
    out = xp.coweakening(2, 3)(np.array([1.0]))
    np.testing.assert_array_equal(out.coeffs, xp.Distribution.extractor((0, 0), 3).coeffs)


def test_monoidal_product_pairs_diracs():
    rng = np.random.default_rng(31)
    x, y = rand_vec(rng, 1), rand_vec(rng, 2)
    dx, dy = xp.dirac(x, 3), xp.dirac(y, 3)
    m2 = xp.monoidal_product(1, 2, 3)
    got = m2(np.kron(dx.coeffs, dy.coeffs))
    np.testing.assert_allclose(got.coeffs, xp.dirac(np.concatenate([x, y]), 3).coeffs, atol=1e-12)
    back = xp.monoidal_product_inverse(1, 2, 3)(got)
    # splitting recovers the marginal pair on every product index
    np.testing.assert_allclose(
        (m2 @ xp.monoidal_product_inverse(1, 2, 3)).matrix, np.eye(m2.target.size), atol=1e-14
    )
    assert back.size == dx.coeffs.size * dy.coeffs.size


def test_swap_operator_involution():
    b1, b2 = xp.DistBasis(1, 2), xp.DistBasis(2, 1)
    s = xp.swap_operator(b1, b2)
    s_back = xp.swap_operator(b2, b1)
    np.testing.assert_array_equal((s_back @ s).matrix, np.eye(b1.size * b2.size))


def test_swap_targets_and_slots():
    # a whole pair is swapped, any other target is the plain C^k of its size
    b1, b2 = xp.DistBasis(1, 2), xp.VectorBasis(2)
    pair = xp.LinearOperator.identity(xp.TensorBasis(b1, b2))
    assert pair.swap(3, 2).target == xp.TensorBasis(b2, b1)
    assert pair.swap(2, 3).target == xp.VectorBasis(6)
    assert pair.swap(3, 1, after=2).target == xp.VectorBasis(6)
    assert pair.swap(3, 2).source == pair.source
    with pytest.raises(ValueError, match="no slots of sizes 2, 2"):
        pair.swap(2, 2)


def _random_operator(rng, source, target, entry_built):
    """A random operator with small Gaussian-integer entries, about half of
    them zero, built from its dense matrix or from its nonzero entries.
    Integer entries make every sum exact, so results compare bit for bit."""
    shape = (target.size, source.size)
    mat = rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)
    mat[rng.random(mat.shape) < 0.5] = 0.0
    if not entry_built:
        return xp.LinearOperator(source, target, mat)
    rows, cols = np.nonzero(mat)
    return xp.LinearOperator.from_entries(source, target, rows, cols, mat[rows, cols])


def _repeated_product(rng, source, target):
    """An entry-built product in which every (row, col) pair is the sum of
    two products, stored once."""

    def full(source, target):
        rows, cols = np.divmod(np.arange(target.size * source.size), source.size)
        vals = rng.integers(1, 4, rows.size) + 1j * rng.integers(-3, 4, rows.size)
        return xp.LinearOperator.from_entries(source, target, rows, cols, vals)

    middle = xp.VectorBasis(2)
    op = full(middle, target) @ full(source, middle)
    rows, cols, _ = op.entries()
    assert rows.size == len(set(zip(rows.tolist(), cols.tolist())))
    return op


FORMS = ["dense", "entries", "repeated"]


def _operator_in_form(rng, source, target, form):
    if form == "repeated":
        return _repeated_product(rng, source, target)
    return _random_operator(rng, source, target, form == "entries")


@pytest.mark.parametrize("before, after", [(1, 1), (2, 1), (1, 3), (3, 2)])
@pytest.mark.parametrize("a_form", FORMS)
@pytest.mark.parametrize("x_form", FORMS)
def test_act_matches_the_kron_oracle(before, after, a_form, x_form):
    rng = np.random.default_rng([before, after, FORMS.index(a_form), FORMS.index(x_form)])
    v = xp.VectorBasis
    a = _operator_in_form(rng, v(2), v(3), a_form)
    slots = xp.TensorBasis(xp.TensorBasis(v(before), v(2)), v(after))
    x = _operator_in_form(rng, v(4), slots, x_form)
    want = np.kron(np.kron(np.eye(before), a.matrix), np.eye(after)) @ x.matrix
    got = a.act(x, after=after)
    assert got.source == x.source and got.target.size == before * 3 * after
    np.testing.assert_array_equal(got.matrix, want)


@pytest.mark.parametrize("a_form", FORMS)
@pytest.mark.parametrize("b_form", FORMS)
def test_product_difference_and_transpose_match_dense(a_form, b_form):
    rng = np.random.default_rng([FORMS.index(a_form), FORMS.index(b_form)])
    v = xp.VectorBasis
    a = _operator_in_form(rng, v(3), v(4), a_form)
    b = _operator_in_form(rng, v(2), v(3), b_form)
    c = _operator_in_form(rng, v(3), v(4), b_form)
    product = a @ b
    assert (product.source, product.target) == (v(2), v(4))
    np.testing.assert_array_equal(product.matrix, a.matrix @ b.matrix)
    np.testing.assert_array_equal((a - c).matrix, a.matrix - c.matrix)
    assert (a.T.source, a.T.target) == (v(4), v(3))
    np.testing.assert_array_equal(a.T.matrix, a.matrix.T)
    np.testing.assert_array_equal(a.T.T.matrix, a.matrix)


def _assert_stored_merged(op):
    rows, cols, vals = op.entries()
    assert np.all(np.diff(rows * op.source.size + cols) > 0)
    assert np.all(vals != 0)
    assert not any(arr.flags.writeable for arr in (rows, cols, vals))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(FORMS),
    st.sampled_from(FORMS),
    st.tuples(*[st.integers(1, 3)] * 5),
)
def test_every_operator_result_is_stored_merged(seed, a_form, x_form, sizes):
    # act, @, .T, swap and - of dense, entry-built and repeated-pair operands
    # store merged entries that equal the dense oracle bit for bit
    rng = np.random.default_rng(seed)
    s, t, before, after, k = sizes
    v = xp.VectorBasis
    a = _operator_in_form(rng, v(s), v(t), a_form)
    c = _operator_in_form(rng, v(s), v(t), x_form)
    b = _operator_in_form(rng, v(k), v(s), x_form)
    x = _operator_in_form(rng, v(k), v(before * s * after), x_form)
    y = _operator_in_form(rng, v(k), v(before * s * t * after), x_form)
    swapped = y.matrix.reshape(before, s, t, after, k).transpose(0, 2, 1, 3, 4).reshape(-1, k)
    for got, want in (
        (a.act(x, after=after), np.kron(np.kron(np.eye(before), a.matrix), np.eye(after)) @ x.matrix),
        (a @ b, a.matrix @ b.matrix),
        (a.T, a.matrix.T),
        (y.swap(s, t, after=after), swapped),
        (a - c, a.matrix - c.matrix),
    ):
        _assert_stored_merged(got)
        np.testing.assert_array_equal(got.matrix, want)


def test_dense_product_stays_dense():
    rng = np.random.default_rng(5)
    v = xp.VectorBasis
    a = _random_operator(rng, v(3), v(4), False)
    b = _random_operator(rng, v(2), v(3), False)
    assert (a @ b)._entries is None
    assert (a @ _random_operator(rng, v(2), v(3), True))._entries is not None


@pytest.mark.parametrize("form", FORMS)
def test_difference_that_cancels_has_no_entries(form):
    rng = np.random.default_rng(FORMS.index(form))
    x = _operator_in_form(rng, xp.VectorBasis(2), xp.VectorBasis(3), form)
    diff = x - x
    rows, cols, vals = diff.entries()
    assert rows.size == cols.size == vals.size == 0
    np.testing.assert_array_equal(diff.matrix, np.zeros((3, 2)))


def test_repeated_pairs_merge_once_when_read():
    rng = np.random.default_rng(11)
    op = _repeated_product(rng, xp.VectorBasis(3), xp.VectorBasis(4))
    rows, cols, vals = op.entries()
    assert op.entries() is op._entries and op.entries()[0] is rows
    assert np.all(np.diff(rows * 3 + cols) > 0) and np.all(vals != 0)
    assert not any(arr.flags.writeable for arr in (rows, cols, vals))
    assert op.matrix[rows, cols].tolist() == vals.tolist()


def test_operator_algebra_checks_shapes():
    dist = xp.DistBasis(2, 2)
    delta = xp.contraction(2, 2)
    with pytest.raises(ValueError, match="not a slot"):
        xp.counit(2, 2).act(delta, after=5)
    with pytest.raises(ValueError, match="not a slot"):
        xp.counit(1, 4).act(delta)
    with pytest.raises(ValueError, match="shapes differ"):
        delta - xp.cocontraction(2, 2)
    assert delta.act(xp.LinearOperator.identity(dist)).target == delta.target
    # slot actions give plain coordinate targets, which differences accept
    assoc = delta.act(delta, after=dist.size) - delta.act(delta)
    assert assoc.target == xp.VectorBasis(dist.size**3) and assoc.entries()[0].size == 0
    unit = xp.weakening(2, 2).act(delta) - xp.LinearOperator.identity(dist)
    assert unit.entries()[0].size == 0
    assert xp.LinearOperator.identity(xp.VectorBasis(3)).entries()[2].tolist() == [1, 1, 1]


def test_entry_keys_refuse_shapes_past_int64():
    # entries merge on the int64 key row * n_cols + col; an act onto 2**80
    # rows used to wrap and return no entries and no error
    v = xp.VectorBasis
    tall = xp.LinearOperator.from_entries(v(1), v(2**40), [2**40 - 1], [0], [1])
    with pytest.raises(ValueError, match=rf"\({2**80}, 1\) .* past the int64 entry keys"):
        tall.act(tall)
    with pytest.raises(ValueError, match="past the int64 entry keys"):
        xp.LinearOperator.from_entries(v(2**32), v(2**32), [0], [0], [1])
    # the largest shape whose keys fit: the last entry's key is 2**63 - 1
    edge = xp.LinearOperator.from_entries(v(2**31), v(2**32), [2**32 - 1], [2**31 - 1], [1])
    assert edge.entries()[0].tolist() == [2**32 - 1]


@pytest.mark.parametrize(
    "dual, primal",
    [
        (xp.coweakening, xp.weakening),
        (xp.codereliction_operator, xp.counit),
        (lambda d, deg: xp.monoidal_product_inverse(d, 2, deg),
         lambda d, deg: xp.monoidal_product(d, 2, deg)),
    ],
    ids=["coweakening", "codereliction", "monoidal-inverse"],
)
def test_dual_maps_are_transposes_entry_for_entry(dual, primal):
    for dim in (1, 2, 3):
        for deg in (1, 2, 4):
            d, p = dual(dim, deg), primal(dim, deg)
            assert (d.source, d.target) == (p.target, p.source)
            p_rows, p_cols, p_vals = p.entries()
            order = np.lexsort((p_rows, p_cols))  # row-major in the transpose
            rows, cols, vals = d.entries()
            np.testing.assert_array_equal(rows, p_cols[order])
            np.testing.assert_array_equal(cols, p_rows[order])
            np.testing.assert_array_equal(vals, p_vals[order])


def _entry_built_maps():
    """Every structure map built from its entries at dims 1-3, degrees 0-4
    (digging where its size bound admits it), plus swaps of small bases."""
    cases = []
    for dim in (1, 2, 3):
        for deg in range(5):
            for fn in (xp.counit, xp.weakening, xp.coweakening, xp.contraction, xp.cocontraction):
                cases.append(functools.partial(fn, dim, deg))
            if deg >= 1:
                cases.append(functools.partial(xp.codereliction_operator, dim, deg))
            for dim_f in (1, 2, 3):
                cases.append(functools.partial(xp.monoidal_product, dim, dim_f, deg))
                cases.append(functools.partial(xp.monoidal_product_inverse, dim, dim_f, deg))
            if mi.count_indices(mi.count_indices(dim, deg), deg) <= laws._LEVEL_TWO_LAW_SIZE:
                cases.append(functools.partial(xp.comultiplication, dim, deg))
    bases = [xp.VectorBasis(1), xp.VectorBasis(3), xp.DistBasis(2, 2), xp.DistBasis(1, 3)]
    for left in bases:
        for right in bases:
            cases.append(functools.partial(xp.swap_operator, left, right))
    return cases


def test_entry_built_maps_match_their_dense_matrix():
    rng = np.random.default_rng(59)
    for build in _entry_built_maps():
        op = build()
        rows, cols, vals = op.entries()
        assert not any(a.flags.writeable for a in (rows, cols, vals)), build
        assert np.all(vals != 0), build
        order = np.lexsort((cols, rows))
        vec = rand_vec(rng, op.source.size)
        applied = op(vec)  # read from the entries, before anything densifies them
        mat = op.matrix
        applied = getattr(applied, "coeffs", applied)
        np.testing.assert_allclose(applied, mat @ vec, rtol=0, atol=1e-12)
        nz_rows, nz_cols = np.nonzero(mat)
        np.testing.assert_array_equal(rows[order], nz_rows)
        np.testing.assert_array_equal(cols[order], nz_cols)
        np.testing.assert_array_equal(vals[order], mat[nz_rows, nz_cols])
        assert mat.dtype == np.complex128
        assert mat.shape == (op.target.size, op.source.size)
        assert not mat.flags.writeable


def test_dense_operator_entries_and_copy():
    mat = np.array([[0.0, 2.0], [3.0j, 0.0]])
    op = xp.LinearOperator(xp.VectorBasis(2), xp.VectorBasis(2), mat)
    mat[0, 1] = 5.0
    assert op.matrix[0, 1] == 2.0 and not op.matrix.flags.writeable
    rows, cols, vals = op.entries()
    assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0]
    assert vals.tolist() == [2.0, 3.0j]


def test_from_entries_drops_zeros_and_validates():
    v2, v3 = xp.VectorBasis(2), xp.VectorBasis(3)
    op = xp.LinearOperator.from_entries(v2, v3, [2, 0, 1], [1, 0, 1], [4.0, 0.0, 1j])
    rows, cols, vals = op.entries()
    assert (rows.tolist(), cols.tolist(), vals.tolist()) == ([1, 2], [1, 1], [1j, 4.0])
    np.testing.assert_array_equal(op.matrix, [[0, 0], [0, 1j], [0, 4]])
    with pytest.raises(ValueError, match="repeated"):
        xp.LinearOperator.from_entries(v2, v3, [1, 1], [0, 0], [1.0, 2.0])
    with pytest.raises(ValueError, match="outside the shape"):
        xp.LinearOperator.from_entries(v2, v3, [3], [0], [1.0])
    with pytest.raises(ValueError, match="outside the shape"):
        xp.LinearOperator.from_entries(v2, v3, [0], [-1], [1.0])
    with pytest.raises(ValueError, match="lengths"):
        xp.LinearOperator.from_entries(v2, v3, [0, 1], [0], [1.0])
    with pytest.raises(AttributeError):
        op.matrix = np.zeros((3, 2))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# one dense contraction at dim 3, degree 6: 84^2 x 84 complex entries
DENSE_DELTA_3_6 = 84 * 84 * 84 * 16


def test_structure_laws_stay_below_one_dense_map():
    cfg = laws.LawConfig(dim=3, degree=6)
    laws.run_suite(cfg, STRUCTURE_LAWS)  # index tables are cached, not counted
    assert _peak_bytes(lambda: laws.run_suite(cfg, STRUCTURE_LAWS)) < DENSE_DELTA_3_6


def test_cocontraction_law_stays_below_one_dense_map():
    # applying nabla once went through its dense 84 x 7056 matrix
    cfg = laws.LawConfig(dim=3, degree=6)
    laws.run_law("cocontraction-matches-convolve", cfg)
    peak = _peak_bytes(lambda: laws.run_law("cocontraction-matches-convolve", cfg))
    assert peak < DENSE_DELTA_3_6


def test_contraction_at_4_8_is_not_densified():
    # dense, either map would hold 495^2 x 495 complex entries, 1.9 GB
    sizes = []

    def build():
        for fn in (xp.contraction, xp.cocontraction):
            sizes.append(fn(4, 8).entries()[0].size)

    assert _peak_bytes(build) < DENSE_DELTA_3_6 // 2
    assert sizes == [12870, 12870]


def test_product_of_structure_maps_at_4_8_is_not_densified():
    # nabla . Delta sends eps_gamma to 2^|gamma| eps_gamma; dense, Delta alone
    # would hold 495^2 x 495 complex entries
    entries = []

    def build():
        entries.append((xp.cocontraction(4, 8) @ xp.contraction(4, 8)).entries())

    assert _peak_bytes(build) < DENSE_DELTA_3_6 // 2
    rows, cols, vals = entries[0]
    np.testing.assert_array_equal(rows, np.arange(495))
    np.testing.assert_array_equal(cols, np.arange(495))
    np.testing.assert_array_equal(vals, 2.0 ** mi.degree_vector(4, 8))


# -- promotion and adjunction ------------------------------------------------


def test_bang_frozen_scaling_example():
    f = TruncatedSeries.from_terms(1, 1, 2, {(0, (1,)): 2.0})
    b = xp.bang_map(f, 2)
    np.testing.assert_allclose(b.matrix, np.diag([1.0, 2.0, 4.0]), atol=1e-14)


def test_bang_linear_sends_dirac_to_dirac():
    rng = np.random.default_rng(37)
    mat = rng.uniform(-1, 1, (2, 3)) + 1j * rng.uniform(-1, 1, (2, 3))
    op = xp.bang_linear(mat, 3)
    x = rand_vec(rng, 3)
    got = op(xp.dirac(x, 3))
    np.testing.assert_allclose(got.coeffs, xp.dirac(mat @ x, 3).coeffs, atol=1e-11)


def test_bang_linear_at_degree_0_is_the_identity():
    # a linear map has no constant term, so below degree 1 nothing of it is left
    op = xp.bang_linear(np.array([[2.0, 3.0]]), 0)
    assert (op.source, op.target) == (xp.DistBasis(2, 0), xp.DistBasis(1, 0))
    np.testing.assert_array_equal(op.matrix, [[1.0]])


_WIDE_BANG_LINEAR = """
import numpy as np
from dillcalc import exponential as xp
from dillcalc import multiindex as mi
op = xp.bang_linear(np.ones((1, 30000)), 1)
assert op.matrix.shape == (2, 30001), op.matrix.shape
row_0, row_1 = op.matrix
assert row_0.tolist() == [1] + [0] * 30000 and row_1.tolist() == [0] + [1] * 30000
assert len(mi.product_table(30000, 1)[0]) == 60001
"""


def test_wide_bang_linear_reads_no_exponent_table_of_its_degree():
    # a 1 x 30000 matrix at degree 1 is a 2 x 30001 operator; the pair tables
    # behind its power table once unranked a 30001 x 30000 exponent table
    limit = 2 * 2**30
    proc = subprocess.run(
        [sys.executable, "-c", _WIDE_BANG_LINEAR],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def full_sort_power_table(g):
    """The power table built by sorting the whole product table by target once,
    then filtering it for each g_j: the construction the shipped one must match."""
    n = g.codomain.dim
    exps = mi.exponent_matrix(n, g.degree)[1:]
    last = n - 1 - np.argmax(exps[:, ::-1] > 0, axis=1)
    parents = exps.copy()
    parents[np.arange(len(exps)), last] -= 1
    parent = mi.rank(parents)
    degree = exps.sum(axis=1)
    rows = np.arange(1, len(exps) + 1)
    ia, ib, ic = mi.product_table(g.domain.dim, g.degree)
    order = np.argsort(ic, kind="stable")
    ia, ib, ic = ia[order], ib[order], ic[order]
    table = np.zeros((len(exps) + 1, g.coeffs.shape[1]), dtype=np.complex128)
    table[0, 0] = 1.0
    for j in range(n):
        keep = g.coeffs[j, ib] != 0
        ja, jc, jw = ia[keep], ic[keep], g.coeffs[j, ib[keep]]
        for k in range(1, g.degree + 1):
            batch = (last == j) & (degree == k)
            if not batch.any():
                continue
            src = table[parent[batch]]
            live = np.any(src != 0, axis=0)[ja]
            a, c, w = ja[live], jc[live], jw[live]
            if a.size:
                starts = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
                table[rows[batch, None], c[starts]] = np.add.reduceat(
                    src[:, a] * w, starts, axis=1
                )
    return table


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: xp.bang_map(sparse_series(rng, 2, 2, 4), 4),
        lambda rng: xp.bang_map(sparse_series(rng, 3, 3, 6), 6),
        lambda rng: xp.bang_linear(rand_vec(rng, 30).reshape(2, 15), 4),
    ],
    ids=["bang-2x4", "bang-3x6", "bang-linear-2x15-4"],
)
def test_power_table_matches_the_full_sort(monkeypatch, build):
    shipped = build(np.random.default_rng(11)).matrix
    monkeypatch.setattr(TruncatedSeries, "power_table", full_sort_power_table)
    reference = build(np.random.default_rng(11)).matrix
    assert shipped.tobytes() == reference.tobytes()


def sparse_series(rng, dom, cod, degree):
    """rand_series with about a third of the coefficients set to zero."""
    f = rand_series(rng, dom, cod, degree)
    coeffs = np.where(rng.random(f.coeffs.shape) < 0.3, 0, f.coeffs)
    return TruncatedSeries.from_arrays(dom, cod, degree, coeffs)


def test_bang_degree_guard():
    f = TruncatedSeries.identity(2, 2)
    with pytest.raises(ValueError, match="promotion degree"):
        xp.bang_map(f, 3)
    with pytest.raises(ValueError, match="2d matrix"):
        xp.bang_linear(np.ones(3), 2)


def test_bang_entry_is_power_coefficient():
    # row beta of !f holds the coefficients of f(x)^beta
    f = TruncatedSeries.from_terms(1, 1, 3, {(0, (1,)): 1.0, (0, (2,)): 1.0})
    b = xp.bang_map(f, 3)
    sq = f.pointwise_multiply(f)
    row = b.matrix[mi.position_of((2,), 3)]
    np.testing.assert_allclose(row, sq.coeffs[0], atol=1e-14)


def test_adjunction_roundtrip_and_evaluation():
    rng = np.random.default_rng(41)
    f = rand_series(rng, 2, 3, 3)
    op = xp.series_to_operator(f)
    assert op.source == xp.DistBasis(2, 3)
    back = xp.operator_to_series(op)
    np.testing.assert_array_equal(back.coeffs, f.coeffs)
    x = rand_vec(rng, 2)
    np.testing.assert_allclose(op(xp.dirac(x, 3)), f.evaluate(x), atol=1e-12)
    with pytest.raises(ValueError, match="distribution basis"):
        xp.operator_to_series(xp.LinearOperator.identity(xp.VectorBasis(2)))


def test_operator_json():
    op = xp.counit(1, 1)
    data = op.to_json_dict()
    assert data["source"] == {"kind": "dist", "dim": 1, "degree": 1}
    assert data["target"] == {"kind": "vector", "dim": 1}
    assert data["matrix"] == [[[0.0, 0.0], [1.0, 0.0]]]
