import itertools
import math
import re
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dillcalc import multilinear as ml
from dillcalc import series
from dillcalc.series import FiniteSpace, TruncatedSeries

from brute import iter_indices

coeff_st = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def homogeneous_st(draw, max_dim=3, max_arity=4):
    dim = draw(st.integers(1, max_dim))
    arity = draw(st.integers(1, max_arity))
    indices = [a for a in iter_indices(dim, arity) if sum(a) == arity]
    terms = {}
    for alpha in draw(st.lists(st.sampled_from(indices), min_size=1, max_size=4)):
        terms[(0, alpha)] = draw(coeff_st)
    return TruncatedSeries.from_terms(dim, 1, arity, terms), arity


def _rand_vecs(rng, n, dim):
    return [rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim) for _ in range(n)]


def itertools_tuples(dim, arity):
    """The sorted coordinate tuples, listed by itertools: an oracle that shares
    no code with the package's degree blocks."""
    return list(itertools.combinations_with_replacement(range(dim), arity))


def test_sorted_tuple_count():
    # the stored table has one column per sorted tuple
    for dim in (1, 2, 3):
        for arity in (0, 1, 2, 3):
            n = len(itertools_tuples(dim, arity))
            assert n == math.comb(dim + arity - 1, arity)
            spaces = (FiniteSpace(dim), FiniteSpace(1))
            assert ml.SymmetricMultilinear(arity, *spaces, np.zeros((1, n))).arity == arity
            with pytest.raises(ValueError, match="entry table has shape"):
                ml.SymmetricMultilinear(arity, *spaces, np.zeros((1, n + 1)))


def test_polarize_columns_follow_the_itertools_order():
    # column col belongs to the col-th sorted tuple t; with alpha its
    # multiplicity vector, the entry is c_alpha * prod(alpha_i!) / k!
    for dim in (1, 2, 3):
        for arity in range(5):
            tuples = itertools_tuples(dim, arity)
            alphas = [tuple(t.count(i) for i in range(dim)) for t in tuples]
            coeffs = [complex(col + 1, -col) for col in range(len(tuples))]
            terms = {(0, a): c for a, c in zip(alphas, coeffs)}
            f = TruncatedSeries.from_terms(dim, 1, arity, terms)
            want = [
                c * math.prod(math.factorial(e) for e in a) / math.factorial(arity)
                for a, c in zip(alphas, coeffs)
            ]
            np.testing.assert_allclose(ml.polarize(f, arity).entries[0], want, atol=1e-12)


def test_cube_polarization_frozen():
    # f(x) = x^3 in one variable: the symmetric trilinear form is x y z,
    # so it takes the value 1 on (1, 1, 1)
    f = TruncatedSeries.from_terms(1, 1, 3, {(0, (3,)): 1.0})
    tensor = ml.polarize(f, 3)
    val = tensor.apply([np.array([1.0]), np.array([1.0]), np.array([1.0])])
    np.testing.assert_allclose(val, [1.0], atol=1e-12)
    a, b, c = 2.0, -0.5, 1.5j
    val = tensor.apply([np.array([a]), np.array([b]), np.array([c])])
    np.testing.assert_allclose(val, [a * b * c], atol=1e-12)


def test_product_monomial_entry():
    # f(x, y) = x y: the symmetric bilinear form is (x1 y2 + x2 y1) / 2
    f = TruncatedSeries.from_terms(2, 1, 2, {(0, (1, 1)): 1.0})
    tensor = ml.from_monomial(f, 2)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    np.testing.assert_allclose(tensor.apply([e1, e2]), [0.5], atol=1e-14)
    np.testing.assert_allclose(tensor.apply([e1, e1]), [0.0], atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(homogeneous_st())
def test_polarize_matches_from_monomial(fa):
    f, arity = fa
    a = ml.from_monomial(f, arity)
    b = ml.polarize(f, arity)
    assert a.arity == b.arity == arity
    np.testing.assert_allclose(a.entries, b.entries, atol=1e-9)


def test_polarize_in_several_batches(monkeypatch):
    # 2^3 points of 3 coordinates per tuple: a block of 48 coordinates takes
    # two of the ten tuples a batch, so the batches are five
    rng = np.random.default_rng(11)
    terms = {
        (out, alpha): complex(*rng.uniform(-1, 1, 2))
        for out in (0, 1)
        for alpha in iter_indices(3, 3)
        if sum(alpha) == 3
    }
    f = TruncatedSeries.from_terms(3, 2, 3, terms)
    monkeypatch.setattr(series, "_POINT_BLOCK", 48)
    np.testing.assert_allclose(
        ml.polarize(f, 3).entries, ml.from_monomial(f, 3).entries, atol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(homogeneous_st(max_arity=3), st.integers(0, 2**31 - 1))
def test_apply_symmetric_and_diagonal(fa, seed):
    f, arity = fa
    tensor = ml.from_monomial(f, arity)
    rng = np.random.default_rng(seed)
    args = _rand_vecs(rng, arity, f.domain.dim)
    base = tensor.apply(args)
    perm = rng.permutation(arity)
    np.testing.assert_allclose(tensor.apply([args[p] for p in perm]), base, atol=1e-12)
    x = args[0]
    np.testing.assert_allclose(
        tensor.apply([x] * arity), f.evaluate(x), atol=1e-9
    )


def test_apply_matches_the_ordered_tuple_expansion():
    # oracle: sum over every ordered coordinate tuple of the product of the
    # slot coordinates times the entry at its sorted tuple, found by list search
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        for arity in range(5):
            tuples = itertools_tuples(dim, arity)
            shape = (2, len(tuples))
            entries = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
            tensor = ml.SymmetricMultilinear(arity, FiniteSpace(dim), FiniteSpace(2), entries)
            args = _rand_vecs(rng, arity, dim)
            want = np.zeros(2, dtype=complex)
            for t in itertools.product(range(dim), repeat=arity):
                weight = math.prod(args[slot][i] for slot, i in enumerate(t))
                want += weight * entries[:, tuples.index(tuple(sorted(t)))]
            np.testing.assert_allclose(tensor.apply(args), want, atol=1e-12)


_WIDE_APPLY = """
import tracemalloc
import numpy as np
from dillcalc import multilinear as ml
from dillcalc.series import TruncatedSeries
f = TruncatedSeries.from_terms(10, 1, 8, {(0, (8,) + (0,) * 9): 1.0})
tensor = ml.from_monomial(f)
tracemalloc.start()
value = tensor.apply([np.eye(10)[0]] * 8)
peak = tracemalloc.get_traced_memory()[1]
assert value.tolist() == [1.0], value
assert peak <= 32 * 2**20, peak
"""


def test_apply_builds_no_table_of_ordered_tuples():
    # x_0^8 on C^10 is a 24310-entry tensor; apply once listed all 10^8
    # ordered tuples of 8 coordinates, and then read the 3.1 M triples of
    # the whole product table (192 MiB traced) where shifts by one linear
    # form at a time need the 10 x 19448 shift table
    limit = 2 * 2**30
    proc = subprocess.run(
        [sys.executable, "-c", _WIDE_APPLY],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def test_apply_multilinearity():
    f = TruncatedSeries.from_terms(2, 1, 3, {(0, (2, 1)): 1.0 + 0.5j})
    tensor = ml.from_monomial(f, 3)
    rng = np.random.default_rng(11)
    x, y, u, v = _rand_vecs(rng, 4, 2)
    lhs = tensor.apply([2.0 * x - 1j * y, u, v])
    rhs = 2.0 * tensor.apply([x, u, v]) - 1j * tensor.apply([y, u, v])
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_arity_zero():
    f = TruncatedSeries.constant([3.0, 4.0], 2, 2)
    tensor = ml.from_monomial(f, 0)
    np.testing.assert_allclose(tensor.apply([]), [3.0, 4.0])


def test_infer_arity():
    f = TruncatedSeries.from_terms(2, 1, 4, {(0, (2, 0)): 1.0})
    tensor = ml.from_monomial(f)
    assert tensor.arity == 2


def test_mixed_degrees_rejected():
    f = TruncatedSeries.from_terms(1, 1, 3, {(0, (1,)): 1.0, (0, (3,)): 1.0})
    with pytest.raises(ValueError, match="not homogeneous"):
        ml.from_monomial(f)
    with pytest.raises(ValueError, match="arity"):
        ml.from_monomial(TruncatedSeries.zero(1, 1, 3))


def test_arity_cap():
    # both routes bound the arity by the series degree, so by MAX_DEGREE
    for route in (ml.from_monomial, ml.polarize):
        with pytest.raises(ValueError, match="arity 5 exceeds the series degree 3"):
            route(TruncatedSeries.zero(1, 1, 3), 5)
        assert route(TruncatedSeries.zero(1, 1, 3), 3).arity == 3
    # a form built by hand obeys the same cap, since apply multiplies series
    # of degree arity; arity 9 once built and failed only in apply
    for arity in (-1, series.MAX_DEGREE + 1):
        with pytest.raises(ValueError, match=f"arity {arity} outside 0..{series.MAX_DEGREE}"):
            ml.SymmetricMultilinear(arity, FiniteSpace(1), FiniteSpace(1), [[1.0]])


def test_apply_validation():
    f = TruncatedSeries.from_terms(2, 1, 2, {(0, (1, 1)): 1.0})
    tensor = ml.from_monomial(f, 2)
    with pytest.raises(ValueError):
        tensor.apply([np.array([1.0, 0.0])])
    with pytest.raises(ValueError):
        tensor.apply([np.array([1.0]), np.array([1.0])])


def test_entry_accessor():
    f = TruncatedSeries.from_terms(1, 1, 2, {(0, (2,)): 6.0})
    tensor = ml.from_monomial(f, 2)
    # entry = c * prod(alpha!) / k! = 6 * 2!/2! = 6, and f~(x, y) = 6 x y
    assert tensor.entry(0, (0, 0)) == pytest.approx(6.0)


def test_entry_reads_the_sorted_tuple_in_any_order():
    # reference: the stored column of the sorted tuple, found by list search
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3):
        for arity in range(5):
            n = len(itertools_tuples(dim, arity))
            entries = rng.uniform(-1, 1, (2, n)) + 1j * rng.uniform(-1, 1, (2, n))
            tensor = ml.SymmetricMultilinear(
                arity, FiniteSpace(dim), FiniteSpace(2), entries
            )
            for col, t in enumerate(itertools_tuples(dim, arity)):
                for ordered in set(itertools.permutations(t)):
                    for out in (0, 1):
                        assert tensor.entry(out, ordered) == entries[out, col]
            with pytest.raises(KeyError):
                tensor.entry(0, (0,) * (arity + 1))
            if arity:
                with pytest.raises(KeyError):
                    tensor.entry(0, (dim,) * arity)  # coordinate out of range


_TENSOR = ml.SymmetricMultilinear(2, FiniteSpace(2), FiniteSpace(2), [[1, 2, 3], [4, 5, 6]])
_SERIES = TruncatedSeries.from_terms(2, 1, 2, {(0, (1, 1)): 1.0})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _SERIES.partial_derivative(True), ValueError, "coordinate True out of range"),
        (lambda: _SERIES.partial_derivative(1.0), ValueError, "coordinate 1.0 out of range"),
        (lambda: _SERIES.partial_derivative(np.bool_(True)), ValueError, "coordinate True"),
        (lambda: _TENSOR.entry(0, (0.0, 1)), KeyError, "coordinates below 2"),
        (lambda: _TENSOR.entry(0, (True, 1)), KeyError, "coordinates below 2"),
        (lambda: _TENSOR.entry(-1, (0, 1)), ValueError, "output component -1 out of range"),
        (lambda: _TENSOR.entry(2, (0, 1)), ValueError, "output component 2 out of range"),
        (lambda: _TENSOR.entry(1.0, (0, 1)), ValueError, "output component 1.0 out of range"),
    ],
    ids=[
        "diff-bool", "diff-float", "diff-numpy-bool",
        "entry-float-coordinate", "entry-bool-coordinate",
        "entry-negative-out", "entry-out-past-codomain", "entry-float-out",
    ],
)
def test_one_coordinate_rule(call, error, message):
    # True once read as coordinate 1 in a table-shape error, 1.0 raised
    # IndexError, and entry(-1, t) and entry(0, (0.0, 1)) read an entry
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_numpy_integer_coordinates_are_accepted():
    assert _SERIES.partial_derivative(np.int64(1)).coefficient(0, (1, 0)) == 1.0
    assert _TENSOR.entry(np.int8(1), (np.int64(1), 0)) == 5.0
