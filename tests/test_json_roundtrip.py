"""Every JSON writer round-trips finite doubles bit for bit, the edge values
(-0.0, the smallest subnormal, the largest finite double) included."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from dillcalc import dsl
from dillcalc import exponential as xp
from dillcalc import multiindex as mi
from dillcalc.series import TruncatedSeries

EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
DOUBLES = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))


def complex_table(data, shape):
    n = int(np.prod(shape))
    arr = np.empty(shape, dtype=np.complex128)
    arr.real = np.reshape(data.draw(st.lists(DOUBLES, min_size=n, max_size=n)), shape)
    arr.imag = np.reshape(data.draw(st.lists(DOUBLES, min_size=n, max_size=n)), shape)
    return arr


def written_entries(arr):
    """What a reader gets back: entries equal to 0 are not written, so they
    read as +0."""
    return np.where(arr != 0, arr, 0)


def pairs(arr):
    return np.stack([arr.real, arr.imag], axis=-1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 3), st.data())
def test_coefficient_json_roundtrips_bit_for_bit(dom, cod, deg, data):
    n = mi.count_indices(dom, deg)
    f = TruncatedSeries.from_arrays(dom, cod, deg, complex_table(data, (cod, n)))
    back = TruncatedSeries.from_json(f.to_json())
    assert back.coeffs.tobytes() == written_entries(f.coeffs).tobytes()

    d = xp.Distribution(dom, deg, complex_table(data, (n,)))
    back = xp.Distribution.from_json_dict(json.loads(d.to_json()))
    assert back.coeffs.tobytes() == written_entries(d.coeffs).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_vector_and_operator_json_roundtrip_bit_for_bit(n, m, data):
    v = complex_table(data, (m,))
    read = np.array(json.loads(dsl.value_to_json(v))["values"], dtype=np.float64)
    assert read.tobytes() == pairs(v).tobytes()

    mat = complex_table(data, (n, m))
    op = xp.LinearOperator(xp.VectorBasis(m), xp.VectorBasis(n), mat)
    read = np.array(json.loads(dsl.value_to_json(op))["matrix"], dtype=np.float64)
    assert read.tobytes() == pairs(mat).tobytes()
