"""Mutation matrix for the law suite.

Each row names one corruption of one shipped kernel: a small wrapper around a
function or method that changes its result.  The wrapper is bound wherever the
laws resolve the kernel, under every name a loaded dillcalc module binds it
to, and on its class for a method.  Under each row every law runs at 2/4, one
at a time; a law that raises counts as failing.  The matrix asserts that every
row fails some law, that every law fails under some row, that the cases of the
older hand-written corruption tests are still caught by the laws they named,
that a NaN result fails the laws it reaches, and that the laws a row failed
pass again once it is undone.

A new kernel or law adds one row to ROWS (and a kernel its name to KERNELS).
"""

import sys

import numpy as np
import pytest

from dillcalc import exponential as xp
from dillcalc import laws
from dillcalc import multiindex as mi
from dillcalc import multilinear as ml

CONFIG = laws.LawConfig(dim=2, degree=4)


# -- corruptions: a corruption takes the original kernel and returns the
# crooked one; `_result(change)` is the one that rewrites the kernel's result


def _result(change):
    """The kernel with `change` applied to its result."""

    def corrupt(original):
        def crooked(*args, **kwargs):
            return change(original(*args, **kwargs))

        return crooked

    return corrupt


def _bumped(arr, at=-1, by=1e-3):
    arr = np.array(arr)
    arr.reshape(-1)[at] += by
    return arr


def _changed_series(f, change):
    """A series or distribution of f's shape with its coefficients changed."""
    return type(f)(*f._shape(), change(np.array(f.coeffs)))


def _series(change):
    return _result(lambda f: _changed_series(f, change))


def _distribution(change):
    return _result(lambda d: xp.Distribution(d.dim, d.degree, change(np.array(d.coeffs))))


def _operator(change):
    return _result(lambda op: xp.LinearOperator(op.source, op.target, change(np.array(op.matrix))))


def _multilinear(change):
    def changed(t):
        return ml.SymmetricMultilinear(t.arity, t.domain, t.codomain, change(np.array(t.entries)))

    return _result(changed)


def _set(row, col, value=1.0):
    def change(mat):
        mat[row, col] = value
        return mat

    return change


def _bump_largest(mat):
    mat[np.unravel_index(np.argmax(mat.real), mat.shape)] += 1.0
    return mat


def _table(position, change):
    """Change one array of a kernel's tuple result."""

    def apply(result):
        result = list(result)
        result[position] = change(np.array(result[position]))
        return tuple(result)

    return _result(apply)


def _drop_last_triple(table):
    return tuple(arr[:-1] for arr in table)


def _move_derivative_source(src):
    src[-1, src.shape[1] // 2] = 0
    return src


def _bump_unit_monomial(mono):
    mono = np.array(mono)
    mono[..., 1] *= 1.001
    return mono


def _bump_middle_entry(original):
    def crooked(*args):
        op = original(*args)
        rows, cols, vals = (np.array(a) for a in op.entries())
        vals[vals.size // 2] += 1.0
        return xp.LinearOperator.from_entries(op.source, op.target, rows, cols, vals)

    return crooked


def _exchange_rows_1_2(op):
    # rows 1 and 2 of the result trade places; on a pair basis they are
    # eps_0 (x) eps_1 and eps_0 (x) eps_2
    rows, cols, vals = (np.array(a) for a in op.entries())
    rows = np.where(rows == 1, 2, np.where(rows == 2, 1, rows))
    return xp.LinearOperator.from_entries(op.source, op.target, rows, cols, vals)


def _swap_rows_1_2(rows):
    # rows 1 and 2 of the graded order, e_0 and e_1 at dimension 2, share the
    # degree-1 block; a shorter result is left alone
    rows = np.array(rows)
    if len(rows) > 2:
        rows[[1, 2]] = rows[[2, 1]]
    return rows


def _swap_pair_positions_1_2(pos):
    # the pairs (0, beta_1) and (0, beta_2) trade their concatenated
    # positions: still a permutation, so the curry round trip and m2's
    # inverse hold
    pos = np.array(pos)
    if len(pos) > 2:
        pos[[1, 2]] = pos[[2, 1]]
    return pos


def _swap_last_parents(tree):
    # from dimension 2 on, the last two rows share the top degree block and,
    # above degree 1, have different parents: each now grows from the
    # other's.  At dimension 1 the last row's parent is the row before it,
    # in another block, and the tree is left alone
    parent, last = (np.array(arr) for arr in tree)
    if parent[-1] < len(parent) - 2:
        parent[[-2, -1]] = parent[[-1, -2]]
    return parent, last


def _uncommuted(table):
    # the first pair (alpha, e_0) with alpha != 0 reads e_1 instead, while
    # its mirror (e_0, alpha) stays: a * b and b * a now differ
    ia, ib, ic = (np.array(arr) for arr in table)
    ib[np.flatnonzero((ia > 0) & (ib == 1))[0]] = 2
    return ia, ib, ic


def _bump_last_block(c):
    # the table's last entry lies in its last block, the one column of alpha = (0, .., 0, D)
    return type(c)(c.outer_dim, c.inner_dim, c.codomain_dim, c.degree, _bumped(c.coeffs))


# row name -> (kernel, corruption); "module.name" or "module.Class.method"
ROWS = {
    "rank": ("multiindex.rank", _result(lambda r: _bumped(r, by=1))),
    "unrank": ("multiindex.unrank", _result(_swap_rows_1_2)),
    "product_table": ("multiindex.product_table", _result(_drop_last_triple)),
    "product_table-noncommutative": ("multiindex.product_table", _result(_uncommuted)),
    "convolution_table": (
        "multiindex.convolution_table",
        _table(3, lambda w: _bumped(w, at=w.size // 2, by=1.0)),
    ),
    "derivative_table": ("multiindex.derivative_table", _table(0, _move_derivative_source)),
    "power_tree": ("multiindex.power_tree", _result(_swap_last_parents)),
    "split_table": ("multiindex.split_table", _table(2, _swap_pair_positions_1_2)),
    "power_table": ("series.TruncatedSeries.power_table", _result(_bumped)),
    "recenter": ("series.TruncatedSeries.recenter", _series(_bumped)),
    "contraction": ("exponential.contraction", _operator(_set(0, -1))),
    "cocontraction": ("exponential.cocontraction", _operator(_bump_largest)),
    "cocontraction-entry": ("exponential.cocontraction", _bump_middle_entry),
    "monoidal_product": ("exponential.monoidal_product", _operator(_set(0, -1))),
    "monoidal_product_inverse": ("exponential.monoidal_product_inverse", _operator(_set(0, -1))),
    # column 1 is the unit extractor eps_(e_0), which codereliction reaches
    "comultiplication": ("exponential.comultiplication", _operator(_set(0, 1))),
    "counit": ("exponential.counit", _operator(_set(0, -1))),
    "weakening": ("exponential.weakening", _operator(_set(0, -1))),
    "coweakening": ("exponential.coweakening", _operator(_set(-1, 0))),
    # row eps_0, which dereliction never reads
    "codereliction_operator": ("exponential.codereliction_operator", _operator(_set(0, 0))),
    "LinearOperator.swap": ("exponential.LinearOperator.swap", _result(_exchange_rows_1_2)),
    "bang_map": ("exponential.bang_map", _operator(_set(0, -1))),
    "bang_linear": ("exponential.bang_linear", _operator(_set(0, -1))),
    "compose": ("calculus.compose", _series(_bumped)),
    "compose-nan": ("calculus.compose", _series(lambda c: _bumped(c, by=np.nan))),
    "compose_naive": ("calculus.compose_naive", _series(_bumped)),
    "curry": ("calculus.curry", _result(_bump_last_block)),
    "uncurry": ("calculus.uncurry", _series(_bumped)),
    "curried-evaluate-nan": ("calculus.CurriedSeries.evaluate", _result(lambda v: v * np.nan)),
    "split_slot_reference": ("calculus.split_slot_reference", _result(_bumped)),
    "truncate": ("series.TruncatedSeries.truncate", _series(_bumped)),
    "homogeneous_part": ("series.TruncatedSeries.homogeneous_part", _series(_bumped)),
    "evaluate": ("series.TruncatedSeries.evaluate", _result(_bumped)),
    "evaluate-nan": ("series.TruncatedSeries.evaluate", _result(lambda v: v * np.nan)),
    "evaluate_many": ("series.TruncatedSeries.evaluate_many", _result(_bumped)),
    # values only shrinking: the one change the sampled Cauchy bound can see
    "evaluate_many-shrinking": ("series.TruncatedSeries.evaluate_many", _result(lambda v: 0.5 * v)),
    "_monomials_at": ("series._monomials_at", _result(_bump_unit_monomial)),
    "partial_derivative": ("series.TruncatedSeries.partial_derivative", _series(_bumped)),
    "directional_derivative": ("series.TruncatedSeries.directional_derivative", _result(_bumped)),
    "pointwise_multiply": ("series.TruncatedSeries.pointwise_multiply", _series(_bumped)),
    # the one add of series and distributions, `+` and `-` included
    "add": ("series._Table.add", _series(_bumped)),
    "dirac": ("exponential.dirac", _distribution(lambda c: 1.001 * c)),
    "theta": ("exponential.theta", _distribution(_bumped)),
    "convolve": ("exponential.convolve", _distribution(_bumped)),
    "codereliction": ("exponential.codereliction", _distribution(lambda c: _bumped(c, at=0))),
    "Distribution.apply": ("exponential.Distribution.apply", _result(_bumped)),
    "series_to_operator": ("exponential.series_to_operator", _operator(_bumped)),
    "operator_to_series": ("exponential.operator_to_series", _series(_bumped)),
    "from_monomial": ("multilinear.from_monomial", _multilinear(_bumped)),
    "polarize": ("multilinear.polarize", _multilinear(_bumped)),
    "SymmetricMultilinear.apply-multiplicative": (
        "multilinear.SymmetricMultilinear.apply",
        _result(lambda v: 1.001 * v),
    ),
    "SymmetricMultilinear.apply-additive": (
        "multilinear.SymmetricMultilinear.apply",
        _result(lambda v: v + 1e-3),
    ),
}

# The shipped kernels the matrix must cover; a kernel renamed or added
# without a row fails `test_every_kernel_has_a_row`.
KERNELS = [
    "multiindex.rank",
    "multiindex.unrank",
    "multiindex.product_table",
    "multiindex.convolution_table",
    "multiindex.derivative_table",
    "multiindex.power_tree",
    "multiindex.split_table",
    "series.TruncatedSeries.power_table",
    "series.TruncatedSeries.recenter",
    "exponential.contraction",
    "exponential.cocontraction",
    "exponential.monoidal_product",
    "exponential.monoidal_product_inverse",
    "exponential.comultiplication",
    "exponential.counit",
    "exponential.weakening",
    "exponential.coweakening",
    "exponential.codereliction_operator",
    "exponential.LinearOperator.swap",
    "exponential.bang_map",
    "exponential.bang_linear",
    "calculus.compose",
    "calculus.compose_naive",
    "calculus.curry",
    "calculus.uncurry",
    "calculus.CurriedSeries.evaluate",
    "calculus.split_slot_reference",
    "series.TruncatedSeries.truncate",
    "series.TruncatedSeries.homogeneous_part",
    "series.TruncatedSeries.evaluate",
    "series.TruncatedSeries.evaluate_many",
    "series._monomials_at",
    "series.TruncatedSeries.partial_derivative",
    "series.TruncatedSeries.directional_derivative",
    "series.TruncatedSeries.pointwise_multiply",
    "series._Table.add",
    "exponential.dirac",
    "exponential.theta",
    "exponential.convolve",
    "exponential.codereliction",
    "exponential.Distribution.apply",
    "exponential.series_to_operator",
    "exponential.operator_to_series",
    "multilinear.from_monomial",
    "multilinear.polarize",
    "multilinear.SymmetricMultilinear.apply",
]

# The cases of the hand-written corruption tests this matrix replaces: their
# row, and the laws each case was asserted to fail.
OLD_CASES = {
    "compose": ("compose", ["compose-associativity"]),
    "contraction": ("contraction", ["bialgebra-contraction-laws", "bialgebra-compatibility"]),
    "cocontraction": (
        "cocontraction",
        ["bialgebra-cocontraction-laws", "bialgebra-compatibility"],
    ),
    "monoidal_product": ("monoidal_product", ["monoidality-bijection"]),
    "bang_map": ("bang_map", ["bang-functoriality", "compose-matches-naive"]),
    "comultiplication": ("comultiplication", ["comonad-counit-laws", "codereliction-digging"]),
    "convolution-weight": ("convolution_table", ["multiindex-binom-symmetry"]),
    "rank": ("rank", ["multiindex-count"]),
    "nabla-entry": ("cocontraction-entry", ["bialgebra-cocontraction-laws"]),
    "derivative-source": ("derivative_table", ["series-directional-finite-difference"]),
    "power_table": ("power_table", ["compose-matches-naive"]),
}


# The modules that hold lru caches, each importing only those before it, so
# a cache can hold a result of a row's kernel only at or after its module.
CACHED = ("multiindex", "series", "multilinear")


def _clear_caches(kernel):
    """Clear every cache that can hold a result of `kernel`."""
    short = kernel.partition(".")[0]
    for name in CACHED[CACHED.index(short) :] if short in CACHED else ():
        for value in vars(sys.modules["dillcalc." + name]).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _resolve(kernel):
    """(owner, attribute name): the module or class that holds the kernel."""
    short, _, attr = kernel.partition(".")
    owner = sys.modules["dillcalc." + short]
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


def _bind(mp, kernel, corrupt):
    """Bind the corrupted kernel wherever the laws can resolve it: on its
    class for a method, else under every name a dillcalc module gives it."""
    owner, name = _resolve(kernel)
    original = vars(owner)[name]
    crooked = corrupt(original)
    if isinstance(owner, type):
        mp.setattr(owner, name, crooked)
        return
    for module_name, module in list(sys.modules.items()):
        if module_name == "dillcalc" or module_name.startswith("dillcalc."):
            for key, value in list(vars(module).items()):
                if value is original:
                    mp.setattr(module, key, crooked)


def _failures(names):
    """(failed, raised): the laws of `names` that fail, and those that raised."""
    failed, raised = set(), set()
    for name in names:
        try:
            if not laws.run_law(name, CONFIG).passed:
                failed.add(name)
        except Exception:  # a raising law is a caught corruption
            failed.add(name)
            raised.add(name)
    return failed, raised


@pytest.fixture(scope="module")
def matrix():
    """row -> (laws failed, laws raised, laws failing once the row is undone).

    The caches that can hold a result of the row's kernel are cleared before
    the row, so that the corruption shows, and after it, so that it does not
    leak; the others stay warm.  Once a row is undone the laws it failed run
    again, and after the last row the whole suite runs.  The whole suite after
    every row would double the matrix's cost."""
    out = {}
    for row, (kernel, corrupt) in ROWS.items():
        _clear_caches(kernel)
        with pytest.MonkeyPatch.context() as mp:
            _bind(mp, kernel, corrupt)
            failed, raised = _failures(laws.law_names())
        _clear_caches(kernel)
        out[row] = (failed, raised, _failures(sorted(failed))[0])
    return out


def test_every_kernel_has_a_row():
    for kernel in KERNELS:
        owner, name = _resolve(kernel)
        assert callable(vars(owner).get(name)), f"{kernel} is not a shipped kernel"
    assert sorted({kernel for kernel, _ in ROWS.values()}) == sorted(KERNELS)


def test_every_row_fails_a_law(matrix):
    assert [row for row, (failed, _, _) in matrix.items() if not failed] == []


def test_every_law_fails_under_some_row(matrix):
    caught = set().union(*(failed for failed, _, _ in matrix.values()))
    assert sorted(set(laws.law_names()) - caught) == []


@pytest.mark.parametrize("case", list(OLD_CASES))
def test_old_case_is_caught(matrix, case):
    row, named = OLD_CASES[case]
    failed, raised, _ = matrix[row]
    assert sorted(set(named) - failed) == [], f"laws that raised: {sorted(raised)}"


def test_a_crooked_swap_fails_every_law_through_sigma(matrix):
    # sigma Delta = Delta, nabla sigma = nabla and the bialgebra square
    failed, raised, _ = matrix["LinearOperator.swap"]
    named = ["bialgebra-contraction-laws", "bialgebra-cocontraction-laws", "bialgebra-compatibility"]
    assert sorted(set(named) - failed) == [], f"laws that raised: {sorted(raised)}"


# Laws a NaN result reaches.  A fold such as max(worst, x), which keeps a NaN
# only when it comes first, passes each of them.
NAN_CASES = {
    "evaluate-nan": [
        "dirac-evaluates",
        "theta-extracts",
        "curry-evaluation",
        "multilinear-diagonal-roundtrip",
        "adjunction-extractor-expansion",
    ],
    "curried-evaluate-nan": ["curry-evaluation", "curry-split-slot-reference"],
    "compose-nan": ["chain-rule"],
}


def test_a_crooked_add_fails_every_law_that_sums_values(matrix):
    # a homogeneous reconstruction, the chain rule's sum over coordinates and
    # the Taylor sum of the thetas all add series or distributions
    failed, raised, _ = matrix["add"]
    named = ["series-homogeneous-reconstruction", "chain-rule", "delta-taylor"]
    assert sorted(set(named) - failed) == [], f"laws that raised: {sorted(raised)}"


def test_the_translation_laws_see_their_kernels(matrix):
    # evaluation at a + h shares no pair table with the recentring, and
    # delta_a * delta_b = delta_(a+b) reads every convolution weight
    for row, law in (("recenter", "translation-evaluates"), ("convolution_table", "dirac-translation")):
        failed, raised, _ = matrix[row]
        assert law in failed, f"laws that raised: {sorted(raised)}"


def test_a_crooked_curry_fails_its_laws_by_deviation(matrix):
    # the corrupted table is a valid curried series, so the laws measure it
    failed, raised, _ = matrix["curry"]
    assert sorted({"curry-uncurry-roundtrip", "curry-evaluation"} - failed) == []
    assert sorted(raised) == []


@pytest.mark.parametrize("row", list(NAN_CASES))
def test_a_nan_fails_every_law_it_reaches(matrix, row):
    failed, raised, _ = matrix[row]
    assert sorted(set(NAN_CASES[row]) - failed) == [], f"laws that raised: {sorted(raised)}"


def test_failed_laws_pass_once_each_row_is_undone(matrix):
    assert {row: sorted(after) for row, (_, _, after) in matrix.items() if after} == {}
    assert sorted(_failures(laws.law_names())[0]) == []
