import copy
import functools
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dillcalc import calculus as ca
from dillcalc import dsl
from dillcalc import exponential as xp
from dillcalc.dsl import (
    CoeffMap,
    EvalError,
    ListForm,
    Num,
    ParseError,
    Sym,
    Vec,
    evaluate_program,
    evaluate_term,
    format_program,
    format_term,
    parse,
    parse_program,
    tokenize,
    value_to_json_dict,
)
from dillcalc.series import TruncatedSeries

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "dsl_examples"


def ev(text, env=None):
    return evaluate_term(parse(text), env or {})


# -- reader ------------------------------------------------------------------


def test_tokenize_comments_and_commas():
    toks = tokenize("(add, 1 2) ; the rest is ignored (even this\n3")
    assert [t.text for t in toks] == ["(", "add", "1", "2", ")", "3", ""]
    assert toks[-2].line == 2 and toks[-2].col == 1


def test_tokenize_numbers_and_arrow():
    toks = tokenize("{(1) -> -2.5e-3}")
    kinds = [t.kind for t in toks]
    assert kinds == ["{", "(", "num", ")", "->", "num", "}", "eof"]
    assert toks[5].text == "-2.5e-3"


def test_tokenize_rejects_garbage():
    with pytest.raises(ParseError, match=r"line 1, col 7: unexpected character '\$'"):
        tokenize("(add 1$ 2)")


def test_parse_structure():
    node = parse("(compose f (series :dom 1 :cod 1 :deg 2 {(1) -> 1}))")
    assert isinstance(node, ListForm)
    assert node.items[0] == Sym("compose")
    inner = node.items[2]
    assert inner.items[0] == Sym("series")
    cmap = inner.items[-1]
    assert isinstance(cmap, CoeffMap)
    assert cmap.entries == (((1,), Num(1)),)


def test_parse_rejects_trailing_and_unclosed():
    with pytest.raises(ParseError, match="trailing input"):
        parse("1 2")
    with pytest.raises(ParseError, match=r"line 1, col 1: unclosed '\('"):
        parse("(add 1 2")
    with pytest.raises(ParseError, match="even number"):
        parse("[1 0 1]")
    with pytest.raises(ParseError, match="integer multi-indices"):
        parse("{(1.5) -> 1}")
    with pytest.raises(ParseError, match="numbers or \\[re im\\]"):
        parse("{(1) -> (add 1 2)}")


def test_reader_refuses_out_of_range_numbers_and_deep_nesting():
    with pytest.raises(ParseError, match=r"line 1, col 7: number '1e400' is out of range"):
        parse("[1 0  1e400 0]")
    with pytest.raises(ParseError, match="out of range"):
        parse("-" + "9" * 5000)
    assert parse("[1e308 0]") == Vec((1e308, 0))
    limit = dsl.MAX_NESTING
    assert isinstance(parse("(" * limit + ")" * limit), ListForm)
    with pytest.raises(ParseError, match=f"col {limit + 1}: forms nest deeper than {limit}"):
        parse("(" * limit + "{}" + ")" * limit)


def test_parse_program_reads_many_forms():
    forms = parse_program("(let x 1)\nx\n; done\n")
    assert len(forms) == 2


# -- formatter ---------------------------------------------------------------


def test_format_parse_roundtrip():
    src = "(compose (series :dom 2 :cod 1 :deg 3 {(2 0) -> 1.0 (0 1) -> [0 1]}) g :poly)"
    node = parse(src)
    printed = format_term(node)
    assert parse(printed) == node  # positions are compare=False
    assert format_term(parse(printed)) == printed


def test_format_preserves_int_float_distinction():
    assert format_term(parse("(scale 2 x)")) == "(scale 2 x)"
    assert format_term(parse("(scale 2.0 x)")) == "(scale 2.0 x)"
    back = parse(format_term(parse("{(1) -> 3.0}")))
    assert isinstance(back.entries[0][1].value, float)


def test_format_program_joins_lines():
    text = format_program(parse_program("(let x 1) x"))
    assert text == "(let x 1)\nx\n"


def test_format_large_and_tiny_floats_roundtrip():
    for v in (0.1, 1e-17, 12345678901234567.0, -3.5e300):
        s = format_term(Num(v))
        assert float(s) == v


# -- evaluation --------------------------------------------------------------


def test_number_and_vector_values():
    np.testing.assert_array_equal(ev("2"), [2 + 0j])
    np.testing.assert_array_equal(ev("[1 0 0 1]"), [1, 1j])
    np.testing.assert_array_equal(ev("[-1.5 2]"), [-1.5 + 2j])


def test_series_literal():
    f = ev("(series :dom 2 :cod 2 :deg 3 {(2 0) -> 1.0 (0 1) -> [0 1]} {(1 1) -> 2})")
    assert isinstance(f, TruncatedSeries)
    assert f.coefficient(0, (2, 0)) == 1.0
    assert f.coefficient(0, (0, 1)) == 1j
    assert f.coefficient(1, (1, 1)) == 2.0
    assert f.degree == 3


def test_series_literal_errors():
    with pytest.raises(EvalError, match="needs :dom, :cod and :deg"):
        ev("(series :dom 1 :cod 1 {(1) -> 1})")
    with pytest.raises(EvalError, match="needs 2 coefficient maps, got 1"):
        ev("(series :dom 1 :cod 2 :deg 2 {(1) -> 1})")
    with pytest.raises(EvalError, match="domain dimension is 2"):
        ev("(series :dom 2 :cod 1 :deg 2 {(1) -> 1})")
    with pytest.raises(EvalError, match="single complex numbers"):
        ev("(series :dom 1 :cod 1 :deg 2 {(1) -> [1 0 0 1]})")
    with pytest.raises(EvalError, match=":deg must be an integer"):
        ev("(series :dom 1 :cod 1 :deg 2.5 {(1) -> 1})")


def test_compose_and_poly_flag():
    env = {}
    env["f"] = ev("(series :dom 1 :cod 1 :deg 3 {(1) -> 1 (0) -> 5})")
    env["g"] = ev("(series :dom 1 :cod 1 :deg 3 {(1) -> 2})")
    h = ev("(compose f g)", env)
    assert h.coefficient(0, (0,)) == 5.0 and h.coefficient(0, (1,)) == 2.0
    # constant inner term requires the polynomial marker
    env["k"] = ev("(series :dom 1 :cod 1 :deg 3 {(0) -> 1})")
    with pytest.raises(EvalError, match="polynomial outer"):
        ev("(compose f k)", env)
    assert ev("(compose f k :poly)", env).coefficient(0, (0,)) == 6.0


def test_curry_uncurry_eval():
    env = {"f": ev("(series :dom 2 :cod 1 :deg 3 {(2 1) -> 4})")}
    c = ev("(curry f 1)", env)
    assert isinstance(c, ca.CurriedSeries)
    out = ev("(eval (curry f 1) [2 0] [3 0])", env)
    np.testing.assert_allclose(out, [4 * 4 * 3])
    back = ev("(uncurry (curry f 1))", env)
    np.testing.assert_array_equal(back.coeffs, env["f"].coeffs)
    with pytest.raises(EvalError, match="uncurry expects a curried series"):
        ev("(uncurry f)", env)


@pytest.mark.parametrize(
    "nx, ny, message",
    [
        (2, 2, "outer point has dimension 2, expected 1"),
        (1, 3, "inner point has dimension 3, expected 2"),
    ],
)
def test_a_curried_evaluation_checks_each_point_against_its_own_block(nx, ny, message):
    # f on C^3 curried at 1: the outer point lives on C^1, the inner on C^2
    env = {"f": ev("(series :dom 3 :cod 1 :deg 2 {(1 1 0) -> 1})")}
    with pytest.raises(ValueError, match=message):
        ca.curry(env["f"], 1).evaluate(np.ones(nx), np.ones(ny))
    x, y = ("[" + " ".join(["1 0"] * n) + "]" for n in (nx, ny))
    with pytest.raises(EvalError, match=f"line 1, col 1: {message}"):
        ev(f"(eval (curry f 1) {x} {y})", env)


def test_diff_forms():
    env = {"f": ev("(series :dom 2 :cod 1 :deg 3 {(2 1) -> 1})")}
    d0 = ev("(diff f 0)", env)
    assert d0.coefficient(0, (1, 1)) == 2.0
    full = ev("(diff f)", env)
    assert full.codomain.dim == 2  # rows (j, i) for the 1x2 jacobian
    with pytest.raises(EvalError, match="coordinate"):
        ev("(diff f 5)", env)


def test_distribution_ops():
    d = ev("(conv (dirac [1 0] 3) (dirac [1 0] 3))")
    np.testing.assert_allclose(d.coeffs, [1, 2, 4, 8])
    out = ev("(eval (theta 1 [1 0] 2) (series :dom 1 :cod 1 :deg 2 {(1) -> 7}))")
    np.testing.assert_allclose(out, [7.0])
    c = ev("(coder [0 1] 2)")
    assert c.coefficient((1,)) == 1j
    with pytest.raises(EvalError, match="order"):
        ev("(theta 5 [1 0] 2)")


def test_bang_hat_check():
    env = {"f": ev("(series :dom 1 :cod 1 :deg 2 {(1) -> 2})")}
    b = ev("(bang f 2)", env)
    assert isinstance(b, xp.LinearOperator)
    np.testing.assert_allclose(b.matrix, np.diag([1, 2, 4]))
    h = ev("(hat f)", env)
    back = ev("(check (hat f))", env)
    np.testing.assert_array_equal(back.coeffs, env["f"].coeffs)
    np.testing.assert_allclose(ev("(eval (hat f) (dirac [3 0] 2))", env), [6.0])
    assert h.target.dim == 1
    with pytest.raises(EvalError, match="check expects a linear operator"):
        ev("(check f)", env)


def test_arithmetic_ops():
    env = {
        "f": ev("(series :dom 1 :cod 1 :deg 2 {(1) -> 1})"),
        "g": ev("(series :dom 1 :cod 1 :deg 2 {(2) -> 3})"),
    }
    assert ev("(add f g)", env).coefficient(0, (2,)) == 3.0
    assert ev("(scale [0 1] f)", env).coefficient(0, (1,)) == 1j
    assert ev("(mul f f)", env).coefficient(0, (2,)) == 1.0
    np.testing.assert_array_equal(ev("(add [1 0] [0 1])"), [1 + 1j])
    with pytest.raises(EvalError, match="add expects"):
        ev("(add f (dirac [1 0] 2))", env)
    with pytest.raises(EvalError, match="scale: factor must be a scalar"):
        ev("(scale [1 0 0 1] f)", env)


@pytest.mark.parametrize(
    "text, message",
    [
        # a wrong kind, by the table: at the argument
        (
            "(scale 2 (curry (series :dom 2 :cod 1 :deg 2 {(1 1) -> 1}) 1))",
            "line 1, col 10: scale expects a series, distribution or vector as its second argument",
        ),
        ("(add f c)", "line 1, col 8: add expects a series, distribution or vector as its second argument"),
        ("(scale f f)", "line 1, col 8: scale expects a vector as its factor"),
        # a value error of add or scale: at the form
        ("(add f (dirac [1 0] 2))", "line 1, col 1: add expects two series, two distributions or two vectors"),
        ("(add [1 0] [1 0 0 1])", "line 1, col 1: add: vector lengths differ"),
        ("(scale [1 0 0 1] f)", "line 1, col 1: scale: factor must be a scalar ([re im] pair or number)"),
        ("(add f (series :dom 1 :cod 1 :deg 3 {}))", "line 1, col 1: series shapes differ: cannot add"),
    ],
)
def test_add_and_scale_follow_the_argument_kind_rule(text, message):
    env = {
        "f": ev("(series :dom 1 :cod 1 :deg 2 {(1) -> 1})"),
        "c": ev("(curry (series :dom 2 :cod 1 :deg 2 {(1 1) -> 1}) 1)"),
    }
    with pytest.raises(EvalError) as err:
        ev(text, env)
    assert str(err.value) == message


def test_eval_dispatch_errors():
    with pytest.raises(EvalError, match="eval of a series expects 1"):
        ev("(eval (series :dom 1 :cod 1 :deg 1 {(1) -> 1}) [1 0] [1 0])")
    with pytest.raises(EvalError, match="applies a series"):
        ev("(eval [1 0] [1 0])")


def test_let_scoping():
    env, last = evaluate_program(parse_program("(let two 2) (scale two [1 0])"))
    assert "two" in env
    np.testing.assert_array_equal(last, [2 + 0j])
    with pytest.raises(EvalError, match="top level"):
        evaluate_program(parse_program("(add (let x 1) 2)"))
    with pytest.raises(EvalError, match=r"let looks like \(let name term\)"):
        evaluate_program(parse_program("(let 3 4)"))


def test_unknown_names_carry_location():
    with pytest.raises(EvalError, match="line 2, col 6: unknown name 'mystery'"):
        evaluate_program(parse_program("1\n(hat mystery)"))
    with pytest.raises(EvalError, match="unknown operation 'frobnicate'"):
        ev("(frobnicate 1)")


def test_arity_messages():
    with pytest.raises(EvalError, match="compose expects 2 arguments, got 1"):
        ev("(compose f)", {"f": None})
    with pytest.raises(EvalError, match="diff expects 1..2 arguments, got 3"):
        ev("(diff a b c)")


# -- JSON rendering ----------------------------------------------------------


def test_value_json_kinds():
    env = {"f": ev("(series :dom 1 :cod 1 :deg 2 {(1) -> 1})")}
    cases = {
        "vector": ev("[1 0]"),
        "series": env["f"],
        "curried": ev("(curry (series :dom 2 :cod 1 :deg 2 {(1 1) -> 1}) 1)"),
        "distribution": ev("(dirac [1 0] 2)"),
        "operator": ev("(hat f)", env),
    }
    for kind, value in cases.items():
        assert value_to_json_dict(value)["kind"] == kind
        assert kind == "vector" or type(value)._kind == kind
    with pytest.raises(TypeError, match="no JSON form"):
        value_to_json_dict(object())


def test_vector_json_is_re_im_pairs():
    data = value_to_json_dict(ev("[1.5 -2]"))
    assert data == {"kind": "vector", "values": [[1.5, -2.0]]}


# -- shipped examples --------------------------------------------------------


def test_theta_example_file():
    env, last = evaluate_program(parse_program(EXAMPLES.joinpath("theta.dsl").read_text()))
    np.testing.assert_allclose(last, [6.0 + 0j], atol=1e-13)


def test_compose_example_file():
    env, last = evaluate_program(parse_program(EXAMPLES.joinpath("compose.dsl").read_text()))
    np.testing.assert_allclose(last.coeffs, [[0, 0, 1, 2, 1]], atol=1e-13)


def test_convolution_example_file():
    env, last = evaluate_program(
        parse_program(EXAMPLES.joinpath("convolution.dsl").read_text())
    )
    np.testing.assert_allclose(last.coeffs, [1, 2, 4, 8], atol=1e-13)


def test_examples_format_cleanly():
    for name in ("theta.dsl", "compose.dsl", "convolution.dsl"):
        forms = parse_program(EXAMPLES.joinpath(name).read_text())
        printed = format_program(forms)
        assert parse_program(printed) == forms


# -- documentation -----------------------------------------------------------


def test_documented_operations_match_the_tables():
    ops = set(dsl._OPS) | {"eval"}  # eval has its own table
    listed = re.search(r"Operations:(.*?)\.", dsl.__doc__, re.S).group(1)
    assert set(re.findall(r"[a-z]+", listed)) == ops
    readme = ROOT.joinpath("README.md").read_text()
    section = readme.split("## Term language", 1)[1].split("\n## ", 1)[0]
    listed = re.search(r"Operations:(.*?)\.", section, re.S).group(1)
    assert set(re.findall(r"`([a-z]+)`", listed)) == ops
    for name in ops:
        with pytest.raises(EvalError) as err:
            ev(f"({name})")
        assert "unknown operation" not in str(err.value)


# -- fuzz: malformed input is a ParseError or EvalError, never anything else --
#
# Bases stay at dimension <= 3 and degree <= 4, so each example runs in
# milliseconds.  Oversize bases, such as (series :dom 40 :cod 1 :deg 8 {}),
# still hang and are not generated here.

_PRELUDE = """
(let f (series :dom 1 :cod 1 :deg 3 {(1) -> 2 (2) -> [0 1]}))
(let g (series :dom 2 :cod 2 :deg 3 {(1 0) -> 1} {(0 1) -> 1 (1 1) -> 2}))
(let c (curry (series :dom 2 :cod 1 :deg 2 {(1 1) -> 1}) 1))
(let d (dirac [1 0] 3))
(let o (hat f))
(let v [1 0 0 1])
"""
_HEADS = sorted(dsl._OPS) + ["eval", "series", "let", "nobody"]
_NAMES = st.sampled_from(["f", "g", "c", "d", "o", "v", "h", "nobody"])


@st.composite
def _series_literals(draw):
    dom, cod, deg = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 4))
    key = st.lists(st.integers(0, 2), min_size=dom, max_size=dom)
    value = st.sampled_from(["1", "-0.5", "[0 1]"])
    maps = []
    for _ in range(cod):
        entries = draw(st.lists(st.tuples(key, value), max_size=3, unique_by=lambda e: tuple(e[0])))
        maps.append("{" + " ".join(f"({' '.join(map(str, k))}) -> {x}" for k, x in entries) + "}")
    return f"(series :dom {dom} :cod {cod} :deg {deg} {' '.join(maps)})"


_LITERALS = st.one_of(
    st.integers(-1, 4).map(str),
    st.sampled_from(["0.5", "-1.5", "1e308", ":poly", ":dom", ":cod", ":deg", "{(1) -> 1}"]),
    st.lists(st.sampled_from(["0 1", "1 0", "-0.5 2"]), max_size=3).map(
        lambda xs: "[" + " ".join(xs) + "]"
    ),
    _series_literals(),
)


def _terms(depth):
    """A name (bound or not), a literal, or an operation nested up to `depth`."""
    if depth == 0:
        return st.one_of(_NAMES, _LITERALS)
    return st.one_of(_NAMES, _LITERALS, _operations(depth))


# Names bound by the prelude, by type; None stands for an integer literal.
_OF_TYPE = {
    TruncatedSeries: ["f", "g"],
    ca.CurriedSeries: ["c"],
    xp.Distribution: ["d"],
    xp.LinearOperator: ["o"],
    np.ndarray: ["v", "[1 0]"],
    None: ["0", "2", "4"],
}


def _argument_types(head):
    """The types each argument of `head` may have, as the tables give them."""
    if head in dsl._OPS:
        return [kind[1] or (None,) for _, kind in dsl._OPS[head][1]]
    if head == "eval":
        return [tuple(dsl._EVAL), tuple(_OF_TYPE)]
    return [tuple(_OF_TYPE)] * 2  # series, let and an unknown head


_ANY_NAME = st.sampled_from([n for names in _OF_TYPE.values() for n in names])


def _operations(depth):
    """(head arg ...): an argument is a name of a type the head accepts, any
    bound name, or any term; two times in five the count is off by one."""

    def form(head):
        inner = _terms(depth - 1)
        hints = [
            st.one_of(st.sampled_from([n for t in types for n in _OF_TYPE[t]]), _ANY_NAME, inner)
            for types in _argument_types(head)
        ]
        count = st.sampled_from([len(hints)] * 3 + [len(hints) - 1, len(hints) + 1])
        args = count.flatmap(lambda n: st.tuples(*(hints + [inner])[:n]))
        return args.map(lambda xs: "(" + " ".join([head, *xs]) + ")")

    return st.sampled_from(_HEADS).flatmap(form)


_PROGRAMS = st.lists(
    st.one_of(*[_operations(4)] * 3, _operations(3).map(lambda t: f"(let h {t})")),
    min_size=1,
    max_size=2,
)


@settings(max_examples=150, deadline=None)
@given(_PROGRAMS)
@example(["(eval o f)"])  # each of these once exited 2 with a TypeError
@example(["(eval (bang f 2) f)"])
@example(["(eval o c)"])
# C(48, 8) coefficients: these once ran for minutes, then hit a MemoryError
@example(["(series :dom 40 :cod 1 :deg 8 {})"])
@example(["(dirac [" + "0 " * 80 + "] 8)"])
# a 3003 x 3003 promotion matrix: it once ran for 12 s and built 144 MB
@example(["(bang (series :dom 6 :cod 6 :deg 8 {(1 0 0 0 0 0) -> 1} {} {} {} {} {}) 8)"])
# x_0 times x_0 on C^16: the full degree-8 pair table, 76 904 685 pairs, once
# raised a MemoryError; the operands reach degree 1 only
@example(["(let x (series :dom 16 :cod 1 :deg 8 {(1" + " 0" * 15 + ") -> 1}))", "(mul x x)"])
def test_fuzz_terms_raise_only_parse_or_eval_errors(forms):
    text = _PRELUDE + "\n".join(forms)
    try:
        evaluate_program(parse_program(text))
    except (ParseError, EvalError):
        pass


# Any JSON value.  Integers stay small, so that most drawn files get past
# their header; the oversize headers, which the size budget refuses before
# anything is allocated, are among the examples below.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_MISSING = object()

_SERIES_DOC = {
    "domain_dim": 2,
    "codomain_dim": 2,
    "degree": 3,
    "coeffs": [
        {"out": 0, "alpha": [1, 0], "re": 1.5, "im": -0.5},
        {"out": 1, "alpha": [0, 2], "re": 1.0},
    ],
}
_DIST_DOC = {
    "dim": 2,
    "degree": 3,
    "coeffs": [{"alpha": [1, 0], "re": 1.5, "im": -0.5}, {"alpha": [0, 2], "re": 1.0}],
}


def _locations(doc, path=()):
    """Every path into `doc`, its root included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _locations(value, path + (key,))


_TARGETS = [
    (load, doc, path)
    for load, doc in [
        (TruncatedSeries.from_json_dict, _SERIES_DOC),
        (xp.Distribution.from_json_dict, _DIST_DOC),
    ]
    for path in _locations(doc)
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_TARGETS), _JSON | st.just(_MISSING))
# a negative dimension once reached numpy's reshape or allocation, and a
# distribution's coefficient vector was once allocated before the degree cap
@example((TruncatedSeries.from_json_dict, _SERIES_DOC, ("domain_dim",)), -1)
@example((TruncatedSeries.from_json_dict, _SERIES_DOC, ("codomain_dim",)), -1)
@example((xp.Distribution.from_json_dict, _DIST_DOC, ("dim",)), -1)
@example((TruncatedSeries.from_json_dict, _SERIES_DOC, ("degree",)), 3000)
@example((xp.Distribution.from_json_dict, _DIST_DOC, ("degree",)), 3000)
# a table past the size budget was once allocated (1.6 GB here) before any check
@example((TruncatedSeries.from_json_dict, _SERIES_DOC, ("codomain_dim",)), 10**7)
def test_fuzz_json_loaders_raise_only_value_errors(target, value):
    # one field, list, item or exponent of a valid file is replaced or removed
    load, doc, path = target
    data = copy.deepcopy(doc)
    if not path:
        data = value
    else:
        parent = functools.reduce(lambda node, key: node[key], path[:-1], data)
        if value is _MISSING:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    try:
        load(data)
    except ValueError:
        pass
