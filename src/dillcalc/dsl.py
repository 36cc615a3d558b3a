"""S-expression term language over the series calculus.

Grammar sketch (commas count as whitespace, ';' comments to end of line):

    program  := form*
    form     := (let NAME term) | term
    term     := number | vector | symbol | (op term*) | coeffmap
    vector   := '[' number* ']'          ; even count, (re im) pairs
    coeffmap := '{' (INDEX -> value)* '}'
    INDEX    := '(' int* ')'

A vector literal is a complex vector given as flattened (re, im) pairs, so
[1 0] is the complex scalar 1 and [1 0 0 1] is (1, i).  Series are written

    (series :dom 2 :cod 1 :deg 3 {(2 0) -> 1.0 (0 1) -> [0 1]})

with one coefficient map per output component.  Operations: compose, curry,
uncurry, diff, eval, dirac, theta, conv, coder, bang, hat, check, add, scale,
mul.  `eval` applies whatever its first argument is: a series or curried
series to point vectors, a distribution to a series, an operator to a
distribution or coordinate vector.  `let` is only allowed at the top level.

Errors: an argument of the wrong kind is an EvalError at that argument, for
add and scale too.  A calculus error (a ValueError), such as adding a series
to a distribution, and a result that leaves the float range are an EvalError
at the form that raised it, and nowhere else.  The CLI's compose, curry and
diff apply their op to series read from JSON through `apply_op` too.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from . import calculus as ca
from . import exponential as xp
from .series import TruncatedSeries
# the reader and formatter, re-exported so that `dsl` is the whole term language
from .syntax import (
    MAX_NESTING,
    CoeffMap,
    EvalError,
    ListForm,
    Node,
    Num,
    ParseError,
    Sym,
    Vec,
    format_program,
    format_term,
    parse,
    parse_program,
    tokenize,
)

# ---------------------------------------------------------------------------
# evaluation

Value = Union[np.ndarray, TruncatedSeries, ca.CurriedSeries, xp.Distribution, xp.LinearOperator]


def _vec_to_complex(node: Vec) -> np.ndarray:
    flat = np.asarray(node.values, dtype=np.float64)
    return flat[0::2] + 1j * flat[1::2]


def _loc(node: Node) -> Tuple[int, int]:
    return getattr(node, "line", 0), getattr(node, "col", 0)


def _want_int(node: Node, message: str) -> int:
    if isinstance(node, Num) and isinstance(node.value, int):
        return node.value
    raise EvalError(message, *_loc(node))


def _coeffmap_terms(out: int, cmap: CoeffMap, dom: int) -> Dict[tuple, complex]:
    terms: Dict[tuple, complex] = {}
    for key, val in cmap.entries:
        if len(key) != dom:
            raise EvalError(
                f"multi-index {key} has {len(key)} entries, domain dimension is {dom}",
                *_loc(cmap),
            )
        if isinstance(val, Num):
            c = complex(val.value)
        else:
            arr = _vec_to_complex(val)
            if arr.size != 1:
                raise EvalError("coefficient values are single complex numbers", *_loc(val))
            c = complex(arr[0])
        if (out, key) in terms:
            raise EvalError(f"repeated multi-index {key} in a coefficient map", *_loc(cmap))
        terms[(out, key)] = c
    return terms


def _arity(args, low: int, high: int, name: str, node: ListForm) -> None:
    if not low <= len(args) <= high:
        wanted = str(low) if high == low else f"{low}..{high}"
        raise EvalError(f"{name} expects {wanted} arguments, got {len(args)}", *_loc(node))


# An argument kind is a name for messages and the value types an evaluated
# argument must have; _INT instead takes an integer literal as written.
_INT = ("an integer literal", None)
_VECTOR = ("a vector", (np.ndarray,))
_SERIES = ("a series", (TruncatedSeries,))
_CURRIED = ("a curried series", (ca.CurriedSeries,))
_DIST = ("a distribution", (xp.Distribution,))
_OPERATOR = ("a linear operator", (xp.LinearOperator,))
_DIST_OR_VECTOR = ("a distribution or coordinate vector", (xp.Distribution, np.ndarray))
_LINEAR = ("a series, distribution or vector", (TruncatedSeries, xp.Distribution, np.ndarray))


def _op(fn, *specs, required: Optional[int] = None):
    """A table entry: the function, its (role, kind) argument specs, and how
    many leading specs are required (all of them unless given)."""
    return fn, specs, len(specs) if required is None else required


def _diff(f: TruncatedSeries, coord: Optional[int] = None) -> TruncatedSeries:
    return ca.derivative_series(f) if coord is None else f.partial_derivative(coord)


def _add(a, b):
    if type(a) is not type(b):
        raise ValueError("add expects two series, two distributions or two vectors")
    if isinstance(a, np.ndarray) and a.size != b.size:
        raise ValueError("add: vector lengths differ")
    return a + b


def _scale(factor: np.ndarray, value):
    if factor.size != 1:
        raise ValueError("scale: factor must be a scalar ([re im] pair or number)")
    return complex(factor[0]) * value


_OPS = {
    "compose": _op(ca.compose, ("first argument", _SERIES), ("second argument", _SERIES)),
    "curry": _op(ca.curry, ("first argument", _SERIES), ("split position", _INT)),
    "uncurry": _op(ca.uncurry, ("argument", _CURRIED)),
    "diff": _op(_diff, ("first argument", _SERIES), ("coordinate", _INT), required=1),
    "dirac": _op(xp.dirac, ("point", _VECTOR), ("degree", _INT)),
    "theta": _op(xp.theta, ("order", _INT), ("point", _VECTOR), ("degree", _INT)),
    "conv": _op(xp.convolve, ("first argument", _DIST), ("second argument", _DIST)),
    "coder": _op(xp.codereliction, ("direction", _VECTOR), ("degree", _INT)),
    "bang": _op(xp.bang_map, ("first argument", _SERIES), ("degree", _INT)),
    "hat": _op(xp.series_to_operator, ("argument", _SERIES)),
    "check": _op(xp.operator_to_series, ("argument", _OPERATOR)),
    "add": _op(_add, ("first argument", _LINEAR), ("second argument", _LINEAR)),
    "scale": _op(_scale, ("factor", _VECTOR), ("second argument", _LINEAR)),
    "mul": _op(
        TruncatedSeries.pointwise_multiply,
        ("first argument", _SERIES),
        ("second argument", _SERIES),
    ),
}

# `eval` applies its first argument to the rest, by the type of that value.
_EVAL = {
    TruncatedSeries: ("a series", _op(TruncatedSeries.evaluate, ("point", _VECTOR))),
    ca.CurriedSeries: (
        "a curried series",
        _op(ca.CurriedSeries.evaluate, ("outer point", _VECTOR), ("inner point", _VECTOR)),
    ),
    xp.Distribution: ("a distribution", _op(xp.Distribution.apply, ("argument", _SERIES))),
    xp.LinearOperator: (
        "an operator", _op(xp.LinearOperator.__call__, ("argument", _DIST_OR_VECTOR))
    ),
}


def evaluate_term(node: Node, env: Optional[Dict[str, Value]] = None) -> Value:
    env = env if env is not None else {}
    if isinstance(node, Num):
        return np.array([complex(node.value)])
    if isinstance(node, Vec):
        return _vec_to_complex(node)
    if isinstance(node, Sym):
        if node.name in env:
            return env[node.name]
        raise EvalError(f"unknown name {node.name!r}", *_loc(node))
    if isinstance(node, CoeffMap):
        raise EvalError("coefficient maps only appear inside (series ...)", *_loc(node))
    if not isinstance(node, ListForm) or not node.items:
        raise EvalError("empty form", *_loc(node))
    head = node.items[0]
    if not isinstance(head, Sym):
        raise EvalError("a form starts with an operation name", *_loc(node))
    # a calculus error or an overflow (`apply_op`) is reported at the form
    # where it happens; an EvalError from a nested form already carries its
    # location
    try:
        return _evaluate_form(node, head.name, node.items[1:], env)
    except EvalError:
        raise
    except ValueError as exc:
        raise EvalError(str(exc), *_loc(node)) from exc


def _finite_result(op: str, value):
    """`value`, or one `<op>: result is outside the float range` error if a
    number it stores (an operator: its stored entries) is not finite."""
    stored = value.entries()[2] if isinstance(value, xp.LinearOperator) else value
    stored = getattr(stored, "coeffs", stored)
    if not np.isfinite(stored).all():
        raise ValueError(f"{op}: result is outside the float range")
    return value


def apply_op(op: str, *values, **kwargs) -> Value:
    """The `_OPS` row `op` (eval: the `_EVAL` row of the first value's type)
    applied to evaluated values under the overflow rule: a non-finite result
    is one ValueError naming `op`, not numpy warnings and a JSON error."""
    fn = _EVAL[type(values[0])][1][0] if op == "eval" else _OPS[op][0]
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_result(op, fn(*values, **kwargs))


def _evaluate_form(node: ListForm, op: str, args, env: Dict[str, Value]) -> Value:
    if op == "let":
        raise EvalError("let is only allowed at the top level", *_loc(node))

    if op == "series":
        return _eval_series_literal(node, args)  # the reader refuses non-finite numbers

    values, kwargs, name = [], {}, op
    if op == "eval":
        if not args:
            raise EvalError("eval expects at least 2 arguments", *_loc(node))
        target = evaluate_term(args[0], env)
        if type(target) not in _EVAL:
            raise EvalError(
                "eval applies a series, curried series, distribution or operator", *_loc(node)
            )
        what, (_, specs, required) = _EVAL[type(target)]
        name, args, values = f"eval of {what}", args[1:], [target]
    else:
        if op == "compose" and args and args[-1] == Sym(":poly"):
            args, kwargs = args[:-1], {"outer_polynomial": True}
        if op not in _OPS:
            raise EvalError(f"unknown operation {op!r}", *_loc(node))
        _, specs, required = _OPS[op]
    _arity(args, required, len(specs), name, node)
    # a plain loop, so a nested argument costs two frames (this one and
    # evaluate_term's) and MAX_NESTING levels stay inside the recursion limit
    for (role, (what, types)), arg in zip(specs, args):
        message = f"{name} expects {what} as its {role}"
        if types is None:
            values.append(_want_int(arg, message))
            continue
        value = evaluate_term(arg, env)
        if not isinstance(value, types):
            raise EvalError(message, *_loc(arg))
        values.append(value)
    return apply_op(op, *values, **kwargs)


def _eval_series_literal(node: ListForm, args) -> TruncatedSeries:
    dom = cod = deg = None
    maps: List[CoeffMap] = []
    i = 0
    while i < len(args):
        item = args[i]
        if isinstance(item, Sym) and item.name in (":dom", ":cod", ":deg"):
            if i + 1 >= len(args):
                raise EvalError(f"{item.name} needs a value", *_loc(item))
            v = _want_int(args[i + 1], f"{item.name} must be an integer literal")
            if item.name == ":dom":
                dom = v
            elif item.name == ":cod":
                cod = v
            else:
                deg = v
            i += 2
            continue
        if isinstance(item, CoeffMap):
            maps.append(item)
            i += 1
            continue
        raise EvalError("series takes :dom :cod :deg and coefficient maps", *_loc(item))
    if dom is None or cod is None or deg is None:
        raise EvalError("series needs :dom, :cod and :deg", *_loc(node))
    if len(maps) != cod:
        raise EvalError(
            f"series with :cod {cod} needs {cod} coefficient maps, got {len(maps)}",
            *_loc(node),
        )
    terms: Dict[tuple, complex] = {}
    for out, cmap in enumerate(maps):
        terms.update(_coeffmap_terms(out, cmap, dom))
    return TruncatedSeries.from_terms(dom, cod, deg, terms)


def evaluate_program(forms: List[Node]) -> Tuple[Dict[str, Value], Optional[Value]]:
    env: Dict[str, Value] = {}
    last: Optional[Value] = None
    for form in forms:
        if (
            isinstance(form, ListForm)
            and form.items
            and isinstance(form.items[0], Sym)
            and form.items[0].name == "let"
        ):
            if len(form.items) != 3 or not isinstance(form.items[1], Sym):
                raise EvalError("let looks like (let name term)", *_loc(form))
            env[form.items[1].name] = evaluate_term(form.items[2], env)
            continue
        last = evaluate_term(form, env)
    return env, last


# ---------------------------------------------------------------------------
# JSON rendering of values


def value_to_json_dict(value: Value) -> dict:
    if isinstance(value, np.ndarray):
        return {
            "kind": "vector",
            "values": [[v.real, v.imag] for v in value.tolist()],
        }
    if isinstance(value, tuple(_EVAL)):  # the value classes, each naming its kind
        return {"kind": value._kind, **value.to_json_dict()}
    raise TypeError(f"no JSON form for {type(value).__name__}")


def value_to_json(value: Value) -> str:
    return json.dumps(value_to_json_dict(value), allow_nan=False)
