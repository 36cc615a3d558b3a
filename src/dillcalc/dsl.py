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

Errors: an argument of the wrong kind is an EvalError at that argument.  A
calculus error (a ValueError) and a result that leaves the float range are
an EvalError at the form that raised it, and nowhere else.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from . import calculus as ca
from . import exponential as xp
from .series import TruncatedSeries


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class EvalError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        where = f"line {line}, col {col}: " if line else ""
        super().__init__(f"{where}{message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class Num:
    value: Union[int, float]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Sym:
    name: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Vec:
    values: Tuple[Union[int, float], ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CoeffMap:
    entries: Tuple[Tuple[Tuple[int, ...], Union[Num, Vec]], ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ListForm:
    items: Tuple["Node", ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


Node = Union[Num, Sym, Vec, CoeffMap, ListForm]


# ---------------------------------------------------------------------------
# tokenizer and reader

# Deepest nesting of (), [] and {} the recursive reader accepts.  Evaluation
# and formatting take two Python frames per level, so input within it stays
# well inside Python's default recursion limit.
MAX_NESTING = 200

_NUM_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_SYM_RE = re.compile(r"[A-Za-z_:][A-Za-z0-9_\-]*")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[_Token]:
    out: List[_Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r,":
            i += 1
            col += 1
            continue
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in "()[]{}":
            out.append(_Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if text.startswith("->", i):
            out.append(_Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        m = _NUM_RE.match(text, i)
        if m and (c.isdigit() or (c in "+-." and len(m.group()) > 1)):
            out.append(_Token("num", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _SYM_RE.match(text, i)
        if m:
            out.append(_Token("sym", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    out.append(_Token("eof", "", line, col))
    return out


def _num_value(tok: _Token) -> Union[int, float]:
    """The value of a number token.  A literal past the float range, or with
    more digits than int() reads, is refused here with its location rather
    than flowing on as infinity."""
    try:
        value = int(tok.text) if re.fullmatch(r"[+-]?\d+", tok.text) else float(tok.text)
        if math.isfinite(value):  # an int past the float range overflows here
            return value
    except (OverflowError, ValueError):  # ValueError: too many digits for int()
        pass
    shown = tok.text if len(tok.text) <= 24 else tok.text[:20] + "..."
    raise ParseError(f"number {shown!r} is out of range", tok.line, tok.col)


class _Reader:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def read_form(self, depth: int = 0) -> Node:
        tok = self.next()
        if depth >= MAX_NESTING and tok.kind in ("(", "[", "{"):
            raise ParseError(f"forms nest deeper than {MAX_NESTING} levels", tok.line, tok.col)
        if tok.kind == "num":
            return Num(_num_value(tok), tok.line, tok.col)
        if tok.kind == "sym":
            return Sym(tok.text, tok.line, tok.col)
        if tok.kind == "(":
            items = []
            while self.peek().kind != ")":
                if self.peek().kind == "eof":
                    raise ParseError("unclosed '('", tok.line, tok.col)
                items.append(self.read_form(depth + 1))
            self.next()
            return ListForm(tuple(items), tok.line, tok.col)
        if tok.kind == "[":
            values = []
            while self.peek().kind != "]":
                inner = self.next()
                if inner.kind != "num":
                    raise ParseError(
                        f"vector literals hold numbers, found {inner.text!r}",
                        inner.line,
                        inner.col,
                    )
                values.append(_num_value(inner))
            self.next()
            if len(values) % 2:
                raise ParseError(
                    "vector literal needs an even number of entries ((re im) pairs)",
                    tok.line,
                    tok.col,
                )
            return Vec(tuple(values), tok.line, tok.col)
        if tok.kind == "{":
            entries = []
            while self.peek().kind != "}":
                key_tok = self.peek()
                key = self.read_form(depth + 1)
                if not isinstance(key, ListForm) or not all(
                    isinstance(x, Num) and isinstance(x.value, int) for x in key.items
                ):
                    raise ParseError(
                        "coefficient keys are integer multi-indices like (2 0)",
                        key_tok.line,
                        key_tok.col,
                    )
                self.expect("->")
                val = self.read_form(depth + 1)
                if not isinstance(val, (Num, Vec)):
                    raise ParseError(
                        "coefficient values are numbers or [re im] pairs",
                        key_tok.line,
                        key_tok.col,
                    )
                entries.append((tuple(x.value for x in key.items), val))
            self.next()
            return CoeffMap(tuple(entries), tok.line, tok.col)
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)


def parse(text: str) -> Node:
    reader = _Reader(tokenize(text))
    form = reader.read_form()
    trailing = reader.peek()
    if trailing.kind != "eof":
        raise ParseError(f"trailing input {trailing.text!r}", trailing.line, trailing.col)
    return form


def parse_program(text: str) -> List[Node]:
    reader = _Reader(tokenize(text))
    forms = []
    while reader.peek().kind != "eof":
        forms.append(reader.read_form())
    return forms


# ---------------------------------------------------------------------------
# formatter


def _fmt_num(v: Union[int, float]) -> str:
    if isinstance(v, int):
        return str(v)
    s = format(v, ".17g")
    if not any(ch in s for ch in ".eE") and "inf" not in s and "nan" not in s:
        s += ".0"
    return s


def format_term(node: Node) -> str:
    if isinstance(node, Num):
        return _fmt_num(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, Vec):
        return "[" + " ".join(_fmt_num(v) for v in node.values) + "]"
    if isinstance(node, CoeffMap):
        parts = []
        for key, val in node.entries:
            parts.append("(" + " ".join(str(k) for k in key) + ") -> " + format_term(val))
        return "{" + " ".join(parts) + "}"
    if isinstance(node, ListForm):
        return "(" + " ".join(format_term(x) for x in node.items) + ")"
    raise TypeError(f"not a term node: {node!r}")


def format_program(forms: List[Node]) -> str:
    return "\n".join(format_term(f) for f in forms) + "\n"


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


def _op(fn, *specs, required: Optional[int] = None):
    """A table entry: the function, its (role, kind) argument specs, and how
    many leading specs are required (all of them unless given)."""
    return fn, specs, len(specs) if required is None else required


def _diff(f: TruncatedSeries, coord: Optional[int] = None) -> TruncatedSeries:
    return ca.derivative_series(f) if coord is None else f.partial_derivative(coord)


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
    op = head.name
    # a calculus error or an overflow is reported at the form where it
    # happens, not as a numpy warning followed by a JSON error far from its
    # source; an EvalError from a nested form already carries its location
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return ca._finite_result(op, _apply_op(node, op, node.items[1:], env))
        except EvalError:
            raise
        except ValueError as exc:
            raise EvalError(str(exc), *_loc(node)) from exc


def _apply_op(node: ListForm, op: str, args, env: Dict[str, Value]) -> Value:
    if op == "let":
        raise EvalError("let is only allowed at the top level", *_loc(node))

    if op == "series":
        return _eval_series_literal(node, args)

    if op == "add":
        _arity(args, 2, 2, "add", node)
        a = evaluate_term(args[0], env)
        b = evaluate_term(args[1], env)
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            if a.size != b.size:
                raise EvalError("add: vector lengths differ", *_loc(node))
            return a + b
        if type(a) is type(b) and isinstance(a, (TruncatedSeries, xp.Distribution)):
            return a.add(b)
        raise EvalError("add expects two series, two distributions or two vectors", *_loc(node))

    if op == "scale":
        _arity(args, 2, 2, "scale", node)
        c = evaluate_term(args[0], env)
        if not (isinstance(c, np.ndarray) and c.size == 1):
            raise EvalError(
                "scale: factor must be a scalar ([re im] pair or number)", *_loc(args[0])
            )
        c = complex(c[0])
        val = evaluate_term(args[1], env)
        if isinstance(val, (TruncatedSeries, xp.Distribution)):
            return val.scale(c)
        if isinstance(val, np.ndarray):
            return c * val
        raise EvalError("scale expects a series, distribution or vector", *_loc(node))

    values, kwargs = [], {}
    if op == "eval":
        if not args:
            raise EvalError("eval expects at least 2 arguments", *_loc(node))
        target = evaluate_term(args[0], env)
        if type(target) not in _EVAL:
            raise EvalError(
                "eval applies a series, curried series, distribution or operator", *_loc(node)
            )
        what, (fn, specs, required) = _EVAL[type(target)]
        op, args, values = f"eval of {what}", args[1:], [target]
    else:
        if op == "compose" and args and args[-1] == Sym(":poly"):
            args, kwargs = args[:-1], {"outer_polynomial": True}
        if op not in _OPS:
            raise EvalError(f"unknown operation {op!r}", *_loc(node))
        fn, specs, required = _OPS[op]
    _arity(args, required, len(specs), op, node)
    # a plain loop, so a nested argument costs two frames (this one and
    # evaluate_term's) and MAX_NESTING levels stay inside the recursion limit
    for (role, (what, types)), arg in zip(specs, args):
        message = f"{op} expects {what} as its {role}"
        if types is None:
            values.append(_want_int(arg, message))
            continue
        value = evaluate_term(arg, env)
        if not isinstance(value, types):
            raise EvalError(message, *_loc(arg))
        values.append(value)
    return fn(*values, **kwargs)


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
    if isinstance(value, TruncatedSeries):
        return {"kind": "series", **value.to_json_dict()}
    if isinstance(value, ca.CurriedSeries):
        return {"kind": "curried", **value.to_json_dict()}
    if isinstance(value, xp.Distribution):
        return {"kind": "distribution", **value.to_json_dict()}
    if isinstance(value, xp.LinearOperator):
        return {"kind": "operator", **value.to_json_dict()}
    raise TypeError(f"no JSON form for {type(value).__name__}")


def value_to_json(value: Value) -> str:
    return json.dumps(value_to_json_dict(value), allow_nan=False)
