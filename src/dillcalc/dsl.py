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
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from . import calculus as ca
from . import exponential as xp
from .series import TruncatedSeries, _float17


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


def _num_value(text: str) -> Union[int, float]:
    if re.fullmatch(r"[+-]?\d+", text):
        return int(text)
    return float(text)


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

    def read_form(self) -> Node:
        tok = self.next()
        if tok.kind == "num":
            return Num(_num_value(tok.text), tok.line, tok.col)
        if tok.kind == "sym":
            return Sym(tok.text, tok.line, tok.col)
        if tok.kind == "(":
            items = []
            while self.peek().kind != ")":
                if self.peek().kind == "eof":
                    raise ParseError("unclosed '('", tok.line, tok.col)
                items.append(self.read_form())
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
                values.append(_num_value(inner.text))
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
                key = self.read_form()
                if not isinstance(key, ListForm) or not all(
                    isinstance(x, Num) and isinstance(x.value, int) for x in key.items
                ):
                    raise ParseError(
                        "coefficient keys are integer multi-indices like (2 0)",
                        key_tok.line,
                        key_tok.col,
                    )
                self.expect("->")
                val = self.read_form()
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


def _want_int(node: Node, what: str) -> int:
    if isinstance(node, Num) and isinstance(node.value, int):
        return node.value
    raise EvalError(f"{what} must be an integer literal", *_loc(node))


def _want_scalar(value: Value, node: Node, what: str) -> complex:
    if isinstance(value, np.ndarray) and value.size == 1:
        return complex(value[0])
    raise EvalError(f"{what} must be a scalar ([re im] pair or number)", *_loc(node))


def _want_vector(value: Value, node: Node, what: str) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value
    raise EvalError(f"{what} must be a vector literal", *_loc(node))


def _want_series(value: Value, node: Node, what: str) -> TruncatedSeries:
    if isinstance(value, TruncatedSeries):
        return value
    raise EvalError(f"{what} must be a series", *_loc(node))


def _want_dist(value: Value, node: Node, what: str) -> xp.Distribution:
    if isinstance(value, xp.Distribution):
        return value
    raise EvalError(f"{what} must be a distribution", *_loc(node))


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
        terms[(out, key)] = terms.get((out, key), 0.0) + c
    return terms


def _arity(items, low: int, high: Optional[int], name: str, node: ListForm):
    got = len(items)
    top = high if high is not None else got
    if not low <= got <= top:
        wanted = str(low) if high == low else f"{low}..{'*' if high is None else high}"
        raise EvalError(f"{name} expects {wanted} arguments, got {got}", *_loc(node))


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
    args = node.items[1:]

    if op == "let":
        raise EvalError("let is only allowed at the top level", *_loc(node))

    if op == "series":
        return _eval_series_literal(node, args)

    if op == "compose":
        flag = False
        if args and isinstance(args[-1], Sym) and args[-1].name == ":poly":
            flag = True
            args = args[:-1]
        _arity(args, 2, 2, "compose", node)
        f = _want_series(evaluate_term(args[0], env), args[0], "compose: first argument")
        g = _want_series(evaluate_term(args[1], env), args[1], "compose: second argument")
        try:
            return ca.compose(f, g, outer_polynomial=flag)
        except ValueError as exc:
            raise EvalError(str(exc), *_loc(node)) from exc

    if op == "curry":
        _arity(args, 2, 2, "curry", node)
        f = _want_series(evaluate_term(args[0], env), args[0], "curry: first argument")
        split = _want_int(args[1], "curry: split position")
        try:
            return ca.curry(f, split)
        except ValueError as exc:
            raise EvalError(str(exc), *_loc(node)) from exc

    if op == "uncurry":
        _arity(args, 1, 1, "uncurry", node)
        c = evaluate_term(args[0], env)
        if not isinstance(c, ca.CurriedSeries):
            raise EvalError("uncurry expects a curried series", *_loc(node))
        return ca.uncurry(c)

    if op == "diff":
        _arity(args, 1, 2, "diff", node)
        f = _want_series(evaluate_term(args[0], env), args[0], "diff: argument")
        if len(args) == 2:
            coord = _want_int(args[1], "diff: coordinate")
            try:
                return f.partial_derivative(coord)
            except ValueError as exc:
                raise EvalError(str(exc), *_loc(node)) from exc
        return ca.derivative_series(f)

    if op == "eval":
        return _eval_apply(node, args, env)

    if op == "dirac":
        _arity(args, 2, 2, "dirac", node)
        x = _want_vector(evaluate_term(args[0], env), args[0], "dirac: point")
        deg = _want_int(args[1], "dirac: degree")
        return xp.dirac(x, deg)

    if op == "theta":
        _arity(args, 3, 3, "theta", node)
        order = _want_int(args[0], "theta: order")
        x = _want_vector(evaluate_term(args[1], env), args[1], "theta: point")
        deg = _want_int(args[2], "theta: degree")
        try:
            return xp.theta(order, x, deg)
        except ValueError as exc:
            raise EvalError(str(exc), *_loc(node)) from exc

    if op == "conv":
        _arity(args, 2, 2, "conv", node)
        d1 = _want_dist(evaluate_term(args[0], env), args[0], "conv: first argument")
        d2 = _want_dist(evaluate_term(args[1], env), args[1], "conv: second argument")
        try:
            return xp.convolve(d1, d2)
        except ValueError as exc:
            raise EvalError(str(exc), *_loc(node)) from exc

    if op == "coder":
        _arity(args, 2, 2, "coder", node)
        v = _want_vector(evaluate_term(args[0], env), args[0], "coder: direction")
        deg = _want_int(args[1], "coder: degree")
        try:
            return xp.codereliction(v, deg)
        except ValueError as exc:
            raise EvalError(str(exc), *_loc(node)) from exc

    if op == "bang":
        _arity(args, 2, 2, "bang", node)
        f = _want_series(evaluate_term(args[0], env), args[0], "bang: argument")
        deg = _want_int(args[1], "bang: degree")
        try:
            return xp.bang_map(f, deg)
        except ValueError as exc:
            raise EvalError(str(exc), *_loc(node)) from exc

    if op == "hat":
        _arity(args, 1, 1, "hat", node)
        f = _want_series(evaluate_term(args[0], env), args[0], "hat: argument")
        return xp.series_to_operator(f)

    if op == "check":
        _arity(args, 1, 1, "check", node)
        g = evaluate_term(args[0], env)
        if not isinstance(g, xp.LinearOperator):
            raise EvalError("check expects a linear operator", *_loc(node))
        try:
            return xp.operator_to_series(g)
        except ValueError as exc:
            raise EvalError(str(exc), *_loc(node)) from exc

    if op == "add":
        _arity(args, 2, 2, "add", node)
        a = evaluate_term(args[0], env)
        b = evaluate_term(args[1], env)
        try:
            if isinstance(a, TruncatedSeries) and isinstance(b, TruncatedSeries):
                return a.add(b)
            if isinstance(a, xp.Distribution) and isinstance(b, xp.Distribution):
                return a.add(b)
            if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
                if a.size != b.size:
                    raise EvalError("add: vector lengths differ", *_loc(node))
                return a + b
        except ValueError as exc:
            raise EvalError(str(exc), *_loc(node)) from exc
        raise EvalError("add expects two series, two distributions or two vectors", *_loc(node))

    if op == "scale":
        _arity(args, 2, 2, "scale", node)
        c = _want_scalar(evaluate_term(args[0], env), args[0], "scale: factor")
        val = evaluate_term(args[1], env)
        if isinstance(val, (TruncatedSeries, xp.Distribution)):
            return val.scale(c)
        if isinstance(val, np.ndarray):
            return c * val
        raise EvalError("scale expects a series, distribution or vector", *_loc(node))

    if op == "mul":
        _arity(args, 2, 2, "mul", node)
        f = _want_series(evaluate_term(args[0], env), args[0], "mul: first argument")
        g = _want_series(evaluate_term(args[1], env), args[1], "mul: second argument")
        try:
            return f.pointwise_multiply(g)
        except ValueError as exc:
            raise EvalError(str(exc), *_loc(node)) from exc

    raise EvalError(f"unknown operation {op!r}", *_loc(node))


def _eval_series_literal(node: ListForm, args) -> TruncatedSeries:
    dom = cod = deg = None
    maps: List[CoeffMap] = []
    i = 0
    while i < len(args):
        item = args[i]
        if isinstance(item, Sym) and item.name in (":dom", ":cod", ":deg"):
            if i + 1 >= len(args):
                raise EvalError(f"{item.name} needs a value", *_loc(item))
            v = _want_int(args[i + 1], item.name)
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
    try:
        return TruncatedSeries.from_terms(dom, cod, deg, terms)
    except ValueError as exc:
        raise EvalError(str(exc), *_loc(node)) from exc


def _eval_apply(node: ListForm, args, env) -> np.ndarray:
    if not args:
        raise EvalError("eval expects at least 2 arguments", *_loc(node))
    target = evaluate_term(args[0], env)
    rest = args[1:]
    try:
        if isinstance(target, TruncatedSeries):
            _arity(rest, 1, 1, "eval of a series", node)
            x = _want_vector(evaluate_term(rest[0], env), rest[0], "eval: point")
            return target.evaluate(x)
        if isinstance(target, ca.CurriedSeries):
            _arity(rest, 2, 2, "eval of a curried series", node)
            x = _want_vector(evaluate_term(rest[0], env), rest[0], "eval: outer point")
            y = _want_vector(evaluate_term(rest[1], env), rest[1], "eval: inner point")
            return target.evaluate(x, y)
        if isinstance(target, xp.Distribution):
            _arity(rest, 1, 1, "eval of a distribution", node)
            f = _want_series(evaluate_term(rest[0], env), rest[0], "eval: series")
            return target.apply(f)
        if isinstance(target, xp.LinearOperator):
            _arity(rest, 1, 1, "eval of an operator", node)
            arg = evaluate_term(rest[0], env)
            out = target(arg)
            return out
    except ValueError as exc:
        raise EvalError(str(exc), *_loc(node)) from exc
    raise EvalError(
        "eval applies a series, curried series, distribution or operator", *_loc(node)
    )


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
            "values": [[_float17(v.real), _float17(v.imag)] for v in value],
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
