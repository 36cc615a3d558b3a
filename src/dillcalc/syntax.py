"""Reader and formatter of the term language: its tokens, syntax tree and
errors.  The grammar is stated in `dillcalc.dsl`, which evaluates the tree.

Standard library only, so `dillcalc fmt` and a program that fails to parse
never load numpy or the calculus.
"""

from __future__ import annotations

import math
import re
from typing import List, Union


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


class _Node:
    """The fields its class names in `__slots__`, then the line and col where
    it starts (0 if not given), which `==` and `hash` ignore."""

    __slots__ = ("line", "col")

    def __init__(self, *values):
        for name, value in zip(self.__slots__ + _Node.__slots__, (*values, 0, 0)):
            setattr(self, name, value)

    def _key(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return isinstance(other, _Node) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Num(_Node):
    __slots__ = ("value",)  # an int or a float


class Sym(_Node):
    __slots__ = ("name",)


class Vec(_Node):
    __slots__ = ("values",)  # a tuple of numbers


class CoeffMap(_Node):
    __slots__ = ("entries",)  # a tuple of (exponent tuple, Num or Vec) pairs


class ListForm(_Node):
    __slots__ = ("items",)  # a tuple of nodes


Node = Union[Num, Sym, Vec, CoeffMap, ListForm]


# ---------------------------------------------------------------------------
# tokenizer and reader

# Deepest nesting of (), [] and {} the recursive reader accepts.  Evaluation
# and formatting take two Python frames per level, so input within it stays
# well inside Python's default recursion limit.
MAX_NESTING = 200

_NUM_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_SYM_RE = re.compile(r"[A-Za-z_:][A-Za-z0-9_\-]*")


class _Token(_Node):
    __slots__ = ("kind", "text")


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
