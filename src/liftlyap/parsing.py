"""Parser for the polynomial expressions used in problem files.

Grammar (whitespace is ignored between tokens):

    expr     := ['+' | '-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | identifier | '(' expr ')'
    rational := int ('/' nat)? | decimal

There is no division operator: "3/2" is a single rational literal, and
decimal literals convert exactly ("0.5" becomes 1/2).  Identifiers must be
declared variable names; exponents must be non-negative integers.
Parentheses nest at most MAX_NESTING deep, which keeps the recursive
descent well inside Python's recursion limit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import Poly

MAX_NESTING = 100  # deepest parenthesis nesting; each level takes four stack frames

class PolyParseError(ValueError):
    """Syntax or name error in a polynomial expression, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPERATORS = set("+-*^()")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise PolyParseError("malformed decimal literal", start)
                while i < n and text[i].isdigit():
                    i += 1
                value = Fraction(text[start:i])  # exact decimal conversion
            elif i < n and text[i] == "/":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise PolyParseError("malformed rational literal", start)
                denom_start = i
                while i < n and text[i].isdigit():
                    i += 1
                denom = int(text[denom_start:i])
                if denom == 0:
                    raise PolyParseError("zero denominator", denom_start)
                value = Fraction(int(text[start:denom_start - 1]), denom)
            else:
                value = Fraction(int(text[start:i]))
            tokens.append(("num", value, start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], start))
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]], var_index: dict[str, int], nvars: int):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.var_index = var_index
        self.nvars = nvars

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str) -> None:
        kind, value, position = self.peek()
        if kind != "op" or value != symbol:
            raise PolyParseError(f"expected {symbol!r}", position)
        self.advance()

    def parse_expr(self) -> Poly:
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        result = self.parse_term() * sign
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                term = self.parse_term()
                result = result + term if value == "+" else result - term
            else:
                return result

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Poly:
        base = self.parse_base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, position = self.advance()
            if kind != "num" or not isinstance(value, Fraction) or value.denominator != 1 or value < 0:
                raise PolyParseError("exponent must be a non-negative integer", position)
            return base ** int(value)
        return base

    def parse_base(self) -> Poly:
        kind, value, position = self.advance()
        if kind == "num":
            return Poly.const(self.nvars, value)
        if kind == "ident":
            index = self.var_index.get(value)
            if index is None:
                raise PolyParseError(f"unknown identifier {value!r}", position)
            return Poly.variable(self.nvars, index)
        if kind == "op" and value == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise PolyParseError(f"parentheses nested deeper than {MAX_NESTING}", position)
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise PolyParseError("expected a number, variable, or parenthesized expression", position)


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse ``text`` into an exact Poly over the ordered variable list."""
    names = list(variables)
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable names")
    var_index = {name: i for i, name in enumerate(names)}
    parser = _Parser(_tokenize(text), var_index, len(names))
    result = parser.parse_expr()
    kind, _, position = parser.peek()
    if kind != "end":
        raise PolyParseError("trailing input", position)
    return result
