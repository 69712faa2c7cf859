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

A term is built as the ``Poly`` products from left to right would build it,
without most of them: its sign, number, variable and ``var^n`` factors fold
into one coefficient and one exponent list, and only a parenthesised factor
is multiplied in as a ``Poly``.  The degree cap is checked factor by factor
with ``Poly.__mul__``'s rule (no check once the running product is zero)
and message, so a term raises the same DegreeCapError at the same factor.
Shifting and scaling by a monomial keep a polynomial's term order, so the
term maps, their order included, are those of the products.  A term's
terms are then summed into the expression by ``Poly`` addition.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import Poly, check_cap

MAX_NESTING = 100  # deepest parenthesis nesting; each level takes three stack frames
_ONE = Fraction(1)

class PolyParseError(ValueError):
    """Syntax or name error in a polynomial expression, with position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPERATORS = set("+-*^()")
_DIGITS = frozenset("0123456789")  # str.isdigit also accepts digits such as '²' that int() refuses


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
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            if i < n and text[i] == ".":
                i += 1
                if i >= n or text[i] not in _DIGITS:
                    raise PolyParseError("malformed decimal literal", start)
                while i < n and text[i] in _DIGITS:
                    i += 1
                value = Fraction(text[start:i])  # exact decimal conversion
            elif i < n and text[i] == "/":
                i += 1
                if i >= n or text[i] not in _DIGITS:
                    raise PolyParseError("malformed rational literal", start)
                denom_start = i
                while i < n and text[i] in _DIGITS:
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
        sign = _ONE
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -_ONE if value == "-" else _ONE
        result = self.parse_term(sign)
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                term = self.parse_term(_ONE)
                result = result + term if value == "+" else result - term
            else:
                return result

    def parse_term(self, coeff: Fraction) -> Poly:
        """``coeff`` times the product of the factors (see the module docstring)."""
        exps = [0] * self.nvars
        product: Poly | None = None  # the parenthesised factors multiplied so far
        degree, zero = 0, False  # of the running product; past a zero factor no degree is checked
        while True:
            factor = self.parse_factor()
            if isinstance(factor, Poly):
                if not factor.terms:
                    zero = True
                elif not zero:
                    degree += factor.degree()
                    check_cap("product degree", degree)
                    product = factor if product is None else product * factor
            elif not factor[0]:
                zero = True
            elif not zero:
                c, index, e = factor
                if index is not None:
                    degree += e
                    check_cap("product degree", degree)
                    exps[index] += e
                coeff *= c
            kind, value, _ = self.peek()
            if kind != "op" or value != "*":
                break
            self.advance()
        if zero:
            return Poly.zero(self.nvars)
        term = Poly._of(self.nvars, {tuple(exps): coeff})  # the exponents are counted here, coeff is not 0
        return term if product is None else term * product

    def parse_factor(self) -> Poly | tuple[Fraction, int | None, int]:
        """A parenthesised factor as a Poly; any other as (coefficient, variable index or None, exponent)."""
        kind, value, position = self.advance()
        if kind == "num":
            base = (value, None, 0)
        elif kind == "ident":
            index = self.var_index.get(value)
            if index is None:
                raise PolyParseError(f"unknown identifier {value!r}", position)
            base = (_ONE, index, 1)
        elif kind == "op" and value == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise PolyParseError(f"parentheses nested deeper than {MAX_NESTING}", position)
            base = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
        else:
            raise PolyParseError("expected a number, variable, or parenthesized expression", position)
        kind, value, _ = self.peek()
        if kind != "op" or value != "^":
            return base
        self.advance()
        kind, value, position = self.advance()
        if kind != "num" or not isinstance(value, Fraction) or value.denominator != 1 or value < 0:
            raise PolyParseError("exponent must be a non-negative integer", position)
        n = int(value)
        if isinstance(base, Poly):
            return base**n
        check_cap("exponent", n)  # Poly.__pow__'s first check; a monomial's power degree is then within the cap
        c, index, e = base
        return (c**n, index if n else None, e * n)


def is_identifier(name: str) -> bool:
    """Whether ``name`` reads as exactly one identifier token, so that a variable of that name parses back."""
    try:
        tokens = _tokenize(name)
    except PolyParseError:
        return False
    return len(tokens) == 2 and tokens[0][:2] == ("ident", name)


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
