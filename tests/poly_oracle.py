"""Reference kernels for the term order of ``liftlyap.poly``.

Plain loops that build every result through the validating ``Poly``
constructor, accumulating each term onto ``Fraction(0)`` and dropping
zeros only at the end.  They fix the dict order of the terms that
:func:`liftlyap.poly.value_lines` and :func:`liftlyap.poly.eval_points` sum
in, so the kernels must return the same ``list(p.terms.items())``.
"""

from fractions import Fraction
from typing import Sequence

from liftlyap.poly import Poly


def _operand(nvars: int, value) -> Poly:
    return value if isinstance(value, Poly) else Poly.const(nvars, value)


def add(a: Poly, b) -> Poly:
    b = _operand(a.nvars, b)
    out = dict(a.terms)
    for mi, c in b.terms.items():
        out[mi] = out.get(mi, Fraction(0)) + c
    return Poly(a.nvars, out)


def neg(a: Poly) -> Poly:
    return Poly(a.nvars, {mi: -c for mi, c in a.terms.items()})


def sub(a: Poly, b) -> Poly:
    return add(a, neg(_operand(a.nvars, b)))


def mul(a: Poly, b) -> Poly:
    if not isinstance(b, Poly):
        c = Fraction(b)
        return a if c == 1 else Poly(a.nvars, {mi: c * v for mi, v in a.terms.items()})
    out: dict[tuple[int, ...], Fraction] = {}
    for mi_a, ca in a.terms.items():
        for mi_b, cb in b.terms.items():
            mi = tuple(x + y for x, y in zip(mi_a, mi_b))
            out[mi] = out.get(mi, Fraction(0)) + ca * cb
    return Poly(a.nvars, out)


def diff(p: Poly, index: int) -> Poly:
    out = {}
    for mi, c in p.terms.items():
        if mi[index]:
            lowered = list(mi)
            lowered[index] -= 1
            out[tuple(lowered)] = c * mi[index]
    return Poly(p.nvars, out)


def poly_sum(items: Sequence[Poly], nvars: int) -> Poly:
    total = Poly.zero(nvars)
    for item in items:
        total = add(total, item)
    return total


def lie_derivative(field: Sequence[Poly], p: Poly) -> Poly:
    total = Poly.zero(p.nvars)
    for i, component in enumerate(field):
        if component and (dp := diff(p, i)):
            total = add(total, mul(component, dp))
    return total


def lie_bracket(x: Sequence[Poly], y: Sequence[Poly]) -> list[Poly]:
    return [sub(lie_derivative(x, yk), lie_derivative(y, xk)) for xk, yk in zip(x, y)]
