"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in ``nvars`` variables is a map from exponent tuples to
``Fraction`` coefficients: ``{(2, 0): 1, (0, 1): 3/2}`` is x1^2 + 3/2*x2.
Zero coefficients are never stored, so two polynomials are equal exactly
when their term maps are equal, and every identity test in the rest of
the package is an exact comparison against the empty map rather than an
epsilon check.

``Poly(nvars, terms)`` validates what it is given: tuple length, exponent
signs and coefficient types, and drops zero coefficients.  That is the
constructor for terms from outside this module, and :meth:`Poly.monomial`,
whose exponents come from outside, goes through it.  The results of the
ring operations, derivatives and Lie brackets are built from term maps that
are valid by construction, so they skip those checks; so do
:meth:`Poly.const` and :meth:`Poly.variable`, which check their own
arguments (the variable count, the coefficient's type, the index) and build
their one term directly, and the parser's terms, whose exponents
:mod:`liftlyap.parsing` counts itself.

Term order is part of a polynomial's value here, although ``==`` ignores
it: :func:`value_lines` and :func:`eval_points` sum the terms in dict
order, so the float bits of every value depend on it.  Every kernel
inserts its terms in one fixed order.  A sum keeps the left operand's
terms in place and appends the right operand's new keys in its order,
dropping keys that cancel; a zero operand leaves the other one, so the
sum, or a difference whose right operand is zero, is that operand itself.
A product inserts in row-major order over the two operands' terms; a key
that cancels on the way keeps its first position if it is hit again, and
it is dropped only at the end.  A product by a constant (a scalar, or a
Poly whose one term is constant) scales the other operand's terms in
place, as that loop would, and it scans only the other operand's degree
for the cap.  ``tests/poly_oracle.py`` holds the plain loops that fix this
order.

Poly values are treated as immutable after construction and may be shared
freely across threads.  Nothing writes to a Poly's term map, so
:meth:`Poly.zero` hands out one instance per variable count.  Float
evaluation reads a term table that each polynomial builds on first use and
keeps, and :meth:`Poly.eval_float` keeps the function :func:`compile_float`
generates from it.  A :class:`PolyMatrix` whose entries are all constant
keeps the elimination that :func:`poly_det` and :func:`poly_adjugate` share
in the same way, and :func:`pivot_inverse` reads its inverse off it.  Two
threads racing to build any of these, or the same shared zero, build the
same one.  Printing uses graded lexicographic term order so that output is
deterministic.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

MultiIndex = tuple[int, ...]
# Per term: the coefficient as a float and the (variable, exponent) pairs with exponent > 0
FloatTerms = tuple[tuple[float, tuple[tuple[int, int], ...]], ...]
FloatVector = Callable[[Sequence[float]], tuple[float, ...]]  # what compile_float returns
Shape = tuple[MultiIndex, ...]  # a polynomial's exponent tuples in term order, without its coefficients

# Products whose total degree would exceed this bound raise DegreeCapError
# instead of silently producing huge term maps.
DEGREE_CAP = 24


class DegreeCapError(ArithmeticError):
    """A product or power would exceed the configured degree cap."""


# Most minors that one poly_det or poly_adjugate call may expand by cofactors.  A minor costs
# 110-120 us with entries of three terms in three variables (2-vCPU host), so the limit is
# about 12 s.  A dense 8x8 determinant expands 69281 minors (7.8 s); its adjugate, 554240.
MAX_MINORS = 100_000


class ExpansionLimitError(ArithmeticError):
    """A cofactor expansion would expand more than MAX_MINORS minors."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational coefficient, got {type(value).__name__}")


_ZEROS: dict[int, "Poly"] = {}  # Poly.zero's instance for each variable count
_ZERO = Fraction(0)  # the coefficient of a missing term; a Fraction is immutable, so one serves every call


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms", "_float_table", "_float_fn")

    def __init__(self, nvars: int, terms: Mapping[MultiIndex, Fraction] | None = None):
        if nvars < 0:
            raise ValueError("variable count must be non-negative")
        clean: dict[MultiIndex, Fraction] = {}
        if terms:
            for mi, coeff in terms.items():
                mi = tuple(mi)
                if len(mi) != nvars:
                    raise ValueError(f"exponent tuple {mi} does not have {nvars} entries")
                if any(e < 0 for e in mi):
                    raise ValueError(f"negative exponent in {mi}")
                coeff = _as_fraction(coeff)
                if coeff != 0:
                    clean[mi] = coeff
        self.nvars = nvars
        self.terms = clean
        self._float_table: FloatTerms | None = None
        self._float_fn: FloatVector | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, nvars: int, terms: dict[MultiIndex, Fraction]) -> "Poly":
        """A Poly that owns ``terms``, which must be valid: ``nvars``-tuples, no zero coefficient."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p._float_table = None
        p._float_fn = None
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        """The zero polynomial in ``nvars`` variables: one shared instance per variable count."""
        zero = _ZEROS.get(nvars)
        if zero is None:
            if nvars < 0:
                raise ValueError("variable count must be non-negative")
            zero = _ZEROS.setdefault(nvars, cls._of(nvars, {}))
        return zero

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        value = _as_fraction(value)
        zero = cls.zero(nvars)  # raises for a negative variable count
        return cls._of(nvars, {(0,) * nvars: value}) if value else zero

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The polynomial for the variable at ``index`` (0-based)."""
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls._of(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exponents: Sequence[int], coeff=1) -> "Poly":
        return cls(nvars, {tuple(exponents): _as_fraction(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        terms = self.terms  # keys are distinct, so a constant has at most one: the origin
        return not terms or (len(terms) == 1 and not any(next(iter(terms))))

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, _ZERO)

    def coeff(self, exponents: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exponents), _ZERO)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(mi) for mi in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self) -> str:
        names = [f"x{i + 1}" for i in range(self.nvars)]
        return f"Poly({format_poly(self, names)!r})"

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable counts differ")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.nvars, other)
        return None

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:  # a Poly is never mutated, so the other operand itself is the sum
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        _accumulate(out, other.terms)
        return Poly._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of(self.nvars, {mi: -c for mi, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return -other
        out = dict(self.terms)
        for mi, c in other.terms.items():  # each key once, so a cancelled one is dropped at once
            if mi in out:
                if total := out[mi] - c:
                    out[mi] = total
                else:
                    del out[mi]
            else:
                out[mi] = -c
        return Poly._of(self.nvars, out)

    def __rsub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return scaled(self, _as_fraction(other))
        if not isinstance(other, Poly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("variable counts differ")
        a, b = self.terms, other.terms
        if not a or not b:
            return Poly.zero(self.nvars)
        origin = (0,) * self.nvars
        # a one-term constant has degree 0, so the product's degree is the other operand's
        if len(a) == 1 and origin in a:
            check_cap("product degree", other.degree())
            return scaled(other, a[origin])
        if len(b) == 1 and origin in b:
            check_cap("product degree", self.degree())
            return scaled(self, b[origin])
        check_cap("product degree", self.degree() + other.degree())
        out: dict[MultiIndex, Fraction] = {}
        add = operator.add
        for mi_a, ca in a.items():
            for mi_b, cb in b.items():
                mi = tuple(map(add, mi_a, mi_b))
                # a key that cancels stays, so that if it is hit again it keeps its first position
                out[mi] = out[mi] + ca * cb if mi in out else ca * cb
        return Poly._of(self.nvars, {mi: c for mi, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        check_cap("exponent", n)
        if n == 0:
            return Poly.const(self.nvars, 1)
        check_cap("power degree", self.degree() * n)
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    def __truediv__(self, other) -> "Poly":
        """Exact quotient; raises ValueError when ``other`` does not divide self.

        A constant divisor scales each coefficient, keeping the term order.
        Otherwise each step divides the remainder's leading (grlex) term by
        the divisor's; leading terms multiply, so one that does not divide
        proves a nonzero remainder.
        """
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_constant():  # zero too: 1 / Fraction(0) raises ZeroDivisionError
            return self * (1 / other.constant_term)
        lead = min(other.terms, key=grlex_key)
        quotient, rest = Poly.zero(self.nvars), self
        while rest:
            top = min(rest.terms, key=grlex_key)
            shift = tuple(a - b for a, b in zip(top, lead))
            if min(shift) < 0:
                raise ValueError(f"{other!r} does not divide {self!r}")
            step = Poly.monomial(self.nvars, shift, rest.terms[top] / other.terms[lead])
            quotient, rest = quotient + step, rest - step * other
        return quotient

    # -- calculus and evaluation --------------------------------------------

    def diff(self, index: int) -> "Poly":
        """Exact partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.nvars:
            raise IndexError(f"variable index {index} out of range for {self.nvars} variables")
        out: dict[MultiIndex, Fraction] = {}
        for mi, c in self.terms.items():
            e = mi[index]
            if e == 0:
                continue
            lowered = list(mi)
            lowered[index] = e - 1
            out[tuple(lowered)] = c * e
        return Poly._of(self.nvars, out)

    def eval(self, point: Sequence) -> Fraction:
        """Exact evaluation at a rational point."""
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        coords = [_as_fraction(v) for v in point]
        total = Fraction(0)
        for mi, c in self.terms.items():
            term = c
            for e, v in zip(mi, coords):
                if e:
                    term *= v**e
            total += term
        return total

    def _float_terms(self) -> FloatTerms:
        """The float term table of :func:`compile_float` and :func:`eval_points`, built once."""
        if self._float_table is None:
            self._float_table = tuple(
                (float(c), tuple((i, e) for i, e in enumerate(mi) if e)) for mi, c in self.terms.items()
            )
        return self._float_table

    def eval_float(self, point: Sequence[float]) -> float:
        """Floating-point evaluation; subject to rounding, unlike :meth:`eval`."""
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        if self._float_fn is None:
            self._float_fn = compile_float([self])
        return self._float_fn(point)[0]

    def truncate(self, max_degree: int) -> "Poly":
        """Drop all terms of total degree above ``max_degree`` (exact)."""
        if max_degree < 0:
            raise ValueError("max degree must be non-negative")
        return Poly._of(self.nvars, {mi: c for mi, c in self.terms.items() if sum(mi) <= max_degree})

    def embed(self, nvars: int) -> "Poly":
        """Reinterpret in a larger variable set, as its leading variables.

        Used to pull functions of the quotient coordinates (y1..yn) back to
        functions of the full coordinates, and to inject state-space
        polynomials into the joint state-control space.
        """
        if self.nvars > nvars:
            raise ValueError("embedding does not fit the target variable count")
        pad = (0,) * (nvars - self.nvars)
        return Poly._of(nvars, {mi + pad: c for mi, c in self.terms.items()})


# -- helpers on polynomials and vectors of polynomials ------------------------


def grad(p: Poly) -> list[Poly]:
    """Component list of the differential of p."""
    return [p.diff(i) for i in range(p.nvars)]


def _accumulate(out: dict[MultiIndex, Fraction], terms: Mapping[MultiIndex, Fraction]) -> None:
    """Add ``terms`` into ``out`` in place: a new key is appended, a key that cancels is dropped."""
    for mi, c in terms.items():  # each key once, so a cancelled one is dropped at once
        if mi in out:
            if total := out[mi] + c:
                out[mi] = total
            else:
                del out[mi]
        else:
            out[mi] = c


def check_cap(what: str, value: int) -> None:
    """Raise DegreeCapError, naming ``what``, for a product or power whose ``value`` is above DEGREE_CAP."""
    if value > DEGREE_CAP:
        raise DegreeCapError(f"{what} {value} exceeds cap {DEGREE_CAP}")


def scaled(p: Poly, c: Fraction) -> Poly:
    """p times the rational c, with p's terms in p's order."""
    if c == 0:
        return Poly.zero(p.nvars)
    if c == 1:  # a Poly is never mutated, so the operand itself is the product
        return p
    return Poly._of(p.nvars, {mi: c * v for mi, v in p.terms.items()})


def poly_sum(items: Iterable[Poly], nvars: int) -> Poly:
    """The sum of ``items``, each added in turn as ``total + item`` would, in one term map."""
    out: dict[MultiIndex, Fraction] = {}
    for item in items:
        if item.nvars != nvars:
            raise ValueError("variable counts differ")
        _accumulate(out, item.terms)
    return Poly._of(nvars, out)


def lie_derivative(field: Sequence[Poly], p: Poly) -> Poly:
    """Derivative of p along the vector field (sum of field_i * dp/dx_i, i ascending).

    A zero component of the field, or a variable p does not read, is
    skipped, so it costs no product.
    """
    if len(field) != p.nvars:
        raise ValueError("field dimension does not match variable count")
    return poly_sum((component * dp for i, component in enumerate(field) if component and (dp := p.diff(i))), p.nvars)


def lie_brackets(fields: Sequence[Sequence[Poly]], pairs: Iterable[tuple[int, int]]) -> list[list[Poly]]:
    """Components of the vector fields [fields[a], fields[b]] for each pair (a, b).

    Component k is L_x y^k - L_y x^k for x = fields[a] and y = fields[b],
    each Lie derivative summed over i ascending as :func:`lie_derivative`
    sums it.  Each field's Jacobian, the nonzero d(component)/dx^i, is
    taken once, however many pairs the field is in.
    """
    if len({len(f) for f in fields}) > 1:
        raise ValueError("vector fields have different dimensions")
    # d/dx^i of each component, for each variable it reads, i ascending
    jacobians = [
        [[(i, p.diff(i)) for i in sorted({i for mi in p.terms for i, e in enumerate(mi) if e})] for p in field]
        for field in fields
    ]
    out = []
    for a, b in pairs:
        x, y, jx, jy = fields[a], fields[b], jacobians[a], jacobians[b]
        out.append(
            [
                poly_sum((x[i] * d for i, d in jy[k] if x[i]), yk.nvars)
                - poly_sum((y[i] * d for i, d in jx[k] if y[i]), xk.nvars)
                if jx[k] or jy[k]
                else Poly.zero(xk.nvars)  # both components constant
                for k, (xk, yk) in enumerate(zip(x, y))
            ]
        )
    return out


def term_shapes(polys: Sequence[Poly]) -> tuple[Shape, ...]:
    """The exponent tuples of each of ``polys`` in term order: all that :func:`value_lines` writes code from."""
    return tuple(tuple(p.terms) for p in polys)


def float_coefficients(polys: Sequence[Poly]) -> tuple[float, ...]:
    """The coefficients of ``polys`` as floats, in the order of :func:`coefficient_names`.

    A coefficient beyond the float range raises OverflowError, on every call.
    """
    return tuple(c for p in polys for c, _ in p._float_terms())


def coefficient_names(shapes: Sequence[Shape], q: str = "q") -> list[str]:
    """The names ``q<k>_<j>`` that :func:`value_lines` reads coefficient j of polynomial k from."""
    return [f"{q}{k}_{j}" for k, shape in enumerate(shapes) for j in range(len(shape))]


def powers(shapes: Sequence[Shape]) -> list[tuple[int, int]]:
    """The (variable, exponent > 1) pairs that :func:`value_lines` computes for ``shapes``, sorted."""
    return sorted({(i, operator.index(e)) for shape in shapes for mi in shape for i, e in enumerate(mi) if e > 1})


# Terms per statement of value_lines: compile() nests a chained sum, and it
# raises RecursionError near 3000 terms in one expression
TERMS_PER_LINE = 200


def value_lines(
    shapes: Sequence[Shape],
    point: str | None,
    x: str = "x",
    t: str = "t",
    q: str = "q",
    held: Iterable[tuple[int, int]] = (),
) -> list[str]:
    """Statements that set ``t0``, ``t1``, ... to the float values of the polynomials of ``shapes``.

    Each shape is a polynomial's exponent tuples in term order
    (:func:`term_shapes`), and coefficient j of polynomial k is read from
    the name ``q<k>_<j>``, which the caller binds to the float coefficient
    (:func:`coefficient_names`, :func:`float_coefficients`).  ``point`` is
    a format with one ``{0}`` for a variable index, a Python float
    expression of that coordinate; each coordinate used is assigned from it
    once, into ``x<i>``.  With ``point`` None, ``x<i>`` already hold the
    coordinates as Python floats.  Each power (variable, exponent > 1) is
    then computed once into ``x<i>_<e>`` and shared by every term and every
    polynomial, except the powers in ``held``, which earlier statements
    already computed from the same ``x<i>``.  Each value is summed from 0.0
    term by term, left to right, each term the coefficient times its
    factors in variable order, in one statement per TERMS_PER_LINE terms:
    ``t0 = 0.0 + q0_0 * x2_2 * x4 + q0_1 * x1``, then ``t0 = t0 + ...``.
    Apart from ``point``, the statements hold only generated names and
    integer indices and exponents, so polynomials of one shape share them
    whatever their coefficients.
    """
    used = sorted({i for shape in shapes for mi in shape for i, e in enumerate(mi) if e})
    lines = [] if point is None else [f"{x}{i} = {point.format(i)}" for i in used]
    held = set(held)
    lines += [f"{x}{i}_{e} = {x}{i} ** {e}" for i, e in powers(shapes) if (i, e) not in held]
    for k, shape in enumerate(shapes):
        terms = [
            f"{q}{k}_{j}" + "".join(f" * {x}{i}_{e}" if e > 1 else f" * {x}{i}" for i, e in enumerate(mi) if e)
            for j, mi in enumerate(shape)
        ]
        start = "0.0"
        for first in range(0, len(terms), TERMS_PER_LINE):
            lines.append(f"{t}{k} = {start} + " + " + ".join(terms[first : first + TERMS_PER_LINE]))
            start = f"{t}{k}"
        if not terms:
            lines.append(f"{t}{k} = 0.0")
    return lines


def compile_float(polys: Sequence[Poly], den: Poly | None = None) -> FloatVector:
    """One function from a point to the values of ``polys``, as a tuple of floats.

    The function is the straight-line Python of :func:`value_lines`, one
    statement per TERMS_PER_LINE terms, so a long polynomial never nests
    deeper than that.  It reads the coefficients, converted once by
    :func:`float_coefficients`, from the names of :func:`coefficient_names`
    in the scope that encloses it.  The arithmetic is the per-term product
    ``c * x ** e * ...`` summed from 0.0: a power computed once and shared,
    and ``x ** 1`` written as ``x``, give the same floats.  A coefficient
    beyond the float range raises OverflowError here, and so does an
    overflowing power in the function; a product or sum that overflows
    gives inf or NaN.  The point is not length-checked; a missing
    coordinate raises IndexError.
    With ``den``, each value is divided by den's value, computed with them
    (no division for a den of 1; ZeroDivisionError where den is 0.0).
    """
    tail = [] if den is None or den == Poly.const(den.nvars, 1) else [den]
    over = f" / t{len(polys)}" if tail else ""
    coefficients = float_coefficients([*polys, *tail])
    shapes = term_shapes([*polys, *tail])
    lines = [
        "def bind(coefficients):",
        "    (" + "".join(f"{name}, " for name in coefficient_names(shapes)) + ") = coefficients",
        "    def values(p):",
        # float() of each coordinate, because an np.float64 power rounds differently
        *(f"        {line}" for line in value_lines(shapes, "float(p[{0}])")),
        "        return (" + "".join(f"t{k}{over}, " for k in range(len(polys))) + ")",
        "    return values",
    ]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<compile_float>", "exec"), namespace)
    return namespace["bind"](coefficients)


def eval_points(polys: Sequence[Poly], points) -> np.ndarray:
    """Values of ``polys`` at points (..., m), as an array (..., len(polys)).

    Wherever it is finite, every value is :meth:`Poly.eval_float`'s bit for
    bit: the same terms in the same order, with powers from Python's float
    ``**`` (numpy's power rounds differently).  A value that overflows, or
    a sum of overflowed terms, raises OverflowError instead.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[-1]
    if any(p.nvars != m for p in polys):
        raise ValueError(f"points have {m} coordinates, but not every polynomial has {m} variables")
    flat = points.reshape(math.prod(points.shape[:-1]), m)
    powers: dict[tuple[int, int], np.ndarray] = {}
    out = np.zeros((flat.shape[0], len(polys)))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises OverflowError below
        for k, p in enumerate(polys):
            total = out[:, k]
            for c, factors in p._float_terms():
                term = np.full(flat.shape[0], c)
                for i, e in factors:
                    if (i, e) not in powers:
                        powers[i, e] = np.array([v**e for v in flat[:, i].tolist()])
                    term *= powers[i, e]
                total += term
    if not np.isfinite(out).all():
        raise OverflowError("a polynomial value on the check grid is beyond the float range")
    return out.reshape(points.shape[:-1] + (len(polys),))


def grlex_key(mi: MultiIndex) -> tuple:
    """Sort key for graded lexicographic order, highest terms first."""
    return (-sum(mi), tuple(-e for e in mi))


def format_poly(p: Poly, names: Sequence[str]) -> str:
    """Render with the given variable names; parses back to the same Poly."""
    if len(names) != p.nvars:
        raise ValueError("name list does not match variable count")
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for mi in sorted(p.terms, key=grlex_key):
        c = p.terms[mi]
        factors = []
        for name, e in zip(names, mi):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(c)
        if factors:
            body = "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
        else:
            body = str(mag)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


# -- dense matrices of polynomials --------------------------------------------


class PolyMatrix:
    """Dense rows-by-cols grid of Poly values sharing one variable count."""

    __slots__ = ("rows", "cols", "nvars", "entries", "_elimination")

    def __init__(self, entries: Sequence[Sequence[Poly]], cols: int | None = None, nvars: int | None = None):
        entries = tuple(tuple(row) for row in entries)
        if entries:
            cols = len(entries[0])
            nvars = entries[0][0].nvars if cols else nvars
        if cols is None or (cols and nvars is None):
            raise ValueError("empty matrix needs explicit cols and nvars")
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for e in row:
                if e.nvars != nvars:
                    raise ValueError("mixed variable counts in matrix")
        self.rows = len(entries)
        self.cols = cols
        self.nvars = nvars if nvars is not None else 0
        self.entries = entries
        # reduce_rows of [M | I] for a square M whose entries are all constant, built on first use
        self._elimination: list[tuple[int, int, list[Fraction]]] | None = None

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i][j]

    def row(self, i: int) -> list[Poly]:
        return list(self.entries[i])

    def col(self, j: int) -> list[Poly]:
        return [row[j] for row in self.entries]

    def matvec(self, vec: Sequence[Poly]) -> list[Poly]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return [poly_sum((self.entries[i][j] * vec[j] for j in range(self.cols)), self.nvars) for i in range(self.rows)]

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        out = [
            [
                poly_sum((a * other.entries[k][j] for k, a in enumerate(row) if a and other.entries[k][j]), self.nvars)
                for j in range(other.cols)
            ]
            for row in self.entries
        ]
        return PolyMatrix(out, cols=other.cols, nvars=self.nvars)

    def scale(self, factor) -> "PolyMatrix":
        if factor == 1:  # neither the matrix nor its entries are ever mutated
            return self
        return PolyMatrix(
            [[e * factor for e in row] for row in self.entries], cols=self.cols, nvars=self.nvars
        )

    def at(self, points) -> np.ndarray:
        """Values at points (..., m), as an array (..., rows, cols)."""
        values = eval_points([e for row in self.entries for e in row], points)
        return values.reshape(values.shape[:-1] + (self.rows, self.cols))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)


def reduce_rows(rows: list[list[Fraction]], width: int) -> list[tuple[int, int, list[Fraction]]]:
    """(row, pivot column, reduced row) of each row kept by Gauss-Jordan elimination in index order.

    Each row is reduced against the rows kept before it and, if nonzero in
    its first ``width`` entries, kept with its first nonzero column there as
    pivot; that column is then cleared from the rows kept before it.  So
    every kept row is zero at the other pivots, and the rows and pivots kept
    are those of forward elimination.  Entries past ``width`` ride along: an
    identity appended there collects the row operations.  A row update
    a - f * b touches only the entries where b is nonzero, since a - f * 0
    is a exactly.
    """
    basis: list[tuple[int, int, list[Fraction]]] = []
    for i, row in enumerate(rows):
        for _, col, pivot in basis:
            if row[col]:
                factor = row[col] / pivot[col]
                row = [a - factor * b if b else a for a, b in zip(row, pivot)]
        col = next((j for j in range(width) if row[j]), None)
        if col is None:
            continue
        for k, (kept, kept_col, earlier) in enumerate(basis):
            if earlier[col]:
                factor = earlier[col] / row[col]
                basis[k] = (kept, kept_col, [a - factor * b if b else a for a, b in zip(earlier, row)])
        basis.append((i, col, row))
    return basis


def origin_pivots(matrix: PolyMatrix) -> list[tuple[int, int]]:
    """(row, pivot column) of the first independent rows of matrix(0) in index order.

    Exact elimination (:func:`reduce_rows`): each row is reduced against the
    rows kept before it and, if nonzero, kept with its first nonzero column
    as pivot.  The block of matrix(0) on the kept rows and their pivots is
    invertible.
    """
    rows = [[p.constant_term for p in entries] for entries in matrix.entries]
    return [(i, col) for i, col, _ in reduce_rows(rows, matrix.cols)]


def _constant_rows(matrix: PolyMatrix) -> list[list[Fraction]] | None:
    """The entries as Fraction rows when every one is constant, else None."""
    origin = (0,) * matrix.nvars
    rows = []
    for entries in matrix.entries:
        row = []
        for p in entries:
            terms = p.terms
            if not terms:
                row.append(_ZERO)
            elif len(terms) == 1 and origin in terms:
                row.append(terms[origin])
            else:
                return None
        rows.append(row)
    return rows


def constant_elimination(matrix: PolyMatrix) -> list[tuple[int, int, list[Fraction]]] | None:
    """:func:`reduce_rows` of [M | I] for a square M whose entries are all constant, else None.

    The elimination is kept in the matrix on first use, so :func:`poly_det`
    and :func:`poly_adjugate` of one constant block share it, and a caller
    that took the determinant reads M^-1 off it with :func:`pivot_inverse`;
    a matrix with a polynomial entry keeps nothing.
    """
    if matrix._elimination is None:
        rows = _constant_rows(matrix)
        if rows is None:
            return None
        n = matrix.cols
        one = Fraction(1)
        identity = [[one if i == j else _ZERO for j in range(n)] for i in range(n)]
        matrix._elimination = reduce_rows([row + unit for row, unit in zip(rows, identity)], n)
    return matrix._elimination


def pivot_inverse(basis: list[tuple[int, int, list[Fraction]]], width: int) -> dict[int, list[Fraction]]:
    """The record of each row :func:`reduce_rows` kept of [A | I], over its pivot, keyed by its pivot column.

    The record, the entries past ``width``, is the combination r of A's rows
    that the kept row is, so r A is its pivot on its own pivot column and 0
    on the others.  r reads only the kept rows S, and over the pivot it is
    the row, for that pivot column, of M^-1 for the block M = A[S, P] on the
    kept rows and the pivot columns P: for a square invertible A, row ``col``
    of A^-1.
    """
    out = {}
    for _, col, row in basis:
        pivot = row[col]
        out[col] = row[width:] if pivot == 1 else [a / pivot if a else a for a in row[width:]]
    return out


def _pivot_det(basis: list[tuple[int, int, list[Fraction]]], n: int) -> Fraction:
    """Determinant of the n-by-n matrix that :func:`reduce_rows` took to ``basis``.

    The row operations keep the determinant, and they leave one pivot per
    row on a permutation of the columns: the product of the pivots, negated
    once per inversion of that permutation, or 0 when a row was dropped.
    """
    if len(basis) < n:
        return Fraction(0)
    det = Fraction(1)
    cols = [col for _, col, _ in basis]
    for k, (_, col, row) in enumerate(basis):
        det *= row[col]
        if sum(c > col for c in cols[:k]) % 2:
            det = -det
    return det


def poly_det(matrix: PolyMatrix) -> Poly:
    """Exact determinant.

    A matrix whose entries are all constant goes by one exact Fraction
    elimination of [M | I] (:func:`reduce_rows`), which the matrix keeps for
    :func:`poly_adjugate`: the signed product of the pivots.  Any other goes
    by cofactor expansion along the first row, whose cost grows factorially
    with the size; a zero entry on top skips its minor, and a zero row cuts a
    minor short.  The minors are counted on the zero pattern
    first, and more than MAX_MINORS raise ExpansionLimitError naming the
    size.  The expansion stays because the order in which it inserts terms
    into the result fixes the order in which :func:`value_lines` and
    :func:`eval_points` sum them, and so the float bits of every value
    computed from the result.  A constant result has at most one term, so
    both paths give the same Poly there.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    basis = constant_elimination(matrix)
    if basis is not None:
        return Poly.const(matrix.nvars, _pivot_det(basis, matrix.cols))
    rows = [list(r) for r in matrix.entries]
    _count_minors([[bool(e) for e in row] for row in rows], [MAX_MINORS], matrix.rows)
    return _det_rows(rows, matrix.nvars)


def _count_minors(pattern: list[list[bool]], budget: list[int], size: int) -> None:
    """Take the minors :func:`_det_rows` expands on this zero pattern from ``budget[0]``; raise past 0."""
    budget[0] -= 1
    if budget[0] < 0:
        raise ExpansionLimitError(
            f"the cofactor expansion of a polynomial matrix of size {size}x{size} takes more than {MAX_MINORS} minors"
        )
    n = len(pattern)
    if n > 1 and all(any(row) for row in pattern):
        for j, top in enumerate(pattern[0]):
            if top:
                _count_minors([[row[k] for k in range(n) if k != j] for row in pattern[1:]], budget, size)


def _det_rows(rows: list[list[Poly]], nvars: int) -> Poly:
    n = len(rows)
    if n == 0:
        return Poly.const(nvars, 1)
    if n == 1:
        return rows[0][0]
    if not all(any(row) for row in rows):  # a zero row: the expansion would sum nothing
        return Poly.zero(nvars)
    total = Poly.zero(nvars)
    for j, top in enumerate(rows[0]):
        if top.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        cof = top * _det_rows(minor, nvars)
        total = total + (cof if j % 2 == 0 else -cof)
    return total


def poly_adjugate(matrix: PolyMatrix) -> PolyMatrix:
    """Exact adjugate: adj(M) @ M == det(M) * identity.

    An invertible matrix whose entries are all constant goes by the exact
    Fraction elimination of [M | I] (:func:`reduce_rows`) that it shares with
    :func:`poly_det`, as det(M) * M^-1, whose rows :func:`pivot_inverse`
    reads off it.
    Any other, a singular constant one too, takes each entry from the
    cofactor expansion of its minor (see :func:`poly_det` for why, and for
    its cost, and the limit MAX_MINORS, which bounds the n^2 expansions
    together); the entries of a constant adjugate have at most one term, so
    both paths give the same matrix.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("adjugate of a non-square matrix")
    n = matrix.rows
    if n == 0:
        return matrix
    basis = constant_elimination(matrix)
    if basis is not None and len(basis) == n:
        det, nvars = _pivot_det(basis, n), matrix.nvars
        origin, zero = (0,) * nvars, Poly.zero(nvars)
        adj: list[list[Poly]] = [[] for _ in range(n)]
        for col, inverse in pivot_inverse(basis, n).items():  # det is nonzero, so det * a is 0 only where a is
            adj[col] = [Poly._of(nvars, {origin: det * a}) if a else zero for a in inverse]
        return PolyMatrix(adj, cols=n, nvars=nvars)
    rows = [list(r) for r in matrix.entries]
    pattern, budget = [[bool(e) for e in row] for row in rows], [MAX_MINORS]
    for i in range(n):
        for j in range(n):
            _count_minors([[pattern[a][b] for b in range(n) if b != i] for a in range(n) if a != j], budget, n)
    out = [[Poly.zero(matrix.nvars) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[a][b] for b in range(n) if b != i] for a in range(n) if a != j
            ]
            cof = _det_rows(minor, matrix.nvars)
            out[i][j] = cof if (i + j) % 2 == 0 else -cof
    return PolyMatrix(out, cols=n, nvars=matrix.nvars)
