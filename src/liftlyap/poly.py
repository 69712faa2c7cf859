"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in ``nvars`` variables is a map from exponent tuples to
``Fraction`` coefficients: ``{(2, 0): 1, (0, 1): 3/2}`` is x1^2 + 3/2*x2.
Zero coefficients are never stored, so two polynomials are equal exactly
when their term maps are equal, and every identity test in the rest of
the package is an exact comparison against the empty map rather than an
epsilon check.

Poly values are treated as immutable after construction and may be shared
freely across threads.  Float evaluation reads a term table that each
polynomial builds on first use and keeps; two threads racing to build it
build the same table.  Printing uses graded lexicographic term order so
that output is deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

MultiIndex = tuple[int, ...]
# Per term: the coefficient as a float and the (variable, exponent) pairs with exponent > 0
FloatTerms = tuple[tuple[float, tuple[tuple[int, int], ...]], ...]

# Products whose total degree would exceed this bound raise DegreeCapError
# instead of silently producing huge term maps.
DEGREE_CAP = 24


class DegreeCapError(ArithmeticError):
    """A product or power would exceed the configured degree cap."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational coefficient, got {type(value).__name__}")


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms", "_float_table")

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

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: _as_fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The polynomial for the variable at ``index`` (0-based)."""
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exponents: Sequence[int], coeff=1) -> "Poly":
        return cls(nvars, {tuple(exponents): _as_fraction(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(mi) == 0 for mi in self.terms)

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def coeff(self, exponents: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

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
        out = dict(self.terms)
        for mi, c in other.terms.items():
            out[mi] = out.get(mi, Fraction(0)) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {mi: -c for mi, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return Poly.zero(self.nvars)
            return Poly(self.nvars, {mi: c * v for mi, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("variable counts differ")
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.nvars)
        if self.degree() + other.degree() > DEGREE_CAP:
            raise DegreeCapError(
                f"product degree {self.degree() + other.degree()} exceeds cap {DEGREE_CAP}"
            )
        out: dict[MultiIndex, Fraction] = {}
        for mi_a, ca in self.terms.items():
            for mi_b, cb in other.terms.items():
                mi = tuple(a + b for a, b in zip(mi_a, mi_b))
                out[mi] = out.get(mi, Fraction(0)) + ca * cb
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if n > DEGREE_CAP:
            raise DegreeCapError(f"exponent {n} exceeds cap {DEGREE_CAP}")
        if n == 0:
            return Poly.const(self.nvars, 1)
        if self.degree() * n > DEGREE_CAP:
            raise DegreeCapError(f"power degree {self.degree() * n} exceeds cap {DEGREE_CAP}")
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

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
        return Poly(self.nvars, out)

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
        """The float term table of :meth:`eval_float` and :func:`eval_points`, built once."""
        if self._float_table is None:
            self._float_table = tuple(
                (float(c), tuple((i, e) for i, e in enumerate(mi) if e)) for mi, c in self.terms.items()
            )
        return self._float_table

    def eval_float(self, point: Sequence[float]) -> float:
        """Floating-point evaluation; subject to rounding, unlike :meth:`eval`."""
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        total = 0.0
        for c, factors in self._float_terms():
            term = c
            for i, e in factors:
                term *= float(point[i]) ** e
            total += term
        return total

    def truncate(self, max_degree: int) -> "Poly":
        """Drop all terms of total degree above ``max_degree`` (exact)."""
        if max_degree < 0:
            raise ValueError("max degree must be non-negative")
        return Poly(self.nvars, {mi: c for mi, c in self.terms.items() if sum(mi) <= max_degree})

    def embed(self, nvars: int, offset: int = 0) -> "Poly":
        """Reinterpret in a larger variable set, shifting variables by ``offset``.

        Used to pull functions of the quotient coordinates (y1..yn) back to
        functions of the full coordinates, and to inject state-space
        polynomials into the joint state-control space.
        """
        if offset < 0 or offset + self.nvars > nvars:
            raise ValueError("embedding does not fit the target variable count")
        pad_left = (0,) * offset
        pad_right = (0,) * (nvars - offset - self.nvars)
        return Poly(nvars, {pad_left + mi + pad_right: c for mi, c in self.terms.items()})


# -- helpers on polynomials and vectors of polynomials ------------------------


def grad(p: Poly) -> list[Poly]:
    """Component list of the differential of p."""
    return [p.diff(i) for i in range(p.nvars)]


def lie_derivative(field: Sequence[Poly], p: Poly) -> Poly:
    """Derivative of p along the vector field (sum of field_i * dp/dx_i)."""
    if len(field) != p.nvars:
        raise ValueError("field dimension does not match variable count")
    total = Poly.zero(p.nvars)
    for i, component in enumerate(field):
        total = total + component * p.diff(i)
    return total


def poly_sum(items: Iterable[Poly], nvars: int) -> Poly:
    total = Poly.zero(nvars)
    for item in items:
        total = total + item
    return total


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

    __slots__ = ("rows", "cols", "nvars", "entries")

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
                poly_sum((self.entries[i][k] * other.entries[k][j] for k in range(self.cols)), self.nvars)
                for j in range(other.cols)
            ]
            for i in range(self.rows)
        ]
        return PolyMatrix(out, cols=other.cols, nvars=self.nvars)

    def scale(self, factor) -> "PolyMatrix":
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


def poly_det(matrix: PolyMatrix) -> Poly:
    """Exact determinant by cofactor expansion (intended for small matrices)."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    return _det_rows([list(r) for r in matrix.entries], matrix.nvars)


def _det_rows(rows: list[list[Poly]], nvars: int) -> Poly:
    n = len(rows)
    if n == 0:
        return Poly.const(nvars, 1)
    if n == 1:
        return rows[0][0]
    total = Poly.zero(nvars)
    for j, top in enumerate(rows[0]):
        if top.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        cof = top * _det_rows(minor, nvars)
        total = total + (cof if j % 2 == 0 else -cof)
    return total


def poly_adjugate(matrix: PolyMatrix) -> PolyMatrix:
    """Exact adjugate: adj(M) @ M == det(M) * identity."""
    if matrix.rows != matrix.cols:
        raise ValueError("adjugate of a non-square matrix")
    n = matrix.rows
    if n == 0:
        return matrix
    rows = [list(r) for r in matrix.entries]
    out = [[Poly.zero(matrix.nvars) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[a][b] for b in range(n) if b != i] for a in range(n) if a != j
            ]
            cof = _det_rows(minor, matrix.nvars)
            out[i][j] = cof if (i + j) % 2 == 0 else -cof
    return PolyMatrix(out, cols=n, nvars=matrix.nvars)
