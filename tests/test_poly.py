"""Exact polynomial arithmetic, parsing, printing, and matrices."""

import itertools
import math
import random
import struct
from fractions import Fraction

import matrix_oracle
import numpy as np
import parse_oracle
import poly_oracle
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from liftlyap.parsing import MAX_NESTING, PolyParseError, parse_poly
from liftlyap import poly
from liftlyap.poly import (
    DEGREE_CAP,
    MAX_MINORS,
    DegreeCapError,
    ExpansionLimitError,
    Poly,
    PolyMatrix,
    compile_float,
    eval_points,
    format_poly,
    grad,
    lie_brackets,
    lie_derivative,
    origin_pivots,
    poly_adjugate,
    poly_det,
    poly_sum,
    reduce_rows,
)


def random_poly(rng: random.Random, nvars: int, max_deg: int = 3, terms: int = 4) -> Poly:
    out = {}
    for _ in range(terms):
        mi = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        out[mi] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Poly(nvars, out)


def random_rational_point(rng: random.Random, nvars: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nvars))


# -- parsing -------------------------------------------------------------------


def test_parse_basic():
    p = parse_poly("x1^2 + 3/2*x2", ["x1", "x2"])
    assert p.terms == {(2, 0): Fraction(1), (0, 1): Fraction(3, 2)}


def test_parse_zero():
    assert parse_poly("0", ["x1"]).terms == {}


def _brute_expand(a: dict, b: dict) -> dict:
    # independent convolution of term maps, used as the expansion oracle
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def test_parse_product_expansion():
    p = parse_poly("(x1+x2)*(x1-x2)", ["x1", "x2"])
    plus = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    minus = {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
    assert p.terms == _brute_expand(plus, minus)


def test_parse_decimal_exact():
    p = parse_poly("0.5*x1 + 0.25", ["x1"])
    assert p.terms == {(1,): Fraction(1, 2), (0,): Fraction(1, 4)}


def test_parse_leading_sign():
    p = parse_poly("-x1 + 2", ["x1"])
    assert p.terms == {(1,): Fraction(-1), (0,): Fraction(2)}


def test_parse_unknown_identifier():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1 + z", ["x1"])
    assert err.value.position == 5


def test_parse_syntax_error_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1 + ", ["x1"])
    assert err.value.position == 5


def test_parse_bad_exponent():
    with pytest.raises(PolyParseError):
        parse_poly("x1^(2)", ["x1"])
    with pytest.raises(PolyParseError):
        parse_poly("x1^1/2", ["x1"])  # fractional exponent


def test_parse_nesting_is_bounded():
    deepest = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert parse_poly(deepest, ["x1"]) == Poly.variable(1, 0)
    # 250 levels overran the recursion limit before the bound
    with pytest.raises(PolyParseError, match="nested deeper") as err:
        parse_poly("(" * 250 + "x1" + ")" * 250, ["x1"])
    assert err.value.position == MAX_NESTING


def test_parse_trailing_garbage():
    with pytest.raises(PolyParseError):
        parse_poly("x1 x1", ["x1"])


@pytest.mark.parametrize("text", ["x1^\u00b2", "1/\u00b2", "1.\u00b2"])
def test_parse_refuses_non_ascii_digits(text):
    # str.isdigit accepts a superscript two, which int() then refuses with a ValueError
    with pytest.raises(PolyParseError):
        parse_poly(text, ["x1"])


_NAMES3 = ["x1", "x2", "x3"]
_COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_POLYS3 = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _COEFFS, max_size=6).map(lambda t: Poly(3, t))


# Atoms include zero, leading zeros, decimals, malformed literals, an undeclared name and a
# character no token starts with; exponents include 0, the cap and past it, and malformed ones.
# The well-formed ones are listed several times, so that most draws parse or reach the cap.
_PARSE_ATOMS = st.sampled_from(
    (["0", "00", "1", "2", "3/2", "7/04", "0.5", "2.25"] + ["x1", "x2", "x3"] * 4) * 4
    + ["1.", "1/", "1/0", "2/00", "1.5.2", "x4", "$"]
)
_PARSE_POWERS = st.sampled_from([""] * 24 + ["^0", "^1", "^2"] * 2 + ["^12", "^13", "^24"] * 4 + ["^25", "^2.0", "^1/2", "^x1", "^"])


def _parse_sums(inner):
    factor = st.builds(str.__add__, st.one_of(_PARSE_ATOMS, inner.map("({})".format)), _PARSE_POWERS)
    term = st.lists(factor, min_size=1, max_size=4).map("*".join)
    signed = st.tuples(st.sampled_from([" + ", " - ", "-", "+"] * 3 + [" "]), term).map("".join)
    return st.builds(str.__add__, st.sampled_from(["", "-", "+"]), st.builds(str.__add__, term, st.lists(signed, max_size=3).map("".join)))


_EXPRESSIONS = st.one_of(
    *[st.recursive(_PARSE_ATOMS, _parse_sums, max_leaves=16)] * 4,
    st.text(alphabet="x1230.^/*+-() ", max_size=14),
)


def _parsed(parse, text: str):
    """The term map in insertion order, or the error's type, message and position."""
    try:
        return list(parse(text, _NAMES3).terms.items())
    except (PolyParseError, DegreeCapError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@given(_EXPRESSIONS)
@example("x1^13*x2^12")  # a product past the cap
@example("(x1 + x2)^12*x3^12*x1")
@example("0*x1^13*x2^12")  # no degree is checked once the product is zero
@example("x1^13*0*x2^12*(x1 + x3)^12")
@example("x1^25*0")  # the exponent is checked before the zero
@example("0^0*x1 - x1^0*(x2 - x2)^0 + (0)^0")
@example("-(x1 - x2)*2*(x1 + x2)*x3^2 + x3^2*(x2 + x1)*(x1 - x2)")
@example("(x1*x2 - x2*x1 + x1*x2)*(1 + x1)")  # a key that cancels and comes back
@example("x1^2.0 + 0.50*x2 + 007/014")
@example("x1^12^2")
@example("((x1)")
def test_parser_matches_the_recursive_descent_oracle(text):
    """Folding a term's factors keeps the products' term maps, their order included, and each
    error's type, message and position."""
    assert _parsed(parse_poly, text) == _parsed(parse_oracle.parse_poly, text)


@given(_POLYS3, st.tuples(*[st.fractions(min_value=-4, max_value=4, max_denominator=3)] * 3))
def test_print_parse_roundtrip(p, point):
    text = format_poly(p, _NAMES3)
    again = parse_poly(text, _NAMES3)
    assert again == p
    assert again.eval(point) == p.eval(point)


# -- term order -------------------------------------------------------------------

# Exponents 0..1 and few coefficients, so products hit the same key often and cancel.
_DENSE3 = st.dictionaries(
    st.tuples(*[st.integers(0, 1)] * 3), st.sampled_from([Fraction(-1), Fraction(1), Fraction(1, 2)]), max_size=5
).map(lambda t: Poly(3, t))
_CONSTANTS3 = st.builds(Poly.const, st.just(3), _COEFFS)
_OPERANDS3 = st.one_of(_POLYS3, _DENSE3, _CONSTANTS3, st.just(Poly.zero(3)))
_SCALARS = st.one_of(st.integers(-3, 3), _COEFFS)
# x1*x2 is hit by x1 * x2, cancelled by -x2 * x1, and hit again by x1*x2 * 1; it keeps its first position
_CANCEL_A = Poly(3, {(1, 0, 0): 1, (0, 1, 0): -1, (1, 1, 0): 1})
_CANCEL_B = Poly(3, {(0, 1, 0): 1, (1, 0, 0): 1, (0, 0, 0): 1})


def _ordered(p: Poly) -> list:
    return list(p.terms.items())


@given(_OPERANDS3, _OPERANDS3, _SCALARS)
@example(_CANCEL_A, _CANCEL_B, 2)
@example(_CANCEL_A, _CANCEL_A * -1, Fraction(-1, 2))
@example(Poly.const(3, 3), _CANCEL_A, 0)
@example(Poly.zero(3), Poly.zero(3), 1)
@example(Poly.zero(3), _CANCEL_A, -1)
@example(Poly.const(3, Fraction(-2, 3)), Poly.monomial(3, (20, 5, 0)), 2)  # past the cap
def test_ring_operations_keep_the_oracle_term_order(a, b, k):
    """Each kernel returns the oracle's terms in the oracle's order, for Poly and scalar operands.
    A zero operand leaves the other operand itself, and a product past the cap raises."""
    if not b:
        assert a + b is a and a - b is a and b + a is (a if a else b)
    if a and b and a.degree() + b.degree() > DEGREE_CAP:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(DegreeCapError) as err:
                x * y
            assert str(err.value) == f"product degree {a.degree() + b.degree()} exceeds cap {DEGREE_CAP}"
        products = []
    else:
        products = [
            (a * b, poly_oracle.mul(a, b)),
            (b * a, poly_oracle.mul(b, a)),
            (poly_sum([a, b, a * b, -a], 3), poly_oracle.poly_sum([a, b, poly_oracle.mul(a, b), poly_oracle.neg(a)], 3)),
        ]
    for got, want in [
        *products,
        (a + b, poly_oracle.add(a, b)),
        (a - b, poly_oracle.sub(a, b)),
        (-a, poly_oracle.neg(a)),
        (a + k, poly_oracle.add(a, k)),
        (k + a, poly_oracle.add(a, k)),
        (a - k, poly_oracle.sub(a, k)),
        (k - a, poly_oracle.sub(Poly.const(3, k), a)),
        (a * k, poly_oracle.mul(a, k)),
        (k * a, poly_oracle.mul(a, k)),
        *((a.diff(i), poly_oracle.diff(a, i)) for i in range(3)),
    ]:
        assert _ordered(got) == _ordered(want)


_FIELDS3 = st.lists(st.lists(_OPERANDS3, min_size=3, max_size=3), min_size=1, max_size=4)


@given(_FIELDS3, _OPERANDS3)
@example([[_CANCEL_A, _CANCEL_B, Poly.zero(3)], [_CANCEL_B, Poly.const(3, 2), _CANCEL_A]], _CANCEL_A * _CANCEL_B)
def test_lie_brackets_keep_the_oracle_term_order(fields, p):
    """Every pair, each order and a field with itself, gives lie_bracket's terms in its order."""
    pairs = [(a, b) for a in range(len(fields)) for b in range(len(fields))]
    for (a, b), bracket in zip(pairs, lie_brackets(fields, pairs)):
        want = poly_oracle.lie_bracket(fields[a], fields[b])
        assert [_ordered(c) for c in bracket] == [_ordered(c) for c in want]
    for field in fields:
        assert _ordered(lie_derivative(field, p)) == _ordered(poly_oracle.lie_derivative(field, p))


# -- differentiation -----------------------------------------------------------


def test_product_by_one_is_the_operand():
    """A Poly is never mutated, so multiplying by a scalar 1 returns the operand itself, and
    scaling a matrix by 1 returns the matrix; other scalars still build new values."""
    p = parse_poly("x1^2 - 1/3*x2", ["x1", "x2"])
    assert p * 1 is p and p * Fraction(1) is p and 1 * p is p
    assert p * Fraction(2, 1) == parse_poly("2*x1^2 - 2/3*x2", ["x1", "x2"])
    assert (p * 0).is_zero()
    matrix = PolyMatrix([[p, Poly.const(2, 1)], [Poly.zero(2), p]])
    assert matrix.scale(Fraction(1)) is matrix and matrix.scale(1) is matrix
    assert matrix.scale(-1) == PolyMatrix([[-p, Poly.const(2, -1)], [Poly.zero(2), -p]])


@pytest.mark.parametrize("m", [0, 1, 3])
def test_the_shared_zero_is_never_written(m):
    """One zero per variable count: the operations that take it as an operand, or return it,
    give the right values and leave its term map empty."""
    zero = Poly.zero(m)
    assert Poly.zero(m) is zero and Poly.const(m, 0) is zero and Poly.const(m, Fraction(0)) is zero
    p = random_poly(random.Random(m), m) + 2
    one = Poly.const(m, 1)
    assert zero + p == p == p + zero and p - zero == p and zero - p == -p == poly_sum([zero, -p, zero], m)
    assert all(r.is_zero() for r in (zero * p, p * zero, -zero, zero * 3, p * 0, p - p, poly_sum([p, zero, -p], m)))
    if m:
        x1 = Poly.variable(m, 0)
        assert lie_derivative([zero] * m, p).is_zero() and lie_derivative([p] * m, zero).is_zero()
        brackets = lie_brackets([[zero] * m, [p] * m, [one] * m], [(0, 1), (1, 0), (0, 2)])
        assert all(c.is_zero() for bracket in brackets for c in bracket)
        assert poly_adjugate(PolyMatrix([[zero, x1], [p, zero]])) == PolyMatrix([[zero, -x1], [-p, zero]])
        assert poly_adjugate(PolyMatrix([[one, zero], [zero, one * 2]])) == PolyMatrix([[one * 2, zero], [zero, one]])
        assert poly_det(PolyMatrix([[zero, x1], [zero, p]])).is_zero() and (x1 * zero).diff(0).is_zero()
    assert zero.terms == {} and Poly.zero(m) is zero and not zero
    assert zero.eval_float([0.5] * m) == 0.0 and zero.terms == {}


def test_constant_and_variable_constructors_keep_their_checks():
    """The one-term constructors skip Poly's per-term validation but keep their own checks,
    with the messages they had, and build the term map the validating constructor builds."""
    with pytest.raises(ValueError, match="^variable count must be non-negative$"):
        Poly.zero(-1)
    with pytest.raises(ValueError, match="^variable count must be non-negative$"):
        Poly.const(-1, 1)
    with pytest.raises(TypeError, match="^expected a rational coefficient, got float$"):
        Poly.const(3, 0.5)
    with pytest.raises(IndexError, match=r"^variable index 3 out of range for 3 variables$"):
        Poly.variable(3, 3)
    with pytest.raises(IndexError, match=r"^variable index -1 out of range for 3 variables$"):
        Poly.variable(3, -1)
    built = [(Poly.const(3, value), Poly(3, {(0, 0, 0): value})) for value in (2, Fraction(-3, 4), True)]
    built += [(Poly.const(0, 5), Poly(0, {(): 5})), (Poly.variable(3, 1), Poly(3, {(0, 1, 0): 1}))]
    for fast, validated in built:
        assert fast.terms == validated.terms
        assert [type(c) for c in fast.terms.values()] == [Fraction]
    assert Poly.const(3, 0).is_zero() and Poly.zero(0).nvars == 0


def test_diff_power_rule():
    p = parse_poly("x1^2*x2", ["x1", "x2"])
    assert p.diff(0) == parse_poly("2*x1*x2", ["x1", "x2"])


def test_diff_absent_variable():
    p = parse_poly("x1^2", ["x1", "x2"])
    assert p.diff(1).is_zero()


def test_diff_against_finite_differences():
    rng = random.Random(11)
    p = parse_poly("(x1+x2)^3", ["x1", "x2"])
    dp = p.diff(0)
    assert dp == 3 * parse_poly("(x1+x2)^2", ["x1", "x2"])
    h = 1e-6
    for _ in range(5):
        point = [float(v) for v in random_rational_point(rng, 2)]
        plus = p.eval_float([point[0] + h, point[1]])
        minus = p.eval_float([point[0] - h, point[1]])
        fd = (plus - minus) / (2 * h)
        exact = dp.eval_float(point)
        assert abs(fd - exact) <= 1e-7 * (1 + abs(exact))


def test_diff_index_out_of_range():
    with pytest.raises(IndexError):
        parse_poly("x1", ["x1"]).diff(1)


def test_diff_commutes():
    rng = random.Random(3)
    for _ in range(20):
        p = random_poly(rng, 3)
        assert p.diff(0).diff(2) == p.diff(2).diff(0)
        assert p.diff(1).diff(1) == p.diff(1).diff(1)


# -- evaluation ----------------------------------------------------------------


def test_eval_simple():
    p = parse_poly("x1^2 + x2", ["x1", "x2"])
    assert p.eval([2, 1]) == 5


def test_eval_origin_is_constant_term():
    rng = random.Random(5)
    for _ in range(10):
        p = random_poly(rng, 2)
        assert p.eval([0, 0]) == p.constant_term


def test_eval_square_difference():
    p = parse_poly("(x1-x2)^2", ["x1", "x2"])
    # independent direct substitution: (3 - 1)^2
    assert p.eval([3, 1]) == (3 - 1) ** 2


def test_eval_length_mismatch():
    with pytest.raises(ValueError):
        parse_poly("x1", ["x1"]).eval([1, 2])


# -- truncation ----------------------------------------------------------------


def test_truncate_drops_high_degree():
    p = parse_poly("x1^3 + x1", ["x1"])
    assert p.truncate(2) == parse_poly("x1", ["x1"])


def test_truncate_identity_at_full_degree():
    rng = random.Random(9)
    for _ in range(10):
        p = random_poly(rng, 2)
        assert p.truncate(max(p.degree(), 0)) == p


def test_truncate_binomial():
    p = parse_poly("(1+x1)^4", ["x1"])
    truncated = p.truncate(2)
    expected = {(k,): Fraction(math.comb(4, k)) for k in range(3)}
    assert truncated.terms == expected


def test_truncate_preserves_low_coefficients():
    rng = random.Random(13)
    for _ in range(10):
        p = random_poly(rng, 3, max_deg=4)
        t = p.truncate(2)
        for mi, c in p.terms.items():
            if sum(mi) <= 2:
                assert t.coeff(mi) == c
            else:
                assert t.coeff(mi) == 0


# -- ring properties -----------------------------------------------------------


def test_ring_axioms_random():
    rng = random.Random(1)
    for _ in range(15):
        a = random_poly(rng, 2)
        b = random_poly(rng, 2)
        c = random_poly(rng, 2)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_degree_cap():
    p = parse_poly("x1^13", ["x1"])
    with pytest.raises(DegreeCapError):
        _ = p * p
    with pytest.raises(DegreeCapError):
        _ = parse_poly("x1^2", ["x1"]) ** (DEGREE_CAP // 2 + 1)


def test_power_exponent_is_capped_for_any_base():
    # a constant base has degree 0, so only the exponent itself bounds the work
    assert parse_poly(f"x1^{DEGREE_CAP}", ["x1"]) == Poly.monomial(1, (DEGREE_CAP,))
    assert parse_poly(f"(1/2)^{DEGREE_CAP}", ["x1"]) == Poly.const(1, Fraction(1, 2**DEGREE_CAP))
    for base in (Poly.const(1, 2), Poly.const(1, 1), Poly.zero(1)):
        with pytest.raises(DegreeCapError, match=f"cap {DEGREE_CAP}"):
            _ = base ** (DEGREE_CAP + 1)
    with pytest.raises(DegreeCapError, match=f"cap {DEGREE_CAP}"):
        parse_poly("2^100000000", ["x1"])


def test_embed():
    p = parse_poly("y1*y2", ["y1", "y2"])
    wide = p.embed(4)
    assert wide.terms == {(1, 1, 0, 0): Fraction(1)}
    point = [Fraction(5), Fraction(2), Fraction(3), Fraction(7)]
    assert wide.eval(point) == p.eval(point[:2])


def test_grad_and_lie_derivative():
    v = parse_poly("1/2*x1^2 + 1/2*x2^2", ["x1", "x2"])
    field = [parse_poly("-2*x1", ["x1", "x2"]), parse_poly("-x2", ["x1", "x2"])]
    assert grad(v) == [parse_poly("x1", ["x1", "x2"]), parse_poly("x2", ["x1", "x2"])]
    assert lie_derivative(field, v) == parse_poly("-2*x1^2 - x2^2", ["x1", "x2"])


# -- matrices ------------------------------------------------------------------


def test_matrix_adjugate_identity():
    rng = random.Random(21)
    for _ in range(8):
        entries = [[random_poly(rng, 2, max_deg=1, terms=2) for _ in range(3)] for _ in range(3)]
        mat = PolyMatrix(entries)
        det = poly_det(mat)
        product = poly_adjugate(mat) @ mat
        for i in range(3):
            for j in range(3):
                expected = det if i == j else Poly.zero(2)
                assert product.entry(i, j) == expected


@st.composite
def _constant_matrices(draw, square: bool = True):
    """Constant Polys, about 40 % of them zero, in 1..7 columns and as many rows (1..9 rows if not square)."""
    cols, nvars = draw(st.integers(1, 7)), draw(st.integers(0, 2))
    rows = cols if square else draw(st.integers(1, 9))
    nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    values = [[Fraction(0) if draw(st.integers(0, 9)) < 4 else draw(nonzero) for _ in range(cols)] for _ in range(rows)]
    return PolyMatrix([[Poly.const(nvars, v) for v in row] for row in values], cols=cols, nvars=nvars)


def _const_matrix(rows, nvars=1):
    return PolyMatrix([[Poly.const(nvars, Fraction(v)) for v in row] for row in rows], cols=len(rows), nvars=nvars)


def _pinned(p: Poly) -> list:
    return list(p.terms.items())


@given(_constant_matrices())
@example(_const_matrix([[0, 1], [1, 0]]))  # a row swap, det < 0
@example(_const_matrix([[0, 0, 2], [0, 3, 0], [Fraction(1, 2), 0, 0]]))  # pivots in reverse column order
@example(_const_matrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]]))  # singular
@example(_const_matrix([[0, 0], [0, 5]]))  # a zero row
@example(_const_matrix([[(i - 3 or 2) * int(j == (i + 3) % 7) for j in range(7)] for i in range(7)], 7))  # det -72
def test_constant_det_and_adjugate_match_the_cofactor_expansion(mat):
    n = mat.rows
    det, adj = poly_det(mat), poly_adjugate(mat)
    want_det, want_adj = matrix_oracle.cofactor_det(mat), matrix_oracle.cofactor_adjugate(mat)
    assert det == want_det
    assert _pinned(det) == _pinned(want_det)
    assert adj == want_adj
    assert [[_pinned(p) for p in row] for row in adj.entries] == [[_pinned(p) for p in row] for row in want_adj.entries]
    zero = Poly.zero(mat.nvars)
    assert (adj @ mat).entries == tuple(tuple(det if i == j else zero for j in range(n)) for i in range(n))


def dense_polynomial_matrix(n: int) -> PolyMatrix:
    """Every entry non-constant and nonzero: (i == j) + (i + 1) x1 + (j + 1) x2."""
    entries = [[Poly(2, {(0, 0): int(i == j), (1, 0): i + 1, (0, 1): j + 1}) for j in range(n)] for i in range(n)]
    return PolyMatrix(entries)


def test_a_dense_11x11_cofactor_expansion_is_refused():
    """e 11! minors: past MAX_MINORS the count on the zero pattern refuses before any product."""
    big = dense_polynomial_matrix(11)
    for f in (poly_det, poly_adjugate):
        with pytest.raises(ExpansionLimitError, match=f"of size 11x11 takes more than {MAX_MINORS} minors"):
            f(big)
    poly_det(dense_polynomial_matrix(6))  # 1237 minors, and a dense 6x6 adjugate 7416


@st.composite
def _sparse_polynomial_matrices(draw):
    n = draw(st.integers(1, 5))
    entry = st.sampled_from([Poly.zero(2), Poly.const(2, 3), Poly.variable(2, 0), Poly(2, {(0, 0): 1, (0, 1): -2})])
    return PolyMatrix([[draw(entry) for _ in range(n)] for _ in range(n)], cols=n, nvars=2)


@given(_sparse_polynomial_matrices())
@example(dense_polynomial_matrix(5))
def test_the_limit_counts_the_minors_the_expansion_takes(mat):
    """With MAX_MINORS at the number of minors the expansion takes, it runs; one fewer refuses it."""
    expand = poly._det_rows
    for f in (poly_det, poly_adjugate):
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(poly, "_det_rows", lambda rows, nvars: calls.append(len(rows)) or expand(rows, nvars))
            want = f(mat)
        if calls:  # not a constant matrix's elimination
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(poly, "MAX_MINORS", len(calls))
                assert f(mat) == want
                patch.setattr(poly, "MAX_MINORS", len(calls) - 1)
                with pytest.raises(ExpansionLimitError):
                    f(mat)


@given(_constant_matrices(square=False))
def test_origin_pivots_match_forward_elimination(mat):
    """The Gauss-Jordan elimination behind origin_pivots keeps the rows and pivots of forward elimination."""
    rows = [[p.constant_term for p in row] for row in mat.entries]
    assert origin_pivots(mat) == matrix_oracle.forward_pivots(rows)


@st.composite
def _sparse_fraction_rows(draw):
    """1..9 rows of 1..8 Fractions, about 60 % of them zero, and a pivot width of 1..8 columns."""
    cols = draw(st.integers(1, 8))
    nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    rows = [
        [Fraction(0) if draw(st.integers(0, 9)) < 6 else draw(nonzero) for _ in range(cols)]
        for _ in range(draw(st.integers(1, 9)))
    ]
    return rows, draw(st.integers(1, cols))


@given(_sparse_fraction_rows())
@example(([[Fraction(1), Fraction(0), Fraction(2)], [Fraction(3), Fraction(1), Fraction(0)]], 2))
def test_reduce_rows_matches_the_dense_update(case):
    """Updating only where the pivot row is nonzero keeps every row, pivot and reduced row."""
    rows, width = case
    before = [list(row) for row in rows]
    assert reduce_rows(rows, width) == matrix_oracle.dense_reduce_rows(rows, width)
    assert rows == before


@given(_sparse_fraction_rows())
@example(([[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)], [Fraction(3), Fraction(3)]], 2))
def test_pivot_inverse_is_the_inverse_of_the_pivot_block(case):
    """Over [A | I], each kept row's record over its pivot reads only the kept rows S, and on
    them it is the row, for its pivot column, of M^-1 for M = A[S, P]: r A is 1 at its own
    pivot column and 0 at the others."""
    rows, width = case
    n = len(rows)
    unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    basis = reduce_rows([row[:width] + e for row, e in zip(rows, unit)], width)
    inverse = poly.pivot_inverse(basis, width)
    kept, cols = [i for i, _, _ in basis], [col for _, col, _ in basis]
    assert list(inverse) == cols
    for col, record in inverse.items():
        assert all(not a for i, a in enumerate(record) if i not in kept)
        product = [sum(record[i] * rows[i][j] for i in kept) for j in cols]
        assert product == [int(j == col) for j in cols]


def test_exact_division():
    rng = random.Random(23)
    for _ in range(20):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3, max_deg=2, terms=3)
        if b.is_constant():
            continue
        assert (a * b) / b == a
        with pytest.raises(ValueError, match="does not divide"):
            (a * b + 1) / b
    p = parse_poly("x2^2 - 3*x1 + 1/2", ["x1", "x2"])
    assert list((p / Fraction(-2, 3)).terms) == list(p.terms)  # a constant divisor keeps the term order
    assert p / 1 == p
    with pytest.raises(ZeroDivisionError):
        p / Poly.zero(2)


def test_compile_float_divides_by_den():
    polys = [parse_poly(t, ["x1", "x2"]) for t in ("x1^2 - x2", "3*x1*x2", "0")]
    den = parse_poly("1 + x1^2 + 1/3*x2^4", ["x1", "x2"])
    one = Poly.const(2, 1)
    for x in ([0.3, -1.7], [1e3, 2.0], [-0.0, 0.0]):
        *values, d = compile_float([*polys, den])(x)
        assert compile_float(polys, den)(x) == tuple(v / d for v in values)
        assert compile_float(polys, one)(x) == compile_float(polys)(x)
    with pytest.raises(ZeroDivisionError):
        compile_float(polys, parse_poly("x1", ["x1", "x2"]))([0.0, 1.0])


def test_matrix_matvec_and_empty():
    mat = PolyMatrix([[Poly.const(2, 1), Poly.variable(2, 0)]])
    out = mat.matvec([Poly.variable(2, 1), Poly.const(2, 2)])
    assert out == [parse_poly("x2 + 2*x1", ["x1", "x2"])]
    empty = PolyMatrix([], cols=2, nvars=2)
    assert empty.rows == 0
    assert empty.matvec([Poly.zero(2), Poly.zero(2)]) == []
    assert empty.at([0.0, 0.0]).shape == (0, 2)


def test_matrix_at_numeric():
    mat = PolyMatrix([[Poly.variable(2, 0), Poly.const(2, 3)]])
    np.testing.assert_allclose(mat.at([2.0, 0.0]), [[2.0, 3.0]])
    np.testing.assert_array_equal(mat.at([[2.0, 0.0], [-1.0, 5.0]]), [[[2.0, 3.0]], [[-1.0, 3.0]]])
    with pytest.raises(ValueError):
        mat.at([1.0, 2.0, 3.0])


@st.composite
def _polys_and_points(draw):
    nvars = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 4)] * nvars)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    polys = draw(st.lists(st.dictionaries(exponents, coeffs, max_size=5).map(lambda t: Poly(nvars, t)), max_size=4))
    lead = draw(st.sampled_from([(), (1,), (5,), (2, 3)]))
    points = draw(arrays(np.float64, lead + (nvars,), elements=st.floats(-3, 3)))
    return polys, points


def _eval_float_reference(p: Poly, point) -> float:
    """Poly.eval_float before the cached term table: converts every coefficient on every call."""
    total = 0.0
    for mi, c in p.terms.items():
        term = float(c)
        for e, v in zip(mi, point):
            if e:
                term *= float(v) ** e
        total += term
    return total


def _float_outcome(evaluate, *args):
    """The value's bytes, or the overflow a float power raised."""
    try:
        return struct.pack("<d", evaluate(*args))
    except OverflowError:
        return "overflow"


_COORDS = st.one_of(
    st.floats(-3, 3),
    st.sampled_from([0.0, -0.0, 1e100, -1e100, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _poly_and_point(draw):
    nvars = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 4)] * nvars)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    p = Poly(nvars, draw(st.dictionaries(exponents, coeffs, max_size=6)))
    return p, draw(st.lists(_COORDS, min_size=nvars, max_size=nvars))


@given(_poly_and_point())
@example((Poly.zero(2), [-0.0, 1e300]))
@example((Poly(2, {(1, 0): Fraction(-3, 7), (0, 2): Fraction(1), (0, 0): Fraction(1, 3)}), [-0.0, -0.0]))
@example((Poly(1, {(3,): Fraction(2), (0,): Fraction(-1)}), [1e200]))
def test_eval_float_is_reference_bitwise(case):
    p, point = case
    want = _float_outcome(_eval_float_reference, p, point)
    # the first call builds the term table, the second reads it
    assert _float_outcome(p.eval_float, np.array(point)) == want
    assert _float_outcome(p.eval_float, point) == want


@given(_polys_and_points())
def test_eval_points_is_eval_float_bitwise(case):
    polys, points = case
    got = eval_points(polys, points)
    assert got.shape == points.shape[:-1] + (len(polys),)
    flat = points.reshape(-1, points.shape[-1])
    want = np.array([[p.eval_float(x) for p in polys] for x in flat.tolist()]).reshape(got.shape)
    assert got.tobytes() == want.tobytes()


_SHARED_POWER = [
    Poly(2, {(2, 0): Fraction(1), (2, 1): Fraction(-3, 7), (0, 2): Fraction(2)}),
    Poly(2, {(2, 0): Fraction(5, 3), (2, 2): Fraction(1), (0, 3): Fraction(-1)}),
]
_EXPONENT_ONE = [Poly(2, {(1, 1): Fraction(1, 3), (1, 0): Fraction(-1), (0, 1): Fraction(2)}), Poly.variable(2, 1)]


@st.composite
def _polys_and_point(draw):
    nvars = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 4)] * nvars)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    polys = draw(st.lists(st.dictionaries(exponents, coeffs, max_size=6).map(lambda t: Poly(nvars, t)), max_size=4))
    return polys, draw(st.lists(_COORDS, min_size=nvars, max_size=nvars))


@given(_polys_and_point())
@example(([Poly(2, {(1, 0): Fraction(-3, 7), (0, 2): Fraction(1)}), Poly.zero(2)], [-0.0, 0.0]))
@example(([Poly(2, {(3, 3): Fraction(5)}), Poly(2, {(3, 3): Fraction(1), (3, 2): Fraction(-1)})], [1e100, 1e100]))
@example(([Poly.variable(1, 0), Poly(1, {(3,): Fraction(2), (0,): Fraction(-1)})], [1e200]))
# x1^2 shared by terms of both polynomials, finite and then overflowing
@example((_SHARED_POWER, [1.7, -0.3]))
@example((_SHARED_POWER, [1e200, -0.3]))
# exponent-1 factors, written without a power
@example((_EXPONENT_ONE, [-0.0, 1e200]))
@example((_EXPONENT_ONE, [1e200, -0.0]))
def test_compile_float_is_reference_bitwise(case):
    polys, point = case
    want = [_float_outcome(_eval_float_reference, p, point) for p in polys]
    if "overflow" in want:  # one overflowing power ends the whole vector
        want = ["overflow"] * len(polys)
    values = compile_float(polys)
    # an np.ndarray point hands out np.float64, whose ** rounds differently from float's
    for x in (point, np.array(point)):
        assert [_float_outcome(lambda x: values(x)[k], x) for k in range(len(polys))] == want


@given(_polys_and_points())
@example((_SHARED_POWER, np.array([[1.7, -0.3], [-2.5, 3.0]])))
@example((_EXPONENT_ONE, np.array([[-0.0, 1e200], [1e200, -0.0]])))
def test_compile_float_is_eval_points_bitwise(case):
    polys, points = case
    flat = points.reshape(-1, points.shape[-1])
    want = eval_points(polys, points).reshape(len(flat), len(polys))
    values = compile_float(polys)
    for x, row in zip(flat, want):
        assert np.array(values(x), dtype=float).tobytes() == row.tobytes()



def test_a_sum_of_more_than_3000_terms_compiles_and_matches_eval_points():
    """value_lines splits a long sum over statements of TERMS_PER_LINE terms; one chained sum of 3000
    terms makes compile() raise RecursionError on CPython 3.11."""
    rng = random.Random(3000)
    exponents = [mi for mi in itertools.product(range(15), repeat=4) if sum(mi) <= 14]
    p = Poly(4, {mi: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7)) for mi in exponents})
    assert len(p.terms) > 3000
    polys = [p, Poly.zero(4), p * Fraction(-1, 3)]
    points = np.array([[0.3, -0.7, 0.9, -0.2], [-1.1, 0.5, 0.25, 1.3], [0.0, -0.0, 1.0, -1.0]])
    want = eval_points(polys, points)
    values = compile_float(polys)
    for x, row in zip(points, want):
        assert np.array(values(x), dtype=float).tobytes() == row.tobytes()
        assert p.eval_float(x) == row[0]
