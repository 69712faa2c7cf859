"""Exact polynomial arithmetic, parsing, printing, and matrices."""

import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from liftlyap.parsing import MAX_NESTING, PolyParseError, parse_poly
from liftlyap.poly import (
    DEGREE_CAP,
    DegreeCapError,
    Poly,
    PolyMatrix,
    eval_points,
    format_poly,
    grad,
    lie_derivative,
    poly_adjugate,
    poly_det,
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


_NAMES3 = ["x1", "x2", "x3"]
_COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_POLYS3 = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), _COEFFS, max_size=6).map(lambda t: Poly(3, t))


@given(_POLYS3, st.tuples(*[st.fractions(min_value=-4, max_value=4, max_denominator=3)] * 3))
def test_print_parse_roundtrip(p, point):
    text = format_poly(p, _NAMES3)
    again = parse_poly(text, _NAMES3)
    assert again == p
    assert again.eval(point) == p.eval(point)


# -- differentiation -----------------------------------------------------------


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
    wide = p.embed(4, offset=1)
    assert wide.terms == {(0, 1, 1, 0): Fraction(1)}
    point = [Fraction(5), Fraction(2), Fraction(3), Fraction(7)]
    assert wide.eval(point) == p.eval(point[1:3])


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
