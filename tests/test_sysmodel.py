"""Quotient verification, Lyapunov data validation, and the target field."""

import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import check_grid, flat_connection
from hypothesis import given, settings
from hypothesis import strategies as st

from liftlyap.parsing import parse_poly
from liftlyap.poly import Poly, poly_sum
from liftlyap.sysmodel import (
    CLFValidationError,
    ControlAffineSystem,
    EquilibriumError,
    QuotientMorphism,
    QuotientSystem,
    build_target_x,
    closed_loop_decrease,
    hessian_at_origin,
    make_quotient_clf,
    quotient_witness,
    verify_quotient,
)

X2 = ["x1", "x2"]
Y1 = ["y1"]


def _p(text, names):
    return parse_poly(text, names)


def ex_ps():
    sys = ControlAffineSystem(2, 1, (_p("0", X2), _p("-x2", X2)), ((_p("1", X2), _p("0", X2)),))
    qsys = QuotientSystem(1, 1, (_p("0", Y1),), ((_p("1", Y1),),))
    morph = QuotientMorphism(1, (_p("0", X2),), ((_p("1", X2),),))
    return sys, qsys, morph


def ex_di():
    sys = ControlAffineSystem(2, 1, (_p("x2", X2), _p("0", X2)), ((_p("0", X2), _p("1", X2)),))
    qsys = QuotientSystem(1, 1, (_p("0", Y1),), ((_p("1", Y1),),))
    morph = QuotientMorphism(1, (_p("x2", X2),), ((_p("0", X2),),))
    return sys, qsys, morph


def test_verify_quotient_ex_ps():
    residuals = verify_quotient(*ex_ps())
    assert all(r.is_zero() for r in residuals)
    assert quotient_witness(residuals) is None


def test_verify_quotient_ex_di():
    residuals = verify_quotient(*ex_di())
    assert all(r.is_zero() for r in residuals)


def test_verify_quotient_deliberate_mismatch():
    sys, qsys, _ = ex_ps()
    bad = QuotientMorphism(1, (_p("0", X2),), ((_p("2", X2),),))
    residuals = verify_quotient(sys, qsys, bad)
    # residual is -u1 in the joint (x1, x2, u1) space
    assert residuals[0].terms == {(0, 0, 1): Fraction(-1)}
    witness = quotient_witness(residuals)
    assert witness is not None and witness[0] == 1


_COEFFS = st.fractions(-3, 3, max_denominator=3)
_POLYS = {
    nvars: st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars), _COEFFS, max_size=3).map(
        lambda t, nvars=nvars: Poly(nvars, t)
    )
    for nvars in range(1, 5)
}


def _polys(nvars: int, count: int):
    """``count`` random polynomials in ``nvars`` variables, degree at most 2 per variable."""
    return st.lists(_POLYS[nvars], min_size=count, max_size=count)


@st.composite
def _exact_quotients(draw):
    """A quotient claim that holds by construction.

    The quotient data (g0, g, varphi, beta) is drawn first; the first n rows
    of f0 and of each f_j are then set to what the quotient identity
    demands, and the fibre rows are free.
    """
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, m - 1))
    r = draw(st.integers(1, 2))
    s = draw(st.integers(0, 2))
    g0 = draw(_polys(n, n))
    g = [draw(_polys(n, n)) for _ in range(s)]
    varphi = draw(_polys(m, s))
    beta = [draw(_polys(m, r)) for _ in range(s)]
    f0 = [g0[q].embed(m) + poly_sum((g[k][q].embed(m) * varphi[k] for k in range(s)), m) for q in range(n)]
    f = [[poly_sum((g[k][q].embed(m) * beta[k][j] for k in range(s)), m) for q in range(n)] for j in range(r)]
    f0 += draw(_polys(m, m - n))
    f = [col + draw(_polys(m, m - n)) for col in f]
    sys = ControlAffineSystem(m, r, tuple(f0), tuple(tuple(col) for col in f))
    qsys = QuotientSystem(n, s, tuple(g0), tuple(tuple(col) for col in g))
    return sys, qsys, QuotientMorphism(n, tuple(varphi), tuple(tuple(row) for row in beta))


# each example draws a few dozen polynomials, so fewer examples keep this at about a second
@settings(max_examples=40)
@given(_exact_quotients())
def test_quotient_by_construction_has_zero_residuals(case):
    residuals = verify_quotient(*case)
    assert len(residuals) == case[1].n
    assert all(res.is_zero() for res in residuals)
    assert quotient_witness(residuals) is None


@settings(max_examples=40)
@given(_exact_quotients(), st.data())
def test_perturbed_quotient_witness_names_the_perturbation(case, data):
    sys, qsys, morph = case
    q = data.draw(st.integers(0, qsys.n - 1))
    exponents = data.draw(st.tuples(*[st.integers(0, 2)] * sys.m))
    coeff = data.draw(_COEFFS.filter(bool))
    f0 = list(sys.f0)
    f0[q] = f0[q] + Poly.monomial(sys.m, exponents, coeff)
    residuals = verify_quotient(ControlAffineSystem(sys.m, sys.r, tuple(f0), sys.f), qsys, morph)
    # the residual is linear in f0, so the perturbation is all that is left
    assert [res.is_zero() for res in residuals] == [k != q for k in range(qsys.n)]
    assert quotient_witness(residuals) == (q + 1, exponents + (0,) * sys.r, coeff)


def test_pullback_clf():
    """A function of y1..yn pulls back through the coordinate projection as Poly.embed."""
    assert _p("1/2*y1^2", Y1).embed(2) == _p("1/2*x1^2", X2)
    assert Poly.zero(1).embed(2).is_zero()
    assert parse_poly("y1*y2", ["y1", "y2"]).embed(3) == _p("x1*x2", ["x1", "x2", "x3"])


def test_pullback_preserves_evaluation():
    rng = random.Random(31)
    vt = parse_poly("y1^2 - 2*y1*y2 + 3*y2^3", ["y1", "y2"])
    pulled = vt.embed(4)
    for _ in range(10):
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)]
        assert pulled.eval(point) == vt.eval(point[:2])


def test_closed_loop_decrease_basic():
    qsys = QuotientSystem(1, 1, (_p("0", Y1),), ((_p("1", Y1),),))
    w = closed_loop_decrease(qsys, _p("1/2*y1^2", Y1), [_p("-y1", Y1)])
    assert w == _p("-y1^2", Y1)


def test_closed_loop_decrease_drift_only():
    qsys = QuotientSystem(1, 0, (_p("-y1", Y1),), ())
    w = closed_loop_decrease(qsys, _p("1/2*y1^2", Y1), [])
    assert w == _p("-y1^2", Y1)


def test_clf_sign_flip_rejected():
    qsys = QuotientSystem(1, 1, (_p("0", Y1),), ((_p("1", Y1),),))
    with pytest.raises(CLFValidationError):
        make_quotient_clf(qsys, _p("1/2*y1^2", Y1), [_p("y1", Y1)], check_grid(1))


def test_clf_origin_and_hessian_checks():
    qsys = QuotientSystem(1, 1, (_p("0", Y1),), ((_p("1", Y1),),))
    with pytest.raises(CLFValidationError):
        make_quotient_clf(qsys, _p("1 + y1^2", Y1), [_p("-y1", Y1)], check_grid(1))
    with pytest.raises(CLFValidationError):
        make_quotient_clf(qsys, _p("y1^4", Y1), [_p("-y1", Y1)], check_grid(1))  # degenerate Hessian


def test_clf_accepts_ex_ps_data():
    qsys = QuotientSystem(1, 1, (_p("0", Y1),), ((_p("1", Y1),),))
    w = make_quotient_clf(qsys, _p("1/2*y1^2", Y1), [_p("-y1", Y1)], check_grid(1))
    assert w == _p("-y1^2", Y1)


def test_hessian_at_origin():
    p = parse_poly("y1^2 + 3*y1*y2 + 2*y2^2 + y1^3", ["y1", "y2"])
    np.testing.assert_allclose(hessian_at_origin(p), [[2.0, 3.0], [3.0, 4.0]])


def _target_fd_oracle(sys, qsys, conn, vtilde, alpha, point, h=1e-6):
    """Re-derive X numerically: lift minus finite-difference gradient minus drift."""
    m, n = sys.m, qsys.n
    closed = [qsys.g0[q] for q in range(n)]
    for k in range(qsys.s):
        closed = [closed[q] + qsys.g[k][q] * alpha[k] for q in range(n)]

    def pulled_vtilde(x):
        return vtilde.eval_float(list(x[:n]))

    point = np.asarray(point, dtype=float)
    lift_val = np.zeros(m)
    base_vals = np.array([comp.eval_float(list(point[:n])) for comp in closed])
    lift_val[:n] = base_vals
    for p in range(m - n):
        lift_val[n + p] = sum(
            conn.gamma[p][q].eval_float(point) * base_vals[q] for q in range(n)
        )
    gradient = np.zeros(m)
    for i in range(m):
        shift = np.zeros(m)
        shift[i] = h
        gradient[i] = (pulled_vtilde(point + shift) - pulled_vtilde(point - shift)) / (2 * h)
    drift = np.array([comp.eval_float(point) for comp in sys.f0])
    return lift_val - gradient - drift


def test_build_target_x_ex_ps():
    sys, qsys, _ = ex_ps()
    conn = flat_connection(2, 1)
    vtilde, alpha = _p("1/2*y1^2", Y1), [_p("-y1", Y1)]
    make_quotient_clf(qsys, vtilde, alpha, check_grid(1))
    x_field = build_target_x(sys, qsys, conn, vtilde, alpha)
    assert list(x_field) == [_p("-2*x1", X2), _p("x2", X2)]
    assert vtilde.embed(2) == _p("1/2*x1^2", X2)  # the pulled-back vtilde the lift adds V to
    rng = random.Random(41)
    for _ in range(5):
        point = [rng.uniform(-1, 1) for _ in range(2)]
        oracle = _target_fd_oracle(sys, qsys, conn, vtilde, alpha, point)
        value = np.array([comp.eval_float(point) for comp in x_field])
        np.testing.assert_allclose(value, oracle, atol=1e-6)


def test_build_target_x_ex_di():
    sys, qsys, _ = ex_di()
    conn = flat_connection(2, 1)
    vtilde, alpha = _p("1/2*y1^2", Y1), [_p("-y1", Y1)]
    make_quotient_clf(qsys, vtilde, alpha, check_grid(1))
    x_field = build_target_x(sys, qsys, conn, vtilde, alpha)
    assert list(x_field) == [_p("-2*x1 - x2", X2), Poly.zero(2)]


def test_build_target_x_zero_case():
    # zero quotient dynamics, zero vtilde, zero drift: X vanishes identically
    sys = ControlAffineSystem(2, 1, (Poly.zero(2), Poly.zero(2)), ((_p("1", X2), _p("0", X2)),))
    qsys = QuotientSystem(1, 0, (Poly.zero(1),), ())
    conn = flat_connection(2, 1)
    x_field = build_target_x(sys, qsys, conn, Poly.zero(1), ())
    assert all(comp.is_zero() for comp in x_field)


def test_build_target_x_affine_additivity():
    """X is affine in vtilde and in f0: increments add exactly."""
    _, qsys, _ = ex_ps()
    conn = flat_connection(2, 1)
    alpha = (_p("-y1", Y1),)
    rng = random.Random(47)
    fields = ((_p("1", X2), _p("0", X2)),)

    def make_sys(f0):
        return ControlAffineSystem(2, 1, f0, fields)

    def x_of(sys, vt):
        return build_target_x(sys, qsys, conn, vt, alpha)

    for _ in range(5):
        c1 = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        c2 = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        vt1 = Poly(1, {(2,): c1})
        vt2 = Poly(1, {(4,): c2}) if c2 != 0 else Poly.zero(1)
        f0_a = (_p("x1*x2", X2), _p("-x2", X2))
        f0_b = (_p("x2^2", X2), _p("x1", X2))
        f0_sum = tuple(f0_a[i] + f0_b[i] for i in range(2))
        base = make_sys((Poly.zero(2), Poly.zero(2)))
        # vtilde additivity at fixed f0
        left = x_of(base, vt1 + vt2)
        right = [
            x_of(base, vt1)[i] + x_of(base, vt2)[i] - x_of(base, Poly.zero(1))[i]
            for i in range(2)
        ]
        assert list(left) == right
        # f0 additivity at fixed vtilde
        left = x_of(make_sys(f0_sum), vt1)
        right = [
            x_of(make_sys(f0_a), vt1)[i] + x_of(make_sys(f0_b), vt1)[i] - x_of(base, vt1)[i]
            for i in range(2)
        ]
        assert list(left) == right


def test_equilibrium_rejection():
    sys = ControlAffineSystem(2, 1, (_p("1", X2), _p("-x2", X2)), ((_p("1", X2), _p("0", X2)),))
    qsys = QuotientSystem(1, 1, (_p("0", Y1),), ((_p("1", Y1),),))
    conn = flat_connection(2, 1)
    vtilde, alpha = _p("1/2*y1^2", Y1), [_p("-y1", Y1)]
    make_quotient_clf(qsys, vtilde, alpha, check_grid(1))
    with pytest.raises(EquilibriumError):
        build_target_x(sys, qsys, conn, vtilde, alpha)


def test_quotient_dynamic_trajectory_property():
    """Projected trajectories of the full system satisfy the quotient dynamics."""
    sys, qsys, morph = ex_ps()
    rng = random.Random(55)
    h = 1e-3
    steps = 1000
    for trial in range(3):
        u_coeffs = [rng.uniform(-1, 1) for _ in range(3)]

        def u_of_t(t):
            return u_coeffs[0] + u_coeffs[1] * t + u_coeffs[2] * t * t

        x = np.array([rng.uniform(-0.5, 0.5) for _ in range(2)])
        y = np.array([x[0]])

        def joint_field(t, state):
            xs, ys = state[:2], state[2:]
            u = u_of_t(t)
            xdot = np.array([comp.eval_float(xs) for comp in sys.f0])
            xdot += u * np.array([comp.eval_float(xs) for comp in sys.f[0]])
            v = morph.varphi[0].eval_float(xs) + u * morph.beta[0][0].eval_float(xs)
            ydot = np.array([qsys.g0[0].eval_float(ys)]) + v * np.array(
                [qsys.g[0][0].eval_float(ys)]
            )
            return np.concatenate([xdot, ydot])

        state = np.concatenate([x, y])
        worst = 0.0
        for k in range(steps):
            t = k * h
            k1 = joint_field(t, state)
            k2 = joint_field(t + h / 2, state + h / 2 * k1)
            k3 = joint_field(t + h / 2, state + h / 2 * k2)
            k4 = joint_field(t + h, state + h * k3)
            state = state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            worst = max(worst, abs(state[0] - state[2]))  # phi(x) vs y
        assert worst <= 1e-6
