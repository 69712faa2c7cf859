"""Feedback solving, closed loops, simulation, and decrease verification."""

import itertools
import math
import random

from fractions import Fraction

import feedback_oracle
import numpy as np
import pytest
import rk4_oracle
from hypothesis import example, given
from hypothesis import strategies as st
from conftest import build_pipeline, check_grid, check_points, polynomial_loop, target_field
from liftbench import gen

from liftlyap import cli, synth
from liftlyap.parsing import parse_poly
from liftlyap.poly import DegreeCapError, Poly, grad, poly_det, poly_sum
from liftlyap.synth import (
    DIVERGENCE_GUARD,
    VSTAR_FLOOR,
    DivergenceError,
    FeedbackResidualError,
    FeedbackSolution,
    TrajectoryRecord,
    closed_loop_field,
    guard_box,
    simulate_rk4,
    solve_feedback,
    verify_lyapunov_decrease,
    write_trajectory_csv,
)
from liftlyap.sysmodel import ControlAffineSystem

X2 = ["x1", "x2"]


def _p(text, names=X2):
    return parse_poly(text, names)


def _zero_feedback(m):
    """The polynomial feedback u = 0 of one input."""
    return FeedbackSolution((Poly.zero(m),), (Poly.zero(m),), Poly.const(m, 1))


def _solved(name):
    from liftlyap.integrability import graph_form
    from liftlyap.lift import assemble_lift_system, assemble_vstar, solve_jets

    problem, _, _, td, rs = build_pipeline(name)
    system = assemble_lift_system(graph_form(rs), problem.options.order)
    jet = solve_jets(system, rs, fibre_start=problem.qsys.n)
    vstar, _ = assemble_vstar(td.pullback_vtilde, jet)
    v = jet.polynomial(problem.sys.m)
    dv = grad(v)
    rhs = [td.x_field[i] - dv[i] for i in range(problem.sys.m)]
    return problem, td, v, vstar, rhs


def test_solve_feedback_ex_ps():
    problem, _, _, _, rhs = _solved("ex_ps")
    fb = solve_feedback(problem.sys, rhs)
    assert fb.symbolic == (_p("-2*x1"),)
    loop = closed_loop_field(problem.sys, fb)
    assert (loop.numer, fb.den) == ((_p("-2*x1"), _p("-x2")), _p("1"))


def test_solve_feedback_ex_fa():
    problem, _, _, _, rhs = _solved("ex_fa")
    fb = solve_feedback(problem.sys, rhs)
    assert fb.symbolic == (_p("-2*x1"), _p("-x2"))
    loop = closed_loop_field(problem.sys, fb)
    assert (loop.numer, fb.den) == ((_p("-2*x1"), _p("-x2")), _p("1"))


def test_solve_feedback_out_of_range_rhs():
    sys = ControlAffineSystem(2, 1, (Poly.zero(2), Poly.zero(2)), ((_p("1"), _p("0")),))
    rhs = [Poly.zero(2), Poly.const(2, 1)]  # unreachable second component
    with pytest.raises(FeedbackResidualError):
        solve_feedback(sys, rhs)


@pytest.mark.parametrize("second, term", [("x2^3 - x2", "-1 * x^(0, 3)"), ("x1*x2*(x2^2 - 1)", "-1 * x^(1, 3)")])
def test_residual_the_grid_cannot_see_is_refused(second, term):
    """rhs_2 is 0 at every point of the default grid {-1, 0, 1}^2, but not as a polynomial."""
    sys = _system([("1", "0")])
    with pytest.raises(FeedbackResidualError) as info:
        solve_feedback(sys, [_p("x1"), _p(second)])
    assert str(info.value).endswith(f"component 2 has term {term}")


def test_exact_feedback_whose_den_vanishes_on_the_grid():
    """F = (x2 + 1) I: det F is not evidently positive, so den = det F^T F = (x2 + 1)^4, which does not divide N."""
    sys = _system([("x2 + 1", "0"), ("0", "x2 + 1")])
    fb = solve_feedback(sys, [_p("0"), _p("2")])
    assert (fb.den, fb.numer, fb.symbolic) == (_p("(x2 + 1)^4"), (_p("0"), _p("2*(x2 + 1)^3")), None)


def test_closed_loop_matches_target_exactly():
    """Symbolic mode identity: closed loop minus target vanishes as polynomials."""
    for name in ("ex_ps", "ex_fa"):
        problem, td, v, _, rhs = _solved(name)
        fb = solve_feedback(problem.sys, rhs)
        loop = closed_loop_field(problem.sys, fb)
        sigma = target_field(problem.sys, td, v)
        assert fb.den == _p("1")
        for i in range(problem.sys.m):
            assert (loop.numer[i] - sigma[i]).is_zero()


def test_zero_feedback_returns_drift():
    sys = ControlAffineSystem(2, 1, (_p("-x1"), _p("-x2")), ((_p("1"), _p("0")),))
    loop = closed_loop_field(sys, _zero_feedback(2))
    assert loop.numer == (_p("-x1"), _p("-x2"))


def test_solve_feedback_needs_rank_r_at_the_origin():
    zero = (Poly.zero(2), Poly.zero(2))
    sys = ControlAffineSystem(2, 2, zero, ((_p("1"), _p("0")), (_p("x1"), _p("x2"))))
    with pytest.raises(ValueError, match=r"F\(0\) has rank 1, not 2"):
        solve_feedback(sys, list(zero))


def _system(columns, f0=("0", "0")):
    """A two-state system with these control columns, as text."""
    return ControlAffineSystem(2, len(columns), tuple(map(_p, f0)), tuple(tuple(map(_p, col)) for col in columns))


def _image(sys, w):
    """F w, as a right-hand side that F reaches with the polynomial feedback w."""
    return [poly_sum((w[j] * sys.f[j][i] for j in range(sys.r)), sys.m) for i in range(sys.m)]


# F_S is square and det F_S = (1 + x1^2)(1 + x2^2) is evidently positive: u = rhs_j / (1 + x_j^2)
_EVIDENT = _system([("1 + x1^2", "0"), ("0", "1 + x2^2")], ("x2", "-x1"))
# det F_S = x1^2 - x1 + 1 > 0 has an odd power: the normal equations, with det F^T F = (det F_S)^2
_NORMAL = _system([("1", "x1"), ("1", "1 + x1^2")], ("x2", "-x1"))
# one input, two states: F_S = (1 + x2^2), and F_S = (1 - x1^2) with det F^T F = x1^4 - x1^2 + 1
_EVIDENT_TALL = _system([("1 + x2^2", "x1")])
_NORMAL_TALL = _system([("1 - x1^2", "x1")])


def test_feedback_square_system():
    """F_S when +-det F_S is evidently positive, the normal equations F^T F otherwise."""
    rhs = [_p("x1"), _p("x2")]
    assert solve_feedback(_EVIDENT, rhs).den == _p("(1 + x1^2)*(1 + x2^2)")
    fb = solve_feedback(_NORMAL, rhs)
    assert (fb.den, fb.symbolic) == (_p("(x1^2 - x1 + 1)^2"), None)
    neg = _system([("-1 - x1^2", "0"), ("0", "1")])
    assert solve_feedback(neg, rhs).den == _p("1 + x1^2")  # -det F_S is evidently positive
    for sys in (_EVIDENT_TALL, _NORMAL_TALL):
        fb = solve_feedback(sys, _image(sys, [_p("x2 - x1^2")]))
        assert (fb.symbolic, fb.den) == ((_p("x2 - x1^2"),), _p("1"))  # den divides N: an exact feedback


@st.composite
def _feedback_cases(draw):
    """A system in m = 2..5 states with F of rank r at the origin, a right-hand side, and points.

    F's entries have degree <= 2: the rows S get a nonzero constant on a
    diagonal and the other rows any constant, plus up to two terms of degree
    1 or 2 everywhere.  A square F gets any polynomial rhs, so u = F^-1 rhs
    is rational; a tall one rhs = F w for a polynomial w, so u = w, and one
    extra term for a row outside S: F_S is invertible over the rational
    functions, so no u reaches rhs plus that term on that row.
    """
    m = draw(st.integers(2, 5))
    r = draw(st.integers(1, min(m, 3)))
    rows = draw(st.permutations(range(m)))[:r]
    small = st.integers(-3, 3)
    exponents = [mi for mi in itertools.product(range(3), repeat=m) if sum(mi) <= 2]
    poly = st.dictionaries(st.sampled_from(exponents), small, max_size=3).map(lambda t: Poly(m, t))
    higher = st.dictionaries(st.sampled_from([mi for mi in exponents if any(mi)]), small, max_size=2)

    def entry(i, j):
        const = draw(small) if i not in rows else draw(small.filter(bool)) if rows[j] == i else 0
        return Poly(m, {**draw(higher), (0,) * m: const})

    f = tuple(tuple(entry(i, j) for i in range(m)) for j in range(r))
    sys = ControlAffineSystem(m, r, tuple(draw(poly) for _ in range(m)), f)
    if r == m:
        rhs, extra = [draw(poly) for _ in range(m)], None
    else:
        rhs = _image(sys, [draw(poly) for _ in range(r)])
        row = draw(st.sampled_from([i for i in range(m) if i not in rows]))
        extra = row, Poly.monomial(m, draw(st.sampled_from(exponents)), draw(small.filter(bool)))
    points = draw(st.lists(st.tuples(*[st.floats(-1, 1)] * m), min_size=1, max_size=4))
    return sys, rhs, points, extra


_POINTS = [(0.5, -0.25), (-0.9, 0.7), (0.3, 1.0)]
# F = (x2 + 1) I: den = (x2 + 1)^4 and N = (0, 2 (x2 + 1)^3) expanded, near den's root
_NEAR_ROOT = (_system([("x2 + 1", "0"), ("0", "x2 + 1")]), [_p("0"), _p("2")], [(0.0, -0.990608475626868)], None)


def _evaluation_condition(p: Poly, x) -> float:
    """sum |terms| / |value| of p at x, the factor by which the rounding of its expanded sum grows (1 for p = 0)."""
    if not p:
        return 1.0
    value = abs(p.eval_float(x))
    magnitude = sum(abs(float(c) * math.prod(v**e for v, e in zip(x, mi))) for mi, c in p.terms.items())
    return magnitude / value if value else math.inf


@given(_feedback_cases())
@example((_EVIDENT, [_p("x1"), _p("x2^2 - 1")], _POINTS, None))
@example((_NORMAL, [_p("x1"), _p("x2^2 - 1")], _POINTS, None))
@example((_EVIDENT_TALL, _image(_EVIDENT_TALL, [_p("x1*x2")]), _POINTS, (1, _p("x2^2"))))
@example((_NORMAL_TALL, _image(_NORMAL_TALL, [_p("x1*x2")]), _POINTS, (1, _p("x2^2"))))
@example(_NEAR_ROOT)  # den's evaluation condition is 2e9 there, and u was off by 9.9e-9 relative
def test_rational_feedback_matches_the_least_squares_oracle(case):
    """The exact identity, and the values against the oracle at points where both are well conditioned:
    F(x), and the expanded den, N and closed-loop numerator, whose float sums lose digits near a root."""
    sys, rhs, points, extra = case
    fb = solve_feedback(sys, rhs)
    loop = closed_loop_field(sys, fb)
    points = [
        x
        for x in points
        if np.linalg.cond(feedback_oracle.control_at(sys, x)) < 1e3
        and max(_evaluation_condition(p, x) for p in (fb.den, *fb.numer, *loop.numer)) < 1e4
    ]
    assert _image(sys, fb.numer) == [fb.den * p for p in rhs]  # F N = den rhs as polynomials
    if extra is not None:
        row, term = extra
        with pytest.raises(FeedbackResidualError):
            solve_feedback(sys, [p + term if i == row else p for i, p in enumerate(rhs)])
    for x in points:
        want = feedback_oracle.feedback_at(sys, rhs, x)
        np.testing.assert_allclose(fb.pointwise(x), want, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(loop(x), feedback_oracle.closed_loop_at(sys, rhs, x), rtol=1e-9, atol=1e-9)


def test_feedback_work_is_bounded(monkeypatch):
    """One determinant for 10 states and 5 inputs, where a search of row subsets takes C(10, 5) = 252.

    Column j is (1 + x_j^2) e_j + x_j e_{j+5}: every 5-row subset has a zero
    or a non-constant determinant.
    """
    m, r = 10, 5
    names = [f"x{i + 1}" for i in range(m)]
    cols = [[f"1 + x{j + 1}^2" if i == j else f"x{j + 1}" if i == j + 5 else "0" for i in range(m)] for j in range(r)]
    f = tuple(tuple(_p(t, names) for t in col) for col in cols)
    sys = ControlAffineSystem(m, r, (Poly.zero(m),) * m, f)
    w = [_p(f"x{j + 6} - x{j + 1}", names) for j in range(r)]
    dets = []
    monkeypatch.setattr(synth, "poly_det", lambda mat: dets.append(poly_det(mat)) or dets[-1])
    fb = solve_feedback(sys, _image(sys, w))
    assert len(dets) == 1
    assert fb.symbolic == tuple(w)


def test_normal_equations_degree_cap_is_raised():
    # F^T F = (1 - x1^13)^2 + x1^26 has degree 26, beyond DEGREE_CAP
    sys = _system([("1 - x1^13", "x1^13")])
    with pytest.raises(DegreeCapError):
        solve_feedback(sys, [Poly.zero(2)] * 2)


def _normal_equations_spec() -> dict:
    """A liftable problem whose feedback comes from the normal equations.

    The second input column (0, 1 - x2^2, x2) makes det F_S = 1 - x2^2,
    which vanishes at the grid points x2 = +-1.
    """
    spec = gen.liftable_flat(random.Random("fb"), "fb", 3, 1, 4).spec
    spec["f"] = [*spec["f"], ["0", "1 - x2^2", "x2"]]
    spec["inputs"] = ["u1", "u2"]
    spec["beta"] = [["1", "0"]]
    spec["d"] = [["0", "-x2", "1 - x2^2"]]
    return spec


def test_normal_equations_on_a_pipeline_problem(monkeypatch):
    dets = []
    monkeypatch.setattr(synth, "poly_det", lambda mat: dets.append(poly_det(mat)) or dets[-1])
    report, code = cli.run("report", cli.build_problem(_normal_equations_spec()))
    assert (code, report["verdict"]) == (cli.EXIT_OK, "LIFTABLE_AND_VERIFIED")
    names = ["x1", "x2", "x3"]
    assert dets == [_p("1 - x2^2", names), _p("x2^4 - x2^2 + 1", names)]
    assert report["feedback"]["symbolic"] == ["-2*x1", "0"]  # den divides N


def test_simulate_ex_ps_against_exact_solution():
    problem, td, v, vstar, rhs = _solved("ex_ps")
    fb = solve_feedback(problem.sys, rhs)
    loop = closed_loop_field(problem.sys, fb)
    traj = simulate_rk4(loop, [1.0, 1.0], 0.01, 10.0, vstar)
    assert np.linalg.norm(traj.states[-1]) <= 1e-3
    # closed loop is xdot = (-2 x1, -x2): exact solution (e^{-2t}, e^{-t})
    for k in (0, 100, 500, 1000):
        t = traj.times[k]
        np.testing.assert_allclose(
            traj.states[k], [math.exp(-2 * t), math.exp(-t)], atol=1e-6
        )


def test_simulate_equilibrium_stays_put():
    problem, _, _, vstar, rhs = _solved("ex_ps")
    fb = solve_feedback(problem.sys, rhs)
    loop = closed_loop_field(problem.sys, fb)
    traj = simulate_rk4(loop, [0.0, 0.0], 0.01, 1.0, vstar)
    assert all(np.linalg.norm(state) == 0.0 for state in traj.states)


def test_simulate_unstable_growth_and_guard():
    loop = polynomial_loop([Poly.variable(1, 0)])
    traj = simulate_rk4(loop, [1.0], 0.01, 10.0)
    assert abs(traj.states[-1][0] - math.exp(10.0)) / math.exp(10.0) < 1e-6
    with pytest.raises(DivergenceError):
        simulate_rk4(loop, [1.0], 0.01, 20.0)


def test_simulate_overflow_and_nan_are_divergence():
    with pytest.raises(DivergenceError, match=r"^float overflow evaluating the field or V\* at t=0.000$"):
        simulate_rk4(polynomial_loop([parse_poly("x1^5", ["x1"])]), [1e5], 0.01, 1.0)
    # 1e300 x^3 and -1e300 x^2 overflow to inf and -inf, so the first stage is NaN and so is the next state
    nan = polynomial_loop([Poly(1, {(3,): Fraction(10**300), (2,): Fraction(-(10**300))})])
    with pytest.raises(DivergenceError, match=r"^state norm exceeded 1e\+06 at t=0.010$"):
        simulate_rk4(nan, [1e5], 0.01, 1.0)
    # the first stage overflows to -inf and a later sum to NaN, with no numpy warning
    with pytest.raises(DivergenceError, match=r"^state norm exceeded 1e\+06 at t=0.010$"):
        simulate_rk4(polynomial_loop([Poly.monomial(1, (3,), -(10**300))]), [1e3], 0.01, 1.0)


def test_simulate_coefficient_beyond_the_float_range_is_divergence():
    huge = Poly.monomial(1, (2,), 10**400)
    message = r"^float overflow evaluating the field or V\* at t=0.000$"
    for x0 in ([1.0], [1e7]):  # the second outside the guard ball: the coefficient is found first
        with pytest.raises(DivergenceError, match=message):
            simulate_rk4(polynomial_loop([Poly.variable(1, 0)]), x0, 0.01, 0.1, huge)
        with pytest.raises(DivergenceError, match=message):
            simulate_rk4(polynomial_loop([huge]), x0, 0.01, 0.1)


def test_simulate_refuses_a_loop_or_vstar_of_another_dimension():
    loop = polynomial_loop([Poly.variable(1, 0)])
    with pytest.raises(ValueError, match="the closed loop has 1 components, but the state has 2 coordinates"):
        simulate_rk4(loop, [1.0, 1.0], 0.01, 0.1)
    with pytest.raises(ValueError, match="V\\* has 2 variables, but the state has 1 coordinates"):
        simulate_rk4(loop, [1.0], 0.01, 0.1, _p("x1^2 + x2^2"))


def _report_simulation(monkeypatch, case: str) -> tuple:
    """The arguments `report` passes to simulate_rk4 on a fixture or on workload/seed/index."""
    if "/" in case:
        workload, seed, index = case.split("/")
        spec = gen.instance(workload, int(seed), int(index)).spec
    else:
        spec = cli.load_spec(cli.fixture_path(case))
    calls = []

    def recorded(*args):
        calls.append(args)
        return simulate_rk4(*args)

    monkeypatch.setattr(synth, "simulate_rk4", recorded)
    cli.run("report", cli.build_problem(spec))
    (args,) = calls
    return args


def _trajectory_bits(record) -> tuple:
    return (
        [float.hex(t) for t in record.times],
        b"".join(state.tobytes() for state in record.states),
        [float.hex(v) for v in record.vstar_values],
    )


@pytest.mark.parametrize(
    "case", ["ex_ps", "ex_fa", "lift-exact/7/0", "lift-exact/7/1", "lift-exact/7/2", "simulate-pointwise/7/0"]
)
def test_simulate_matches_the_numpy_oracle_bitwise(monkeypatch, case):
    loop, x0, h, horizon, vstar = _report_simulation(monkeypatch, case)
    # a polynomial closed loop (den = 1) and a rational one (den = (1 + x1^2)(1 + x2^2))
    assert loop.feedback.den.is_constant() != case.startswith("simulate-pointwise")
    want = rk4_oracle.simulate_rk4(lambda x: np.asarray(loop(x)), x0, h, horizon, vstar)
    assert _trajectory_bits(simulate_rk4(loop, x0, h, horizon, vstar)) == _trajectory_bits(want)


@pytest.mark.parametrize(
    "drift, x0, message",
    [("x1^2", [1.0], "state norm exceeded 1e+06 at t="), ("x1^5", [1e5], "float overflow evaluating the field")],
    ids=["guard", "overflow"],
)
def test_simulate_divergence_matches_the_numpy_oracle(drift, x0, message):
    sys = ControlAffineSystem(1, 1, (_p(drift, ["x1"]),), ((Poly.zero(1),),))
    loop = closed_loop_field(sys, _zero_feedback(1))
    with pytest.raises(DivergenceError) as want:
        rk4_oracle.simulate_rk4(lambda x: np.asarray(loop(x)), x0, 0.01, 10.0)
    with pytest.raises(DivergenceError) as got:
        simulate_rk4(loop, x0, 0.01, 10.0)
    assert message in str(want.value)
    assert str(got.value) == str(want.value)


def _simulation_outcome(simulate, field, x0, h, steps, vstar):
    try:
        return _trajectory_bits(simulate(field, x0, h, steps * h, vstar))
    except DivergenceError as exc:
        return str(exc)


@st.composite
def _rk4_cases(draw):
    """A polynomial field in m = 1..4 variables, x0, h, a step count and V* (or None)."""
    m = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * m)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    polys = st.dictionaries(exponents, coeffs, max_size=4).map(lambda t: Poly(m, t))
    field = draw(st.lists(polys, min_size=m, max_size=m))
    x0 = draw(st.lists(st.one_of(st.floats(-3, 3), st.just(-0.0)), min_size=m, max_size=m))
    h = draw(st.sampled_from([0.01, 0.1, 0.37, 1.0]))
    return field, x0, h, draw(st.integers(1, 30)), draw(st.none() | polys)


def _const(value):
    return Poly.const(1, value)


# den = 1 + c * x_i^2 (i taken modulo m), c > 0, or den = 1 (None)
_DEN_TERMS = st.none() | st.tuples(
    st.integers(0, 3), st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7)
)
# a den that rounds to 1.0 until far from the origin, so the loop diverges where it does without one
_FAINT_DEN = (0, Fraction(1, 10**30))


@given(_rk4_cases(), _DEN_TERMS)
# the guard trips at t = 1.01
@example(([Poly.monomial(1, (2,))], [1.0], 0.01, 200, None), None)
# x^5 overflows in the field's third stage
@example(([Poly.monomial(1, (5,))], [1e5], 0.01, 3, None), _FAINT_DEN)
# the last state is finite but its squared norm overflows in the final guard
@example(([_const(10**200)], [1.0], 0.01, 1, None), None)
# the state after one step is recorded, then V* = x^24 overflows at it
@example(([_const(10**15)], [1.0], 0.01, 3, Poly.monomial(1, (24,))), None)
@example(([_const(10**15)], [1.0], 0.01, 3, Poly.monomial(1, (24,))), _FAINT_DEN)
def test_simulate_matches_the_numpy_oracle_on_random_loops(case, den_term):
    polys, x0, h, steps, vstar = case
    den = None
    if den_term is not None:  # the inlined division by den, against compile_float's
        m = len(polys)
        i, c = den_term
        den = Poly.const(m, 1) + Poly.monomial(m, [2 if j == i % m else 0 for j in range(m)], c)
    loop = polynomial_loop(polys, den)
    with np.errstate(over="ignore"):  # the oracle's last guard warns when the squared norm overflows
        want = _simulation_outcome(rk4_oracle.simulate_rk4, lambda x: np.asarray(loop(x)), x0, h, steps, vstar)
    assert _simulation_outcome(simulate_rk4, loop, x0, h, steps, vstar) == want


def test_simulate_zero_denominator_is_divergence():
    sys = ControlAffineSystem(1, 1, (Poly.zero(1),), ((Poly.zero(1),),))
    loop = closed_loop_field(sys, FeedbackSolution(None, (Poly.zero(1),), Poly.variable(1, 0)))
    with pytest.raises(DivergenceError, match=r"the closed loop's denominator is 0.0 at t=0.000"):
        simulate_rk4(loop, [0.0], 0.01, 0.1)


def test_simulate_oracle_examples_diverge_where_intended():
    overflow = Poly.monomial(1, (24,))
    with pytest.raises(DivergenceError, match=r"float overflow evaluating the field or V\* at t=0.010"):
        simulate_rk4(polynomial_loop([_const(10**15)]), [1.0], 0.01, 0.03, overflow)
    with pytest.raises(DivergenceError, match=r"float overflow evaluating the field or V\* at t=0.000"):
        simulate_rk4(polynomial_loop([Poly.monomial(1, (5,))]), [1e5], 0.01, 0.03)
    with pytest.raises(DivergenceError, match=r"state norm exceeded 1e\+06 at t=1.010"):
        simulate_rk4(polynomial_loop([Poly.monomial(1, (2,))]), [1.0], 0.01, 2.0)


def _guard_cases(m: int) -> list[list[float]]:
    """States at and just beyond the box edge, at and just beyond norm DIVERGENCE_GUARD, and non-finite ones."""
    box = guard_box(m)
    cases = [[-0.0] * m]
    for edge in (box, -box):
        beyond = float(np.nextafter(edge, 2 * edge))
        cases += [[edge] * m, [beyond] + [edge] * (m - 1), [edge] * (m - 1) + [beyond]]
    under = DIVERGENCE_GUARD / math.sqrt(m)  # the largest c with norm([c] * m) <= DIVERGENCE_GUARD
    while not np.linalg.norm([under] * m) <= DIVERGENCE_GUARD:
        under = float(np.nextafter(under, 0.0))
    while np.linalg.norm([float(np.nextafter(under, math.inf))] * m) <= DIVERGENCE_GUARD:
        under = float(np.nextafter(under, math.inf))
    over = float(np.nextafter(under, math.inf))
    cases += [[under] * m, [over] * m, [-under] * m, [-over] * (m - 1) + [-under]]
    cases += [[DIVERGENCE_GUARD] + [0.0] * (m - 1), [0.0] * (m - 1) + [float(np.nextafter(DIVERGENCE_GUARD, math.inf))]]
    cases += [[bad] + [box] * (m - 1) for bad in (math.nan, math.inf, -math.inf)]
    cases += [[-0.0] * (m - 1) + [bad] for bad in (math.nan, -math.inf)]
    return cases


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_guard_box_decides_like_the_norm(m):
    box = guard_box(m)
    zero = polynomial_loop([Poly.zero(m)] * m)
    for state in _guard_cases(m):
        passes = bool(np.linalg.norm(np.array(state)) <= DIVERGENCE_GUARD)
        if all(-box <= v <= box for v in state):
            assert passes, state  # the rounding argument in guard_box
        try:
            simulate_rk4(zero, state, 1.0, 1.0)
        except DivergenceError as exc:
            assert not passes, state
            assert str(exc) == "state norm exceeded 1e+06 at t=0.000"
        else:
            assert passes, state


@pytest.mark.parametrize("m", [2, 3])
def test_final_guard_reads_the_last_state(m):
    """Only the state at the horizon leaves the guard ball: no other m consecutive recorded coordinates do."""
    growth = 1.0 + 1.0 + 1.0 / 2 + 1.0 / 6 + 1.0 / 24  # one RK4 step of x' = x with h = 1
    start = [DIVERGENCE_GUARD / (growth * math.sqrt(m - 0.5))] * m
    recorded = start + [growth * v for v in start]  # the two states, coordinate after coordinate
    windows = [recorded[j : j + m] for j in range(m + 1)]
    assert [bool(np.linalg.norm(w) <= DIVERGENCE_GUARD) for w in windows] == [True] * m + [False]
    loop = polynomial_loop([Poly.variable(m, i) for i in range(m)])
    for simulate, field in ((simulate_rk4, loop), (rk4_oracle.simulate_rk4, lambda x: np.asarray(loop(x)))):
        with pytest.raises(DivergenceError, match=r"^state norm exceeded 1e\+06 at t=1\.000$"):
            simulate(field, start, 1.0, 1.0)


def _compile_spy(monkeypatch) -> list[str]:
    """The sources that synth compiles from now on, in order."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(synth, "compile", spy, raising=False)
    return sources


def test_rk4_loop_computes_each_power_of_a_state_once(monkeypatch):
    """The first stage reads the powers of the state that V* computed; the other stages, at other
    points, compute their own."""
    synth._rk4_loop.cache_clear()  # a loop of this shape compiled by an earlier test is not compiled again
    sources = _compile_spy(monkeypatch)
    loop = polynomial_loop([_p("-x1 + x2^2"), _p("-x2^3 - x1^2")])
    record = simulate_rk4(loop, [0.5, -0.25], 0.01, 0.05, _p("x1^2 + x2^2"))
    lines = [line.strip() for line in sources[-1].splitlines()]
    for power in ("x0_2 = x0 ** 2", "x1_2 = x1 ** 2", "x1_3 = x1 ** 3"):  # V*'s two, then the first stage's own
        assert lines.count(power) == 1
    for power in ("y0_2 = y0 ** 2", "y1_3 = y1 ** 3"):  # once in each of the three later stages
        assert lines.count(power) == 3
    want = rk4_oracle.simulate_rk4(lambda x: np.asarray(loop(x)), [0.5, -0.25], 0.01, 0.05, _p("x1^2 + x2^2"))
    assert record.states.tobytes() == np.array(want.states).tobytes()
    assert record.vstar_values == want.vstar_values


def _shaped(coeffs) -> tuple:
    """x1' = c0 x1 + c1 x2^2, x2' = c2 x2 + c3 x1^3 with V* = c4 x1^2 + c5 x2^2: one shape for any nonzero c."""
    field = [Poly(2, {(1, 0): coeffs[0], (0, 2): coeffs[1]}), Poly(2, {(0, 1): coeffs[2], (3, 0): coeffs[3]})]
    return field, Poly(2, {(2, 0): coeffs[4], (0, 2): coeffs[5]})


_COEFFS = [Fraction(-1), Fraction(1, 2), Fraction(-2), Fraction(-1, 3), Fraction(1), Fraction(2)]


def test_loops_of_one_shape_share_one_compile(monkeypatch):
    """Loops that differ only in their coefficients run one compiled loop, and each gives the oracle's
    trajectory and that of a loop compiled for it alone, bit for bit."""
    rng = random.Random("shape")
    drawn = [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7)) for _ in range(6)] for _ in range(8)]
    cases = [_shaped(coeffs) for coeffs in drawn]
    x0, h, steps = [0.3, -0.2], 0.05, 20
    fresh = []
    for field, vstar in cases:
        synth._rk4_loop.cache_clear()
        fresh.append(_simulation_outcome(simulate_rk4, polynomial_loop(field), x0, h, steps, vstar))
    synth._rk4_loop.cache_clear()
    sources = _compile_spy(monkeypatch)
    for (field, vstar), alone in zip(cases, fresh):
        loop = polynomial_loop(field)
        want = _simulation_outcome(rk4_oracle.simulate_rk4, lambda x: np.asarray(loop(x)), x0, h, steps, vstar)
        assert _simulation_outcome(simulate_rk4, loop, x0, h, steps, vstar) == alone == want
    assert len(sources) == 1
    assert synth._rk4_loop.cache_info().currsize == 1


def test_one_loop_from_many_starts_compiles_once(monkeypatch):
    synth._rk4_loop.cache_clear()
    sources = _compile_spy(monkeypatch)
    field, vstar = _shaped(_COEFFS)
    loop = polynomial_loop(field)
    for x0 in ([0.5, -0.25], [0.0, 0.0], [-0.1, 0.4], [1e-3, 2e-3]):
        got = simulate_rk4(loop, x0, 0.01, 0.5, vstar)
        want = rk4_oracle.simulate_rk4(lambda x: np.asarray(loop(x)), x0, 0.01, 0.5, vstar)
        assert _trajectory_bits(got) == _trajectory_bits(want)
    assert len(sources) == 1


def test_each_closed_loop_shape_has_its_own_loop(monkeypatch):
    """A different term order, a den other than 1, no V* and a different m each compile a loop of their
    own, which gives the oracle's trajectory; the first shape is then still cached."""
    synth._rk4_loop.cache_clear()
    sources = _compile_spy(monkeypatch)
    field, vstar = _shaped(_COEFFS)
    reordered = [Poly(2, dict(reversed(p.terms.items()))) for p in field]
    assert reordered == field  # equal polynomials, whose terms are summed in another order
    x1 = Poly.variable(3, 0)
    shapes = [
        (polynomial_loop(field), vstar),
        (polynomial_loop(reordered), vstar),
        (polynomial_loop(field, _p("1 + x1^2")), vstar),
        (polynomial_loop(field), None),
        (polynomial_loop([-x1, -Poly.variable(3, 1), -Poly.variable(3, 2) + x1 * x1]), x1 * x1),
    ]
    x0s = {2: [0.5, -0.25], 3: [0.5, -0.25, 0.125]}
    for count, (loop, v) in enumerate(shapes, 1):
        x0 = x0s[len(loop.numer)]
        want = rk4_oracle.simulate_rk4(lambda x: np.asarray(loop(x)), x0, 0.01, 0.2, v)
        assert _trajectory_bits(simulate_rk4(loop, x0, 0.01, 0.2, v)) == _trajectory_bits(want)
        assert (len(sources), synth._rk4_loop.cache_info().currsize) == (count, count)
    simulate_rk4(shapes[0][0], x0s[2], 0.01, 0.2, vstar)
    assert len(sources) == len(shapes)


def test_rk4_loop_cache_is_bounded():
    synth._rk4_loop.cache_clear()
    bound = synth._rk4_loop.cache_info().maxsize
    assert bound == 128
    for degree in range(1, bound + 10):  # x' = -x^degree: a shape per degree
        simulate_rk4(polynomial_loop([Poly.monomial(1, (degree,), -1)]), [0.5], 0.1, 0.1)
        assert synth._rk4_loop.cache_info().currsize == min(degree, bound)


def test_coefficient_beyond_the_float_range_on_a_cached_shape(monkeypatch):
    """A cached loop of the shape is no way round the conversion of each call's own coefficients."""
    synth._rk4_loop.cache_clear()
    sources = _compile_spy(monkeypatch)
    field, vstar = _shaped(_COEFFS)
    simulate_rk4(polynomial_loop(field), [0.5, -0.25], 0.01, 0.1, vstar)
    message = r"^float overflow evaluating the field or V\* at t=0.000$"
    for k in (1, 5):  # in the field, then in V*
        huge_field, huge_vstar = _shaped([Fraction(10**400) if j == k else c for j, c in enumerate(_COEFFS)])
        with pytest.raises(DivergenceError, match=message):
            simulate_rk4(polynomial_loop(huge_field), [0.5, -0.25], 0.01, 0.1, huge_vstar)
    assert len(sources) == 1


@pytest.mark.parametrize("h, horizon", [(0.01, 10.0), (0.1, 0.3), (0.37, 5.0), (1.0, 1.0), (0.05, 0.124)])
def test_times_are_the_step_count_times_h(h, horizon):
    """The times, built after the loop, are k * h for each recorded state, bit for bit, and one more
    than the steps (which liftbench's step counter reads)."""
    x = Poly.variable(1, 0)
    loop = polynomial_loop([-x])
    record = simulate_rk4(loop, [1.0], h, horizon, x * x)
    steps = int(round(horizon / h))
    assert [float.hex(t) for t in record.times] == [float.hex(k * h) for k in range(steps + 1)]
    assert len(record.times) - 1 == steps == len(record.states) - 1 == len(record.vstar_values) - 1
    want = rk4_oracle.simulate_rk4(lambda p: np.asarray(loop(p)), [1.0], h, horizon, x * x)
    assert _trajectory_bits(record) == _trajectory_bits(want)


_HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "loop, x0, h, horizon, vstar, message",
    [
        (polynomial_loop([Poly.monomial(1, (2,))]), [1.0], 0.01, 2.0, None, "state norm exceeded 1e+06 at t=1.010"),
        (
            polynomial_loop([Poly.monomial(1, (9,))]),
            [1.0],
            0.01,
            1.0,
            None,
            "float overflow evaluating the field or V* at t=0.130",
        ),
        (
            polynomial_loop([_const(10**15)]),
            [1.0],
            0.01,
            0.03,
            Poly.monomial(1, (24,)),
            "float overflow evaluating the field or V* at t=0.010",
        ),
        (
            polynomial_loop([_const(_HALF) - Poly.variable(1, 0)], Poly.variable(1, 0) - _HALF),
            [1.0],
            0.25,
            5.0,
            None,
            "the closed loop's denominator is 0.0 at t=0.250",
        ),
        (
            polynomial_loop([Poly.monomial(1, (2,), 10**400)]),
            [1.0],
            0.01,
            0.1,
            None,
            "float overflow evaluating the field or V* at t=0.000",
        ),
    ],
    ids=["guard", "field-overflow", "vstar-overflow", "zero-den", "huge-coefficient"],
)
def test_divergence_reads_t_from_the_recorded_states(loop, x0, h, horizon, vstar, message):
    """Each message names the time of the last state recorded, as the loop did when it kept the times
    itself; the oracle agrees wherever it raises DivergenceError.  The second run is a cache hit."""
    for _ in range(2):
        with pytest.raises(DivergenceError) as got:
            simulate_rk4(loop, x0, h, horizon, vstar)
        assert str(got.value) == message
    if "denominator" not in message:  # the oracle lets the ZeroDivisionError through
        with pytest.raises(DivergenceError) as want:
            rk4_oracle.simulate_rk4(lambda x: np.asarray(loop(x)), x0, h, horizon, vstar)
        assert str(want.value) == message


def test_rk4_convergence_ratio():
    loop = polynomial_loop([-Poly.variable(1, 0)])
    errors = []
    for h in (0.05, 0.025):
        traj = simulate_rk4(loop, [1.0], h, 1.0)
        errors.append(abs(traj.states[-1][0] - math.exp(-1.0)))
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0


def test_verify_decrease_ex_ps():
    problem, td, v, vstar, rhs = _solved("ex_ps")
    fb = solve_feedback(problem.sys, rhs)
    loop = closed_loop_field(problem.sys, fb)
    traj = simulate_rk4(loop, [1.0, 1.0], 0.01, 10.0, vstar)
    report = verify_lyapunov_decrease(traj, vstar, loop, check_grid(2))
    assert report.passed
    from liftlyap.poly import lie_derivative

    assert lie_derivative(list(loop.numer), vstar) == _p("-2*x1^2 - x2^2")


def _sampled_decrease_by_loop(traj):
    """verify_lyapunov_decrease's sampled scan as the loop it replaced: (monotone, first violation)."""
    for k in range(len(traj.times) - 1):
        if traj.vstar_values[k] <= VSTAR_FLOOR:
            break
        if not traj.vstar_values[k + 1] < traj.vstar_values[k]:
            return False, (traj.times[k], traj.vstar_values[k], traj.vstar_values[k + 1])
    return True, None


_VSTAR_SAMPLES = st.lists(
    st.one_of(
        st.sampled_from([math.nan, math.inf, 0.0, VSTAR_FLOOR, VSTAR_FLOOR / 2, 2 * VSTAR_FLOOR, 0.5, 1.0]),
        st.floats(min_value=-1.0, max_value=2.0),
    ),
    max_size=12,
)


@given(st.one_of(_VSTAR_SAMPLES, _VSTAR_SAMPLES.map(lambda values: sorted(values, reverse=True))))
@example([])
@example([1.0])
@example([1.0, 0.5, 0.5, 0.1])  # a tie
@example([1.0, math.nan, 0.5])
@example([math.nan, 1.0])
@example([1.0, 0.5, VSTAR_FLOOR, 1.0])  # the scan stops at the floor
@example([1.0, VSTAR_FLOOR / 2, 0.0, 1.0])
@example([1.0, 0.5, 2 * VSTAR_FLOOR, VSTAR_FLOOR, 1.0])
def test_sampled_decrease_matches_the_loop(values):
    """The array scan stops where the loop stopped and reports its first violation, with the
    recorded values themselves; a NaN is a violation."""
    traj = TrajectoryRecord([0.25 * k for k in range(len(values))], np.zeros((len(values), 1)), values)
    x = Poly.variable(1, 0)
    report = verify_lyapunov_decrease(traj, x * x, polynomial_loop([-x]), check_grid(1))
    monotone, violation = _sampled_decrease_by_loop(traj)
    assert report.monotone == monotone
    assert repr(report.first_violation) == repr(violation)  # repr: a NaN is equal to no float
    assert report.analytic_negative


def test_verify_decrease_fails_for_frozen_state():
    vstar = _p("x1^2 + x2^2")
    field = polynomial_loop([Poly.zero(2)] * 2)
    traj = simulate_rk4(field, [1.0, 0.0], 0.1, 1.0, vstar)
    report = verify_lyapunov_decrease(traj, vstar, field, check_grid(2))
    assert not report.monotone
    assert not report.analytic_negative
    assert report.analytic_witness == (-1.0, -1.0)  # the first grid point off the origin
    assert not report.passed


def test_trajectory_csv_export(tmp_path):
    problem, _, _, vstar, rhs = _solved("ex_ps")
    fb = solve_feedback(problem.sys, rhs)
    loop = closed_loop_field(problem.sys, fb)
    traj = simulate_rk4(loop, [1.0, 1.0], 0.1, 1.0, vstar)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, fb.pointwise, path, problem.state_names, problem.input_names)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,u1,Vstar"
    assert len(lines) == len(traj.times) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 1.0, 1.0, -2.0, 1.0]
    # 17 significant digits survive a round trip
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] == traj.states[-1][0]
