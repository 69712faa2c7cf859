"""Feedback solving, closed loops, simulation, and decrease verification."""

import math
import random

from fractions import Fraction

import numpy as np
import pytest
import rk4_oracle
from hypothesis import example, given
from hypothesis import strategies as st
from conftest import build_pipeline, check_grid, check_points, target_field
from liftbench import gen

from liftlyap import cli, synth
from liftlyap.parsing import parse_poly
from liftlyap.poly import Poly, compile_float, grad
from liftlyap.synth import (
    DIVERGENCE_GUARD,
    DivergenceError,
    FeedbackResidualError,
    FeedbackSolution,
    closed_loop_field,
    control_matrix,
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


def _solved(name):
    from liftlyap.lift import assemble_lift_system, assemble_vstar, solve_jets

    problem, _, _, td, rs = build_pipeline(name)
    system = assemble_lift_system(rs, problem.options.order)
    jet = solve_jets(system, rs, fibre_start=problem.qsys.n)
    vstar, _ = assemble_vstar(td.pullback_vtilde, jet)
    v = jet.polynomial(problem.sys.m)
    dv = grad(v)
    rhs = [td.x_field[i] - dv[i] for i in range(problem.sys.m)]
    return problem, td, v, vstar, rhs


def test_solve_feedback_ex_ps():
    problem, _, _, _, rhs = _solved("ex_ps")
    fb = solve_feedback(problem.sys, rhs, check_points(2))
    assert fb.symbolic == (_p("-2*x1"),)
    assert fb.residual_norm <= 1e-12
    loop = closed_loop_field(problem.sys, fb)
    assert loop.poly == (_p("-2*x1"), _p("-x2"))


def test_solve_feedback_ex_fa():
    problem, _, _, _, rhs = _solved("ex_fa")
    fb = solve_feedback(problem.sys, rhs, check_points(2))
    assert fb.symbolic == (_p("-2*x1"), _p("-x2"))
    loop = closed_loop_field(problem.sys, fb)
    assert loop.poly == (_p("-2*x1"), _p("-x2"))


def test_solve_feedback_out_of_range_rhs():
    sys = ControlAffineSystem(2, 1, (Poly.zero(2), Poly.zero(2)), ((_p("1"), _p("0")),))
    rhs = [Poly.zero(2), Poly.const(2, 1)]  # unreachable second component
    with pytest.raises(FeedbackResidualError):
        solve_feedback(sys, rhs, check_points(2))


def test_closed_loop_matches_target_exactly():
    """Symbolic mode identity: closed loop minus target vanishes as polynomials."""
    for name in ("ex_ps", "ex_fa"):
        problem, td, v, _, rhs = _solved(name)
        fb = solve_feedback(problem.sys, rhs, check_points(2))
        loop = closed_loop_field(problem.sys, fb)
        sigma = target_field(problem.sys, td, v)
        assert loop.poly is not None
        for i in range(problem.sys.m):
            assert (loop.poly[i] - sigma[i]).is_zero()


def test_zero_feedback_returns_drift():
    sys = ControlAffineSystem(2, 1, (_p("-x1"), _p("-x2")), ((_p("1"), _p("0")),))
    fb = FeedbackSolution((Poly.zero(2),), lambda x: np.zeros(1), 0.0, (Poly.zero(2), Poly.zero(2)))
    loop = closed_loop_field(sys, fb)
    assert loop.poly == (_p("-x1"), _p("-x2"))


def test_least_norm_orthogonal_to_kernel():
    """The pointwise solution carries no component in the null space of F."""
    sys = ControlAffineSystem(
        2,
        3,
        (Poly.zero(2), Poly.zero(2)),
        ((_p("1"), _p("0")), (_p("0"), _p("1")), (_p("1"), _p("1"))),
    )
    rhs = [_p("x1"), _p("x2")]
    fb = solve_feedback(sys, rhs, check_points(2))
    assert fb.symbolic is None  # more inputs than states: no square subselection
    f_mat = control_matrix(sys)
    rng = random.Random(71)
    for _ in range(5):
        x = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
        u = fb.pointwise(x)
        a = f_mat.at(x)
        b = np.array([p.eval_float(x) for p in rhs])
        np.testing.assert_allclose(a @ u, b, atol=1e-9)
        _, _, vh = np.linalg.svd(a)
        for z in vh[2:]:  # kernel directions of the 2x3 matrix
            assert abs(np.dot(u, z)) < 1e-9


def test_simulate_ex_ps_against_exact_solution():
    problem, td, v, vstar, rhs = _solved("ex_ps")
    fb = solve_feedback(problem.sys, rhs, check_points(2))
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
    fb = solve_feedback(problem.sys, rhs, check_points(2))
    loop = closed_loop_field(problem.sys, fb)
    traj = simulate_rk4(loop, [0.0, 0.0], 0.01, 1.0, vstar)
    assert all(np.linalg.norm(state) == 0.0 for state in traj.states)


def test_simulate_unstable_growth_and_guard():
    field = lambda x: np.array([x[0]])
    traj = simulate_rk4(field, [1.0], 0.01, 10.0)
    assert abs(traj.states[-1][0] - math.exp(10.0)) / math.exp(10.0) < 1e-6
    with pytest.raises(DivergenceError):
        simulate_rk4(field, [1.0], 0.01, 20.0)


def test_simulate_overflow_and_nan_are_divergence():
    quintic = parse_poly("x1^5", ["x1"])
    with pytest.raises(DivergenceError):
        simulate_rk4(lambda x: np.array([quintic.eval_float(x)]), [1e5], 0.01, 1.0)
    with pytest.raises(DivergenceError):
        simulate_rk4(lambda x: np.array([math.nan]), [1.0], 0.01, 1.0)
    # the first stage overflows to -inf and a later sum to NaN, with no numpy warning
    with pytest.raises(DivergenceError):
        simulate_rk4(lambda x: np.array([-1e300 * float(x[0]) ** 3]), [1e3], 0.01, 1.0)


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
    assert (loop.poly is None) == case.startswith("simulate-pointwise")  # both closed-loop paths
    want = rk4_oracle.simulate_rk4(lambda x: np.asarray(loop(x)), x0, h, horizon, vstar)
    assert _trajectory_bits(simulate_rk4(loop, x0, h, horizon, vstar)) == _trajectory_bits(want)


@pytest.mark.parametrize(
    "drift, x0, message",
    [("x1^2", [1.0], "state norm exceeded 1e+06 at t="), ("x1^5", [1e5], "float overflow evaluating the field")],
    ids=["guard", "overflow"],
)
def test_simulate_divergence_matches_the_numpy_oracle(drift, x0, message):
    sys = ControlAffineSystem(1, 1, (_p(drift, ["x1"]),), ((Poly.zero(1),),))
    loop = closed_loop_field(sys, FeedbackSolution((Poly.zero(1),), lambda x: np.zeros(1), 0.0, (Poly.zero(1),)))
    with pytest.raises(DivergenceError) as want:
        rk4_oracle.simulate_rk4(lambda x: np.asarray(loop(x)), x0, 0.01, 10.0)
    with pytest.raises(DivergenceError) as got:
        simulate_rk4(loop, x0, 0.01, 10.0)
    assert message in str(want.value)
    assert str(got.value) == str(want.value)


def _polynomial_loop(polys):
    """The closed loop x' = polys(x), through ClosedLoop with a zero feedback."""
    m = len(polys)
    zero = (Poly.zero(m),) * m
    sys = ControlAffineSystem(m, 1, tuple(polys), (zero,))
    return closed_loop_field(sys, FeedbackSolution((Poly.zero(m),), lambda x: np.zeros(1), 0.0, zero))


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


@given(_rk4_cases(), st.booleans())
# the guard trips at t = 1.01
@example(([Poly.monomial(1, (2,))], [1.0], 0.01, 200, None), False)
# x^5 overflows in the field's third stage
@example(([Poly.monomial(1, (5,))], [1e5], 0.01, 3, None), True)
# the last state is finite but its squared norm overflows in the final guard
@example(([_const(10**200)], [1.0], 0.01, 1, None), False)
# the state after one step is recorded, then V* = x^24 overflows at it
@example(([_const(10**15)], [1.0], 0.01, 3, Poly.monomial(1, (24,))), False)
@example(([_const(10**15)], [1.0], 0.01, 3, Poly.monomial(1, (24,))), True)
def test_simulate_matches_the_numpy_oracle_on_random_loops(case, as_array):
    polys, x0, h, steps, vstar = case
    if as_array:  # a plain callable that returns np.float64 values
        values = compile_float(polys)
        field = lambda x: np.array(values(x))
    else:
        field = _polynomial_loop(polys)
    with np.errstate(over="ignore"):  # the oracle's last guard warns when the squared norm overflows
        want = _simulation_outcome(rk4_oracle.simulate_rk4, lambda x: np.asarray(field(x)), x0, h, steps, vstar)
    assert _simulation_outcome(simulate_rk4, field, x0, h, steps, vstar) == want


def test_simulate_oracle_examples_diverge_where_intended():
    overflow = Poly.monomial(1, (24,))
    with pytest.raises(DivergenceError, match=r"float overflow evaluating the field or V\* at t=0.010"):
        simulate_rk4(_polynomial_loop([_const(10**15)]), [1.0], 0.01, 0.03, overflow)
    with pytest.raises(DivergenceError, match=r"float overflow evaluating the field or V\* at t=0.000"):
        simulate_rk4(_polynomial_loop([Poly.monomial(1, (5,))]), [1e5], 0.01, 0.03)
    with pytest.raises(DivergenceError, match=r"state norm exceeded 1e\+06 at t=1.010"):
        simulate_rk4(_polynomial_loop([Poly.monomial(1, (2,))]), [1.0], 0.01, 2.0)


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
    zero = lambda x: (0.0,) * m
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


def test_rk4_convergence_ratio():
    field = lambda x: np.array([-x[0]])
    errors = []
    for h in (0.05, 0.025):
        traj = simulate_rk4(field, [1.0], h, 1.0)
        errors.append(abs(traj.states[-1][0] - math.exp(-1.0)))
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0


def test_verify_decrease_ex_ps():
    problem, td, v, vstar, rhs = _solved("ex_ps")
    fb = solve_feedback(problem.sys, rhs, check_points(2))
    loop = closed_loop_field(problem.sys, fb)
    traj = simulate_rk4(loop, [1.0, 1.0], 0.01, 10.0, vstar)
    report = verify_lyapunov_decrease(traj, vstar, loop, check_grid(2))
    assert report.passed
    from liftlyap.poly import lie_derivative

    assert lie_derivative(list(loop.poly), vstar) == _p("-2*x1^2 - x2^2")


def test_verify_decrease_fails_for_frozen_state():
    vstar = _p("x1^2 + x2^2")
    field = lambda x: np.zeros(2)
    traj = simulate_rk4(field, [1.0, 0.0], 0.1, 1.0, vstar)
    report = verify_lyapunov_decrease(traj, vstar, field, check_grid(2))
    assert not report.monotone
    assert not report.analytic_negative
    assert report.analytic_witness == (-1.0, -1.0)  # the first grid point off the origin
    assert not report.passed


def test_trajectory_csv_export(tmp_path):
    problem, _, _, vstar, rhs = _solved("ex_ps")
    fb = solve_feedback(problem.sys, rhs, check_points(2))
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
