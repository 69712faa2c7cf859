"""Feedback solving, closed loops, simulation, and decrease verification."""

import math
import random

import numpy as np
import pytest
from conftest import build_pipeline, check_grid, check_points, target_field

from liftlyap.parsing import parse_poly
from liftlyap.poly import Poly, grad
from liftlyap.synth import (
    DivergenceError,
    FeedbackResidualError,
    FeedbackSolution,
    closed_loop_field,
    control_matrix,
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
