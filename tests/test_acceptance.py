"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runs the four bundled problems end to end and the randomized structural
properties at full scale.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import math
import random
from fractions import Fraction

import numpy as np
from conftest import build_pipeline, polynomial_loop, projection_delta, run_frames
from obstruction_oracle import consistency_gap_at, consistent_jet, curvature_map_eval
from symbol_oracle import quasi_regular_search, sym_intersection_dim

from liftlyap import cli
from liftlyap.integrability import condition_a, condition_b, graph_form
from liftlyap.lift import assemble_lift_system, assemble_vstar, solve_jets
from liftlyap.parsing import parse_poly
from liftlyap.poly import Poly, PolyMatrix, lie_derivative
from liftlyap.synth import closed_loop_field, simulate_rk4, solve_feedback


class _criterion:
    """Prints one PASS/FAIL line per criterion, even when asserts fail."""

    def __init__(self, number: int, text: str):
        self.number = number
        self.text = text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.number}: {status} - {self.text}")
        return False


def _run_fixture(name: str, command: str = "report"):
    problem = cli.build_problem(cli.load_spec(cli.fixture_path(name)))
    return cli.run(command, problem)


def test_criterion_1_end_to_end_positive_fixture():
    with _criterion(1, "EX-PS lifts, V and u recovered exactly, loop verified"):
        report, code = _run_fixture("ex_ps")
        assert code == cli.EXIT_OK
        assert report["verdict"] == "LIFTABLE_AND_VERIFIED"

        # exact recovery of V at order 6: single coefficient 1/2 on (0, 2)
        problem, rs = build_pipeline("ex_ps")
        jet = solve_jets(assemble_lift_system(graph_form(rs), 6), rs, fibre_start=1)
        assert jet.coeffs == {(0, 2): Fraction(1, 2)}

        # u(x) = -2 x1 as a polynomial identity
        vstar, diag = assemble_vstar(problem.vtilde.embed(2), jet)
        assert diag.ok
        v = jet.polynomial(2)
        from liftlyap.poly import grad

        rhs = [rs.x_field[i] - grad(v)[i] for i in range(2)]
        fb = solve_feedback(problem.sys, rhs)
        assert fb.symbolic == (parse_poly("-2*x1", ["x1", "x2"]),)

        # exact Lie derivative of V* along the closed loop
        loop = closed_loop_field(problem.sys, fb)
        assert lie_derivative(list(loop.numer), vstar) == parse_poly(
            "-2*x1^2 - x2^2", ["x1", "x2"]
        )

        # RK4 from (1,1): small terminal norm, strictly decreasing V* samples
        traj = simulate_rk4(loop, [1.0, 1.0], 0.01, 10.0, vstar)
        assert np.linalg.norm(traj.states[-1]) <= 1e-3
        for k in range(len(traj.times) - 1):
            if traj.vstar_values[k] <= 1e-12:
                break
            assert traj.vstar_values[k + 1] < traj.vstar_values[k]


def test_criterion_2_inconsistent_fixture():
    with _criterion(2, "EX-DI fails pointwise consistency at (1,0) with gap 2"):
        _, rs = build_pipeline("ex_di")
        ok, gap = consistency_gap_at(rs, [1.0, 0.0])
        assert not ok
        assert abs(gap - 2.0) <= 1e-9
        report, code = _run_fixture("ex_di")
        assert code == 2
        assert report["reasons"] == ["consistency"]
        assert report["lift"] is None  # no lift attempted


def test_criterion_3_curved_fixture():
    with _criterion(3, "EX-CURV flatness check returns F[3](1,2) = -1 exactly"):
        problem, _ = build_pipeline("ex_curv")
        from liftlyap.geometry import curvature_components

        comps = curvature_components(problem.conn)
        assert comps[(3, 1, 2)] == Poly.const(3, -1)
        _, code = _run_fixture("ex_curv")
        assert code == 2


def test_criterion_4_condition_unit_values():
    with _criterion(4, "condition A/B unit values and constant-projection zeros"):
        names = ["x1", "x2", "x3"]

        def rows(texts):
            return PolyMatrix([[parse_poly(t, names) for t in row] for row in texts])

        a_entries = condition_a(rows([["1", "0", "0"], ["0", "1", "x1"]]), Poly.const(3, 1))
        assert a_entries[(1, 2, 3)] == Poly.const(3, 1)

        b_entries = condition_b(
            rows([["1", "0", "0"], ["0", "1", "0"]]),
            (Poly.zero(3), parse_poly("x1", names)),
            Poly.const(3, 1),
        )
        assert b_entries[(1, 2)] == Poly.const(3, 1)

        rng = random.Random(77)
        for _ in range(10):
            constant = PolyMatrix(
                [
                    [Poly.const(3, Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(3)]
                    for _ in range(2)
                ]
            )
            assert all(v.is_zero() for v in condition_a(constant, Poly.const(3, 1)).values())


def test_criterion_5_obstruction_map_property():
    with _criterion(5, "obstruction map exactly zero on liftable fixtures (100x20)"):
        rng = np.random.default_rng(2024)
        for name in ("ex_ps", "ex_fa"):
            problem, rs = build_pipeline(name)
            delta = projection_delta(*run_frames(problem))
            for _ in range(20):
                point = rng.uniform(-1.0, 1.0, size=problem.sys.m)
                for _ in range(100):
                    jet = consistent_jet(rs, point, rng)
                    g_map, h_map = curvature_map_eval(rs, delta, point, jet)
                    assert all(value == 0.0 for value in g_map.values())
                    assert all(value == 0.0 for value in h_map.values())


def test_criterion_6_symbol_dimension_count():
    with _criterion(6, "nested-subspace symbol count s(s+1)/2 and quasi-regular basis"):
        rng = np.random.default_rng(99)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            dim_e = int(rng.integers(1, m + 1))
            s = int(rng.integers(0, dim_e + 1))
            e_basis = rng.standard_normal((dim_e, m))
            f_basis = rng.standard_normal((s, dim_e)) @ e_basis if s else np.zeros((0, m))
            assert sym_intersection_dim(e_basis, f_basis) == s * (s + 1) // 2
            dims = quasi_regular_search(e_basis, f_basis)
            assert dims.dim_g2 == s * (s + 1) // 2
            assert dims.quasi_regular


def test_criterion_7_quotient_trajectory_property():
    with _criterion(7, "projected trajectories satisfy the quotient dynamics"):
        problem, _ = build_pipeline("ex_ps")
        sys, qsys, morph = problem.sys, problem.qsys, problem.morph
        rng = random.Random(101)
        h = 1e-3
        steps = 1000
        for _ in range(5):
            coeffs = [rng.uniform(-1, 1) for _ in range(3)]

            def u_of_t(t):
                return coeffs[0] + coeffs[1] * t + coeffs[2] * t * t

            x0 = [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)]
            state = np.array([x0[0], x0[1], x0[0]])  # joint (x, y) with y = phi(x)

            def joint(t, z):
                xs, ys = z[:2], z[2:]
                u = u_of_t(t)
                xdot = np.array([p.eval_float(xs) for p in sys.f0]) + u * np.array(
                    [p.eval_float(xs) for p in sys.f[0]]
                )
                v = morph.varphi[0].eval_float(xs) + u * morph.beta[0][0].eval_float(xs)
                ydot = np.array([qsys.g0[0].eval_float(ys) + v * qsys.g[0][0].eval_float(ys)])
                return np.concatenate([xdot, ydot])

            worst = 0.0
            for k in range(steps):
                t = k * h
                k1 = joint(t, state)
                k2 = joint(t + h / 2, state + h / 2 * k1)
                k3 = joint(t + h / 2, state + h / 2 * k2)
                k4 = joint(t + h, state + h * k3)
                state = state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                worst = max(worst, abs(state[0] - state[2]))
            assert worst <= 1e-6


def test_criterion_8_numerics_hygiene():
    with _criterion(8, "derivative matches finite differences; RK4 order ~4"):
        rng = random.Random(303)
        h = 1e-5
        for _ in range(10):
            terms = {
                tuple(rng.randint(0, 3) for _ in range(2)): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(4)
            }
            p = Poly(2, terms)
            point = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
            for i in range(2):
                plus = list(point)
                minus = list(point)
                plus[i] += h
                minus[i] -= h
                fd = (p.eval_float(plus) - p.eval_float(minus)) / (2 * h)
                exact = p.diff(i).eval_float(point)
                assert abs(fd - exact) <= 1e-7 * (1 + abs(exact))

        loop = polynomial_loop([-Poly.variable(1, 0)])
        errors = []
        for step in (0.05, 0.025):
            traj = simulate_rk4(loop, [1.0], step, 1.0)
            errors.append(abs(traj.states[-1][0] - math.exp(-1.0)))
        ratio = errors[0] / errors[1]
        assert 12.0 <= ratio <= 20.0
