"""Residual evaluation, obstruction conditions, consistency, and the symbol."""

import itertools
import random
from fractions import Fraction

import lift_oracle
import numpy as np
import pytest
import symbol_oracle
from conftest import (
    build_pipeline,
    check_grid,
    check_points,
    flat_connection,
    pipeline_of,
    projection_delta,
    run_frames,
)
from hypothesis import assume, given
from hypothesis import strategies as st
from liftbench import gen
from obstruction_oracle import (
    InconsistentJetError,
    condition_a_by_sums,
    condition_b_by_sums,
    consistency_gap,
    consistency_gap_at,
    consistent_jet,
    curvature_by_sums,
    curvature_map_eval,
    horizontal_lift_by_sums,
    prolonged_residual,
    stacked_system,
    vm_curvature_coeffs,
)
from symbol_oracle import permutation_search, quasi_regular_search, reference_identity, sym_intersection_dim

from liftlyap import cli, geometry, integrability, poly
from liftlyap.geometry import (
    ComplementError,
    EhresmannConnection,
    Frame,
    FrameRankError,
    build_p_vm,
    build_projections,
    complement_frame,
    curvature_components,
    default_grid,
    horizontal_lift,
)
from liftlyap.integrability import (
    ResidualSystem,
    check_flatness,
    condition_a,
    condition_b,
    full_check,
    pointwise_consistency,
    graph_form,
    residual_psi,
    symbol_dims,
)
from liftlyap.lift import assemble_lift_system, solve_jets
from liftlyap.parsing import parse_poly
from liftlyap.poly import DegreeCapError, Poly, PolyMatrix, poly_sum

X2 = ["x1", "x2"]
X3 = ["x1", "x2", "x3"]
ONE3 = Poly.const(3, 1)


def _p(text, names):
    return parse_poly(text, names)


def _rs_from_pd_x(pd_rows, x_texts, names, c_cols, n=1):
    """Residual system with an explicitly chosen projection (for unit values), and its delta;
    pd_rows None skips the check of the projection, which the consistency check does not read."""
    m = len(names)
    c = Frame.build(m, c_cols, check_grid(m))
    d = complement_frame(c, None, check_grid(m))
    p_d, p_vm = build_projections(c, d, flat_connection(m, n))
    if pd_rows is not None:
        expected = PolyMatrix([[_p(t, names) for t in row] for row in pd_rows], cols=m, nvars=m)
        assert p_d == expected, "constructed projection differs from the intended rows"
    return ResidualSystem(p_d, p_vm, tuple(_p(t, names) for t in x_texts)), projection_delta(c, d)


# -- residual evaluation -------------------------------------------------------


def test_residual_psi_solution_ex_ps():
    _, rs = build_pipeline("ex_ps")
    v = _p("1/2*x2^2", X2)
    d_blk, vm_blk = residual_psi(rs, v)
    assert all(c.is_zero() for c in d_blk)
    assert all(c.is_zero() for c in vm_blk)


def test_residual_psi_zero_candidate_ex_ps():
    _, rs = build_pipeline("ex_ps")
    d_blk, vm_blk = residual_psi(rs, Poly.zero(2))
    assert d_blk == [_p("-x2", X2)]
    assert vm_blk == [Poly.zero(2)]


def test_residual_psi_empty_d_block_ex_fa():
    _, rs = build_pipeline("ex_fa")
    d_blk, vm_blk = residual_psi(rs, _p("x1^2 + x2^2", X2))
    assert d_blk == []
    assert len(vm_blk) == 1


def test_prolonged_residual_consistent_jet():
    _, rs = build_pipeline("ex_ps")
    point = [1.0, 1.0]
    v1 = [0.0, 1.0]  # gradient of x2^2/2 at the point
    v2 = np.array([[0.0, 0.0], [0.0, 1.0]])
    out = prolonged_residual(rs, point, v1, v2)
    for block in out.values():
        assert np.max(np.abs(block), initial=0.0) < 1e-12


def test_prolonged_residual_zero_jet():
    _, rs = build_pipeline("ex_ps")
    zero1 = [0.0, 0.0]
    zero2 = np.zeros((2, 2))
    at_10 = prolonged_residual(rs, [1.0, 0.0], zero1, zero2)
    assert abs(at_10["d"][0]) < 1e-12
    at_11 = prolonged_residual(rs, [1.0, 1.0], zero1, zero2)
    assert abs(at_11["d"][0] - (-1.0)) < 1e-12


def test_prolonged_residual_rejects_asymmetric():
    _, rs = build_pipeline("ex_ps")
    with pytest.raises(ValueError):
        prolonged_residual(rs, [0.0, 0.0], [0.0, 0.0], np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_prolongation_differentiation_consistency():
    """An exact solution's 2-jet annihilates the prolonged system everywhere."""
    _, rs = build_pipeline("ex_ps")
    v = _p("1/2*x2^2", X2)
    hess = [[v.diff(i).diff(j) for j in range(2)] for i in range(2)]
    rng = random.Random(19)
    for _ in range(10):
        point = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
        v1 = [v.diff(i).eval_float(point) for i in range(2)]
        v2 = np.array([[hess[i][j].eval_float(point) for j in range(2)] for i in range(2)])
        out = prolonged_residual(rs, point, v1, v2)
        for block in out.values():
            assert np.max(np.abs(block), initial=0.0) < 1e-10


# -- flatness ------------------------------------------------------------------


def test_flatness_flat_connection():
    flat, offenders = check_flatness(flat_connection(3, 2))
    assert flat and not offenders


def test_flatness_reference_offender():
    conn = EhresmannConnection(3, 2, [[_p("0", X3), _p("x1", X3)]])
    flat, offenders = check_flatness(conn)
    assert not flat
    assert offenders[(3, 1, 2)] == Poly.const(3, -1)


def test_flatness_single_base_coordinate_trivial():
    conn = EhresmannConnection(3, 1, [[_p("x1^2", X3)], [_p("x1*x3", X3)]])
    flat, offenders = check_flatness(conn)
    assert flat and not offenders


# -- condition A ---------------------------------------------------------------


def test_condition_a_constant_pd_zero():
    rng = random.Random(3)
    for _ in range(5):
        rows = [[Poly.const(3, Fraction(rng.randint(-4, 4))) for _ in range(3)] for _ in range(2)]
        entries = condition_a(PolyMatrix(rows), ONE3)
        assert entries and all(v.is_zero() for v in entries.values())


def test_condition_a_single_row_vacuous():
    entries = condition_a(PolyMatrix([[Poly.const(3, 1), Poly.zero(3), Poly.zero(3)]]), ONE3)
    assert entries == {}


def test_condition_a_reference_value():
    rows = [["1", "0", "0"], ["0", "1", "x1"]]
    p_d = PolyMatrix([[_p(t, X3) for t in row] for row in rows])
    entries = condition_a(p_d, ONE3)
    assert entries[(1, 2, 3)] == Poly.const(3, 1)
    assert entries[(1, 2, 1)].is_zero()
    assert entries[(1, 2, 2)].is_zero()


def _condition_a_fd_oracle(p_d, point, a1, a2, i1, h=1e-6):
    m = p_d.cols

    def pd_at(x):
        return p_d.at(x)

    total = 0.0
    point = np.asarray(point, dtype=float)
    for i in range(m):
        shift = np.zeros(m)
        shift[i] = h
        dpd = (pd_at(point + shift) - pd_at(point - shift)) / (2 * h)
        total += pd_at(point)[a1, i] * dpd[a2, i1] - pd_at(point)[a2, i] * dpd[a1, i1]
    return total


def test_condition_a_oracle_random_polynomial_pd():
    rows = [["x2", "1", "0"], ["0", "x1^2", "x1*x3"]]
    p_d = PolyMatrix([[_p(t, X3) for t in row] for row in rows])
    entries = condition_a(p_d, ONE3)
    rng = random.Random(29)
    for _ in range(5):
        point = [rng.uniform(-1, 1) for _ in range(3)]
        for i1 in range(3):
            oracle = _condition_a_fd_oracle(p_d, point, 0, 1, i1)
            assert abs(entries[(1, 2, i1 + 1)].eval_float(point) - oracle) < 1e-5


def test_condition_a_antisymmetry():
    rows = [["x2", "1", "0"], ["0", "x1^2", "x1*x3"]]
    p_d = PolyMatrix([[_p(t, X3) for t in row] for row in rows])
    swapped = PolyMatrix([p_d.row(1), p_d.row(0)])
    fwd = condition_a(p_d, ONE3)
    rev = condition_a(swapped, ONE3)
    for i1 in range(1, 4):
        assert rev[(1, 2, i1)] == -fwd[(1, 2, i1)]


# -- condition B ---------------------------------------------------------------


def test_condition_b_reference_value():
    rows = PolyMatrix([[_p(t, X3) for t in row] for row in [["1", "0", "0"], ["0", "1", "0"]]])
    entries = condition_b(rows, (Poly.zero(3), _p("x1", X3)), ONE3)
    assert entries[(1, 2)] == Poly.const(3, 1)


def test_condition_b_constant_x_zero():
    rng = random.Random(37)
    rows = PolyMatrix([[_p(t, X3) for t in row] for row in [["x2", "1", "0"], ["0", "x1", "1"]]])
    rhs = tuple(Poly.const(3, Fraction(rng.randint(-3, 3))) for _ in range(2))
    entries = condition_b(rows, rhs, ONE3)
    assert all(v.is_zero() for v in entries.values())


def test_condition_b_single_row_vacuous():
    rows = PolyMatrix([[Poly.const(3, 1), Poly.zero(3), Poly.zero(3)]])
    assert condition_b(rows, (Poly.zero(3),), ONE3) == {}


def test_condition_b_antisymmetry_and_oracle():
    rows = PolyMatrix([[_p(t, X3) for t in row] for row in [["x2", "1", "0"], ["0", "x1", "1"]]])
    rhs = (_p("x2*x3", X3), _p("x1^2 - x3", X3))
    entries = condition_b(rows, rhs, ONE3)
    swapped = condition_b(PolyMatrix([rows.row(1), rows.row(0)]), rhs[::-1], ONE3)
    assert swapped[(1, 2)] == -entries[(1, 2)]
    # oracle: G_1(rhs_2) - G_2(rhs_1) with finite-difference gradients
    rng = random.Random(43)
    h = 1e-6
    for _ in range(5):
        point = np.array([rng.uniform(-1, 1) for _ in range(3)])
        g_val = rows.at(point)
        total = 0.0
        for i in range(3):
            shift = np.zeros(3)
            shift[i] = h
            grad = [(p.eval_float(point + shift) - p.eval_float(point - shift)) / (2 * h) for p in rhs]
            total += g_val[0, i] * grad[1] - g_val[1, i] * grad[0]
        assert abs(entries[(1, 2)].eval_float(point) - total) < 1e-5


@st.composite
def _bracket_cases(draw):
    """For m from 2 to 5: Q with 0 to 4 rows of zero, constant and cubic entries, delta = 1 or
    1 + a random polynomial, X, a connection with random gamma and 1 <= n < m, and a base field w."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, m - 1))

    def poly(nvars, low=0):
        monomials = [mi for mi in itertools.product(range(4), repeat=nvars) if low <= sum(mi) <= 3]
        terms = draw(st.lists(st.tuples(st.sampled_from(monomials), st.integers(-3, 3)), max_size=4))
        return poly_sum((Poly.monomial(nvars, mi, c) for mi, c in terms), nvars)

    def entry():
        kind = draw(st.sampled_from(["zero", "constant", "cubic"]))
        if kind == "zero":
            return Poly.zero(m)
        return Poly.const(m, draw(st.integers(-3, 3))) if kind == "constant" else poly(m)

    q = PolyMatrix([[entry() for _ in range(m)] for _ in range(draw(st.integers(0, 4)))], cols=m, nvars=m)
    delta = Poly.const(m, 1) + (poly(m, low=1) if draw(st.booleans()) else Poly.zero(m))
    x_field = tuple(poly(m) for _ in range(m))
    conn = EhresmannConnection(m, n, [[poly(m) for _ in range(n)] for _ in range(m - n)])
    return q, delta, x_field, conn, [poly(n) for _ in range(n)]


@given(_bracket_cases())
def test_brackets_match_the_index_sums(case):
    """The bracket forms return the hand-expanded polynomials, keyed in the same order, and the
    horizontal lift's terms come in the same order too, since float evaluation sums them so."""
    q, delta, x_field, conn, w = case
    rhs = q.matvec(x_field)
    assert list(condition_a(q, delta).items()) == list(condition_a_by_sums(q, delta).items())
    assert list(condition_b(q, rhs, delta).items()) == list(condition_b_by_sums(q, rhs, delta).items())
    assert list(curvature_components(conn).items()) == list(curvature_by_sums(conn).items())
    lifted, by_sums = horizontal_lift(conn, w), horizontal_lift_by_sums(conn, w)
    assert [list(p.terms.items()) for p in lifted] == [list(p.terms.items()) for p in by_sums]


def test_conditions_make_only_the_needed_products(monkeypatch):
    """On obstruct-wide seed 7 #0 (m = 7, seven constant graph rows, d = 1) condition A makes no
    product and condition B at most 2 * m per pair; the index sums over Q made 588 and 882."""
    state = cli.RunState(cli.build_problem(gen.instance("obstruct-wide", 7, 0).spec))
    cli.stage_quotient(state)
    form = graph_form(ResidualSystem(*cli.stage_geometry(state), cli.stage_target(state)))
    m, rows = form.rows.cols, form.rows.rows
    assert (m, rows, form.den) == (7, 7, Poly.const(7, 1))
    assert all(e.is_constant() for row in form.rows.entries for e in row)
    products = 0
    multiply = Poly.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    condition_a(form.rows, form.den)
    assert products == 0
    condition_b(form.rows, form.rhs, form.den)
    assert products <= 2 * m * (rows * (rows - 1) // 2) == 294


def test_constant_determinants_and_adjugates_are_bounded(monkeypatch):
    """On obstruct-wide seed 7 #0, [C | D] and the graph-form block are 7 x 7 and constant:
    their determinants and adjugates make no Poly product and reach no cofactor expansion,
    and each block is eliminated once for both.  A polynomial matrix keeps no elimination."""
    seen = {}

    def recording(module, name):
        kernel = getattr(poly, name)

        def record(mat):
            seen[module.__name__, name] = mat
            return kernel(mat)

        monkeypatch.setattr(module, name, record)

    for module in (geometry, integrability):
        recording(module, "poly_det")
        recording(module, "poly_adjugate")
    state = cli.RunState(cli.build_problem(gen.instance("obstruct-wide", 7, 0).spec))
    cli.stage_quotient(state)
    graph_form(ResidualSystem(*cli.stage_geometry(state), cli.stage_target(state)))
    assert len(seen) == 4
    calls = {"_det_rows": 0, "__mul__": 0}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(poly, "_det_rows")
    counted(Poly, "__mul__")
    for (_, name), mat in seen.items():
        assert (mat.rows, mat.cols) == (7, 7)
        assert all(e.is_constant() for row in mat.entries for e in row)
        getattr(poly, name)(mat)
    assert calls == {"_det_rows": 0, "__mul__": 0}
    # each module hands its det and its adjugate one block, whose elimination serves both
    blocks = [seen[module.__name__, "poly_det"] for module in (geometry, integrability)]
    assert all(seen[module.__name__, "poly_adjugate"] is block for module, block in zip((geometry, integrability), blocks))
    calls["reduce_rows"] = 0
    counted(poly, "reduce_rows")
    for block in blocks:
        fresh = PolyMatrix(block.entries)
        assert (poly.poly_det(fresh), poly.poly_adjugate(fresh)) == (poly.poly_det(block), poly.poly_adjugate(block))
    assert calls == {"_det_rows": 0, "__mul__": 0, "reduce_rows": len(blocks)}
    x1 = Poly.variable(2, 0)
    polynomial = PolyMatrix([[x1 + 1, x1], [Poly.const(2, 2), Poly.const(2, 3)]])
    assert poly.poly_det(polynomial) == x1 + 3 and poly.poly_adjugate(polynomial).entry(0, 1) == -x1
    assert polynomial._elimination is None and calls["reduce_rows"] == len(blocks)


@pytest.mark.parametrize(
    "d_cols, a_vanishes",
    [
        ([["0", "1 + x1^2", "x1"], ["0", "x1*x3", "1"]], False),
        # det[C | D](0) = 2, so this one checks the normalisation by it
        ([["0", "2 + x2^2", "0"], ["0", "0", "1 + x3^2"]], True),
    ],
)
def test_conditions_match_inverse_projection_for_non_constant_determinant(d_cols, a_vanishes):
    """condition_a / delta^3 and condition_b / delta^3, on the rows of Q with right-hand sides
    Q X, equal the bracket [P_1, P_2] and P_1(P_2 . X) - P_2(P_1 . X) of the true P_D, the bottom
    rows of [C | D]^-1 differentiated by central differences, on a 5-per-axis grid."""
    c = Frame.build(3, [[_p("1", X3), _p("0", X3), _p("0", X3)]], check_grid(3))
    d = Frame.build(3, [[_p(t, X3) for t in col] for col in d_cols], check_grid(3))
    p_d, _ = build_projections(c, d, flat_connection(3, 1))
    delta = projection_delta(c, d)
    assert delta.constant_term == 1 and not delta.is_constant()
    x_field = (_p("-x1", X3), _p("-x2 + x1*x3", X3), _p("-x3", X3))
    a_entries = condition_a(p_d, delta)
    b_entries = condition_b(p_d, p_d.matvec(x_field), delta)

    def true_pd(x):
        return np.linalg.inv(np.hstack([c.as_matrix().at(x), d.as_matrix().at(x)]))[1:, :]

    h = 1e-5
    worst_a = worst_b = 0.0
    for x in default_grid(3, per_axis=5).points:
        delta_x = delta.eval_float(x)
        pd_val = true_pd(x)
        dpd = [(true_pd(x + h * e) - true_pd(x - h * e)) / (2 * h) for e in np.eye(3)]
        jac = [[x_field[i1].diff(i).eval_float(x) for i1 in range(3)] for i in range(3)]
        bracket = []
        for i1 in range(3):
            want = sum(pd_val[0, i] * dpd[i][1, i1] - pd_val[1, i] * dpd[i][0, i1] for i in range(3))
            got = a_entries[(1, 2, i1 + 1)].eval_float(x) / delta_x**3
            assert abs(got - want) < 1e-8
            worst_a = max(worst_a, abs(want))
            bracket.append(want)
        # P_1(P_2 . X) - P_2(P_1 . X) = [P_1, P_2] . X - sum_i1 (P_1^i1 P_2(X^i1) - P_2^i1 P_1(X^i1))
        x_val = [p.eval_float(x) for p in x_field]
        want = sum(b * v for b, v in zip(bracket, x_val)) - sum(
            (pd_val[1, i] * pd_val[0, i1] - pd_val[0, i] * pd_val[1, i1]) * jac[i][i1]
            for i in range(3)
            for i1 in range(3)
        )
        got = b_entries[(1, 2)].eval_float(x) / delta_x**3
        assert abs(got - want) < 1e-8
        worst_b = max(worst_b, abs(want))
    assert worst_b > 1e-3
    assert (worst_a < 1e-8) == a_vanishes


# -- pointwise consistency ------------------------------------------------------


def test_pointwise_consistency_ex_ps():
    _, rs = build_pipeline("ex_ps")
    report = pointwise_consistency(graph_form(rs), check_points(2))
    assert report.consistent
    assert report.worst_gap == 0.0 and report.worst_point is None


def test_pointwise_consistency_ex_di():
    _, rs = build_pipeline("ex_di")
    report = pointwise_consistency(graph_form(rs), check_points(2))
    assert not report.consistent
    ok, gap = consistency_gap_at(rs, [1.0, 0.0])
    assert not ok
    assert abs(gap - 2.0) <= 1e-9
    assert ((1.0, 0.0), 2.0) in report.failures
    assert (report.worst_gap, report.worst_point) == (3.0, (-1.0, -1.0))
    assert all(type(v) is float for point, _ in report.failures for v in point)
    assert all(type(v) is float for v in report.worst_point)


def test_pointwise_consistency_ex_fa():
    _, rs = build_pipeline("ex_fa")
    report = pointwise_consistency(graph_form(rs), check_points(2))
    assert report.consistent


def _system_on_grid(case):
    """The residual system of a fixture or a seed-7 workload instance, and its check grid."""
    spec = gen.instance(case, 7, 0).spec if case in gen.WORKLOADS else cli.load_spec(cli.fixture_path(case))
    state = cli.RunState(cli.build_problem(spec))
    cli.stage_quotient(state)
    return ResidualSystem(*cli.stage_geometry(state), cli.stage_target(state)), state.grid


def _identities_vanish(form, grid):
    """Per grid point: every consistency identity is exactly zero there; the graph form must hold there."""
    out = []
    for index in range(len(grid)):
        point = grid.exact(index)
        assert form.den.eval(point) != 0
        out.append(all(p.eval(point) == 0 for p in form.identities))
    return out


@pytest.mark.parametrize("case", ["ex_ps", "ex_di", "ex_fa", "ex_curv", *gen.WORKLOADS])
def test_stacked_consistency_matches_the_per_point_reference(case):
    """The exact identities vanish at a grid point exactly when the float rank test on the
    stacked system calls it consistent, and the failures are the other points."""
    rs, grid = _system_on_grid(case)
    form = graph_form(rs)
    vanish = _identities_vanish(form, grid)
    assert vanish == [consistency_gap_at(rs, point)[0] for point in grid.points]
    report = pointwise_consistency(form, grid.points)
    failing = [tuple(p) for p, ok in zip(grid.points.tolist(), vanish) if not ok]
    assert [point for point, _ in report.failures] == failing
    assert report.consistent == all(p.is_zero() for p in form.identities)


@pytest.mark.parametrize("case", ["ex_di", "ex_curv"])
def test_gap_is_the_sum_of_the_identities(case):
    """The gap at a failing point is sum |identity| there: |X1| on EX-DI, |X2 + x1 X3| on EX-CURV."""
    rs, grid = _system_on_grid(case)
    form = graph_form(rs)
    report = pointwise_consistency(form, grid.points)
    assert report.failures
    exact = {
        tuple(grid.points[i].tolist()): sum(abs(p.eval(grid.exact(i))) for p in form.identities) for i in range(len(grid))
    }
    for point, gap in report.failures:
        assert abs(gap - float(exact[point])) <= 1e-12 * max(1.0, gap)
    assert report.worst_gap == max(float(v) for v in exact.values()) == 3.0


@st.composite
def _consistency_systems(draw):
    """A residual system with m <= 4 on a grid of 6 points per axis: a constant-rank C, gamma
    and X with small integer polynomial entries, and an automatic or a user complement.  Half
    of the entries carry a factor x_i^2 - 1/25, which is exactly zero on the grid plane
    x_i = +-0.2 but evaluates to roundoff there, and half of the connections are flat."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, m - 1))
    r = draw(st.integers(1, m))
    grid = default_grid(m, 6)
    monomials = [mi for mi in itertools.product(range(3), repeat=m) if sum(mi) <= 2]
    term = st.tuples(st.sampled_from(monomials), st.integers(-2, 2))

    def poly():
        p = poly_sum((Poly.monomial(m, mi, c) for mi, c in draw(st.lists(term, max_size=3))), m)
        if draw(st.booleans()):
            i = draw(st.integers(0, m - 1))
            p = p * (Poly.monomial(m, [2 if k == i else 0 for k in range(m)], 1) - Poly.const(m, Fraction(1, 25)))
        return p

    def column(lead, free):  # 1 at lead, a drawn polynomial on free, 0 elsewhere
        return [Poly.const(m, 1) if i == lead else poly() if i in free else Poly.zero(m) for i in range(m)]

    # each C column is 1 at its pivot and 0 at the earlier pivots, so the pivot rows are unit triangular
    pivots = draw(st.permutations(range(m)))[:r]
    c = Frame.build(m, [column(k, set(range(m)) - set(pivots[: j + 1])) for j, k in enumerate(pivots)], grid)
    if draw(st.booleans()):
        try:
            d = complement_frame(c, None, grid)
        except ComplementError:
            assume(False)
    else:
        # zero on the pivots and unit triangular on the other coordinates: det [C | D] = 1
        rest = [i for i in range(m) if i not in pivots]
        d = complement_frame(c, [column(k, rest[j + 1 :]) for j, k in enumerate(rest)], grid)
    flat = draw(st.booleans())
    conn = EhresmannConnection(m, n, [[Poly.zero(m) if flat else poly() for _ in range(n)] for _ in range(m - n)])
    return ResidualSystem(*build_projections(c, d, conn), tuple(poly() for _ in range(m))), grid


@given(_consistency_systems())
def test_identities_agree_with_the_stacked_system(case):
    """Where the graph form holds (d != 0), M y = b is solvable exactly when every identity vanishes."""
    rs, grid = case
    try:
        form = graph_form(rs)
    except (FrameRankError, DegreeCapError):  # refused inputs: exit 1
        assume(False)
    stacked = [consistency_gap(m_mat, b)[0] for m_mat, b in zip(*stacked_system(rs, grid.points))]
    for index, consistent in enumerate(stacked):
        exact = grid.exact(index)
        if form.den.eval(exact) != 0:
            assert consistent == all(p.eval(exact) == 0 for p in form.identities)


@st.composite
def _complement_changes(draw):
    """A system with m <= 4 as in :func:`_consistency_systems` but with a user complement D of
    det [C | D] = 1, and D U for a unipotent upper-triangular U with polynomial entries."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, m - 1))
    r = draw(st.integers(1, m - 1))
    grid = default_grid(m, 3)
    monomials = [mi for mi in itertools.product(range(3), repeat=m) if 1 <= sum(mi) <= 2]

    def poly():
        terms = draw(st.lists(st.tuples(st.sampled_from(monomials), st.integers(-2, 2)), max_size=2))
        return poly_sum((Poly.monomial(m, mi, c) for mi, c in terms), m)

    def column(lead, free):
        return [Poly.const(m, 1) if i == lead else poly() if i in free else Poly.zero(m) for i in range(m)]

    pivots = draw(st.permutations(range(m)))[:r]
    c = Frame.build(m, [column(k, set(range(m)) - set(pivots[: j + 1])) for j, k in enumerate(pivots)], grid)
    rest = [i for i in range(m) if i not in pivots]
    d_cols = [column(k, rest[j + 1 :]) for j, k in enumerate(rest)]
    u = [[poly() for _ in range(j)] for j in range(len(d_cols))]  # u[j][k] = U_kj, k < j
    sheared = [
        [d_cols[j][i] + poly_sum((u[j][k] * d_cols[k][i] for k in range(j)), m) for i in range(m)]
        for j in range(len(d_cols))
    ]  # column j of D U
    gamma = [[poly() if draw(st.booleans()) else Poly.zero(m) for _ in range(n)] for _ in range(m - n)]
    conn = EhresmannConnection(m, n, gamma)
    x_field = tuple(poly() for _ in range(m))
    systems = [
        ResidualSystem(*build_projections(c, complement_frame(c, cols, grid), conn), x_field)
        for cols in (d_cols, sheared)
    ]
    return systems, conn, grid, c


def _integrability_section(rs, conn, grid):
    try:
        report = full_check(rs, conn, grid.points)
    except (FrameRankError, DegreeCapError) as exc:  # refused inputs: exit 1
        return str(exc)
    consistency = report.consistency
    return (
        report.verdict,
        report.reasons,
        report.flat_offenders,
        report.cond_a_offenders,
        report.cond_b_offenders,
        [point for point, _ in consistency.failures],
        report.symbol,
    ), [gap for _, gap in consistency.failures]


@given(_complement_changes())
def test_integrability_is_unchanged_under_a_unipotent_change_of_complement(case):
    """D -> D U keeps the span of D and det [C | D], so it keeps the graph form: the verdict, the
    reasons, every offender and the failing points are the same, and the gaps up to roundoff."""
    (automatic, sheared), conn, grid, _ = case
    first, second = _integrability_section(automatic, conn, grid), _integrability_section(sheared, conn, grid)
    if isinstance(first, str):
        assert first == second
        return
    assert first[0] == second[0]
    assert np.allclose(first[1], second[1], rtol=1e-12, atol=0)


@st.composite
def _small_lift_systems(draw):
    """(system, connection, C) with m <= 4 and X(0) = 0.  Half of the systems are solvable by
    construction: a flat connection with gamma = 0 and X = grad W + C a, W of degree 2 to 3 in
    the fibre coordinates."""
    (rs, _), conn, _, c = draw(_complement_changes())
    if draw(st.booleans()):
        return rs, conn, c
    m, n = rs.p_vm.rows, rs.p_vm.cols
    conn = flat_connection(m, n)
    fibre = [mi for mi in itertools.product(range(4), repeat=m) if 2 <= sum(mi) <= 3 and not any(mi[:n])]
    term = st.tuples(st.sampled_from(fibre), st.integers(-2, 2))
    w = poly_sum((Poly.monomial(m, mi, c) for mi, c in draw(st.lists(term, min_size=1, max_size=3))), m)
    a = [
        poly_sum((Poly.monomial(m, mi, c) for mi, c in draw(st.lists(term, max_size=2))), m)
        for _ in c.fields
    ]
    c_a = [poly_sum((ak * col[i] for ak, col in zip(a, c.fields)), m) for i in range(m)]
    x_field = tuple(w.diff(i) + c_a[i] for i in range(m))
    return ResidualSystem(rs.p_d, build_p_vm(conn), x_field), conn, c


@given(_small_lift_systems())
def test_liftable_systems_have_feasible_jets(case):
    """LIFTABLE means the graph form is involutive and compatible, so the graded Euler operator on it
    gives Taylor coefficients of V at every order: both residual blocks vanish through order-1 and
    every parametric coefficient keeps its seed.  The forward substitution gives the same
    coefficients, in the same insertion order.  Where the elimination oracle's free columns are the
    parametric monomials, it gives the same coefficients; elsewhere it seeds other monomials."""
    rs, conn, _ = case
    try:
        report = full_check(rs, conn, check_points(rs.p_vm.rows))
    except (FrameRankError, DegreeCapError):  # refused inputs: exit 1
        assume(False)
    if report.liftable:
        for order in range(2, 7):
            jet = solve_jets(assemble_lift_system(report.form, order), rs, fibre_start=rs.p_vm.cols)
            v = jet.polynomial(rs.p_vm.rows)
            assert all(comp.truncate(order - 1).is_zero() for block in residual_psi(rs, v) for comp in block)
            assert all(jet.coeffs.get(mi, 0) == lift_oracle.seed(mi, rs.p_vm.cols) for mi in jet.free_seeded)
            coeffs, free = lift_oracle.solve_by_substitution(report.form, order, rs.p_vm.cols)
            assert (list(jet.coeffs.items()), jet.free_seeded) == (list(coeffs.items()), free)
            coeffs, free = lift_oracle.solve_by_elimination(rs, order, rs.p_vm.cols)
            if free == jet.free_seeded:
                assert coeffs == jet.coeffs


def _rs_from_c_x(c_cols, x_texts, names, n):
    """Residual system for the control columns C (texts), the target X and the flat connection."""
    return _rs_from_pd_x(None, x_texts, names, [[_p(t, names) for t in col] for col in c_cols], n)[0]


@pytest.mark.parametrize(
    "c_cols",
    [
        # P_VM^T C = [[1, 1e-12], [1, 0]]: a float rank of 1 read this as inconsistent everywhere
        [["1", "1", "0"], ["1/1000000000000", "0", "1"]],
        # P_VM^T C = [[10^-170, 1], [1, 0]]: the squared norm of its first column underflows to zero
        [["1/1" + "0" * 170, "1", "0"], ["1", "0", "1"]],
    ],
    ids=["near-singular", "tiny-entry"],
)
def test_consistency_does_not_rest_on_float_rounding(c_cols):
    """Exact rationals of any size are decided exactly: both systems have full rank, so the
    stacked system has no identity and is consistent at every grid point."""
    rs = _rs_from_c_x(c_cols, ["1", "0", "0"], X3, n=2)
    form = graph_form(rs)
    assert form.identities == ()
    report = pointwise_consistency(form, check_points(3))
    assert report.consistent and report.failures == []


def test_rank_drop_at_the_origin_is_refused():
    """C = ((10^-170, 1, 0), (x1^2 + x2^2 + x3^2, 0, 1)) with n = 2: the D row
    (1, -10^-170, -(x1^2 + x2^2 + x3^2)) lies in the span of the VM rows e1 and e2 only at the
    origin, so the stacked system has rank 2 there and 3 nearby, and no graph form holds; the
    float check once read this as an inconsistent origin."""
    rs = _rs_from_c_x([["1/1" + "0" * 170, "1", "0"], ["x1^2 + x2^2 + x3^2", "0", "1"]], ["1", "0", "0"], X3, n=2)
    with pytest.raises(FrameRankError, match=r"row vm\[2\] reduces to zero there only"):
        graph_form(rs)


@pytest.mark.parametrize("coeff", ["10000000000", "1" + "0" * 20])
def test_large_right_hand_side_is_consistent_in_the_per_point_reference(coeff):
    """[M | b] has its long rows shrunk to unit length, so a huge right-hand side does not
    drown the system in the reference, and the exact test has no identity to fail."""
    _, rs = build_pipeline("ex_ps", f0=["0", f"-x2 + {coeff}*x2^3"])
    points = check_points(2)
    assert all(consistency_gap(m_mat, b)[0] for m_mat, b in zip(*stacked_system(rs, points)))
    assert pointwise_consistency(graph_form(rs), points).consistent


# -- symbol dimensions ----------------------------------------------------------


def test_symbol_dims_ex_ps():
    _, rs = build_pipeline("ex_ps")
    dims = symbol_dims(graph_form(rs))
    assert (dims.dim_g1, dims.dim_g2) == (0, 0)
    assert dims.quasi_regular


def test_symbol_dims_ex_fa():
    _, rs = build_pipeline("ex_fa")
    dims = symbol_dims(graph_form(rs))
    assert (dims.dim_g1, dims.dim_g2) == (1, 1)
    assert dims.quasi_regular
    assert dims.permutation == (2, 1)  # the second coordinate must lead


def test_symbol_dims_zero_control():
    frame = Frame(2, ())
    p_d, p_vm = build_projections(frame, complement_frame(frame, None, check_grid(2)), flat_connection(2, 1))
    dims = symbol_dims(graph_form(ResidualSystem(p_d, p_vm, (Poly.zero(2),) * 2)))
    assert (dims.dim_g1, dims.dim_g2) == (0, 0)
    assert dims.quasi_regular


def _symbol_matches_the_float_reference(c, rs):
    """The graph-form symbol against the float intersection of C(0) and ker P_VM(0)^T."""
    assert symbol_dims(graph_form(rs)) == symbol_oracle.symbol_dims(c, rs.p_vm, [0.0] * rs.p_vm.rows)


@pytest.mark.parametrize("name", ["ex_ps", "ex_fa", "ex_di", "ex_curv"])
def test_symbol_matches_the_float_reference_on_the_fixtures(name):
    problem, rs = build_pipeline(name)
    _symbol_matches_the_float_reference(run_frames(problem)[0], rs)


@pytest.mark.parametrize("workload", ["lift-exact", "obstruct-wide"])
def test_symbol_matches_the_float_reference_on_the_benchmark(workload):
    for index in range(gen.FIXED_COUNT[workload]):
        problem, rs = pipeline_of(gen.instance(workload, 7, index).spec)
        _symbol_matches_the_float_reference(run_frames(problem)[0], rs)


@given(_small_lift_systems())
def test_symbol_matches_the_float_reference_on_small_systems(case):
    rs, _, c = case
    try:
        graph_form(rs)
    except (FrameRankError, DegreeCapError):  # refused inputs: exit 1
        assume(False)
    _symbol_matches_the_float_reference(c, rs)


def test_symbol_with_a_tiny_connection_coefficient():
    """EX-FA with a third state and gamma = (10^-10, 0): the horizontal direction is
    (1, 10^-10, 0) and G1 is spanned by (-10^-10, 1, 0).  Its x1 entry is below the rank
    tolerance, so x2 leads the coordinate order, and the float identity certifies that order;
    x1 first, as an exact greedy would pick, fails it."""
    spec = {
        **cli.load_spec(cli.fixture_path("ex_fa")),
        "states": ["x1", "x2", "x3"],
        "f0": ["0", "0", "0"],
        "f": [["1", "0", "0"], ["0", "1", "0"]],
        "gamma": [["1/10000000000"], ["0"]],
    }
    dims = symbol_dims(graph_form(pipeline_of(spec)[-1]))
    assert (dims.dim_g1, dims.quasi_regular, dims.permutation) == (1, True, (2, 1, 3))


def _g1_bases(rng, m):
    """Orthonormal G1 bases of every dimension k = 0..m, as (k, basis): a random rotation of
    k coordinates, k coordinate rows, and, for k = 1, a row whose other entries are below the
    rank tolerance."""
    for k in range(m + 1):
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        yield k, q[:, :k].T
        yield k, np.eye(m)[sorted(rng.choice(m, size=k, replace=False))]
    if m > 1:
        yield 1, np.array([[-1e-10] + [0.0] * (m - 2) + [1.0]])


@pytest.fixture
def counted_ranks(monkeypatch):
    """The numeric_rank calls made through integrability, one list entry per call."""
    calls = []
    rank = integrability.numeric_rank

    def counting(*args, **kwargs):
        calls.append(args)
        return rank(*args, **kwargs)

    monkeypatch.setattr(integrability, "numeric_rank", counting)
    return calls


def test_quasi_regular_identity_matches_the_reference_on_coordinate_orders(counted_ranks):
    """Every coordinate order for m <= 4, against the three-ranks-per-intersection identity and
    every dim_g2 near the true one; G1 is ranked once and the suffixes not at all, so the
    identity takes 1 SVD when G1 = 0 and m (G1 and the m - 1 stacks) otherwise."""
    rng = np.random.default_rng(28)
    for m in range(1, 5):
        for k, g1 in _g1_bases(rng, m):
            for perm in itertools.permutations(range(m)):
                basis = np.eye(m)[list(perm)]
                for dim_g2 in range(k * (k + 1) // 2 + 2):
                    counted_ranks.clear()
                    got = integrability.quasi_regular_identity(g1, dim_g2, perm)
                    assert len(counted_ranks) == (1 if k == 0 else m)
                    assert got == reference_identity(g1, dim_g2, basis), (m, k, perm, dim_g2)


def test_quasi_regular_identity_matches_the_reference_on_a_tiny_connection_coefficient(monkeypatch):
    """The G1 basis that symbol_dims builds for the gamma = (10^-10, 0) problem above, under
    every coordinate order."""
    spec = {
        **cli.load_spec(cli.fixture_path("ex_fa")),
        "states": ["x1", "x2", "x3"],
        "f0": ["0", "0", "0"],
        "f": [["1", "0", "0"], ["0", "1", "0"]],
        "gamma": [["1/10000000000"], ["0"]],
    }
    seen = []
    identity = integrability.quasi_regular_identity
    monkeypatch.setattr(integrability, "quasi_regular_identity", lambda *args: seen.append(args) or identity(*args))
    symbol_dims(graph_form(pipeline_of(spec)[-1]))
    [(g1, dim_g2, _)] = seen
    assert g1.shape == (1, 3) and 0.0 < abs(g1[0, 0]) < 1e-9
    for perm in itertools.permutations(range(3)):
        basis = np.eye(3)[list(perm)]
        for value in (dim_g2, dim_g2 + 1):
            assert identity(g1, value, perm) == reference_identity(g1, value, basis), perm


def test_symbol_lemma_nested_subspaces():
    rng = np.random.default_rng(61)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        re = int(rng.integers(1, m + 1))
        s = int(rng.integers(0, re + 1))
        e_basis = rng.standard_normal((re, m))
        f_basis = rng.standard_normal((s, re)) @ e_basis if s else np.zeros((0, m))
        assert sym_intersection_dim(e_basis, f_basis) == s * (s + 1) // 2
        dims = quasi_regular_search(e_basis, f_basis)
        assert dims.dim_g2 == s * (s + 1) // 2
        assert dims.quasi_regular


@st.composite
def _span_pairs(draw):
    """Two spanning matrices in R^m, m <= 5: coordinate-aligned, sparse-integer or Gaussian."""
    m = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["coordinate", "sparse", "gaussian"]))

    def span(rows):
        if kind == "coordinate":
            return np.eye(m)[draw(st.lists(st.integers(0, m - 1), min_size=rows, max_size=rows))]
        if kind == "sparse":
            entries = st.sampled_from([0, 0, 0, 1, -1, 2])
            return np.array(draw(st.lists(entries, min_size=rows * m, max_size=rows * m)), dtype=float).reshape(rows, m)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.standard_normal((rows, m))

    return span(draw(st.integers(1, m))), span(draw(st.integers(0, m)))


@given(_span_pairs())
def test_symbol_closed_form_matches_permutation_search(pair):
    e_span, f_span = pair
    dims = quasi_regular_search(e_span, f_span)
    assert dims == permutation_search(e_span, f_span)
    assert dims.dim_g2 == sym_intersection_dim(e_span, f_span)


def test_symbol_closed_form_non_nested_spans():
    # E = span(e1, e2, e3), F = span(e1 + e2, e3, e4): G1 = span(e1 + e2, e3)
    e_span = np.eye(4)[:3]
    f_span = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    dims = quasi_regular_search(e_span, f_span)
    assert (dims.dim_g1, dims.dim_g2) == (2, 3)
    assert dims.dim_g2 == sym_intersection_dim(e_span, f_span)
    assert dims.quasi_regular
    assert dims.permutation == (1, 3, 2, 4)  # x2 repeats x1's column of G1, so x3 leads next


# -- curvature map ---------------------------------------------------------------


def test_vm_curvature_coeffs_match_connection_curvature():
    conn = EhresmannConnection(4, 2, [
        [_p("x2*x4", ["x1", "x2", "x3", "x4"]), _p("x1^2", ["x1", "x2", "x3", "x4"])],
        [_p("x3", ["x1", "x2", "x3", "x4"]), _p("x1*x2", ["x1", "x2", "x3", "x4"])],
    ])

    coeffs = vm_curvature_coeffs(build_p_vm(conn))
    curv = curvature_components(conn)
    n, m = 2, 4
    for q1 in range(1, n + 1):
        for q2 in range(q1 + 1, n + 1):
            for i1 in range(1, m + 1):
                entry = coeffs[(q1, q2, i1)]
                if i1 <= n:
                    assert entry.is_zero()
                else:
                    assert entry == curv[(i1, q1, q2)]


def test_curvature_map_zero_on_liftable_fixture():
    problem, rs = build_pipeline("ex_ps")
    delta = projection_delta(*run_frames(problem))
    rng = np.random.default_rng(5)
    for _ in range(5):
        point = rng.uniform(-1, 1, size=2)
        for _ in range(20):
            jet = consistent_jet(rs, point, rng)
            g_map, h_map = curvature_map_eval(rs, delta, point, jet)
            assert all(value == 0.0 for value in g_map.values())
            assert all(value == 0.0 for value in h_map.values())


def test_curvature_map_b_term_reference():
    names = X3
    rs, delta = _rs_from_pd_x(
        [["1", "0", "0"], ["0", "1", "0"]],
        ["x2", "0", "0"],
        names,
        c_cols=[[_p("0", names), _p("0", names), _p("1", names)]],
        n=1,
    )
    point = [0.3, 0.0, 0.7]
    jet = [p.eval_float(point) for p in rs.x_field]
    g_map, h_map = curvature_map_eval(rs, delta, point, jet)
    assert abs(g_map[(1, 2)] - 1.0) < 1e-12
    assert h_map == {}


def test_curvature_map_flat_connection_h_zero():
    """With a flat connection the H coefficients are identically zero polys."""

    _, rs = build_pipeline("ex_curv")
    coeffs = vm_curvature_coeffs(rs.p_vm)
    # the non-flat fixture has a nonzero coefficient...
    assert any(not v.is_zero() for v in coeffs.values())
    # ...and the flattened version of the same shape has none
    flat_coeffs = vm_curvature_coeffs(build_p_vm(flat_connection(3, 2)))
    assert all(v.is_zero() for v in flat_coeffs.values())


def test_obstruction_map_zero_nontrivial_cokernel():
    """When flatness and conditions A and B hold, the obstruction values are
    exactly zero for every consistent jet, even with a nontrivial cokernel."""
    names = X3
    # constant projection rows (A vanishes) and X with matching cross
    # derivatives (B vanishes): d(X^2)/dx3 == d(X^3)/dx2
    rs, delta = _rs_from_pd_x(
        [["0", "1", "0"], ["0", "0", "1"]],
        ["0", "x2*x3", "1/2*x2^2"],
        names,
        c_cols=[[_p("1", names), _p("0", names), _p("0", names)]],
        n=1,
    )
    a_entries = condition_a(rs.p_d, delta)
    b_entries = condition_b(rs.p_d, rs.p_d.matvec(rs.x_field), delta)
    assert all(v.is_zero() for v in a_entries.values())
    assert all(v.is_zero() for v in b_entries.values())
    rng = np.random.default_rng(13)
    for _ in range(10):
        point = rng.uniform(-1, 1, size=3)
        jet = consistent_jet(rs, point, rng)
        g_map, h_map = curvature_map_eval(rs, delta, point, jet)
        assert g_map[(1, 2)] == 0.0
        assert h_map == {}


def test_curvature_map_rejects_inconsistent_jet():
    problem, rs = build_pipeline("ex_ps")
    with pytest.raises(InconsistentJetError):
        curvature_map_eval(rs, projection_delta(*run_frames(problem)), [1.0, 1.0], [5.0, 5.0])


# -- full check -------------------------------------------------------------------


def test_full_check_ex_ps():
    problem, rs = build_pipeline("ex_ps")
    report = full_check(rs, problem.conn, check_points(problem.sys.m))
    assert report.liftable
    assert report.verdict == "LIFTABLE"


def test_full_check_ex_di():
    problem, rs = build_pipeline("ex_di")
    report = full_check(rs, problem.conn, check_points(problem.sys.m))
    assert not report.liftable
    assert report.reasons == ["consistency"]


def test_full_check_ex_curv():
    problem, rs = build_pipeline("ex_curv")
    report = full_check(rs, problem.conn, check_points(problem.sys.m))
    assert not report.liftable
    assert "flatness" in report.reasons
    assert report.flat_offenders[(3, 1, 2)] == Poly.const(3, -1)


def test_full_check_non_constant_determinant():
    c = Frame.build(2, [[_p("1", X2), _p("0", X2)]], check_grid(2))
    d = complement_frame(c, user_d=[[_p("0", X2), _p("1 + 1/2*x1^2", X2)]], grid=check_grid(2))
    conn = flat_connection(2, 1)
    assert projection_delta(c, d) == _p("1 + 1/2*x1^2", X2)
    rs = ResidualSystem(*build_projections(c, d, conn), (_p("-2*x1", X2), _p("x2", X2)))
    report = full_check(rs, conn, check_points(2))
    assert not report.cond_a_offenders and not report.cond_b_offenders
    assert report.consistency.consistent
