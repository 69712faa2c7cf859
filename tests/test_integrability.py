"""Residual evaluation, obstruction conditions, consistency, and the symbol."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import build_pipeline, check_grid, check_points, flat_connection
from hypothesis import assume, given
from hypothesis import strategies as st
from liftbench import gen
from obstruction_oracle import (
    InconsistentJetError,
    consistency_gap,
    consistency_gap_at,
    consistent_jet,
    curvature_map_eval,
    prolonged_residual,
    quotient_gap,
    stacked_system,
    vm_curvature_coeffs,
)
from symbol_oracle import permutation_search, sym_intersection_dim

from liftlyap import cli
from liftlyap.geometry import (
    ComplementError,
    EhresmannConnection,
    Frame,
    build_p_vm,
    build_projections,
    complement_frame,
    curvature_components,
    default_grid,
)
from liftlyap.integrability import (
    ResidualSystem,
    check_flatness,
    condition_a,
    condition_b,
    full_check,
    pointwise_consistency,
    quasi_regular_search,
    quotient_rows,
    residual_psi,
    symbol_dims,
)
from liftlyap.parsing import parse_poly
from liftlyap.poly import Poly, PolyMatrix, poly_sum

X2 = ["x1", "x2"]
X3 = ["x1", "x2", "x3"]
ONE3 = Poly.const(3, 1)


def _p(text, names):
    return parse_poly(text, names)


def _rs_from_pd_x(pd_rows, x_texts, names, c_cols, n=1):
    """Residual system with an explicitly chosen projection (for unit values); pd_rows None
    skips the check of the projection, which the consistency check does not read."""
    m = len(names)
    c = Frame.build(m, c_cols, check_grid(m))
    d = complement_frame(c, None, check_grid(m))
    conn = flat_connection(m, n)
    pair = build_projections(c, d, conn)
    if pd_rows is not None:
        expected = PolyMatrix([[_p(t, names) for t in row] for row in pd_rows], cols=m, nvars=m)
        assert pair.p_d == expected, "constructed projection differs from the intended rows"
    return ResidualSystem(pair, tuple(_p(t, names) for t in x_texts)), conn


# -- residual evaluation -------------------------------------------------------


def test_residual_psi_solution_ex_ps():
    _, _, _, _, rs = build_pipeline("ex_ps")
    v = _p("1/2*x2^2", X2)
    d_blk, vm_blk = residual_psi(rs, v)
    assert all(c.is_zero() for c in d_blk)
    assert all(c.is_zero() for c in vm_blk)


def test_residual_psi_zero_candidate_ex_ps():
    _, _, _, _, rs = build_pipeline("ex_ps")
    d_blk, vm_blk = residual_psi(rs, Poly.zero(2))
    assert d_blk == [_p("-x2", X2)]
    assert vm_blk == [Poly.zero(2)]


def test_residual_psi_empty_d_block_ex_fa():
    _, _, _, _, rs = build_pipeline("ex_fa")
    d_blk, vm_blk = residual_psi(rs, _p("x1^2 + x2^2", X2))
    assert d_blk == []
    assert len(vm_blk) == 1


def test_prolonged_residual_consistent_jet():
    _, _, _, _, rs = build_pipeline("ex_ps")
    point = [1.0, 1.0]
    v1 = [0.0, 1.0]  # gradient of x2^2/2 at the point
    v2 = np.array([[0.0, 0.0], [0.0, 1.0]])
    out = prolonged_residual(rs, point, v1, v2)
    for block in out.values():
        assert np.max(np.abs(block), initial=0.0) < 1e-12


def test_prolonged_residual_zero_jet():
    _, _, _, _, rs = build_pipeline("ex_ps")
    zero1 = [0.0, 0.0]
    zero2 = np.zeros((2, 2))
    at_10 = prolonged_residual(rs, [1.0, 0.0], zero1, zero2)
    assert abs(at_10["d"][0]) < 1e-12
    at_11 = prolonged_residual(rs, [1.0, 1.0], zero1, zero2)
    assert abs(at_11["d"][0] - (-1.0)) < 1e-12


def test_prolonged_residual_rejects_asymmetric():
    _, _, _, _, rs = build_pipeline("ex_ps")
    with pytest.raises(ValueError):
        prolonged_residual(rs, [0.0, 0.0], [0.0, 0.0], np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_prolongation_differentiation_consistency():
    """An exact solution's 2-jet annihilates the prolonged system everywhere."""
    _, _, _, _, rs = build_pipeline("ex_ps")
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
    p_d = PolyMatrix([[_p(t, X3) for t in row] for row in [["1", "0", "0"], ["0", "1", "0"]]])
    x_field = (_p("x2", X3), Poly.zero(3), Poly.zero(3))
    entries = condition_b(p_d, x_field)
    assert entries[(1, 2)] == Poly.const(3, 1)


def test_condition_b_constant_x_zero():
    rng = random.Random(37)
    p_d = PolyMatrix([[_p(t, X3) for t in row] for row in [["x2", "1", "0"], ["0", "x1", "1"]]])
    x_field = tuple(Poly.const(3, Fraction(rng.randint(-3, 3))) for _ in range(3))
    entries = condition_b(p_d, x_field)
    assert all(v.is_zero() for v in entries.values())


def test_condition_b_single_row_vacuous():
    p_d = PolyMatrix([[Poly.const(3, 1), Poly.zero(3), Poly.zero(3)]])
    assert condition_b(p_d, (Poly.zero(3),) * 3) == {}


def test_condition_b_antisymmetry_and_oracle():
    p_d = PolyMatrix([[_p(t, X3) for t in row] for row in [["x2", "1", "0"], ["0", "x1", "1"]]])
    x_field = (_p("x2*x3", X3), _p("x1^2", X3), _p("-x3", X3))
    entries = condition_b(p_d, x_field)
    swapped = condition_b(PolyMatrix([p_d.row(1), p_d.row(0)]), x_field)
    assert swapped[(1, 2)] == -entries[(1, 2)]
    # oracle: plain double-sum with finite-difference Jacobian of X
    rng = random.Random(43)
    h = 1e-6
    for _ in range(5):
        point = np.array([rng.uniform(-1, 1) for _ in range(3)])
        pd_val = p_d.at(point)
        total = 0.0
        for i in range(3):
            shift = np.zeros(3)
            shift[i] = h
            for i1 in range(3):
                dx = (
                    x_field[i1].eval_float(point + shift) - x_field[i1].eval_float(point - shift)
                ) / (2 * h)
                total += (pd_val[1, i] * pd_val[0, i1] - pd_val[0, i] * pd_val[1, i1]) * dx
        assert abs(entries[(1, 2)].eval_float(point) - total) < 1e-5


@pytest.mark.parametrize(
    "d_cols, a_vanishes",
    [
        ([["0", "1 + x1^2", "x1"], ["0", "x1*x3", "1"]], False),
        # det[C | D](0) = 2, so this one checks the normalisation by it
        ([["0", "2 + x2^2", "0"], ["0", "0", "1 + x3^2"]], True),
    ],
)
def test_conditions_match_inverse_projection_for_non_constant_determinant(d_cols, a_vanishes):
    """condition_a / delta^3 and condition_b / delta^2 equal conditions A and
    B of the true P_D, the bottom rows of [C | D]^-1 differentiated by
    central differences, on a 5-per-axis grid."""
    c = Frame.build(3, [[_p("1", X3), _p("0", X3), _p("0", X3)]], check_grid(3))
    d = Frame.build(3, [[_p(t, X3) for t in col] for col in d_cols], check_grid(3))
    pair = build_projections(c, d, flat_connection(3, 1))
    assert pair.delta.constant_term == 1 and not pair.delta.is_constant()
    x_field = (_p("-x1", X3), _p("-x2 + x1*x3", X3), _p("-x3", X3))
    a_entries = condition_a(pair.p_d, pair.delta)
    b_entries = condition_b(pair.p_d, x_field)

    def true_pd(x):
        return np.linalg.inv(np.hstack([c.as_matrix().at(x), d.as_matrix().at(x)]))[1:, :]

    h = 1e-5
    worst_a = worst_b = 0.0
    for x in default_grid(3, per_axis=5).points:
        delta = pair.delta.eval_float(x)
        pd_val = true_pd(x)
        dpd = [(true_pd(x + h * e) - true_pd(x - h * e)) / (2 * h) for e in np.eye(3)]
        jac = [[x_field[i1].diff(i).eval_float(x) for i1 in range(3)] for i in range(3)]
        for i1 in range(3):
            want = sum(pd_val[0, i] * dpd[i][1, i1] - pd_val[1, i] * dpd[i][0, i1] for i in range(3))
            got = a_entries[(1, 2, i1 + 1)].eval_float(x) / delta**3
            assert abs(got - want) < 1e-8
            worst_a = max(worst_a, abs(want))
        want = sum(
            (pd_val[1, i] * pd_val[0, i1] - pd_val[0, i] * pd_val[1, i1]) * jac[i][i1]
            for i in range(3)
            for i1 in range(3)
        )
        got = b_entries[(1, 2)].eval_float(x) / delta**2
        assert abs(got - want) < 1e-8
        worst_b = max(worst_b, abs(want))
    assert worst_b > 1e-3
    assert (worst_a < 1e-8) == a_vanishes


# -- pointwise consistency ------------------------------------------------------


def test_pointwise_consistency_ex_ps():
    _, _, _, _, rs = build_pipeline("ex_ps")
    report = pointwise_consistency(rs, check_points(2))
    assert report.consistent
    assert report.worst_gap < 1e-9


def test_pointwise_consistency_ex_di():
    _, _, _, _, rs = build_pipeline("ex_di")
    report = pointwise_consistency(rs, check_points(2))
    assert not report.consistent
    ok, gap = consistency_gap_at(rs, [1.0, 0.0])
    assert not ok
    assert abs(gap - 2.0) <= 1e-9
    assert any(point == (1.0, 0.0) or point == [1.0, 0.0] for point, _ in report.failures)
    assert all(type(v) is float for point, _ in report.failures for v in point)
    assert all(type(v) is float for v in report.worst_point)


def test_pointwise_consistency_ex_fa():
    _, _, _, _, rs = build_pipeline("ex_fa")
    report = pointwise_consistency(rs, check_points(2))
    assert report.consistent


def _system_on_grid(case):
    """The residual system of a fixture or a seed-7 workload instance, and its check grid."""
    spec = gen.instance(case, 7, 0).spec if case in gen.WORKLOADS else cli.load_spec(cli.fixture_path(case))
    state = cli.RunState(cli.build_problem(spec))
    cli.stage_quotient(state)
    return ResidualSystem(cli.stage_geometry(state), cli.stage_target(state).x_field), state.grid.points


@pytest.mark.parametrize("case", ["ex_ps", "ex_di", "ex_fa", "ex_curv", *gen.WORKLOADS])
def test_stacked_consistency_matches_the_per_point_reference(case):
    rs, points = _system_on_grid(case)
    expected = [quotient_gap(aug) for aug in quotient_rows(rs, points)]
    worst_gap, worst_point = 0.0, None
    for point, (_, gap) in zip(points, expected):
        if gap > worst_gap:
            worst_gap, worst_point = gap, tuple(point.tolist())
    failures = [(tuple(point.tolist()), float.hex(gap)) for point, (ok, gap) in zip(points, expected) if not ok]
    report = pointwise_consistency(rs, points)
    assert [(point, float.hex(gap)) for point, gap in report.failures] == failures
    assert (float.hex(report.worst_gap), report.worst_point) == (float.hex(worst_gap), worst_point)
    assert report.consistent == (not failures)
    stacked = [consistency_gap(m_mat, b)[0] for m_mat, b in zip(*stacked_system(rs, points))]
    assert stacked == [ok for ok, _ in expected]


@st.composite
def _consistency_systems(draw):
    """A residual system with m <= 4 on a grid of 6 points per axis: a constant-rank C, gamma
    and X with small integer polynomial entries, and an automatic or a user complement.  Half
    of the entries carry a factor x_i^2 - 1/25, which is exactly zero on the grid plane
    x_i = +-0.2 but evaluates to roundoff there, and half of the connections are flat, so that
    a row of A can be zero up to roundoff."""
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
    return ResidualSystem(build_projections(c, d, conn), tuple(poly() for _ in range(m))), grid.points


@given(_consistency_systems())
def test_quotient_consistency_agrees_with_the_stacked_system(case):
    """Where [C | D] is invertible, M y = b is solvable exactly when A a = -beta is."""
    rs, points = case
    failing = {point for point, _ in pointwise_consistency(rs, points).failures}
    stacked = [consistency_gap(m_mat, b)[0] for m_mat, b in zip(*stacked_system(rs, points))]
    assert stacked == [tuple(point) not in failing for point in points.tolist()]


@pytest.mark.parametrize("case", ["ex_di", "ex_curv"])
def test_gap_matches_a_least_squares_solve_where_the_rank_is_clear(case):
    """Away from the rank cutoff, the gap at the numeric rank is the plain least-squares gap."""
    rs, points = _system_on_grid(case)
    for aug in quotient_rows(rs, points):
        a, y = aug[:, :-1], aug[:, -1]
        solution, *_ = np.linalg.lstsq(a, y, rcond=None)
        assert abs(quotient_gap(aug)[1] - np.abs(a @ solution - y).sum()) <= 1e-12


def _rs_from_c_x(c_cols, x_texts, names, n):
    """Residual system for the control columns C (texts), the target X and the flat connection."""
    return _rs_from_pd_x(None, x_texts, names, [[_p(t, names) for t in col] for col in c_cols], n)[0]


def test_a_row_that_is_zero_up_to_roundoff_is_inconsistent_with_a_nonzero_beta():
    """C = (x1^2 - 1/25, 1) and X = (1, 0) give A = x1^2 - 1/25 and beta = 1.  At x1 = +-0.2, A is
    exactly zero but evaluates to about 7e-18: scaled by |P_VM column| * |C| = 1 it stays below the
    cutoff, so the point fails, as the stacked system says."""
    rs = _rs_from_c_x([["x1^2 - 1/25", "1"]], ["1", "0"], X2, n=1)
    points = default_grid(2, 6).points
    assert 0.0 < abs(quotient_rows(rs, [0.2, 0.0])[0, 0]) < 1e-16
    report = pointwise_consistency(rs, points)
    assert [point for point, _ in report.failures] == [tuple(p) for p in points.tolist() if abs(p[0]) == 0.2]
    stacked = [consistency_gap(m_mat, b)[0] for m_mat, b in zip(*stacked_system(rs, points))]
    assert stacked == [abs(p[0]) != 0.2 for p in points.tolist()]


def test_near_singular_m_reports_the_gap_at_its_numeric_rank():
    """A = P_VM^T C = [[1, 1e-12], [1, 0]] has numeric rank 1, and beta = (1, 0) lies off its
    column at that rank: a full-rank least-squares solve would report a gap of roundoff for a
    failing point.  Each row is divided by |P_VM column| * |C|_F = sqrt(3), so the gap at rank 1,
    which is 1 on the unscaled rows, reads 1/sqrt(3)."""
    rs = _rs_from_c_x([["1", "1", "0"], ["1/1000000000000", "0", "1"]], ["1", "0", "0"], X3, n=2)
    points = check_points(3)
    aug = quotient_rows(rs, points) * np.sqrt(3.0)
    assert np.allclose(aug, np.broadcast_to([[1.0, 1e-12, 1.0], [1.0, 0.0, 0.0]], aug.shape), rtol=1e-15, atol=0)
    report = pointwise_consistency(rs, points)
    assert [point for point, _ in report.failures] == [tuple(point) for point in points.tolist()]
    assert all(abs(gap - 3**-0.5) <= 1e-12 for _, gap in report.failures)
    assert abs(report.worst_gap - 3**-0.5) <= 1e-12


@pytest.mark.parametrize("coeff", ["10000000000", "1" + "0" * 20])
def test_large_right_hand_side_is_consistent_in_the_per_point_reference(coeff):
    """[A | beta] and [M | b] have their long rows shrunk to unit length, so a huge right-hand side
    does not drown the system."""
    _, _, _, _, rs = build_pipeline("ex_ps", f0=["0", f"-x2 + {coeff}*x2^3"])
    points = check_points(2)
    assert all(consistency_gap(m_mat, b)[0] for m_mat, b in zip(*stacked_system(rs, points)))
    assert all(quotient_gap(aug)[0] for aug in quotient_rows(rs, points))
    assert pointwise_consistency(rs, points).consistent


def test_vanishing_row_with_nonzero_rhs_is_inconsistent():
    """At the origin the A row is [10^-170, x1^2 + x2^2 + x3^2] = [10^-170, 0], whose squared
    norm underflows to zero, while its right-hand side beta = 1 does not; divided by
    |P_VM column| * |C|_F = sqrt(2), the row stays below the cutoff and beta stays 1/sqrt(2)."""
    rs = _rs_from_c_x([["1/1" + "0" * 170, "1", "0"], ["x1^2 + x2^2 + x3^2", "0", "1"]], ["1", "0", "0"], X3, n=2)
    origin = [0.0, 0.0, 0.0]
    aug = quotient_rows(rs, origin)
    assert np.allclose(aug[0] * np.sqrt(2.0), [1e-170, 0.0, 1.0], rtol=1e-15, atol=0)
    report = pointwise_consistency(rs, check_points(3))
    assert [point for point, _ in report.failures] == [tuple(origin)]
    assert not quotient_gap(aug)[0]


# -- symbol dimensions ----------------------------------------------------------


def test_symbol_dims_ex_ps():
    _, _, pair, _, _ = build_pipeline("ex_ps")
    dims = symbol_dims(pair.c_frame, pair.p_vm, [0.0, 0.0])
    assert (dims.dim_g1, dims.dim_g2) == (0, 0)
    assert dims.quasi_regular


def test_symbol_dims_ex_fa():
    _, _, pair, _, _ = build_pipeline("ex_fa")
    dims = symbol_dims(pair.c_frame, pair.p_vm, [0.0, 0.0])
    assert (dims.dim_g1, dims.dim_g2) == (1, 1)
    assert dims.quasi_regular
    assert dims.permutation == (2, 1)  # the second coordinate must lead


def test_symbol_dims_zero_control():
    frame = Frame(2, ())
    dims = symbol_dims(frame, build_p_vm(flat_connection(2, 1)), [0.0, 0.0])
    assert (dims.dim_g1, dims.dim_g2) == (0, 0)
    assert dims.quasi_regular


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
    problem, _, _, _, rs = build_pipeline("ex_ps")
    rng = np.random.default_rng(5)
    for _ in range(5):
        point = rng.uniform(-1, 1, size=2)
        for _ in range(20):
            jet = consistent_jet(rs, point, rng)
            g_map, h_map = curvature_map_eval(rs, problem.conn, point, jet)
            assert all(value == 0.0 for value in g_map.values())
            assert all(value == 0.0 for value in h_map.values())


def test_curvature_map_b_term_reference():
    names = X3
    rs, conn = _rs_from_pd_x(
        [["1", "0", "0"], ["0", "1", "0"]],
        ["x2", "0", "0"],
        names,
        c_cols=[[_p("0", names), _p("0", names), _p("1", names)]],
        n=1,
    )
    point = [0.3, 0.0, 0.7]
    jet = [p.eval_float(point) for p in rs.x_field]
    g_map, h_map = curvature_map_eval(rs, conn, point, jet)
    assert abs(g_map[(1, 2)] - 1.0) < 1e-12
    assert h_map == {}


def test_curvature_map_flat_connection_h_zero():
    """With a flat connection the H coefficients are identically zero polys."""

    _, _, _, _, rs = build_pipeline("ex_curv")
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
    rs, conn = _rs_from_pd_x(
        [["0", "1", "0"], ["0", "0", "1"]],
        ["0", "x2*x3", "1/2*x2^2"],
        names,
        c_cols=[[_p("1", names), _p("0", names), _p("0", names)]],
        n=1,
    )
    a_entries = condition_a(rs.p_d, rs.delta)
    b_entries = condition_b(rs.p_d, rs.x_field)
    assert all(v.is_zero() for v in a_entries.values())
    assert all(v.is_zero() for v in b_entries.values())
    rng = np.random.default_rng(13)
    for _ in range(10):
        point = rng.uniform(-1, 1, size=3)
        jet = consistent_jet(rs, point, rng)
        g_map, h_map = curvature_map_eval(rs, conn, point, jet)
        assert g_map[(1, 2)] == 0.0
        assert h_map == {}


def test_curvature_map_rejects_inconsistent_jet():
    problem, _, _, _, rs = build_pipeline("ex_ps")
    with pytest.raises(InconsistentJetError):
        curvature_map_eval(rs, problem.conn, [1.0, 1.0], [5.0, 5.0])


# -- full check -------------------------------------------------------------------


def test_full_check_ex_ps():
    problem, _, _, _, rs = build_pipeline("ex_ps")
    report = full_check(rs, problem.conn, check_points(problem.sys.m))
    assert report.liftable
    assert report.verdict == "LIFTABLE"


def test_full_check_ex_di():
    problem, _, _, _, rs = build_pipeline("ex_di")
    report = full_check(rs, problem.conn, check_points(problem.sys.m))
    assert not report.liftable
    assert report.reasons == ["consistency"]


def test_full_check_ex_curv():
    problem, _, _, _, rs = build_pipeline("ex_curv")
    report = full_check(rs, problem.conn, check_points(problem.sys.m))
    assert not report.liftable
    assert "flatness" in report.reasons
    assert report.flat_offenders[(3, 1, 2)] == Poly.const(3, -1)


def test_full_check_non_constant_determinant():
    c = Frame.build(2, [[_p("1", X2), _p("0", X2)]], check_grid(2))
    d = complement_frame(c, user_d=[[_p("0", X2), _p("1 + 1/2*x1^2", X2)]], grid=check_grid(2))
    conn = flat_connection(2, 1)
    pair = build_projections(c, d, conn)
    assert pair.delta == _p("1 + 1/2*x1^2", X2)
    rs = ResidualSystem(pair, (_p("-2*x1", X2), _p("x2", X2)))
    report = full_check(rs, conn, check_points(2))
    assert report.cond_a and report.cond_b
    assert report.consistency.consistent
