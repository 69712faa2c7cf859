"""Frames, complements, projections, connections, and curvature."""

import random
from fractions import Fraction

import numpy as np
import pytest

from liftlyap.geometry import (
    EhresmannConnection,
    Frame,
    FrameRankError,
    ann_horizontal_basis,
    build_p_vm,
    build_projections,
    complement_frame,
    control_distribution,
    curvature_components,
    default_grid,
    horizontal_frame,
    horizontal_lift,
)
from liftlyap.parsing import parse_poly
from liftlyap.poly import Poly

X2 = ["x1", "x2"]
X3 = ["x1", "x2", "x3"]


class _Sys:
    def __init__(self, m, fields):
        self.m = m
        self.f = fields


def _p(text, names):
    return parse_poly(text, names)


def test_default_grid_contains_origin():
    grid = default_grid(2)
    assert (Fraction(0), Fraction(0)) in grid
    assert len(grid) == 9
    assert all(len(pt) == 2 for pt in grid)
    with pytest.raises(ValueError):
        default_grid(2, per_axis=1)


def test_control_distribution_single_column():
    sys = _Sys(2, [[_p("1", X2), _p("0", X2)]])
    frame = control_distribution(sys)
    assert frame.rank == 1
    assert frame.fields[0][0] == Poly.const(2, 1)


def test_control_distribution_full_tangent():
    sys = _Sys(2, [[_p("1", X2), _p("0", X2)], [_p("0", X2), _p("1", X2)]])
    assert control_distribution(sys).rank == 2


def test_control_distribution_rank_deficient():
    # columns (1,0) and (x1,0): 2x2 determinant is identically zero
    sys = _Sys(2, [[_p("1", X2), _p("0", X2)], [_p("x1", X2), _p("0", X2)]])
    with pytest.raises(FrameRankError):
        control_distribution(sys)


def test_complement_coordinate_search():
    c = Frame.build(2, [[_p("1", X2), _p("0", X2)]])
    d = complement_frame(c)
    assert d.rank == 1
    assert d.fields[0][1] == Poly.const(2, 1)  # picks d/dx2
    pair = build_projections(c, d, EhresmannConnection.flat(2, 1))
    assert pair.delta == Poly.const(2, 1)
    assert pair.p_d.row(0) == [Poly.zero(2), Poly.const(2, 1)]  # P_D = [0 1]


def test_complement_empty_when_controls_span():
    c = Frame.build(2, [[_p("1", X2), _p("0", X2)], [_p("0", X2), _p("1", X2)]])
    d = complement_frame(c)
    assert d.rank == 0
    pair = build_projections(c, d, EhresmannConnection.flat(2, 1))
    assert pair.p_d.rows == 0


def test_projection_from_user_complement():
    # C = {(1, x1)}, D = {(0, 1)}: det [C|D] = 1, projection row (-x1, 1)
    c = Frame.build(2, [[_p("1", X2), _p("x1", X2)]])
    d = complement_frame(c, user_d=[[_p("0", X2), _p("1", X2)]])
    pair = build_projections(c, d, EhresmannConnection.flat(2, 1))
    assert pair.delta == Poly.const(2, 1)
    assert pair.p_d.row(0) == [_p("-x1", X2), _p("1", X2)]


def test_projection_invariants_exact():
    rng = random.Random(2)
    c = Frame.build(3, [[_p("1", X3), _p("x1", X3), _p("0", X3)]])
    d = complement_frame(c)
    pair = build_projections(c, d, EhresmannConnection.flat(3, 1))
    c_cols = c.as_matrix()
    d_cols = d.as_matrix()
    zero_block = pair.p_d @ c_cols
    ident_block = pair.p_d @ d_cols
    for i in range(zero_block.rows):
        for j in range(zero_block.cols):
            assert zero_block.entry(i, j).is_zero()
    for i in range(ident_block.rows):
        for j in range(ident_block.cols):
            expected = Poly.const(3, 1) if i == j else Poly.zero(3)
            assert ident_block.entry(i, j) == expected


def test_user_complement_singular_rejected():
    c = Frame.build(2, [[_p("1", X2), _p("0", X2)]])
    with pytest.raises(FrameRankError):
        complement_frame(c, user_d=[[_p("1", X2), _p("0", X2)]])


def test_rank_failures_name_the_first_grid_point():
    # the witness is the first failing point in grid order, printed as plain floats
    with pytest.raises(FrameRankError) as err:
        Frame.build(2, [[_p("x1", X2), _p("0", X2)]])
    assert str(err.value) == "frame drops rank at grid point (0.0, -1.0)"
    c = Frame.build(2, [[_p("1", X2), _p("0", X2)]])
    with pytest.raises(FrameRankError) as err:
        complement_frame(c, user_d=[[_p("1", X2), _p("x2", X2)]])
    assert str(err.value) == "[C | D] is singular at grid point (-1.0, 0.0)"


def test_build_p_vm_flat():
    p_vm = build_p_vm(EhresmannConnection.flat(2, 1))
    assert p_vm.col(0) == [Poly.const(2, 1), Poly.zero(2)]


def test_build_p_vm_with_gamma():
    conn = EhresmannConnection(3, 2, [[_p("0", X3), _p("x1", X3)]])
    p_vm = build_p_vm(conn)
    assert p_vm.rows == 3 and p_vm.cols == 2
    assert p_vm.row(0) == [Poly.const(3, 1), Poly.zero(3)]
    assert p_vm.row(1) == [Poly.zero(3), Poly.const(3, 1)]
    assert p_vm.row(2) == [Poly.zero(3), _p("x1", X3)]


def test_connection_requires_fibre():
    with pytest.raises(ValueError):
        EhresmannConnection(2, 2, [])


def test_horizontal_lift_flat():
    conn = EhresmannConnection.flat(2, 1)
    lifted = horizontal_lift(conn, [parse_poly("-y1", ["y1"])])
    assert lifted == [_p("-x1", X2), Poly.zero(2)]


def test_horizontal_lift_with_gamma():
    conn = EhresmannConnection(3, 2, [[_p("0", X3), _p("x1", X3)]])
    lifted = horizontal_lift(conn, [parse_poly("0", ["y1", "y2"]), parse_poly("1", ["y1", "y2"])])
    assert lifted == [Poly.zero(3), Poly.const(3, 1), _p("x1", X3)]


def test_horizontal_lift_zero():
    conn = EhresmannConnection.flat(3, 2)
    lifted = horizontal_lift(conn, [Poly.zero(2), Poly.zero(2)])
    assert all(comp.is_zero() for comp in lifted)


def test_horizontal_lift_linear_over_scalars():
    rng = random.Random(17)
    conn = EhresmannConnection(3, 2, [[_p("x2", X3), _p("x1*x3", X3)]])
    for _ in range(10):
        w1 = [Poly(2, {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3))}) for _ in range(2)]
        w2 = [Poly(2, {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3))}) for _ in range(2)]
        a = Poly(2, {(1, 1): Fraction(2)})
        combo = [a * w1[q] + w2[q] for q in range(2)]
        left = horizontal_lift(conn, combo)
        lift1 = horizontal_lift(conn, w1)
        lift2 = horizontal_lift(conn, w2)
        a_emb = a.embed(3)
        right = [a_emb * lift1[i] + lift2[i] for i in range(3)]
        assert left == right


def test_curvature_constant_gamma_is_flat():
    conn = EhresmannConnection(3, 2, [[Poly.const(3, 2), Poly.const(3, -5)]])
    comps = curvature_components(conn)
    assert comps and all(val.is_zero() for val in comps.values())


def test_curvature_base_only_single_base_coordinate():
    # n = 1: no base index pairs, so the component map is empty
    conn = EhresmannConnection(3, 1, [[_p("x1", X3)], [_p("x1^2", X3)]])
    assert curvature_components(conn) == {}


def _bracket_vertical_fd(conn, point, q1, q2, h=1e-5):
    """Finite-difference vertical part of [h_q1, h_q2] under the connection."""
    frame = horizontal_frame(conn)

    def field(q, x):
        return np.array([comp.eval_float(x) for comp in frame[q]])

    m = conn.m
    point = np.asarray(point, dtype=float)
    bracket = np.zeros(m)
    for j in range(m):
        shift = np.zeros(m)
        shift[j] = h
        d2 = (field(q2, point + shift) - field(q2, point - shift)) / (2 * h)
        d1 = (field(q1, point + shift) - field(q1, point - shift)) / (2 * h)
        bracket += field(q1, point)[j] * d2 - field(q2, point)[j] * d1
    # connection-vertical part: w^p - sum_q gamma^p_q w^q, per fibre slot p
    n = conn.n
    vertical = np.zeros(m - n)
    for p in range(m - n):
        vertical[p] = bracket[n + p]
        for q in range(n):
            vertical[p] -= conn.gamma[p][q].eval_float(point) * bracket[q]
    return vertical


def test_curvature_reference_value_and_oracle():
    conn = EhresmannConnection(3, 2, [[_p("0", X3), _p("x1", X3)]])
    comps = curvature_components(conn)
    assert comps[(3, 1, 2)] == Poly.const(3, -1)
    # oracle: curvature component is minus the vertical part of the bracket
    vertical = _bracket_vertical_fd(conn, [0.0, 0.0, 0.0], 0, 1)
    assert abs(comps[(3, 1, 2)].eval_float([0.0, 0.0, 0.0]) - (-vertical[0])) < 1e-6


def test_curvature_oracle_random_connection():
    conn = EhresmannConnection(3, 2, [[_p("x2*x3", X3), _p("x1^2", X3)]])
    comps = curvature_components(conn)
    rng = random.Random(23)
    for _ in range(5):
        point = [rng.uniform(-0.5, 0.5) for _ in range(3)]
        vertical = _bracket_vertical_fd(conn, point, 0, 1)
        assert abs(comps[(3, 1, 2)].eval_float(point) - (-vertical[0])) < 1e-5


def test_ann_basis_kills_horizontal_frame_exactly():
    conn = EhresmannConnection(4, 2, [
        [_p("x1*x2", ["x1", "x2", "x3", "x4"]), _p("x3", ["x1", "x2", "x3", "x4"])],
        [_p("x4^2", ["x1", "x2", "x3", "x4"]), _p("1", ["x1", "x2", "x3", "x4"])],
    ])
    frame = horizontal_frame(conn)
    for omega in ann_horizontal_basis(conn):
        for h_q in frame:
            pairing = Poly.zero(4)
            for i in range(4):
                pairing = pairing + omega[i] * h_q[i]
            assert pairing.is_zero()
