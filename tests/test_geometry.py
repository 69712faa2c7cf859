"""Frames, complements, projections, connections, and curvature."""

import itertools
import math
import random
from fractions import Fraction

import frame_oracle
import numpy as np
import pytest
from conftest import build_pipeline, check_grid, flat_connection, projection_delta, run_frames
from hypothesis import example, given
from hypothesis import strategies as st
from liftbench import gen
from matrix_oracle import cofactor_adjugate, cofactor_det

from liftlyap import cli, geometry
from liftlyap.geometry import (
    ComplementError,
    EhresmannConnection,
    Frame,
    FrameRankError,
    Lattice,
    build_p_vm,
    build_projections,
    complement_frame,
    control_distribution,
    curvature_components,
    default_grid,
    first_nonnegative,
    horizontal_lift,
)
from liftlyap.parsing import parse_poly
from liftlyap.poly import Poly, poly_sum

X2 = ["x1", "x2"]
X3 = ["x1", "x2", "x3"]


class _Sys:
    def __init__(self, m, fields):
        self.m = m
        self.f = fields


def _p(text, names):
    return parse_poly(text, names)


def horizontal_frame(conn: EhresmannConnection) -> list[list[Poly]]:
    """The n horizontal frame fields h_q = d/dx^q + sum_p gamma^p_q d/dx^p."""
    p_vm = build_p_vm(conn)
    return [p_vm.col(q) for q in range(conn.n)]


def ann_horizontal_basis(conn: EhresmannConnection) -> list[list[Poly]]:
    """Covector basis of ann(HM): dx^p - sum_q gamma^p_q dx^q for each fibre p."""
    m, n = conn.m, conn.n
    basis = []
    for p in range(m - n):
        omega = [Poly.zero(m) for _ in range(m)]
        omega[n + p] = Poly.const(m, 1)
        for q in range(n):
            omega[q] = -conn.gamma[p][q]
        basis.append(omega)
    return basis


def _fraction_grid(m: int, per_axis: int) -> list[tuple[Fraction, ...]]:
    """The check grid as Fraction points: the product of per_axis values over [-1, 1], then the origin if missing."""
    values = [Fraction(2 * i, per_axis - 1) - 1 for i in range(per_axis)]
    points = list(itertools.product(values, repeat=m))
    origin = (Fraction(0),) * m
    if origin not in points:
        points.append(origin)
    return points


def _lattice(grid: list[tuple[Fraction, ...]]) -> Lattice:
    """A Fraction grid as numerators over the lcm of its denominators."""
    q = math.lcm(*(v.denominator for point in grid for v in point))
    numerators = [[v.numerator * (q // v.denominator) for v in point] for point in grid]
    numerators = np.array(numerators, dtype=np.int64)
    return Lattice(numerators, q, numerators / q)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("per_axis", range(2, 9))
def test_default_grid_matches_the_fraction_reference(m, per_axis):
    reference = _fraction_grid(m, per_axis)
    lattice = default_grid(m, per_axis)
    assert len(lattice) == len(reference)
    assert [lattice.exact(i) for i in range(len(lattice))] == reference  # product order, origin last if appended
    assert lattice.points.tobytes() == np.array(reference, dtype=float).tobytes()
    assert sum(not any(point) for point in lattice.points.tolist()) == 1
    squares = -poly_sum((Poly.variable(m, i) ** 2 for i in range(m)), m)  # 0 only at the origin, which is no witness
    shifted = Poly.variable(m, m - 1) - Fraction(1, 3)  # its denominator is not the lattice's
    for p in (shifted, squares, squares + Poly.variable(m, m - 1) ** 4, Poly.zero(m)):
        assert first_nonnegative(p, lattice) == _first_nonnegative_reference(p, reference)
    assert first_nonnegative(squares, lattice) is None


def test_default_grid_contains_origin():
    grid = check_grid(2)
    assert (Fraction(0), Fraction(0)) in [grid.exact(i) for i in range(len(grid))]
    assert len(grid) == 9
    assert grid.points.shape == (9, 2)
    with pytest.raises(ValueError):
        default_grid(2, per_axis=1)
    with pytest.raises(ValueError, match="100000"):
        default_grid(17, per_axis=2)  # 131072 points: above the cap, small enough to build if unchecked


def test_default_grid_is_built_once_and_read_only():
    """The grid is shared by every caller with the same shape, so a write into it raises."""
    grid = default_grid(3, 4)
    assert default_grid(3, 4) is grid and default_grid(3, 5) is not grid
    for array in (grid.numerators, grid.points):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0
    assert grid.points[0].tolist() == [-1.0, -1.0, -1.0]


@st.composite
def _lattice_and_variables(draw):
    m = draw(st.integers(1, 5))
    return m, draw(st.integers(2, 6)), tuple(sorted(draw(st.sets(st.integers(0, m - 1)))))


@given(_lattice_and_variables())
@example((3, 3, ()))
@example((3, 4, ()))
@example((3, 5, (0, 1, 2)))
@example((3, 4, (0, 1, 2)))
def test_distinct_rows_give_every_point_on_the_chosen_variables(case):
    m, per_axis, variables = case
    grid = default_grid(m, per_axis)
    rows, index = grid.distinct(variables)
    cols = list(variables)
    assert grid.points[rows][index][:, cols].tobytes() == grid.points[:, cols].tobytes()
    assert sorted(set(index.tolist())) == list(range(len(rows)))
    assert len(rows) == per_axis ** len(variables) + (per_axis % 2 == 0)
    # the combinations in product order, then the origin if it was appended
    combos = [tuple(grid.exact(k)[i] for i in variables) for k in rows.tolist()]
    values = [Fraction(2 * i, per_axis - 1) - 1 for i in range(per_axis)]
    origin = [(Fraction(0),) * len(variables)] if per_axis % 2 == 0 else []
    assert combos == list(itertools.product(values, repeat=len(variables))) + origin


def _first_nonnegative_reference(p: Poly, grid):
    """The sweep before the integer form: one exact Fraction evaluation per point."""
    for index, point in enumerate(grid):
        if any(point) and p.eval(point) >= 0:
            return index
    return None


@st.composite
def _poly_and_grid(draw, coeffs=st.fractions(min_value=-5, max_value=5, max_denominator=6)):
    m = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * m), coeffs, max_size=6))
    if draw(st.booleans()):
        # a negative-definite part, so many sweeps run the whole grid
        for i in range(m):
            unit_square = tuple(2 if j == i else 0 for j in range(m))
            terms[unit_square] = terms.get(unit_square, Fraction(0)) - draw(st.integers(1, 4))
    # 2-5 values per axis with denominators up to 4: halves, thirds and quarters
    axis = st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=4), min_size=2, max_size=5, unique=True)
    grid = list(itertools.product(*[draw(axis) for _ in range(m)]))
    return Poly(m, terms), grid


_huge = st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 7))


@given(st.one_of(_poly_and_grid(), _poly_and_grid(_huge)))  # small coefficients, and ones beyond int64
@example((Poly.zero(2), _fraction_grid(2, 3)))
@example((Poly.const(2, Fraction(1, 3)), _fraction_grid(2, 4)))
@example((_p("-x1^2 - x2^2 + 1/2*x1^3 + 1/3", X2), _fraction_grid(2, 5)))
@example((_p("-x1^2 - x2^2 + 1/2*x1^3", X2), _fraction_grid(2, 5)))
@example((_p("-100000000000000000000*x1^2 - x2^2 + 99999999999999999999*x1^4", X2), _fraction_grid(2, 5)))
@example((_p("-100000000000000000000*x1^2 - 100000000000000000000*x2^2", X2), _fraction_grid(2, 4)))
def test_first_nonnegative_matches_exact_sweep(case):
    p, grid = case
    assert first_nonnegative(p, _lattice(grid)) == _first_nonnegative_reference(p, grid)


class _NumpySpy:
    """``geometry``'s numpy, recording the dtype of every ``zeros`` call."""

    def __init__(self):
        self.dtypes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype=float):
        self.dtypes.append(dtype)
        return np.zeros(shape, dtype=dtype)


def _sweep_width(monkeypatch, p: Poly, grid) -> tuple[int | None, list]:
    """first_nonnegative(p, grid) and the dtypes its sums were held in."""
    spy = _NumpySpy()
    monkeypatch.setattr(geometry, "np", spy)
    index = first_nonnegative(p, _lattice(grid))
    monkeypatch.undo()
    return index, spy.dtypes


@pytest.mark.parametrize(("bound", "width"), [(2**63 - 1, np.int64), (2**63, object)])
def test_first_nonnegative_at_the_int64_boundary(monkeypatch, bound, width):
    """B = sum |c'_a| K^|a| is the total itself at the first point off the origin where p >= 0."""
    # K = 3, q = 1: B = 2 * 3^39 + c0, and p(3, 3) = B; at B = 2^63 an int64 sum would wrap to -2^63
    c0 = bound - 2 * 3**39
    p = Poly(2, {(20, 19): Fraction(2), (0, 0): Fraction(c0)})
    grid = [(Fraction(3), Fraction(-3)), (Fraction(0), Fraction(0)), (Fraction(3), Fraction(3))]
    assert [p.eval(point) for point in grid] == [c0 - 2 * 3**39, c0, bound]
    assert _sweep_width(monkeypatch, p, grid) == (2, [width])
    assert _first_nonnegative_reference(p, grid) == 2
    # the same B where K = 3 is |-3| and no numerator is above 1
    mirrored = Poly(1, {(39,): Fraction(-2), (0,): Fraction(c0)})
    assert _sweep_width(monkeypatch, mirrored, [(Fraction(0),), (Fraction(-3),)]) == (1, [width])


@pytest.mark.parametrize(
    ("terms", "values", "width"),
    [
        # q = 999983 * 1000003, near 10^12: p(1/1000003) < 0 by about 2e-11, p(1/999983) = 0
        ({(1,): 1, (0,): Fraction(-1, 999983)}, [-1, Fraction(1, 1000003), Fraction(1, 999983), 1], np.int64),
        (
            {(2,): -1, (3,): Fraction(1, 999983), (0,): Fraction(1, 999983**2)},
            [-1, Fraction(-1, 999983), Fraction(1, 1000003), 1],
            object,
        ),
        # q = 2^15: p(-2^-15) = 0
        ({(4,): -1, (0,): Fraction(1, 2**60)}, [-1, Fraction(-1, 2**15), Fraction(1, 2**15), 1], object),
        ({(2,): -1, (0,): Fraction(1, 2**30)}, [-1, Fraction(-1, 2**15), Fraction(1, 2**15), 1], np.int64),
    ],
)
def test_first_nonnegative_on_a_large_denominator(monkeypatch, terms, values, width):
    p = Poly(1, {mi: Fraction(c) for mi, c in terms.items()})
    grid = [(Fraction(v),) for v in values]
    index, dtypes = _sweep_width(monkeypatch, p, grid)
    assert dtypes == [width]
    assert index == _first_nonnegative_reference(p, grid) is not None


def test_control_distribution_single_column():
    sys = _Sys(2, [[_p("1", X2), _p("0", X2)]])
    frame = control_distribution(sys, check_grid(2))
    assert frame.rank == 1
    assert frame.fields[0][0] == Poly.const(2, 1)


def test_control_distribution_full_tangent():
    sys = _Sys(2, [[_p("1", X2), _p("0", X2)], [_p("0", X2), _p("1", X2)]])
    assert control_distribution(sys, check_grid(2)).rank == 2


def test_control_distribution_rank_deficient():
    # columns (1,0) and (x1,0): 2x2 determinant is identically zero
    sys = _Sys(2, [[_p("1", X2), _p("0", X2)], [_p("x1", X2), _p("0", X2)]])
    with pytest.raises(FrameRankError):
        control_distribution(sys, check_grid(2))


def test_complement_coordinate_search():
    c = Frame.build(2, [[_p("1", X2), _p("0", X2)]], check_grid(2))
    d = complement_frame(c, None, check_grid(2))
    assert d.rank == 1
    assert d.fields[0][1] == Poly.const(2, 1)  # picks d/dx2
    p_d, _ = build_projections(c, d, flat_connection(2, 1))
    assert projection_delta(c, d) == Poly.const(2, 1)
    assert p_d.row(0) == [Poly.zero(2), Poly.const(2, 1)]  # P_D = [0 1]


def test_complement_empty_when_controls_span():
    c = Frame.build(2, [[_p("1", X2), _p("0", X2)], [_p("0", X2), _p("1", X2)]], check_grid(2))
    d = complement_frame(c, None, check_grid(2))
    assert d.rank == 0
    p_d, _ = build_projections(c, d, flat_connection(2, 1))
    assert p_d.rows == 0


def test_projection_from_user_complement():
    # C = {(1, x1)}, D = {(0, 1)}: det [C|D] = 1, projection row (-x1, 1)
    c = Frame.build(2, [[_p("1", X2), _p("x1", X2)]], check_grid(2))
    d = complement_frame(c, user_d=[[_p("0", X2), _p("1", X2)]], grid=check_grid(2))
    p_d, _ = build_projections(c, d, flat_connection(2, 1))
    assert projection_delta(c, d) == Poly.const(2, 1)
    assert p_d.row(0) == [_p("-x1", X2), _p("1", X2)]


def test_constant_projection_is_the_scaled_adjugate():
    """[C | D] with columns (2, 1, 0), (1, 1, 0), (0, 1, 3) is constant with det 3 and an inverse
    that is no permutation: p_d, read off the elimination, is the bottom rows of the cofactor
    adjugate over det [C | D](0) = 3, term for term."""
    c = Frame.build(3, [[_p("2", X3), _p("1", X3), _p("0", X3)]], check_grid(3))
    d = complement_frame(c, [[_p(t, X3) for t in col] for col in (("1", "1", "0"), ("0", "1", "3"))], check_grid(3))
    t = Frame(3, c.fields + d.fields).as_matrix()
    assert cofactor_det(t) == Poly.const(3, 3)
    expected = cofactor_adjugate(t).scale(Fraction(1, 3))
    p_d, _ = build_projections(c, d, flat_connection(3, 1))
    assert [[list(e.terms.items()) for e in row] for row in p_d.entries] == [
        [list(e.terms.items()) for e in expected.row(i)] for i in (1, 2)
    ]
    assert sum(bool(e) for row in expected.entries for e in row) > 3
    assert projection_delta(c, d) == Poly.const(3, 1)


def test_projection_invariants_exact():
    rng = random.Random(2)
    c = Frame.build(3, [[_p("1", X3), _p("x1", X3), _p("0", X3)]], check_grid(3))
    d = complement_frame(c, None, check_grid(3))
    p_d, _ = build_projections(c, d, flat_connection(3, 1))
    c_cols = c.as_matrix()
    d_cols = d.as_matrix()
    zero_block = p_d @ c_cols
    ident_block = p_d @ d_cols
    for i in range(zero_block.rows):
        for j in range(zero_block.cols):
            assert zero_block.entry(i, j).is_zero()
    for i in range(ident_block.rows):
        for j in range(ident_block.cols):
            expected = Poly.const(3, 1) if i == j else Poly.zero(3)
            assert ident_block.entry(i, j) == expected


def test_user_complement_singular_rejected():
    c = Frame.build(2, [[_p("1", X2), _p("0", X2)]], check_grid(2))
    with pytest.raises(FrameRankError):
        complement_frame(c, user_d=[[_p("1", X2), _p("0", X2)]], grid=check_grid(2))


def test_rank_failures_name_the_first_grid_point():
    # the witness is the first failing point in grid order, printed as plain floats
    with pytest.raises(FrameRankError) as err:
        Frame.build(2, [[_p("x1", X2), _p("0", X2)]], check_grid(2))
    assert str(err.value) == "frame drops rank at grid point (0.0, -1.0)"
    c = Frame.build(2, [[_p("1", X2), _p("0", X2)]], check_grid(2))
    with pytest.raises(FrameRankError) as err:
        complement_frame(c, user_d=[[_p("1", X2), _p("x2", X2)]], grid=check_grid(2))
    assert str(err.value) == "[C | D] is singular at grid point (-1.0, 0.0)"


def test_rank_failures_at_the_appended_origin_and_on_constant_frames():
    # C = (x1, x2) vanishes on a 4-per-axis grid only at the origin, its own distinct value, last
    with pytest.raises(FrameRankError) as err:
        Frame.build(2, [[_p("x1", X2), _p("x2", X2)]], default_grid(2, 4))
    assert str(err.value) == "frame drops rank at grid point (0.0, 0.0)"
    # constant C and D: one distinct value, whose failure is reported at the first grid point
    with pytest.raises(FrameRankError) as err:
        build_pipeline("ex_ps", d=[["1", "0"]])
    assert str(err.value) == "[C | D] is singular at grid point (-1.0, -1.0)"


@st.composite
def _frames_on_a_strict_subset(draw, constant=False):
    """C and an automatic or user D on a grid of 2-5 points per axis, with small integer polynomial
    entries in a strict subset of the m <= 4 variables (none when ``constant``); each column may carry
    a unit pivot, so that both full and dropping ranks are drawn."""
    m = draw(st.integers(2, 4))
    variables = set() if constant else draw(st.sets(st.integers(0, m - 1), max_size=m - 1))
    monomials = [
        mi
        for mi in itertools.product(range(3), repeat=m)
        if sum(mi) <= 2 and all(e == 0 or i in variables for i, e in enumerate(mi))
    ]
    term = st.tuples(st.sampled_from(monomials), st.integers(-2, 2))

    def column():
        pivot = draw(st.one_of(st.none(), st.integers(0, m - 1)))
        return [
            poly_sum((Poly.monomial(m, mi, c) for mi, c in draw(st.lists(term, max_size=3))), m)
            + (1 if i == pivot else 0)
            for i in range(m)
        ]

    r = draw(st.integers(1, m))
    c_cols = [column() for _ in range(r)]
    user_d = draw(st.one_of(st.none(), st.integers(max(0, m - r - 1), m - r + 1)))
    if user_d is not None:
        user_d = [column() for _ in range(user_d)]
    return default_grid(m, draw(st.integers(2, 5))), c_cols, user_d


def _outcome(check, *args):
    try:
        return check(*args)
    except (FrameRankError, ComplementError) as exc:
        return type(exc), str(exc)


def _frame_checks_match_the_full_grid_oracle(grid, c_cols, user_d):
    """C's check, then D's, against :mod:`frame_oracle`; returns the last outcome."""
    m = len(c_cols[0])
    c = _outcome(Frame.build, m, c_cols, grid)
    assert c == _outcome(frame_oracle.frame_build, m, c_cols, grid.points)
    if not isinstance(c, Frame):
        return c
    expected = _outcome(frame_oracle.complement_frame, c, user_d, grid.points)
    assert _outcome(complement_frame, c, user_d, grid) == expected
    return expected


@given(_frames_on_a_strict_subset())
def test_projected_frame_checks_match_the_full_grid_oracle(case):
    _frame_checks_match_the_full_grid_oracle(*case)


def _constant_case(per_axis, c_cols, user_d=None):
    m = len(c_cols[0])

    def const(cols):
        return [[Poly.const(m, a) for a in col] for col in cols]

    return default_grid(m, per_axis), const(c_cols), None if user_d is None else const(user_d)


@given(_frames_on_a_strict_subset(constant=True))
@example(_constant_case(3, [[0, 2, 0], [1, 1, 0]]))  # full rank; the automatic complement is e3
@example(_constant_case(4, [[1, 2, 0], [2, 4, 0]]))  # rank drop, on a grid with an appended origin
@example(_constant_case(3, [[1, 0, 0]], [[0, 1, 0], [1, 1, 0]]))  # singular user [C | D]
@example(_constant_case(2, [[1, 1, 0, 0], [0, 0, 1, 1]], [[1, 0, 0, 0], [0, 0, 1, 0]]))  # full-rank user D
def test_constant_frame_checks_match_the_full_grid_oracle(case):
    """Constant frames are decided by one exact elimination at the origin; the outcome is the float
    oracle's, and a failure names the first grid point."""
    grid = case[0]
    outcome = _frame_checks_match_the_full_grid_oracle(*case)
    if isinstance(outcome, tuple) and outcome[0] is FrameRankError:
        assert outcome[1].endswith(f"at grid point {tuple(grid.points[0].tolist())}")


@pytest.mark.parametrize("workload, index", [("obstruct-wide", 2), ("simulate-pointwise", 0)])
def test_frame_checks_rank_one_matrix_per_distinct_value(monkeypatch, workload, index):
    """The work of the frame checks, not their time: constant C and D are decided exactly, with no
    float rank call in the geometry stage, and every rank stack of polynomial ones holds at most
    per_axis ** |support| + 1 matrices, the support being the variables C and D read."""
    state = cli.RunState(cli.build_problem(gen.instance(workload, 7, index).spec))
    c, d = run_frames(state.problem)
    stacks = []
    rank = geometry.numeric_rank

    def recording(a, *args, **kwargs):
        stacks.append(math.prod(np.shape(a)[:-2]))
        return rank(a, *args, **kwargs)

    monkeypatch.setattr(geometry, "numeric_rank", recording)
    cli.stage_geometry(state)
    fields = c.fields + d.fields
    support = {i for col in fields for p in col for mi in p.terms for i, e in enumerate(mi) if e}
    if workload == "obstruct-wide":
        assert not support and stacks == []
        return
    bound = state.problem.options.grid_per_axis ** len(support) + 1
    assert bound < len(state.grid)
    assert stacks and max(stacks) <= bound


def test_build_p_vm_flat():
    p_vm = build_p_vm(flat_connection(2, 1))
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
    conn = flat_connection(2, 1)
    lifted = horizontal_lift(conn, [parse_poly("-y1", ["y1"])])
    assert lifted == [_p("-x1", X2), Poly.zero(2)]


def test_horizontal_lift_with_gamma():
    conn = EhresmannConnection(3, 2, [[_p("0", X3), _p("x1", X3)]])
    lifted = horizontal_lift(conn, [parse_poly("0", ["y1", "y2"]), parse_poly("1", ["y1", "y2"])])
    assert lifted == [Poly.zero(3), Poly.const(3, 1), _p("x1", X3)]


def test_horizontal_lift_zero():
    conn = flat_connection(3, 2)
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
