"""The lift by the graded Euler operator, the substitution rows it replaced as an oracle, and candidate validation."""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import build_pipeline, pipeline_of, target_field
from hypothesis import example, given
from hypothesis import strategies as st
from lift_oracle import (
    EliminationSystem,
    InfeasibleError,
    SubstitutionSystem,
    dense_reference_system,
    dense_substitution_rows,
    solve_by_elimination,
    solve_by_substitution,
    solve_exact,
    substitution_rows,
)

from liftbench import gen
from liftlyap import cli
from liftlyap.integrability import graph_form, residual_psi
from liftlyap.lift import (
    SPHERE_DIRECTIONS,
    SPHERE_RADII,
    SPHERE_SEED,
    JetSolution,
    assemble_lift_system,
    assemble_vstar,
    lift_coefficients,
    monomials_up_to,
    solve_jets,
    sphere_probes,
)
from liftlyap.parsing import parse_poly
from liftlyap.poly import Poly, PolyMatrix, lie_derivative
from liftlyap.sysmodel import HESSIAN_EIG_TOL, hessian_at_origin

X2 = ["x1", "x2"]
X3 = ["x1", "x2", "x3"]


def _p(text, names=X2):
    return parse_poly(text, names)


def system_residual(system: SubstitutionSystem | EliminationSystem, solution: JetSolution) -> list[Fraction]:
    """Exact residual A @ c - b of the linear system at a solution."""
    values = [solution.coeffs.get(mi, Fraction(0)) for mi in system.unknowns]
    return [sum(v * values[c] for c, v in row) - rv for row, rv in zip(system.rows, system.rhs)]


def test_monomials_up_to_counts():
    mis = monomials_up_to(2, 6, min_degree=2)
    assert len(mis) == 28 - 1 - 2  # all of degree <= 6 minus constant minus linears
    assert all(2 <= sum(mi) <= 6 for mi in mis)


def _lifted(name, order):
    """The problem, residual system and solved jet of a bundled example."""
    problem, rs = build_pipeline(name)
    jet = solve_jets(assemble_lift_system(graph_form(rs), order), rs, fibre_start=problem.qsys.n)
    return problem, rs, jet


def test_assemble_ex_ps_order_two():
    _, rs = build_pipeline("ex_ps")
    form = graph_form(rs)
    assert set(substitution_rows(form, 2).unknowns) == {(2, 0), (1, 1), (0, 2)}
    system = assemble_lift_system(form, 2)
    assert (system.unknowns, system.rows) == ([], [])  # full rank: nothing parametric, nothing to clear
    jet = solve_jets(system, rs, fibre_start=1)
    assert jet.coeffs == {(0, 2): Fraction(1, 2)}
    assert jet.free_seeded == []  # fully forced at this order


def test_assemble_ex_fa_order_two_seeds_free_coefficient():
    *_, jet = _lifted("ex_fa", 2)
    assert jet.coeffs == {(0, 2): Fraction(1, 2)}
    assert (0, 2) in jet.free_seeded  # vertical quadratic was free, seeded to 1/2


def test_solve_ex_ps_order_six_exact():
    *_, jet = _lifted("ex_ps", 6)
    assert jet.coeffs == {(0, 2): Fraction(1, 2)}
    assert jet.polynomial(2) == _p("1/2*x2^2")


def test_solve_ex_di_infeasible():
    """The fixtures that are not liftable have no formal lift: the elimination oracle finds the
    dense residual system inconsistent, at the first row whose prefix is."""
    cases = {
        "ex_di": {2: "vm[1] @ x^(1, 0)", 4: "vm[1] @ x^(1, 0)"},
        "ex_curv": {2: "vm[2] @ x^(0, 1, 0)", 4: "d[2] @ x^(1, 1, 0)", 6: "d[2] @ x^(1, 1, 0)"},
    }
    for name, witnesses in cases.items():
        problem, rs = build_pipeline(name)
        for order, witness in witnesses.items():
            with pytest.raises(InfeasibleError) as err:
                solve_exact(dense_reference_system(rs, order), {})
            assert err.value.witness == witness


def _merged(row):
    """A substitution row with its repeated columns summed: its own entry, then the rest by column, zeros dropped."""
    sums = {}
    for j, v in row[1:]:
        sums[j] = sums.get(j, 0) + v
    return [row[0]] + sorted((j, v) for j, v in sums.items() if v != 0)


def _assert_matches_dense_reference(form, order):
    system = substitution_rows(form, order)
    assert ([_merged(row) for row in system.rows], system.rhs) == dense_substitution_rows(form, order)


def _rank_deficient_spec(f0_3):
    """m = 3, n = 1 and C = (e1, (0, 1, 2 x2)): graph rows e1 and (0, -2 x2, 1), pivots x1 and x3,
    so the parametric monomials are the powers of x2.  With f0 = (0, -x2, f0_3), beta_2 is
    -f0_3 - 2 x2^2 and the lift solves d/dx3 V - 2 x2 d/dx2 V = beta_2 with d/dx1 V = 0."""
    return {
        "name": "rank-deficient-m3",
        "states": ["x1", "x2", "x3"],
        "inputs": ["u1", "u2"],
        "quotient_states": ["y1"],
        "quotient_inputs": ["v1"],
        "f0": ["0", "-x2", f0_3],
        "f": [["1", "0", "0"], ["0", "1", "2*x2"]],
        "g0": ["0"],
        "g": [["1"]],
        "varphi": ["0"],
        "beta": [["1", "0"]],
        "gamma": [["0"], ["0"]],
        "vtilde": "1/2*y1^2",
        "alpha": ["-y1"],
        "options": {"order": 4},
    }


def test_rank_deficient_lift_seeds_the_parametric_vertical_quadratic():
    """beta_2 = x3 + x2 x3^2 has no polynomial lift: the x2 x3^k chain never ends.  So the
    parametric coefficients keep their seeds, x2^2 = 1/2, and the x2^2 x3^k follow from it.  The
    elimination of the dense system made x2^2 a lead column instead, seeded x2^2 x3 with 0 and so
    solved x2^2 = 0: V* had no x2^2 term and the run stopped at NOT_LIFTABLE(definiteness)."""
    problem, rs = pipeline_of(_rank_deficient_spec("-x3 - 2*x2^2 - x2*x3^2"))
    form = graph_form(rs)
    assert form.pivots == (0, 2)
    assert form.rows == PolyMatrix([[_p(t, X3) for t in row] for row in (["1", "0", "0"], ["0", "-2*x2", "1"])])
    assert form.rhs == (Poly.zero(3), _p("x3 + x2*x3^2", X3))
    jet = solve_jets(assemble_lift_system(form, 4), rs, fibre_start=1)
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert jet.free_seeded == [(0, 2, 0), (0, 3, 0), (0, 4, 0)]
    assert jet.coeffs == {(0, 2, 0): half, (0, 0, 2): half, (0, 2, 1): 2, (0, 1, 3): third, (0, 2, 2): 4}
    old = ({(0, 0, 2): half, (0, 1, 3): third}, [(0, 4, 0), (0, 3, 1), (0, 2, 2)])
    assert solve_by_elimination(rs, 4, 1) == old
    report, code = cli.run("lift", problem)
    assert (report["verdict"], code, report["lift"]["definite"]) == ("LIFTED", cli.EXIT_OK, True)
    # the series truncated at order 4 leaves den * (F u - rhs) a term of degree 4
    report, code = cli.run("report", problem)
    assert (report["verdict"], code) == ("LIFTED_BUT_VALIDATION_FAILED(feedback)", cli.EXIT_VALIDATION)
    assert report["feedback"]["error"].endswith("component 3 has term -16 * x^(0, 2, 2)")


def test_rank_deficient_lift_finds_the_polynomial_lift():
    """beta_2 = x3 - x2^2 has the polynomial lift x2^2/4 + x3^2/2, and only x2^2 = 1/4 clears the
    x2^2 x3^k chain at the order, so that parametric coefficient is solved, not seeded."""
    problem, rs = pipeline_of(_rank_deficient_spec("-x3 - x2^2"))
    jet = solve_jets(assemble_lift_system(graph_form(rs), 4), rs, fibre_start=1)
    assert (jet.coeffs, jet.free_seeded) == ({(0, 2, 0): Fraction(1, 4), (0, 0, 2): Fraction(1, 2)}, [(0, 4, 0)])
    report, code = cli.run("report", problem)
    assert (report["verdict"], code) == ("LIFTABLE_AND_VERIFIED", cli.EXIT_OK)


def _fixture_spec(name, **overrides):
    return {**cli.load_spec(cli.fixture_path(name)), **overrides}


def _automatic_complement_spec():
    """The simulate-pointwise shape without d and p_d: delta = (1 + x1^2)(1 + x2^2), and the factors are polynomials."""
    spec = gen.state_actuated(random.Random("auto"), "auto", 4, 2, 4, 40.0).spec
    del spec["d"], spec["p_d"]
    return spec


@pytest.mark.parametrize(
    "spec",
    [
        _fixture_spec("ex_ps"),
        _fixture_spec("ex_di"),
        _fixture_spec("ex_curv"),
        _fixture_spec("ex_fa"),
        _fixture_spec("ex_ps", d=[["0", "1 + 1/2*x1^2"]]),
        _automatic_complement_spec(),
        gen.liftable_flat(random.Random("flat"), "flat", 4, 2, 4).spec,
    ],
    ids=[
        "ex_ps",
        "ex_di",
        "ex_curv",
        "ex_fa",
        "ex_ps-non-constant-d",
        "state-actuated-automatic-d",
        "liftable-flat-4-2-4",
    ],
)
def test_assembly_matches_dense_reference(spec):
    _, rs = pipeline_of(spec)
    form = graph_form(rs)
    for order in (2, 4, 6):
        _assert_matches_dense_reference(form, order)


def _assert_matches_the_substitution(form, order, fibre_start, jet):
    coeffs, free = solve_by_substitution(form, order, fibre_start)
    assert list(jet.coeffs.items()) == list(coeffs.items())  # the insertion order too: it fixes V*'s float bits
    assert jet.free_seeded == free


@pytest.mark.parametrize(
    "spec",
    [
        _fixture_spec("ex_ps"),
        _fixture_spec("ex_fa"),
        _fixture_spec("ex_ps", d=[["0", "1 + 1/2*x1^2"]]),
        _automatic_complement_spec(),
        _rank_deficient_spec("-x3 - 2*x2^2 - x2*x3^2"),
        _rank_deficient_spec("-x3 - x2^2"),
        gen.liftable_flat(random.Random("flat"), "flat", 4, 2, 4).spec,
        gen.instance("lift-exact", 7, 0).spec,
    ],
    ids=[
        "ex_ps",
        "ex_fa",
        "ex_ps-non-constant-d",
        "state-actuated-automatic-d",
        "rank-deficient-series",
        "rank-deficient-polynomial",
        "liftable-flat-4-2-4",
        "lift-exact-7-0",
    ],
)
def test_lift_matches_the_substitution(spec):
    """The graded Euler operator gives the substitution's coefficients, in its insertion order, and
    its seeded parametric monomials."""
    problem, rs = pipeline_of(spec)
    form = graph_form(rs)
    for order in (2, 3, 4, 6):
        jet = solve_jets(assemble_lift_system(form, order), rs, fibre_start=problem.qsys.n)
        _assert_matches_the_substitution(form, order, problem.qsys.n, jet)


def _closed_form(pivots, den, rows, v0):
    """The graph form with rows ``rows`` and beta = G . grad V0, as a namespace."""
    rows = PolyMatrix(rows)
    rhs = tuple(lie_derivative(list(row), v0) for row in rows.entries)
    return SimpleNamespace(pivots=pivots, rows=rows, rhs=rhs, den=den)


@st.composite
def _closed_graph_forms(draw):
    """Graph forms in m <= 4 variables that satisfy conditions A and B by construction.

    One graph row is involutive whatever its entries.  With more, row i is
    d (e_(p_i) + c_i Y) for rational c_i and one field Y on the non-pivot
    coordinates that reads only those: the fields e_(p_i) + c_i Y commute,
    so the rows span an involutive distribution (A).  beta = G . grad V0 for
    a drawn V0 of degree 2..3, so the rows are compatible with it (B).  d(0)
    = 1; d and the other entries have degree <= 2 before the product.
    """
    m = draw(st.integers(1, 4))
    pivots = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
    fibre = [j for j in range(m) if j not in pivots]

    def poly(variables):
        monomials = [mi for mi in monomials_up_to(m, 2) if all(mi[j] == 0 for j in range(m) if j not in variables)]
        return Poly(m, draw(st.dictionaries(st.sampled_from(monomials), _RATIONALS, max_size=3)))

    den = Poly.const(m, 1) + Poly(m, {mi: c for mi, c in poly(range(m)).terms.items() if any(mi)})
    if len(pivots) == 1:
        entries = {f: poly(range(m)) for f in fibre}
        rows = [[den if j == pivots[0] else entries[j] for j in range(m)]]
    else:
        field = {f: poly(fibre) for f in fibre}
        scales = [draw(_RATIONALS) for _ in pivots]
        rows = [
            [den if j == p else Poly.zero(m) if j in pivots else den * field[j] * c for j in range(m)]
            for p, c in zip(pivots, scales)
        ]
    v0 = draw(st.dictionaries(st.sampled_from(monomials_up_to(m, 3, min_degree=2)), _RATIONALS, max_size=4))
    return _closed_form(tuple(pivots), den, rows, Poly(m, v0))


_RANK_DEFICIENT_CURVED = _closed_form(  # pivots x1, x3; d = 1 + x2 - x1 x3; Y = x2^2 d/dx2, c = (2, -1)
    (0, 2),
    _p("1 + x2 - x1*x3", X3),
    [
        [_p("1 + x2 - x1*x3", X3), _p("2*x2^2*(1 + x2 - x1*x3)", X3), Poly.zero(3)],
        [Poly.zero(3), _p("-x2^2*(1 + x2 - x1*x3)", X3), _p("1 + x2 - x1*x3", X3)],
    ],
    _p("x1^2 + x2*x3 + x2^3", X3),
)


@given(_closed_graph_forms(), st.integers(1, 5), st.integers(0, 4))
@example(_RANK_DEFICIENT_CURVED, 5, 1)
def test_lift_matches_the_substitution_on_drawn_closed_forms(form, order, fibre_start):
    """Coefficient for coefficient, insertion order included, and the lift solves the rows through order - 1."""
    m = form.rows.cols
    fibre_start = min(fibre_start, m)
    jet = lift_coefficients(assemble_lift_system(form, order), fibre_start)
    _assert_matches_the_substitution(form, order, fibre_start, jet)
    v = jet.polynomial(m)
    for row, beta in zip(form.rows.entries, form.rhs):
        assert (lie_derivative(list(row), v) - beta).truncate(order - 1).is_zero()


def test_order_one_is_trivially_solvable():
    _, rs = build_pipeline("ex_ps")
    system = assemble_lift_system(graph_form(rs), 1)
    assert system.unknowns == []
    jet = solve_jets(system, rs, fibre_start=1)
    assert jet.coeffs == {}


def test_solution_gives_zero_system_residual():
    """Plugging the solution back into the substitution rows leaves no update."""
    _, rs, jet = _lifted("ex_ps", 6)
    system = substitution_rows(graph_form(rs), 6)
    assert all(v == 0 for v in system_residual(system, jet))
    # and it solves the full residual system that the elimination used to solve
    assert all(v == 0 for v in system_residual(dense_reference_system(rs, 6), jet))


def test_duplicate_columns_add_up_under_substitution():
    """The graph row (x1, 1 - x2) with pivot x2 meets c_(1, 1) twice in the x^(1, 1) row of
    x1 x2^2, through x1 d/dx1 and -x2 d/dx2; the entries 1 and -1 are both kept, and the
    substitution adds them up, as the dense reference does."""
    form = SimpleNamespace(
        pivots=(1,),
        rows=PolyMatrix([[_p("x1"), _p("1 - x2")]]),
        rhs=(_p("x1*x2"),),
        den=_p("1 - x2"),
    )
    system = substitution_rows(form, 3)
    row = system.rows[3]
    assert system.unknowns[row[0][0]] == (1, 2)
    assert (row, system.rhs[3]) == ([(5, 2), (1, 1), (1, -1)], 1)
    assert _merged(row) == [(5, 2)]
    _assert_matches_dense_reference(form, 3)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _graph_forms(draw):
    """Graph rows in m <= 4 variables: d on each row's own pivot and 0 on the other pivots, with
    d(0) = 1; the other entries and beta of degree <= 2, some zero.  Nothing asks them to be integrable."""
    m = draw(st.integers(1, 4))
    pivots = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
    monomials = monomials_up_to(m, 2)

    def poly():
        return Poly(m, draw(st.dictionaries(st.sampled_from(monomials), _RATIONALS, max_size=3)))

    den = Poly.const(m, 1) + Poly(m, {mi: c for mi, c in poly().terms.items() if any(mi)})
    rows = [[den if j == p else Poly.zero(m) if j in pivots else poly() for j in range(m)] for p in pivots]
    return SimpleNamespace(pivots=tuple(pivots), rows=PolyMatrix(rows), rhs=tuple(poly() for _ in pivots), den=den)


@given(_graph_forms(), st.integers(1, 5))
def test_assembly_matches_dense_reference_on_drawn_factors(form, order):
    _assert_matches_dense_reference(form, order)


@given(_graph_forms(), st.integers(2, 5))
def test_rows_read_only_earlier_or_parametric_columns(form, order):
    """Each row solves a new principal column, with the entry alpha_p, from columns solved before or parametric."""
    system = substitution_rows(form, order)
    principal = [j for j, mi in enumerate(system.unknowns) if any(mi[p] for p in form.pivots)]
    solved = set()
    for row in system.rows:
        (j, a), *rest = row
        alpha = system.unknowns[j]
        assert j not in solved and a == alpha[next(p for p in form.pivots if alpha[p])]
        assert all(c in solved or c not in principal for c, _ in rest)
        solved.add(j)
    assert solved == set(principal)


@pytest.mark.parametrize(
    "spec",
    [_fixture_spec("ex_ps"), gen.liftable_flat(random.Random("work"), "work", 5, 2, 6).spec],
    ids=["ex_ps", "liftable-flat-5-2"],
)
def test_assembly_forms_no_polynomial_per_unknown(spec, monkeypatch):
    """The substitution rows and the passes of the graded Euler operator read the terms of the graph
    form and form no Poly product at all."""
    _, rs = pipeline_of(spec)
    form = graph_form(rs)
    calls = []
    multiply = Poly.__mul__

    def counted(self, other):
        calls.append(other)
        return multiply(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)

    def products(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    assert products(residual_psi, rs, Poly.zero(rs.p_vm.rows)) > 0  # the counter sees products
    assert products(substitution_rows, form, 3) == products(substitution_rows, form, 6) == 0
    assert products(assemble_lift_system, form, 3) == products(assemble_lift_system, form, 6) == 0


@st.composite
def _consistent_systems(draw):
    """A sparse system A @ c = A @ x*, plus seeds for some columns; entries are ints or Fractions."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), _RATIONALS, st.integers(-3, 3))
    dense = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8))
    x_star = draw(st.lists(_RATIONALS, min_size=ncols, max_size=ncols))
    rows = [[(j, v) for j, v in enumerate(row) if v != 0] for row in dense]
    rhs = [sum((v * x_star[j] for j, v in row), Fraction(0)) for row in rows]
    labels = [f"row {i}" for i in range(len(rows))]
    system = EliminationSystem([(j,) for j in range(ncols)], rows, rhs, labels)
    seeds = draw(st.dictionaries(st.integers(0, ncols - 1), _RATIONALS))
    return system, seeds


@given(_consistent_systems())
def test_sparse_solve_satisfies_consistent_systems(case):
    """The elimination oracle solves what it is given, with its free columns seeded."""
    system, seeds = case
    values, free_cols = solve_exact(system, seeds)
    coeffs = {mi: v for mi, v in zip(system.unknowns, values) if v != 0}
    assert all(v == 0 for v in system_residual(system, JetSolution(2, coeffs, [])))
    assert all(values[c] == seeds.get(c, 0) for c in free_cols)
    assert all(type(v) is Fraction for v in values)  # int / int would be a float, which Poly refuses


@given(_consistent_systems(), st.data())
def test_sparse_solve_names_the_shortest_infeasible_prefix(case, data):
    system, _ = case
    # a combination of rows before position p with its right-hand side moved
    # off by one: rows up to p are inconsistent, every shorter prefix is not
    p = data.draw(st.integers(0, len(system.rows)))
    weights = data.draw(st.lists(_RATIONALS, min_size=p, max_size=p))
    combined: dict[int, Fraction] = {}
    for w, row in zip(weights, system.rows):
        for j, v in row:
            combined[j] = combined.get(j, Fraction(0)) + w * v
    bad_row = [(j, v) for j, v in sorted(combined.items()) if v != 0]
    bad_rhs = sum((w * b for w, b in zip(weights, system.rhs)), Fraction(1))
    system.rows.insert(p, bad_row)
    system.rhs.insert(p, bad_rhs)
    system.labels.insert(p, "contradiction")
    with pytest.raises(InfeasibleError) as err:
        solve_exact(system, {})
    assert err.value.witness == "contradiction"


def test_degree_cap_guard():
    _, rs = build_pipeline("ex_ps")
    with pytest.raises(ValueError):
        assemble_lift_system(graph_form(rs), 25)


def test_assemble_vstar_ex_ps():
    problem, _, jet = _lifted("ex_ps", 6)
    vstar, diag = assemble_vstar(problem.vtilde.embed(2), jet)
    assert vstar == _p("1/2*x1^2 + 1/2*x2^2")
    assert diag.ok
    np.testing.assert_allclose(diag.hessian_eigenvalues, [1.0, 1.0])
    assert diag.sphere_min > 0


def test_assemble_vstar_negative_direction_witness():
    pullback = _p("1/2*x1^2")
    bad = JetSolution(2, {(0, 2): Fraction(-1)}, [])
    _, diag = assemble_vstar(pullback, bad)
    assert not diag.ok
    assert diag.witness is not None
    # the bad direction is dominated by the second coordinate
    assert abs(diag.witness[1]) > abs(diag.witness[0])


def test_assemble_vstar_flat_vertical_direction_fails():
    pullback = _p("1/2*x1^2")
    empty = JetSolution(2, {}, [])
    _, diag = assemble_vstar(pullback, empty)
    assert not diag.ok  # V* has a flat direction along the fibre


def _definiteness_by_direction(vstar):
    """The sphere probes one direction at a time, the oracle for assemble_vstar's batch: (sphere_min, witness)."""
    m = vstar.nvars
    hess = hessian_at_origin(vstar)
    witness = None
    if np.linalg.eigvalsh(hess).min() <= HESSIAN_EIG_TOL:
        witness = [float(v) for v in np.linalg.eigh(hess)[1][:, 0]]
    rng = np.random.default_rng(SPHERE_SEED)
    sphere_min = float("inf")
    for radius in SPHERE_RADII:
        for _ in range(SPHERE_DIRECTIONS):
            direction = rng.standard_normal(m)
            direction /= np.linalg.norm(direction)
            value = vstar.eval_float(radius * direction)
            if value < sphere_min:
                sphere_min = value
                if value <= 0.0 and witness is None:
                    witness = [float(v) for v in direction]
    return sphere_min, witness


def _assert_probes_match(vstar):
    _, diag = assemble_vstar(vstar, JetSolution(2, {}, []))
    sphere_min, witness = _definiteness_by_direction(vstar)
    assert diag.sphere_min.hex() == sphere_min.hex()
    assert (diag.witness is None) == (witness is None)
    if witness is not None:
        assert [v.hex() for v in diag.witness] == [v.hex() for v in witness]


@pytest.mark.parametrize("name", ["ex_ps", "ex_di", "ex_curv", "ex_fa"])
def test_batched_sphere_probes_match_the_direction_loop_on_fixtures(name):
    problem, rs = build_pipeline(name)
    if name in ("ex_ps", "ex_fa"):
        jet = solve_jets(assemble_lift_system(graph_form(rs), 4), rs, fibre_start=problem.qsys.n)
    else:  # not liftable: the pulled-back quotient function alone, flat along the fibre
        jet = JetSolution(4, {}, [])
    _assert_probes_match(problem.vtilde.embed(problem.sys.m) + jet.polynomial(rs.p_vm.rows))


@pytest.mark.parametrize("m", [1, 2, 5, 7])
def test_sphere_probes_are_built_once_read_only_and_unchanged(m):
    """The probes depend on m alone: built once per m, read-only, and bit for bit one
    direction at a time, each over np.linalg.norm, times its radius."""
    directions, probes = sphere_probes(m)
    assert sphere_probes(m) == (directions, probes) and sphere_probes(m)[1] is probes
    rng = np.random.default_rng(SPHERE_SEED)
    for k, radius in enumerate(np.repeat(SPHERE_RADII, SPHERE_DIRECTIONS)):
        direction = rng.standard_normal(m)
        direction /= np.linalg.norm(direction)
        assert directions[k].tobytes() == direction.tobytes()
        assert probes[k].tobytes() == (radius * direction).tobytes()
    assert len(probes) == k + 1
    for array in (directions, probes):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0


@st.composite
def _quadratic_plus_cubic(draw):
    m = draw(st.integers(1, 5))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    terms = draw(st.dictionaries(st.sampled_from(monomials_up_to(m, 3, min_degree=2)), coeffs, max_size=8))
    return Poly(m, terms)


@given(_quadratic_plus_cubic())
@example(_p("x1^2 + x2^2 - 4*x1^3 - 4*x2^3"))  # a positive Hessian, so the witness is a probe
def test_batched_sphere_probes_match_the_direction_loop(vstar):
    _assert_probes_match(vstar)


def test_target_decrease_ex_ps():
    """Along the target dynamics, V* decreases at the composite quadratic rate."""
    problem, rs, jet = _lifted("ex_ps", 6)
    vstar, _ = assemble_vstar(problem.vtilde.embed(2), jet)
    sigma = target_field(problem.sys, rs, jet.polynomial(2))
    assert sigma == [_p("-2*x1"), _p("-x2")]
    assert lie_derivative(sigma, vstar) == _p("-2*x1^2 - x2^2")
