"""Taylor-coefficient assembly, exact solving, and candidate validation."""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import build_pipeline, pipeline_of, target_field
from hypothesis import example, given
from hypothesis import strategies as st

from liftbench import gen
from liftlyap import cli
from liftlyap.integrability import residual_psi
from liftlyap.lift import (
    SPHERE_DIRECTIONS,
    SPHERE_RADII,
    SPHERE_SEED,
    JetInfeasibleError,
    JetSolution,
    LinearSystem,
    _solve_exact,
    assemble_lift_system,
    assemble_vstar,
    monomials_up_to,
    solve_jets,
)
from liftlyap.parsing import parse_poly
from liftlyap.poly import Poly, PolyMatrix, lie_derivative
from liftlyap.sysmodel import HESSIAN_EIG_TOL, hessian_at_origin

X2 = ["x1", "x2"]


def _p(text, names=X2):
    return parse_poly(text, names)


def system_residual(system: LinearSystem, solution: JetSolution) -> list[Fraction]:
    """Exact residual A @ c - b of the linear system at a solution."""
    values = [solution.coeffs.get(mi, Fraction(0)) for mi in system.unknowns]
    return [sum(v * values[c] for c, v in row) - rv for row, rv in zip(system.rows, system.rhs)]


def test_monomials_up_to_counts():
    mis = monomials_up_to(2, 6, min_degree=2)
    assert len(mis) == 28 - 1 - 2  # all of degree <= 6 minus constant minus linears
    assert all(2 <= sum(mi) <= 6 for mi in mis)


def test_assemble_ex_ps_order_two():
    _, _, _, _, rs = build_pipeline("ex_ps")
    system = assemble_lift_system(rs, 2)
    assert set(system.unknowns) == {(2, 0), (1, 1), (0, 2)}
    jet = solve_jets(system, rs, fibre_start=1)
    assert jet.coeffs == {(0, 2): Fraction(1, 2)}
    assert jet.free_seeded == []  # fully forced at this order


def test_assemble_ex_fa_order_two_seeds_free_coefficient():
    _, _, _, _, rs = build_pipeline("ex_fa")
    system = assemble_lift_system(rs, 2)
    jet = solve_jets(system, rs, fibre_start=1)
    assert jet.coeffs == {(0, 2): Fraction(1, 2)}
    assert (0, 2) in jet.free_seeded  # vertical quadratic was free, seeded to 1/2


def test_solve_ex_ps_order_six_exact():
    _, _, _, _, rs = build_pipeline("ex_ps")
    system = assemble_lift_system(rs, 6)
    jet = solve_jets(system, rs, fibre_start=1)
    assert jet.coeffs == {(0, 2): Fraction(1, 2)}
    assert jet.polynomial(2) == _p("1/2*x2^2")


def test_solve_ex_di_infeasible():
    cases = {
        "ex_di": {2: "vm[1] @ x^(1, 0)", 4: "vm[1] @ x^(1, 0)"},
        "ex_curv": {2: "vm[2] @ x^(0, 1, 0)", 4: "d[2] @ x^(1, 1, 0)", 6: "d[2] @ x^(1, 1, 0)"},
    }
    for name, witnesses in cases.items():
        problem, _, _, _, rs = build_pipeline(name)
        for order, witness in witnesses.items():
            system = assemble_lift_system(rs, order)
            with pytest.raises(JetInfeasibleError) as err:
                solve_jets(system, rs, fibre_start=problem.qsys.n)
            # the first row whose prefix of the system is inconsistent
            assert err.value.witness == witness


def _dense_reference_system(rs, order):
    """Rows, rhs and labels built densely: one residual_psi call per unknown, read back by coeff."""
    m = rs.m
    unknowns = monomials_up_to(m, order, min_degree=2)
    base_d, base_vm = residual_psi(rs, Poly.zero(m))
    columns = []
    for mi in unknowns:
        d_blk, vm_blk = residual_psi(rs, Poly.monomial(m, mi))
        columns.append(([d - b for d, b in zip(d_blk, base_d)], vm_blk))
    rows, rhs, labels = [], [], []
    for block_name, base_block, k in (("d", base_d, 0), ("vm", base_vm, 1)):
        for comp, base in enumerate(base_block):
            for mu in monomials_up_to(m, order - 1):
                dense = [column[k][comp].coeff(mu) for column in columns]
                row = [(j, v) for j, v in enumerate(dense) if v != 0]
                if row or base.coeff(mu) != 0:
                    rows.append(row)
                    rhs.append(-base.coeff(mu))
                    labels.append(f"{block_name}[{comp + 1}] @ x^{mu}")
    return rows, rhs, labels


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
    _, _, _, _, rs = pipeline_of(spec)
    for order in (2, 4, 6):
        system = assemble_lift_system(rs, order)
        assert (system.rows, system.rhs, system.labels) == _dense_reference_system(rs, order)


def test_order_one_is_trivially_solvable():
    _, _, _, _, rs = build_pipeline("ex_ps")
    system = assemble_lift_system(rs, 1)
    assert system.unknowns == []
    jet = solve_jets(system, rs, fibre_start=1)
    assert jet.coeffs == {}


def test_solution_gives_zero_system_residual():
    """Plugging the solution back into the linear system leaves no update."""
    _, _, _, _, rs = build_pipeline("ex_ps")
    system = assemble_lift_system(rs, 6)
    jet = solve_jets(system, rs, fibre_start=1)
    assert all(v == 0 for v in system_residual(system, jet))


def test_assembly_drops_entries_that_cancel():
    # Q = [x1, -x2] sends V = x1*x2 to x1*x2 - x2*x1 = 0, so that entry must not be stored
    rs = SimpleNamespace(
        m=2,
        n=1,
        p_d=PolyMatrix([[_p("x1"), _p("-x2")]]),
        p_vm=PolyMatrix([[_p("x2")], [_p("x1")]]),
        x_field=(_p("-x1"), _p("-x2")),
    )
    system = assemble_lift_system(rs, 4)
    assert (system.rows, system.rhs, system.labels) == _dense_reference_system(rs, 4)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _residual_systems(draw):
    """A residual system in m <= 4 variables: factors of degree <= 2, some components zero."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, m))
    monomials = monomials_up_to(m, 2)

    def polys(count):
        terms = st.dictionaries(st.sampled_from(monomials), _RATIONALS, max_size=3)
        return [Poly(m, t) for t in draw(st.lists(terms, min_size=count, max_size=count))]

    p_d = PolyMatrix([polys(m) for _ in range(draw(st.integers(0, m)))], cols=m, nvars=m)
    p_vm = PolyMatrix([polys(n) for _ in range(m)], cols=n, nvars=m)
    return SimpleNamespace(m=m, n=n, p_d=p_d, p_vm=p_vm, x_field=tuple(polys(m)))


@given(_residual_systems(), st.integers(1, 5))
def test_assembly_matches_dense_reference_on_drawn_factors(rs, order):
    system = assemble_lift_system(rs, order)
    assert (system.rows, system.rhs, system.labels) == _dense_reference_system(rs, order)


@pytest.mark.parametrize(
    "spec",
    [_fixture_spec("ex_ps"), gen.liftable_flat(random.Random("work"), "work", 5, 2, 6).spec],
    ids=["ex_ps", "liftable-flat-5-2"],
)
def test_assembly_forms_no_polynomial_per_unknown(spec, monkeypatch):
    """Poly products do not grow with the order: none is formed per unknown, one at most per factor entry."""
    _, _, _, _, rs = pipeline_of(spec)
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

    own = products(residual_psi, rs, Poly.zero(rs.m))
    entries = rs.p_d.rows * rs.m + rs.m * rs.n
    assert products(assemble_lift_system, rs, 3) == products(assemble_lift_system, rs, 6) <= entries + own


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
    system = LinearSystem(2, [(j,) for j in range(ncols)], rows, rhs, labels)
    seeds = draw(st.dictionaries(st.integers(0, ncols - 1), _RATIONALS))
    return system, seeds


@given(_consistent_systems())
def test_sparse_solve_satisfies_consistent_systems(case):
    system, seeds = case
    values, free_cols = _solve_exact(system, seeds)
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
    with pytest.raises(JetInfeasibleError) as err:
        _solve_exact(system, {})
    assert err.value.witness == "contradiction"


def test_degree_cap_guard():
    _, _, _, _, rs = build_pipeline("ex_ps")
    with pytest.raises(ValueError):
        assemble_lift_system(rs, 25)


def test_assemble_vstar_ex_ps():
    _, _, _, td, rs = build_pipeline("ex_ps")
    system = assemble_lift_system(rs, 6)
    jet = solve_jets(system, rs, fibre_start=1)
    vstar, diag = assemble_vstar(td.pullback_vtilde, jet)
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
    problem, _, _, td, rs = build_pipeline(name)
    try:
        jet = solve_jets(assemble_lift_system(rs, 4), rs, fibre_start=problem.qsys.n)
    except JetInfeasibleError:
        jet = JetSolution(4, {}, [])  # the pulled-back quotient function alone, flat along the fibre
    _assert_probes_match(td.pullback_vtilde + jet.polynomial(rs.m))


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
    problem, _, _, td, rs = build_pipeline("ex_ps")
    system = assemble_lift_system(rs, 6)
    jet = solve_jets(system, rs, fibre_start=1)
    vstar, _ = assemble_vstar(td.pullback_vtilde, jet)
    sigma = target_field(problem.sys, td, jet.polynomial(2))
    assert sigma == [_p("-2*x1"), _p("-x2")]
    assert lie_derivative(sigma, vstar) == _p("-2*x1^2 - x2^2")
