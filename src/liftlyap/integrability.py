"""Integrability analysis of the first-order system defining the lift V.

The unknown V : R^m -> R must satisfy two blocks of linear first-order
equations:

    D-block:   sum_i P_D[a][i] * (dV/dx^i - X^i) = 0      (a = 1..m-r)
    VM-block:  sum_i P_VM[i][q] * dV/dx^i = 0             (q = 1..n)

P_D = Q / delta with Q and delta polynomial and delta(0) = 1 (see
geometry.build_projections).  Every check here works on Q: the D-block
times delta, condition B times delta^2 and condition A times delta^3 are
polynomials.  delta is not the zero polynomial, so each is identically
zero exactly when its P_D form is; and [C | D] has full rank on the check
grid, so delta does not vanish at the points where the pointwise checks
run.

This module evaluates those residuals, their first prolongation, the
structural obstruction terms (connection curvature, the two antisymmetric
coefficient conditions), pointwise solvability of the first-order
constraints, and the symbol dimension bookkeeping behind the involutivity
test.  The verdict LIFTABLE means every obstruction vanishes; each failed
check carries a concrete witness.

Label conventions in returned mappings are 1-based; programmatic indices
are 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import geometry
from .geometry import EhresmannConnection, Frame, GridPoint, ProjectionPair
from .numutil import (
    RANK_RTOL,
    intersection_basis,
    intersection_dim,
    numeric_rank,
    null_rows,
    sym_intersection_dim,
)
from .poly import Poly, PolyMatrix, eval_points, poly_sum

CONSISTENCY_RTOL = 1e-9
# Random bases the quasi-regular search tries once every coordinate order fails
SYMBOL_RANDOM_BASES = 20
SYMBOL_SEED = 0


class InconsistentJetError(ValueError):
    """A supplied first-order jet violates the pointwise constraints."""


@dataclass(frozen=True)
class ResidualSystem:
    """Projection data plus the target field X, fixing the PDE for V."""

    pair: ProjectionPair
    x_field: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.x_field) != self.pair.m:
            raise ValueError("X must have one component per state variable")

    @property
    def m(self) -> int:
        return self.pair.m

    @property
    def n(self) -> int:
        return self.pair.p_vm.cols

    @property
    def p_d(self) -> PolyMatrix:
        return self.pair.p_d

    @property
    def delta(self) -> Poly:
        return self.pair.delta

    @property
    def p_vm(self) -> PolyMatrix:
        return self.pair.p_vm


def residual_psi(rs: ResidualSystem, v: Poly) -> tuple[list[Poly], list[Poly]]:
    """Exact residual blocks for a candidate V; both vanish iff V solves the PDE.

    The D-block is the P_D residual times delta.
    """
    p_d = rs.p_d
    m = rs.m
    if v.nvars != m:
        raise ValueError("V must be a polynomial in the m state variables")
    dv = [v.diff(i) for i in range(m)]
    d_block = [
        poly_sum((p_d.entry(a, i) * (dv[i] - rs.x_field[i]) for i in range(m)), m)
        for a in range(p_d.rows)
    ]
    vm_block = [
        poly_sum((rs.p_vm.entry(i, q) * dv[i] for i in range(m)), m)
        for q in range(rs.n)
    ]
    return d_block, vm_block


def prolonged_residual(
    rs: ResidualSystem,
    point: Sequence[float],
    v1: Sequence[float],
    v2: np.ndarray,
    sym_tol: float = 1e-12,
) -> dict[str, np.ndarray]:
    """Numeric value of the once-differentiated system at a second-order jet.

    ``v1`` holds the first-order jet entries V_i and ``v2`` the symmetric
    matrix of second-order entries V_[i,i1].  Returns the original blocks
    ("d", "vm"), with the D-block on Q = delta * P_D as in
    :func:`residual_psi`, and their derivative blocks ("d1", "vm1"), where
    entry [a, i] of "d1" is

        sum_i1 [ Q[a][i1] V_[i,i1] + d(Q[a][i1])/dx^i (V_i1 - X^i1)
                 - Q[a][i1] d(X^i1)/dx^i ]

    and entry [q, i] of "vm1" is

        sum_i1 [ d(P_VM[i1][q])/dx^i V_i1 + P_VM[i1][q] V_[i,i1] ].
    """
    p_d = rs.p_d
    m = rs.m
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.shape != (m,) or v2.shape != (m, m):
        raise ValueError("jet shapes must be (m,) and (m, m)")
    if np.max(np.abs(v2 - v2.T)) > sym_tol:
        raise ValueError("second-order jet must be symmetric")

    def jacobians(rows) -> np.ndarray:  # entry [r, i, i1] is d(rows[r][i1])/dx^i
        derivs = [e.diff(i) for row in rows for i in range(m) for e in row]
        return eval_points(derivs, point).reshape(len(rows), m, m)

    pd_val = p_d.at(point)
    pvm_val = rs.p_vm.at(point)
    x_val = eval_points(rs.x_field, point)
    dx_val = jacobians([rs.x_field])[0]
    dpd_val = jacobians(p_d.entries)
    dpvm_val = jacobians([rs.p_vm.col(q) for q in range(rs.n)])

    d_block = pd_val @ (v1 - x_val)
    vm_block = pvm_val.T @ v1
    d1 = pd_val @ v2.T + dpd_val @ (v1 - x_val) - pd_val @ dx_val.T
    vm1 = dpvm_val @ v1 + pvm_val.T @ v2.T
    return {"d": d_block, "vm": vm_block, "d1": d1, "vm1": vm1}


# -- structural conditions -----------------------------------------------------


def check_flatness(conn: EhresmannConnection) -> tuple[bool, dict[tuple[int, int, int], Poly]]:
    """Exact curvature test; returns (flat, nonzero components)."""
    components = geometry.curvature_components(conn)
    offenders = {key: val for key, val in components.items() if not val.is_zero()}
    return (not offenders, offenders)


def condition_a(p_d: PolyMatrix, delta: Poly) -> dict[tuple[int, int, int], Poly]:
    """Antisymmetrized derivative contraction of the D-projection rows.

    For P_D = Q / delta, entry (a1, a2, i1), with 1-based labels and
    a1 < a2, is delta^3 times

        sum_i [ P_D[a1][i] d(P_D[a2][i1])/dx^i - P_D[a2][i] d(P_D[a1][i1])/dx^i ]

    which is the polynomial

        delta * sum_i [ Q[a1][i] d(Q[a2][i1])/dx^i - Q[a2][i] d(Q[a1][i1])/dx^i ]
        - sum_i [ Q[a1][i] Q[a2][i1] - Q[a2][i] Q[a1][i1] ] d(delta)/dx^i

    The condition holds when every entry is identically zero; with fewer
    than two D rows it is vacuous.
    """
    m = p_d.cols
    d_delta = [(i, dd) for i in range(m) if not (dd := delta.diff(i)).is_zero()]
    out: dict[tuple[int, int, int], Poly] = {}
    for a1 in range(p_d.rows):
        for a2 in range(a1 + 1, p_d.rows):
            for i1 in range(m):
                entry = poly_sum(
                    (
                        p_d.entry(a1, i) * p_d.entry(a2, i1).diff(i)
                        - p_d.entry(a2, i) * p_d.entry(a1, i1).diff(i)
                        for i in range(m)
                    ),
                    p_d.nvars,
                )
                if not delta.is_constant():
                    entry = delta * entry
                for i, dd in d_delta:
                    cross = p_d.entry(a1, i) * p_d.entry(a2, i1) - p_d.entry(a2, i) * p_d.entry(a1, i1)
                    entry = entry - cross * dd
                out[(a1 + 1, a2 + 1, i1 + 1)] = entry
    return out


def condition_b(p_d: PolyMatrix, x_field: Sequence[Poly]) -> dict[tuple[int, int], Poly]:
    """Antisymmetrized pairing of D-projection rows with the Jacobian of X.

    Entry (a1, a2), a1 < a2 (1-based), holds

        sum_i sum_i1 [ Q[a2][i] Q[a1][i1] - Q[a1][i] Q[a2][i1] ] d(X^i1)/dx^i

    which is delta^2 times the same sum over the rows of P_D = Q / delta.
    """
    m = p_d.cols
    dx = [[x_field[i1].diff(i) for i1 in range(m)] for i in range(m)]
    out: dict[tuple[int, int], Poly] = {}
    for a1 in range(p_d.rows):
        for a2 in range(a1 + 1, p_d.rows):
            total = Poly.zero(p_d.nvars)
            for i in range(m):
                for i1 in range(m):
                    coeff = p_d.entry(a2, i) * p_d.entry(a1, i1) - p_d.entry(a1, i) * p_d.entry(a2, i1)
                    total = total + coeff * dx[i][i1]
            out[(a1 + 1, a2 + 1)] = total
    return out


# -- pointwise solvability -----------------------------------------------------


def stacked_system(rs: ResidualSystem, points) -> tuple[np.ndarray, np.ndarray]:
    """Linear constraints M @ (V_1..V_m) = b on the gradient of V.

    At points (..., m), M is (..., rows, m) and b (..., rows): the D rows,
    then one row per column of P_VM.  The D rows are those of P_D times
    delta(point), which leaves the solution set unchanged wherever
    delta(point) is nonzero.
    """
    rows = PolyMatrix([*rs.p_d.entries, *(rs.p_vm.col(q) for q in range(rs.n))], cols=rs.m, nvars=rs.m)
    m_mat = rows.at(points)
    x_val = eval_points(rs.x_field, points)
    b = np.zeros(m_mat.shape[:-1])
    b[..., : rs.p_d.rows] = (m_mat[..., : rs.p_d.rows, :] @ x_val[..., None])[..., 0]
    return m_mat, b


def consistency_gap_at(
    rs: ResidualSystem, point: Sequence[float], rtol: float = CONSISTENCY_RTOL
) -> tuple[bool, float]:
    """Solvability of the gradient constraints at one point.

    Returns (consistent, gap).  Rows are normalized to unit length and the
    gap is the total absolute violation of the least-squares gradient, so
    two directly contradictory unit equations report the distance between
    their right-hand sides.
    """
    return _consistency_gap(*stacked_system(rs, point), rtol)


def _consistency_gap(m_mat: np.ndarray, b: np.ndarray, rtol: float) -> tuple[bool, float]:
    norms = np.array([np.linalg.norm(row) for row in m_mat])
    zero = norms <= 1e-300
    violated = np.flatnonzero(zero & (np.abs(b) > rtol))
    if violated.size:
        return False, abs(b[violated[0]])
    if zero.all():
        return True, 0.0
    m_norm = m_mat[~zero] / norms[~zero, None]
    b_norm = b[~zero] / norms[~zero]
    rank_m = numeric_rank(m_norm, rtol)
    rank_aug = numeric_rank(np.hstack([m_norm, b_norm[:, None]]), rtol)
    solution, *_ = np.linalg.lstsq(m_norm, b_norm, rcond=None)
    gap = float(np.abs(m_norm @ solution - b_norm).sum())
    return rank_m == rank_aug, gap


@dataclass
class ConsistencyReport:
    consistent: bool
    worst_gap: float
    worst_point: tuple[float, ...] | None
    failures: list[tuple[tuple[float, ...], float]] = field(default_factory=list)


def pointwise_consistency(
    rs: ResidualSystem,
    grid: Sequence[GridPoint] | None = None,
    rtol: float = CONSISTENCY_RTOL,
) -> ConsistencyReport:
    """Check gradient-constraint solvability at every grid point."""
    if grid is None:
        grid = geometry.default_grid(rs.m)
    points = geometry.grid_floats(grid)
    m_mats, bs = stacked_system(rs, points)
    worst_gap = 0.0
    worst_point = None
    failures = []
    for point, m_mat, b in zip(points, m_mats, bs):
        ok, gap = _consistency_gap(m_mat, b, rtol)
        if gap > worst_gap:
            worst_gap = gap
            worst_point = tuple(point.tolist())
        if not ok:
            failures.append((tuple(point.tolist()), gap))
    return ConsistencyReport(not failures, worst_gap, worst_point, failures)


def consistent_jet(
    rs: ResidualSystem, point: Sequence[float], rng: np.random.Generator | None = None
) -> np.ndarray:
    """A first-order jet satisfying the constraints at a point.

    Least-squares particular solution plus, when an rng is supplied, a
    random element of the kernel of the constraint matrix.
    """
    m_mat, b = stacked_system(rs, point)
    particular, *_ = np.linalg.lstsq(m_mat, b, rcond=None)
    if rng is not None:
        kernel = null_rows(m_mat)
        if kernel.shape[0]:
            particular = particular + kernel.T @ rng.standard_normal(kernel.shape[0])
    return particular


# -- symbol dimensions and the involutivity bookkeeping -----------------------


@dataclass(frozen=True)
class SymbolDims:
    dim_g1: int
    dim_g2: int
    quasi_regular: bool
    permutation: tuple[int, ...] | None  # 1-based coordinate order, when one works


def quasi_regular_identity(
    g1_basis: np.ndarray, dim_g2: int, basis_rows: np.ndarray, rtol: float = RANK_RTOL
) -> bool:
    """Dimension identity certifying a quasi-regular basis.

    With Sigma_j the span of the basis covectors after position j, checks

        dim_g2 == dim(G1) + sum_{j=1..m-1} dim(G1 & Sigma_j)
    """
    m = basis_rows.shape[0]
    dim_g1 = numeric_rank(g1_basis, rtol)
    total = dim_g1
    for j in range(1, m):
        total += intersection_dim(g1_basis, basis_rows[j:], rtol)
    return total == dim_g2


def quasi_regular_search(e_span: np.ndarray, f_span: np.ndarray, rtol: float = RANK_RTOL) -> SymbolDims:
    """Symbol dimensions for a covector-subspace pair, plus basis search.

    The first symbol is the intersection of the two spans; the prolonged
    symbol is the intersection of their symmetric squares.  A basis
    ordering satisfying the dimension identity is searched first among
    coordinate permutations (reported 1-based when one works), then among
    SYMBOL_RANDOM_BASES random bases drawn from a generator seeded with
    SYMBOL_SEED, so the search is deterministic.
    """
    e_span = np.atleast_2d(np.asarray(e_span, dtype=float))
    m = e_span.shape[1]
    dim_g1 = intersection_dim(e_span, f_span, rtol)
    dim_g2 = sym_intersection_dim(e_span, f_span, rtol)
    g1_basis = intersection_basis(e_span, f_span, rtol)

    for perm in itertools.permutations(range(m)):
        basis = np.eye(m)[list(perm)]
        if quasi_regular_identity(g1_basis, dim_g2, basis, rtol):
            return SymbolDims(dim_g1, dim_g2, True, tuple(p + 1 for p in perm))
    rng = np.random.default_rng(SYMBOL_SEED)
    for _ in range(SYMBOL_RANDOM_BASES):
        basis = rng.standard_normal((m, m))
        if numeric_rank(basis, rtol) != m:
            continue
        if quasi_regular_identity(g1_basis, dim_g2, basis, rtol):
            return SymbolDims(dim_g1, dim_g2, True, None)
    return SymbolDims(dim_g1, dim_g2, False, None)


def symbol_dims(
    c_frame: Frame,
    conn: EhresmannConnection,
    point: Sequence[float],
    rtol: float = RANK_RTOL,
) -> SymbolDims:
    """Symbol dimensions of the lift system at a point.

    E* is spanned by the control directions viewed as covectors and F* is
    the annihilator of the horizontal subspace, i.e. the kernel of P_VM
    transposed.
    """
    e_span = c_frame.as_matrix().at(point).T  # rows span E*
    f_span = null_rows(geometry.build_p_vm(conn).at(point).T, rtol)
    return quasi_regular_search(e_span, f_span, rtol)


# -- curvature map -------------------------------------------------------------


def vm_curvature_coeffs(p_vm: PolyMatrix) -> dict[tuple[int, int, int], Poly]:
    """Coefficient polynomials of the VM part of the curvature map.

    Entry (q1, q2, i1), with q1 < q2 (1-based), holds

        sum_i [ P_VM[i][q2] d(P_VM[i1][q1])/dx^i - P_VM[i][q1] d(P_VM[i1][q2])/dx^i ]

    For the structured P_VM built from a connection these reduce to the
    curvature components, which is what makes flatness the right test.
    """
    m, n = p_vm.rows, p_vm.cols
    out: dict[tuple[int, int, int], Poly] = {}
    for q1 in range(n):
        for q2 in range(q1 + 1, n):
            for i1 in range(m):
                entry = poly_sum(
                    (
                        p_vm.entry(i, q2) * p_vm.entry(i1, q1).diff(i)
                        - p_vm.entry(i, q1) * p_vm.entry(i1, q2).diff(i)
                        for i in range(m)
                    ),
                    p_vm.nvars,
                )
                out[(q1 + 1, q2 + 1, i1 + 1)] = entry
    return out


def curvature_map_eval(
    rs: ResidualSystem,
    conn: EhresmannConnection,
    point: Sequence[float],
    v1: Sequence[float],
    jet_tol: float = 1e-8,
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """Obstruction values (G, H) at a consistent first-order jet.

    G combines the condition-A polynomials against (V_i1 - X^i1) plus the
    condition-B polynomials, each divided by its power of delta(point) so
    that G is the value for P_D itself; H contracts the VM curvature
    coefficients with the jet.  When flatness and conditions A and B hold
    identically, every coefficient polynomial is exactly zero and so are
    the returned values, for any consistent jet at any point.
    """
    p_d = rs.p_d
    m = rs.m
    v1 = np.asarray(v1, dtype=float)
    m_mat, b = stacked_system(rs, point)
    if m_mat.size and np.max(np.abs(m_mat @ v1 - b)) > jet_tol * (1.0 + float(np.max(np.abs(b), initial=0.0))):
        raise InconsistentJetError("jet does not satisfy the first-order constraints at the point")
    a_entries = condition_a(p_d, rs.delta)
    b_entries = condition_b(p_d, rs.x_field)
    x_val = np.array([p.eval_float(point) for p in rs.x_field])
    delta = rs.delta.eval_float(point)
    g_map: dict[tuple[int, int], float] = {}
    for a1 in range(p_d.rows):
        for a2 in range(a1 + 1, p_d.rows):
            total = b_entries[(a1 + 1, a2 + 1)].eval_float(point) * delta
            for i1 in range(m):
                total += a_entries[(a1 + 1, a2 + 1, i1 + 1)].eval_float(point) * (v1[i1] - x_val[i1])
            g_map[(a1 + 1, a2 + 1)] = total / delta**3
    h_coeffs = vm_curvature_coeffs(rs.p_vm)
    h_map: dict[tuple[int, int], float] = {}
    for q1 in range(rs.n):
        for q2 in range(q1 + 1, rs.n):
            total = 0.0
            for i1 in range(m):
                total += h_coeffs[(q1 + 1, q2 + 1, i1 + 1)].eval_float(point) * v1[i1]
            h_map[(q1 + 1, q2 + 1)] = total
    return g_map, h_map


# -- aggregate verdict ---------------------------------------------------------


@dataclass
class IntegrabilityReport:
    flat: bool
    flat_offenders: dict[tuple[int, int, int], Poly]
    cond_a: bool
    cond_a_offenders: dict[tuple[int, int, int], Poly]
    cond_b: bool
    cond_b_offenders: dict[tuple[int, int], Poly]
    consistency: ConsistencyReport
    symbol: SymbolDims

    @property
    def liftable(self) -> bool:
        return self.flat and self.cond_a and self.cond_b and self.consistency.consistent

    @property
    def verdict(self) -> str:
        return "LIFTABLE" if self.liftable else "NOT_LIFTABLE"

    @property
    def reasons(self) -> list[str]:
        out = []
        if not self.flat:
            out.append("flatness")
        if not self.cond_a:
            out.append("condition_a")
        if not self.cond_b:
            out.append("condition_b")
        if not self.consistency.consistent:
            out.append("consistency")
        return out


def full_check(
    rs: ResidualSystem,
    conn: EhresmannConnection,
    grid: Sequence[GridPoint] | None = None,
) -> IntegrabilityReport:
    """Run every obstruction test and aggregate the verdict."""
    m = rs.m
    if grid is None:
        grid = geometry.default_grid(m)
    flat, flat_offenders = check_flatness(conn)
    a_entries = condition_a(rs.p_d, rs.delta)
    a_offenders = {key: val for key, val in a_entries.items() if not val.is_zero()}
    b_entries = condition_b(rs.p_d, rs.x_field)
    b_offenders = {key: val for key, val in b_entries.items() if not val.is_zero()}
    consistency = pointwise_consistency(rs, grid)
    origin = [0.0] * m
    symbol = symbol_dims(rs.pair.c_frame, conn, origin)
    return IntegrabilityReport(
        flat=flat,
        flat_offenders=flat_offenders,
        cond_a=not a_offenders,
        cond_a_offenders=a_offenders,
        cond_b=not b_offenders,
        cond_b_offenders=b_offenders,
        consistency=consistency,
        symbol=symbol,
    )
