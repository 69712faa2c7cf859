"""Construction of the lift V by exact Taylor-coefficient solving.

The residual blocks are linear in V, so requiring them to vanish through a
chosen degree turns into an exact linear system over the rationals in the
unknown Taylor coefficients of V at the origin.  That system is almost
empty, so it is kept as sparse ``(column, value)`` rows and solved by one
sparse elimination, which also names the infeasibility witness.  The constant
coefficient is pinned to 0 and the linear coefficients are pinned to 0 as
well (the candidate Lyapunov function must have a critical point at the
equilibrium); free coefficients left by the solve are filled by a seeding
policy and the assembled candidate is re-verified and validated for
positive definiteness afterwards.  No convergence claim is made for the
series: the truncated polynomial is the candidate, and it is checked, not
trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .integrability import ResidualSystem, residual_psi
from .poly import DEGREE_CAP, MultiIndex, Poly
from .sysmodel import HESSIAN_EIG_TOL, hessian_at_origin

# Sphere probes of V* definiteness: radii, random unit directions per radius, generator seed
SPHERE_RADII = (0.1, 0.5, 1.0)
SPHERE_DIRECTIONS = 64
SPHERE_SEED = 20240


class JetInfeasibleError(ValueError):
    """The coefficient constraints are mutually inconsistent."""

    def __init__(self, message: str, witness: str):
        super().__init__(message)
        self.witness = witness


def monomials_up_to(m: int, max_degree: int, min_degree: int = 0) -> list[MultiIndex]:
    """The exponent tuples in m variables of total degree min_degree..max_degree, each degree in grlex order."""
    by_degree: list[list[MultiIndex]] = [[()]] + [[] for _ in range(max_degree)]  # over no variables yet
    for _ in range(m):  # prepend one variable, its exponent descending: lexicographic order within a degree
        by_degree = [[(e, *rest) for e in range(d, -1, -1) for rest in by_degree[d - e]] for d in range(max_degree + 1)]
    return [mi for d in range(min_degree, max_degree + 1) for mi in by_degree[d]]


SparseRow = list[tuple[int, Fraction]]


@dataclass
class LinearSystem:
    """Exact linear constraints A @ c = b on the unknown V coefficients.

    Each row of A is stored sparse: its nonzero entries as ``(column,
    value)`` pairs in increasing column order.
    """

    order: int
    unknowns: list[MultiIndex]
    rows: list[SparseRow]
    rhs: list[Fraction]
    labels: list[str]


def assemble_lift_system(rs: ResidualSystem, order: int) -> LinearSystem:
    """Equations forcing both residual blocks to vanish through degree order-1.

    Unknowns are the V coefficients of total degree 2..order.  One equation
    is emitted per residual component and per monomial of degree at most
    order-1, which is exactly the part of the residual determined by the
    retained coefficients.  The residual at V = 0 gives the right-hand side;
    its linear part on x^alpha, sum_i alpha_i * F[i] * x^(alpha - e_i) with
    F = row a of Q (D block) or column q of P_VM (VM block), fills the rows.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > DEGREE_CAP:
        raise ValueError(f"order {order} exceeds the degree cap {DEGREE_CAP}")
    m = rs.m
    unknowns = monomials_up_to(m, order, min_degree=2)
    base_d, base_vm = residual_psi(rs, Poly.zero(m))
    factors_d = [rs.p_d.row(a) for a in range(rs.p_d.rows)]
    factors_vm = [rs.p_vm.col(q) for q in range(rs.n)]
    rows: list[SparseRow] = []
    rhs: list[Fraction] = []
    labels: list[str] = []
    eq_monomials = monomials_up_to(m, order - 1)
    for block_name, base_block, factors in (("d", base_d, factors_d), ("vm", base_vm, factors_vm)):
        for comp, (base, factor) in enumerate(zip(base_block, factors)):
            entries = _linear_action(unknowns, factor, order - 1)
            for mu in eq_monomials:
                row = [(j, v) for j, v in entries.get(mu, {}).items() if v != 0]
                rv = -base.coeff(mu)
                if row or rv != 0:
                    rows.append(row)
                    rhs.append(rv)
                    labels.append(f"{block_name}[{comp + 1}] @ x^{mu}")
    return LinearSystem(order, unknowns, rows, rhs, labels)


def _linear_action(
    unknowns: Sequence[MultiIndex], factor: Sequence[Poly], max_degree: int
) -> dict[MultiIndex, dict[int, Fraction]]:
    """Coefficients of sum_i factor[i] * d(x^alpha)/dx_i through ``max_degree``.

    Keyed by monomial, then by column; columns are visited in increasing
    order, so each inner dict is column-sorted.
    """
    out: dict[MultiIndex, dict[int, Fraction]] = {}
    for j, alpha in enumerate(unknowns):
        for i, a_i in enumerate(alpha):
            if a_i == 0:
                continue
            beta = alpha[:i] + (a_i - 1,) + alpha[i + 1 :]
            room = max_degree - sum(beta)
            for nu, c in factor[i].terms.items():
                if sum(nu) <= room:
                    entry = out.setdefault(tuple(b + n for b, n in zip(beta, nu)), {})
                    entry[j] = entry.get(j, 0) + a_i * c
    return out


@dataclass
class JetSolution:
    """Solved Taylor coefficients of V at the origin."""

    order: int
    coeffs: dict[MultiIndex, Fraction]
    free_seeded: list[MultiIndex]

    def polynomial(self, m: int) -> Poly:
        return Poly(m, dict(self.coeffs))


def solve_jets(system: LinearSystem, rs: ResidualSystem, fibre_start: int) -> JetSolution:
    """Exact rational solve with the vertical-quadratic seeding policy.

    Free coefficients of the form (x^p)^2 with p a fibre coordinate
    (0-based index >= fibre_start) are set to 1/2; all other free
    coefficients are set to 0.  The solved candidate is re-verified: both
    residual blocks must vanish exactly through degree order-1.
    """
    values, free_cols = _solve_exact(system, _seed_policy(system.unknowns, rs.m, fibre_start))
    coeffs = {mi: values[j] for j, mi in enumerate(system.unknowns) if values[j] != 0}
    solution = JetSolution(system.order, coeffs, [system.unknowns[j] for j in free_cols])
    v = solution.polynomial(rs.m)
    d_blk, vm_blk = residual_psi(rs, v)
    for comp in d_blk + vm_blk:
        if not comp.truncate(system.order - 1).is_zero():
            raise RuntimeError("internal error: solved coefficients fail re-verification")
    return solution


def _seed_policy(unknowns: Sequence[MultiIndex], m: int, fibre_start: int) -> dict[int, Fraction]:
    seeds: dict[int, Fraction] = {}
    for j, mi in enumerate(unknowns):
        if sum(mi) == 2 and any(mi[p] == 2 for p in range(fibre_start, m)):
            seeds[j] = Fraction(1, 2)
    return seeds


def _solve_exact(
    system: LinearSystem, seeds: dict[int, Fraction]
) -> tuple[list[Fraction], list[int]]:
    """Sparse elimination over Fraction; free columns get their seed value (or 0).

    Rows are taken in order and reduced against the echelon rows found so
    far, each stored under its lead column with lead 1.  A row that reduces
    to 0 = b with b != 0 raises JetInfeasibleError naming that row: it is
    the first row whose prefix of the system is inconsistent.  The lead
    columns of any echelon form of A are its pivot columns, so the free
    columns are the non-lead ones, and back-substitution in decreasing lead
    order gives the unique solution with the free columns seeded.
    """
    echelon: dict[int, tuple[SparseRow, Fraction]] = {}
    for row, b, label in zip(system.rows, system.rhs, system.labels):
        work = dict(row)
        while work and (lead := min(work)) in echelon:
            factor = work.pop(lead)
            tail, lead_rhs = echelon[lead]
            b -= factor * lead_rhs
            for c, v in tail:
                work[c] = work.get(c, 0) - factor * v
                if work[c] == 0:
                    del work[c]
        if not work:
            if b != 0:
                raise JetInfeasibleError("coefficient constraints are inconsistent", witness=label)
            continue
        pivot = work.pop(lead)
        echelon[lead] = (sorted((c, v / pivot) for c, v in work.items()), b / pivot)
    ncols = len(system.unknowns)
    free_cols = [c for c in range(ncols) if c not in echelon]
    values: list[Fraction] = [Fraction(0)] * ncols
    for c in free_cols:
        values[c] = seeds.get(c, Fraction(0))
    for lead in sorted(echelon, reverse=True):
        tail, b = echelon[lead]
        values[lead] = b - sum(v * values[c] for c, v in tail)
    return values, free_cols


@dataclass
class DefinitenessDiagnostics:
    hessian_eigenvalues: list[float]
    sphere_min: float
    witness: list[float] | None
    ok: bool


def assemble_vstar(pullback_vtilde: Poly, jet: JetSolution) -> tuple[Poly, DefinitenessDiagnostics]:
    """Assemble the candidate Lyapunov function and probe its definiteness.

    The candidate is the pulled-back quotient function plus the solved V.
    Diagnostics: Hessian eigenvalues at the origin (all must exceed
    HESSIAN_EIG_TOL) and sampled positivity on the spheres of radii
    SPHERE_RADII (SPHERE_DIRECTIONS random unit directions each).  A
    failure carries the offending direction.
    """
    m = pullback_vtilde.nvars
    vstar = pullback_vtilde + jet.polynomial(m)
    hess = hessian_at_origin(vstar)
    eigs = np.linalg.eigvalsh(hess)
    witness: list[float] | None = None
    ok = True
    if eigs.min() <= HESSIAN_EIG_TOL:
        ok = False
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
        # sampling continues across radii even after a failure so the
        # reported minimum is global over the probe set
    if sphere_min <= 0.0:
        ok = False
    diagnostics = DefinitenessDiagnostics(
        hessian_eigenvalues=[float(e) for e in eigs],
        sphere_min=sphere_min,
        witness=witness,
        ok=ok,
    )
    return vstar, diagnostics
