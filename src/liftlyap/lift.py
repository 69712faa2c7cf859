"""Construction of the lift V by exact Taylor-coefficient solving.

The residual blocks are linear in V, so requiring them to vanish through a
chosen degree turns into an exact linear system over the rationals in the
unknown Taylor coefficients of V at the origin.  That system is almost
empty, so it is kept as sparse ``(column, value)`` rows.  Each assembly
ranks the monomials once in grlex order, so differentiating x^alpha and
multiplying by a factor term x^nu are lookups in tables built for that
call; the work follows the nonzero factor terms, no polynomial is formed
per unknown, and an entry is an int when its factor coefficients are.  One
row-ordered elimination solves the system and names the infeasibility
witness; a row of one entry on a new or an already solved column costs one
division or one product.  The constant coefficient is pinned to 0 and the
linear coefficients are pinned to 0 as well (the candidate Lyapunov
function must have a critical point at the equilibrium); free coefficients
left by the solve are filled by a seeding policy and the assembled
candidate is re-verified and validated for positive definiteness
afterwards, its sphere probes drawn and evaluated as one batch.  No
convergence claim is made for the series: the truncated polynomial is the
candidate, and it is checked, not trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .integrability import ResidualSystem, residual_psi
from .poly import DEGREE_CAP, MultiIndex, Poly, eval_points
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


SparseRow = list[tuple[int, int | Fraction]]


@dataclass
class LinearSystem:
    """Exact linear constraints A @ c = b on the unknown V coefficients.

    Each row of A is stored sparse: its nonzero entries as ``(column,
    value)`` pairs in increasing column order, each value an int or a
    Fraction.  Each right-hand side is a Fraction.
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
    Both shifts are lookups in the grlex ranks of the equation monomials, and
    an entry is the exact sum of alpha_i * c: an int when each c is one.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > DEGREE_CAP:
        raise ValueError(f"order {order} exceeds the degree cap {DEGREE_CAP}")
    m = rs.m
    unknowns = monomials_up_to(m, order, min_degree=2)
    eq_monomials = monomials_up_to(m, order - 1)
    rank = {mu: k for k, mu in enumerate(eq_monomials)}
    # per variable i: (column, alpha_i, rank of alpha - e_i) of each unknown x^alpha with alpha_i > 0
    lowered = [
        [(j, alpha[i], rank[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]]) for j, alpha in enumerate(unknowns) if alpha[i]]
        for i in range(m)
    ]
    shifted: dict[MultiIndex, list[int | None]] = {}  # nu -> rank of beta + nu by rank of beta, None past order-1
    base_d, base_vm = residual_psi(rs, Poly.zero(m))
    factors_d = [rs.p_d.row(a) for a in range(rs.p_d.rows)]
    factors_vm = [rs.p_vm.col(q) for q in range(rs.n)]
    rows: list[SparseRow] = []
    rhs: list[Fraction] = []
    labels: list[str] = []
    zero = Fraction(0)
    tags = [f" @ x^{mu}" for mu in eq_monomials]
    for block_name, base_block, factors in (("d", base_d, factors_d), ("vm", base_vm, factors_vm)):
        for comp, (base, factor) in enumerate(zip(base_block, factors)):
            entries: list[SparseRow] = [[] for _ in eq_monomials]
            terms = [(i, nu, c) for i, f in enumerate(factor) for nu, c in f.terms.items()]
            for i, nu, c in terms:
                if nu not in shifted:
                    shifted[nu] = [rank.get(tuple(b + e for b, e in zip(beta, nu))) for beta in eq_monomials]
                up = shifted[nu]
                c = c.numerator if c.denominator == 1 else c
                for j, a, low in lowered[i]:  # one term reaches each row at most once, in column order
                    if (k := up[low]) is not None:
                        entries[k].append((j, a * c))
            if len(terms) > 1:
                entries = [_merged(row) if len(row) > 1 else row for row in entries]
            targets = {rank[mu]: -c for mu, c in base.terms.items() if mu in rank}
            head = f"{block_name}[{comp + 1}]"
            for k, row in enumerate(entries):
                rv = targets.get(k, zero)
                if row or rv:
                    rows.append(row)
                    rhs.append(rv)
                    labels.append(head + tags[k])
    return LinearSystem(order, unknowns, rows, rhs, labels)


def _merged(row: SparseRow) -> SparseRow:
    """The entries of a row summed by column, column-sorted, zeros dropped."""
    sums: dict[int, int | Fraction] = {}
    for j, v in row:
        sums[j] = sums.get(j, 0) + v
    return sorted((j, v) for j, v in sums.items() if v != 0)


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
    """Sparse elimination over the rationals; free columns get their seed value (or 0).

    Rows are taken in order and reduced against the echelon rows found so
    far, each stored under its lead column with lead 1.  A row that reduces
    to 0 = b with b != 0 raises JetInfeasibleError naming that row: it is
    the first row whose prefix of the system is inconsistent.  The lead
    columns of any echelon form of A are its pivot columns, so the free
    columns are the non-lead ones, and back-substitution in decreasing lead
    order gives the unique solution with the free columns seeded.  A row of
    one entry on a new column, or on a column already solved, is decided by
    one division or one product.  Entries may be ints; every value is a
    Fraction, because each right-hand side is one and each pivot becomes one.
    """
    echelon: dict[int, tuple[SparseRow, Fraction]] = {}
    for row, b, label in zip(system.rows, system.rhs, system.labels):
        if len(row) == 1:
            ((lead, v),) = row
            if lead not in echelon:
                echelon[lead] = ([], b / v if b else b)
                continue
            tail, value = echelon[lead]
            if not tail:  # lead is solved: the row holds when v * value = b, so when value = 0 if b = 0
                if v * value != b if b else value != 0:
                    raise JetInfeasibleError("coefficient constraints are inconsistent", witness=label)
                continue
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
        pivot = Fraction(work.pop(lead))
        echelon[lead] = (sorted((c, v / pivot) for c, v in work.items()), b / pivot)
    ncols = len(system.unknowns)
    free_cols = [c for c in range(ncols) if c not in echelon]
    values: list[Fraction] = [Fraction(0)] * ncols
    for c in free_cols:
        values[c] = seeds.get(c, Fraction(0))
    for lead in sorted(echelon, reverse=True):
        tail, b = echelon[lead]
        values[lead] = b - sum(v * values[c] for c, v in tail) if tail else b
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
    directions = rng.standard_normal((len(SPHERE_RADII) * SPHERE_DIRECTIONS, m))
    # each row over its norm through the BLAS dot np.linalg.norm uses, so it matches bit for bit
    directions /= np.sqrt(directions[:, None, :] @ directions[:, :, None])[:, 0]
    radii = np.repeat(SPHERE_RADII, SPHERE_DIRECTIONS)[:, None]
    values = eval_points([vstar], radii * directions)[:, 0]
    # the minimum is global over the probe set, first occurrence on ties; the witness is the first probe at or below 0
    sphere_min = float(values[np.argmin(values)])
    if sphere_min <= 0.0:
        ok = False
        witness = witness or directions[np.argmax(values <= 0.0)].tolist()
    diagnostics = DefinitenessDiagnostics(
        hessian_eigenvalues=[float(e) for e in eigs],
        sphere_min=sphere_min,
        witness=witness,
        ok=ok,
    )
    return vstar, diagnostics
