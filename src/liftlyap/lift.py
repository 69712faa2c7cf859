"""Construction of the lift V by forward substitution on the graph form.

Once the integrability checks pass, the lift PDE near the origin is the
graph form of :mod:`integrability`: rows G_i . grad V = beta_i, each with
d on its own pivot column p_i, 0 on the other pivot columns and d(0) = 1.
The unknowns are the Taylor coefficients of V of total degree 2..order
(the constant and linear ones are pinned to 0, so the candidate Lyapunov
function has a critical point at the equilibrium).  A monomial x^alpha
with a positive exponent on some pivot is principal: with p the lowest
such pivot and i its graph row, the coefficient of x^(alpha - e_p) in
G_i . grad V = beta_i holds c_alpha with the factor alpha_p * d(0) =
alpha_p, and every other coefficient it holds has a lower total degree, or
the same total degree and a lower degree in the pivot variables.  The
monomials with no pivot exponent are parametric: V on {x_P = 0} is free
data (Seiler, *Involution*, 2010, principal and parametric derivatives).
So one row per principal monomial, taken by total degree and then by
pivot degree, gives its coefficient by one division once the earlier ones
are known; conditions A and B are what make the equations that were not
used hold as well.  When the graph form has full rank there is no
parametric monomial and the lift is unique.  Otherwise the parametric
coefficients below the order are chosen to leave V no principal term of
degree ``order`` where that is possible, so a polynomial lift of lower
degree is found exactly, and the rest keep a seed.  The candidate is
re-verified against the residual blocks and validated for positive
definiteness afterwards, its sphere probes drawn and evaluated as one
batch.  No convergence claim is made for the series: the truncated
polynomial is the candidate, and it is checked, not trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .integrability import GraphForm, ResidualSystem, residual_psi
from .poly import DEGREE_CAP, MultiIndex, Poly, eval_points, reduce_rows
from .sysmodel import HESSIAN_EIG_TOL, hessian_at_origin

# Sphere probes of V* definiteness: radii, random unit directions per radius, generator seed
SPHERE_RADII = (0.1, 0.5, 1.0)
SPHERE_DIRECTIONS = 64
SPHERE_SEED = 20240


def monomials_up_to(m: int, max_degree: int, min_degree: int = 0) -> list[MultiIndex]:
    """The exponent tuples in m variables of total degree min_degree..max_degree, each degree in grlex order."""
    by_degree: list[list[MultiIndex]] = [[()]] + [[] for _ in range(max_degree)]  # over no variables yet
    for _ in range(m):  # prepend one variable, its exponent descending: lexicographic order within a degree
        by_degree = [[(e, *rest) for e in range(d, -1, -1) for rest in by_degree[d - e]] for d in range(max_degree + 1)]
    return [mi for d in range(min_degree, max_degree + 1) for mi in by_degree[d]]


SparseRow = list[tuple[int, int | Fraction]]


@dataclass
class LinearSystem:
    """One substitution row per principal V coefficient, in solve order.

    A row's first ``(column, value)`` entry is the unknown it solves, with
    value alpha_p; its other entries lie on columns that earlier rows solve
    or on parametric columns, a column may repeat, and each value is an int
    or a Fraction.  Each right-hand side is a Fraction.
    """

    order: int
    unknowns: list[MultiIndex]
    rows: list[SparseRow]
    rhs: list[Fraction]


def assemble_lift_system(form: GraphForm, order: int) -> LinearSystem:
    """The rows G_i . grad V = beta_i read at x^(alpha - e_p), one per principal x^alpha.

    Unknowns are the V coefficients of total degree 2..order, in grlex
    order.  A term g x^nu of G[i][j] meets c_gamma, gamma = alpha - e_p -
    nu + e_j, with the factor gamma_j * g; terms that reach below degree 2
    meet a coefficient pinned to 0 and are dropped.  An entry is an int
    when g is one.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > DEGREE_CAP:
        raise ValueError(f"order {order} exceeds the degree cap {DEGREE_CAP}")
    pivots = form.pivots
    unknowns = monomials_up_to(form.rows.cols, order, min_degree=2)
    column = {mi: j for j, mi in enumerate(unknowns)}
    row_of = {p: i for i, p in enumerate(pivots)}
    terms = [  # per graph row: (column j, nu, |nu|, g) of every term but the 1 of d on its own pivot
        [
            (j, nu, sum(nu), c.numerator if c.denominator == 1 else c)
            for j, entry in enumerate(row)
            for nu, c in entry.terms.items()
            if j != p or any(nu)
        ]
        for p, row in zip(pivots, form.rows.entries)
    ]
    ranked = sorted((sum(mi), sum(mi[p] for p in pivots), j) for j, mi in enumerate(unknowns))
    zero = Fraction(0)
    rows: list[SparseRow] = []
    rhs: list[Fraction] = []
    for degree, pivot_degree, own in ranked:
        if not pivot_degree:
            continue  # parametric
        alpha = unknowns[own]
        p = next(p for p in pivots if alpha[p])
        i = row_of[p]
        mu = alpha[:p] + (alpha[p] - 1,) + alpha[p + 1 :]
        row: SparseRow = [(own, alpha[p])]
        for j, nu, size, c in terms[i]:
            if size <= degree - 2:  # else gamma falls below degree 2, where V is pinned to 0
                kappa = tuple(a - b for a, b in zip(mu, nu))
                if min(kappa) >= 0:
                    gamma = kappa[:j] + (kappa[j] + 1,) + kappa[j + 1 :]
                    row.append((column[gamma], gamma[j] * c))
        rows.append(row)
        rhs.append(form.rhs[i].terms.get(mu, zero))
    return LinearSystem(order, unknowns, rows, rhs)


@dataclass
class JetSolution:
    """Solved Taylor coefficients of V at the origin."""

    order: int
    coeffs: dict[MultiIndex, Fraction]
    free_seeded: list[MultiIndex]

    def polynomial(self, m: int) -> Poly:
        return Poly(m, dict(self.coeffs))


def solve_jets(system: LinearSystem, rs: ResidualSystem, fibre_start: int) -> JetSolution:
    """Forward substitution on the rows, the parametric coefficients chosen for a polynomial lift.

    The parametric coefficients, the columns no row solves, are the free
    data of the lift.  Those of degree below the order are chosen, where
    some choice does it, so that every principal coefficient of degree
    ``order`` is 0: a lift that is a polynomial of lower degree is then
    found exactly, where any other choice leaves a series whose truncation
    the feedback check refuses.  The principal coefficients are affine in
    that choice, so one substitution per chosen coefficient, against a zero
    right-hand side, gives the conditions, and one exact elimination over
    those coefficients alone (:func:`reduce_rows`) solves them; a full-rank
    graph form leaves nothing to choose.  Every parametric coefficient not
    chosen keeps its seed (``free_seeded``): (x^p)^2 with p a fibre
    coordinate (0-based index >= fibre_start) takes 1/2 and every other one
    0.  The solved candidate is re-verified: both residual blocks must
    vanish exactly through degree order-1.
    """
    unknowns, order = system.unknowns, system.order
    solved = {row[0][0] for row in system.rows}
    free = [j for j in range(len(unknowns)) if j not in solved]
    values = [Fraction(0)] * len(unknowns)
    for j in free:
        mi = unknowns[j]
        if sum(mi) == 2 and any(mi[p] == 2 for p in range(fibre_start, rs.m)):
            values[j] = Fraction(1, 2)
    if lower := [j for j in free if sum(unknowns[j]) < order]:
        top = [row[0][0] for row in system.rows if sum(unknowns[row[0][0]]) == order]
        base = _substituted(system, values, system.rhs)
        zero = [Fraction(0)] * len(system.rhs)
        shifts = [_substituted(system, [int(c == j) for c in range(len(unknowns))], zero) for j in lower]
        # the shift of each lower coefficient from its seed that clears the top: [A | -base] on the top columns
        basis = reduce_rows([[shift[k] for shift in shifts] + [-base[k]] for k in top], len(lower) + 1)
        if all(col < len(lower) for _, col, _ in basis):  # consistent; the shifts of non-pivot columns stay 0
            for _, col, row in basis:
                values[lower[col]] += row[-1] / row[col]
                free.remove(lower[col])
    values = _substituted(system, values, system.rhs)
    coeffs = {mi: value for mi, value in zip(unknowns, values) if value != 0}
    solution = JetSolution(order, coeffs, [unknowns[j] for j in free])
    d_blk, vm_blk = residual_psi(rs, solution.polynomial(rs.m))
    for comp in d_blk + vm_blk:
        if not comp.truncate(order - 1).is_zero():
            raise RuntimeError("internal error: solved coefficients fail re-verification")
    return solution


def _substituted(system: LinearSystem, values: list, rhs: list) -> list[Fraction]:
    """A copy of ``values`` with each row's unknown solved in turn against ``rhs``."""
    values = list(values)
    for ((j, a), *rest), b in zip(system.rows, rhs):
        for c, v in rest:
            if values[c]:
                b -= v * values[c]
        values[j] = b / a if b else b
    return values


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
