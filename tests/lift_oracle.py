"""The lift as it was solved before the graded Euler operator, kept as test oracles.

:func:`substitution_rows` is the forward substitution on the graph form:
one unknown per Taylor coefficient of V of degree 2..order and one row per
principal coefficient, each solved by one division once the earlier ones
are known (:func:`substituted`).  :func:`solve_by_substitution` chooses the
parametric coefficients as :func:`liftlyap.lift.solve_jets` does, from one
substitution at the seeds and one per parametric coefficient below the
order.  :func:`dense_substitution_rows` builds the same rows from
polynomial products.

:func:`dense_reference_system` builds the full linear system in the Taylor
coefficients of V: both residual blocks of
:func:`liftlyap.integrability.residual_psi` through degree order-1, one row
per block component and monomial, read densely from one ``residual_psi``
call per unknown.  :func:`solve_exact` is the sparse row-ordered elimination
that solved it before the substitution; its free columns are its non-lead
columns, so they need not be the parametric monomials that
:func:`liftlyap.lift.solve_jets` seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from liftlyap.integrability import residual_psi
from liftlyap.lift import monomials_up_to
from liftlyap.poly import MultiIndex, Poly, lie_derivative, reduce_rows

SparseRow = list[tuple[int, int | Fraction]]


class InfeasibleError(ValueError):
    """The coefficient constraints are mutually inconsistent; ``witness`` labels the first row that shows it."""

    def __init__(self, message: str, witness: str):
        super().__init__(message)
        self.witness = witness


@dataclass
class EliminationSystem:
    """Exact constraints A @ c = b on the V coefficients; rows sparse and column-sorted, each labelled."""

    unknowns: list[MultiIndex]
    rows: list[SparseRow]
    rhs: list[Fraction]
    labels: list[str]


def dense_reference_system(rs, order: int) -> EliminationSystem:
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
    return EliminationSystem(unknowns, rows, rhs, labels)


def solve_exact(system: EliminationSystem, seeds: dict[int, Fraction]) -> tuple[list[Fraction], list[int]]:
    """Sparse elimination over the rationals; free columns get their seed value (or 0).

    Rows are taken in order and reduced against the echelon rows found so
    far, each stored under its lead column with lead 1.  A row that reduces
    to 0 = b with b != 0 raises InfeasibleError naming that row: it is the
    first row whose prefix of the system is inconsistent.  The free columns
    are the non-lead ones, and back-substitution in decreasing lead order
    gives the unique solution with the free columns seeded.
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
                raise InfeasibleError("coefficient constraints are inconsistent", witness=label)
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
        values[lead] = b - sum(v * values[c] for c, v in tail)
    return values, free_cols


def seed(mi: MultiIndex, fibre_start: int) -> Fraction:
    """The seeding policy: 1/2 on the square of a fibre coordinate, 0 elsewhere."""
    return Fraction(1, 2) if sum(mi) == 2 and max(mi[fibre_start:], default=0) == 2 else Fraction(0)


def solve_by_elimination(rs, order: int, fibre_start: int) -> tuple[dict[MultiIndex, Fraction], list[MultiIndex]]:
    """The coefficients and the free monomials the elimination gave, with the same seeding policy."""
    system = dense_reference_system(rs, order)
    values, free_cols = solve_exact(system, {j: seed(mi, fibre_start) for j, mi in enumerate(system.unknowns)})
    coeffs = {mi: v for mi, v in zip(system.unknowns, values) if v != 0}
    return coeffs, [system.unknowns[j] for j in free_cols]


def dense_substitution_rows(form, order: int) -> tuple[list[SparseRow], list[Fraction]]:
    """One row per principal monomial x^alpha, by total degree, then pivot degree, then grlex.

    With p the lowest pivot in alpha and i its graph row, the row reads the
    coefficient of x^(alpha - e_p) in G_i . grad x^gamma for every unknown
    x^gamma: alpha's own entry first, then the others by column, zeros
    dropped.  The right-hand side is that coefficient of beta_i.
    """
    m = form.rows.cols
    unknowns = monomials_up_to(m, order, min_degree=2)
    images = [[lie_derivative(g, Poly.monomial(m, mi)) for mi in unknowns] for g in form.rows.entries]

    def pivot_degree(mi):
        return sum(mi[p] for p in form.pivots)

    rows, rhs = [], []
    for alpha in sorted((mi for mi in unknowns if pivot_degree(mi)), key=lambda mi: (sum(mi), pivot_degree(mi))):
        i, p = next((i, p) for i, p in enumerate(form.pivots) if alpha[p])
        mu = alpha[:p] + (alpha[p] - 1,) + alpha[p + 1 :]
        dense = [image.coeff(mu) for image in images[i]]
        own = unknowns.index(alpha)
        rows.append([(own, dense[own])] + [(j, v) for j, v in enumerate(dense) if v != 0 and j != own])
        rhs.append(form.rhs[i].coeff(mu))
    return rows, rhs


@dataclass
class SubstitutionSystem:
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


def substitution_rows(form, order: int) -> SubstitutionSystem:
    """The rows G_i . grad V = beta_i read at x^(alpha - e_p), one per principal x^alpha.

    A monomial x^alpha with a positive exponent on some pivot is principal:
    with p the lowest such pivot and i its graph row, the coefficient of
    x^(alpha - e_p) in G_i . grad V = beta_i holds c_alpha with the factor
    alpha_p * d(0) = alpha_p, and every other coefficient it holds has a
    lower total degree, or the same total degree and a lower pivot degree.
    Unknowns are the V coefficients of total degree 2..order, in grlex
    order.  A term g x^nu of G[i][j] meets c_gamma, gamma = alpha - e_p -
    nu + e_j, with the factor gamma_j * g; terms that reach below degree 2
    meet a coefficient pinned to 0 and are dropped.  An entry is an int
    when g is one.
    """
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
    return SubstitutionSystem(order, unknowns, rows, rhs)


def substituted(system: SubstitutionSystem, values: list, rhs: list) -> list[Fraction]:
    """A copy of ``values`` with each row's unknown solved in turn against ``rhs``."""
    values = list(values)
    for ((j, a), *rest), b in zip(system.rows, rhs):
        for c, v in rest:
            if values[c]:
                b -= v * values[c]
        values[j] = b / a if b else b
    return values


def solve_by_substitution(form, order: int, fibre_start: int) -> tuple[dict[MultiIndex, Fraction], list[MultiIndex]]:
    """The coefficients, in grlex insertion order, and the seeded parametric monomials of the substitution.

    The parametric coefficients below the order are shifted from their
    seeds (:func:`seed`) to clear every principal coefficient of degree
    ``order``, by one exact elimination over the top rows of one
    substitution per shifted coefficient against a zero right-hand side;
    the others keep their seeds.
    """
    system = substitution_rows(form, order)
    unknowns = system.unknowns
    solved = {row[0][0] for row in system.rows}
    free = [j for j in range(len(unknowns)) if j not in solved]
    values = [seed(unknowns[j], fibre_start) if j in free else Fraction(0) for j in range(len(unknowns))]
    if lower := [j for j in free if sum(unknowns[j]) < order]:
        top = [row[0][0] for row in system.rows if sum(unknowns[row[0][0]]) == order]
        base = substituted(system, values, system.rhs)
        zero = [Fraction(0)] * len(system.rhs)
        shifts = [substituted(system, [int(c == j) for c in range(len(unknowns))], zero) for j in lower]
        basis = reduce_rows([[shift[k] for shift in shifts] + [-base[k]] for k in top], len(lower) + 1)
        if all(col < len(lower) for _, col, _ in basis):
            for _, col, row in basis:
                values[lower[col]] += row[-1] / row[col]
                free.remove(lower[col])
    values = substituted(system, values, system.rhs)
    return {mi: v for mi, v in zip(unknowns, values) if v != 0}, [unknowns[j] for j in free]
