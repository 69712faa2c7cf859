"""The lift as it was solved before forward substitution on the graph form, kept as a test oracle.

:func:`dense_reference_system` builds the full linear system in the Taylor
coefficients of V: both residual blocks of
:func:`liftlyap.integrability.residual_psi` through degree order-1, one row
per block component and monomial, read densely from one ``residual_psi``
call per unknown.  :func:`solve_exact` is the sparse row-ordered elimination
that solved it; its free columns are its non-lead columns, so they need not
be the parametric monomials that :func:`liftlyap.lift.solve_jets` seeds.
:func:`dense_substitution_rows` builds the rows of
:func:`liftlyap.lift.assemble_lift_system` from polynomial products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from liftlyap.integrability import residual_psi
from liftlyap.lift import monomials_up_to
from liftlyap.poly import MultiIndex, Poly, lie_derivative

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
