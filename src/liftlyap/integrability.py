"""Integrability analysis of the first-order system defining the lift V.

The unknown V : R^m -> R must satisfy two blocks of linear first-order
equations:

    D-block:   sum_i P_D[a][i] * (dV/dx^i - X^i) = 0      (a = 1..m-r)
    VM-block:  sum_i P_VM[i][q] * dV/dx^i = 0             (q = 1..n)

P_D = Q / delta with Q and delta polynomial and delta(0) = 1 (see
geometry.build_projections).  The exact checks work on Q: the D-block
times delta, condition B times delta^2 and condition A times delta^3 are
polynomials.  delta is not the zero polynomial, so each is identically
zero exactly when its P_D form is.

This module evaluates those residuals, the structural obstruction terms
(connection curvature, the two antisymmetric coefficient conditions),
pointwise solvability of the first-order constraints, and the symbol
dimension bookkeeping behind the involutivity test.  The verdict LIFTABLE
means every obstruction vanishes; each failed check carries a concrete
witness.

Pointwise solvability is decided on the n x r system P_VM^T C a = -P_VM^T X,
which reads neither D nor P_D, with one stacked SVD of each of A = P_VM^T C
and [A | beta] over the check grid, ranked against a unit scale on rows
divided by a bound that cannot vanish (see :func:`pointwise_consistency`).

The symbol is reported and decides nothing.  It has a closed form (the
Cartan-test setting of Seiler, *Involution*, 2010).  With E and F the two
covector spans, G1 = E & F, and G2 = S^2 E & S^2 F is the set of symmetric
matrices whose column space lies in G1, so dim G2 = k(k+1)/2 for
k = dim G1.  For a row basis B of G1 and a coordinate order perm,
dim(G1 & Sigma_j) = k - rank B[:, perm[:j]] >= max(k - j, 0), so the
quasi-regularity identity holds exactly when B[:, perm[:k]] has rank k.
The first such order in lexicographic order is G1's pivot columns, picked
greedily in index order, followed by the other coordinates in ascending
order; one identity call certifies it.

Label conventions in returned mappings are 1-based; programmatic indices
are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import geometry
from .geometry import EhresmannConnection, Frame, ProjectionPair
from .numutil import intersection_basis, intersection_dim, least_squares_gap, null_rows, numeric_rank
from .poly import Poly, PolyMatrix, poly_sum


@dataclass(frozen=True)
class ResidualSystem:
    """Projection data plus the target field X, fixing the PDE for V; consistency reads only C, P_VM and X."""

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


@dataclass
class ConsistencyReport:
    consistent: bool
    worst_gap: float
    worst_point: tuple[float, ...] | None
    failures: list[tuple[tuple[float, ...], float]] = field(default_factory=list)


def quotient_rows(rs: ResidualSystem, points) -> np.ndarray:
    """[A | beta] (..., n, r + 1) at points (..., m), row q divided by |P_VM column q| * |C|_F.

    The divisor bounds the norm of row q of A and does not vanish on the
    check grid, where P_VM has its identity block and C has full rank, so a
    row of A that is exactly zero stays at roundoff.
    """
    m, n = rs.m, rs.n
    rows = PolyMatrix([*(rs.p_vm.col(q) for q in range(n)), *rs.pair.c_frame.fields, rs.x_field], cols=m, nvars=m)
    values = rows.at(points)
    p_vm_t, c_x_t = values[..., :n, :], values[..., n:, :]  # P_VM^T, then [C | X]^T
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises OverflowError below
        p_norms = np.hypot.reduce(p_vm_t, axis=-1)  # hypot: no overflow in the squares
        c_norms = np.hypot.reduce(c_x_t[..., :-1, :].reshape(*values.shape[:-2], -1), axis=-1)
        aug = (p_vm_t / p_norms[..., None]) @ (c_x_t / c_norms[..., None, None]).swapaxes(-1, -2)
    if not (np.isfinite(p_norms).all() and np.isfinite(c_norms).all() and np.isfinite(aug).all()):
        raise OverflowError("a row of the consistency system is beyond the float range")
    return aug


def pointwise_consistency(rs: ResidualSystem, points: np.ndarray) -> ConsistencyReport:
    """Check gradient-constraint solvability at every point of the (P, m) float check grid.

    Where [C | D] is invertible, the D-block says grad V = X + C a for some
    a in R^r, and the VM-block then reads A a = -beta with A = P_VM^T C
    (n x r) and beta = P_VM^T X.  On the rows of :func:`quotient_rows`, one
    SVD gives rank A = k against a unit scale and the gap
    sum |U_k U_k^T beta - beta|, the least-squares violation at rank k.
    Rows longer than 1 are then shrunk to unit length, since the SVD's
    roundoff grows with the largest entry, and [A | beta] is ranked against
    the same scale.  A point is consistent when the two ranks agree.
    """
    aug = quotient_rows(rs, points)
    rank_a, gaps = least_squares_gap(aug[..., :-1], aug[..., -1])
    aug /= np.maximum(np.hypot.reduce(aug, axis=-1), 1.0)[..., None]
    consistent = rank_a == numeric_rank(aug, scale=1.0)
    failures = [(tuple(points[i].tolist()), float(gaps[i])) for i in np.flatnonzero(~consistent)]
    worst = int(np.argmax(gaps))  # the first largest gap in grid order
    worst_point = tuple(points[worst].tolist()) if gaps[worst] > 0.0 else None
    return ConsistencyReport(not failures, float(gaps[worst]) if worst_point else 0.0, worst_point, failures)


# -- symbol dimensions and the involutivity bookkeeping -----------------------


@dataclass(frozen=True)
class SymbolDims:
    dim_g1: int
    dim_g2: int
    quasi_regular: bool
    permutation: tuple[int, ...] | None  # 1-based coordinate order, when one works


def quasi_regular_identity(g1_basis: np.ndarray, dim_g2: int, basis_rows: np.ndarray) -> bool:
    """Dimension identity certifying a quasi-regular basis.

    With Sigma_j the span of the basis covectors after position j, checks

        dim_g2 == dim(G1) + sum_{j=1..m-1} dim(G1 & Sigma_j)
    """
    m = basis_rows.shape[0]
    dim_g1 = numeric_rank(g1_basis)
    total = dim_g1
    for j in range(1, m):
        total += intersection_dim(g1_basis, basis_rows[j:])
    return total == dim_g2


def quasi_regular_search(e_span: np.ndarray, f_span: np.ndarray) -> SymbolDims:
    """Symbol dimensions for a covector-subspace pair, in closed form.

    G1 is the intersection of the two spans and dim G2 = k(k+1)/2 with
    k = dim G1.  The coordinate order leads with G1's pivot columns, picked
    greedily in index order, then lists the other coordinates in ascending
    order; it is the first order, lexicographically, that satisfies the
    identity, and one identity call certifies it (reported 1-based when it
    holds).
    """
    e_span = np.atleast_2d(np.asarray(e_span, dtype=float))
    m = e_span.shape[1]
    dim_g1 = intersection_dim(e_span, f_span)
    g1_basis = intersection_basis(e_span, f_span)
    lead: list[int] = []
    for i in range(m):
        if len(lead) == dim_g1:
            break
        # g1_basis rows are orthonormal, so a column of pure roundoff must rank 0
        if numeric_rank(g1_basis[:, lead + [i]], scale=1.0) > len(lead):
            lead.append(i)
    perm = lead + [i for i in range(m) if i not in lead]
    dim_g2 = dim_g1 * (dim_g1 + 1) // 2
    quasi_regular = quasi_regular_identity(g1_basis, dim_g2, np.eye(m)[perm])
    return SymbolDims(dim_g1, dim_g2, quasi_regular, tuple(p + 1 for p in perm) if quasi_regular else None)


def symbol_dims(c_frame: Frame, p_vm: PolyMatrix, point: Sequence[float]) -> SymbolDims:
    """Symbol dimensions of the lift system at a point.

    E* is spanned by the control directions viewed as covectors and F* is
    the annihilator of the horizontal subspace, i.e. the kernel of P_VM
    transposed.
    """
    e_span = c_frame.as_matrix().at(point).T  # rows span E*
    f_span = null_rows(p_vm.at(point).T)
    return quasi_regular_search(e_span, f_span)


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


def full_check(rs: ResidualSystem, conn: EhresmannConnection, points: np.ndarray) -> IntegrabilityReport:
    """Run every obstruction test and aggregate the verdict."""
    m = rs.m
    flat, flat_offenders = check_flatness(conn)
    a_entries = condition_a(rs.p_d, rs.delta)
    a_offenders = {key: val for key, val in a_entries.items() if not val.is_zero()}
    b_entries = condition_b(rs.p_d, rs.x_field)
    b_offenders = {key: val for key, val in b_entries.items() if not val.is_zero()}
    consistency = pointwise_consistency(rs, points)
    origin = [0.0] * m
    symbol = symbol_dims(rs.pair.c_frame, rs.pair.p_vm, origin)
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
