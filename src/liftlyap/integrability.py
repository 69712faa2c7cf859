"""Integrability analysis of the first-order system defining the lift V.

V : R^m -> R must satisfy two blocks of linear first-order equations:

    D-block:   sum_i P_D[a][i] * (dV/dx^i - X^i) = 0      (a = 1..m-r)
    VM-block:  sum_i P_VM[i][q] * dV/dx^i = 0             (q = 1..n)

with P_D = Q / delta and delta(0) = 1 (geometry.build_projections).  The
verdict tests both blocks as one system, the rows L = [Q; P_VM^T] with
right-hand sides b = (Q X, 0), by Frobenius in graph form (Lee,
*Introduction to Smooth Manifolds*, 2nd ed., ch. 19; Seiler, *Involution*,
2010).  One exact elimination of [L(0) | I] (poly.reduce_rows) keeps rows
S with pivot columns P, and M = L[S, P] is invertible at the origin.  With
d = det M / det M(0) and adj(M) also divided by det M(0), the rows
G = adj(M) L_S read d * I on P, and near the origin the system is
(G_i / d)(V) = beta_i / d with beta = adj(M) b_S.  For a constant M (every
fixture and benchmark instance) d = 1 and G = M^-1 [L_S | b_S], with
M^-1 read off that same elimination, so no adjugate is formed.
Graph-form fields span an involutive distribution exactly when they
commute, whatever basis the rows came in, so condition A is
[G_i / d, G_j / d] = 0 and condition B is
(G_i / d)(beta_j / d) = (G_j / d)(beta_i / d) for every pair, D and VM rows
alike (both times d^3).  A row l outside S must satisfy
d L_l = sum_p L_l,p G_p identically (else the rank at the origin is below
the rank nearby), and consistency asks that its identity
d b_l - sum_p L_l,p beta_p be the zero polynomial.  Flatness of the
connection, the fibre part of [H_q2, H_q1] for the columns H_q of P_VM, is
tested as well.  All four are exact; A and B offenders are keyed by the
pivot coordinates of their graph rows, which do not depend on the
complement D, and the check grid only locates where an identity fails.

The symbol is reported and decides nothing.  It has a closed form (the
Cartan-test setting of Seiler, *Involution*, 2010).  With E and F the two
covector spans, G1 = E & F is the kernel of L(0), and so of G(0): m minus
the pivot count, with one kernel row per non-pivot column read off the
graph rows.  G2 = S^2 E & S^2 F is the set of symmetric matrices whose
column space lies in G1, so dim G2 = k(k+1)/2 for k = dim G1.  For a row
basis B of G1 and a coordinate order perm,
dim(G1 & Sigma_j) = k - rank B[:, perm[:j]] >= max(k - j, 0), so the
quasi-regularity identity holds exactly when B[:, perm[:k]] has rank k.
The first such order in lexicographic order is G1's pivot columns, picked
greedily in index order, followed by the other coordinates in ascending
order; one identity call certifies it.

Label conventions in returned mappings are 1-based; programmatic indices
are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import geometry
from .geometry import EhresmannConnection, FrameRankError
from .numutil import numeric_rank, orth_rows
from .poly import (
    Poly,
    PolyMatrix,
    eval_points,
    lie_brackets,
    lie_derivative,
    pivot_inverse,
    poly_adjugate,
    poly_det,
    poly_sum,
    reduce_rows,
    scaled,
)


@dataclass(frozen=True)
class ResidualSystem:
    """The data that fixes the PDE for V: the D-block rows ``p_d``, P_VM, and the target field X.

    ``p_d`` is the numerator of P_D from :func:`geometry.build_projections`
    (or a supplied P_D), ``p_vm`` the m-by-n P_VM of
    :func:`geometry.build_p_vm`; m and n are read off ``p_vm``.
    """

    p_d: PolyMatrix
    p_vm: PolyMatrix
    x_field: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.x_field) != self.p_vm.rows:
            raise ValueError("X must have one component per state variable")


def residual_psi(rs: ResidualSystem, v: Poly) -> tuple[list[Poly], list[Poly]]:
    """Exact residual blocks for a candidate V; both vanish iff V solves the PDE.

    The D-block is the P_D residual times delta.
    """
    p_d, p_vm = rs.p_d, rs.p_vm
    m = p_vm.rows
    if v.nvars != m:
        raise ValueError("V must be a polynomial in the m state variables")
    dv = [v.diff(i) for i in range(m)]
    d_block = [
        poly_sum((p_d.entry(a, i) * (dv[i] - rs.x_field[i]) for i in range(m)), m)
        for a in range(p_d.rows)
    ]
    vm_block = [
        poly_sum((p_vm.entry(i, q) * dv[i] for i in range(m)), m)
        for q in range(p_vm.cols)
    ]
    return d_block, vm_block


# -- structural conditions -----------------------------------------------------


def check_flatness(conn: EhresmannConnection) -> dict[tuple[int, int, int], Poly]:
    """Exact curvature test: the nonzero curvature components, none when the connection is flat."""
    components = geometry.curvature_components(conn)
    return {key: val for key, val in components.items() if not val.is_zero()}


@dataclass(frozen=True)
class GraphForm:
    """The stacked system near the origin, solved for its pivot coordinates (see the module docstring)."""

    pivots: tuple[int, ...]  # the pivot coordinate of each graph row, ascending (0-based)
    rows: PolyMatrix  # G, k x m: d on its own pivot column, 0 on the other pivot columns
    rhs: tuple[Poly, ...]  # beta
    den: Poly  # d, with d(0) = 1
    identities: tuple[Poly, ...]  # d b_l - sum_p L_l,p beta_p, one per row l that reduces to zero


def graph_form(rs: ResidualSystem) -> GraphForm:
    """Bring the stacked rows [Q; P_VM^T], with right-hand sides (Q X, 0), into graph form.

    One Fraction elimination of [L(0) | I] (:func:`poly.reduce_rows`, pivots
    searched in the first m columns) picks the rows S and pivot columns P.
    When M = L[S, P] is constant, M = M(0), so d = 1 and M^-1 is read off
    that elimination (:func:`poly.pivot_inverse`): the graph row for pivot p
    is the sum, over the rows of S in pivot-column order, of [L_s | b_s]
    times entry s of row p of M^-1, skipping zero coefficients and zero
    entries.  That is the term order the product adj(M) / det M(0) @
    [L_S | b_S] gives, since a product by a one-term constant scales in
    place.  A block with a polynomial entry takes det M and adj(M) by
    cofactor expansion, whose term order fixes the float sums downstream.

    Raises FrameRankError naming a row that reduces to zero at the origin but
    not identically: the rank is lower there than nearby, so no graph form holds.
    """
    m, d_rows = rs.p_vm.rows, rs.p_d.rows
    aug = [[*q, poly_sum((e * x for e, x in zip(q, rs.x_field) if e), m)] for q in rs.p_d.entries]
    aug += [[*rs.p_vm.col(j), Poly.zero(m)] for j in range(rs.p_vm.cols)]  # [L | b]
    one, zero = Fraction(1), Fraction(0)
    origin = [[p.constant_term for p in row[:m]] + [zero] * len(aug) for row in aug]  # [L(0) | I]
    for i, row in enumerate(origin):
        row[m + i] = one
    basis = sorted(reduce_rows(origin, m), key=lambda entry: entry[1])
    kept, cols = [i for i, _, _ in basis], [j for _, j, _ in basis]
    block = [[aug[i][j] for j in cols] for i in kept]
    if all(e.is_constant() for row in block for e in row):
        den = Poly.const(m, 1)
        inverse = pivot_inverse(basis, m)
        graph = []
        for col in cols:
            terms = [(a, aug[i]) for i in kept if (a := inverse[col][i])]
            graph.append([poly_sum((scaled(row[j], a) for a, row in terms if row[j]), m) for j in range(m + 1)])
    else:
        block = PolyMatrix(block)
        det = poly_det(block)
        scale = 1 / det.constant_term
        den = det * scale
        graph = [list(row) for row in (poly_adjugate(block).scale(scale) @ PolyMatrix([aug[i] for i in kept])).entries]
    identities = []
    for l in sorted(set(range(len(aug))) - set(kept)):
        reduced = (PolyMatrix([[den, *(-aug[l][j] for j in cols)]]) @ PolyMatrix([aug[l], *graph])).entries[0]
        if any(reduced[:m]):
            label = f"d[{l + 1}]" if l < d_rows else f"vm[{l - d_rows + 1}]"
            raise FrameRankError(
                f"the lift system has a lower rank at the origin than nearby: row {label} reduces to zero there only"
            )
        identities.append(reduced[m])
    rhs = tuple(row.pop() for row in graph)
    return GraphForm(tuple(cols), PolyMatrix(graph), rhs, den, tuple(identities))


def condition_a(rows: PolyMatrix, den: Poly) -> dict[tuple[int, int, int], Poly]:
    """Involutivity of the fields G_a / den, with G_a = sum_i rows[a][i] d/dx^i.

    Entry (a1, a2, i1), with 1-based labels and a1 < a2, is den^3 times
    component i1 of the Lie bracket [G_a1 / den, G_a2 / den], which is the
    polynomial

        den * [G_a1, G_a2]^i1 - (G[a2][i1] G_a1(den) - G[a1][i1] G_a2(den))

    The condition holds when every entry is identically zero; with fewer
    than two rows it is vacuous.  Constant fields and a constant den
    commute, so then every entry is zero and no bracket is formed.
    """
    g = rows.entries
    pairs = [(a1, a2) for a1 in range(rows.rows) for a2 in range(a1 + 1, rows.rows)]
    if den.is_constant() and all(e.is_constant() for row in g for e in row):
        zero = Poly.zero(rows.nvars)
        return {(a1 + 1, a2 + 1, i1 + 1): zero for a1, a2 in pairs for i1 in range(rows.cols)}
    along = None if den.is_constant() else [lie_derivative(row, den) for row in g]  # G_a(den)
    out: dict[tuple[int, int, int], Poly] = {}
    for (a1, a2), bracket in zip(pairs, lie_brackets(g, pairs)):
        for i1, entry in enumerate(bracket):
            if along is not None:
                entry = den * entry - (g[a2][i1] * along[a1] - g[a1][i1] * along[a2])
            out[(a1 + 1, a2 + 1, i1 + 1)] = entry
    return out


def condition_b(rows: PolyMatrix, rhs: Sequence[Poly], den: Poly) -> dict[tuple[int, int], Poly]:
    """Compatibility of the system (G_a / den)(V) = rhs[a] / den, G_a as in :func:`condition_a`.

    Entry (a1, a2), a1 < a2 (1-based), is den^3 times
    (G_a1 / den)(rhs[a2] / den) - (G_a2 / den)(rhs[a1] / den), the polynomial

        den * (G_a1(rhs[a2]) - G_a2(rhs[a1])) - (rhs[a2] G_a1(den) - rhs[a1] G_a2(den))
    """
    g = rows.entries
    along = None if den.is_constant() else [lie_derivative(row, den) for row in g]
    out: dict[tuple[int, int], Poly] = {}
    for a1 in range(rows.rows):
        for a2 in range(a1 + 1, rows.rows):
            entry = lie_derivative(g[a1], rhs[a2]) - lie_derivative(g[a2], rhs[a1])
            if along is not None:
                entry = den * entry - (rhs[a2] * along[a1] - rhs[a1] * along[a2])
            out[(a1 + 1, a2 + 1)] = entry
    return out


# -- consistency -----------------------------------------------------------------


@dataclass
class ConsistencyReport:
    consistent: bool
    worst_gap: float
    worst_point: tuple[float, ...] | None
    failures: list[tuple[tuple[float, ...], float]]


def pointwise_consistency(form: GraphForm, points: np.ndarray) -> ConsistencyReport:
    """Consistency from the exact identities, and where they fail on the (P, m) float check grid.

    The system is consistent when every identity is the zero polynomial;
    then the grid is not evaluated.  The gap at a point is the sum of
    |identity| there, and the points with a nonzero gap are the failures.
    """
    identities = [p for p in form.identities if p]
    if not identities:
        return ConsistencyReport(True, 0.0, None, [])
    gaps = np.abs(eval_points(identities, points)).sum(axis=-1)
    failures = [(tuple(points[i].tolist()), float(gaps[i])) for i in np.flatnonzero(gaps)]
    worst = int(np.argmax(gaps))  # the first largest gap in grid order
    worst_point = tuple(points[worst].tolist()) if gaps[worst] > 0.0 else None
    return ConsistencyReport(False, float(gaps[worst]), worst_point, failures)


# -- symbol dimensions and the involutivity bookkeeping -----------------------


@dataclass(frozen=True)
class SymbolDims:
    dim_g1: int
    dim_g2: int
    quasi_regular: bool
    permutation: tuple[int, ...] | None  # 1-based coordinate order, when one works


def quasi_regular_identity(g1_basis: np.ndarray, dim_g2: int, perm: Sequence[int]) -> bool:
    """Dimension identity certifying a quasi-regular coordinate order.

    With Sigma_j the span of the coordinate covectors after position j of
    ``perm``, a permutation of range(m), checks

        dim_g2 == dim(G1) + sum_{j=1..m-1} dim(G1 & Sigma_j)

    each intersection counted as rank(G1) + rank(Sigma_j) - rank([G1; Sigma_j]).
    rank(G1) is one SVD, read for every j; a basis with no rows has rank
    0 without one.  When it is 0, every intersection is 0 and no other SVD
    runs.  Sigma_j is spanned by m - j distinct unit covectors, whose
    singular values are all 1, so its rank is m - j without an SVD.  The
    m - 1 stacked ranks are SVDs.
    """
    m = len(perm)
    if not len(g1_basis):
        return dim_g2 == 0
    dim_g1 = numeric_rank(g1_basis)
    if dim_g1 == 0:
        return dim_g2 == 0
    basis_rows = np.eye(m)[list(perm)]
    total = dim_g1
    for j in range(1, m):
        total += dim_g1 + (m - j) - numeric_rank(np.vstack([g1_basis, basis_rows[j:]]))
    return total == dim_g2


def symbol_dims(form: GraphForm) -> SymbolDims:
    """Symbol dimensions of the lift system at the origin, from its graph form.

    G1 = ker G(0): each non-pivot column f gives the kernel row with 1 at f
    and -G(0)[i][f] at the pivot of graph row i.  The coordinate order leads
    with the pivot columns of an orthonormal basis of G1, picked greedily in
    index order, then lists the other coordinates in ascending order; it is
    the first order, lexicographically, that satisfies the identity, and one
    identity call certifies it (reported 1-based when it holds).  An empty
    G1 is its own basis, with no rows, and needs no orthonormalizing.
    """
    m = form.den.nvars
    dim_g1 = m - len(form.pivots)
    kernel = np.zeros((dim_g1, m))
    for row, f in enumerate(f for f in range(m) if f not in form.pivots):
        kernel[row, f] = 1.0
        kernel[row, list(form.pivots)] = [-float(g[f].constant_term) for g in form.rows.entries]
    g1_basis = orth_rows(kernel) if dim_g1 else kernel
    lead: list[int] = []
    for i in range(m):
        if len(lead) == dim_g1:
            break
        # g1_basis rows are orthonormal, so a column of pure roundoff must rank 0
        if numeric_rank(g1_basis[:, lead + [i]], scale=1.0) > len(lead):
            lead.append(i)
    perm = lead + [i for i in range(m) if i not in lead]
    dim_g2 = dim_g1 * (dim_g1 + 1) // 2
    quasi_regular = quasi_regular_identity(g1_basis, dim_g2, perm)
    return SymbolDims(dim_g1, dim_g2, quasi_regular, tuple(p + 1 for p in perm) if quasi_regular else None)


# -- aggregate verdict ---------------------------------------------------------


@dataclass
class IntegrabilityReport:
    """Each condition holds when it has no offenders."""

    flat_offenders: dict[tuple[int, int, int], Poly]
    cond_a_offenders: dict[tuple[int, int, int], Poly]
    cond_b_offenders: dict[tuple[int, int], Poly]
    consistency: ConsistencyReport
    symbol: SymbolDims
    form: GraphForm  # the lift solves these rows when the verdict is LIFTABLE

    @property
    def liftable(self) -> bool:
        return not self.reasons

    @property
    def verdict(self) -> str:
        return "LIFTABLE" if self.liftable else "NOT_LIFTABLE"

    @property
    def reasons(self) -> list[str]:
        out = []
        if self.flat_offenders:
            out.append("flatness")
        if self.cond_a_offenders:
            out.append("condition_a")
        if self.cond_b_offenders:
            out.append("condition_b")
        if not self.consistency.consistent:
            out.append("consistency")
        return out


def full_check(rs: ResidualSystem, conn: EhresmannConnection, points: np.ndarray) -> IntegrabilityReport:
    """Run every obstruction test and aggregate the verdict; A and B offenders are keyed by graph row pivots."""
    flat_offenders = check_flatness(conn)
    form = graph_form(rs)
    label = [p + 1 for p in form.pivots]
    a_entries = condition_a(form.rows, form.den)
    a_offenders = {(label[a1 - 1], label[a2 - 1], i1): val for (a1, a2, i1), val in a_entries.items() if val}
    b_entries = condition_b(form.rows, form.rhs, form.den)
    b_offenders = {(label[a1 - 1], label[a2 - 1]): val for (a1, a2), val in b_entries.items() if val}
    consistency = pointwise_consistency(form, points)
    symbol = symbol_dims(form)
    return IntegrabilityReport(flat_offenders, a_offenders, b_offenders, consistency, symbol, form)
