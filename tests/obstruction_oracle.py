"""Obstruction-map oracles: the prolonged system and the curvature map.

The lift decides from the exact integrability conditions in
:mod:`liftlyap.integrability`.  The functions here evaluate, at one point,
the once-differentiated system and the obstruction values (G, H) those
conditions come from, so that tests can check the conditions against them.

:func:`liftlyap.integrability.pointwise_consistency` decides solvability
from exact identities of the stacked system in graph form.
:func:`consistency_gap` decides it at one point from the float values of
:func:`stacked_system`, the full m-column system [Q; P_VM^T] y = (Q X, 0)
for the gradient y of V, by comparing the numeric ranks of M and [M | b];
the identities must vanish exactly at the points it calls consistent.  It
is kept as a test oracle only.

:func:`adjugate_graph_form` is :func:`liftlyap.integrability.graph_form` as
it ran before it read M^-1 off its elimination of [L(0) | I]: the pivots of
L(0) by forward elimination, det M and adj(M) by cofactor expansion, and
G = adj(M) / det M(0) @ [L_S | b_S] as a dense product.  ``graph_form``
must return the same form, term order included.

The package reads flatness and conditions A and B as Lie brackets and the
horizontal lift as P_VM w.  :func:`condition_a_by_sums`,
:func:`condition_b_by_sums`, :func:`curvature_by_sums` and
:func:`horizontal_lift_by_sums` expand the same quantities into index sums
by hand and must return equal polynomials.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from matrix_oracle import cofactor_adjugate, cofactor_det, forward_pivots, null_rows

from liftlyap.geometry import EhresmannConnection, FrameRankError
from liftlyap.integrability import GraphForm, ResidualSystem, condition_a, condition_b
from liftlyap.numutil import RANK_RTOL, numeric_rank
from liftlyap.poly import Poly, PolyMatrix, eval_points, poly_sum

JET_SYMMETRY_TOL = 1e-12  # largest asymmetry a second-order jet may carry
JET_TOL = 1e-8  # relative constraint violation a first-order jet may carry


class InconsistentJetError(ValueError):
    """A supplied first-order jet violates the pointwise constraints."""


def prolonged_residual(
    rs: ResidualSystem,
    point: Sequence[float],
    v1: Sequence[float],
    v2: np.ndarray,
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
    m = rs.p_vm.rows
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if v1.shape != (m,) or v2.shape != (m, m):
        raise ValueError("jet shapes must be (m,) and (m, m)")
    if np.max(np.abs(v2 - v2.T)) > JET_SYMMETRY_TOL:
        raise ValueError("second-order jet must be symmetric")

    def jacobians(rows) -> np.ndarray:  # entry [r, i, i1] is d(rows[r][i1])/dx^i
        derivs = [e.diff(i) for row in rows for i in range(m) for e in row]
        return eval_points(derivs, point).reshape(len(rows), m, m)

    pd_val = p_d.at(point)
    pvm_val = rs.p_vm.at(point)
    x_val = eval_points(rs.x_field, point)
    dx_val = jacobians([rs.x_field])[0]
    dpd_val = jacobians(p_d.entries)
    dpvm_val = jacobians([rs.p_vm.col(q) for q in range(rs.p_vm.cols)])

    d_block = pd_val @ (v1 - x_val)
    vm_block = pvm_val.T @ v1
    d1 = pd_val @ v2.T + dpd_val @ (v1 - x_val) - pd_val @ dx_val.T
    vm1 = dpvm_val @ v1 + pvm_val.T @ v2.T
    return {"d": d_block, "vm": vm_block, "d1": d1, "vm1": vm1}


def stacked_system(rs: ResidualSystem, points) -> tuple[np.ndarray, np.ndarray]:
    """Linear constraints M @ (V_1..V_m) = b on the gradient of V.

    At points (..., m), M is (..., rows, m) and b (..., rows): the D rows,
    then one row per column of P_VM.  The D rows are those of P_D times
    delta(point), which leaves the solution set unchanged wherever
    delta(point) is nonzero.
    """
    m, n = rs.p_vm.rows, rs.p_vm.cols
    rows = PolyMatrix([*rs.p_d.entries, *(rs.p_vm.col(q) for q in range(n))], cols=m, nvars=m)
    m_mat = rows.at(points)
    x_val = eval_points(rs.x_field, points)
    b = np.zeros(m_mat.shape[:-1])
    b[..., : rs.p_d.rows] = (m_mat[..., : rs.p_d.rows, :] @ x_val[..., None])[..., 0]
    return m_mat, b


def consistency_gap(m_mat: np.ndarray, b: np.ndarray) -> tuple[bool, float]:
    norms = np.array([np.linalg.norm(row) for row in m_mat])
    zero = norms <= 1e-300
    violated = np.flatnonzero(zero & (np.abs(b) > RANK_RTOL))
    if violated.size:
        return False, abs(b[violated[0]])
    if zero.all():
        return True, 0.0
    m_norm = m_mat[~zero] / norms[~zero, None]
    b_norm = b[~zero] / norms[~zero]
    rank_m = numeric_rank(m_norm)
    # [M | b] is ranked on unit rows, so a large b cannot drown M; no row is zero here
    aug = np.hstack([m_norm, b_norm[:, None]])
    rank_aug = numeric_rank(aug / np.linalg.norm(aug, axis=1)[:, None])
    # the least-squares residual at rank rank_m: U_k U_k^T b - b over the kept singular vectors
    u, s, _ = np.linalg.svd(m_norm, full_matrices=False)
    u_k = u * (np.arange(s.size) < rank_m)
    gap = float(np.abs(u_k @ (u_k.T @ b_norm) - b_norm).sum())
    return rank_m == rank_aug, gap


def consistency_gap_at(rs: ResidualSystem, point: Sequence[float]) -> tuple[bool, float]:
    """Solvability of the gradient constraints at one point.

    Returns (consistent, gap).  Rows are normalized to unit length and the
    gap is the total absolute violation of the least-squares gradient at the
    numeric rank of M, so two directly contradictory unit equations report
    the distance between their right-hand sides.
    """
    return consistency_gap(*stacked_system(rs, point))


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
    delta: Poly,
    point: Sequence[float],
    v1: Sequence[float],
) -> tuple[dict[tuple[int, int], float], dict[tuple[int, int], float]]:
    """Obstruction values (G, H) at a consistent first-order jet.

    G is [P_a1, P_a2] . V_1 - (P_a1(P_a2 . X) - P_a2(P_a1 . X)) for the rows
    P_a = Q_a / delta of P_D, with Q = ``rs.p_d`` and delta = det[C | D] /
    det[C | D](0) (``conftest.projection_delta``): the condition-A
    polynomials contracted with the jet minus the condition-B polynomials of the D rows with right-hand
    sides Q X, both delta^3 times their P_D values, divided by
    delta(point)^3.  H contracts the VM curvature coefficients with the
    jet.  When flatness and conditions A and B hold
    identically, every coefficient polynomial is exactly zero and so are
    the returned values, for any consistent jet at any point.
    """
    p_d = rs.p_d
    m, n = rs.p_vm.rows, rs.p_vm.cols
    v1 = np.asarray(v1, dtype=float)
    m_mat, b = stacked_system(rs, point)
    if m_mat.size and np.max(np.abs(m_mat @ v1 - b)) > JET_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0))):
        raise InconsistentJetError("jet does not satisfy the first-order constraints at the point")
    a_entries = condition_a(p_d, delta)
    b_entries = condition_b(p_d, p_d.matvec(rs.x_field), delta)
    delta_at = delta.eval_float(point)
    g_map: dict[tuple[int, int], float] = {}
    for a1 in range(p_d.rows):
        for a2 in range(a1 + 1, p_d.rows):
            total = -b_entries[(a1 + 1, a2 + 1)].eval_float(point)
            for i1 in range(m):
                total += a_entries[(a1 + 1, a2 + 1, i1 + 1)].eval_float(point) * v1[i1]
            g_map[(a1 + 1, a2 + 1)] = total / delta_at**3
    h_coeffs = vm_curvature_coeffs(rs.p_vm)
    h_map: dict[tuple[int, int], float] = {}
    for q1 in range(n):
        for q2 in range(q1 + 1, n):
            total = 0.0
            for i1 in range(m):
                total += h_coeffs[(q1 + 1, q2 + 1, i1 + 1)].eval_float(point) * v1[i1]
            h_map[(q1 + 1, q2 + 1)] = total
    return g_map, h_map


# -- the graph form by the adjugate ---------------------------------------------


def adjugate_graph_form(rs: ResidualSystem) -> GraphForm:
    """The stacked rows [Q; P_VM^T] with right-hand sides (Q X, 0) in graph form, by cofactors.

    Raises FrameRankError, with graph_form's message, for a row that reduces
    to zero at the origin but not identically.
    """
    m, d_rows = rs.p_vm.rows, rs.p_d.rows
    aug = [[*q, poly_sum((e * x for e, x in zip(q, rs.x_field) if e), m)] for q in rs.p_d.entries]
    aug += [[*rs.p_vm.col(j), Poly.zero(m)] for j in range(rs.p_vm.cols)]  # [L | b]
    pivots = sorted(forward_pivots([[p.constant_term for p in row[:m]] for row in aug]), key=lambda pivot: pivot[1])
    kept, cols = [i for i, _ in pivots], [j for _, j in pivots]
    block = PolyMatrix([[aug[i][j] for j in cols] for i in kept])
    det = cofactor_det(block)
    scale = 1 / det.constant_term
    den = det * scale
    graph = [list(row) for row in (cofactor_adjugate(block).scale(scale) @ PolyMatrix([aug[i] for i in kept])).entries]
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


# -- the obstructions expanded into index sums ---------------------------------


def condition_a_by_sums(p_d: PolyMatrix, delta: Poly) -> dict[tuple[int, int, int], Poly]:
    """:func:`liftlyap.integrability.condition_a` expanded by hand.

    Entry (a1, a2, i1) is

        delta * sum_i [ Q[a1][i] d(Q[a2][i1])/dx^i - Q[a2][i] d(Q[a1][i1])/dx^i ]
        - sum_i [ Q[a1][i] Q[a2][i1] - Q[a2][i] Q[a1][i1] ] d(delta)/dx^i
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


def condition_b_by_sums(rows: PolyMatrix, rhs: Sequence[Poly], den: Poly) -> dict[tuple[int, int], Poly]:
    """:func:`liftlyap.integrability.condition_b` expanded by hand: entry (a1, a2) is

        den * sum_i [ G[a1][i] d(rhs[a2])/dx^i - G[a2][i] d(rhs[a1])/dx^i ]
        - sum_i [ rhs[a2] G[a1][i] - rhs[a1] G[a2][i] ] d(den)/dx^i
    """
    m = rows.cols
    d_den = [(i, dd) for i in range(m) if not (dd := den.diff(i)).is_zero()]
    out: dict[tuple[int, int], Poly] = {}
    for a1 in range(rows.rows):
        for a2 in range(a1 + 1, rows.rows):
            entry = poly_sum(
                (rows.entry(a1, i) * rhs[a2].diff(i) - rows.entry(a2, i) * rhs[a1].diff(i) for i in range(m)),
                rows.nvars,
            )
            if not den.is_constant():
                entry = den * entry
            for i, dd in d_den:
                entry = entry - (rhs[a2] * rows.entry(a1, i) - rhs[a1] * rows.entry(a2, i)) * dd
            out[(a1 + 1, a2 + 1)] = entry
    return out


def horizontal_lift_by_sums(conn: EhresmannConnection, w: Sequence[Poly]) -> list[Poly]:
    """:func:`liftlyap.geometry.horizontal_lift` expanded by hand: base slot q
    carries w^q and fibre slot p carries sum_q gamma^p_q * w^q."""
    m, n = conn.m, conn.n
    if len(w) != n:
        raise ValueError(f"expected {n} base components, got {len(w)}")
    lifted_base = []
    for comp in w:
        if comp.nvars != n:
            raise ValueError("base components must be polynomials in the n base variables")
        lifted_base.append(comp.embed(m))
    out = list(lifted_base)
    for p in range(m - n):
        out.append(poly_sum((g * w for g, w in zip(conn.gamma[p], lifted_base)), m))
    return out


def curvature_by_sums(conn: EhresmannConnection) -> dict[tuple[int, int, int], Poly]:
    """:func:`liftlyap.geometry.curvature_components` expanded by hand:

        F^l_(q1,q2) = d(gamma^l_q1)/dx^q2 - d(gamma^l_q2)/dx^q1
                      + sum_l1 [ gamma^l1_q2 * d(gamma^l_q1)/dx^l1
                                 - gamma^l1_q1 * d(gamma^l_q2)/dx^l1 ]
    """
    m, n = conn.m, conn.n
    out: dict[tuple[int, int, int], Poly] = {}
    for p in range(m - n):
        g_l = conn.gamma[p]
        for q1 in range(n):
            for q2 in range(q1 + 1, n):
                comp = g_l[q1].diff(q2) - g_l[q2].diff(q1)
                for l1 in range(m - n):
                    comp = comp + conn.gamma[l1][q2] * g_l[q1].diff(n + l1)
                    comp = comp - conn.gamma[l1][q1] * g_l[q2].diff(n + l1)
                out[(n + 1 + p, q1 + 1, q2 + 1)] = comp
    return out
