"""Obstruction-map oracles: the prolonged system and the curvature map.

The lift decides from the exact integrability conditions in
:mod:`liftlyap.integrability`.  The functions here evaluate, at one point,
the once-differentiated system and the obstruction values (G, H) those
conditions come from, so that tests can check the conditions against them.

:func:`liftlyap.integrability.pointwise_consistency` decides solvability on
the n x r system A a = -beta, A = P_VM^T C and beta = P_VM^T X.  Two
references check it: :func:`quotient_gap` on one point's scaled [A | beta]
must match its gap bit for bit and its verdict, and :func:`consistency_gap`
on one point's :func:`stacked_system`, the full m-column system
[Q; P_VM^T] y = (Q X, 0) for the gradient y of V, builds the system from
the complement instead and must give the same verdict.  They are kept as
test oracles only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from liftlyap.geometry import EhresmannConnection
from liftlyap.integrability import ResidualSystem, condition_a, condition_b
from liftlyap.numutil import RANK_RTOL, null_rows, numeric_rank
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
    m = rs.m
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
    dpvm_val = jacobians([rs.p_vm.col(q) for q in range(rs.n)])

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
    rows = PolyMatrix([*rs.p_d.entries, *(rs.p_vm.col(q) for q in range(rs.n))], cols=rs.m, nvars=rs.m)
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


def quotient_gap(aug: np.ndarray) -> tuple[bool, float]:
    """(consistent, gap) at one point from its (n, r + 1) [A | beta] rows, as
    :func:`liftlyap.integrability.quotient_rows` scales them, in plain 2-D numpy."""
    a, beta = aug[:, :-1], aug[:, -1]
    rank_a = numeric_rank(a, scale=1.0)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    u_k = u * (np.arange(s.size) < rank_a)
    gap = float(np.abs(u_k @ (u_k.T @ beta) - beta).sum())
    # rows longer than 1 shrink to unit length; shorter ones keep their size
    rank_aug = numeric_rank(aug / np.maximum(np.linalg.norm(aug, axis=1), 1.0)[:, None], scale=1.0)
    return rank_a == rank_aug, gap


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
    conn: EhresmannConnection,
    point: Sequence[float],
    v1: Sequence[float],
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
    if m_mat.size and np.max(np.abs(m_mat @ v1 - b)) > JET_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0))):
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
