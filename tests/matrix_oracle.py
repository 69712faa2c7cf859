"""Matrix kernels as they ran before the shared Gauss-Jordan elimination, kept as test oracles.

:func:`liftlyap.poly.poly_det` and :func:`liftlyap.poly.poly_adjugate` take
a matrix whose entries are all constant through one exact elimination
instead of the cofactor expansion of every minor; :func:`cofactor_det` and
:func:`cofactor_adjugate` give the expansion's result, term order included,
on any square matrix.  :func:`forward_pivots` is the forward elimination
:func:`liftlyap.poly.origin_pivots` ran before it shared that elimination,
and :func:`dense_reduce_rows` is :func:`liftlyap.poly.reduce_rows` as it ran
before its row updates skipped the zero entries of the pivot row.

:func:`null_rows` and :func:`intersection_basis` are the float subspace
kernels the symbol ran on before it read G1 off the graph form; the symbol
and obstruction oracles still use them.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from liftlyap.numutil import RANK_RTOL, orth_rows
from liftlyap.poly import Poly, PolyMatrix


def forward_pivots(rows: list[list[Fraction]]) -> list[tuple[int, int]]:
    """(row, pivot column) of each row kept: reduced against the rows kept before it, kept if nonzero."""
    basis: list[tuple[int, int, list[Fraction]]] = []
    for i, row in enumerate(rows):
        for _, col, pivot in basis:
            if row[col]:
                factor = row[col] / pivot[col]
                row = [a - factor * b for a, b in zip(row, pivot)]
        if any(row):
            basis.append((i, next(j for j, a in enumerate(row) if a), row))
    return [(i, col) for i, col, _ in basis]


def dense_reduce_rows(rows: list[list[Fraction]], width: int) -> list[tuple[int, int, list[Fraction]]]:
    """Gauss-Jordan elimination in index order, each row update a - f * b taken at every entry."""
    basis: list[tuple[int, int, list[Fraction]]] = []
    for i, row in enumerate(rows):
        for _, col, pivot in basis:
            if row[col]:
                factor = row[col] / pivot[col]
                row = [a - factor * b for a, b in zip(row, pivot)]
        col = next((j for j in range(width) if row[j]), None)
        if col is None:
            continue
        for k, (kept, kept_col, earlier) in enumerate(basis):
            if earlier[col]:
                factor = earlier[col] / row[col]
                basis[k] = (kept, kept_col, [a - factor * b for a, b in zip(earlier, row)])
        basis.append((i, col, row))
    return basis


def _det(rows: list[list[Poly]], nvars: int) -> Poly:
    n = len(rows)
    if n == 0:
        return Poly.const(nvars, 1)
    if n == 1:
        return rows[0][0]
    if not all(any(row) for row in rows):
        return Poly.zero(nvars)
    total = Poly.zero(nvars)
    for j, top in enumerate(rows[0]):
        if top.is_zero():
            continue
        cof = top * _det([[row[k] for k in range(n) if k != j] for row in rows[1:]], nvars)
        total = total + (cof if j % 2 == 0 else -cof)
    return total


def cofactor_det(matrix: PolyMatrix) -> Poly:
    return _det([list(r) for r in matrix.entries], matrix.nvars)


def cofactor_adjugate(matrix: PolyMatrix) -> PolyMatrix:
    """Entry (i, j) is (-1)^(i+j) times the determinant of the minor without row j and column i."""
    n, rows = matrix.rows, matrix.entries
    out = []
    for i in range(n):
        out.append([])
        for j in range(n):
            cof = _det([[rows[a][b] for b in range(n) if b != i] for a in range(n) if a != j], matrix.nvars)
            out[i].append(cof if (i + j) % 2 == 0 else -cof)
    return PolyMatrix(out, cols=n, nvars=matrix.nvars)


def null_rows(a: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (as rows) of the null space {x : a @ x = 0}.

    ``scale`` has the same meaning as in :func:`liftlyap.numutil.numeric_rank`.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    u, s, vh = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(a.shape[1])
    return vh[int(np.sum(s > RANK_RTOL * (s[0] if scale is None else scale))) :]


def intersection_basis(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthonormal row basis of span(a) & span(b).

    x lies in both spans exactly when the projections onto both orthogonal
    complements kill it, so the intersection is the kernel of the stacked
    complement projectors.
    """
    pa = _complement_projector(a)
    pb = _complement_projector(b)
    # projectors are O(1), so rank against a unit scale: a stack that is all
    # roundoff must count as the zero map (full-space intersection)
    return null_rows(np.vstack([pa, pb]), scale=1.0)


def _complement_projector(a: np.ndarray) -> np.ndarray:
    basis = orth_rows(a)
    return np.eye(basis.shape[1]) - basis.T @ basis
