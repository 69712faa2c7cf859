"""Matrix kernels as they ran before the shared Gauss-Jordan elimination, kept as test oracles.

:func:`liftlyap.poly.poly_det` and :func:`liftlyap.poly.poly_adjugate` take
a matrix whose entries are all constant through one exact elimination
instead of the cofactor expansion of every minor; :func:`cofactor_det` and
:func:`cofactor_adjugate` give the expansion's result, term order included,
on any square matrix.  :func:`forward_pivots` is the forward elimination
:func:`liftlyap.poly.origin_pivots` ran before it shared that elimination.
"""

from __future__ import annotations

from fractions import Fraction

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
