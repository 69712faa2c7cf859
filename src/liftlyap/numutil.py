"""Floating-point linear algebra helpers shared by the geometric checks.

Subspaces of R^m are represented by row-stacked spanning matrices; ranks
use a singular-value cutoff relative to the largest singular value
(default 1e-9), which is the one numeric tolerance the symbolic layers
cannot avoid.  :func:`numeric_rank` ranks a stack of matrices in one SVD.
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-9


def numeric_rank(a: np.ndarray, rtol: float = RANK_RTOL, scale: float | None = None) -> int | np.ndarray:
    """Singular values below rtol * scale count as zero.

    One matrix gives an ``int``; a stack (..., rows, cols) gives an integer
    array (...) of per-matrix ranks.  The default scale is each matrix's
    largest singular value; pass an explicit scale when the matrix is built
    from O(scale) data and may be entirely roundoff (a relative cutoff
    would then mistake noise for full rank).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        ranks = np.zeros(a.shape[:-2], dtype=int)
    else:
        s = np.linalg.svd(a, compute_uv=False)
        cutoff = rtol * (s[..., :1] if scale is None else scale)
        ranks = np.sum(s > cutoff, axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def orth_rows(a: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of ``a``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return np.zeros((0, a.shape[1] if a.ndim == 2 else 0))
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, a.shape[1]))
    r = int(np.sum(s > rtol * s[0]))
    return vh[:r]


def null_rows(a: np.ndarray, rtol: float = RANK_RTOL, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (as rows) of the null space {x : a @ x = 0}.

    ``scale`` has the same meaning as in :func:`numeric_rank`.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    cols = a.shape[1]
    if a.shape[0] == 0:
        return np.eye(cols)
    u, s, vh = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(cols)
    cutoff = rtol * (s[0] if scale is None else scale)
    r = int(np.sum(s > cutoff))
    return vh[r:]


def intersection_dim(a: np.ndarray, b: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """dim(span(a) & span(b)) via rank(a) + rank(b) - rank([a; b])."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    ra = numeric_rank(a, rtol)
    rb = numeric_rank(b, rtol)
    if ra == 0 or rb == 0:
        return 0
    stacked = np.vstack([a, b])
    return ra + rb - numeric_rank(stacked, rtol)


def intersection_basis(a: np.ndarray, b: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal row basis of span(a) & span(b).

    x lies in both spans exactly when the projections onto both orthogonal
    complements kill it, so the intersection is the kernel of the stacked
    complement projectors.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    pa = _complement_projector(a, rtol)
    pb = _complement_projector(b, rtol)
    # projectors are O(1), so rank against a unit scale: a stack that is all
    # roundoff must count as the zero map (full-space intersection)
    return null_rows(np.vstack([pa, pb]), rtol, scale=1.0)


def _complement_projector(a: np.ndarray, rtol: float) -> np.ndarray:
    m = a.shape[1]
    basis = orth_rows(a, rtol)
    return np.eye(m) - basis.T @ basis


def sym_basis(m: int) -> list[np.ndarray]:
    """Basis of the symmetric m-by-m matrices: E_ii, then E_ij + E_ji."""
    out = []
    for i in range(m):
        e = np.zeros((m, m))
        e[i, i] = 1.0
        out.append(e)
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros((m, m))
            e[i, j] = 1.0
            e[j, i] = 1.0
            out.append(e)
    return out


def sym_intersection_dim(e_span: np.ndarray, f_span: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """dim(S^2(span e) & S^2(span f)) for subspaces given by spanning rows.

    A symmetric matrix lies in S^2 of a subspace exactly when its column
    space does, i.e. when the projector onto the orthogonal complement of
    the subspace annihilates it.  Stacking both complement projectors over
    a basis of the symmetric matrices reduces the dimension count to a
    kernel computation.
    """
    e_span = np.atleast_2d(np.asarray(e_span, dtype=float))
    f_span = np.atleast_2d(np.asarray(f_span, dtype=float))
    m = e_span.shape[1]
    pe = _complement_projector(e_span, rtol)
    pf = _complement_projector(f_span, rtol)
    basis = sym_basis(m)
    columns = []
    for s in basis:
        columns.append(np.concatenate([(pe @ s).ravel(), (pf @ s).ravel()]))
    stacked = np.array(columns).T  # maps sym coordinates to stacked projections
    dim_sym = len(basis)
    return dim_sym - numeric_rank(stacked, rtol, scale=1.0)
