"""Floating-point linear algebra helpers shared by the geometric checks.

Subspaces of R^m are represented by row-stacked spanning matrices; ranks
use a singular-value cutoff relative to the largest singular value
(default 1e-9), which is the one numeric tolerance the symbolic layers
cannot avoid.  :func:`numeric_rank` ranks a stack of matrices in one SVD.
Subspace intersections (:func:`intersection_dim`, :func:`intersection_basis`)
serve the symbol count, whose prolonged dimension is closed-form in
:mod:`liftlyap.integrability`, so no symmetric-square basis is built here.
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
