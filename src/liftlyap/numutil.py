"""Floating-point linear algebra helpers shared by the geometric checks.

Subspaces of R^m are represented by row-stacked spanning matrices; ranks
count the singular values above RANK_RTOL times a scale, by default the
largest singular value (:func:`_kept`), which is the one numeric tolerance
the symbolic layers cannot avoid.  :func:`numeric_rank` ranks a stack of
matrices in one SVD; :func:`least_squares_gap` ranks against a unit scale and
also gives each system's least-squares gap.  Subspace intersections serve the symbol
count, whose prolonged dimension is closed-form in
:mod:`liftlyap.integrability`, so no symmetric-square basis is built here.
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-9


def _kept(s: np.ndarray, scale: float | np.ndarray) -> np.ndarray:
    """The singular values that count toward the rank: those above RANK_RTOL * scale."""
    return s > RANK_RTOL * scale


def numeric_rank(a: np.ndarray, scale: float | None = None) -> int | np.ndarray:
    """Singular values at or below RANK_RTOL * scale count as zero.

    One matrix gives an ``int``; a stack (..., rows, cols) gives an integer
    array (...) of per-matrix ranks.  The default scale is each matrix's
    largest singular value; pass an explicit scale when the matrix is built
    from O(scale) data and may be entirely roundoff (a relative cutoff
    would then mistake noise for full rank).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    s = np.linalg.svd(a, compute_uv=False)
    ranks = np.sum(_kept(s, s[..., :1] if scale is None else scale), axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def least_squares_gap(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks k (...) and gaps sum |U_k U_k^T b - b| (...) of a stack of systems a x = b.

    U_k holds the left singular vectors of the k kept singular values, so the gap is the
    total absolute residual of the least-squares solution at the rank the cutoff decides.
    The cutoff is RANK_RTOL against a unit scale: the rows of ``a`` must have norm at most
    1 on their natural scale, so that a system that is all roundoff has rank 0.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    del vh  # peak memory
    kept = _kept(s, 1.0)
    u *= kept[..., None, :]
    return kept.sum(axis=-1), np.abs((u @ (u.swapaxes(-1, -2) @ b[..., None]))[..., 0] - b).sum(axis=-1)


def orth_rows(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of ``a``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, a.shape[1]))
    return vh[: int(np.sum(_kept(s, s[0])))]


def null_rows(a: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Orthonormal basis (as rows) of the null space {x : a @ x = 0}.

    ``scale`` has the same meaning as in :func:`numeric_rank`.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    u, s, vh = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(a.shape[1])
    return vh[int(np.sum(_kept(s, s[0] if scale is None else scale))) :]


def intersection_dim(a: np.ndarray, b: np.ndarray) -> int:
    """dim(span(a) & span(b)) via rank(a) + rank(b) - rank([a; b])."""
    ra = numeric_rank(a)
    rb = numeric_rank(b)
    if ra == 0 or rb == 0:
        return 0
    return ra + rb - numeric_rank(np.vstack([a, b]))


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
