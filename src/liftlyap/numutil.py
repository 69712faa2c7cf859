"""Floating-point linear algebra for the polynomial frame premises and the symbol's coordinate order.

No integrability verdict reads a float rank: floats decide only that the
polynomial frames keep their rank on the check grid (a constant frame is
decided by exact elimination at the origin).  The symbol takes its dimensions
and its G1 basis from the exact graph form, and uses floats only to
orthonormalize that basis, pick its coordinate order and check the
quasi-regularity identity.  Ranks count the singular values above
RANK_RTOL times a scale, by default the largest singular value
(:func:`_kept`); :func:`numeric_rank` ranks a stack of matrices in one SVD.
Subspaces of R^m are row-stacked spanning matrices.
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


def orth_rows(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of ``a``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, a.shape[1]))
    return vh[: int(np.sum(_kept(s, s[0])))]

