"""The frame and complement checks over every grid point, as they ran before the lattice
projection.

``frame_build`` and ``complement_frame`` evaluate and rank at all P points of the check grid,
where :meth:`geometry.Frame.build` and :func:`geometry.complement_frame` rank one matrix per
distinct value.  Both are kept as test oracles only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from liftlyap.geometry import ComplementError, Frame, FrameRankError
from liftlyap.numutil import numeric_rank
from liftlyap.poly import Poly


def _require_on_grid(points: np.ndarray, ok: np.ndarray, message: str) -> None:
    """Raise FrameRankError with the first grid point where ``ok`` is false."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise FrameRankError(message.format(tuple(points[bad[0]].tolist())))


def frame_build(dim: int, fields: Sequence[Sequence[Poly]], points: np.ndarray) -> Frame:
    """Validate shapes and constant rank on the check grid (a (P, dim) float array)."""
    cols = tuple(tuple(col) for col in fields)
    for col in cols:
        if len(col) != dim:
            raise ValueError("frame column length does not match dimension")
        for entry in col:
            if entry.nvars != dim:
                raise ValueError("frame entries must be polynomials in the ambient variables")
    frame = Frame(dim, cols)
    if cols:
        ranks = numeric_rank(frame.as_matrix().at(points))
        _require_on_grid(points, ranks == len(cols), "frame drops rank at grid point {}")
    return frame


def complement_frame(c: Frame, user_d: Sequence[Sequence[Poly]] | None, points: np.ndarray) -> Frame:
    """A user complement checked at every grid point, or the coordinate search over every grid point."""
    m = c.dim
    if user_d is not None:
        d = frame_build(m, user_d, points)
        if c.rank + d.rank != m:
            raise ComplementError("user complement has the wrong rank")
        ranks = numeric_rank(Frame(m, c.fields + d.fields).as_matrix().at(points))
        _require_on_grid(points, ranks == m, "[C | D] is singular at grid point {}")
        return d

    zero = (Poly.zero(m),) * m
    span = Frame(m, c.fields + (zero,) * (m - c.rank)).as_matrix().at(points)
    chosen: list[tuple[Poly, ...]] = []
    for i in range(m):
        k = c.rank + len(chosen)
        if k == m:
            break
        span[..., k] = 0.0
        span[:, i, k] = 1.0
        if np.all(numeric_rank(span[..., : k + 1]) == k + 1):
            chosen.append(tuple(Poly.const(m, 1) if j == i else Poly.zero(m) for j in range(m)))
    if len(chosen) != m - c.rank:
        raise ComplementError("no coordinate complement found; supply one explicitly")
    return Frame(m, tuple(chosen))
